"""Pipeline benchmark: generate a workload from a seed, run the six stages, check.

    python3 bench/run.py --workload sweep --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn

Run from anywhere inside a source checkout; nothing needs installing. Each
stage after `synth` runs as its own `python -m arfdx.cli <stage>` process,
one at a time (a closed loop with one client), with `PYTHONPATH=src`.

`--trace 0` sets the inputs up several times, for at least 2 s (median
`setup_s`), runs one whole pipeline, then re-runs single stages in place
until `--seconds` is used and reports end-to-end times from per-stage
median CPU times.
`--trace 1` runs one untraced and one traced pipeline, checks that their
artifacts are byte-identical, and reports the per-layer metrics. The last
stdout line is one JSON object: correct, attempted, failed, metrics. The
exit code is 0 only when every stage exits 0 and every check passes.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from layers import STAGES, per_layer_values
from tracer import Tracer, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

PREP = ("label", "featurize", "split")
SETUP_BUDGET_S = 2.0  # input generations repeat until this is used ...
SETUP_MIN_REPEATS = 3  # ... and at least this often
RUN_BUDGET_S = 170.0  # a run must end within 180 s


class StageTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise StageTimeout()


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


@dataclass
class StageRun:
    stage: str
    spawned_at: float  # time.time(), comparable with the clock in the child
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    code: int

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Context:
    workload: object
    expected: object
    config: Path
    env: dict
    deadline: float
    log: Path


def run_stage(ctx: Context, cmd: list[str], stage: str) -> StageRun:
    """One stage process; wall from spawn to reap, CPU and peak RSS from wait4."""
    remaining = ctx.deadline - time.monotonic()
    if remaining < 1.0:
        return StageRun(stage, 0.0, 0.0, 0.0, 0.0, 0.0, code=-1)
    with ctx.log.open("ab") as log:
        log.write(f"$ {' '.join(cmd)}\n".encode())
        log.flush()
        spawned_at = time.time()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=ctx.env, cwd=ROOT)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:  # deadline, SIGTERM or ^C: never leave the stage running
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, StageTimeout):
                raise
            log.write(b"benchmark: stage killed at the run deadline\n")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(stage, spawned_at, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def stage_cmd(ctx: Context, stage: str, out_dir: Path, spans_dir: Path | None = None) -> list[str]:
    args = [stage, "--config", str(ctx.config), "--out", str(out_dir)]
    if spans_dir is None:
        return [sys.executable, "-m", "arfdx.cli"] + args
    return [sys.executable, str(BENCH / "trace_stage.py"), str(spans_dir / f"{stage}.json")] + args


def run_pipeline(ctx: Context, out_dir: Path, spans_dir: Path | None = None) -> list[StageRun]:
    """The six stages in order; stops at the first stage that fails."""
    out_dir.mkdir(parents=True)
    runs = []
    for stage in STAGES:
        runs.append(run_stage(ctx, stage_cmd(ctx, stage, out_dir, spans_dir), stage))
        if runs[-1].code != 0:
            break
    return runs


def pipeline_wall(runs: list[StageRun]) -> float:
    return runs[-1].end - runs[0].start


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=30)
            if head.returncode == 0 and status.returncode == 0:
                commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def setup(workload, seed: int, dest: Path, min_repeats: int, budget_s: float) -> tuple[object, float]:
    """Write the inputs at least `min_repeats` times and until `budget_s` of
    CPU time is used; returns the expected counts and the median CPU time of
    one generation (CPU time for the reason given in `measure`)."""
    from workloads import write_inputs

    times = []
    while len(times) < min_repeats or sum(times) < budget_s:
        start = time.process_time()
        expected = write_inputs(workload, seed, dest)
        times.append(time.process_time() - start)
    return expected, statistics.median(times)


class Tally:
    """Operations attempted and failed: each stage invocation and each check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def stages(self, runs: list[StageRun]) -> bool:
        """True when the pipeline ran to the end (it stops at the first failure)."""
        self.attempted += len(runs)
        bad = [r for r in runs if r.code != 0]
        self.failed += len(bad)
        self.notes += [f"stage {r.stage} exited {r.code}" for r in bad]
        return not bad

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check {name}: {detail}")


def measure(ctx: Context, work: Path, seconds: float, tally: Tally) -> dict[str, float]:
    """One whole pipeline, then single stages re-run in place until `seconds`
    is used; the end-to-end times are per-stage medians of CPU time.

    CPU time (user + system of the stage process and its threads, from
    wait4) rather than wall time, because on a shared VM the wall time of a
    stage follows the neighbours: with 26% steal, dense_stays `label` took
    1.6-3.3 s wall for 1.5-1.8 s of CPU. Walls are printed, and the traced
    pass reports them per stage. `explain` has no metric of its own, only
    its share of `pipeline_cpu_s`: its work depends on which model kinds
    the sweep selected, so it moves with the seed (see the README).

    Each re-run goes to the stage with the fewest samples that still fits in
    the time left, the shortest first: the short stages, whose times are the
    noisiest, get the most samples. Every stage is deterministic, so re-runs
    must leave the artifacts byte-identical; that is checked at the end.
    """
    from checks import check_outputs, combined_macro_auroc, digests

    out_dir = work / "pipeline"
    start = time.perf_counter()
    runs = run_pipeline(ctx, out_dir)
    if not tally.stages(runs):
        return {}
    for name, ok, detail in check_outputs(out_dir, ctx.workload, ctx.expected):
        tally.check(name, ok, detail)
    if tally.failed:
        return {}
    reference = digests(out_dir)
    samples = {r.stage: [r] for r in runs}
    wall = lambda stage: statistics.median(r.wall_s for r in samples[stage])  # noqa: E731
    while True:
        remaining = min(seconds - (time.perf_counter() - start), ctx.deadline - 5.0 - time.monotonic())
        fits = [stage for stage in STAGES if wall(stage) <= remaining]
        if not fits:
            break
        stage = min(fits, key=lambda s: (len(samples[s]), wall(s)))
        run = run_stage(ctx, stage_cmd(ctx, stage, out_dir), stage)
        if not tally.stages([run]):
            return {}
        samples[stage].append(run)
    tally.check("re-run stages rewrite the same artifacts", digests(out_dir) == reference, "artifacts differ")
    if tally.failed:
        return {}
    cpu = {stage: statistics.median(r.cpu_s for r in samples[stage]) for stage in STAGES}
    print(f"{ctx.workload.name}: {time.perf_counter() - start:.1f} s; median wall / cpu (runs) "
          + " ".join(f"{stage} {wall(stage):.3f} / {cpu[stage]:.3f} ({len(samples[stage])})" for stage in STAGES))
    return {
        "pipeline_cpu_s": sum(cpu.values()),
        "prep_cpu_s": sum(cpu[stage] for stage in PREP),
        "train_cpu_s": cpu["train"],
        "evaluate_cpu_s": cpu["evaluate"],
        "peak_rss_mb": max(r.rss_mb for runs in samples.values() for r in runs),
        "combined_macro_auroc": combined_macro_auroc(out_dir),
    }


def traced(ctx: Context, work: Path, tally: Tally, synth_s: float) -> dict[str, float]:
    """One untraced and one traced pipeline; per-layer metrics from the trace."""
    from checks import check_outputs, digests

    plain_dir, traced_dir, spans_dir = work / "untraced", work / "traced", work / "spans"
    plain = run_pipeline(ctx, plain_dir)
    if not tally.stages(plain):
        return {}
    for name, ok, detail in check_outputs(plain_dir, ctx.workload, ctx.expected):
        tally.check(name, ok, detail)
    spans_dir.mkdir()
    wrapped = run_pipeline(ctx, traced_dir, spans_dir)
    if not tally.stages(wrapped):
        return {}
    tally.check("traced artifacts byte-identical to untraced", digests(traced_dir) == digests(plain_dir),
                "artifacts differ")
    dumps = {}
    for stage in STAGES:
        with (spans_dir / f"{stage}.json").open(encoding="utf-8") as handle:
            dumps[stage] = json.load(handle)
    overhead = pipeline_wall(wrapped) - pipeline_wall(plain)
    values, absent = per_layer_values(
        dumps,
        untraced={r.stage: (r.wall_s, r.cpu_s) for r in plain},
        spawned_at={r.stage: r.spawned_at for r in wrapped},
        synth_s=synth_s,
        overhead_s=overhead,
    )
    print(f"{ctx.workload.name}: traced pipeline, tracing overhead {overhead:.3f} s")
    if absent:
        print("  wrapped names absent from the program (metrics read 0): " + ", ".join(absent))
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict[str, float]]:
    from workloads import WORKLOADS, config_text

    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    tally = Tally()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ARFDX_THREADS", None)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if trace:
            tracer = Tracer()
            tracer.install([("synth.generate", "arfdx.synth", "generate", None)])
            expected, _setup_s = setup(workload, seed, inputs, min_repeats=1, budget_s=0.0)
            synth_s = summarize(tracer.as_dict())["synth.generate"]["total_s"]
        else:
            expected, setup_s = setup(workload, seed, inputs, SETUP_MIN_REPEATS, SETUP_BUDGET_S)
        config = work / "run.ini"
        config.write_text(config_text(workload, seed, inputs), encoding="utf-8")
        ctx = Context(workload, expected, config, env, deadline, work / "stages.log")
        if trace:
            metrics = traced(ctx, work, tally, synth_s)
        else:
            metrics = measure(ctx, work, seconds, tally)
            if metrics:
                metrics["setup_s"] = setup_s
        if tally.notes:
            log_tail = ctx.log.read_text(encoding="utf-8", errors="replace")[-4000:] if ctx.log.exists() else ""
            print(f"{name}: FAILED\n  " + "\n  ".join(tally.notes) + "\n" + log_tail, file=sys.stderr)
        return tally, metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="sweep, cohort_scale, dense_stays, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full result, with the environment, to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "arfdx" / "cli.py").is_file():
        print(f"error: no arfdx sources under {SRC}; run from a full source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)} or all")
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    compileall.compile_dir(str(SRC), quiet=1)  # bytecode cached before any stage is timed
    env_record = environment()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        tally, values = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        correct = correct and tally.failed == 0 and bool(values)
        prefix = f"{name}." if len(names) > 1 else ""
        for key, unit in units.items() if values else ():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
            print(f"  {prefix + key:<48} {values[key]:>14.6g} {unit}")
    print("env: " + json.dumps(env_record, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.record:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, env=env_record)
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
