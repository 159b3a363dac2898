"""Check that two source trees write byte-identical pipeline artifacts.

    python tools/same_bytes.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository. The inputs are seed 1 of
each benchmark workload, written by PARENT's `bench/workloads.py`
(`write_inputs` and `config_text`), and the tier-1 determinism run, whose
config is `DETERMINISM_CONFIG` from PARENT's `tests/test_acceptance.py`. For
each input set, every stage runs as `python -m arfdx.cli` from PARENT's
`src`, then from CHANGE's `src`, in the same output directory, because the
provenance line hashes the config text, which names the inputs by absolute
path. The script prints, per run, how many files are identical and names each
that differs, and exits 1 on any difference or failed stage. It uses only the
standard library; the stages and the input writer need numpy.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

STAGES = ("synth", "label", "featurize", "split", "train", "evaluate", "explain")
SEED = 1

# Writes every workload's inputs and run.ini under argv[1]/<workload>/, and the
# determinism run's config as argv[1]/determinism/run.ini; prints the run names.
WRITE_INPUTS = """\
import sys
from pathlib import Path
from test_acceptance import DETERMINISM_CONFIG
from workloads import WORKLOADS, config_text, write_inputs

work, seed = Path(sys.argv[1]), int(sys.argv[2])
(work / "determinism").mkdir()
(work / "determinism" / "run.ini").write_text(DETERMINISM_CONFIG, encoding="utf-8")
print("determinism")
for name, workload in WORKLOADS.items():
    write_inputs(workload, seed, work / name / "inputs")
    (work / name / "run.ini").write_text(config_text(workload, seed, work / name / "inputs"), encoding="utf-8")
    print(name)
"""


def python_env(*paths: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(path) for path in paths)
    return env


def run_stages(tree: Path, run_dir: Path, stages: tuple[str, ...]) -> str | None:
    """Run `stages` from `tree`'s source into `run_dir/out`; the first failure's output, or None."""
    env = python_env(tree / "src")
    for stage in stages:
        cmd = [sys.executable, "-m", "arfdx.cli", stage, "--config", "run.ini", "--out", "out"]
        done = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            return f"{stage} exited {done.returncode}: {done.stderr.strip()}"
    return None


def compare(parent_out: Path, change_out: Path) -> tuple[int, int, list[str]]:
    """(identical files, files in either tree, one line per name that differs or is missing)."""
    parent_names = {path.name for path in parent_out.iterdir()}
    change_names = {path.name for path in change_out.iterdir()}
    problems = [f"only in parent: {name}" for name in sorted(parent_names - change_names)]
    problems += [f"only in change: {name}" for name in sorted(change_names - parent_names)]
    common = sorted(parent_names & change_names)
    differing = [name for name in common if (parent_out / name).read_bytes() != (change_out / name).read_bytes()]
    problems += [f"differs: {name}" for name in differing]
    return len(common) - len(differing), len(parent_names | change_names), problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    work = Path(tempfile.mkdtemp(prefix="same_bytes."))
    try:
        written = subprocess.run(
            [sys.executable, "-c", WRITE_INPUTS, str(work), str(SEED)],
            env=python_env(parent / "src", parent / "bench", parent / "tests"),
            capture_output=True, text=True,
        )
        if written.returncode != 0:
            print(f"writing the inputs failed: {written.stderr.strip()}", file=sys.stderr)
            return 1
        same = True
        for name in written.stdout.split():
            run_dir = work / name
            # the determinism run writes its own inputs; a workload's come with it
            stages = STAGES if name == "determinism" else STAGES[1:]
            outputs = {}
            for label, tree in (("parent", parent), ("change", change)):
                failure = run_stages(tree, run_dir, stages)
                if failure is not None:
                    print(f"{name}: {label} {failure}")
                    return 1
                outputs[label] = run_dir / f"out_{label}"
                (run_dir / "out").rename(outputs[label])
            identical, total, problems = compare(outputs["parent"], outputs["change"])
            print(f"{name}: {identical} of {total} files identical")
            for problem in problems:
                print(f"  {problem}")
            same = same and not problems
        return 0 if same else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
