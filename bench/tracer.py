"""Outside-in spans around the program's public functions.

A `Tracer` replaces module attributes with wrappers that record one span per
call (name, start, end, parent) in memory, plus optional per-call counters.
Nothing in the program is edited: every module that binds the original
function object gets the wrapper, so calls through `from x import f` aliases
are seen too. Spans assume one thread, as the CLI runs with its default
single worker.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Optional


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []

    def _open(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(self._name_ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run `fn` inside a span named `name`."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """`fn` recording a span per call; `hook(counters, args, kwargs, result, exc)`
        runs after the span closes, so its own cost lands in the parent's self time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if hook is not None:
                    hook(self.counters, args, kwargs, None, exc)
                raise
            self._close(idx)
            if hook is not None:
                hook(self.counters, args, kwargs, result, None)
            return result

        return wrapper

    def install(self, targets: Iterable[tuple], package: str = "arfdx") -> None:
        """Wrap each `(name, module, attribute, hook)` target.

        A target whose module or attribute does not exist is recorded in
        `absent` and skipped. Every loaded module of `package` that binds the
        original function is patched.
        """
        targets = list(targets)
        for _, module_name, _, _ in targets:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for name, module_name, attr, hook in targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def as_dict(self, **meta) -> dict:
        return dict(
            meta,
            names=self.names,
            name_id=self.name_id.tolist(),
            start=self.start.tolist(),
            end=self.end.tolist(),
            parent=self.parent.tolist(),
            counters=dict(self.counters),
            absent=self.absent,
        )

    def dump(self, path, **meta) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(**meta), handle, separators=(",", ":"))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(dump: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (summed duration) and self time.

    Self time is a span's duration minus the part of it that its direct
    children cover.
    """
    starts, ends, parents = dump["start"], dump["end"], dump["parent"]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[idx], ends[idx]))
    out: dict[str, dict[str, float]] = {}
    for idx, nid in enumerate(dump["name_id"]):
        entry = out.setdefault(dump["names"][nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = ends[idx] - starts[idx]
        kids = children.get(idx)
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - (_covered(kids) if kids else 0.0)
    return out
