"""Tracing from outside the program: time sprclab's public functions.

The tracer replaces selected functions and methods of the `sprclab`
modules with timing wrappers and puts the originals back on `uninstall`.
Nothing under `src/` knows about it.

Two kinds of boundary are recorded:

* per-sample functions (about 24k calls per 120 s run) are aggregated in
  memory as a call count, self time, maximum and a log-scale latency
  histogram, so memory stays bounded however long the run;
* per-rotation and per-run functions are aggregated the same way and also
  kept as individual spans with a parent link and the id of the enclosing
  `cli.main` call (one experiment).

Self time is a call's duration minus the time spent in wrapped calls it
made, so the self times of all boundaries add up to the time spent inside
the outermost wrapped call.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time

# (qualified name under sprclab, kind). Kind "sample" is aggregated only;
# "rotation" and "run" are also kept as individual spans.
TARGETS = (
    ("cli.main", "run"),
    ("harness.run_experiment", "run"),
    ("harness.export_csv", "run"),
    ("harness.export_json", "run"),
    ("windfield.generate", "run"),
    ("spectral.welch_psd", "run"),
    ("plant.turbine_step", "sample"),
    ("cipc.CipcController.step", "sample"),
    ("sysid.DeltaBuffer.push", "sample"),
    ("sysid.DeltaBuffer.regressor", "sample"),
    ("sysid.DeltaBuffer.delta_y", "sample"),
    ("sysid.MarkovEstimate.update", "sample"),
    ("sysid.MarkovEstimate.estimate", "rotation"),
    ("sprc.SprcController.step", "sample"),
    ("sprc.control_sample", "sample"),
    ("sprc.basis_rows", "sample"),
    ("sprc.assemble_predictor", "rotation"),
    ("sprc.project_predictor", "rotation"),
    ("sprc.solve_dare", "rotation"),
    ("sprc.feedback_gain", "rotation"),
    ("sprc.update_theta", "rotation"),
)

LAYERS = ("plant", "windfield", "sysid", "sprc", "cipc", "spectral",
          "harness", "cli")

_BUCKETS_PER_OCTAVE = 8  # histogram resolution: 2**(1/8), about 9 %
_N_BUCKETS = 40 * _BUCKETS_PER_OCTAVE  # up to 2**40 ns, about 18 minutes
DEADLINE_NS = 5_000_000  # one 200 Hz control period


class Stat:
    """Aggregate of one boundary: counts, self time and latency histogram."""

    __slots__ = ("calls", "self_ns", "max_ns", "over_deadline", "hist",
                 "extra")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.max_ns = 0
        self.over_deadline = 0
        self.hist = [0] * _N_BUCKETS
        self.extra: dict = {}

    def record(self, total_ns: int, self_ns: int) -> None:
        self.calls += 1
        self.self_ns += self_ns
        if total_ns > self.max_ns:
            self.max_ns = total_ns
        if total_ns > DEADLINE_NS:
            self.over_deadline += 1
        bucket = (int(math.log2(total_ns) * _BUCKETS_PER_OCTAVE)
                  if total_ns > 1 else 0)
        self.hist[min(bucket, _N_BUCKETS - 1)] += 1

    def quantile_ns(self, q: float) -> float:
        """Latency quantile from the histogram (bucket's geometric centre)."""
        if self.calls == 0:
            return 0.0
        rank = q * self.calls
        seen = 0
        for bucket, count in enumerate(self.hist):
            seen += count
            if count and seen >= rank:
                return 2.0 ** ((bucket + 0.5) / _BUCKETS_PER_OCTAVE)
        return float(self.max_ns)

    def to_dict(self) -> dict:
        return {"calls": self.calls, "self_ns": self.self_ns,
                "max_ns": self.max_ns, "over_5ms": self.over_deadline,
                "p50_ns": self.quantile_ns(0.5),
                "p99_ns": self.quantile_ns(0.99), **self.extra}


def _solve_dare_hook(stat: Stat, args, result) -> None:
    _, iterations, residual = result
    extra = stat.extra
    extra["iterations_sum"] = extra.get("iterations_sum", 0) + int(iterations)
    extra["residual_max"] = max(extra.get("residual_max", 0.0),
                                float(residual))


def _export_hook(stat: Stat, args, result) -> None:
    stat.extra["bytes"] = stat.extra.get("bytes", 0) + os.path.getsize(args[1])


HOOKS = {
    "sprc.solve_dare": _solve_dare_hook,
    "harness.export_csv": _export_hook,
    "harness.export_json": _export_hook,
}


class Tracer:
    """Installs timing wrappers on TARGETS and collects what they record."""

    def __init__(self):
        self.stats = {name: Stat() for name, _ in TARGETS}
        self.spans: list[list] = []  # [id, parent, root, name, start, end]
        self.missing: list[str] = []
        self._stack: list[list] = []  # [child_ns, span_id] per active call
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, kind: str, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        keep = kind != "sample"
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = None
            if keep:
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                sid = len(spans)
                root = spans[parent][2] if parent is not None else sid
                span = [sid, parent, root, name, 0, 0]
                spans.append(span)
            frame = [0, span[0] if span else None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - start
                if stack:
                    stack[-1][0] += total
                stat.record(total, total - frame[0])
                if span:
                    span[4], span[5] = start, end
            if hook:
                hook(stat, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed
        in `missing` and reports zero calls."""
        for name, kind in TARGETS:
            module_name, *path = name.split(".")
            module = importlib.import_module(f"sprclab.{module_name}")
            if len(path) == 1:
                self._install_function(module, path[0], name, kind)
            else:
                self._install_method(module, path, name, kind)

    def _install_function(self, module, attr: str, name: str,
                          kind: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = self._wrap(name, kind, original)
        # Rebind every sprclab module that imported the function by name,
        # e.g. `from .plant import turbine_step` in harness.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sprclab"
                                   or mod_name.startswith("sprclab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def _install_method(self, module, path: list[str], name: str,
                        kind: str) -> None:
        cls = getattr(module, path[0], None)
        original = None if cls is None else vars(cls).get(path[1])
        if original is None:
            self.missing.append(name)
            return
        if isinstance(original, property):
            replacement = property(self._wrap(name, kind, original.fget),
                                   original.fset, original.fdel,
                                   original.__doc__)
        else:
            replacement = self._wrap(name, kind, original)
        setattr(cls, path[1], replacement)
        self._restore.append((cls, path[1], original))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def export(self) -> dict:
        return {
            "stats": {name: stat.to_dict() for name, stat in self.stats.items()},
            "spans_fields": ["id", "parent", "root", "name", "start_ns",
                             "end_ns"],
            "spans": self.spans,
            "missing": self.missing,
        }
