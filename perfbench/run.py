"""sprclab benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sprc-closed-loop --seed 0 \
        --seconds 30 --trace 0

Each experiment is one in-process call of the `sprclab.cli` entry point,
`sprclab run --config <generated.json> --output <dir>`, one after another
(one closed-loop client). With `--trace 0` the benchmark repeats whole
passes over the workload's experiments for `--seconds` and reports the
end-to-end metrics; with `--trace 1` it runs one untraced and one traced
pass and reports the per-layer metrics. Every experiment's CSV and JSON
output is hashed; a digest that differs between two runs of the same
experiment within one invocation, a non-zero exit code or a non-finite
output counts the experiment as failed. On the workloads named in
`workloads.RESCALED`, experiment times are rescaled to the reference host
speed measured by `hostspeed.py`. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import hostspeed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "run_s.p50": "s",
    "var_red_pct": "%",
    "pitch_var_deg2": "deg2",
    "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    """The checkout has no sprclab sources to benchmark."""


def import_program():
    """Import `sprclab.cli` from this checkout's `src/` (never elsewhere)."""
    if not (SRC / "sprclab" / "cli.py").is_file():
        raise ProgramMissing(f"no sprclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from sprclab import cli
    return cli


@dataclass
class Outcome:
    """One experiment run: wall time, exit code, output digest and checks."""

    name: str
    controlled: bool
    wall_s: float
    exit_code: int | None
    ref_s: float = 0.0  # wall_s, rescaled on workloads.RESCALED
    digest: str = ""
    samples: int = 0
    load_variance: list = field(default_factory=list)
    pitch_variance: list = field(default_factory=list)
    error: str = ""


def write_configs(pairs, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for pair in pairs:
        for exp in (pair.baseline, pair.controlled):
            path = directory / f"{exp.name}.json"
            path.write_text(json.dumps(exp.config, indent=2))
            paths[exp.name] = path
    return paths


def _check_outputs(outcome: Outcome, config: dict, csv_bytes: bytes,
                   json_bytes: bytes) -> None:
    """Finite outputs, and JSON variances that match the CSV time series."""
    header = csv_bytes.split(b"\n", 1)[0].decode().strip().split(",")
    data = np.loadtxt(io.BytesIO(csv_bytes), delimiter=",", skiprows=1,
                      ndmin=2)
    if not np.all(np.isfinite(data)):
        outcome.error = "non-finite value in the CSV output"
        return
    metrics = json.loads(json_bytes)["metrics"]
    load_var = [float(v) for v in metrics["load_variance"]]
    pitch_var = [float(v) for v in metrics["pitch_variance"]]
    if not np.all(np.isfinite(load_var + pitch_var)):
        outcome.error = "non-finite variance in the JSON output"
        return
    time_col = data[:, header.index("time")]
    window = time_col >= config["eval_start_s"] - 1e-6
    cols = [header.index(c) for c in ("y1", "y2", "u1", "u2")]
    recomputed = data[window][:, cols].var(axis=0)
    if not np.allclose(recomputed, load_var + pitch_var, rtol=1e-5,
                       atol=1e-12):
        outcome.error = "JSON variances disagree with the CSV time series"
        return
    outcome.samples = len(data)
    outcome.load_variance = load_var
    outcome.pitch_variance = pitch_var


def run_one(cli, exp, config_path: Path, outdir: Path,
            reference: Outcome | None) -> Outcome:
    """Run one experiment through the CLI and check what it wrote.

    The first successful run of an experiment is checked in full and
    becomes the reference; later runs must reproduce its digest exactly.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    argv = ["run", "--config", str(config_path), "--output", str(outdir)]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # a crash fails this experiment, not the benchmark
        traceback.print_exc(file=sys.stderr)
        code = None
    outcome = Outcome(exp.name, exp.controlled, time.perf_counter() - start,
                      code)
    if code != 0:
        outcome.error = f"exit code {code}"
        return outcome
    csv_files = list(outdir.glob("*.csv"))
    json_files = list(outdir.glob("*.json"))
    if len(csv_files) != 1 or len(json_files) != 1:
        outcome.error = "expected one CSV and one JSON output"
        return outcome
    csv_bytes = csv_files[0].read_bytes()
    json_bytes = json_files[0].read_bytes()
    shutil.rmtree(outdir)
    outcome.digest = hashlib.sha256(
        csv_bytes + b"\0" + json_bytes).hexdigest()
    if reference is None:
        _check_outputs(outcome, exp.config, csv_bytes, json_bytes)
    elif outcome.digest != reference.digest:
        outcome.error = "output digest differs from the first run"
    else:
        outcome.samples = reference.samples
        outcome.load_variance = reference.load_variance
        outcome.pitch_variance = reference.pitch_variance
    return outcome


def run_pass(cli, pairs, config_paths, workdir: Path,
             references: dict[str, Outcome], rescale: bool) -> list[Outcome]:
    """One pass over the workload; with `rescale`, each experiment is
    bracketed by host-speed probes and its time rescaled (hostspeed.py)."""
    outcomes = []
    before = hostspeed.kernel_time() if rescale else 0.0
    for pair in pairs:
        for exp in (pair.baseline, pair.controlled):
            outcome = run_one(cli, exp, config_paths[exp.name],
                              workdir / exp.name, references.get(exp.name))
            outcome.ref_s = outcome.wall_s
            if rescale:
                after = hostspeed.kernel_time()
                outcome.ref_s = hostspeed.to_reference(outcome.wall_s,
                                                       before, after)
                before = after
            if not outcome.error:
                references.setdefault(exp.name, outcome)
            else:
                print(f"FAILED {exp.name}: {outcome.error}", file=sys.stderr)
            outcomes.append(outcome)
    return outcomes


def measure_setup(args) -> list[float]:
    """Wall time from starting a fresh benchmark process until it is ready
    to time its first experiment (imports and config generation)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.duration is not None:
        cmd += ["--duration", str(args.duration)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit code {code})")
        times.append(ready - start)
    return times


def end_to_end(pairs, outcomes, references, setup_s: float,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics and the counts they rest on."""
    ok = [o for o in outcomes if not o.error]
    controlled = [o.ref_s for o in ok if o.controlled]
    samples = sum(o.samples for o in ok)
    wall = sum(o.ref_s for o in ok)
    reductions, duties = [], []
    for pair in pairs:
        base = references.get(pair.baseline.name)
        ctrl = references.get(pair.controlled.name)
        if base is None or ctrl is None:
            continue
        reductions.append(100.0 * (1.0 - sum(ctrl.load_variance)
                                   / sum(base.load_variance)))
        duties.append(statistics.fmean(ctrl.pitch_variance))
    values = {
        "setup_s": setup_s,
        "samples_per_s": samples / wall if wall else 0.0,
        "run_s.p50": statistics.median(controlled) if controlled else 0.0,
        "var_red_pct": statistics.fmean(reductions) if reductions else 0.0,
        "pitch_var_deg2": statistics.fmean(duties) if duties else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {"samples": samples, "controlled_runs": len(controlled),
              "pairs": len(reductions),
              "wall_s": sum(o.wall_s for o in ok),
              "ref_s": wall}
    return values, counts


def per_layer(tr: tracing.Tracer, untraced_s: float, traced_s: float,
              failed_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    stats = tr.stats
    for name, kind in tracing.TARGETS:
        stat = stats[name]
        out[f"{name}.calls"] = (stat.calls, "count")
        out[f"{name}.self_s"] = (stat.self_ns / 1e9, "s")
        if kind == "sample" and name != "sprc.SprcController.step":
            out[f"{name}.us_p50"] = (stat.quantile_ns(0.5) / 1e3, "us")
            out[f"{name}.us_p99"] = (stat.quantile_ns(0.99) / 1e3, "us")
    for name in ("sysid.MarkovEstimate.estimate", "sprc.assemble_predictor"):
        out[f"{name}.ms_p50"] = (stats[name].quantile_ns(0.5) / 1e6, "ms")
    step = stats["sprc.SprcController.step"]
    out["sprc.SprcController.step.ms_p50"] = (step.quantile_ns(0.5) / 1e6, "ms")
    out["sprc.SprcController.step.ms_p99"] = (step.quantile_ns(0.99) / 1e6,
                                              "ms")
    out["sprc.SprcController.step.ms_max"] = (step.max_ns / 1e6, "ms")
    out["sprc.SprcController.step.over_5ms"] = (step.over_deadline, "count")
    for name in ("harness.export_csv", "harness.export_json"):
        out[f"{name}.bytes"] = (stats[name].extra.get("bytes", 0), "bytes")
    dare = stats["sprc.solve_dare"]
    out["sprc.solve_dare.iterations_mean"] = (
        dare.extra.get("iterations_sum", 0) / dare.calls if dare.calls else 0.0,
        "count")
    out["sprc.solve_dare.residual_max"] = (dare.extra.get("residual_max", 0.0),
                                           "1")
    assembled = stats["sprc.assemble_predictor"].calls
    out["sprc.synthesis.accept_ratio"] = (
        stats["sprc.update_theta"].calls / assembled if assembled else 0.0,
        "ratio")
    total_self = 0.0
    for layer in tracing.LAYERS:
        layer_self = sum(stat.self_ns for name, stat in stats.items()
                         if name.split(".", 1)[0] == layer) / 1e9
        out[f"{layer}.self_s"] = (layer_self, "s")
        total_self += layer_self
    out["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    out["trace.accounted_pct"] = (100.0 * total_self / traced_s, "%")
    out["failed_ratio"] = (failed_ratio, "ratio")
    return out


def _openblas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports (numpy's and scipy's)."""
    symbols = ("scipy_openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib_path in sorted(libs.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(lib_path))
            except OSError:
                continue
            for symbol in symbols:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[f"{pkg.__name__}:{lib_path.name}"] = int(fn())
                    break
    return found


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in (SRC / "sprclab").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas_build,
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "src_sprclab_lines": src_lines,
    }


def _print_table(rows: dict[str, tuple[float, str]], notes: dict) -> None:
    for name, (value, unit) in rows.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget for --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--duration", type=float,
                        help="simulated seconds per experiment (self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_program()
    except ProgramMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    pairs = workloads.build(args.workload, args.seed, args.duration)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        config_paths = write_configs(pairs, workdir / "configs")
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return measure(args, cli, pairs, config_paths, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cli, pairs, config_paths, workdir: Path) -> int:
    references: dict[str, Outcome] = {}
    passes: list[list[Outcome]] = []
    report: dict = {"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "seconds": args.seconds}
    rescale = args.workload in workloads.RESCALED
    started = time.perf_counter()
    if args.trace == 0:
        # Whole passes until the next one would overrun the budget.
        while True:
            passes.append(run_pass(cli, pairs, config_paths, workdir,
                                   references, rescale))
            elapsed = time.perf_counter() - started
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times = measure_setup(args)
        report["setup_probes_s"] = setup_times
    else:
        passes.append(run_pass(cli, pairs, config_paths, workdir, references,
                               rescale))
        tr = tracing.Tracer()
        tr.install()
        try:
            passes.append(run_pass(cli, pairs, config_paths, workdir,
                                   references, rescale))
        finally:
            tr.uninstall()
        if tr.missing:
            print(f"benchmark: not traced, absent from the program: "
                  f"{', '.join(tr.missing)}", file=sys.stderr)
        report["trace_data"] = tr.export()

    outcomes = [o for p in passes for o in p]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.error)
    env = environment()
    report["environment"] = env
    report["outcomes"] = [
        {"pass": i, "name": o.name, "wall_s": o.wall_s, "ref_s": o.ref_s,
         "exit_code": o.exit_code, "digest": o.digest, "error": o.error}
        for i, p in enumerate(passes) for o in p]

    print(f"environment {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} "
          f"pass(es), {attempted} experiments, {failed} failed")
    if args.trace == 0:
        values, counts = end_to_end(pairs, outcomes, references,
                                    statistics.median(setup_times),
                                    peak_rss_mb)
        rows = {name: (values[name], unit)
                for name, unit in END_TO_END_UNITS.items()}
        notes = {
            "setup_s": f"median of {len(setup_times)} fresh processes",
            "samples_per_s": f"{counts['samples']} samples; "
                             f"{counts['wall_s']:.3f} s wall = "
                             f"{counts['ref_s']:.3f} s at reference speed",
            "run_s.p50": f"{counts['controlled_runs']} controlled runs",
            "var_red_pct": f"mean of {counts['pairs']} matched pairs",
            "pitch_var_deg2": f"mean of {counts['pairs']} controlled runs",
        }
        print(f"  failed_ratio {failed / attempted:.6g}")
    else:
        untraced_s = sum(o.wall_s for o in passes[0])
        traced_s = sum(o.wall_s for o in passes[1])
        rows = per_layer(tr, untraced_s, traced_s, failed / attempted)
        notes = {"trace.overhead_pct": f"traced {traced_s:.3f} s vs "
                                       f"untraced {untraced_s:.3f} s"}
    _print_table(rows, notes)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in rows.items()}
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    report_path.write_text(json.dumps(report))
    print(f"report {report_path.relative_to(ROOT)}")

    result = {
        "correct": failed == 0 and bool(references),
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
