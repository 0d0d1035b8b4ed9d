"""Fast self-test of the benchmark: short runs, every metric, inert tracing.

Run from the repository root:  python3 -m pytest -q perfbench/selftest.py

Runs are shortened to 35 simulated seconds: past the 30 s identification
phase, so each SPRC run still synthesizes some rotations, and with a 5 s
metric window, long enough for the program's 1P band-power estimate at
4 m/s.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sprc-closed-loop", "sweep-cipc", "sprc-scenarios")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--duration", "35"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _report(workload: str, trace: int) -> dict:
    path = ROOT / ".perfbench_out" / f"{workload}_seed0_trace{trace}.json"
    return json.loads(path.read_text())


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


def test_spec_names_the_workloads():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_with_units():
    result = _run("sprc-scenarios", trace=0)
    _assert_metrics(result, _spec()["end_to_end"])
    for name in ("setup_s", "samples_per_s", "run_s.p50", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0.0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_matches_untraced(workload):
    result = _run(workload, trace=1)
    _assert_metrics(result, _spec()["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}

    # The traced pass reproduces every untraced digest exactly.
    outcomes = _report(workload, 1)["outcomes"]
    untraced = {o["name"]: o["digest"] for o in outcomes if o["pass"] == 0}
    traced = {o["name"]: o["digest"] for o in outcomes if o["pass"] == 1}
    assert untraced == traced and all(untraced.values())

    sprc_calls = sum(v for k, v in metrics.items()
                     if k.endswith(".calls") and k.split(".")[0] in
                     ("sysid", "sprc"))
    if workload == "sweep-cipc":
        assert sprc_calls == 0
        # Host-speed rescaling is on here: every experiment has a time.
        assert all(o["ref_s"] > 0.0 for o in outcomes)
        assert metrics["cipc.CipcController.step.calls"] > 0
    else:
        assert metrics["sprc.assemble_predictor.calls"] > 0
        assert metrics["sprc.synthesis.accept_ratio"] == 1.0
        assert metrics["cipc.CipcController.step.calls"] == 0
    assert metrics["failed_ratio"] == 0.0
    assert 95.0 < metrics["trace.accounted_pct"] <= 100.0 + 1e-6
