"""Tests for the command-line interface."""

import csv
import gc
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sprclab
from sprclab import harness, windfield
from sprclab.cli import main
from sprclab.harness import ExperimentConfig, Seeds
from sprclab.spectral import welch_psd


def test_windgen_writes_series_and_stats(tmp_path, capsys):
    rc = main(["windgen", "--mode", "lidar", "--mean", "5", "--duration",
               "30", "--seed", "0", "--output", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "wind_lidar_5_0.csv"
    json_path = tmp_path / "wind_lidar_5_0.json"
    assert csv_path.exists() and json_path.exists()
    stats = json.loads(json_path.read_text())
    assert abs(stats["ti_percent"] - 8.8) < 0.5
    rows = csv_path.read_text().strip().split("\n")
    assert rows[0] == "time,speed"
    assert len(rows) == 30 * 200 + 1


def test_windgen_refuses_more_samples_than_the_cap(tmp_path, capsys):
    # 1e15 samples: refused by name before anything is allocated.
    rc = main(["windgen", "--duration", "1e9", "--rate", "1e6", "--output",
               str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error: duration:")
    assert not list(tmp_path.iterdir())


def test_run_exports_record(tmp_path, capsys):
    rc = main(["run", "--mode", "static0", "--controller", "none",
               "--duration", "12", "--output", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "none_static0_5.csv").exists()
    assert (tmp_path / "none_static0_5.json").exists()
    metrics = json.loads(capsys.readouterr().out)
    assert "load_variance" in metrics


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["run", "--config", str(bad), "--output", str(tmp_path)])
    assert rc == 1
    capsys.readouterr()
    # Non-finite or negative flag values are config errors naming their
    # field, for a run, a wind series and a spectrum alike.
    series = tmp_path / "series.csv"
    series.write_text("time,y1\n" + "".join(
        f"{k / 200},{np.sin(k / 10)}\n" for k in range(64)))
    for argv, name in (
            (["run", "--mean-wind", "nan"], "mean_wind"),
            (["run", "--duration", "inf"], "duration"),
            (["run", "--seed", "-1"], "seeds.wind"),
            (["windgen", "--seed", "-3"], "seed"),
            (["windgen", "--duration", "nan"], "duration"),
            (["windgen", "--mean", "inf"], "mean"),
            (["windgen", "--rate", "nan"], "rate"),
            (["psd", str(series), "--rate", "nan"], "rate"),
            (["psd", str(series), "--rate", "-5"], "rate"),
            (["psd", str(series), "--rate", "0"], "rate")):
        if argv[0] != "psd":
            argv = [*argv, "--output", str(tmp_path)]
        rc = main(argv)
        assert rc == 1, argv
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: {name}:"), argv
        assert out == ""
    # A wind_mean event must name a positive mean: it is refused with the
    # config, before any wind is synthesized.
    for value in (-1, 0):
        bad.write_text(json.dumps({
            "duration": 12, "eval_start_s": 3,
            "events": [{"time_s": 5, "kind": "wind_mean", "value": value}]}))
        rc = main(["run", "--config", str(bad), "--output", str(tmp_path)])
        assert rc == 1, value
        out, err = capsys.readouterr()
        assert err.startswith("config error: events[0].value:"), value
        assert out == ""


def test_overflowing_metrics_exit_code(tmp_path, capsys):
    # A huge collective step overflows the load variance and band powers;
    # the run is a numeric failure that writes no files, not a run whose
    # JSON carries Infinity.
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({
        "duration": 12, "eval_start_s": 3,
        "events": [{"time_s": 5, "kind": "collective_pitch",
                    "value": 1e300}]}))
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(config), "--output", str(out_dir)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("numeric failure: load_variance: not finite")
    assert out == ""
    assert not out_dir.exists()


def test_load_scale_overflow_names_its_path(tmp_path, capsys):
    # Squaring the low-passed wind over a tiny reference speed overflows a
    # Python float; the run is a numeric failure naming the field.
    config = tmp_path / "tiny_ref.json"
    config.write_text(json.dumps({
        "duration": 12, "eval_start_s": 3,
        "plant": {"loads": {"wind_ref_mps": 1e-300}}}))
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(config), "--output", str(out_dir)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("numeric failure: plant.loads.wind_ref_mps:")
    assert out == ""
    assert not out_dir.exists()


def test_main_leaves_no_parser_for_the_collector(tmp_path, capsys):
    # An argparse parser holds reference cycles. `main` reuses the one
    # parser of the process, so a call leaves none of its objects behind
    # for the cyclic collector, however often a process calls it.
    argv = ["windgen", "--duration", "5", "--output", str(tmp_path)]
    assert main(argv) == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        left = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def test_linalg_error_exit_code(tmp_path, capsys, monkeypatch):
    def singular(config):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(harness, "run_experiment", singular)
    rc = main(["run", "--duration", "1", "--output", str(tmp_path)])
    assert rc == 2
    assert "numeric failure: singular matrix" in capsys.readouterr().err


# Dotted path of the offending value -> a config that must be refused.
MALFORMED = {
    "seeds.wnd": {"seeds": {"wnd": 3}},
    "mean_wnd": {"mean_wnd": 4.5},
    "duration": {"duration": "5"},
    "plant.n_blades": {"plant": {"n_blades": 3}},
    "sprc.harmonics": {"sprc": {"harmonics": [1]}},
    "events[0].value": {"events": [{"time_s": 6.0, "kind": "wind_mean"}]},
    "plant.ts": {"plant": {"ts": 0.0}},
    "plant.wind_lowpass_tau_s": {"plant": {"wind_lowpass_tau_s": 0.0}},
    "plant.rotor.tau_s": {"plant": {"rotor": {"tau_s": 0.0}}},
    "plant.servo_bandwidth_hz": {"plant": {"servo_bandwidth_hz": -15.0}},
    "cipc.notch_pole_radius": {"cipc": {"notch_pole_radius": 1.5}},
    "events[0].time_s": {"events": [
        {"time_s": 500.0, "kind": "wind_mean", "value": 5.0}]},
    "events[1].time_s": {"events": [
        {"time_s": 6.0, "kind": "wind_mean", "value": 5.0},
        {"time_s": -1.0, "kind": "collective_pitch", "value": 4.0}]},
    "sprc.past_window": {"sprc": {"past_window": 0}},
    # A key of earlier versions, at a value they accepted: now unknown.
    "sprc.dare_iterations": {"sprc": {"dare_iterations": 50}},
    "sprc.forgetting": {"sprc": {"forgetting": 1.5}},
    "sprc.period_fraction": {"sprc": {"period_fraction": 0.0}},
    "sprc.alpha": {"sprc": {"alpha": 2.0}},
    "sprc.beta": {"sprc": {"beta": -0.5}},
    # Q = I now; earlier versions accepted this weight.
    "sprc.q_weight": {"sprc": {"q_weight": 2.0}},
    "sprc.r_weight": {"sprc": {"r_weight": -1.0}},
    "sprc.ident_duration_s": {"sprc": {"ident_duration_s": -5.0}},
    "sprc.excitation_amplitude_deg": {"sprc": {
        "excitation_amplitude_deg": -1.5}},
    "plant.loads.wind_ref_mps": {"plant": {"loads": {"wind_ref_mps": 0.0}}},
    "plant.loads.noise_std_nm": {"plant": {"loads": {"noise_std_nm": -0.1}}},
    # Non-finite values: JSON's Infinity and NaN parse as floats.
    "plant.loads.noise_std_nm infinite": {"plant": {"loads": {
        "noise_std_nm": float("inf")}}},
    "mean_wind": {"mean_wind": float("nan")},
    "plant.rotor.min_rpm": {"plant": {"rotor": {"min_rpm": 0.0,
                                                "rpm_offset": -1000.0}}},
    "cipc.pitch_limit_deg": {"cipc": {"pitch_limit_deg": -1.0}},
    # A second plant.ts case; the text after the space only labels it.
    "plant.ts below 200 Hz": {"plant": {"ts": 0.01}},
    # Time constants shorter than one sample, whose lags would overshoot.
    "plant.rotor.tau_s below ts": {"plant": {"rotor": {"tau_s": 0.001}}},
    "plant.wind_lowpass_tau_s below ts": {"plant": {
        "wind_lowpass_tau_s": 0.002}},
    # 1.2e11 samples, refused before a run allocates them.
    "plant.ts of 1 ns": {"plant": {"ts": 1e-9}},
    # 2e11 samples even at the largest plant.ts: the duration's fault.
    "duration of 1e9 s": {"duration": 1e9},
    # SPRC periods (0.9 of a 52-sample rotation at 5 m/s) that leave no
    # room for the window or the basis, refused before the wind is made.
    "sprc.past_window above the period": {"controller": "sprc-1p",
                                          "sprc": {"past_window": 60}},
    "sprc.period_fraction of 1e-9": {"controller": "sprc-1p",
                                     "sprc": {"period_fraction": 1e-9}},
    # A rotor floor at which one rotation takes more than 1e7 samples.
    **{f"plant.rotor.min_rpm near zero under {controller}": {
        "controller": controller, "duration": 12, "eval_start_s": 3,
        "plant": {"rotor": {"min_rpm": 1e-300, "rpm_offset": -1000.0}}}
       for controller in ("none", "cipc", "sprc-1p")},
    # A 0.1 rpm rotation makes an SPRC period of about 108,000 samples,
    # against the run's 2,400.
    "duration below the SPRC period": {
        "controller": "sprc-1p", "duration": 12, "eval_start_s": 3,
        "plant": {"rotor": {"min_rpm": 0.1, "rpm_offset": -1000.0}}},
}


@pytest.mark.parametrize("path", list(MALFORMED))
def test_malformed_config_names_path(tmp_path, capsys, path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED[path]))
    rc = main(["run", "--config", str(bad), "--output", str(tmp_path)])
    assert rc == 1
    assert f"{path.split()[0]}:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("mode", "lidar"),
                                        ("mean_wind", 4.5),
                                        ("controller", "cipc")])
def test_sweep_refuses_base_config_with_swept_key(tmp_path, capsys, key,
                                                  value):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({key: value, "duration": 6.0,
                                "eval_start_s": 3.0}))
    rc = main(["sweep", "--config", str(base), "--controllers", "cipc",
               "--output", str(tmp_path)])
    assert rc == 1
    assert f"{key}:" in capsys.readouterr().err
    assert not (tmp_path / "sweep_table.json").exists()


def test_sweep_refuses_a_later_cell_before_the_first_run(tmp_path, capsys,
                                                        monkeypatch):
    # P is 72 at 4 m/s and 56 at 4.5 m/s but 46 at 5 m/s, so a past window
    # of 50 runs in the first two cells and not in static0 at 5 m/s.
    runs = []
    monkeypatch.setattr(harness, "run_experiment",
                        lambda config: runs.append(config))
    base = tmp_path / "base.json"
    base.write_text(json.dumps({
        "duration": 12, "eval_start_s": 4,
        "sprc": {"past_window": 50, "ident_duration_s": 4}}))
    rc = main(["sweep", "--config", str(base), "--controllers", "cipc",
               "sprc-1p2p", "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert runs == []
    assert err.startswith("config error: sprc.past_window:")
    assert "(cell static0 at 5 m/s)" in err
    assert not (tmp_path / "sweep_table.json").exists()


def test_sweep_table_holds_each_cells_matched_pair(tmp_path, capsys):
    # Twelve cells per controller, in grid order; a cell's reduction and
    # duty are those of its matched pair run directly, bit for bit.
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"duration": 12.0, "eval_start_s": 3.0}))
    rc = main(["sweep", "--config", str(base), "--controllers", "sprc-1p",
               "cipc", "--seed", "3", "--output", str(tmp_path)])
    assert rc == 0
    table = json.loads((tmp_path / "sweep_table.json").read_text())
    labels = [f"{mode}@{speed}" for mode in harness.SWEEP_MODES
              for speed in harness.SWEEP_SPEEDS]
    for key in ("reductions", "pitch_variance"):
        assert list(table[key]) == ["sprc-1p", "cipc"]
        assert all(list(cells) == labels for cells in table[key].values())
    cell = ExperimentConfig(mode="lidar", mean_wind=4.5, duration=12.0,
                            eval_start_s=3.0, seeds=Seeds(3, 4, 5))
    baseline, record = (harness.run_experiment(replace(cell, controller=c))
                        for c in ("none", "cipc"))
    assert (table["reductions"]["cipc"]["lidar@4.5"]
            == harness.variance_reduction(baseline, record)["pooled"])
    assert (table["pitch_variance"]["cipc"]["lidar@4.5"]
            == float(np.mean(harness.actuator_duty(record))))


# An overflow inside SPRC's per-rotation numerics, with warnings as errors:
# the metrics refuse it by name, or the rotations fail safe and the run
# completes.
@pytest.mark.parametrize("controller, block, key, value, rc_want", [
    ("sprc-1p", "loads", "amp_1p_nm", 1e300, 2),
    ("sprc-1p2p", "loads", "wind_gain_nm_per_mps", -1e300, 2),
    ("sprc-1p", "sprc", "excitation_amplitude_deg", 1e300, 2),
    ("sprc-1p2p", "sprc", "forgetting", 1e-9, 0),
])
def test_sprc_overflow_exits_without_warnings(tmp_path, capsys, controller,
                                              block, key, value, rc_want):
    sprc = {"ident_duration_s": 2.0}  # synthesis from 2 s on
    config = {"controller": controller, "duration": 12.0,
              "eval_start_s": 3.0, "sprc": sprc}
    if block == "sprc":
        sprc[key] = value
    else:
        config["plant"] = {"loads": {key: value}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(config))
    rc = main(["run", "--config", str(path), "--output", str(tmp_path)])
    assert rc == rc_want
    if rc_want == 2:
        assert ("numeric failure: load_variance: not finite"
                in capsys.readouterr().err)


def test_exported_config_reruns_identically(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    rc = main(["run", "--controller", "cipc", "--duration", "12",
               "--output", str(first)])
    assert rc == 0
    exported = json.loads((first / "cipc_static0_5.json").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps(exported["config"]))
    rc = main(["run", "--config", str(config), "--output", str(second)])
    assert rc == 0
    assert ((second / "cipc_static0_5.csv").read_bytes()
            == (first / "cipc_static0_5.csv").read_bytes())


def test_invalid_duration_exit_code(tmp_path, capsys):
    rc = main(["run", "--duration", "-5", "--output", str(tmp_path)])
    assert rc == 1
    # 0.001 s is less than one sample at 200 Hz. The longer ones hold too
    # few samples for the Welch segment (0.05 s run, 0.03 s wind) or too
    # few PSD bins in the 1P band (1 s run). Each is a config error that
    # names the duration, for a run and for a bare wind series alike.
    for command, duration in (("run", "0.001"), ("windgen", "0.001"),
                              ("run", "0.05"), ("run", "1"),
                              ("windgen", "0.03")):
        capsys.readouterr()
        rc = main([command, "--duration", duration, "--output",
                   str(tmp_path)])
        assert rc == 1
        assert f"duration {duration} s" in capsys.readouterr().err


def test_psd_subcommand(tmp_path, capsys):
    t = np.arange(4000) / 200.0
    csv_path = tmp_path / "series.csv"
    with open(csv_path, "w") as fh:
        fh.write("time,y1\n")
        for ti, yi in zip(t, np.sin(2 * np.pi * 5.0 * t)):
            fh.write(f"{ti},{yi}\n")
    rc = main(["psd", str(csv_path), "--column", "y1", "--rate", "200",
               "--segment", "1024"])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "frequency_hz,power"
    assert len(out) > 100


def test_psd_output_matches_csv_writer_reference(tmp_path, capsys):
    t = np.arange(3000) / 200.0
    y = np.sin(2 * np.pi * 3.0 * t) + 0.1 * np.cos(2 * np.pi * 41.0 * t)
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("time,y1\n" + "".join(
        f"{ti},{yi}\n" for ti, yi in zip(t, y)))
    # Without --segment, a series shorter than 4096 samples is one segment
    # of its full length, as in welch_psd.
    for segment, flags in ((512, ["--segment", "512"]), (None, [])):
        rc = main(["psd", str(csv_path), "--rate", "200", *flags])
        assert rc == 0
        freqs, power = welch_psd(y, 200.0, segment_length=segment)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["frequency_hz", "power"])
        for f, p in zip(freqs, power):
            writer.writerow([f"{f:.6g}", f"{p:.6g}"])
        assert capsys.readouterr().out == want.getvalue()


def test_windgen_csv_matches_csv_writer_reference(tmp_path, capsys):
    rc = main(["windgen", "--mode", "gusts", "--duration", "20", "--seed",
               "3", "--output", str(tmp_path)])
    assert rc == 0
    series = windfield.generate(windfield.GridMode.GUSTS, 5.0, 20.0, 200.0, 3)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["time", "speed"])
    for t, v in zip(series.time(), series.samples):
        writer.writerow([f"{t:.6f}", f"{v:.9g}"])
    got = (tmp_path / "wind_gusts_5_3.csv").read_bytes()
    assert got == want.getvalue().encode()


def test_psd_missing_column_is_config_error(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("time,y1\n0,1\n")
    rc = main(["psd", str(csv_path), "--column", "nope", "--rate", "200",
               "--segment", "8"])
    assert rc == 1


def _fresh_python(code: str) -> str:
    """Standard output of `code` run by a fresh interpreter that imports
    the same sprclab as this one."""
    src = str(Path(sprclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    # scipy.signal would pull in scipy.stats, .interpolate and .optimize,
    # about twice the modules and resident memory of the whole program.
    heavy = ["scipy.signal", "scipy.stats", "scipy.interpolate",
             "scipy.optimize"]
    code = ("import sys, sprclab.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    assert _fresh_python(code).strip() == "[]"


def test_only_sprc_runs_load_scipy(tmp_path):
    # Commands that run no SPRC load no SciPy module at all; the first
    # SprcController brings in scipy.linalg.
    out = str(tmp_path)
    code = f"""
import contextlib, io, sys
import sprclab.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert sprclab.cli.main(list(argv)) == 0, argv

run("run", "--controller", "cipc", "--duration", "12", "--output", {out!r})
run("windgen", "--duration", "30", "--output", {out!r})
run("psd", {out + "/cipc_static0_5.csv"!r})
print(scipy_modules())
run("run", "--controller", "sprc-1p", "--duration", "12", "--output", {out!r})
print("scipy.linalg" in scipy_modules())
"""
    assert _fresh_python(code).split("\n")[:2] == ["[]", "True"]


def test_public_names_resolve():
    # Every public name resolves without loading SciPy, and the config
    # type is one object whichever module it is taken from.
    code = """
import sys, sprclab
for name in sprclab.__all__:
    getattr(sprclab, name)
print([m for m in sys.modules if m.split(".")[0] == "scipy"])
from sprclab import sprc
print(sprclab.SprcConfig is sprc.SprcConfig)
"""
    assert _fresh_python(code).split("\n")[:2] == ["[]", "True"]
