"""Tests for the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sprclab
from sprclab import harness, windfield
from sprclab.cli import main
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
    # Non-finite flag values are config errors naming their field.
    for flag, value, name in (("--mean-wind", "nan", "mean_wind"),
                              ("--duration", "inf", "duration")):
        rc = main(["run", flag, value, "--output", str(tmp_path)])
        assert rc == 1
        assert f"{name}:" in capsys.readouterr().err


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
    "sprc.dare_iterations": {"sprc": {"dare_iterations": 0}},
    "sprc.forgetting": {"sprc": {"forgetting": 1.5}},
    "sprc.period_fraction": {"sprc": {"period_fraction": 0.0}},
    "sprc.alpha": {"sprc": {"alpha": 2.0}},
    "sprc.beta": {"sprc": {"beta": -0.5}},
    "sprc.q_weight": {"sprc": {"q_weight": -1.0}},
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


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    # scipy.signal would pull in scipy.stats, .interpolate and .optimize,
    # about twice the modules and resident memory of the whole program.
    heavy = ["scipy.signal", "scipy.stats", "scipy.interpolate",
             "scipy.optimize"]
    code = ("import sys, sprclab.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    # The fresh interpreter imports the same sprclab as this one.
    src = str(Path(sprclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "[]"
