"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from sprclab.cli import main


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
}


@pytest.mark.parametrize("path", list(MALFORMED))
def test_malformed_config_names_path(tmp_path, capsys, path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED[path]))
    rc = main(["run", "--config", str(bad), "--output", str(tmp_path)])
    assert rc == 1
    assert f"{path}:" in capsys.readouterr().err


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


def test_psd_missing_column_is_config_error(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("time,y1\n0,1\n")
    rc = main(["psd", str(csv_path), "--column", "nope", "--rate", "200",
               "--segment", "8"])
    assert rc == 1
