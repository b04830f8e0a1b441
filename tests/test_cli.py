import json
import os
import subprocess
import sys

import numpy as np
import pytest

from granular import cli, config
from granular import io as gio
from granular.reporting import haff_slope_check, run_preset
from granular.rescale import transfer_moment_series

SMALL = {"numerics": {"particles": 2000, "t_final": 3.0}, "output": {"cadence": 0.25}}


def _config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.fixture(scope="module", params=["simulate", "selfsim"])
def simulated(request, tmp_path_factory):
    """`granular simulate|selfsim` on a small config: the run directory."""
    tmp = tmp_path_factory.mktemp(request.param)
    out = tmp / "run"
    assert cli.main([request.param, "--config", _config(tmp, SMALL), "--seed", "4",
                     "--out", str(out)]) == 0
    return request.param, out


def test_simulate_writes_the_raw_files(simulated):
    cmd, out = simulated
    assert sorted(os.listdir(out)) == ["hist_t3.csv", "moments.csv", "snapshot_final.json"]
    mom = gio.read_moments_csv(out / "moments.csv")
    assert mom["meta"]["frame"] == ("rescaled" if cmd == "selfsim" else "original")
    assert mom["meta"]["seed"] == "4"
    assert gio.read_hist_csv(out / "hist_t3.csv").counts.sum() == 2000


def test_haff_after_simulate(simulated, tmp_path, capsys):
    _, out = simulated
    moments = str(out / "moments.csv")
    dest = tmp_path / "haff.json"
    rc = cli.main(["haff", "--input", moments, "--window", "1", "3", "--tolerance", "0.5",
                   "--out", str(dest)])
    payload = gio.read_json(dest)
    assert payload == json.loads(capsys.readouterr().out)
    check, _, _ = haff_slope_check(gio.read_moments_csv(moments), (1.0, 3.0), 0.5)
    assert payload["checks"] == [json.loads(json.dumps(check))]
    assert rc == (0 if check["pass"] else 1)


@pytest.mark.parametrize("direction", ["g2f", "f2g"])
def test_transfer_is_transfer_moment_series(simulated, tmp_path, capsys, direction):
    _, out = simulated
    dest = tmp_path / "transfer.csv"
    assert cli.main(["transfer", "--input", str(out / "moments.csv"), "--direction", direction,
                     "--out", str(dest)]) == 0
    assert capsys.readouterr().out == f"wrote {dest}\n"
    mom = gio.read_moments_csv(out / "moments.csv")
    meta, columns, data = gio.read_table(dest)
    assert (meta["kind"], meta["direction"], meta["moment_order"]) == ("transfer", direction, "2")
    assert meta["config_hash"] == mom["meta"]["config_hash"]
    assert columns == ["source_time", "target_time", "value"]
    target, values, source = transfer_moment_series(mom["t"], mom["energy"], 2, direction)
    assert np.array_equal(data, np.stack([source, target, values], axis=1))


@pytest.mark.parametrize("argv, message", [
    (lambda tmp, run: ["haff", "--input", str(tmp / "missing.csv")], "No such file or directory"),
    (lambda tmp, run: ["tail", "--input", str(run / "hist_t3.csv")], "tail window"),
    (lambda tmp, run: ["haff", "--input", str(run / "moments.csv"), "--window", "50", "60"],
     "window holds fewer than 3 samples"),
    (lambda tmp, run: ["report", "--dir", str(tmp)], "missing config.json"),
    (lambda tmp, run: ["transfer", "--input", str(run / "moments.csv"), "--direction", "g2f",
                       "-k", "7", "--out", str(tmp / "t.csv")], "column m7 not present"),
], ids=["missing-input", "sparse-tail", "empty-window", "report-without-run",
        "transfer-missing-column"])
def test_bad_input_exits_2_with_one_line(simulated, tmp_path, capsys, argv, message):
    _, run_dir = simulated
    assert cli.main(argv(tmp_path, run_dir)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("raw, key", [
    ({"numerics": {"replicas": 2}}, "numerics.replicas"),
    ({"output": {"formats": ["csv"]}}, "output.formats"),
])
def test_removed_config_keys_rejected(tmp_path, capsys, raw, key):
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", _config(tmp_path, raw), "--out", str(out)]) == 2
    assert f"unknown key: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_qcheck_runs_the_operator_check_experiment(tmp_path, capsys):
    raw = {"physics": {"dim": 2}, "numerics": {"grid_points": 11, "quadrature": {
        "radial_order": 8, "angular_order": 8, "hyperplane_order": 8}}}
    out = tmp_path / "run"
    rc = cli.main(["qcheck", "--config", _config(tmp_path, raw), "--out", str(out)])
    assert gio.read_json(out / "config.json")["preset"] == "operator-check"
    report = gio.read_json(out / "report.json")
    assert report["preset"] == "operator-check" and "wall_clock_seconds" in report
    assert rc == (0 if report["all_pass"] else 1)
    assert "preset: operator-check" in capsys.readouterr().out


def test_preset_writes_under_its_name(tmp_path, monkeypatch):
    raw = config._PRESETS["haff-law"]()
    raw["numerics"].update(particles=3000, t_final=12.0)
    monkeypatch.setitem(config._PRESETS, "haff-law", lambda: json.loads(json.dumps(raw)))
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["preset", "--name", "haff-law", "--seed", "1"])
    report = gio.read_json(tmp_path / "haff-law" / "report.json")
    want = json.loads(json.dumps(run_preset("haff-law", "ref", seed=1)))
    for r in (report, want):
        del r["wall_clock_seconds"]
    assert report == want
    assert rc == (0 if report["all_pass"] else 1)


def test_runtime_imports_load_no_scipy():
    # scipy is a test dependency only; a fresh interpreter shows what the program loads
    code = ("import sys, granular, granular.cli, granular.reporting, granular.operator, "
            "granular.rescale; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # the granular under test
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
