import json
import os

import numpy as np
import pytest

from granular import cli
from granular import io as gio
from granular.config import ConfigError, preset
from granular.observables import histogram_from_speeds
from granular.reporting import preset_config, run_preset, tail_order_one_check

TINY_HAFF = {"numerics.particles": 3000, "numerics.t_final": 12.0}


@pytest.fixture(scope="module")
def haff_run(tmp_path_factory):
    """A tiny haff-law run: (output directory, its report)."""
    out = tmp_path_factory.mktemp("haff")
    return out, run_preset("haff-law", str(out), seed=5, overrides=TINY_HAFF)


class TestPresetConfig:
    @pytest.mark.parametrize("overrides, message", [
        ({"numerics.partciles": 10}, "unknown key: numerics.partciles"),
        ({"numerics.t_final": -1}, "numerics.t_final: -1 below minimum"),
        ({"numerics.no.such": 1}, "unknown key: numerics.no"),
        ({"seed.x": 1}, "seed is not an object"),
    ])
    def test_bad_override_stops_before_writing(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=message):
            run_preset("haff-law", str(tmp_path), seed=1, overrides=overrides)
        assert os.listdir(tmp_path) == []

    def test_overrides_and_seed_applied(self):
        cfg = preset_config("self-similar", seed=7, overrides={
            "numerics.particles": 500, "output.snapshot_times": [1.0]})
        want = preset("self-similar")
        want["seed"] = 7
        want["numerics"]["particles"] = 500
        want["output"]["snapshot_times"] = [1.0]
        assert cfg == want and cfg.hash == want.hash


class TestHaffLawRun:
    def test_writes_one_histogram_per_snapshot(self, haff_run):
        out, _ = haff_run
        hist = gio.read_hist_csv(os.path.join(out, "hist_t12.csv"))
        assert hist.time == 12.0 and hist.counts.sum() == 3000

    def test_report_dir_rebuilds_identical_report(self, haff_run, capsys):
        out, report = haff_run
        first = gio.read_json(os.path.join(out, "report.json"))
        assert cli.main(["report", "--dir", str(out)]) == (0 if report["all_pass"] else 1)
        again = gio.read_json(os.path.join(out, "report.json"))
        assert "wall_clock_seconds" not in again
        first.pop("wall_clock_seconds")
        assert again == first
        assert "preset: haff-law" in capsys.readouterr().out

    def test_cli_haff_is_the_preset_check(self, haff_run, tmp_path):
        out, report = haff_run
        dest = tmp_path / "haff.json"
        rc = cli.main(["haff", "--input", os.path.join(out, "moments.csv"), "--out", str(dest)])
        (check,) = gio.read_json(dest)["checks"]
        want = json.loads(json.dumps(next(c for c in report["checks"] if c["check"] == "haff_slope")))
        assert check == want
        assert rc == (0 if check["pass"] else 1)


def test_sparse_tail_window_fails_the_check_not_the_report(tmp_path):
    report = run_preset("self-similar", str(tmp_path), seed=3, overrides={
        "numerics.particles": 3000, "numerics.t_final": 3.25,
        "output.snapshot_times": [3.0, 3.25]})
    assert [c["check"] for c in report["checks"]] == [
        "profile_stationarity", "tail_order_one", "normalized_moments_bounded",
        "rescaled_energy_upper", "rescaled_energy_lower", "exponential_moment_stable"]
    tail = report["checks"][1]
    assert not tail["pass"] and tail["value"] is None
    assert "usable bins" in tail["detail"]
    assert gio.read_json(os.path.join(tmp_path, "report.json")) == json.loads(json.dumps(report))


def test_cli_tail_is_the_preset_check(tmp_path):
    speeds = np.linalg.norm(np.random.default_rng(3).normal(size=(200000, 3)), axis=1)
    hist = histogram_from_speeds(speeds, 1.0 / len(speeds), 3, n_bins=64, time=2.0)
    path = tmp_path / "hist_t2.csv"
    gio.write_hist_csv(path, hist)
    dest = tmp_path / "tail.json"
    rc = cli.main(["tail", "--input", str(path), "--out", str(dest)])
    (check,) = gio.read_json(dest)["checks"]
    assert check == json.loads(json.dumps(tail_order_one_check(gio.read_hist_csv(path))))
    assert check["value"]["selected_s"] == 2.0  # a Maxwellian has a Gaussian tail
    assert rc == 1
