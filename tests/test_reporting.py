import json
import os

import numpy as np
import pytest

from granular import cli
from granular import io as gio
from granular.config import ConfigError, preset
from granular.kernels import RestitutionLaw, isotropic_kernel, tau_of
from granular.observables import histogram_from_speeds
from granular.reporting import (
    _haff_inverse_t0,
    haff_slope_check,
    preset_config,
    run_preset,
    tail_order_one_check,
)

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


class TestHaffSlope:
    def test_closure_rate(self):
        # 1/t0 = 4 tau rho sqrt(T0) Gamma(3) / (3 Gamma(3/2)) at N = 3
        tau = tau_of(isotropic_kernel(3), RestitutionLaw(0.8))
        assert tau == pytest.approx(0.045, rel=1e-12)
        want = 4.0 * 0.045 * 2.0 / (3.0 * 0.5 * np.sqrt(np.pi))
        assert _haff_inverse_t0(tau, 1.0, 3.0, 3) == pytest.approx(want, rel=1e-12)
        assert round(want, 4) == 0.1354
        # T0 = E0 / (rho N) enters as sqrt(T0), rho once more as a factor
        assert _haff_inverse_t0(tau, 2.0, 24.0, 3) == pytest.approx(4.0 * want, rel=1e-12)

    @pytest.mark.parametrize("tau, rho, dim, e0", [(0.045, 1.0, 3, 3.0), (0.1, 0.5, 2, 1.7)])
    def test_closure_solution_fits_minus_two(self, tau, rho, dim, e0):
        t = np.arange(0.0, 100.25, 0.25)
        rate = _haff_inverse_t0(tau, rho, e0, dim)
        mom = {"meta": {"frame": "original", "tau": repr(tau), "rho": repr(rho), "dim": str(dim)},
               "t": t, "energy": e0 * (1.0 + rate * t) ** -2}
        check, _, _ = haff_slope_check(mom)
        assert check["pass"] and abs(check["value"] + 2.0) <= 1e-12
        assert f"1/t0={rate:.4g} predicted" in check["detail"]
        assert f"{rate:.4g} fitted" in check["detail"]

    def test_needs_tau_in_the_header(self):
        mom = {"meta": {"frame": "original", "rho": "1.0", "dim": "3"},
               "t": np.arange(0.0, 50.0), "energy": np.ones(50)}
        with pytest.raises(ValueError, match="tau="):
            haff_slope_check(mom)


class TestHaffLawRun:
    def test_moments_header_carries_tau(self, haff_run):
        out, _ = haff_run
        meta = gio.read_moments_csv(os.path.join(out, "moments.csv"))["meta"]
        assert float(meta["tau"]) == tau_of(isotropic_kernel(3), RestitutionLaw(0.8))

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
