import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from granular.config import validate_config
from granular.dsmc import init_ensemble
from granular.observables import (
    VelocityHistogram,
    energy_bounds_check,
    exponential_moment,
    haff_fit,
    histogram_from_speeds,
    invariant_set_check,
    l1_distance,
    moments,
    normalized_moments,
    positivity_check,
    stability_metric,
    tail_fit,
)
from granular.quadrature import sphere_area


def histogram(ens, **kw):
    """Radial histogram of an ensemble's speeds."""
    return histogram_from_speeds(np.linalg.norm(ens.v, axis=1), ens.weight, ens.dim, **kw)


def gaussian_ens(n=50000, t=1.0, seed=0, dim=3):
    cfg = validate_config({"numerics": {"particles": n}, "seed": seed, "physics": {"dim": dim},
                           "initial": {"kind": "gaussian", "temperature": t}})
    return init_ensemble(cfg)


class TestMoments:
    def test_mass_order_zero(self):
        ens = gaussian_ens(n=1000)
        m = moments(ens, orders=(0.0,))
        assert math.isclose(m["m"][0.0], 1.0, rel_tol=1e-12)

    def test_gaussian_second_fourth(self):
        ens = gaussian_ens(n=200000, seed=4)
        m = moments(ens, orders=(1.0, 2.0))["m"]
        assert abs(m[1.0] - 3.0) < 0.05
        assert abs(m[2.0] - 15.0) < 0.6

    def test_histogram_agreement(self):
        # ensemble vs histogram moments within binning error
        ens = gaussian_ens(n=100000, seed=5)
        h = histogram(ens, n_bins=64)
        me = moments(ens, orders=(0.5, 1.0, 2.0))["m"]
        mh = moments(h, orders=(0.5, 1.0, 2.0))["m"]
        for p in me:
            assert abs(me[p] - mh[p]) / me[p] < 0.01


class TestNormalizedMoments:
    def test_unit_table(self):
        table = {p: gamma_fn(2 * p + 0.5) for p in (0.5, 1.0, 2.0)}
        z = normalized_moments(table, a=2.0)
        for p, v in z.items():
            assert math.isclose(float(v), 1.0, rel_tol=1e-12)

    def test_reference_value(self):
        z = normalized_moments({1.0: 1.0}, a=2.0)
        assert math.isclose(float(z[1.0]), 1.0 / 1.3293403881791372, rel_tol=1e-10)

    def test_scale_guard(self):
        with pytest.raises(ValueError):
            normalized_moments({1.0: 1.0}, a=1.5)

    def test_maxwellian_decay(self):
        # Gaussian moments m_p = rho (2T)^p Gamma(p + 3/2)/Gamma(3/2)
        # decay super-geometrically once Gamma(2p + 1/2) divides them
        ps = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
        table = {p: (2.0) ** p * gamma_fn(p + 1.5) / gamma_fn(1.5) for p in ps}
        z = normalized_moments(table, a=2.0)
        vals = np.array([float(z[p]) for p in ps])
        ratios = vals[1:] / vals[:-1]
        assert np.all(np.diff(ratios) < 0)


class TestInvariantSet:
    def test_zero_passes(self):
        rep = invariant_set_check({0.5: np.zeros(5), 2.0: np.zeros(5)}, x=0.1)
        assert rep["ok"]

    def test_jump_detected(self):
        z2 = np.array([0.5, 0.5, 9.0, 0.5])
        rep = invariant_set_check({2.0: z2}, x=1.5, times=np.arange(4.0))
        assert not rep["ok"]
        assert rep["violations"][0]["t"] == 2.0

    def test_t_start(self):
        z2 = np.array([9.0, 0.5, 0.5])
        rep = invariant_set_check({2.0: z2}, x=1.5, times=np.arange(3.0), t_start=1.0)
        assert rep["ok"]


class TestExponentialMoment:
    def test_small_r_near_mass(self):
        ens = gaussian_ens(n=20000)
        rep = exponential_moment(ens, r=1e-6, s=0.5)
        assert abs(rep["value"] - 1.0) < 1e-4
        assert rep["reliable"]

    def test_gaussian_dominates_order_one(self):
        ens = gaussian_ens(n=50000, seed=6)
        rep = exponential_moment(ens, r=3.0, s=1.0)
        assert math.isfinite(rep["value"])

    def test_overflow_marker(self):
        ens = gaussian_ens(n=1000)
        rep = exponential_moment(ens, r=1e5, s=1.0)
        assert rep["value"] == math.inf
        assert rep["saturating_speed"] is not None

    def test_domain(self):
        ens = gaussian_ens(n=100)
        with pytest.raises(ValueError):
            exponential_moment(ens, r=-1.0, s=0.5)
        with pytest.raises(ValueError):
            exponential_moment(ens, r=1.0, s=1.5)


class TestHistogram:
    def test_uniform_ball_flat(self):
        cfg = validate_config({"numerics": {"particles": 200000}, "seed": 7,
                               "initial": {"kind": "uniform_ball", "radius": 2.0}})
        ens = init_ensemble(cfg)
        h = histogram(ens, n_bins=16, r_max=2.0)
        inner = h.density[2:14]
        assert np.max(np.abs(inner - inner.mean())) / inner.mean() < 0.05

    def test_maxwellian_radial_shape(self):
        ens = gaussian_ens(n=300000, seed=8)
        h = histogram(ens, n_bins=48, r_max=4.0)
        mask = h.counts > 100
        y = np.log(h.density[mask])
        x = h.centers[mask] ** 2
        A = np.stack([np.ones_like(x), x], axis=1)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ coef
        r2 = 1.0 - float(resid @ resid) / float(np.sum((y - y.mean()) ** 2))
        assert r2 > 0.99
        assert abs(coef[1] + 0.5) < 0.02  # slope -1/(2T)

    def test_mass_normalization(self):
        ens = gaussian_ens(n=10000, seed=9)
        h = histogram(ens)
        assert math.isclose(h.mass, 1.0, rel_tol=1e-12)
        assert math.isclose(float(np.sum(h.bin_masses)), 1.0, rel_tol=1e-12)

    def test_bin_floor(self):
        ens = gaussian_ens(n=100)
        with pytest.raises(ValueError):
            histogram(ens, n_bins=4)

    @pytest.mark.parametrize("speeds, kw", [
        ([0.0, 0.0], {}),  # r_max = 0
        ([0.0, 5e-324], {}),  # r_max subnormal: linspace repeats edges
        ([0.5], {"edges": [0.0, 1.0, 1.0, 2.0]}),
    ], ids=["zero-speeds", "subnormal-r-max", "repeated-edge"])
    def test_zero_width_shell_rejected(self, speeds, kw):
        with pytest.raises(ValueError, match="edges must increase strictly"):
            histogram_from_speeds(np.array(speeds), 1.0, 2, n_bins=8, **kw)


def synthetic_hist(fn, dim=3, n_bins=64, r_max=8.0, counts=10**4):
    edges = np.linspace(0.0, r_max, n_bins + 1)
    centers = 0.5 * (edges[1:] + edges[:-1])
    density = fn(centers)
    vol = (edges[1:] ** dim - edges[:-1] ** dim) * sphere_area(dim) / dim
    return VelocityHistogram(
        edges=edges, density=density, counts=np.full(n_bins, counts),
        mass=float(np.sum(density * vol)), dim=dim, frame="rescaled", time=0.0,
    )


class TestTailFit:
    def test_exponential_recovered(self):
        h = synthetic_hist(lambda r: 3.0 * np.exp(-2.0 * r))
        fit = tail_fit(h, window=(2.0, 6.0))
        assert fit.s == 1.0
        assert abs(fit.a2 - 2.0) < 0.05
        assert abs(fit.a1 - 3.0) / 3.0 < 0.05

    def test_maxwellian_selects_order_two(self):
        h = synthetic_hist(lambda r: np.exp(-0.5 * r**2))
        fit = tail_fit(h, window=(2.0, 5.0))
        assert fit.s == 2.0

    def test_empty_window(self):
        h = synthetic_hist(lambda r: np.exp(-r))
        with pytest.raises(ValueError):
            tail_fit(h, window=(9.0, 10.0))

    def test_min_counts_guard(self):
        h = synthetic_hist(lambda r: np.exp(-r), counts=3)
        with pytest.raises(ValueError):
            tail_fit(h, window=(2.0, 6.0))


class TestHaffFit:
    def test_exact_power_law(self):
        t = np.linspace(0.0, 120.0, 400)
        e = 3.0 / (1.0 + t) ** 2
        fit = haff_fit(t, e, (10.0, 100.0))
        assert abs(fit["slope"] + 2.0) < 1e-10

    def test_exponential_is_not_power(self):
        t = np.linspace(0.0, 120.0, 400)
        e = 3.0 * np.exp(-t / 10.0)
        early = haff_fit(t, e, (5.0, 30.0))["slope"]
        late = haff_fit(t, e, (60.0, 120.0))["slope"]
        assert abs(early + 2.0) > 0.5 or abs(late + 2.0) > 0.5
        assert abs(late - early) > 1.0  # window-dependent slope drifts

    def test_nonpositive_rejected(self):
        t = np.linspace(0.0, 50.0, 100)
        e = 1.0 - t / 30.0
        with pytest.raises(ValueError):
            haff_fit(t, e, (10.0, 40.0))


class TestEnergyBounds:
    def test_elastic_skipped(self):
        rep = energy_bounds_check(np.linspace(0, 5, 10), np.ones(10), 1.0, 0.0)
        assert rep["skipped"]

    def test_formula_threshold(self):
        t = np.linspace(0, 10, 100)
        e = np.full_like(t, 150.0)
        rep = energy_bounds_check(t, e, rho=1.0, tau_diss=0.045)
        assert rep["upper_ok"] and rep["lower_ok"]
        assert math.isclose(rep["upper_bound"], 4.0 / 0.045**2 * 1.05, rel_tol=1e-12)

    def test_violation_reported(self):
        t = np.linspace(0, 10, 100)
        e = np.full_like(t, 150.0)
        e[40] = 5000.0
        rep = energy_bounds_check(t, e, rho=1.0, tau_diss=0.045)
        assert not rep["upper_ok"]
        assert math.isclose(rep["violation_time"], t[40])


class TestStabilityMetric:
    def test_identical_zero(self):
        h = synthetic_hist(lambda r: np.exp(-r))
        assert stability_metric(h, h) == 0.0

    def test_disjoint_unit_masses(self):
        # unit masses in two disjoint near-origin bins: weight ~ 1 each
        edges = np.linspace(0.0, 0.4, 9)
        vol = (edges[1:] ** 3 - edges[:-1] ** 3) * sphere_area(3) / 3
        da = np.zeros(8)
        db = np.zeros(8)
        da[1] = 1.0 / vol[1]
        db[5] = 1.0 / vol[5]
        mk = lambda d: VelocityHistogram(edges=edges, density=d, counts=np.ones(8),
                                         mass=1.0, dim=3, frame="original", time=0.0)
        val = stability_metric(mk(da), mk(db))
        assert abs(val - 2.0) < 0.1

    def test_binning_mismatch(self):
        h1 = synthetic_hist(lambda r: np.exp(-r), n_bins=64)
        h2 = synthetic_hist(lambda r: np.exp(-r), n_bins=32)
        with pytest.raises(ValueError):
            stability_metric(h1, h2)
        with pytest.raises(ValueError):
            l1_distance(h1, h2)


class TestPositivity:
    def test_maxwellian_positive(self):
        ens = gaussian_ens(n=100000, seed=10)
        h = histogram_from_speeds(np.linalg.norm(ens.v, axis=1), ens.weight, 3,
                                  n_bins=8, r_max=2.0, time=2.0)
        rep = positivity_check([h], radius=2.0, t_star=1.0)
        assert rep["ok"]
        assert rep["envelope"] is not None
        # the fitted envelope really is a lower bound on the ball
        a1, a2 = rep["envelope"]["a1"], rep["envelope"]["a2"]
        mask = h.centers <= 2.0
        assert np.all(a1 * np.exp(-a2 * h.centers[mask]) <= h.density[mask] * (1 + 1e-9))

    def test_zero_bin_detected(self):
        h = synthetic_hist(lambda r: np.where(r < 0.5, 0.0, np.exp(-r)), n_bins=16, r_max=3.0)
        h.time = 2.0
        rep = positivity_check([h], radius=2.0, t_star=1.0)
        assert not rep["ok"]

    def test_requires_snapshots(self):
        h = synthetic_hist(lambda r: np.exp(-r))
        with pytest.raises(ValueError):
            positivity_check([h], radius=2.0, t_star=5.0)
