import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import kstest

from granular.kernels import (
    AngularKernel,
    RestitutionLaw,
    angular_momentum_mb,
    beta_of,
    delta_energy,
    delta_energy_closed,
    inverse_sigma,
    isotropic_kernel,
    make_kernel,
    post_collisional,
    pre_collisional,
    sample_sigma,
    tau_of,
    validate_kernel,
)
from granular.quadrature import sphere_area


def law(e):
    return RestitutionLaw(e)


class TestRestitution:
    def test_beta_elastic(self):
        assert beta_of(law(1.0)) == 1.0

    def test_beta_half(self):
        assert beta_of(law(0.5)) == 1.5

    def test_beta_rejects_zero(self):
        with pytest.raises(ValueError):
            beta_of(law(0.0))

    def test_restitution_range(self):
        with pytest.raises(ValueError):
            RestitutionLaw(1.5)
        with pytest.raises(ValueError):
            RestitutionLaw(-0.1)
        RestitutionLaw(0.0)  # representable as data


class TestCollisionMaps:
    def test_elastic_exchange(self):
        v, vs = np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])
        sig = np.array([0.0, 1, 0])
        vp, vsp = post_collisional(v, vs, sig, law(1.0))
        assert np.allclose(vp, [0, 1, 0])
        assert np.allclose(vsp, [0, -1, 0])

    def test_sigma_parallel_identity(self):
        rng = np.random.default_rng(1)
        for e in (0.0, 0.3, 1.0):
            v, vs = rng.normal(size=3), rng.normal(size=3)
            u = v - vs
            sig = u / np.linalg.norm(u)
            vp, vsp = post_collisional(v, vs, sig, law(e))
            assert np.allclose(vp, v, atol=1e-14)
            assert np.allclose(vsp, vs, atol=1e-14)

    def test_sticky_case(self):
        v, vs = np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])
        sig = np.array([0.0, 1, 0])
        vp, vsp = post_collisional(v, vs, sig, law(0.0))
        assert np.allclose(vp, [0.5, 0.5, 0])
        assert np.allclose(vsp, [-0.5, -0.5, 0])

    def test_zero_relative_velocity_identity(self):
        v = np.array([0.3, -0.2, 1.0])
        vp, vsp = post_collisional(v, v, np.array([0.0, 0, 1]), law(0.7))
        assert np.allclose(vp, v)
        assert np.allclose(vsp, v)

    def test_pre_elastic_sigma_parallel(self):
        v, vs = np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])
        u = v - vs
        sig = u / np.linalg.norm(u)
        pv, pvs = pre_collisional(v, vs, sig, law(1.0))
        assert np.allclose(pv, v)
        assert np.allclose(pvs, vs)

    def test_pre_elastic_perpendicular(self):
        v, vs = np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])
        sig = np.array([0.0, 1, 0])
        pv, pvs = pre_collisional(v, vs, sig, law(1.0))
        assert np.allclose(pv, [0, 1, 0])
        assert np.allclose(pvs, [0, -1, 0])

    def test_pre_half(self):
        v, vs = np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])
        sig = np.array([0.0, 1, 0])
        pv, pvs = pre_collisional(v, vs, sig, law(0.5))
        assert np.allclose(pv, [-0.5, 1.5, 0])
        assert np.allclose(pvs, [0.5, -1.5, 0])

    def test_pre_rejects_sticky(self):
        with pytest.raises(ValueError):
            pre_collisional(np.ones(3), np.zeros(3), np.array([1.0, 0, 0]), law(0.0))

    def test_momentum_conservation_random(self):
        rng = np.random.default_rng(2)
        n = 20000
        v = rng.normal(size=(n, 3)) * 3
        vs = rng.normal(size=(n, 3))
        sig = rng.normal(size=(n, 3))
        sig /= np.linalg.norm(sig, axis=1, keepdims=True)
        for e in (0.0, 0.5, 1.0):
            vp, vsp = post_collisional(v, vs, sig, law(e))
            lhs = vp + vsp
            rhs = v + vs
            scale = np.abs(v).max() + np.abs(vs).max()
            assert np.max(np.abs(lhs - rhs)) < 4 * np.finfo(float).eps * scale

    def test_pre_speed_growth(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(5000, 3))
        vs = rng.normal(size=(5000, 3))
        sig = rng.normal(size=(5000, 3))
        sig /= np.linalg.norm(sig, axis=1, keepdims=True)
        for e in (0.2, 0.6, 1.0):
            pv, pvs = pre_collisional(v, vs, sig, law(e))
            ru_pre = np.linalg.norm(pv - pvs, axis=1)
            ru = np.linalg.norm(v - vs, axis=1)
            assert np.all(ru_pre >= ru - 1e-12 * np.maximum(ru, 1))

    def test_elastic_degeneration(self):
        # at e = 1 the pre and post maps coincide (both give |u| sigma)
        rng = np.random.default_rng(4)
        v, vs = rng.normal(size=3), rng.normal(size=3)
        sig = rng.normal(size=3)
        sig /= np.linalg.norm(sig)
        assert np.allclose(
            np.concatenate(post_collisional(v, vs, sig, law(1.0))),
            np.concatenate(pre_collisional(v, vs, sig, law(1.0))),
        )


@st.composite
def collisions(draw, e_min=0.0):
    """(v, v_star, unit sigma, law) with e in [e_min, 1] and N in {2, 3}."""
    dim = draw(st.sampled_from([2, 3]))
    vec = arrays(float, dim, elements=st.floats(-10.0, 10.0))
    v, v_star, s = draw(vec), draw(vec), draw(vec)
    assume(np.linalg.norm(s) > 1e-3)
    return v, v_star, s / np.linalg.norm(s), law(draw(st.floats(e_min, 1.0)))


def _close(actual, expected, scale):
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * max(scale, 1e-300))


class TestCollisionMapProperties:
    """The lazy v = s * w scale of the DSMC engine collides w in place of
    v, which is exact only because the map is homogeneous of degree 1."""

    @settings(max_examples=200, deadline=None)
    @given(c=collisions(), lam=st.floats(1e-3, 1e3))
    def test_homogeneous_of_degree_one(self, c, lam):
        v, v_star, sigma, lw = c
        vp, vsp = post_collisional(v, v_star, sigma, lw)
        sp, ssp = post_collisional(lam * v, lam * v_star, sigma, lw)
        scale = lam * max(np.abs(v).max(), np.abs(v_star).max())
        _close(sp, lam * vp, scale)
        _close(ssp, lam * vsp, scale)

    @settings(max_examples=200, deadline=None)
    @given(c=collisions(), shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
    def test_galilean_covariant(self, c, shift):
        v, v_star, sigma, lw = c
        a = np.array(shift[: len(v)])
        vp, vsp = post_collisional(v, v_star, sigma, lw)
        sp, ssp = post_collisional(v + a, v_star + a, sigma, lw)
        scale = max(np.abs(v).max(), np.abs(v_star).max(), np.abs(a).max())
        _close(sp, vp + a, scale)
        _close(ssp, vsp + a, scale)


class TestPreCollisionalProperties:
    """pre_collisional with the direction from inverse_sigma undoes a
    collision, for every e > 0. Pairs with |u| < 1e-150 are left out:
    there |u|^2 underflows inside np.linalg.norm, and every map treats
    the pair as u = 0."""

    @settings(max_examples=200, deadline=None)
    @given(c=collisions(e_min=0.01))
    def test_pre_collisional_inverted_by_inverse_sigma(self, c):
        v, v_star, sigma, lw = c
        assume(np.linalg.norm(v - v_star) > 1e-150)
        pv, pvs = pre_collisional(v, v_star, sigma, lw)
        back, back_star = post_collisional(pv, pvs, inverse_sigma(v, v_star, sigma, lw), lw)
        scale = max(np.linalg.norm(pv), np.linalg.norm(pvs))
        assert np.max(np.abs(back - v)) <= 1e-12 * scale
        assert np.max(np.abs(back_star - v_star)) <= 1e-12 * scale

    @settings(max_examples=200, deadline=None)
    @given(c=collisions(e_min=0.01))
    def test_pre_collisional_speed_not_smaller(self, c):
        v, v_star, sigma, lw = c
        assume(np.linalg.norm(v - v_star) > 1e-150)
        pv, pvs = pre_collisional(v, v_star, sigma, lw)
        u, u_pre = np.linalg.norm(v - v_star), np.linalg.norm(pv - pvs)
        # equality at sigma = u_hat; the slack covers rounding at the
        # scale of the velocities, as in the inversion test above
        assert u_pre >= u - 1e-12 * max(np.linalg.norm(pv), np.linalg.norm(pvs))


class TestRoundTrip:
    def test_formula_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            e = rng.uniform(0.05, 1.0)
            v, vs = rng.normal(size=3), rng.normal(size=3)
            sig = rng.normal(size=3)
            sig /= np.linalg.norm(sig)
            pv, pvs = pre_collisional(v, vs, sig, law(e))
            sig_back = inverse_sigma(v, vs, sig, law(e))
            vp, vsp = post_collisional(pv, pvs, sig_back, law(e))
            assert np.allclose(vp, v, atol=1e-10)
            assert np.allclose(vsp, vs, atol=1e-10)

    def test_roundtrip_against_numeric_solve(self):
        # oracle: solve for the return direction on random instances
        from scipy.optimize import minimize

        rng = np.random.default_rng(6)
        for _ in range(5):
            e = rng.uniform(0.2, 0.95)
            v, vs = rng.normal(size=3), rng.normal(size=3)
            sig = rng.normal(size=3)
            sig /= np.linalg.norm(sig)
            pv, pvs = pre_collisional(v, vs, sig, law(e))

            def miss(ang):
                s = np.array([
                    math.sin(ang[0]) * math.cos(ang[1]),
                    math.sin(ang[0]) * math.sin(ang[1]),
                    math.cos(ang[0]),
                ])
                vp, vsp = post_collisional(pv, pvs, s, law(e))
                return float(np.sum((vp - v) ** 2) + np.sum((vsp - vs) ** 2))

            guess = inverse_sigma(v, vs, sig, law(e))
            ang0 = [math.acos(np.clip(guess[2], -1, 1)), math.atan2(guess[1], guess[0])]
            res = minimize(miss, ang0, method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-24})
            solved = np.array([
                math.sin(res.x[0]) * math.cos(res.x[1]),
                math.sin(res.x[0]) * math.sin(res.x[1]),
                math.cos(res.x[0]),
            ])
            assert np.allclose(solved, guess, atol=1e-6)

    def test_elastic_sanity(self):
        v, vs = np.array([1.0, 0.5, 0]), np.array([-0.2, 0, 0.3])
        u = v - vs
        sig = np.array([0.0, 0, 1.0])
        back = inverse_sigma(v, vs, sig, law(1.0))
        assert np.allclose(back, u / np.linalg.norm(u))


class TestEnergy:
    def test_elastic_zero(self):
        rng = np.random.default_rng(7)
        v, vs = rng.normal(size=3), rng.normal(size=3)
        sig = rng.normal(size=3)
        sig /= np.linalg.norm(sig)
        assert abs(delta_energy(v, vs, sig, law(1.0))) < 1e-13

    def test_sigma_parallel_zero(self):
        v, vs = np.array([2.0, 0, 0]), np.array([0.5, 0, 0])
        u = v - vs
        sig = u / np.linalg.norm(u)
        assert abs(delta_energy(v, vs, sig, law(0.4))) < 1e-14

    def test_hand_value(self):
        v, vs = np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])
        sig = np.array([0.0, 1, 0])
        assert math.isclose(delta_energy(v, vs, sig, law(0.5)), -0.75, rel_tol=1e-14)

    def test_closed_form_consistency(self):
        # direct |v'|^2 sums are the oracle for the closed form
        rng = np.random.default_rng(8)
        n = 100000
        v = rng.normal(size=(n, 3)) * 2
        vs = rng.normal(size=(n, 3)) * 2
        sig = rng.normal(size=(n, 3))
        sig /= np.linalg.norm(sig, axis=1, keepdims=True)
        for e in (0.0, 0.3, 0.8, 1.0):
            direct = delta_energy(v, vs, sig, law(e))
            closed = delta_energy_closed(v, vs, sig, law(e))
            scale = np.maximum(np.abs(closed), np.sum((v - vs) ** 2, axis=1))
            if e == 1.0:
                assert np.max(np.abs(direct)) < 1e-12 * scale.max()
            else:
                assert np.max(np.abs(direct - closed) / np.maximum(scale, 1e-30)) < 1e-12

    def test_dissipation_sign(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(5000, 3))
        vs = rng.normal(size=(5000, 3))
        sig = rng.normal(size=(5000, 3))
        sig /= np.linalg.norm(sig, axis=1, keepdims=True)
        for e in (0.0, 0.5, 0.99):
            de = delta_energy(v, vs, sig, law(e))
            assert np.all(de <= 1e-12)


class TestAngularKernel:
    def test_isotropic_levels(self):
        for dim in (2, 3):
            k = isotropic_kernel(dim)
            assert math.isclose(float(k(0.0)), 1.0 / sphere_area(dim), rel_tol=1e-12)
            assert math.isclose(k.mb, 0.5, rel_tol=1e-10)

    def test_mb_concentrated_near_one(self):
        xs = np.linspace(-1, 1, 2001)
        ys = np.exp(-((1 - xs) / 0.01) ** 2)
        k = make_kernel({"kind": "tabulated", "cos_theta": xs.tolist(), "values": ys.tolist()}, 3)
        assert k.mb < 0.02

    def test_mb_linear_kernel(self):
        # b ~ (1+x): m_b = <(1-x)/2 (1+x)> / <(1+x)> = (2/3)/2 = 1/3 at N=3
        k = make_kernel({"kind": "callable", "func": lambda x: 1.0 + x}, 3)
        assert math.isclose(k.mb, 1.0 / 3.0, rel_tol=1e-10)
        assert math.isclose(angular_momentum_mb(k), 1.0 / 3.0, rel_tol=1e-10)

    def test_tau(self):
        k3 = isotropic_kernel(3)
        assert tau_of(k3, law(1.0)) == 0.0
        assert math.isclose(tau_of(k3, law(0.0)), 0.125, rel_tol=1e-10)
        assert math.isclose(tau_of(k3, law(0.8)), 0.045, rel_tol=1e-10)

    def test_power_zero_is_isotropic(self):
        k = make_kernel({"kind": "power", "exponent": 0.0}, 3)
        rep = validate_kernel(k)
        assert rep.ok and not rep.warnings
        assert math.isclose(k.b0, k.b1, rel_tol=1e-12)

    def test_power_positive_unbounded(self):
        with pytest.raises(ValueError):
            make_kernel({"kind": "power", "exponent": 0.5}, 3)

    def test_power_negative_warns_b0(self):
        k = make_kernel({"kind": "power", "exponent": -0.5}, 2)
        rep = validate_kernel(k)
        assert rep.ok
        assert any("b0 = 0" in w for w in rep.warnings)

    def test_normalization_error_detected(self):
        base = isotropic_kernel(3)
        bad = AngularKernel(
            func=lambda x: 2.0 * base(x), dim=3, b0=2 * base.b0, b1=2 * base.b1,
            mb=base.mb, kind="callable",
        )
        rep = validate_kernel(bad)
        assert not rep.ok
        assert any("normalization" in e for e in rep.errors)

    def test_convexity_warning_only(self):
        k = make_kernel({"kind": "callable", "func": lambda x: 1.5 - x}, 3)
        rep = validate_kernel(k)
        assert rep.ok  # warnings do not fail validation
        assert any("nondecreasing" in w for w in rep.warnings)

    def test_linear_kernel_no_convexity_warning(self):
        k = make_kernel({"kind": "callable", "func": lambda x: 1.0 + x}, 3)
        rep = validate_kernel(k)
        assert rep.ok
        assert not any("convex" in w or "nondecreasing" in w for w in rep.warnings)

    def test_tabulated_roundtrip_normalized(self):
        k = make_kernel(
            {"kind": "tabulated", "cos_theta": [-1.0, 0.0, 1.0], "values": [1.0, 1.5, 4.0]}, 3
        )
        rep = validate_kernel(k)
        assert rep.ok
        assert rep.norm_residual < 1e-6


class TestSampleSigma:
    def test_isotropic_cos_uniform(self):
        rng = np.random.default_rng(10)
        k = isotropic_kernel(3)
        uhat = np.tile(np.array([0.0, 0.0, 1.0]), (100000, 1))
        sig = sample_sigma(rng, uhat, k)
        cosv = sig[:, 2]
        res = kstest(cosv, "uniform", args=(-1.0, 2.0))
        assert res.pvalue > 0.01

    def test_mean_matches_mb(self):
        rng = np.random.default_rng(11)
        k = make_kernel({"kind": "callable", "func": lambda x: 1.0 + x}, 3)
        n = 200000
        uhat = np.tile(np.array([0.0, 0.0, 1.0]), (n, 1))
        sig = sample_sigma(rng, uhat, k)
        vals = 0.5 * (1.0 - sig[:, 2])
        se = vals.std() / math.sqrt(n)
        assert abs(vals.mean() - k.mb) < 3 * se

    def test_unit_output_and_single(self):
        rng = np.random.default_rng(12)
        k = isotropic_kernel(2)
        s = sample_sigma(rng, np.array([1.0, 0.0]), k)
        assert s.shape == (2,)
        assert math.isclose(np.linalg.norm(s), 1.0, rel_tol=1e-12)
