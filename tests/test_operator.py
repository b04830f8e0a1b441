import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granular import operator
from granular.kernels import RestitutionLaw, isotropic_kernel, make_kernel, tau_of
from granular.operator import (
    DensityGrid,
    QuadratureSpec,
    TestFunction as TF,
    collision_moment_check,
    dissipation,
    dissipation_from_radial,
    loss_rate,
    q_minus,
    q_plus_carleman,
    q_plus_direct,
    relative_speed_cubed_kernel,
    spreading_support,
    weak_moments,
)
from granular.operator import _CHUNK, _plane_basis
from granular.quadrature import gauss_legendre, sphere_area, sphere_surface_nodes

QUAD = QuadratureSpec(radial_order=48, angular_order=24, hyperplane_order=48)
QUAD3 = QuadratureSpec(radial_order=24, angular_order=12, hyperplane_order=24)


def q_plus_carleman_classic(g, f, v, law, kernel, quad=None):
    """Classical-style variant of the hyperplane form at N = 3, where
    the modified angular kernel coincides with b.

    Kept as an internal consistency check of the geometry: the
    scattering angle is reconstructed from the on-plane distance
    relation 1 - 'u_hat.sigma = 8 |'v - v|^2 / ((1+e)^2 |'u|^2) instead
    of the dot product used by q_plus_carleman.
    """
    if f.dim != 3:
        raise ValueError("classic variant implemented for dimension 3 only")
    quad = quad or QuadratureSpec()
    dim = 3
    v = np.asarray(v, dtype=float)
    pref = (4.0 / (1.0 + law.e)) ** 2
    dist_coef = 8.0 / (1.0 + law.e) ** 2
    omega_coef = (1.0 - law.e) / (1.0 + law.e)

    r_out = math.sqrt(dim) * f.extent + float(np.linalg.norm(v))
    r_nodes, r_w = gauss_legendre(quad.radial_order, 0.0, r_out)
    dirs, w_dir = sphere_surface_nodes(dim, quad.angular_order)
    rr = np.repeat(r_nodes, len(dirs))
    ww = np.repeat(r_w, len(dirs)) * np.tile(w_dir, len(r_nodes))
    om = np.tile(dirs, (len(r_nodes), 1))
    pv = v[None, :] + rr[:, None] * om
    f_vals = f.interp(pv)
    keep = f_vals != 0.0
    rr, ww, om, pv, f_vals = rr[keep], ww[keep], om[keep], pv[keep], f_vals[keep]
    if len(rr) == 0:
        return 0.0

    omega = v[None, :] - omega_coef * rr[:, None] * om
    s_max = math.sqrt(dim) * g.extent + np.linalg.norm(omega, axis=1)
    t1, t2 = _plane_basis(om)
    rho_ref, wrho_ref = gauss_legendre(quad.hyperplane_order, 0.0, 1.0)
    ang = 2.0 * math.pi * np.arange(quad.angular_order) / quad.angular_order
    w_ang = 2.0 * math.pi / quad.angular_order
    disk_x = np.outer(rho_ref, np.cos(ang)).ravel()
    disk_y = np.outer(rho_ref, np.sin(ang)).ravel()
    wdisk = np.outer(rho_ref * wrho_ref, np.full(len(ang), w_ang)).ravel()

    total = 0.0
    block = max(1, _CHUNK // len(disk_x))
    for s in range(0, len(rr), block):
        sl = slice(s, s + block)
        off = (
            t1[sl, None, :] * (s_max[sl, None, None] * disk_x[None, :, None])
            + t2[sl, None, :] * (s_max[sl, None, None] * disk_y[None, :, None])
        )
        pvs = omega[sl, None, :] + off
        g_vals = g.interp(pvs.reshape(-1, dim)).reshape(pvs.shape[:2])
        upre = pv[sl, None, :] - pvs
        ru2 = np.sum(upre * upre, axis=2)
        cosv = np.clip(1.0 - dist_coef * rr[sl, None] ** 2 / ru2, -1.0, 1.0)
        inner = np.sum((s_max[sl] ** 2)[:, None] * wdisk[None, :] * g_vals * kernel(cosv), axis=1)
        total += np.sum(ww[sl] * rr[sl] * f_vals[sl] * inner)
    # outer r^{N-1} times 1/|v-'v| leaves one power of r at N=3
    return pref * total


def weak_moments_pairwise(f, g, psis, law, kernel, quad=None):
    """Oracle for weak_moments: the O(M^2 K) loop over node pairs and
    sphere nodes, for any test function."""
    quad = quad or QuadratureSpec()
    dim = f.dim
    sig, w_s = sphere_surface_nodes(dim, quad.angular_order)
    vf, wf = f.nodes, f.quad_weights * f._flat
    vg, wg = g.nodes, g.quad_weights * g._flat
    keep_f = wf != 0.0
    keep_g = wg != 0.0
    vf, wf = vf[keep_f], wf[keep_f]
    vg, wg = vg[keep_g], wg[keep_g]

    acc = np.zeros(len(psis))
    block = max(1, _CHUNK // max(1, len(vg)))
    for s in range(0, len(vf), block):
        pf = vf[s : s + block]
        pwf = wf[s : s + block]
        u = pf[:, None, :] - vg[None, :, :]
        ru = np.linalg.norm(u, axis=2)
        mid = 0.5 * (pf[:, None, :] + vg[None, :, :])
        base = pwf[:, None] * wg[None, :] * ru  # |u| kernel factor
        inv_ru = np.where(ru > 0.0, 1.0 / np.where(ru > 0.0, ru, 1.0), 0.0)
        for k in range(len(sig)):
            cosv = np.sum(u * sig[k], axis=2) * inv_ru
            bvals = kernel(cosv)
            vprime = mid + 0.25 * (1.0 - law.e) * u + (
                0.25 * (1.0 + law.e) * ru[:, :, None]
            ) * sig[k]
            wtot = base * bvals * w_s[k]
            for j, psi in enumerate(psis):
                acc[j] += np.sum(wtot * psi(vprime))
    return [float(a) for a in acc]


def _pairwise_sum(nodes_a, wa, nodes_b, wb, power=3):
    total = 0.0
    block = max(1, _CHUNK // max(1, len(nodes_b)))
    for s in range(0, len(nodes_a), block):
        d = np.linalg.norm(nodes_a[s : s + block, None, :] - nodes_b[None, :, :], axis=2)
        total += np.sum(wa[s : s + block, None] * wb[None, :] * d**power)
    return total


def dissipation_pairwise(f, law, kernel, g=None):
    """Oracle for dissipation: the direct O(M^2) pair sum."""
    g = f if g is None else g
    wa = f.quad_weights * f._flat
    wb = g.quad_weights * g._flat
    return tau_of(kernel, law) * _pairwise_sum(f.nodes, wa, g.nodes, wb)


def interp_corner_by_corner(grid, pts):
    """Oracle for DensityGrid.interp: multilinear interpolation that
    rebuilds each corner's index and weight axis by axis. interp must
    give the same bits, since it forms the same products in the same
    order."""
    pts = np.asarray(pts, dtype=float)
    t = (pts + grid.extent) / grid.h
    inside = np.all((t >= 0.0) & (t <= grid.n - 1), axis=1)
    t = np.clip(t, 0.0, grid.n - 1)
    i0 = np.minimum(t.astype(np.int64), grid.n - 2)
    f = t - i0
    acc = np.zeros(len(pts))
    for corner in range(1 << grid.dim):
        idx = np.zeros(len(pts), dtype=np.int64)
        w = np.ones(len(pts))
        for ax in range(grid.dim):
            bit = (corner >> ax) & 1
            idx += (i0[:, ax] + bit) * grid._strides[ax]
            w *= f[:, ax] if bit else (1.0 - f[:, ax])
        acc += w * grid._flat[idx]
    acc[~inside] = 0.0
    return acc


def gaussian2(n=81, L=6.0, T=1.0, mass=1.0):
    return DensityGrid.gaussian(2, L, n, mass=mass, temperature=T)


class TestDensityGrid:
    def test_cached_moments_match_quadrature(self):
        g = gaussian2()
        w = g.quad_weights
        assert math.isclose(g.mass, float(np.sum(w * g.values.ravel())), rel_tol=1e-12)
        en = float(np.sum(w * g.values.ravel() * np.sum(g.nodes**2, axis=1)))
        assert math.isclose(g.energy, en, rel_tol=1e-12)
        assert np.allclose(g.momentum, 0.0, atol=1e-14)

    def test_gaussian_mass_exact(self):
        g = DensityGrid.gaussian(2, 6.0, 65, mass=1.7, temperature=0.5)
        assert math.isclose(g.mass, 1.7, rel_tol=1e-12)

    def test_interp_at_nodes(self):
        g = gaussian2(n=33)
        vals = g.interp(g.nodes)
        assert np.allclose(vals, g.values.ravel(), atol=1e-13)

    def test_interp_outside_zero(self):
        g = gaussian2(n=33)
        assert g.interp(np.array([7.0, 0.0])) == 0.0
        assert g.interp(np.array([[0.0, -6.5], [100.0, 100.0]])).tolist() == [0.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_interp_matches_corner_by_corner(self, data):
        dim = data.draw(st.sampled_from([2, 3]))
        n = data.draw(st.integers(2, 9))
        grid = DensityGrid.two_bump(dim, 2.0, n, [0.7] + [0.2] * (dim - 1), 0.8)
        # each coordinate is a node (nodes and faces), or anything on and
        # around the box (outside points included)
        coord = st.one_of(st.sampled_from(grid.axis.tolist()),
                          st.floats(-3.0, 3.0, allow_subnormal=False))
        pts = np.array(data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                          min_size=1, max_size=40)))
        assert np.array_equal(grid.interp(pts), interp_corner_by_corner(grid, pts))
        assert grid.interp(pts[0]) == interp_corner_by_corner(grid, pts[:1])[0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DensityGrid(2, 1.0, -np.ones((5, 5)))

    def test_gaussian_energy(self):
        g = DensityGrid.gaussian(3, 7.0, 41, mass=1.0, temperature=1.0)
        assert abs(g.energy - 3.0) < 1e-6


class TestLoss:
    def test_delta_like(self):
        # narrow gaussian at the origin: (g * Phi)(v) ~ |v|
        g = DensityGrid.gaussian(3, 4.0, 49, mass=1.0, temperature=0.01)
        val = loss_rate(g, np.array([2.0, 0.0, 0.0]))
        assert abs(val - 2.0) < 0.01

    def test_standard_gaussian_origin(self):
        g = DensityGrid.gaussian(3, 6.0, 49, mass=1.0, temperature=1.0)
        val = loss_rate(g, np.zeros(3))
        assert abs(val - math.sqrt(8 / math.pi)) < 2e-3

    def test_jensen_bound(self):
        rng = np.random.default_rng(0)
        probes = rng.uniform(-3, 3, size=(20, 2))
        for g in (
            gaussian2(),
            DensityGrid.ball(2, 6.0, 81, radius=1.5),
            DensityGrid.two_bump(2, 6.0, 81, [1.5, 0.0], 0.4),
        ):
            margin = loss_rate(g, probes) - g.mass * np.linalg.norm(probes, axis=1)
            assert margin.min() > -1e-8

    def test_q_minus_zero_density(self):
        f = DensityGrid(2, 6.0, np.zeros((17, 17)))
        g = gaussian2(n=17)
        assert q_minus(g, f, np.array([0.5, 0.5])) == 0.0

    def test_q_minus_polar_oracle(self):
        # independent u-polar quadrature of the loss integral
        g = gaussian2()
        f = gaussian2()
        v = np.array([0.7, -0.3])
        r, wr = gauss_legendre(96, 0.0, 2.5 * 6.0)
        ang = 2 * math.pi * np.arange(64) / 64
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        pts = v[None, None, :] - r[:, None, None] * dirs[None, :, :]
        gv = g.interp(pts.reshape(-1, 2)).reshape(len(r), len(ang))
        oracle = float(np.sum(wr[:, None] * r[:, None] ** 2 * gv) * (2 * math.pi / 64))
        oracle *= f.interp(v)
        assert abs(q_minus(g, f, v) - oracle) / oracle < 0.01


class TestGainRepresentations:
    def test_direct_rejects_sticky(self):
        f = gaussian2(n=33)
        with pytest.raises(ValueError):
            q_plus_direct(f, f, np.zeros(2), RestitutionLaw(0.0), isotropic_kernel(2), QUAD)

    def test_carleman_sticky_needs_dim3(self):
        f = gaussian2(n=33)
        with pytest.raises(ValueError):
            q_plus_carleman(f, f, np.zeros(2), RestitutionLaw(0.0), isotropic_kernel(2), QUAD)

    def test_zero_densities(self):
        z = DensityGrid(2, 6.0, np.zeros((17, 17)))
        val = q_plus_direct(z, z, np.zeros(2), RestitutionLaw(0.8), isotropic_kernel(2), QUAD)
        assert val == 0.0

    def test_multi_probe_is_per_probe(self, monkeypatch):
        # 16 (u_hat, sigma) pairs per radial node: 4 probes per block, so
        # 10 probes make two full blocks and a partial one
        monkeypatch.setattr(operator, "_CHUNK", 64)
        f = gaussian2(n=33)
        g = DensityGrid.gaussian(2, 6.0, 33, mass=1.0, temperature=0.7)
        kern = make_kernel({"kind": "callable", "func": lambda x: 1.0 + 0.8 * x}, 2)
        quad = QuadratureSpec(8, 4, 8)
        probes = np.random.default_rng(2).uniform(-2.5, 2.5, size=(10, 2))
        law = RestitutionLaw(0.8)
        got = q_plus_direct(g, f, probes, law, kern, quad)
        want = np.array([q_plus_direct(g, f, v, law, kern, quad) for v in probes])
        assert got.shape == (10,) and np.array_equal(got, want)

    def test_elastic_maxwellian_fixed_point(self):
        f = gaussian2(n=97)
        kern = isotropic_kernel(2)
        for v in (np.zeros(2), np.array([1.0, 0.5])):
            qp = q_plus_direct(f, f, v, RestitutionLaw(1.0), kern, QUAD)
            qm = q_minus(f, f, v)
            assert abs(qp - qm) / qm < 0.02

    def test_cross_representation_anisotropic(self):
        # the angular reconstruction inside the hyperplane form only
        # matches the direct form if the geometry is right; an
        # anisotropic kernel makes any error visible
        f = gaussian2(n=97)
        g = DensityGrid.gaussian(2, 6.0, 97, mass=1.0, temperature=0.7)
        kern = make_kernel({"kind": "callable", "func": lambda x: 1.0 + 0.8 * x}, 2)
        for e in (0.5, 0.8, 1.0):
            law = RestitutionLaw(e)
            for v in (np.zeros(2), np.array([1.2, -0.5]), np.array([2.5, 1.0])):
                qd = q_plus_direct(g, f, v, law, kern, QUAD)
                qc = q_plus_carleman(g, f, v, law, kern, QUAD)
                assert abs(qd - qc) / abs(qd) < 0.02

    def test_carleman_e0_dim3_finite_positive(self):
        f = DensityGrid.gaussian(3, 5.0, 41, mass=1.0, temperature=1.0)
        g = DensityGrid.gaussian(3, 5.0, 41, mass=1.0, temperature=0.7)
        val = q_plus_carleman(g, f, np.array([0.5, -0.3, 0.2]), RestitutionLaw(0.0),
                              isotropic_kernel(3), QUAD3)
        assert math.isfinite(val) and val > 0

    def test_carleman_mass_conservation_e0(self):
        # radial integration of the hyperplane form against the
        # analytic pair mean E|u| (valid weak-form mass at every e)
        f = DensityGrid.gaussian(3, 5.0, 41, mass=1.0, temperature=1.0)
        g = DensityGrid.gaussian(3, 5.0, 41, mass=1.0, temperature=0.7)
        kern = isotropic_kernel(3)
        target = math.sqrt(1.7) * math.sqrt(8 / math.pi)
        rr, wr = gauss_legendre(20, 0.0, 8.0)
        for e in (0.0, 0.8):
            law = RestitutionLaw(e)
            q = np.array([
                q_plus_carleman(g, f, np.array([0.0, 0.0, r_]), law, kern, QUAD3)
                for r_ in rr
            ])
            mass = float(np.sum(wr * 4 * math.pi * rr**2 * q))
            assert abs(mass - target) / target < 0.02

    def test_classic_variant_matches(self):
        f = DensityGrid.gaussian(3, 5.0, 33, mass=1.0, temperature=1.0)
        g = DensityGrid.gaussian(3, 5.0, 33, mass=1.0, temperature=0.7)
        kern = make_kernel({"kind": "callable", "func": lambda x: 1.0 + 0.8 * x}, 3)
        quad = QuadratureSpec(16, 8, 16)
        for e in (0.0, 0.6, 1.0):
            law = RestitutionLaw(e)
            a = q_plus_carleman(g, f, np.array([0.4, -0.2, 0.1]), law, kern, quad)
            b = q_plus_carleman_classic(g, f, np.array([0.4, -0.2, 0.1]), law, kern, quad)
            assert abs(a - b) / abs(a) < 1e-10

    def test_homogeneity(self):
        # Q+(g(lam .), f(lam .))(v) = lam^{-(N+1)} Q+(g, f)(lam v)
        lam = 1.5
        f = gaussian2(n=81)
        g = DensityGrid.gaussian(2, 6.0, 81, mass=1.0, temperature=0.7)
        f_s = DensityGrid.from_function(
            lambda x: np.exp(-0.5 * np.sum((lam * x) ** 2, axis=1)), 2, 6.0 / lam, 81)
        f_s = DensityGrid(2, 6.0 / lam, f_s.values * (f.values.max() / f_s.values.max()))
        g_s = DensityGrid.from_function(
            lambda x: np.exp(-0.5 * np.sum((lam * x) ** 2, axis=1) / 0.7), 2, 6.0 / lam, 81)
        g_s = DensityGrid(2, 6.0 / lam, g_s.values * (g.values.max() / g_s.values.max()))
        kern = isotropic_kernel(2)
        law = RestitutionLaw(0.8)
        v = np.array([0.4, -0.2])
        lhs = q_plus_direct(g_s, f_s, v, law, kern, QUAD)
        rhs = lam ** (-3) * q_plus_direct(g, f, lam * v, law, kern, QUAD)
        assert abs(lhs - rhs) / abs(rhs) < 0.02


class TestWeakForm:
    def test_delta_pair_unit_kernel(self):
        # psi = 1 with near-delta densities collapses to |v1 - v2|
        f = DensityGrid.gaussian(2, 3.0, 61, mass=1.0, temperature=0.01)
        gv = DensityGrid.from_function(
            lambda x: np.exp(-0.5 * np.sum((x - np.array([1.0, 0.0])) ** 2, axis=1) / 0.01),
            2, 3.0, 61)
        gv = DensityGrid(2, 3.0, gv.values / gv.mass)
        val, = weak_moments(gv, f, [TF.one()], RestitutionLaw(0.7), isotropic_kernel(2), QUAD)
        assert abs(val - 1.0) < 0.02

    def test_momentum_moment_vanishes(self):
        f = gaussian2(n=49)
        vals = weak_moments(
            f, f, [TF.component(0), TF.component(1)],
            RestitutionLaw(0.8), isotropic_kernel(2), QUAD)
        assert max(abs(v) for v in vals) < 1e-10

    def test_energy_moment_matches_dissipation(self):
        f = gaussian2(n=57)
        law = RestitutionLaw(0.8)
        kern = isotropic_kernel(2)
        gain_e, = weak_moments(f, f, [TF.speed_squared()], law, kern, QUAD)
        lr = loss_rate(f, f.nodes)
        loss_e = float(np.sum(f.quad_weights * f.values.ravel() * lr
                              * np.sum(f.nodes**2, axis=1)))
        d = dissipation(f, law, kern)
        assert abs((gain_e - loss_e) + d) < 0.02 * d


class TestDissipation:
    def test_elastic_zero(self):
        f = gaussian2(n=33)
        assert dissipation(f, RestitutionLaw(1.0), isotropic_kernel(2)) == 0.0

    def test_two_delta_bumps(self):
        # masses at +-(1, 0): cross terms give tau * 2 * |2|^3 = 2 for
        # m_b = 1/2, e = 0
        f = DensityGrid.two_bump(2, 3.0, 121, [1.0, 0.0], 0.05, mass=2.0)
        val = dissipation(f, RestitutionLaw(0.0), isotropic_kernel(2))
        assert abs(val - 2.0) < 0.05

    def test_radial_kernel_closed_form(self):
        rng = np.random.default_rng(13)
        r = rng.uniform(0, 3, 20)
        rs = rng.uniform(0, 3, 20)
        # oracle: GL quadrature over the relative angle in 3-D
        x, w = gauss_legendre(256, -1.0, 1.0)
        oracle = np.array([
            0.5 * np.sum(w * (a * a + b * b - 2 * a * b * x) ** 1.5)
            for a, b in zip(r, rs)
        ])
        got = relative_speed_cubed_kernel(r, rs, 3)
        assert np.allclose(got, oracle, rtol=1e-10)

    def test_radial_dissipation_maxwellian(self):
        # radial histogram of an analytic Maxwellian against the
        # analytic E|u|^3
        edges = np.linspace(0, 10, 400)
        centers = 0.5 * (edges[1:] + edges[:-1])
        pdf = (2 * math.pi) ** (-1.5) * np.exp(-0.5 * centers**2)
        masses = pdf * (edges[1:] ** 3 - edges[:-1] ** 3) * sphere_area(3) / 3
        law = RestitutionLaw(0.8)
        kern = isotropic_kernel(3)
        got = dissipation_from_radial(centers, masses, law, kern, 3)
        eu3 = 2**1.5 * (2**1.5 * math.gamma(3) / math.gamma(1.5))
        want = tau_of(kern, law) * eu3 * (float(masses.sum())) ** 2
        assert abs(got - want) / want < 5e-3


class TestMomentResiduals:
    def test_gaussian_residuals(self):
        f = gaussian2(n=57)
        rep = collision_moment_check(f, RestitutionLaw(0.8), isotropic_kernel(2), QUAD)
        assert abs(rep["mass_relative"]) < 1e-10
        assert max(abs(x) for x in rep["momentum_residual"]) < 1e-10
        assert abs(rep["energy_relative"]) < 0.02


class TestSpreading:
    def test_radii(self):
        kern = isotropic_kernel(3)
        for e in (0.0, 0.5, 1.0):
            radius, centers, dens = spreading_support(
                RestitutionLaw(e), kern, QUAD, dim=3)
            proof = math.sqrt(1.0 + ((1.0 + e) / 2.0) ** 2)
            assert radius >= math.sqrt(5.0) / 2.0 - 1e-9
            assert radius >= 0.98 * proof

    def test_dim2(self):
        kern = isotropic_kernel(2)
        radius, _, _ = spreading_support(RestitutionLaw(0.5), kern, QUAD, dim=2)
        assert radius >= math.sqrt(5.0) / 2.0 - 1e-9


class TestDifferenceGridSums:
    """weak_moments and dissipation against the direct pair loops."""

    @staticmethod
    def pair(dim, n):
        f = DensityGrid.gaussian(dim, 4.0, n, mass=1.0, temperature=0.8,
                                 center=[0.3] + [0.0] * (dim - 1))
        g = DensityGrid.two_bump(dim, 4.0, n, [1.0] + [-0.4] * (dim - 1), 0.6, mass=0.7)
        return f, g

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("e", [0.0, 0.5, 1.0])
    # b = (1 - x)^1.5: at exponent -0.5 the slope of b is infinite at
    # x = 1, where d_hat.sigma rounds differently in the two summation
    # orders on aligned nodes, and the sums then differ by ~sqrt(eps)
    @pytest.mark.parametrize("spec", [{"kind": "isotropic"}, {"kind": "power", "exponent": -1.5}],
                             ids=["isotropic", "power"])
    def test_weak_moments_match_pair_loop(self, dim, n, e, spec):
        f, g = self.pair(dim, n)
        kern = make_kernel(spec, dim)
        quad = QuadratureSpec(8, 8 if dim == 2 else 4, 8)
        psis = [TF.one(), *(TF.component(i) for i in range(dim)), TF.speed_squared()]
        law = RestitutionLaw(e)
        got = weak_moments(f, g, psis, law, kern, quad)
        want = weak_moments_pairwise(f, g, psis, law, kern, quad)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("e", [0.0, 0.5])
    def test_dissipation_matches_pair_sum(self, dim, n, e):
        f, g = self.pair(dim, n)
        kern = isotropic_kernel(dim)
        law = RestitutionLaw(e)
        for other in (None, g):
            got = dissipation(f, law, kern, other)
            assert got == pytest.approx(dissipation_pairwise(f, law, kern, other), rel=1e-12, abs=0)

    @pytest.mark.parametrize("other", [
        DensityGrid.gaussian(2, 4.0, 15),
        DensityGrid.gaussian(2, 5.0, 17),
        DensityGrid.gaussian(3, 4.0, 17),
    ], ids=["n", "extent", "dim"])
    def test_mismatched_grids_rejected(self, other):
        f = DensityGrid.gaussian(2, 4.0, 17)
        law, kern = RestitutionLaw(0.5), isotropic_kernel(2)
        with pytest.raises(ValueError, match="one grid"):
            weak_moments(f, other, [TF.one()], law, kern, QUAD)
        with pytest.raises(ValueError, match="one grid"):
            dissipation(f, law, kern, other)

    @pytest.mark.parametrize("psi", [
        TF("cubic", lambda x: np.sum(x * x * x, axis=-1)),
        TF.component(2),
    ], ids=["unknown-tag", "component-out-of-range"])
    def test_unknown_test_function_rejected(self, psi):
        f = DensityGrid.gaussian(2, 4.0, 9)
        with pytest.raises(ValueError, match="test functions"):
            weak_moments(f, f, [TF.one(), psi], RestitutionLaw(0.5), isotropic_kernel(2), QUAD)
