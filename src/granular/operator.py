"""Deterministic evaluation of the collision operator on velocity grids.

The gain term is evaluated in three independent representations that
must agree for smooth inputs:

  * direct: integral over (v_star, sigma) of 'f 'g_star / e^2 |u| b,
    with pre-collisional velocities ('v, 'v_star);
  * weak: moments against a test function psi via the post-collisional
    velocity v', valid for every e in [0, 1];
  * hyperplane (Carleman-type): outer integral over 'v and inner
    integral over 'v_star on the hyperplane orthogonal to v - 'v
    through Omega(v,'v) = (2 - 1/beta) v + (1/beta - 1) 'v, with
    prefactor 2^(N-1) / (beta^(N-1) e^2). In dimension 3 this form
    stays finite at e = 0, where Omega = 2v - 'v.

These evaluators are the cross-validation oracles for the particle
simulator; they are not meant as a production PDE solver.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_legendre, sphere_area, sphere_surface_nodes

__all__ = [
    "DensityGrid",
    "QuadratureSpec",
    "TestFunction",
    "loss_rate",
    "q_minus",
    "q_plus_direct",
    "q_plus_carleman",
    "q_plus_carleman_classic",
    "weak_moment",
    "weak_moments",
    "dissipation",
    "dissipation_from_radial",
    "relative_speed_cubed_kernel",
    "collision_moment_check",
    "spreading_support",
]

_CHUNK = 1 << 18  # elements per vectorized block in pairwise loops


# ---------------------------------------------------------------------------
# density grids
# ---------------------------------------------------------------------------

class DensityGrid:
    """Nonnegative density on a uniform tensor grid over [-L, L]^N.

    Values are interpolated multilinearly and extended by zero outside
    the box. Mass, momentum and energy are cached trapezoidal moments.
    """

    def __init__(self, dim, extent, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != dim or len(set(values.shape)) != 1:
            raise ValueError("values must be a cubic array of rank dim")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        self.dim = int(dim)
        self.extent = float(extent)
        self.values = values
        self.n = values.shape[0]
        if self.n < 2:
            raise ValueError("need at least 2 points per axis")
        self.axis = np.linspace(-self.extent, self.extent, self.n)
        self.h = 2.0 * self.extent / (self.n - 1)
        w1 = np.full(self.n, self.h)
        w1[0] = w1[-1] = 0.5 * self.h
        self._w1 = w1
        self._flat = values.ravel()
        self._strides = np.array(
            [self.n**k for k in range(dim - 1, -1, -1)], dtype=np.int64
        )
        self._nodes = None
        self._weights = None
        self.mass = float(self._moment(lambda x: 1.0))
        self.momentum = np.array(
            [self._moment(lambda x, k=k: x[:, k]) for k in range(dim)]
        )
        self.energy = float(self._moment(lambda x: np.sum(x * x, axis=1)))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_function(cls, fn, dim, extent, n):
        ax = np.linspace(-extent, extent, n)
        grids = np.meshgrid(*([ax] * dim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vals = np.asarray(fn(pts), dtype=float).reshape((n,) * dim)
        return cls(dim, extent, vals)

    @classmethod
    def gaussian(cls, dim, extent, n, mass=1.0, temperature=1.0, center=None):
        """Maxwellian with per-axis variance `temperature`, renormalized
        so the cached (discrete) mass equals `mass` exactly."""
        c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

        def fn(x):
            r2 = np.sum((x - c) ** 2, axis=1)
            return np.exp(-0.5 * r2 / temperature)

        g = cls.from_function(fn, dim, extent, n)
        return cls(dim, extent, g.values * (mass / g.mass))

    @classmethod
    def ball(cls, dim, extent, n, radius=1.0, mass=1.0, edge=0.05):
        """Smoothed indicator of a ball (tanh edge of relative width
        `edge`), renormalized to the requested mass."""

        def fn(x):
            r = np.linalg.norm(x, axis=1)
            return 0.5 * (1.0 - np.tanh((r - radius) / (edge * radius)))

        g = cls.from_function(fn, dim, extent, n)
        return cls(dim, extent, g.values * (mass / g.mass))

    @classmethod
    def two_bump(cls, dim, extent, n, center, width=0.3, mass=1.0):
        c = np.asarray(center, dtype=float)

        def fn(x):
            a = np.exp(-0.5 * np.sum((x - c) ** 2, axis=1) / width**2)
            b = np.exp(-0.5 * np.sum((x + c) ** 2, axis=1) / width**2)
            return a + b

        g = cls.from_function(fn, dim, extent, n)
        return cls(dim, extent, g.values * (mass / g.mass))

    # -- quadrature ------------------------------------------------------------

    @property
    def nodes(self):
        if self._nodes is None:
            grids = np.meshgrid(*([self.axis] * self.dim), indexing="ij")
            self._nodes = np.stack([g.ravel() for g in grids], axis=1)
        return self._nodes

    @property
    def quad_weights(self):
        if self._weights is None:
            w = self._w1
            for _ in range(self.dim - 1):
                w = np.multiply.outer(w, self._w1)
            self._weights = w.ravel()
        return self._weights

    def _moment(self, fn):
        return np.sum(self.quad_weights * self._flat * fn(self.nodes))

    def interp(self, pts):
        """Multilinear interpolation, zero outside [-L, L]^N."""
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        p = pts[None, :] if single else pts
        t = (p + self.extent) / self.h
        inside = np.all((t >= 0.0) & (t <= self.n - 1), axis=1)
        t = np.clip(t, 0.0, self.n - 1)
        i0 = np.minimum(t.astype(np.int64), self.n - 2)
        f = t - i0
        acc = np.zeros(len(p))
        for corner in range(1 << self.dim):
            idx = np.zeros(len(p), dtype=np.int64)
            w = np.ones(len(p))
            for ax in range(self.dim):
                bit = (corner >> ax) & 1
                idx += (i0[:, ax] + bit) * self._strides[ax]
                w *= f[:, ax] if bit else (1.0 - f[:, ax])
            acc += w * self._flat[idx]
        acc[~inside] = 0.0
        return acc[0] if single else acc


@dataclass(frozen=True)
class QuadratureSpec:
    """Orders of the operator quadratures.

    radial_order: Gauss-Legendre points in |u| (direct form) and in the
        outer radius (hyperplane form);
    angular_order: nodes per sphere factor (angles for N=2, polar nodes
        for N=3 with twice as many azimuths);
    hyperplane_order: Gauss-Legendre points across the hyperplane.
    """

    radial_order: int = 64
    angular_order: int = 32
    hyperplane_order: int = 64

    def __post_init__(self):
        for name in ("radial_order", "angular_order", "hyperplane_order"):
            if getattr(self, name) < 4:
                raise ValueError(f"{name} must be >= 4")

    def halved(self):
        return QuadratureSpec(
            max(4, self.radial_order // 2),
            max(4, self.angular_order // 2),
            max(4, self.hyperplane_order // 2),
        )


class TestFunction:
    """Admissible weak-form test functions (bounded by C(1+|v|) except
    for the quadratic energy moment, which the densities' decay covers).
    """

    def __init__(self, tag, fn):
        self.tag = tag
        self.fn = fn

    def __call__(self, pts):
        return self.fn(pts)

    @classmethod
    def one(cls):
        return cls("one", lambda x: np.ones(x.shape[:-1]))

    @classmethod
    def component(cls, i):
        return cls(f"component_{i}", lambda x: x[..., i])

    @classmethod
    def speed_squared(cls):
        return cls("speed_squared", lambda x: np.sum(x * x, axis=-1))


# ---------------------------------------------------------------------------
# loss part
# ---------------------------------------------------------------------------

def loss_rate(g, v):
    """(g * Phi)(v) with Phi(z) = |z|, by grid quadrature.

    v may be a single vector or an (m, N) array of probe velocities.
    """
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    probes = v[None, :] if single else v
    nodes, w = g.nodes, g.quad_weights * g._flat
    out = np.empty(len(probes))
    block = max(1, _CHUNK // len(nodes))
    for s in range(0, len(probes), block):
        p = probes[s : s + block]
        d = np.linalg.norm(p[:, None, :] - nodes[None, :, :], axis=2)
        out[s : s + block] = d @ w
    return float(out[0]) if single else out


def q_minus(g, f, v):
    """Loss term (g * Phi)(v) f(v); f evaluated by interpolation."""
    lr = loss_rate(g, v)
    return lr * f.interp(v)


# ---------------------------------------------------------------------------
# gain part, direct (pre-collisional) representation
# ---------------------------------------------------------------------------

def q_plus_direct(g, f, v, law, kernel, quad=None):
    """Gain term at velocity v by quadrature over the colliding pair's
    relative velocity u (polar) and the scattering direction sigma.

    This is the exact dual of the weak form: the pair (w, w_star) with
    w - w_star = u collides with direction sigma and produces v, so

        w = v + (u - u')/2,  w_star = w - u,
        u' = (1-e)/2 u + (1+e)/2 |u| sigma,

    and the integrand is f(w) g(w_star) |u| b(u_hat.sigma). Writing the
    integral over the post-collisional partner instead (the textbook
    display with a constant 1/e^2 prefactor) is exact only in the
    impact-direction parametrization; transcribing it verbatim with the
    sigma measure breaks mass conservation for e < 1, which the
    conservation tests here would catch.

    Rejected at e = 0, where the pair map degenerates (u' -> u/2 +
    |u| sigma/2 no longer separates pre- from post-collisional data in
    the strong sense); use the hyperplane representation in dimension 3.
    """
    if law.e <= 0.0:
        raise ValueError("direct gain form not defined at e = 0")
    quad = quad or QuadratureSpec()
    dim = f.dim
    v = np.asarray(v, dtype=float)

    rmax = math.sqrt(dim) * (f.extent + g.extent)
    r_nodes, r_w = gauss_legendre(quad.radial_order, 0.0, rmax)
    uhat, w_u = sphere_surface_nodes(dim, quad.angular_order)
    sig, w_s = sphere_surface_nodes(dim, quad.angular_order)
    bmat = kernel(uhat @ sig.T)  # (Mu, Ms)
    ws_b = bmat * w_u[:, None] * w_s[None, :]

    total = 0.0
    for r, wr in zip(r_nodes, r_w):
        u = r * uhat  # (Mu, N)
        # w = v + (u - u')/2 with u' = (1-e)/2 u + (1+e)/2 r sigma
        half_diff = 0.25 * (1.0 + law.e) * (u[:, None, :] - r * sig[None, :, :])
        w_pair = v[None, None, :] + half_diff
        vals = f.interp(w_pair.reshape(-1, dim)) * g.interp(
            (w_pair - u[:, None, :]).reshape(-1, dim)
        )
        inner = np.sum(ws_b * vals.reshape(ws_b.shape))
        total += wr * r**dim * inner  # r^{N-1} volume factor times |u| = r
    return total


# ---------------------------------------------------------------------------
# gain part, hyperplane (Carleman-type) representation
# ---------------------------------------------------------------------------

def _plane_basis(omega):
    """Orthonormal basis of the hyperplane orthogonal to each row of
    omega (shape (M, N)); returns (N-1) arrays of shape (M, N)."""
    m, dim = omega.shape
    if dim == 2:
        t = np.stack([-omega[:, 1], omega[:, 0]], axis=1)
        return (t,)
    if dim == 3:
        # pick the axis least aligned with omega, then Gram-Schmidt
        ref = np.zeros_like(omega)
        ref[np.arange(m), np.argmin(np.abs(omega), axis=1)] = 1.0
        t1 = np.cross(omega, ref)
        t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
        t2 = np.cross(omega, t1)
        t2 /= np.linalg.norm(t2, axis=1, keepdims=True)
        return (t1, t2)
    raise NotImplementedError("hyperplane quadrature implemented for dim 2 and 3")


def _unit_ball_rule(m, quad):
    """Nodes (K, m) and weights (K,) on the unit ball of R^m, m = 1 or 2:
    Gauss-Legendre on [-1, 1], or Gauss-Legendre in the radius times a
    uniform angle on the disk."""
    if m == 1:
        s_ref, ws_ref = gauss_legendre(quad.hyperplane_order, -1.0, 1.0)
        return s_ref[:, None], ws_ref
    rho_ref, wrho_ref = gauss_legendre(quad.hyperplane_order, 0.0, 1.0)
    ang = 2.0 * math.pi * np.arange(quad.angular_order) / quad.angular_order
    w_ang = 2.0 * math.pi / quad.angular_order
    ca, sa = np.cos(ang), np.sin(ang)
    disk = np.stack([np.outer(rho_ref, ca).ravel(), np.outer(rho_ref, sa).ravel()], axis=1)
    return disk, np.outer(rho_ref * wrho_ref, np.full_like(ca, w_ang)).ravel()


def q_plus_carleman(g, f, v, law, kernel, quad=None):
    """Gain term at v via the hyperplane (Carleman-type) representation

        Q+(g,f)(v) = (4/(1+e))^{N-1} int_{'v} f('v)/|v-'v|
                     int_{E} g('v_star) |'u|^{3-N} b('u_hat.sigma) dE d'v,

    with 'u = 'v - 'v_star and E the hyperplane orthogonal to v - 'v
    through Omega(v,'v) = (2 - 1/beta) v + (1/beta - 1) 'v (Omega =
    2v - 'v at e = 0). The scattering direction of the colliding pair
    ('v, 'v_star) is sigma = ('u + x)/|'u| with x = (4/(1+e)) (v - 'v),
    a unit vector for points on the hyperplane.

    The prefactor and kernel angle are fixed by requiring exact duality
    with the weak form (Dirac-identity change of variables applied to
    the pushforward); in dimension 3 with an isotropic kernel this
    coincides with the constant-prefactor display 2^{N-1}/(beta^{N-1}
    e^2) times b at the partner angle, but for N != 3 or anisotropic b
    the two differ and only this form conserves mass.

    Outer integral in polar coordinates around v (the 1/|v-'v| factor
    cancels against the volume element); inner integral Gauss-Legendre
    in the in-plane radius, uniform in angle. Stays regular at e = 0,
    accepted only in dimension 3, the paper-validated domain.
    """
    quad = quad or QuadratureSpec()
    dim = f.dim
    v = np.asarray(v, dtype=float)
    if law.e <= 0.0 and dim != 3:
        raise ValueError("e = 0 hyperplane form only admissible in dimension 3")
    pref = (4.0 / (1.0 + law.e)) ** (dim - 1)
    x_coef = 4.0 / (1.0 + law.e)
    # Omega = v + c (v - 'v) with c = 1 - 1/beta = (1 - e)/(1 + e)
    omega_coef = (1.0 - law.e) / (1.0 + law.e)

    r_out = math.sqrt(dim) * f.extent + float(np.linalg.norm(v))
    r_nodes, r_w = gauss_legendre(quad.radial_order, 0.0, r_out)
    dirs, w_dir = sphere_surface_nodes(dim, quad.angular_order)

    # all outer nodes: 'v = v + r * dir
    rr = np.repeat(r_nodes, len(dirs))
    ww = np.repeat(r_w, len(dirs)) * np.tile(w_dir, len(r_nodes))
    om = np.tile(dirs, (len(r_nodes), 1))
    pv = v[None, :] + rr[:, None] * om
    f_vals = f.interp(pv)
    keep = f_vals != 0.0
    rr, ww, om, pv, f_vals = rr[keep], ww[keep], om[keep], pv[keep], f_vals[keep]
    if len(rr) == 0:
        return 0.0

    omega = v[None, :] - omega_coef * rr[:, None] * om  # v + coef*(v-'v)
    s_max = math.sqrt(dim) * g.extent + np.linalg.norm(omega, axis=1)

    # in-plane offsets s_max * sum_k node_k t_k over the hyperplane's unit ball
    nodes, w_ball = _unit_ball_rule(dim - 1, quad)
    basis = _plane_basis(om)
    offsets = basis[0][:, None, :] * (s_max[:, None, None] * nodes[None, :, 0:1])
    for k in range(1, dim - 1):  # in place: one (points, nodes, N) array at a time
        offsets += basis[k][:, None, :] * (s_max[:, None, None] * nodes[None, :, k:k + 1])
    in_w = (s_max ** (dim - 1))[:, None] * w_ball[None, :]

    total = 0.0
    n_in = offsets.shape[1]
    block = max(1, _CHUNK // n_in)
    for s in range(0, len(rr), block):
        sl = slice(s, s + block)
        pvs = omega[sl, None, :] + offsets[sl]  # 'v_star nodes (b, n_in, N)
        g_vals = g.interp(pvs.reshape(-1, dim)).reshape(pvs.shape[:2])
        upre = pv[sl, None, :] - pvs  # 'u
        ru2 = np.sum(upre * upre, axis=2)
        # 'u_hat.sigma = 1 + x.'u/|'u|^2 with x = x_coef (v - 'v)
        dot = np.sum(upre * om[sl, None, :], axis=2) * rr[sl, None]  # 'u.('v - v)
        cosv = np.clip(1.0 - x_coef * dot / ru2, -1.0, 1.0)
        kern = kernel(cosv) if dim == 3 else ru2 ** (0.5 * (3 - dim)) * kernel(cosv)
        inner = np.sum(in_w[sl] * g_vals * kern, axis=1)
        total += np.sum(ww[sl] * rr[sl] ** (dim - 2) * f_vals[sl] * inner)
    return pref * total


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


# ---------------------------------------------------------------------------
# weak form
# ---------------------------------------------------------------------------

def weak_moments(f, g, psis, law, kernel, quad=None):
    """Integrals of Q^+(g, f) against several test functions at once,
    by the post-collisional weak form (valid for every e in [0, 1]).

    Returns a list of floats matching psis. Uses the grids' own nodes
    and trapezoid weights for the (v, v_star) integrals and a sphere
    rule for sigma.
    """
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


def weak_moment(f, g, psi, law, kernel, quad=None):
    """Single-test-function wrapper around weak_moments."""
    return weak_moments(f, g, [psi], law, kernel, quad)[0]


# ---------------------------------------------------------------------------
# dissipation functional
# ---------------------------------------------------------------------------

def _pairwise_sum(nodes_a, wa, nodes_b, wb, power=3):
    total = 0.0
    block = max(1, _CHUNK // max(1, len(nodes_b)))
    for s in range(0, len(nodes_a), block):
        d = np.linalg.norm(nodes_a[s : s + block, None, :] - nodes_b[None, :, :], axis=2)
        total += np.sum(wa[s : s + block, None] * wb[None, :] * d**power)
    return total


def dissipation(f, law, kernel, g=None):
    """D(f) = tau * iint f f_star |u|^3, tau = m_b (1 - e^2)/4."""
    tau = kernel.mb * (1.0 - law.e**2) / 4.0
    if tau == 0.0:
        return 0.0
    g = f if g is None else g
    wa = f.quad_weights * f._flat
    wb = g.quad_weights * g._flat
    ka = wa != 0.0
    kb = wb != 0.0
    return tau * _pairwise_sum(f.nodes[ka], wa[ka], g.nodes[kb], wb[kb])


def relative_speed_cubed_kernel(r, r_star, dim, n_angle=64):
    """Average of |u|^3 over the relative angle of two isotropic
    velocities with speeds r, r_star (broadcasting arrays).

    dim=3 has the closed form a^3 + 2 a b^2 + b^4 / (5a) with
    a = max(r, r_star), b = min(r, r_star); dim=2 integrates over the
    uniform angle numerically.
    """
    r = np.asarray(r, dtype=float)
    r_star = np.asarray(r_star, dtype=float)
    if dim == 3:
        a = np.maximum(r, r_star)
        b = np.minimum(r, r_star)
        safe_a = np.where(a > 0.0, a, 1.0)
        return np.where(a > 0.0, a**3 + 2.0 * a * b**2 + 0.2 * b**4 / safe_a, 0.0)
    if dim == 2:
        gam, wg = gauss_legendre(n_angle, 0.0, math.pi)
        c = np.cos(gam)
        rr = r[..., None]
        ss = r_star[..., None]
        integ = (rr**2 + ss**2 - 2.0 * rr * ss * c) ** 1.5
        return np.sum(integ * wg, axis=-1) / math.pi
    raise NotImplementedError("angle-averaged |u|^3 implemented for dim 2 and 3")


def dissipation_from_radial(r_centers, bin_masses, law, kernel, dim):
    """D evaluated on a radial (isotropic) histogram: bin masses at
    speeds r_centers."""
    tau = kernel.mb * (1.0 - law.e**2) / 4.0
    if tau == 0.0:
        return 0.0
    K = relative_speed_cubed_kernel(
        r_centers[:, None], np.asarray(r_centers)[None, :], dim
    )
    m = np.asarray(bin_masses, dtype=float)
    return tau * float(m @ K @ m)


# ---------------------------------------------------------------------------
# conservation / dissipation residuals
# ---------------------------------------------------------------------------

def collision_moment_check(f, law, kernel, quad=None):
    """Residuals of integral Q(f,f) psi dv for psi in {1, v, |v|^2}.

    Gain moments come from the weak form, loss moments from the loss
    integral on the grid, so each residual compares two independent
    quadratures. The energy residual adds D(f) back and should vanish.
    """
    quad = quad or QuadratureSpec()
    dim = f.dim
    psis = [TestFunction.one()] + [TestFunction.component(i) for i in range(dim)] + [
        TestFunction.speed_squared()
    ]
    gains = weak_moments(f, f, psis, law, kernel, quad)

    lr = loss_rate(f, f.nodes)
    wloss = f.quad_weights * f._flat * lr
    loss_mass = float(np.sum(wloss))
    loss_mom = np.array([float(np.sum(wloss * f.nodes[:, i])) for i in range(dim)])
    loss_en = float(np.sum(wloss * np.sum(f.nodes**2, axis=1)))

    d_val = dissipation(f, law, kernel)
    mass_res = gains[0] - loss_mass
    mom_res = np.array(gains[1 : 1 + dim]) - loss_mom
    energy_res = (gains[1 + dim] - loss_en) + d_val
    return {
        "mass_residual": mass_res,
        "mass_relative": mass_res / max(loss_mass, 1e-300),
        "momentum_residual": mom_res.tolist(),
        "energy_residual": energy_res,
        "dissipation": d_val,
        "energy_relative": energy_res / max(abs(d_val), 1e-300),
        "gain_mass": gains[0],
        "loss_mass": loss_mass,
    }


# ---------------------------------------------------------------------------
# spreading support of the gain term
# ---------------------------------------------------------------------------

def spreading_support(law, kernel, quad=None, dim=3, threshold=1e-5, n_bins=400):
    """Support radius of Q^+(1_B, 1_B) for the unit ball B.

    Bins |v'| over a deterministic quadrature of the weak-form
    pushforward and returns the largest radius where the radial density
    exceeds `threshold` times its near-origin value. The radius must
    exceed sqrt(5)/2 and approaches sqrt(1 + ((1+e)/2)^2).

    The density vanishes like a power of the distance to the true
    support edge (the extremal configurations are measure-thin), so the
    detection threshold must sit well below the core density; 1e-5
    recovers the edge to about 1% at the default orders.
    """
    quad = quad or QuadratureSpec()
    nr = max(24, quad.radial_order // 2)
    r_nodes, r_w = gauss_legendre(nr, 0.0, 1.0)
    rs_nodes, rs_w = gauss_legendre(nr, 0.0, 1.0)
    sig, w_sig = sphere_surface_nodes(dim, max(16, quad.angular_order // 2))

    if dim == 3:
        cg, wg = gauss_legendre(max(16, quad.angular_order // 2), -1.0, 1.0)
        sg = np.sqrt(np.clip(1.0 - cg**2, 0.0, None))
        dir_star = np.stack([sg, np.zeros_like(sg), cg], axis=1)
        w_dir = 2.0 * math.pi * wg  # azimuth of v_star integrated out
        e_axis = np.array([0.0, 0.0, 1.0])
        shell = sphere_area(dim)
    elif dim == 2:
        gam, wgam = gauss_legendre(max(16, quad.angular_order // 2), 0.0, math.pi)
        dir_star = np.stack([np.cos(gam), np.sin(gam)], axis=1)
        w_dir = 2.0 * wgam  # reflection symmetry about the v axis
        e_axis = np.array([1.0, 0.0])
        shell = sphere_area(dim)
    else:
        raise NotImplementedError("spreading support implemented for dim 2 and 3")

    edges = np.linspace(0.0, 2.0, n_bins + 1)
    hist = np.zeros(n_bins)

    for r, wr in zip(r_nodes, r_w):
        v = r * e_axis
        for rs, wrs in zip(rs_nodes, rs_w):
            vstar = rs * dir_star  # (Md, N)
            u = v[None, :] - vstar
            ru = np.linalg.norm(u, axis=1)
            mid = 0.5 * (v[None, :] + vstar)
            inv_ru = np.where(ru > 0.0, 1.0 / np.where(ru > 0.0, ru, 1.0), 0.0)
            cosv = (u @ sig.T) * inv_ru[:, None]  # (Md, Ms)
            bv = kernel(cosv)
            vprime = (
                mid[:, None, :]
                + 0.25 * (1.0 - law.e) * u[:, None, :]
                + 0.25 * (1.0 + law.e) * ru[:, None, None] * sig[None, :, :]
            )
            speeds = np.linalg.norm(vprime, axis=2).ravel()
            wcomb = (
                wr * shell * r ** (dim - 1)
                * wrs * rs ** (dim - 1)
                * (w_dir[:, None] * w_sig[None, :] * bv * ru[:, None])
            ).ravel()
            idx = np.clip(np.searchsorted(edges, speeds, side="right") - 1, 0, n_bins - 1)
            hist += np.bincount(idx, weights=wcomb, minlength=n_bins)

    vol = (edges[1:] ** dim - edges[:-1] ** dim) * sphere_area(dim) / dim
    density = hist / vol
    centers = 0.5 * (edges[1:] + edges[:-1])
    # reference core density; skip the innermost shells, whose tiny
    # volumes make the node-to-bin assignment noisy
    ref_mask = (centers >= 0.1) & (centers <= 0.4) & (density > 0)
    ref = float(np.mean(density[ref_mask]))
    above = density > threshold * ref
    radius = float(centers[above][-1]) if np.any(above) else 0.0
    return radius, centers, density
