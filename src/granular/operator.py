"""Deterministic evaluation of the collision operator on velocity grids.

The gain term is evaluated in three independent representations that
must agree for smooth inputs:

  * direct: integral over (v_star, sigma) of 'f 'g_star / e^2 |u| b,
    with pre-collisional velocities ('v, 'v_star);
  * weak: moments against psi in {1, v_i, |v|^2} via the
    post-collisional velocity v', valid for every e in [0, 1], summed
    over grid pairs as FFT cross-correlations on the difference grid;
  * hyperplane (Carleman-type): outer integral over 'v and inner
    integral over 'v_star on the hyperplane orthogonal to v - 'v
    through Omega(v,'v) = (2 - 1/beta) v + (1/beta - 1) 'v, with
    prefactor 2^(N-1) / (beta^(N-1) e^2). In dimension 3 this form
    stays finite at e = 0, where Omega = 2v - 'v.

The dissipation functional is the same kind of pair sum. These
evaluators are the cross-validation oracles for the particle
simulator; they are not meant as a production PDE solver.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import tau_of
from .quadrature import gauss_legendre, sphere_area, sphere_surface_nodes

__all__ = [
    "DensityGrid",
    "QuadratureSpec",
    "TestFunction",
    "loss_rate",
    "q_minus",
    "q_plus_direct",
    "q_plus_carleman",
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
        base = i0 @ self._strides
        acc = np.zeros(len(p))
        for corner in range(1 << self.dim):
            # the upper node along axis ax when bit ax is set; the weight
            # multiplies the per-axis factors in axis order
            bits = [(corner >> ax) & 1 for ax in range(self.dim)]
            w = f[:, 0] if bits[0] else 1.0 - f[:, 0]
            for ax in range(1, self.dim):
                w = w * (f[:, ax] if bits[ax] else 1.0 - f[:, ax])
            acc += w * self._flat[base + np.dot(bits, self._strides)]
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

    v may be a single vector or an (m, N) array of probe velocities;
    probes are evaluated in blocks of about _CHUNK quadrature points,
    each with the same arithmetic as a single-probe call.

    Rejected at e = 0, where the pair map degenerates (u' -> u/2 +
    |u| sigma/2 no longer separates pre- from post-collisional data in
    the strong sense); use the hyperplane representation in dimension 3.
    """
    if law.e <= 0.0:
        raise ValueError("direct gain form not defined at e = 0")
    quad = quad or QuadratureSpec()
    dim = f.dim
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    probes = v[None, :] if single else v

    rmax = math.sqrt(dim) * (f.extent + g.extent)
    r_nodes, r_w = gauss_legendre(quad.radial_order, 0.0, rmax)
    uhat, w_u = sphere_surface_nodes(dim, quad.angular_order)
    sig, w_s = sphere_surface_nodes(dim, quad.angular_order)
    bmat = kernel(uhat @ sig.T)  # (Mu, Ms)
    ws_b = (bmat * w_u[:, None] * w_s[None, :]).ravel()

    total = np.zeros(len(probes))
    block = max(1, _CHUNK // ws_b.size)
    for s in range(0, len(probes), block):
        p = probes[s : s + block, None, None, :]
        for r, wr in zip(r_nodes, r_w):
            u = r * uhat  # (Mu, N)
            # w = v + (u - u')/2 with u' = (1-e)/2 u + (1+e)/2 r sigma
            half_diff = 0.25 * (1.0 + law.e) * (u[:, None, :] - r * sig[None, :, :])
            w_pair = p + half_diff
            vals = f.interp(w_pair.reshape(-1, dim)) * g.interp(
                (w_pair - u[:, None, :]).reshape(-1, dim)
            )
            inner = np.sum(ws_b * vals.reshape(len(p), -1), axis=1)
            total[s : s + block] += wr * r**dim * inner  # r^{N-1} volume factor times |u| = r
    return total[0] if single else total


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
        cosv = 1.0 - x_coef * dot / ru2
        kern = kernel(cosv) if dim == 3 else ru2 ** (0.5 * (3 - dim)) * kernel(cosv)
        inner = np.sum(in_w[sl] * g_vals * kern, axis=1)
        total += np.sum(ww[sl] * rr[sl] ** (dim - 2) * f_vals[sl] * inner)
    return pref * total


# ---------------------------------------------------------------------------
# global pair sums as correlations over the difference grid
# ---------------------------------------------------------------------------

def _require_one_grid(f, g):
    if (f.dim, f.n, f.extent) != (g.dim, g.n, g.extent):
        raise ValueError("f and g must be on one grid (same dim, n and extent)")


def _grid_weights(grid):
    return (grid.quad_weights * grid._flat).reshape(grid.values.shape)


def _correlate(a, b):
    """Cross-correlations c(k) = sum_j a[j + k] b[j] of an n^N array a
    with each n^N array stacked in b (leading axes), over the (2n-1)^N
    offsets k: real FFTs zero-padded to 2n-1 per axis, so offsets
    0..n-1 then -(n-1)..-1 along each axis, raveled in C order."""
    axes = tuple(range(-a.ndim, 0))
    shape = tuple(2 * m - 1 for m in a.shape)
    spec = np.fft.rfftn(a, s=shape, axes=axes) * np.conj(np.fft.rfftn(b, s=shape, axes=axes))
    corr = np.fft.irfftn(spec, s=shape, axes=axes)
    return corr.reshape(corr.shape[: corr.ndim - a.ndim] + (-1,))


def _offsets(grid):
    """Pair differences x_i - y_j, one row per entry of _correlate."""
    n = grid.n
    k = grid.h * np.concatenate((np.arange(n), np.arange(1 - n, 0)))
    mesh = np.meshgrid(*([k] * grid.dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _angular_factors(d, sig, w_s, kernel):
    """S0(d) = |d| sum_k w_k b(d_hat.sigma_k) and S1(d) = |d|^2 sum_k
    w_k b(d_hat.sigma_k) sigma_k at each offset row d; both vanish at
    d = 0."""
    r = np.linalg.norm(d, axis=1)
    inv_r = np.where(r > 0.0, 1.0 / np.where(r > 0.0, r, 1.0), 0.0)
    wb = kernel((d @ sig.T) * inv_r[:, None]) * w_s  # (offsets, K)
    return r * np.sum(wb, axis=1), (r**2)[:, None] * (wb @ sig)


# ---------------------------------------------------------------------------
# weak form
# ---------------------------------------------------------------------------

def weak_moments(f, g, psis, law, kernel, quad=None):
    """Integrals of Q^+(g, f) against several test functions at once,
    by the post-collisional weak form (valid for every e in [0, 1]):

        sum_{i,j} wf_i wg_j |u| sum_k w_k b(u_hat.sigma_k) psi(v'),
        u = x_i - y_j,  v' = y_j + (3-e)/4 u + (1+e)/4 |u| sigma_k,

    with f at v = x_i and g at v_star = y_j, the grids' own nodes and
    trapezoid weights, and a sphere rule for sigma. Returns a list of
    floats matching psis.

    f and g must be on one grid (same dim, n and extent), so every u
    lies on the (2n-1)^N difference lattice; the sum is then a few FFT
    cross-correlations of wf with wg, wg y_m and wg |y|^2 times
    per-offset angular factors. That covers psi of degree <= 2 in v',
    taken by tag: 1, v_i and |v|^2. Anything else raises ValueError.
    """
    _require_one_grid(f, g)
    quad = quad or QuadratureSpec()
    dim = f.dim
    comps = {f"component_{i}": i for i in range(dim)}
    bad = [psi.tag for psi in psis if psi.tag not in ("one", "speed_squared", *comps)]
    if bad:
        raise ValueError(f"weak_moments takes the test functions one, component_i "
                         f"(i < {dim}) and speed_squared; got {bad}")
    sig, w_s = sphere_surface_nodes(dim, quad.angular_order)

    wg = _grid_weights(g)
    y = g.nodes.T.reshape((dim,) + wg.shape)
    corr = _correlate(_grid_weights(f), np.stack([wg, *(wg * y), wg * np.sum(y * y, axis=0)]))
    c0, cy, cyy = corr[0], corr[1 : 1 + dim].T, corr[1 + dim]
    d = _offsets(f)
    s0, s1 = _angular_factors(d, sig, w_s, kernel)

    alpha = 0.25 * (3.0 - law.e)
    c = 0.25 * (1.0 + law.e)
    # pair sums of y + alpha d, the part of v' that does not depend on sigma
    lin = cy + alpha * d * c0[:, None]
    out = []
    for psi in psis:
        if psi.tag == "one":
            val = s0 @ c0
        elif psi.tag == "speed_squared":
            quadratic = cyy + 2.0 * alpha * np.sum(d * cy, axis=1) + (
                (alpha**2 + c**2) * np.sum(d * d, axis=1) * c0
            )
            val = s0 @ quadratic + 2.0 * c * np.sum(s1 * lin)
        else:
            i = comps[psi.tag]
            val = s0 @ lin[:, i] + c * (s1[:, i] @ c0)
        out.append(float(val))
    return out


# ---------------------------------------------------------------------------
# dissipation functional
# ---------------------------------------------------------------------------

def dissipation(f, law, kernel, g=None):
    """D(f) = tau * iint f f_star |u|^3, tau = m_b (1 - e^2)/4, as
    tau * sum_d |d|^3 (wf correlated with wg)(d) over the difference
    grid; g (default f) must be on f's grid."""
    g = f if g is None else g
    _require_one_grid(f, g)
    tau = tau_of(kernel, law)
    if tau == 0.0:
        return 0.0
    c0 = _correlate(_grid_weights(f), _grid_weights(g))
    return tau * float(np.linalg.norm(_offsets(f), axis=1) ** 3 @ c0)


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
    tau = tau_of(kernel, law)
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
