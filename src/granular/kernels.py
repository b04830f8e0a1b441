"""Collision kinematics and kernel data for inelastic hard spheres.

A binary collision with constant normal restitution e maps velocities
(v, v_star) and a scattering direction sigma on the unit sphere to

    v' = (v + v_star)/2 + u'/2,   v_star' = (v + v_star)/2 - u'/2,
    u' = (1-e)/2 u + (1+e)/2 |u| sigma,     u = v - v_star.

Pre-collisional velocities ('v, 'v_star) leading to (v, v_star) use the
inverse transformation with beta = (e+1)/(2e):

    'u = (1-beta) u + beta |u| sigma,

which is singular at e = 0. Scattering directions are distributed with
density b(u_hat.sigma) on the sphere, normalized so that the integral
of b over the sphere equals one; the angular momentum

    m_b = integral (1 - u_hat.sigma)/2 b(u_hat.sigma) dsigma

sets the inelasticity coefficient tau = m_b (1 - e^2)/4 that controls
energy dissipation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import cos_theta_quadrature, cos_theta_quadrature_segmented

__all__ = [
    "RestitutionLaw",
    "AngularKernel",
    "make_kernel",
    "isotropic_kernel",
    "beta_of",
    "post_collisional",
    "pre_collisional",
    "delta_energy",
    "inverse_sigma",
    "tau_of",
    "sample_sigma",
]

DEFAULT_COS_ORDER = 64


@dataclass(frozen=True)
class RestitutionLaw:
    """Constant normal restitution coefficient e in [0, 1]."""

    e: float

    def __post_init__(self):
        if not 0.0 <= self.e <= 1.0:
            raise ValueError(f"restitution out of [0,1]: {self.e}")


def beta_of(law):
    if law.e <= 0.0:
        raise ValueError("beta = (e+1)/(2e) is singular at e = 0")
    return (law.e + 1.0) / (2.0 * law.e)


@dataclass(frozen=True)
class AngularKernel:
    """Normalized angular cross-section b on [-1, 1].

    func evaluates b pointwise (vectorized), after rescaling to unit
    integral over the sphere. b0/b1 are the observed min/max on a dense
    sample grid, mb the angular momentum. Calling the kernel clips its
    argument to [-1, 1], where a computed u_hat.sigma can round past
    +-1 and a power kernel would give nan.
    """

    func: object
    b0: float
    b1: float
    mb: float
    kind: str

    def __call__(self, x):
        return self.func(np.clip(np.asarray(x, dtype=float), -1.0, 1.0))

    @property
    def is_isotropic(self):
        return self.kind == "isotropic"


def _raw_kernel_func(spec):
    kind = spec.get("kind")
    if kind == "isotropic":
        return (lambda x: np.ones_like(np.asarray(x, dtype=float))), "isotropic", None
    if kind == "power":
        p = float(spec["exponent"])

        def power_fn(x, _p=p):
            with np.errstate(divide="ignore"):
                return (1.0 - np.asarray(x, dtype=float)) ** (-_p)

        return power_fn, "power", None
    if kind == "tabulated":
        xs = np.asarray(spec["cos_theta"], dtype=float)
        ys = np.asarray(spec["values"], dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
            raise ValueError("tabulated kernel needs matching 1-D cos_theta/values")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("tabulated cos_theta grid must be strictly increasing")
        if np.any(ys < 0):
            raise ValueError("tabulated kernel values must be nonnegative")
        lo, hi = ys[0], ys[-1]
        f = lambda x: np.interp(np.asarray(x, dtype=float), xs, ys, left=lo, right=hi)
        return f, "tabulated", xs
    if kind == "callable":
        return spec["func"], "callable", None
    raise ValueError(f"unknown kernel kind: {kind!r}")


def make_kernel(spec, dim, order=DEFAULT_COS_ORDER):
    """Build a normalized AngularKernel from a config-style spec dict.

    The raw function is rescaled so that its integral over S^{dim-1}
    equals one.
    """
    if dim < 2:
        raise ValueError("velocity dimension must be >= 2")
    raw, kind, x_breaks = _raw_kernel_func(spec)
    if x_breaks is not None:
        x, w = cos_theta_quadrature_segmented(dim, order, x_breaks)
    else:
        x, w = cos_theta_quadrature(dim, order)
    raw_norm = float(np.sum(w * raw(x)))
    if not math.isfinite(raw_norm) or raw_norm <= 0:
        raise ValueError("kernel does not integrate to a positive finite value")

    def func(y, _raw=raw, _f=1.0 / raw_norm):
        return _f * _raw(y)

    sample = np.linspace(-1.0, 1.0, 4097)
    vals = func(sample)
    b0 = float(np.min(vals))
    b1 = float(np.max(vals))
    if not math.isfinite(b1):
        raise ValueError("kernel unbounded on [-1,1]; violates the cutoff bound")
    mb = float(np.sum(w * 0.5 * (1.0 - x) * func(x)))
    return AngularKernel(func=func, b0=b0, b1=b1, mb=mb, kind=kind)


def isotropic_kernel(dim, order=DEFAULT_COS_ORDER):
    return make_kernel({"kind": "isotropic"}, dim, order=order)


# ---------------------------------------------------------------------------
# collision maps
# ---------------------------------------------------------------------------

def _split(v, v_star):
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    mid = 0.5 * (v + v_star)
    u = v - v_star
    return mid, u


def _sumsq(x):
    """Sum of x**2 over the last axis (of length N >= 2), adding the
    squared components left to right. numpy reduces so short an axis in
    the same order, so this equals np.sum(x * x, axis=-1) bit for bit
    and its square root equals np.linalg.norm(x, axis=-1); it skips
    their reduction set-up, which dominates on the short arrays of one
    DSMC step."""
    sq = x * x
    s = sq[..., 0] + sq[..., 1]
    for k in range(2, x.shape[-1]):
        s += sq[..., k]
    return s


def _norm(u):
    """|u| over the last axis, keeping the axis. Squaring u underflows
    below |u| ~ 1e-154; only there is u rescaled by its largest
    component first."""
    ru = np.sqrt(_sumsq(u))[..., None]
    tiny = ru < 1e-150
    if np.count_nonzero(tiny):
        big = np.max(np.abs(u), axis=-1, keepdims=True)
        big = np.where(big > 0.0, big, 1.0)
        ru = np.where(tiny, big * np.sqrt(_sumsq(u / big))[..., None], ru)
    return ru


def post_collisional(v, v_star, sigma, law):
    """Post-collisional velocities; valid for every e in [0, 1].

    Accepts single vectors or arrays with trailing axis of dimension N.
    A vanishing relative velocity leaves the pair unchanged.
    """
    mid, u = _split(v, v_star)
    sigma = np.asarray(sigma, dtype=float)
    ru = _norm(u)
    half = 0.5 * (0.5 * (1.0 - law.e) * u + 0.5 * (1.0 + law.e) * ru * sigma)  # u'/2
    return mid + half, mid - half


def pre_collisional(v, v_star, sigma, law):
    """Pre-collisional velocities leading to (v, v_star); needs e > 0.

    The pre-collisional relative speed is never smaller than |u|.
    """
    beta = beta_of(law)
    mid, u = _split(v, v_star)
    sigma = np.asarray(sigma, dtype=float)
    ru = _norm(u)
    u_pre = (1.0 - beta) * u + beta * ru * sigma
    return mid + 0.5 * u_pre, mid - 0.5 * u_pre


def delta_energy(v, v_star, sigma, law):
    """Kinetic-energy change |v'|^2 + |v_star'|^2 - |v|^2 - |v_star|^2.

    Computed directly from the post-collisional map; always <= 0, with
    equality iff e = 1, sigma = u_hat, or u = 0.
    """
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    vp, vsp = post_collisional(v, v_star, sigma, law)
    return (
        np.sum(vp * vp, axis=-1) + np.sum(vsp * vsp, axis=-1)
        - np.sum(v * v, axis=-1) - np.sum(v_star * v_star, axis=-1)
    )


def inverse_sigma(v, v_star, sigma, law):
    """Direction sigma' with post_collisional(pre_collisional(v, v_star,
    sigma), sigma') == (v, v_star); equals normalize((1+e) u_hat - (1-e) sigma).
    """
    _, u = _split(v, v_star)
    sigma = np.asarray(sigma, dtype=float)
    ru = _norm(u)
    ru = np.where(ru > 0.0, ru, 1.0)
    s = (1.0 + law.e) * u / ru - (1.0 - law.e) * sigma
    return s / np.linalg.norm(s, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# inelasticity, sampling
# ---------------------------------------------------------------------------

def tau_of(kernel, law):
    """Inelasticity coefficient tau = m_b (1 - e^2) / 4."""
    return kernel.mb * (1.0 - law.e**2) / 4.0


def uniform_sphere(rng, n, dim):
    z = rng.normal(size=(n, dim))
    norms = np.sqrt(_sumsq(z))
    # resample the (measure-zero) degenerate rows
    while np.count_nonzero(norms) < n:
        bad = norms == 0.0
        z[bad] = rng.normal(size=(int(bad.sum()), dim))
        norms = np.sqrt(_sumsq(z))
    return z / norms[:, None]


def sample_sigma(rng, u_hat, kernel, max_iter=10000):
    """Draw sigma with density b(u_hat.sigma) on the sphere.

    Rejection against the uniform sphere with bound b1; the cutoff
    bounds guarantee an acceptance ratio >= b0/b1. Vectorized over rows
    of u_hat (shape (m, N) or (N,)).
    """
    u_hat = np.asarray(u_hat, dtype=float)
    single = u_hat.ndim == 1
    uh = u_hat[None, :] if single else u_hat
    m, dim = uh.shape
    if kernel.is_isotropic:
        out = uniform_sphere(rng, m, dim)
        return out[0] if single else out
    out = np.empty_like(uh)
    pending = np.arange(m)
    for _ in range(max_iter):
        cand = uniform_sphere(rng, len(pending), dim)
        cosv = np.sum(uh[pending] * cand, axis=1)
        accept = rng.random(len(pending)) * kernel.b1 <= kernel(cosv)
        out[pending[accept]] = cand[accept]
        pending = pending[~accept]
        if len(pending) == 0:
            return out[0] if single else out
    raise RuntimeError(
        f"sigma rejection sampling did not terminate within {max_iter} rounds "
        f"(b0={kernel.b0:.3g}, b1={kernel.b1:.3g})"
    )

