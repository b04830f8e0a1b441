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
from dataclasses import dataclass, field

import numpy as np

from .quadrature import cos_theta_quadrature, cos_theta_quadrature_segmented

__all__ = [
    "RestitutionLaw",
    "AngularKernel",
    "KernelReport",
    "make_kernel",
    "isotropic_kernel",
    "kernel_cos_quadrature",
    "beta_of",
    "post_collisional",
    "pre_collisional",
    "delta_energy",
    "delta_energy_closed",
    "inverse_sigma",
    "angular_momentum_mb",
    "tau_of",
    "sample_sigma",
    "validate_kernel",
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
    sample grid, mb the angular momentum, dim the velocity dimension
    the normalization refers to.
    """

    func: object
    dim: int
    b0: float
    b1: float
    mb: float
    kind: str
    norm_factor: float = 1.0
    meta: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.func(np.asarray(x, dtype=float))

    @property
    def is_isotropic(self):
        return self.kind == "isotropic"


@dataclass
class KernelReport:
    ok: bool
    errors: list
    warnings: list
    norm_residual: float
    b0: float
    b1: float
    mb: float


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


def kernel_cos_quadrature(kernel, order, dim=None):
    """Polar-angle quadrature adapted to the kernel: composite at the
    table breakpoints for tabulated kernels, plain Gauss-Legendre
    otherwise."""
    dim = kernel.dim if dim is None else dim
    breaks = kernel.meta.get("x_breaks")
    if breaks is not None:
        return cos_theta_quadrature_segmented(dim, order, breaks)
    return cos_theta_quadrature(dim, order)


def make_kernel(spec, dim, order=DEFAULT_COS_ORDER):
    """Build a normalized AngularKernel from a config-style spec dict.

    The raw function is rescaled so that its integral over S^{dim-1}
    equals one; the applied factor is kept in norm_factor.
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
    factor = 1.0 / raw_norm

    def func(y, _raw=raw, _f=factor):
        return _f * _raw(y)

    sample = np.linspace(-1.0, 1.0, 4097)
    vals = func(sample)
    b0 = float(np.min(vals))
    b1 = float(np.max(vals))
    if not math.isfinite(b1):
        raise ValueError("kernel unbounded on [-1,1]; violates the cutoff bound")
    mb = float(np.sum(w * 0.5 * (1.0 - x) * func(x)))
    meta = {"order": order, "spec": {k: v for k, v in spec.items() if k != "func"}}
    if x_breaks is not None:
        meta["x_breaks"] = x_breaks
    return AngularKernel(
        func=func, dim=dim, b0=b0, b1=b1, mb=mb, kind=kind,
        norm_factor=factor, meta=meta,
    )


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


def post_collisional(v, v_star, sigma, law):
    """Post-collisional velocities; valid for every e in [0, 1].

    Accepts single vectors or arrays with trailing axis of dimension N.
    A vanishing relative velocity leaves the pair unchanged.
    """
    mid, u = _split(v, v_star)
    sigma = np.asarray(sigma, dtype=float)
    ru = np.linalg.norm(u, axis=-1, keepdims=True)
    u_prime = 0.5 * (1.0 - law.e) * u + 0.5 * (1.0 + law.e) * ru * sigma
    return mid + 0.5 * u_prime, mid - 0.5 * u_prime


def pre_collisional(v, v_star, sigma, law):
    """Pre-collisional velocities leading to (v, v_star); needs e > 0.

    The pre-collisional relative speed is never smaller than |u|.
    """
    beta = beta_of(law)
    mid, u = _split(v, v_star)
    sigma = np.asarray(sigma, dtype=float)
    ru = np.linalg.norm(u, axis=-1, keepdims=True)
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


def delta_energy_closed(v, v_star, sigma, law):
    """Closed form -(1-e^2)/4 |u|^2 (1 - u_hat.sigma) of the energy loss.

    Validated against delta_energy in the test suite; u = 0 gives 0.
    """
    _, u = _split(v, v_star)
    sigma = np.asarray(sigma, dtype=float)
    ru2 = np.sum(u * u, axis=-1)
    udots = np.sum(u * sigma, axis=-1)
    ru = np.sqrt(ru2)
    # 1 - u_hat.sigma, with the u = 0 event mapping to zero loss
    one_minus = np.where(ru > 0.0, 1.0 - udots / np.where(ru > 0.0, ru, 1.0), 0.0)
    return -0.25 * (1.0 - law.e**2) * ru2 * one_minus


def inverse_sigma(v, v_star, sigma, law):
    """Direction sigma' with post_collisional(pre_collisional(v, v_star,
    sigma), sigma') == (v, v_star); equals normalize((1+e) u_hat - (1-e) sigma).
    """
    _, u = _split(v, v_star)
    sigma = np.asarray(sigma, dtype=float)
    ru = np.linalg.norm(u, axis=-1, keepdims=True)
    ru = np.where(ru > 0.0, ru, 1.0)
    s = (1.0 + law.e) * u / ru - (1.0 - law.e) * sigma
    return s / np.linalg.norm(s, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# angular momentum, inelasticity, sampling
# ---------------------------------------------------------------------------

def angular_momentum_mb(kernel, dim=None, order=DEFAULT_COS_ORDER):
    """m_b by 1-D quadrature in the polar angle, with an error estimate
    from comparing against the doubled order. Raises if the estimate
    stays above 1e-6 relative (tabulated kernels have kinks; closed
    forms converge spectrally).
    """
    dim = kernel.dim if dim is None else dim
    vals = []
    for n in (order, 2 * order):
        x, w = kernel_cos_quadrature(kernel, n, dim)
        vals.append(float(np.sum(w * 0.5 * (1.0 - x) * kernel(x))))
    err = abs(vals[1] - vals[0])
    if err > 1e-6 * max(1.0, abs(vals[1])):
        raise ArithmeticError(
            f"m_b quadrature did not converge: estimate {vals[1]:.8g}, error {err:.2g}"
        )
    return vals[1]


def tau_of(kernel, law):
    """Inelasticity coefficient tau = m_b (1 - e^2) / 4."""
    return kernel.mb * (1.0 - law.e**2) / 4.0


def uniform_sphere(rng, n, dim):
    z = rng.normal(size=(n, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    # resample the (measure-zero) degenerate rows
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        z[bad] = rng.normal(size=(int(bad.sum()), dim))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
    return z / norms


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
    out = np.empty_like(uh)
    pending = np.arange(m)
    if kernel.is_isotropic:
        out[:] = uniform_sphere(rng, m, dim)
        return out[0] if single else out
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


def validate_kernel(kernel, dim=None, sample_points=2001):
    """Check bounds, unit normalization, and (as a warning) the
    monotone-convexity hypothesis of the theory.

    Normalization failure and bound violations are fatal; convexity is
    a hypothesis of the analysis, not of the simulation, so it only
    warns. A vanishing lower bound b0 is likewise reported as a
    warning: the kernel stays usable but the theory hypotheses fail.
    """
    dim = kernel.dim if dim is None else dim
    errors, warnings = [], []

    x = np.linspace(-1.0, 1.0, sample_points)
    vals = kernel(x)
    tol = 1e-12 * max(1.0, kernel.b1)
    if np.any(vals < kernel.b0 - tol) or np.any(vals > kernel.b1 + tol):
        errors.append("kernel leaves its declared [b0, b1] bounds on the sample grid")
    if np.any(vals < 0):
        errors.append("kernel takes negative values")
    if kernel.b0 <= 0:
        warnings.append("lower bound b0 = 0: cutoff hypothesis b0 > 0 violated")

    norm_tol = 1e-10 if kernel.kind in ("isotropic", "power", "callable") else 1e-6
    order = kernel.meta.get("order", DEFAULT_COS_ORDER)
    xq, wq = kernel_cos_quadrature(kernel, 2 * order, dim)
    norm = float(np.sum(wq * kernel(xq)))
    norm_residual = abs(norm - 1.0)
    if norm_residual > norm_tol:
        errors.append(
            f"normalization residual {norm_residual:.3g} exceeds tolerance {norm_tol:g}"
        )

    d1 = np.diff(vals)
    d2 = np.diff(vals, 2)
    slack = 1e-9 * max(1.0, kernel.b1)
    if np.any(d1 < -slack):
        warnings.append("kernel is not nondecreasing (theory hypothesis, warning only)")
    if np.any(d2 < -slack * 4):
        warnings.append("kernel is not convex (theory hypothesis, warning only)")

    return KernelReport(
        ok=not errors,
        errors=errors,
        warnings=warnings,
        norm_residual=norm_residual,
        b0=kernel.b0,
        b1=kernel.b1,
        mb=kernel.mb,
    )
