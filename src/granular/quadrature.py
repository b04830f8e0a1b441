"""Quadrature helpers shared by the kernel and operator modules.

Angular integrals over the unit sphere S^{N-1} are reduced either to a
1-D integral in the polar angle (for integrands depending only on
u_hat.sigma) or to a full set of surface nodes (polar x azimuth for
N=3, uniform angles for N=2).
"""

import math

import numpy as np

__all__ = [
    "gauss_legendre",
    "sphere_area",
    "cos_theta_quadrature",
    "cos_theta_quadrature_segmented",
    "sphere_surface_nodes",
]


def gauss_legendre(order, a=-1.0, b=1.0):
    """Gauss-Legendre nodes/weights mapped to the interval [a, b]."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(int(order))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def sphere_area(d):
    """Surface area of the unit sphere S^{d-1} embedded in R^d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def cos_theta_quadrature(dim, order):
    """Nodes x_i = cos(theta_i) and weights w_i such that for any F,

        integral_{S^{dim-1}} F(u_hat . sigma) dsigma  ~=  sum_i w_i F(x_i).

    The quadrature is Gauss-Legendre in the polar angle theta, which
    absorbs the surface weight sin^{dim-2}(theta) smoothly for every
    dim >= 2 (in particular dim=2, where the weight is singular in the
    cos(theta) variable).
    """
    if dim < 2:
        raise ValueError("velocity dimension must be >= 2")
    theta, w_theta = gauss_legendre(order, 0.0, math.pi)
    x = np.cos(theta)
    w = sphere_area(dim - 1) * np.sin(theta) ** (dim - 2) * w_theta
    return x, w


def cos_theta_quadrature_segmented(dim, order, x_breaks):
    """Composite version of cos_theta_quadrature splitting the polar
    integral at the cos(theta) values in x_breaks (for piecewise-smooth
    kernels such as tabulated ones)."""
    breaks = np.unique(np.clip(np.asarray(x_breaks, dtype=float), -1.0, 1.0))
    theta_breaks = np.sort(np.arccos(breaks))
    edges = np.concatenate(([0.0], theta_breaks, [math.pi]))
    edges = np.unique(edges)
    per_seg = max(4, int(math.ceil(order / max(1, len(edges) - 1))))
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 1e-15:
            continue
        theta, w_theta = gauss_legendre(per_seg, a, b)
        xs.append(np.cos(theta))
        ws.append(sphere_area(dim - 1) * np.sin(theta) ** (dim - 2) * w_theta)
    return np.concatenate(xs), np.concatenate(ws)


def sphere_surface_nodes(dim, polar_order):
    """Full surface nodes (M, dim) and weights (M,) for S^{dim-1}.

    dim=2 uses a uniform (trapezoidal, spectrally accurate) angle grid;
    dim=3 uses Gauss-Legendre in cos(theta) times 2 polar_order azimuths.
    Deterministic operator evaluation is only supported for dim in
    {2, 3}; higher dimensions raise.
    """
    if dim == 2:
        m = int(polar_order)
        ang = 2.0 * math.pi * np.arange(m) / m
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        weights = np.full(m, 2.0 * math.pi / m)
        return nodes, weights
    if dim == 3:
        azimuth_order = 2 * int(polar_order)
        ct, w_ct = gauss_legendre(polar_order, -1.0, 1.0)
        st = np.sqrt(np.clip(1.0 - ct**2, 0.0, None))
        phi = 2.0 * math.pi * np.arange(azimuth_order) / azimuth_order
        w_phi = 2.0 * math.pi / azimuth_order
        cp, sp = np.cos(phi), np.sin(phi)
        nodes = np.empty((len(ct) * len(phi), 3))
        nodes[:, 0] = np.outer(st, cp).ravel()
        nodes[:, 1] = np.outer(st, sp).ravel()
        nodes[:, 2] = np.repeat(ct, len(phi))
        weights = np.repeat(w_ct * w_phi, len(phi))
        return nodes, weights
    raise NotImplementedError(
        "deterministic sphere quadrature implemented for dim 2 and 3 only"
    )
