"""Exact changes of variables between original solutions f and
rescaled solutions g.

The rescaling runs at unit rate, the one the rescaled DSMC frame uses:

    K(t) = (1 + t)^N,   T(t) = ln(1 + t),   V(t) = 1 + t,

and g(T(t), w) is the law of V(t) v when v is distributed by f(t, .).
At the particle level both maps are exact velocity scalings, so moments
transfer as |.|^k norms times V^{+-k}.
"""

import math

import numpy as np

from .dsmc import FRAME_ORIGINAL, FRAME_RESCALED, ParticleEnsemble

__all__ = [
    "scaling_functions",
    "forward_map",
    "inverse_map",
    "transfer_moment_series",
]


def scaling_functions(t, dim=3):
    """(K, T, V) at original time t >= 0; K = V^N identically."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be >= 0")
    v = 1.0 + np.asarray(t, dtype=float)
    return v**dim, np.log(v), v


def forward_map(ens):
    """Original-frame ensemble at time t -> rescaled ensemble at
    tau = T(t): velocities scale by V(t), weights unchanged."""
    if ens.frame != FRAME_ORIGINAL:
        raise ValueError("forward_map expects an original-frame ensemble")
    _, tau, v_fac = scaling_functions(ens.time)
    out = ParticleEnsemble(
        ens.v * v_fac, ens.weight, FRAME_RESCALED, ens.rng, ens.u_max * v_fac, float(tau)
    )
    return out


def inverse_map(ens):
    """Rescaled ensemble at tau -> original ensemble at t with
    T(t) = tau, i.e. t = exp(tau) - 1; exact inverse of forward_map up
    to floating-point rounding."""
    if ens.frame != FRAME_RESCALED:
        raise ValueError("inverse_map expects a rescaled-frame ensemble")
    t = math.exp(ens.time) - 1.0
    v_fac = 1.0 + t  # = exp(tau)
    out = ParticleEnsemble(
        ens.v / v_fac, ens.weight, FRAME_ORIGINAL, ens.rng, ens.u_max / v_fac, t
    )
    return out


def transfer_moment_series(times, values, k, direction):
    """Transfer a |.|^k moment series between frames.

    direction "g2f": input sampled in rescaled time tau, output at
    t = exp(tau) - 1 with value * V^{-k}; "f2g" is the inverse.
    Returns (times in the other frame, transferred values, source times).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if direction == "g2f":
        t_nat = np.exp(times) - 1.0
        fac = (1.0 + t_nat) ** (-k)
    elif direction == "f2g":
        t_nat = np.log(1.0 + times)
        fac = (1.0 + times) ** k
    else:
        raise ValueError("direction must be 'g2f' or 'f2g'")
    return t_nat, values * fac, times
