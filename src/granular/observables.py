"""Moments, normalized moments, histograms, tail fits and the
empirical checks on runs: cooling exponents, rescaled energy bounds,
stability growth, positivity and spreading.

Radial histograms store the velocity-space density averaged over
shells (profiles of interest are radially symmetric), so a Maxwellian
appears as density ~ exp(-r^2/2T), not as the speed distribution.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import sphere_area

__all__ = [
    "VelocityHistogram",
    "TailFit",
    "moments",
    "normalized_moments",
    "invariant_set_check",
    "exponential_moment",
    "histogram_from_speeds",
    "equal_volume_edges",
    "tail_fit",
    "haff_fit",
    "energy_bounds_check",
    "stability_metric",
    "positivity_check",
    "l1_distance",
]

DEFAULT_MOMENT_ORDERS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)


@dataclass
class VelocityHistogram:
    """Radial (shell-averaged) velocity-space density. `mass` is the
    binned mass; `clipped` counts the speeds above the last edge, which
    no bin holds."""

    edges: np.ndarray
    density: np.ndarray
    counts: np.ndarray
    mass: float
    dim: int
    frame: str
    time: float
    clipped: int = 0

    @property
    def centers(self):
        return 0.5 * (self.edges[1:] + self.edges[:-1])

    @property
    def shell_volumes(self):
        d = self.dim
        return (self.edges[1:] ** d - self.edges[:-1] ** d) * sphere_area(d) / d

    @property
    def bin_masses(self):
        return self.density * self.shell_volumes

    def same_binning(self, other):
        return (
            self.dim == other.dim
            and len(self.edges) == len(other.edges)
            and np.allclose(self.edges, other.edges)
        )


@dataclass
class TailFit:
    s: float
    a1: float
    a2: float
    rms: float
    window: tuple
    candidates: dict  # s -> (a1, a2, rms, n_bins)
    n_bins: int


def _speeds_weights(obj):
    """(speeds, weights, dim) from an ensemble or histogram."""
    if isinstance(obj, VelocityHistogram):
        return obj.centers, obj.bin_masses, obj.dim
    v = obj.v
    return np.linalg.norm(v, axis=1), np.full(len(v), obj.weight), v.shape[1]


def moments(obj, orders=DEFAULT_MOMENT_ORDERS):
    """Mass, momentum and m_p = sum w |v|^{2p} for the given orders.

    Accepts a ParticleEnsemble or (with binning error) a radial
    VelocityHistogram.
    """
    if isinstance(obj, VelocityHistogram):
        r, w, _ = _speeds_weights(obj)
        out = {"mass": float(np.sum(w)), "momentum": None}
    else:
        r, w, _ = _speeds_weights(obj)
        out = {"mass": obj.mass, "momentum": obj.momentum}
    out["m"] = {float(p): float(np.sum(w * r ** (2.0 * p))) for p in orders}
    return out


def normalized_moments(m_table, a=2.0):
    """z_p = m_p / Gamma(a p + 1/2); geometric boundedness of z_p in p
    encodes an exponential tail of order 2/a."""
    if a < 2.0:
        raise ValueError("the scale parameter must satisfy a >= 2")
    return {
        p: np.asarray(m) / math.exp(math.lgamma(a * p + 0.5))
        for p, m in m_table.items()
    }


def invariant_set_check(z_table, x, times=None, t_start=None):
    """Check z_p(t) <= x^p for all orders and all recorded times at or
    after t_start; reports the first violation."""
    if x <= 0:
        raise ValueError("x must be positive")
    violations = []
    for p, z in sorted(z_table.items()):
        z = np.atleast_1d(z)
        tt = np.arange(len(z)) if times is None else np.asarray(times)
        mask = np.ones(len(z), dtype=bool) if t_start is None else tt >= t_start
        bad = np.where(mask & (z > x**p))[0]
        if len(bad):
            violations.append({"p": p, "t": float(tt[bad[0]]), "z": float(z[bad[0]]), "bound": x**p})
    return {"ok": not violations, "x": x, "violations": violations}


def exponential_moment(obj, r, s):
    """Weighted sum of exp(r |v|^s); flagged unreliable when the top 1%
    of particles carry more than half of it. Overflow returns +inf with
    the saturating speed."""
    if r <= 0 or not 0 < s <= 1:
        raise ValueError("need r > 0 and s in (0, 1]")
    speeds, w, _ = _speeds_weights(obj)
    expo = r * speeds**s
    if np.any(expo > 700):
        return {"value": math.inf, "reliable": False,
                "saturating_speed": float(speeds[np.argmax(expo)])}
    terms = w * np.exp(expo)
    total = float(terms.sum())
    k = max(1, int(0.01 * len(terms)))
    top = float(np.sort(terms)[-k:].sum())
    return {"value": total, "reliable": top <= 0.5 * total, "saturating_speed": None}


def equal_volume_edges(r_max, n_bins, dim):
    """Shell edges with equal velocity-space volume per bin (adequate
    expected counts in every shell, unlike uniform-radius bins whose
    innermost shells are vanishingly small)."""
    return r_max * (np.arange(n_bins + 1) / n_bins) ** (1.0 / dim)


def histogram_from_speeds(speeds, weights, dim, n_bins=64, r_max=None, frame="original",
                          time=0.0, edges=None):
    if edges is None and n_bins < 8:
        raise ValueError("need at least 8 bins")
    speeds = np.asarray(speeds, dtype=float)
    if len(speeds) == 0:
        raise ValueError("empty sample")
    if r_max is None:
        r_max = 1.02 * float(speeds.max())
    if edges is not None:
        edges = np.asarray(edges, dtype=float)
        n_bins = len(edges) - 1
        r_max = float(edges[-1])
    else:
        edges = np.linspace(0.0, r_max, n_bins + 1)
    vol = (edges[1:] ** dim - edges[:-1] ** dim) * sphere_area(dim) / dim
    if not (np.all(np.diff(edges) > 0.0) and np.all(vol > 0.0)):  # density divides by vol
        raise ValueError("histogram edges must increase strictly, with no shell volume "
                         f"underflowing to 0 (r_max={r_max!r})")
    idx = np.clip(np.searchsorted(edges, speeds, side="right") - 1, 0, n_bins - 1)
    inside = speeds <= r_max
    counts = np.bincount(idx[inside], minlength=n_bins).astype(float)
    masses = np.bincount(idx[inside], weights=np.broadcast_to(weights, speeds.shape)[inside],
                         minlength=n_bins)
    return VelocityHistogram(
        edges=edges, density=masses / vol, counts=counts,
        mass=float(masses.sum()), dim=dim, frame=frame, time=time,
        clipped=int(np.count_nonzero(~inside)),
    )


def sigma_scale(obj):
    """Per-axis thermal spread sqrt(E/(N rho)) of an ensemble or a
    radial histogram (sets the default tail window [3 sigma, 6 sigma])."""
    r, w, dim = _speeds_weights(obj)
    mass = float(np.sum(w))
    energy = float(np.sum(w * r * r))
    return math.sqrt(energy / (dim * mass))


def tail_fit(hist, window=None, s_candidates=(1.0, 2.0), min_counts=20):
    """Least-squares fit of log density against r^s on the tail window
    for each candidate order s; the order with the smaller residual RMS
    wins. Bins with fewer than min_counts samples are excluded."""
    if window is None:
        sig = sigma_scale(hist)
        window = (3.0 * sig, 6.0 * sig)
    r = hist.centers
    mask = (r >= window[0]) & (r <= window[1]) & (hist.counts >= min_counts) & (hist.density > 0)
    n_bins = int(mask.sum())
    if n_bins == 0:
        raise ValueError("tail window contains no usable bins")
    if n_bins < 8:
        raise ValueError(f"tail window has only {n_bins} usable bins (need >= 8)")
    r_fit = r[mask]
    y = np.log(hist.density[mask])
    candidates = {}
    for s in s_candidates:
        x = r_fit**s
        if np.ptp(x) == 0:
            raise ValueError("degenerate tail window (zero variance)")
        A = np.stack([np.ones_like(x), -x], axis=1)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ coef
        rms = float(np.sqrt(np.mean(resid**2)))
        candidates[float(s)] = (math.exp(coef[0]), float(coef[1]), rms, n_bins)
    best = min(candidates, key=lambda s: candidates[s][2])
    a1, a2, rms, _ = candidates[best]
    return TailFit(s=best, a1=a1, a2=a2, rms=rms, window=tuple(window),
                   candidates=candidates, n_bins=n_bins)


def haff_fit(times, energies, window, rate=1.0):
    """Slope of log E against log(1 + rate t) on the window, with its
    standard error; a power-law decay E ~ (1 + rate t)^p fits slope p."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    mask = (times >= window[0]) & (times <= window[1])
    if mask.sum() < 3:
        raise ValueError("window holds fewer than 3 samples")
    if np.any(energies[mask] <= 0):
        raise ValueError("nonpositive energy in the fit window")
    x = np.log1p(rate * times[mask])
    y = np.log(energies[mask])
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(x) - 2, 1)
    var = float(resid @ resid) / dof
    sxx = float(np.sum((x - x.mean()) ** 2))
    return {
        "slope": float(coef[1]),
        "intercept": float(coef[0]),
        "stderr": math.sqrt(var / sxx) if sxx > 0 else math.inf,
        "n": int(mask.sum()),
    }


def energy_bounds_check(times, energies, rho, tau_diss, t_transient=3.0, slack=0.05):
    """Rescaled-frame energy bounds: sup_t E <= max(E_in, 4/(tau^2
    rho^3)) within the slack, and inf of E after the transient > 0
    (None, and not ok, when no time is recorded after it)."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if tau_diss <= 0:
        return {"skipped": True,
                "note": "elastic kernel: anti-drift heats without bound, no upper bound"}
    bound = max(energies[0], 4.0 / (tau_diss**2 * rho**3))
    sup_e = float(energies.max())
    late = energies[times >= t_transient]
    inf_e = float(late.min()) if len(late) else None
    upper_ok = sup_e <= bound * (1.0 + slack)
    lower_ok = len(late) > 0 and inf_e > 0
    report = {
        "skipped": False,
        "sup_energy": sup_e,
        "upper_bound": bound * (1.0 + slack),
        "upper_ok": bool(upper_ok),
        "inf_energy_after_transient": inf_e,
        "lower_ok": bool(lower_ok),
        "t_transient": t_transient,
    }
    if not upper_ok:
        report["violation_time"] = float(times[int(np.argmax(energies))])
    return report


def stability_metric(hist_a, hist_b):
    """Weighted L1 distance sum |a - b| (1 + r^2) dv on identical bins."""
    if not hist_a.same_binning(hist_b):
        raise ValueError("histograms use different binnings")
    r = hist_a.centers
    return float(
        np.sum(np.abs(hist_a.density - hist_b.density) * (1.0 + r * r) * hist_a.shell_volumes)
    )


def l1_distance(hist_a, hist_b):
    """Plain L1 distance between two radial densities on identical bins."""
    if not hist_a.same_binning(hist_b):
        raise ValueError("histograms use different binnings")
    return float(np.sum(np.abs(hist_a.density - hist_b.density) * hist_a.shell_volumes))


def positivity_check(hists, radius, t_star):
    """Strict positivity of the radial density on |v| <= radius for all
    snapshots at t >= t_star, plus an exponential lower envelope
    a1 exp(-a2 r) fitted below the latest profile on the checked ball."""
    checked = []
    ok = True
    for h in hists:
        if h.time < t_star:
            continue
        mask = h.centers <= radius
        if not np.any(mask):
            raise ValueError("no bins inside the checked ball")
        min_density = float(h.density[mask].min())
        checked.append({"time": h.time, "min_density": min_density})
        ok = ok and min_density > 0
    if not checked:
        raise ValueError("no snapshots at or after t_star")
    envelope = None
    last = hists[-1]
    mask = (last.centers <= radius) & (last.density > 0)
    if ok and mask.sum() >= 3:
        r = last.centers[mask]
        y = np.log(last.density[mask])
        A = np.stack([np.ones_like(r), -r], axis=1)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        a2 = max(float(coef[1]), 1e-12)
        # shift the fitted line down so it is a true lower envelope
        shift = float(np.min(y - (coef[0] - a2 * r)))
        envelope = {"a1": math.exp(coef[0] + min(shift, 0.0)), "a2": a2}
    return {"ok": bool(ok), "checked": checked, "envelope": envelope, "radius": radius}
