"""Stochastic particle (DSMC) integrator for the homogeneous inelastic
Boltzmann equation, in original variables or in self-similar (rescaled)
variables where an anti-drift -div(v g) is added.

Collisions use the no-time-counter scheme: with n particles of weight
rho/n, an unordered pair {i, j} collides at rate (rho/n) |u_ij| (unit
kernel normalization), so over a step dt the expected number of
candidate pairs at the majorant rate is

    M = n * rho * u_max * dt / 2,

each candidate accepted with probability |u|/u_max. The anti-drift is
split around the collision substep (Strang), and its characteristics
are integrated exactly: velocities scale by exp(dt).

Velocities are stored lazily as v = s * w, a particle array w and one
scalar s. The anti-drift then costs O(1) per step: it multiplies s (and
u_max, kept in v units) by exp(dt), and its energy increment is exact,
weight * S * (s1^2 - s0^2) with S = sum |w|^2 kept as a running sum.
Collisions act on w directly. The post-collisional map of the
constant-restitution law is homogeneous of degree 1 in (v, v*), so
colliding w and scaling by s gives the same velocities as colliding v;
only the relative speed (acceptance, majorant) is multiplied by s and
the energy increment by s^2. In the original frame s stays 1.

Every caller steps an ensemble through `advance_to`, the one place that
holds the step policy: steps of `ens.dt` (the last cut to land on t), dt
halved when over half of a step's candidates collide, and a majorant
refresh every `REFRESH_INTERVAL` steps that also recomputes a default dt.

The engine reads the validated `config.ExperimentConfig` and nothing
else: `init_ensemble(cfg)` and `run(cfg)` take it as it comes out of
`validate_config`, which has already checked every input.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    RestitutionLaw,
    _sumsq,
    make_kernel,
    post_collisional,
    sample_sigma,
    uniform_sphere,
)

__all__ = [
    "FRAME_ORIGINAL",
    "FRAME_RESCALED",
    "ParticleEnsemble",
    "CollisionTally",
    "init_ensemble",
    "collide_step",
    "drift_rescale_step",
    "advance",
    "advance_to",
    "run",
    "RunOutput",
]

FRAME_ORIGINAL = "original"
FRAME_RESCALED = "rescaled"
U_MAX_SAFETY = 4.0  # initial majorant over the sampled pairwise max speed
REFRESH_INTERVAL = 200  # steps between majorant refreshes in advance_to()

log = logging.getLogger("granular")


class ParticleEnsemble:
    """Weighted velocity particles with a frame tag.

    Total mass rho = weight * count is invariant; the majorant u_max
    tracks (an upper estimate of) the largest pairwise relative speed.

    Velocities are held as v = scale * w. Reading `v` folds the pending
    scale into w in place and returns that same array, so in-place
    writes through it (`ens.v *= c`, `ens.v[i] = ...`) stick. `sumsq`
    is the running sum |w|^2 behind the drift's energy ledger; it is
    dropped on every read of `v` (the caller may write to the array)
    and recomputed at the next drift. `dt`, `steps` and `dt_halvings`
    are the step state of advance_to; dt=None means default_dt.
    """

    def __init__(self, velocities, weight, frame, rng, u_max, time=0.0, dt=None):
        self.w = np.asarray(velocities, dtype=float)
        if self.w.ndim != 2 or len(self.w) < 2:
            raise ValueError("need an (n, dim) velocity array with n >= 2")
        self.scale = 1.0
        self.sumsq = None
        self.weight = float(weight)
        self.frame = frame
        self.rng = rng
        self.u_max = float(u_max)
        self.time = float(time)
        self.collisions = 0
        self.candidates = 0
        self.majorant_violations = 0
        self.collision_denergy = 0.0  # cumulative tallies for the ledger
        self.collision_denergy_sq = 0.0
        self.drift_denergy = 0.0
        self.dt_default = dt is None
        self.dt = default_dt(self) if dt is None else dt
        self.steps = 0
        self.dt_halvings = 0

    @property
    def v(self):
        if self.scale != 1.0:
            self.w *= self.scale
            self.scale = 1.0
        self.sumsq = None
        return self.w

    @v.setter
    def v(self, velocities):  # also the rebinding step of `ens.v *= c`
        self.w = np.asarray(velocities, dtype=float)
        self.scale = 1.0
        self.sumsq = None

    @property
    def n(self):
        return len(self.w)

    @property
    def dim(self):
        return self.w.shape[1]

    @property
    def mass(self):
        return self.weight * self.n

    @property
    def momentum(self):
        return self.weight * self.v.sum(axis=0)

    @property
    def energy(self):
        return self.weight * float(np.sum(self.v * self.v))


@dataclass
class CollisionTally:
    denergy: float = 0.0
    denergy_sq: float = 0.0  # sum of squared per-pair energy increments
    candidates: int = 0
    accepted: int = 0
    violations: int = 0


def _sample_initial(spec, n, dim, rng):
    kind = spec.get("kind")
    if kind == "gaussian":
        t = float(spec.get("temperature", 1.0))
        return rng.normal(scale=math.sqrt(t), size=(n, dim))
    if kind == "uniform_ball":
        r = float(spec.get("radius", 1.0))
        z = uniform_sphere(rng, n, dim)
        return r * z * rng.random(n)[:, None] ** (1.0 / dim)
    if kind == "two_bump":
        center = np.asarray(spec.get("center", [2.0] + [0.0] * (dim - 1)), dtype=float)
        width = float(spec.get("width", 0.3))
        v = rng.normal(scale=width, size=(n, dim))
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        return v + signs[:, None] * center[None, :]
    if kind == "from_file":
        path = spec["path"]
        try:
            v = np.loadtxt(path, delimiter=",", ndmin=2)
        except Exception as exc:
            raise ValueError(f"could not read initial velocities from {path}: {exc}")
        if v.shape[1] != dim:
            raise ValueError(f"{path}: expected {dim} columns, got {v.shape[1]}")
        if len(v) < n:
            raise ValueError(f"{path}: found {len(v)} rows, {n} requested")
        return v[:n]
    raise ValueError(f"unknown initial condition kind: {kind!r}")


def _pairwise_max_speed(v, rng, frac=0.01, cap=512):
    m = min(max(2, int(frac * len(v))), cap, len(v))
    sub = v.take(rng.choice(len(v), size=m, replace=False), axis=0)
    # squared distances summed column by column, in _sumsq's order, over
    # blocks of 64 rows that stay in cache; sqrt is monotone, so the sqrt
    # of the largest sum is the largest distance
    best = 0.0
    for lo in range(0, m, 64):
        d2 = np.zeros((min(64, m - lo), m))
        for c in sub.T:
            d = c[lo:lo + 64, None] - c[None, :]
            d *= d
            d2 += d
        best = max(best, d2.max())
    return math.sqrt(best)


def init_ensemble(cfg):
    """Sample the initial condition of a validated config, center
    momentum exactly, set the weight for total mass rho, seed the
    majorant from a subsample and the step from numerics.dt."""
    phys = cfg["physics"]
    rng = np.random.default_rng(cfg["seed"])
    v = _sample_initial(cfg["initial"], cfg["numerics"]["particles"], phys["dim"], rng)
    v = v - v.mean(axis=0, keepdims=True)  # zero momentum exactly
    weight = phys["rho"] / len(v)
    u_max = U_MAX_SAFETY * max(_pairwise_max_speed(v, rng), 1e-12)
    return ParticleEnsemble(v, weight, cfg["frame"], rng, u_max, dt=cfg["numerics"]["dt"])


def _independent_prefix(pairs):
    """Boolean mask of pairs whose two particles do not appear in any
    earlier pair of the batch (so they can be collided in parallel), or
    None when no particle appears twice and every pair is free."""
    flat = pairs.ravel()  # interleaved i0, j0, i1, j1, ...
    order = flat.argsort(kind="stable")
    ranked = flat[order]
    repeat = ranked[1:] == ranked[:-1]
    if not np.count_nonzero(repeat):
        return None
    fresh = np.ones(len(flat), dtype=bool)
    fresh[order[1:][repeat]] = False  # stable: a first occurrence ranks first
    return fresh[0::2] & fresh[1::2]


def collide_step(ens, dt, law, kernel):
    """One no-time-counter collision substep.

    Candidate count uses stochastic rounding of n rho u_max dt / 2;
    acceptance is |u|/u_max against the majorant that generated the
    count. Accepted pairs are applied in duplicate-free groups so a
    particle hit twice in one step sees its updated velocity. Mass and
    momentum are conserved pairwise; energy increments are tallied from
    the realized velocity updates. Works on the stored w (v = scale * w)
    without folding the scale in.
    """
    n = ens.n
    rho = ens.mass
    tally = CollisionTally()
    expected = 0.5 * n * rho * ens.u_max * dt
    m_cand = int(expected) + (1 if ens.rng.random() < expected - int(expected) else 0)
    tally.candidates = m_cand
    if m_cand == 0:
        return tally
    u_max_used = ens.u_max
    w, scale = ens.w, ens.scale

    i = ens.rng.integers(0, n, size=m_cand)
    j = ens.rng.integers(0, n, size=m_cand)
    clash = i == j
    while n_clash := np.count_nonzero(clash):
        j[clash] = ens.rng.integers(0, n, size=n_clash)
        clash = i == j

    ru = scale * np.sqrt(_sumsq(w.take(i, axis=0) - w.take(j, axis=0)))
    over = ru > ens.u_max
    if n_over := np.count_nonzero(over):
        tally.violations = n_over
        ens.u_max = 1.05 * float(ru[over].max())
    accept = ens.rng.random(m_cand) * u_max_used < ru
    pairs = np.array((i[accept], j[accept])).T

    de_factor = ens.weight * scale * scale
    dsumsq = 0.0
    while len(pairs):
        free = _independent_prefix(pairs)
        if free is None:
            batch, pairs = pairs, pairs[:0]
        else:
            batch, pairs = pairs[free], pairs[~free]
        bi, bj = batch[:, 0], batch[:, 1]
        wi, wj = w.take(bi, axis=0), w.take(bj, axis=0)
        u = wi - wj
        runow = np.sqrt(_sumsq(u))
        live = runow > 0.0
        if np.count_nonzero(live) < len(live):
            batch, bi, bj = batch[live], bi[live], bj[live]
            wi, wj, u, runow = wi[live], wj[live], u[live], runow[live]
        if len(batch) == 0:
            continue
        sigma = sample_sigma(ens.rng, u / runow[:, None], kernel)
        wp, wsp = post_collisional(wi, wj, sigma, law)
        dw = _sumsq(wp) + _sumsq(wsp) - _sumsq(wi) - _sumsq(wj)
        w[bi] = wp
        w[bj] = wsp
        de = de_factor * dw
        dsumsq += float(dw.sum())
        tally.denergy += float(de.sum())
        tally.denergy_sq += float((de * de).sum())
        tally.accepted += len(batch)

    if ens.sumsq is not None:
        ens.sumsq += dsumsq
    ens.collisions += tally.accepted
    ens.candidates += tally.candidates
    ens.majorant_violations += tally.violations
    ens.collision_denergy += tally.denergy
    ens.collision_denergy_sq += tally.denergy_sq
    return tally


def drift_rescale_step(ens, dt):
    """Exact anti-drift transport: velocities scale by exp(dt); only
    meaningful in the rescaled frame.

    O(1): multiplies the ensemble's scale and u_max by exp(dt) and
    returns the exact energy increment weight * S * (s1^2 - s0^2).
    """
    if ens.frame != FRAME_RESCALED:
        raise RuntimeError("drift step called on an original-frame ensemble")
    if dt == 0.0:
        return 0.0
    if ens.sumsq is None:
        ens.sumsq = float(np.vdot(ens.w, ens.w))
    factor = math.exp(dt)
    s0 = ens.scale
    ens.scale = s0 * factor
    ens.u_max *= factor
    de = ens.weight * ens.sumsq * (ens.scale * ens.scale - s0 * s0)
    ens.drift_denergy += de
    return de


def advance(ens, dt, law, kernel):
    """One full step: collisions only in the original frame; Strang
    half-drift / collide / half-drift in the rescaled frame."""
    if ens.frame == FRAME_RESCALED:
        drift_rescale_step(ens, 0.5 * dt)
        tally = collide_step(ens, dt, law, kernel)
        drift_rescale_step(ens, 0.5 * dt)
    else:
        tally = collide_step(ens, dt, law, kernel)
    ens.time += dt
    return tally


def default_dt(ens):
    return 0.01 / (ens.mass * ens.u_max)


def advance_to(ens, t, law, kernel):
    """Step ens until its time reaches t, under the step policy the
    module docstring describes."""
    while ens.time < t - 1e-12:
        tally = advance(ens, min(ens.dt, t - ens.time), law, kernel)
        ens.steps += 1
        if tally.candidates > 50 and tally.accepted > 0.5 * tally.candidates:
            ens.dt *= 0.5
            ens.dt_halvings += 1
        if ens.steps % REFRESH_INTERVAL == 0:
            est = _pairwise_max_speed(ens.v, ens.rng)
            ens.u_max = min(ens.u_max, max(2.0 * est, 1e-12))
            if ens.dt_default:
                # keep the per-step collision probability fixed as the
                # relative-speed scale drifts (cooling/heating)
                ens.dt = default_dt(ens) / 2.0**ens.dt_halvings


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

MOMENT_SPEED_POWERS = (3, 4, 6, 8)  # |v|^k columns in the moment series


@dataclass
class RunOutput:
    times: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray  # (steps, dim)
    energy: np.ndarray
    speed_moments: dict  # power -> array
    snapshots: list  # (time, velocities copy) pairs
    tallies: dict
    metadata: dict


def _record(ens, rec):
    rec["times"].append(ens.time)
    rec["mass"].append(ens.mass)
    rec["momentum"].append(ens.momentum.copy())
    rec["energy"].append(ens.energy)
    speeds = np.sqrt(_sumsq(ens.v))
    for p in MOMENT_SPEED_POWERS:
        rec[f"m{p}"].append(ens.weight * float(np.sum(speeds**p)))


def run(cfg):
    """Deterministic (validated config, seed) -> observables driver.

    Records mass/momentum/energy/|v|^k moments at the configured
    cadence and keeps velocity snapshots at snapshot_times and t_final;
    advance_to, which holds the step policy, steps between output times.
    """
    phys, num, out = cfg["physics"], cfg["numerics"], cfg["output"]
    law = RestitutionLaw(phys["e"])
    kernel = make_kernel(phys["kernel"], phys["dim"])
    ens = init_ensemble(cfg)
    t_final, cadence = num["t_final"], out["cadence"]

    rec = {"times": [], "mass": [], "momentum": [], "energy": []}
    for p in MOMENT_SPEED_POWERS:
        rec[f"m{p}"] = []
    _record(ens, rec)

    snap_times = sorted(set(out["snapshot_times"] + [t_final]))
    snapshots = []
    out_times = np.arange(1, int(math.ceil(t_final / cadence - 1e-9)) + 1) * cadence
    out_times = np.unique(np.concatenate([out_times, np.asarray(snap_times)]))
    out_times = out_times[(out_times <= t_final + 1e-12) & (out_times > 1e-12)]
    # collapse float-level duplicates (cadence multiples vs snapshot times)
    keep = np.ones(len(out_times), dtype=bool)
    keep[1:] = np.diff(out_times) > 1e-9
    out_times = out_times[keep]

    for t_out in out_times:
        advance_to(ens, t_out, law, kernel)
        _record(ens, rec)
        log.info("t=%.6g steps=%d collisions=%d acceptance=%.4f u_max=%.6g", ens.time,
                 ens.steps, ens.collisions, ens.collisions / max(ens.candidates, 1), ens.u_max)
        for st in snap_times:
            if abs(ens.time - st) <= 1e-9:
                snapshots.append((ens.time, ens.v.copy()))
                break

    tallies = {
        "collisions": ens.collisions,
        "candidates": ens.candidates,
        "acceptance": ens.collisions / max(ens.candidates, 1),
        "majorant_violations": ens.majorant_violations,
        "collision_denergy": ens.collision_denergy,
        "drift_denergy": ens.drift_denergy,
        "dt_final": ens.dt,
        "dt_halvings": ens.dt_halvings,
        "u_max_final": ens.u_max,
        "steps": ens.steps,
    }
    metadata = {
        "seed": cfg["seed"],
        "frame": cfg["frame"],
        "e": phys["e"],
        "dim": phys["dim"],
        "particles": num["particles"],
        "rho": phys["rho"],
        "kernel": phys["kernel"],
    }
    return RunOutput(
        times=np.asarray(rec["times"]),
        mass=np.asarray(rec["mass"]),
        momentum=np.asarray(rec["momentum"]),
        energy=np.asarray(rec["energy"]),
        speed_moments={p: np.asarray(rec[f"m{p}"]) for p in MOMENT_SPEED_POWERS},
        snapshots=snapshots,
        tallies=tallies,
        metadata=metadata,
    ), ens
