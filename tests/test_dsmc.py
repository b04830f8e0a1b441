import logging
import math

import numpy as np
import pytest

from granular import dsmc
from granular.config import validate_config
from granular.dsmc import (
    FRAME_ORIGINAL,
    FRAME_RESCALED,
    REFRESH_INTERVAL,
    U_MAX_SAFETY,
    CollisionTally,
    advance,
    collide_step,
    default_dt,
    drift_rescale_step,
    init_ensemble,
    run,
    step_size,
)
from granular.kernels import (
    RestitutionLaw,
    isotropic_kernel,
    post_collisional,
    sample_sigma,
    tau_of,
)
from granular.observables import histogram_from_speeds, l1_distance
from granular.rescale import forward_map


SECTION = {"e": "physics", "dim": "physics", "rho": "physics", "particles": "numerics",
           "dt": "numerics", "t_final": "numerics", "cadence": "output",
           "snapshot_times": "output"}


def histogram(ens, **kw):
    """Radial histogram of an ensemble's speeds."""
    return histogram_from_speeds(np.linalg.norm(ens.v, axis=1), ens.weight, ens.dim, **kw)


def cfg(**kw):
    """A validated config from flat keys (e, particles, cadence, frame, ...)."""
    flat = dict(e=0.8, dim=3, particles=4000, t_final=0.2, seed=5, cadence=0.1)
    flat.update(kw)
    raw = {}
    for key, value in flat.items():
        if key in SECTION:
            raw.setdefault(SECTION[key], {})[key] = value
        else:
            raw[key] = value
    return validate_config(raw)


class TestInit:
    def test_gaussian_energy(self):
        ens = init_ensemble(cfg(particles=10000, initial={"kind": "gaussian", "temperature": 1.0}))
        assert abs(ens.energy / ens.mass - 3.0) < 0.15  # N T within 5%

    def test_momentum_exact_zero(self):
        for kind in ({"kind": "gaussian", "temperature": 2.0},
                     {"kind": "uniform_ball", "radius": 2.0},
                     {"kind": "two_bump", "center": [2.0, 0.0, 0.0], "width": 0.3}):
            ens = init_ensemble(cfg(initial=kind))
            assert np.max(np.abs(ens.momentum)) < 1e-12 * math.sqrt(ens.energy)

    def test_two_bump_bimodal(self):
        ens = init_ensemble(cfg(particles=20000,
                                initial={"kind": "two_bump", "center": [2.0, 0, 0], "width": 0.2}))
        x = ens.v[:, 0]
        assert abs((x > 0).mean() - 0.5) < 0.02
        assert abs(x[x > 0].mean() - 2.0) < 0.05
        assert abs(x[x < 0].mean() + 2.0) < 0.05
        assert np.mean(np.abs(x) < 1.0) < 0.01

    def test_mass(self):
        ens = init_ensemble(cfg(rho=2.5))
        assert math.isclose(ens.mass, 2.5, rel_tol=1e-12)

    def test_uniform_ball_draws_as_before(self):
        # uniform_ball takes its directions from kernels.uniform_sphere,
        # which makes the same draws as the normalized Gaussian it replaced
        got = dsmc._sample_initial({"kind": "uniform_ball", "radius": 2.0}, 1000, 3,
                                   np.random.default_rng(3))
        rng = np.random.default_rng(3)
        z = rng.normal(size=(1000, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        assert np.array_equal(got, 2.0 * z * rng.random(1000)[:, None] ** (1.0 / 3.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            init_ensemble(cfg(initial={"kind": "nope"}))

    def test_from_file(self, tmp_path):
        path = tmp_path / "vel.csv"
        np.savetxt(path, np.random.default_rng(0).normal(size=(500, 3)), delimiter=",")
        ens = init_ensemble(cfg(particles=500, initial={"kind": "from_file", "path": str(path)}))
        assert ens.n == 500
        with pytest.raises(ValueError, match=r"vel\.csv: found 500 rows, 1000 requested"):
            init_ensemble(cfg(particles=1000, initial={"kind": "from_file", "path": str(path)}))
        bad = tmp_path / "bad.csv"
        bad.write_text("not,numbers,at all\n1,2\n")
        with pytest.raises(ValueError):
            init_ensemble(cfg(initial={"kind": "from_file", "path": str(bad)}))


class TestCollide:
    def test_elastic_step_conserves_energy(self):
        ens = init_ensemble(cfg(e=1.0, particles=5000))
        law, kern = RestitutionLaw(1.0), isotropic_kernel(3)
        e0 = ens.energy
        tally = collide_step(ens, 5e-3, law, kern)
        assert tally.accepted > 0
        assert abs(ens.energy - e0) < 1e-10 * e0
        assert abs(tally.denergy) < 1e-10 * e0

    def test_tally_is_exact_bookkeeping(self):
        ens = init_ensemble(cfg(particles=5000))
        law, kern = RestitutionLaw(0.8), isotropic_kernel(3)
        for _ in range(5):
            e0 = ens.energy
            tally = collide_step(ens, 5e-3, law, kern)
            assert abs((ens.energy - e0) - tally.denergy) < 1e-11 * max(e0, 1.0)

    def test_mass_and_momentum(self):
        out, ens = run(cfg(particles=8000, t_final=0.5))
        assert np.all(out.mass == out.mass[0])
        drift = np.max(np.abs(out.momentum)) / (out.mass[0] * math.sqrt(out.energy.max()))
        assert drift < 1e-10

    def test_cooling_rate_matches_dissipation(self):
        # ensemble-average decay against -D evaluated on the same
        # sample's histogram (removes initial-sample variance of E|u|^3)
        from granular.reporting import dissipation_rate_check

        config = cfg(particles=30000, t_final=0.05, cadence=0.05, seed=2)
        law, kern = RestitutionLaw(0.8), isotropic_kernel(3)
        rep = dissipation_rate_check(config, law, kern, n_steps=50)
        dev = abs(rep["measured_rate"] - rep["predicted_rate"])
        assert dev <= 3.0 * rep["se"]

    def test_majorant_violation_recovery(self):
        ens = init_ensemble(cfg(particles=3000))
        ens.u_max *= 0.3 / U_MAX_SAFETY  # as if seeded with safety factor 0.3
        low = ens.u_max
        law, kern = RestitutionLaw(0.8), isotropic_kernel(3)
        violations = sum(advance(ens, default_dt(ens), law, kern).violations
                         for _ in range(20))
        assert violations > 0
        assert ens.majorant_violations == violations
        assert ens.u_max > low


class TestDrift:
    def test_zero_dt_identity(self):
        ens = init_ensemble(cfg(frame=FRAME_RESCALED))
        v0 = ens.v.copy()
        drift_rescale_step(ens, 0.0)
        assert np.array_equal(ens.v, v0)

    def test_ln2_doubles(self):
        ens = init_ensemble(cfg(frame=FRAME_RESCALED))
        v0 = ens.v.copy()
        e0 = ens.energy
        drift_rescale_step(ens, math.log(2.0))
        assert np.allclose(ens.v, 2.0 * v0, rtol=1e-14)
        assert abs(ens.energy - 4.0 * e0) < 1e-12 * e0

    def test_original_frame_rejected(self):
        ens = init_ensemble(cfg(frame=FRAME_ORIGINAL))
        with pytest.raises(RuntimeError):
            drift_rescale_step(ens, 0.1)


def _eager_advance(ens, dt, law, kernel):
    """Reference Strang step that rescales every stored velocity at each
    half-drift, so collide_step always sees scale 1."""
    factor = math.exp(0.5 * dt)
    ens.v *= factor
    ens.u_max *= factor
    tally = collide_step(ens, dt, law, kernel)
    ens.v *= factor
    ens.u_max *= factor
    ens.time += dt
    return tally


class TestLazyScale:
    def test_matches_eager_reference(self):
        config = cfg(frame=FRAME_RESCALED, particles=4000, seed=13)
        lazy, eager = init_ensemble(config), init_ensemble(config)
        law, kern = RestitutionLaw(0.8), isotropic_kernel(3)
        dt = 20.0 * default_dt(lazy)
        for _ in range(10):
            a = advance(lazy, dt, law, kern)
            b = _eager_advance(eager, dt, law, kern)
            assert a.candidates == b.candidates
            assert a.accepted == b.accepted
            assert math.isclose(a.denergy, b.denergy, rel_tol=1e-12)
        assert lazy.scale != 1.0  # the scale was never folded in
        assert math.isclose(lazy.u_max, eager.u_max, rel_tol=1e-13)
        ref = eager.v
        assert np.max(np.abs(lazy.v - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_write_through_v_keeps_ledger(self):
        ens = init_ensemble(cfg(frame=FRAME_RESCALED))
        drift_rescale_step(ens, 0.1)
        ens.v *= 0.5
        e0 = ens.energy
        de = drift_rescale_step(ens, 0.1)
        assert abs(de - (math.exp(0.2) - 1.0) * e0) < 1e-12 * e0


class TestAdvance:
    def test_elastic_energy_constant_many_steps(self):
        ens = init_ensemble(cfg(e=1.0, particles=2000))
        law, kern = RestitutionLaw(1.0), isotropic_kernel(3)
        e0 = ens.energy
        for _ in range(1000):
            advance(ens, 2e-3, law, kern)
        assert abs(ens.energy - e0) < 1e-9 * e0

    def test_inelastic_energy_monotone(self):
        out, _ = run(cfg(particles=10000, t_final=0.5, cadence=0.05))
        assert np.all(np.diff(out.energy) <= 0)

    def test_rescaled_energy_window(self):
        config = cfg(frame=FRAME_RESCALED, particles=8000, t_final=7.0, cadence=0.25, seed=9)
        out, _ = run(config)
        law, kern = RestitutionLaw(0.8), isotropic_kernel(3)
        tau_d = tau_of(kern, law)
        late = out.energy[out.times >= 3.0]
        assert late.min() > 0
        assert out.energy.max() <= max(out.energy[0], 4.0 / (tau_d**2)) * 1.05

    def test_energy_ledger(self):
        config = cfg(frame=FRAME_RESCALED, particles=5000, t_final=1.0)
        out, ens = run(config)
        resid = (out.energy[-1] - out.energy[0]) \
            - out.tallies["collision_denergy"] - out.tallies["drift_denergy"]
        assert abs(resid) < 1e-10 * max(out.energy.max(), 1.0)

    def test_drift_tally_matches_exact_factor(self):
        ens = init_ensemble(cfg(frame=FRAME_RESCALED))
        e0 = ens.energy
        de = drift_rescale_step(ens, 0.05)
        assert abs(de - (math.exp(0.1) - 1.0) * e0) < 1e-12 * e0


class TestRunDriver:
    def test_determinism(self):
        for frame in (FRAME_ORIGINAL, FRAME_RESCALED):
            a, _ = run(cfg(seed=42, particles=3000, frame=frame))
            b, _ = run(cfg(seed=42, particles=3000, frame=frame))
            assert np.array_equal(a.energy, b.energy)
            assert np.array_equal(a.momentum, b.momentum)
            for p in a.speed_moments:
                assert np.array_equal(a.speed_moments[p], b.speed_moments[p])
            assert a.tallies == b.tallies

    def test_seed_changes_output(self):
        a, _ = run(cfg(seed=1, particles=3000))
        b, _ = run(cfg(seed=2, particles=3000))
        assert not np.array_equal(a.energy, b.energy)

    def test_cadence_grid(self):
        out, _ = run(cfg(t_final=0.3, cadence=0.1))
        assert np.allclose(out.times, [0.0, 0.1, 0.2, 0.3], atol=1e-9)

    def test_step_size(self):
        ens = init_ensemble(cfg())
        assert step_size(cfg(), ens) == default_dt(ens) == 0.01 / (ens.mass * ens.u_max)
        assert step_size(cfg(dt=2e-3), ens) == 2e-3

    def test_snapshots(self):
        out, _ = run(cfg(t_final=0.2, snapshot_times=[0.1]))
        times = [t for t, _ in out.snapshots]
        assert np.allclose(times, [0.1, 0.2], atol=1e-9)

    def test_progress_logged_at_each_output_time(self, caplog):
        assert logging.getLogger("granular").handlers == []  # silent unless configured
        with caplog.at_level(logging.INFO, logger="granular"):
            out, ens = run(cfg(t_final=0.3, cadence=0.1))
        lines = [r.getMessage() for r in caplog.records if r.name == "granular"]
        assert len(lines) == len(out.times) - 1
        assert lines[-1].startswith("t=0.3 ")
        assert f"steps={out.tallies['steps']} collisions={ens.collisions} " in lines[-1]


class TestFrameConsistency:
    def test_forward_map_matches_rescaled_run(self):
        # original run to t = 1 mapped forward vs a direct rescaled run
        # to tau = ln 2; distance below twice the histogram noise floor
        n = 20000
        orig, ens_o = run(cfg(particles=n, t_final=1.0, seed=21, cadence=0.5))
        mapped = forward_map(ens_o)
        resc, ens_r = run(cfg(particles=n, t_final=math.log(2.0), seed=22,
                              frame=FRAME_RESCALED, cadence=0.25))
        r_max = 1.02 * max(np.linalg.norm(mapped.v, axis=1).max(),
                           np.linalg.norm(ens_r.v, axis=1).max())
        bins = 32
        ha = histogram(mapped, n_bins=bins, r_max=r_max)
        hb = histogram(ens_r, n_bins=bins, r_max=r_max)
        d = l1_distance(ha, hb)
        p = 0.5 * (ha.bin_masses + hb.bin_masses) / ha.mass
        noise = math.sqrt(2.0 / math.pi) * float(
            np.sum(np.sqrt(np.maximum(p, 0.0) * 2.0 / n))
        )
        assert d < 2.0 * noise

    def test_splitting_self_convergence(self):
        # halving dt moves the stationary energy by less than the noise
        base = dict(particles=8000, t_final=4.0, cadence=0.5, seed=31,
                    frame=FRAME_RESCALED, e=0.8, dim=3)
        out1, _ = run(cfg(**base))
        dt_half = default_dt(init_ensemble(cfg(**base))) / 2.0
        out2, _ = run(cfg(**base, dt=dt_half))
        late1 = out1.energy[out1.times >= 3.0].mean()
        late2 = out2.energy[out2.times >= 3.0].mean()
        assert abs(late1 - late2) / late1 < 0.08


# ---------------------------------------------------------------------------
# Oracles: the step, batching, majorant refresh and recording as they were
# before their gathers, norms and temporaries were made cheaper. The engine
# must reproduce them bit for bit from the same random stream.
# ---------------------------------------------------------------------------

def _oracle_independent_prefix(pairs):
    flat = pairs.ravel()  # interleaved i0, j0, i1, j1, ...
    uniq, first = np.unique(flat, return_index=True)
    firstpos = first[np.searchsorted(uniq, flat)]
    pos = np.arange(len(flat))
    fresh = (firstpos == pos).reshape(-1, 2)
    return fresh[:, 0] & fresh[:, 1]


def _oracle_pairwise_max_speed(v, rng, frac=0.01, cap=512):
    m = min(max(2, int(frac * len(v))), cap, len(v))
    idx = rng.choice(len(v), size=m, replace=False)
    sub = v[idx]
    d = np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=2)
    return float(d.max())


def _oracle_collide_step(ens, dt, law, kernel):
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
    while np.any(clash):
        j[clash] = ens.rng.integers(0, n, size=int(clash.sum()))
        clash = i == j

    ru = scale * np.linalg.norm(w[i] - w[j], axis=1)
    over = ru > ens.u_max
    if np.any(over):
        tally.violations = int(over.sum())
        ens.u_max = 1.05 * float(ru[over].max())
    accept = ens.rng.random(m_cand) * u_max_used < ru
    pairs = np.stack([i[accept], j[accept]], axis=1)

    de_factor = ens.weight * scale * scale
    dsumsq = 0.0
    while len(pairs):
        free = _oracle_independent_prefix(pairs)
        batch, pairs = pairs[free], pairs[~free]
        bi, bj = batch[:, 0], batch[:, 1]
        wi, wj = w[bi], w[bj]
        u = wi - wj
        runow = np.linalg.norm(u, axis=1)
        live = runow > 0.0
        if not np.all(live):
            batch, bi, bj = batch[live], bi[live], bj[live]
            wi, wj, u, runow = wi[live], wj[live], u[live], runow[live]
        if len(batch) == 0:
            continue
        sigma = sample_sigma(ens.rng, u / runow[:, None], kernel)
        wp, wsp = post_collisional(wi, wj, sigma, law)
        dw = (
            np.sum(wp * wp, axis=1) + np.sum(wsp * wsp, axis=1)
            - np.sum(wi * wi, axis=1) - np.sum(wj * wj, axis=1)
        )
        w[bi] = wp
        w[bj] = wsp
        de = de_factor * dw
        dsumsq += float(dw.sum())
        tally.denergy += float(de.sum())
        tally.denergy_sq += float(np.sum(de * de))
        tally.accepted += len(batch)

    if ens.sumsq is not None:
        ens.sumsq += dsumsq
    ens.collisions += tally.accepted
    ens.candidates += tally.candidates
    ens.majorant_violations += tally.violations
    ens.collision_denergy += tally.denergy
    return tally


def _oracle_record(ens, rec):
    rec["times"].append(ens.time)
    rec["mass"].append(ens.mass)
    rec["momentum"].append(ens.momentum.copy())
    rec["energy"].append(ens.energy)
    speeds = np.linalg.norm(ens.v, axis=1)
    for p in dsmc.MOMENT_SPEED_POWERS:
        rec[f"m{p}"].append(ens.weight * float(np.sum(speeds**p)))


def _oracle_advance(ens, dt, law, kernel):
    if ens.frame == FRAME_RESCALED:
        drift_rescale_step(ens, 0.5 * dt)
        tally = _oracle_collide_step(ens, dt, law, kernel)
        drift_rescale_step(ens, 0.5 * dt)
    else:
        tally = _oracle_collide_step(ens, dt, law, kernel)
    ens.time += dt
    return tally


class TestOracles:
    @pytest.mark.parametrize("frame", [FRAME_ORIGINAL, FRAME_RESCALED])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_step_matches_oracle(self, dim, frame, monkeypatch):
        config = cfg(dim=dim, frame=frame, particles=300, seed=17)
        new, old = init_ensemble(config), init_ensemble(config)
        for ens in (new, old):
            ens.u_max *= 0.3 / U_MAX_SAFETY  # so the majorant-violation branch runs
        law, kern = RestitutionLaw(0.8), isotropic_kernel(dim)
        masks = []
        prefix = dsmc._independent_prefix
        monkeypatch.setattr(dsmc, "_independent_prefix",
                            lambda pairs: masks.append(prefix(pairs)) or masks[-1])
        dt = 0.02  # a few accepted pairs among 300 particles; tau stays below 1.2
        for _ in range(60):
            assert advance(new, dt, law, kern) == _oracle_advance(old, dt, law, kern)
        assert np.array_equal(new.w, old.w)
        assert (new.scale, new.u_max, new.collision_denergy, new.drift_denergy) \
            == (old.scale, old.u_max, old.collision_denergy, old.drift_denergy)
        assert (new.collisions, new.candidates, new.majorant_violations) \
            == (old.collisions, old.candidates, old.majorant_violations)
        assert new.majorant_violations > 0
        assert any(m is not None for m in masks)  # some steps split into batches
        assert (new.scale != 1.0) == (frame == FRAME_RESCALED)  # scale left pending

    def test_independent_prefix_matches_oracle(self):
        rng = np.random.default_rng(3)
        split = 0
        for n in (3, 10, 1000):
            for m in (1, 2, 5, 40):
                i = rng.integers(0, n, size=m)
                pairs = np.stack([i, (i + rng.integers(1, n, size=m)) % n], axis=1)
                ref = _oracle_independent_prefix(pairs)
                got = dsmc._independent_prefix(pairs)
                if got is None:
                    assert ref.all()
                else:
                    split += 1
                    assert np.array_equal(got, ref)
        assert split > 0

    @pytest.mark.parametrize("n", [300, 30000, 60000])  # m = 3, 300 and the cap 512
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_refresh_matches_oracle(self, n, dim):
        v = np.random.default_rng(dim).normal(size=(n, dim))
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        assert dsmc._pairwise_max_speed(v, a) == _oracle_pairwise_max_speed(v, b)
        assert a.random() == b.random()  # the same draws were consumed

    @pytest.mark.parametrize("frame", [FRAME_ORIGINAL, FRAME_RESCALED])
    def test_run_matches_oracle(self, frame, monkeypatch):
        config = cfg(frame=frame, particles=2000, t_final=0.3, cadence=0.1, seed=23,
                     snapshot_times=[0.2])
        new, ens_new = run(config)
        monkeypatch.setattr(dsmc, "collide_step", _oracle_collide_step)
        monkeypatch.setattr(dsmc, "_pairwise_max_speed", _oracle_pairwise_max_speed)
        monkeypatch.setattr(dsmc, "_record", _oracle_record)
        old, ens_old = run(config)
        assert new.tallies["steps"] > REFRESH_INTERVAL  # the majorant was refreshed
        assert new.tallies == old.tallies
        for field in ("times", "mass", "momentum", "energy"):
            assert np.array_equal(getattr(new, field), getattr(old, field))
        for p in new.speed_moments:
            assert np.array_equal(new.speed_moments[p], old.speed_moments[p])
        assert len(new.snapshots) == len(old.snapshots) == 2
        for (ta, va), (tb, vb) in zip(new.snapshots, old.snapshots):
            assert ta == tb and np.array_equal(va, vb)
