import math

import numpy as np
import pytest

from granular.config import validate_config
from granular.dsmc import FRAME_ORIGINAL, FRAME_RESCALED, init_ensemble
from granular.rescale import (
    forward_map,
    inverse_map,
    scaling_functions,
    transfer_moment_series,
)


def make_ens(frame=FRAME_ORIGINAL, time=0.0):
    cfg = validate_config({"numerics": {"particles": 1000}, "seed": 3, "frame": frame})
    ens = init_ensemble(cfg)
    ens.time = time
    return ens


class TestScalingFunctions:
    def test_initial_normalization(self):
        k, tau, v = scaling_functions(0.0, 3)
        assert (k, tau, v) == (1.0, 0.0, 1.0)

    def test_unit_rate(self):
        k, tau, v = scaling_functions(1.0, 3)
        assert (k, v) == (8.0, 2.0)
        assert math.isclose(tau, math.log(2.0), rel_tol=1e-15)

    def test_k_equals_v_pow_n(self):
        for dim in (2, 3):
            t = np.linspace(0, 5, 11)
            k, _, v = scaling_functions(t, dim)
            assert np.allclose(k, v**dim, rtol=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            scaling_functions(-0.5)


class TestMaps:
    def test_identity_at_zero(self):
        ens = make_ens()
        out = forward_map(ens)
        assert np.allclose(out.v, ens.v)
        assert out.time == 0.0
        assert out.frame == FRAME_RESCALED

    def test_forward_scales(self):
        ens = make_ens(time=1.0)
        e0, m0 = ens.energy, ens.mass
        out = forward_map(ens)
        assert np.allclose(out.v, 2.0 * ens.v, rtol=1e-15)
        assert math.isclose(out.time, math.log(2.0), rel_tol=1e-15)
        assert math.isclose(out.energy, 4.0 * e0, rel_tol=1e-12)
        assert out.mass == m0

    def test_roundtrip(self):
        ens = make_ens(time=2.7)
        back = inverse_map(forward_map(ens))
        assert np.max(np.abs(back.v - ens.v)) < 1e-14 * np.abs(ens.v).max()
        assert abs(back.time - ens.time) < 1e-12

    def test_inverse_halves_at_ln2(self):
        ens = make_ens(frame=FRAME_RESCALED, time=math.log(2.0))
        out = inverse_map(ens)
        assert math.isclose(out.time, 1.0, rel_tol=1e-12)
        assert np.allclose(out.v, ens.v / 2.0, rtol=1e-15)

    def test_frame_mismatch(self):
        with pytest.raises(ValueError):
            forward_map(make_ens(frame=FRAME_RESCALED))
        with pytest.raises(ValueError):
            inverse_map(make_ens(frame=FRAME_ORIGINAL))


class TestMomentTransfer:
    def test_mass_invariant(self):
        tau = np.linspace(0, 3, 31)
        mass = np.full_like(tau, 1.7)
        t, vals, _ = transfer_moment_series(tau, mass, 0, "g2f")
        assert np.allclose(vals, 1.7)
        assert np.allclose(t, np.expm1(tau))

    def test_constant_rescaled_energy_gives_haff(self):
        tau = np.linspace(0, 4, 41)
        c = 5.0
        t, vals, _ = transfer_moment_series(tau, np.full_like(tau, c), 2, "g2f")
        assert np.allclose(vals, c / (1.0 + t) ** 2, rtol=1e-12)

    def test_roundtrip_identity(self):
        t = np.linspace(0, 9, 50)
        e = 3.0 / (1.0 + t) ** 2 * (1.0 + 0.1 * np.sin(t))
        tau, eg, _ = transfer_moment_series(t, e, 2, "f2g")
        t2, back, _ = transfer_moment_series(tau, eg, 2, "g2f")
        assert np.allclose(t2, t, rtol=1e-12)
        assert np.allclose(back, e, rtol=1e-12)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            transfer_moment_series(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 2, "sideways")
