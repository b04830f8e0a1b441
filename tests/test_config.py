import pytest

from granular.config import ConfigError, validate_config
from granular.kernels import make_kernel


def power(**kernel):
    return {"physics": {"kernel": {"kind": "power", **kernel}}}


class TestPowerKernel:
    def test_missing_exponent(self):
        with pytest.raises(ConfigError) as exc:
            validate_config(power())
        assert exc.value.errors == ["physics.kernel: power kernel needs exponent"]

    @pytest.mark.parametrize("exponent, message", [
        (0.5, "physics.kernel.exponent: 0.5 above maximum 0.0"),
        ("half", "physics.kernel.exponent: expected a number, got 'half'"),
        (None, "physics.kernel.exponent: missing"),
    ])
    def test_unbounded_or_not_a_number_rejected(self, exponent, message):
        with pytest.raises(ConfigError) as exc:
            validate_config(power(exponent=exponent))
        assert exc.value.errors == [message]

    def test_listed_with_other_errors(self):
        raw = power(exponent=1.0)
        raw["physics"]["e"] = 2.0
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert len(exc.value.errors) == 2

    @pytest.mark.parametrize("exponent", [0, -0.5])
    def test_bounded_accepted(self, exponent):
        cfg = validate_config(power(exponent=exponent))
        kernel = make_kernel(cfg["physics"]["kernel"], cfg["physics"]["dim"])
        assert kernel.b1 < float("inf")
