import pytest

from granular.config import PRESET_NAMES, ConfigError, parse_config, preset, validate_config
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


KINDS = "('isotropic', 'tabulated', 'power')"
INITIAL_KINDS = "('gaussian', 'uniform_ball', 'two_bump', 'from_file')"

# one case per error path of validate_config: (raw config, its errors)
ERROR_CASES = {
    "not-an-object": ([], ["top level must be a JSON object"]),
    "unknown-key": ({"numerics": {"partciles": 10}}, ["unknown key: numerics.partciles"]),
    "section-not-an-object": ({"physics": 3}, ["physics: expected an object"]),
    "schema-version": ({"schema_version": 2}, ["schema_version: expected 1, got 2"]),
    "missing": ({"numerics": {"t_final": None}}, ["numerics.t_final: missing"]),
    "not-a-number": ({"physics": {"e": "0.8"}}, ["physics.e: expected a number, got '0.8'"]),
    "bool-is-not-a-number": ({"seed": True}, ["seed: expected a number, got True"]),
    "not-finite": ({"physics": {"rho": float("inf")}}, ["physics.rho: must be finite"]),
    "nan-integer": ({"numerics": {"particles": float("nan")}},
                    ["numerics.particles: must be finite"]),
    "not-an-integer": ({"physics": {"dim": 2.5}}, ["physics.dim: expected an integer, got 2.5"]),
    "dim-above-maximum": ({"physics": {"dim": 5}}, ["physics.dim: 5 above maximum 4"]),
    "below-minimum": ({"physics": {"e": -0.1}}, ["physics.e: -0.1 below minimum 0.0"]),
    "above-maximum": ({"physics": {"e": 1.5}}, ["physics.e: 1.5 above maximum 1.0"]),
    "kernel-kind": ({"physics": {"kernel": {"kind": "hard"}}},
                    [f"physics.kernel.kind: expected one of {KINDS}, got 'hard'"]),
    "kernel-not-an-object": ({"physics": {"kernel": "isotropic"}},
                             [f"physics.kernel.kind: expected one of {KINDS}, got 'isotropic'"]),
    "tabulated-kernel": ({"physics": {"kernel": {"kind": "tabulated", "values": [1.0]}}},
                         ["physics.kernel: tabulated kernel needs cos_theta and values"]),
    "initial-kind": ({"initial": {"kind": "maxwellian"}},
                     [f"initial.kind: expected one of {INITIAL_KINDS}, got 'maxwellian'"]),
    "initial-not-an-object": ({"initial": "gaussian"},
                              [f"initial.kind: expected one of {INITIAL_KINDS}, got 'gaussian'"]),
    "temperature": ({"initial": {"kind": "gaussian", "temperature": 0}},
                    ["initial.temperature: 0 below minimum 1e-300"]),
    "radius": ({"initial": {"kind": "uniform_ball", "radius": -1.0}},
               ["initial.radius: -1.0 below minimum 1e-300"]),
    "width": ({"initial": {"kind": "two_bump", "width": "wide"}},
              ["initial.width: expected a number, got 'wide'"]),
    "center-length": ({"initial": {"kind": "two_bump", "center": [2.0, 0.0]}},
                      ["initial.center: expected a list of 3 numbers, got [2.0, 0.0]"]),
    "center-entries": ({"physics": {"dim": 2},
                        "initial": {"kind": "two_bump", "center": [2.0, "x"]}},
                       ["initial.center: expected a list of 2 numbers, got [2.0, 'x']"]),
    "from-file-path": ({"initial": {"kind": "from_file"}},
                       ["initial.path: expected a string, got None"]),
    "frame": ({"frame": "lab"}, ["frame: expected 'original' or 'rescaled', got 'lab'"]),
    "directory": ({"output": {"directory": 3}}, ["output.directory: expected a string"]),
    "snapshot-times-not-a-list": ({"output": {"snapshot_times": 8.0}},
                                  ["output.snapshot_times: expected a list"]),
    "snapshot-time-not-positive": ({"output": {"snapshot_times": [0.0]}},
                                   ["output.snapshot_times[0]: 0.0 below minimum 1e-300"]),
    "snapshot-time-after-t-final": ({"numerics": {"t_final": 2.0},
                                     "output": {"snapshot_times": [1.0, 2.5]}},
                                    ["output.snapshot_times[1]: 2.5 above maximum 2.0"]),
    "snapshot-time-not-a-number": ({"output": {"snapshot_times": ["end"]}},
                                   ["output.snapshot_times[0]: expected a number, got 'end'"]),
}


@pytest.mark.parametrize("raw, errors", ERROR_CASES.values(), ids=ERROR_CASES.keys())
def test_error_path(raw, errors):
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.errors == errors


@pytest.mark.parametrize("where, value, minimum", [
    ("numerics.particles", 1, 2), ("numerics.dt", 0.0, 1e-300), ("numerics.t_final", 0.0, 1e-300),
    ("numerics.bins", 4, 8), ("numerics.grid_points", 1, 2), ("numerics.grid_extent", 0.0, 1e-300),
    ("numerics.quadrature.radial_order", 2, 4), ("numerics.quadrature.angular_order", 2, 4),
    ("numerics.quadrature.hyperplane_order", 2, 4), ("output.cadence", 0.0, 1e-300),
    ("seed", -1, 0),
])
def test_every_number_has_a_minimum(where, value, minimum):
    raw = node = {}
    *heads, leaf = where.split(".")
    for h in heads:
        node = node.setdefault(h, {})
    node[leaf] = value
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.errors == [f"{where}: {value} below minimum {minimum}"]


def test_every_error_is_listed():
    raw = {"physics": {"e": 2.0, "dim": 2}, "frame": "lab", "bogus": 1,
           "initial": {"kind": "two_bump", "center": [1.0, 0.0, 0.0]},
           "numerics": {"t_final": 1.0}, "output": {"snapshot_times": [-1.0, 2.0]}}
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.errors == [
        "unknown key: bogus",
        "physics.e: 2.0 above maximum 1.0",
        "initial.center: expected a list of 2 numbers, got [1.0, 0.0, 0.0]",
        "frame: expected 'original' or 'rescaled', got 'lab'",
        "output.snapshot_times[0]: -1.0 below minimum 1e-300",
        "output.snapshot_times[1]: 2.0 above maximum 1.0",
    ]


def test_valid_initial_fields_and_snapshot_at_t_final_accepted():
    for init in ({"kind": "gaussian", "temperature": 2.0},
                 {"kind": "uniform_ball", "radius": 1.5},
                 {"kind": "two_bump", "center": [2.0, 0.0, 0.0], "width": 0.3},
                 {"kind": "from_file", "path": "velocities.csv"}):
        validate_config({"initial": init, "output": {"snapshot_times": [0.5, 1.0]}})


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(bad)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_validate(name):
    assert validate_config(dict(preset(name))) == preset(name)
