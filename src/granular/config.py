"""Experiment configuration: JSON schema, exhaustive validation,
presets, and content hashing for reproducibility headers."""

import copy
import hashlib
import json
import math

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "validate_config",
    "config_hash",
    "preset",
    "PRESET_NAMES",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "physics": {"e": 0.8, "kernel": {"kind": "isotropic"}, "dim": 3, "rho": 1.0},
    "numerics": {
        "particles": 20000,
        "dt": None,
        "t_final": 1.0,
        "bins": 64,
        "grid_points": 65,
        "grid_extent": 6.0,
        "quadrature": {"radial_order": 64, "angular_order": 32, "hyperplane_order": 64},
    },
    "initial": {"kind": "gaussian", "temperature": 1.0},
    "frame": "original",
    "output": {"directory": "out", "cadence": 0.05, "snapshot_times": []},
    "seed": 0,
}

_KERNEL_KINDS = ("isotropic", "tabulated", "power")
_INITIAL_KINDS = ("gaussian", "uniform_ball", "two_bump", "from_file")


class ConfigError(ValueError):
    """Carries the complete list of validation errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n  " + "\n  ".join(self.errors))


class ExperimentConfig(dict):
    """Validated config: a plain dict plus its content hash. The DSMC
    engine (`dsmc.init_ensemble`, `dsmc.run`) reads it directly."""

    @property
    def hash(self):
        return config_hash(self)


def _merge(base, override, path, errors):
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            errors.append(f"unknown key: {where}")
            continue
        if isinstance(base[key], dict) and key != "kernel" and key != "initial":
            if not isinstance(val, dict):
                errors.append(f"{where}: expected an object")
                continue
            out[key] = _merge(base[key], val, where, errors)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_number(errors, where, value, lo=None, hi=None, integer=False, optional=False):
    if value is None:
        if not optional:
            errors.append(f"{where}: missing")
        return
    if not _is_number(value):
        errors.append(f"{where}: expected a number, got {value!r}")
        return
    if not math.isfinite(value):
        errors.append(f"{where}: must be finite")
        return
    if integer and int(value) != value:
        errors.append(f"{where}: expected an integer, got {value!r}")
        return
    if lo is not None and value < lo:
        errors.append(f"{where}: {value} below minimum {lo}")
    if hi is not None and value > hi:
        errors.append(f"{where}: {value} above maximum {hi}")


def validate_config(raw):
    """Fill defaults and return an ExperimentConfig, or raise
    ConfigError listing every problem found (never first-error-only)."""
    errors = []
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    cfg = _merge(DEFAULTS, raw, "", errors)

    if cfg["schema_version"] != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, got {cfg['schema_version']!r}")

    phys = cfg["physics"]
    _check_number(errors, "physics.e", phys.get("e"), lo=0.0, hi=1.0)
    # moments.csv names the momentum components px, py, pz, pw
    _check_number(errors, "physics.dim", phys.get("dim"), lo=2, hi=4, integer=True)
    _check_number(errors, "physics.rho", phys.get("rho"), lo=1e-300)
    kern = phys.get("kernel")
    if not isinstance(kern, dict) or kern.get("kind") not in _KERNEL_KINDS:
        errors.append(
            f"physics.kernel.kind: expected one of {_KERNEL_KINDS}, got "
            f"{kern.get('kind') if isinstance(kern, dict) else kern!r}"
        )
    elif kern["kind"] == "tabulated":
        if "cos_theta" not in kern or "values" not in kern:
            errors.append("physics.kernel: tabulated kernel needs cos_theta and values")
    elif kern["kind"] == "power":
        if "exponent" not in kern:
            errors.append("physics.kernel: power kernel needs exponent")
        else:  # b = (1 - cos)^(-exponent) is bounded only for exponent <= 0
            _check_number(errors, "physics.kernel.exponent", kern["exponent"], hi=0.0)

    num = cfg["numerics"]
    _check_number(errors, "numerics.particles", num.get("particles"), lo=2, integer=True)
    _check_number(errors, "numerics.dt", num.get("dt"), lo=1e-300, optional=True)
    _check_number(errors, "numerics.t_final", num.get("t_final"), lo=1e-300)
    _check_number(errors, "numerics.bins", num.get("bins"), lo=8, integer=True)
    _check_number(errors, "numerics.grid_points", num.get("grid_points"), lo=2, integer=True)
    _check_number(errors, "numerics.grid_extent", num.get("grid_extent"), lo=1e-300)
    for name in ("radial_order", "angular_order", "hyperplane_order"):
        _check_number(errors, f"numerics.quadrature.{name}",
                      num.get("quadrature", {}).get(name), lo=4, integer=True)

    init = cfg["initial"]
    if not isinstance(init, dict) or init.get("kind") not in _INITIAL_KINDS:
        errors.append(
            f"initial.kind: expected one of {_INITIAL_KINDS}, got "
            f"{init.get('kind') if isinstance(init, dict) else init!r}"
        )
    else:  # the kind's fields, when present
        for name in ("temperature", "radius", "width"):
            if name in init:
                _check_number(errors, f"initial.{name}", init[name], lo=1e-300)
        center = init.get("center")
        if init["kind"] == "two_bump" and "center" in init and not (
                isinstance(center, list) and len(center) == phys["dim"]
                and all(_is_number(c) and math.isfinite(c) for c in center)):
            errors.append(f"initial.center: expected a list of {phys['dim']} numbers, "
                          f"got {center!r}")
        if init["kind"] == "from_file" and not isinstance(init.get("path"), str):
            errors.append(f"initial.path: expected a string, got {init.get('path')!r}")

    if cfg["frame"] not in ("original", "rescaled"):
        errors.append(f"frame: expected 'original' or 'rescaled', got {cfg['frame']!r}")

    out = cfg["output"]
    _check_number(errors, "output.cadence", out.get("cadence"), lo=1e-300)
    if not isinstance(out.get("directory"), str):
        errors.append("output.directory: expected a string")
    snaps = out.get("snapshot_times")
    if not isinstance(snaps, list):
        errors.append("output.snapshot_times: expected a list")
    else:  # each in (0, t_final]; the run records nothing outside it
        hi = num["t_final"] if _is_number(num["t_final"]) else None
        for i, t in enumerate(snaps):
            _check_number(errors, f"output.snapshot_times[{i}]", t, lo=1e-300, hi=hi)
    _check_number(errors, "seed", cfg.get("seed"), lo=0, integer=True)

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(cfg)


def parse_config(path):
    """Load and validate a JSON config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: invalid JSON: {exc}"])
    return validate_config(raw)


def config_hash(cfg):
    """Stable short hash of the validated config contents."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _haff_law():
    return {
        "physics": {"e": 0.8, "dim": 3, "rho": 1.0},
        "numerics": {"particles": 100000, "t_final": 100.0},
        "initial": {"kind": "gaussian", "temperature": 1.0},
        "frame": "original",
        "output": {"cadence": 0.25},
    }


def _self_similar():
    return {
        "physics": {"e": 0.8, "dim": 3, "rho": 1.0},
        "numerics": {"particles": 200000, "t_final": 10.0, "bins": 64},
        "initial": {"kind": "gaussian", "temperature": 1.0},
        "frame": "rescaled",
        "output": {"cadence": 0.05, "snapshot_times": [8.0, 10.0]},
    }


def _operator_check():
    return {
        "physics": {"e": 0.8, "dim": 2, "rho": 1.0},
        "numerics": {
            "particles": 2,
            "t_final": 1.0,
            "grid_points": 97,
            "grid_extent": 6.0,
            "quadrature": {"radial_order": 48, "angular_order": 24, "hyperplane_order": 48},
        },
        "frame": "original",
    }


def _stability():
    return {
        "physics": {"e": 0.8, "dim": 3, "rho": 1.0},
        "numerics": {"particles": 50000, "t_final": 5.0, "bins": 48},
        "initial": {"kind": "gaussian", "temperature": 1.0},
        "frame": "rescaled",
        "output": {"cadence": 0.1, "snapshot_times": [1.0, 2.0, 3.0, 4.0, 5.0]},
    }


_PRESETS = {
    "haff-law": _haff_law,
    "self-similar": _self_similar,
    "operator-check": _operator_check,
    "stability": _stability,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name):
    """Named experiment presets encoding the headline checks."""
    if name not in _PRESETS:
        raise ConfigError([f"unknown preset {name!r}; choose from {PRESET_NAMES}"])
    return validate_config(_PRESETS[name]())
