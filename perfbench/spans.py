"""Span recording around the public functions each layer of `granular`
exposes, installed from outside the program by patching each name where
it is looked up.

A span is (name, parent span, start, end). Spans are appended to flat
arrays in memory while the workload runs and aggregated (or written out)
once it has finished. Only the standard library is imported here, so the
benchmark can start its clock before numpy and `granular` load.
"""

import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    """One traced layer: a span name, every (module, attribute path)
    under which callers look the function up, and an optional counter
    (suffix, fn) adding fn(*args, **kwargs) per call."""

    name: str
    where: tuple
    count: tuple | None = None


def _pair_sigma_evals(f, g, psis, law, kernel, quad=None):
    """Computed work of one weak_moments call: nonzero f nodes x nonzero
    g nodes x sigma nodes, the (v, v_star, sigma) triples it sums."""
    import numpy as np
    from granular.operator import QuadratureSpec
    from granular.quadrature import sphere_surface_nodes

    quad = quad or QuadratureSpec()
    n_sigma = len(sphere_surface_nodes(f.dim, quad.angular_order)[0])
    return int(np.count_nonzero(f.values)) * int(np.count_nonzero(g.values)) * n_sigma


def _interp_points(grid, pts):
    import numpy as np

    pts = np.asarray(pts)
    return 1 if pts.ndim == 1 else len(pts)


_IO_WRITERS = ("write_moments_csv", "write_hist_csv", "write_histv_csv",
               "write_snapshot_json", "write_transfer_csv", "write_json")
_IO_READERS = ("read_moments_csv", "read_hist_csv", "read_histv_csv",
               "read_transfer_csv", "read_json")

LAYERS = (
    Layer("dsmc.run", (("granular.reporting", "run"),)),
    Layer("dsmc.advance", (("granular.dsmc", "advance"),)),
    Layer("dsmc.collide_step", (("granular.dsmc", "collide_step"),)),
    Layer("dsmc.drift_rescale_step", (("granular.dsmc", "drift_rescale_step"),)),
    Layer("dsmc.init_ensemble", (("granular.dsmc", "init_ensemble"),)),
    Layer("kernels.sample_sigma", (("granular.dsmc", "sample_sigma"),)),
    Layer("kernels.post_collisional", (("granular.dsmc", "post_collisional"),)),
    Layer("kernels.make_kernel", (("granular.dsmc", "make_kernel"),
                                  ("granular.reporting", "make_kernel"))),
    Layer("config.validate_config", (("granular.config", "validate_config"),)),
    Layer("operator.weak_moments", (("granular.operator", "weak_moments"),
                                    ("granular.reporting", "weak_moments")),
          ("pair_sigma_evals", _pair_sigma_evals)),
    Layer("operator.loss_rate", (("granular.operator", "loss_rate"),
                                 ("granular.reporting", "loss_rate"))),
    Layer("operator.dissipation", (("granular.operator", "dissipation"),)),
    Layer("operator.q_plus_direct", (("granular.reporting", "q_plus_direct"),)),
    Layer("operator.q_plus_carleman", (("granular.reporting", "q_plus_carleman"),)),
    Layer("operator.DensityGrid.interp", (("granular.operator", "DensityGrid.interp"),),
          ("points", _interp_points)),
    Layer("operator.spreading_support", (("granular.reporting", "spreading_support"),)),
    Layer("operator.collision_moment_check", (("granular.reporting", "collision_moment_check"),)),
    Layer("observables.histogram_from_speeds", (("granular.reporting", "histogram_from_speeds"),
                                                ("granular.observables", "histogram_from_speeds"))),
    Layer("io.write", tuple(("granular.io", n) for n in _IO_WRITERS)),
    Layer("io.read", tuple(("granular.io", n) for n in _IO_READERS)),
    Layer("reporting.emit_report", (("granular.reporting", "emit_report"),)),
    Layer("rescale.transfer_moment_series", (("granular.reporting", "transfer_moment_series"),)),
)

# The two spans the untraced run keeps: they time the engine for the
# collisions_per_s metric and are entered a handful of times per run.
ENGINE_LAYERS = ("dsmc.run", "operator.weak_moments")

# The first of these to be called ends set-up: a collision step or a
# call into the operator quadratures.
FIRST_WORK = (
    ("granular.dsmc", "collide_step"),
    ("granular.reporting", "q_plus_direct"),
    ("granular.reporting", "q_plus_carleman"),
    ("granular.reporting", "q_minus"),
    ("granular.reporting", "loss_rate"),
    ("granular.reporting", "weak_moments"),
    ("granular.reporting", "collision_moment_check"),
    ("granular.reporting", "spreading_support"),
)


def _resolve(module, path):
    """(owner, attribute) for `path` inside `module`, or None when the
    module or any part of the path no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *heads, leaf = path.split(".")
    for h in heads:
        owner = getattr(owner, h, None)
        if owner is None:
            return None
    if not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf


@contextmanager
def _patched(replacements):
    """Set each (owner, attr) to its replacement; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class Recorder:
    """In-memory span store. Spans nest through a stack, so a span's
    parent is the innermost span open when it started."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.installed = set()
        self._stack = []

    def _wrap(self, name, fn, count):
        nid = len(self.names)
        self.names.append(name)
        counter = None
        if count is not None:
            counter = f"{name}.{count[0]}"
            self.counts.setdefault(counter, 0)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if counter is not None:
                self.counts[counter] += count[1](*args, **kwargs)
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def install(self, layers):
        """Wrap every location of every layer that still exists. A
        function reachable under several names gets one wrapper, so each
        call is one span whichever name the caller used."""
        replacements = []
        wrappers = {}
        for layer in layers:
            for module, path in layer.where:
                loc = _resolve(module, path)
                if loc is None:
                    continue
                fn = getattr(*loc)
                key = (layer.name, id(fn))
                if key not in wrappers:
                    wrappers[key] = self._wrap(layer.name, fn, layer.count)
                replacements.append((*loc, wrappers[key]))
                self.installed.add(layer.name)
        with _patched(replacements):
            yield self

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r}\n")

    def aggregate(self):
        """Per span name: calls, inclusive seconds of the outermost spans
        of that name (a span nested in one of its own name is not counted
        twice), self seconds (duration minus direct children) and the
        list of durations."""
        import numpy as np

        n = len(self.start)
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": np.zeros(0)}
                 for name in self.installed}
        if n == 0:
            return stats
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child_sum
        label = np.array(self.names, dtype=object)[nid]
        parent_label = np.where(has_parent, label[np.maximum(parent, 0)], None)
        outermost = parent_label != label
        for name in set(self.names):
            mask = label == name
            s = stats[name]
            s["calls"] = int(mask.sum())
            s["total_s"] = float(dur[mask & outermost].sum())
            s["self_s"] = float(self_s[mask].sum())
            s["durations"] = dur[mask]
        return stats


@contextmanager
def first_call(locations, on_first):
    """Call on_first() just before the first call to any function at
    `locations`, then put the originals back so later calls cost
    nothing. on_first may raise to stop the workload there."""
    resolved = [loc for loc in (_resolve(m, p) for m, p in locations) if loc is not None]
    originals = {loc: getattr(*loc) for loc in resolved}
    fired = []

    def make(fn):
        def hook(*args, **kwargs):
            if not fired:
                fired.append(True)
                for (owner, attr), orig in originals.items():
                    setattr(owner, attr, orig)
                on_first()
            return fn(*args, **kwargs)
        return hook

    with _patched([(*loc, make(fn)) for loc, fn in originals.items()]):
        yield
