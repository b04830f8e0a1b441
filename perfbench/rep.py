"""One run of one workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --out DIR --result FILE
                             [--trace] [--spans FILE] [--setup-only]

Validates the workload's config, runs `reporting.run_preset` into DIR,
then checks the raw files it wrote and writes a JSON result to FILE.
With --trace every layer in spans.LAYERS is wrapped and the per-layer
metrics are added; without it only the engine spans are kept. With
--setup-only the run stops at the first collision step or quadrature
call and only the set-up time is reported.
"""

import time

T0 = time.perf_counter()  # before numpy and granular are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GATES = {
    "dsmc": ("gate:mass_exact", "gate:momentum_rel_1e-10", "gate:energy_ledger"),
    "operator": ("gate:operator_mass_rel_1e-10", "gate:operator_momentum_rel_1e-10"),
}
COMMON_GATES = ("gate:config_as_validated",)

SELF_S = (
    "dsmc.collide_step", "dsmc.drift_rescale_step", "dsmc.run",
    "kernels.sample_sigma", "kernels.post_collisional",
    "operator.weak_moments", "operator.loss_rate", "operator.dissipation",
    "operator.q_plus_direct", "operator.q_plus_carleman", "operator.DensityGrid.interp",
    "operator.spreading_support", "operator.collision_moment_check",
    "observables.histogram_from_speeds", "reporting.emit_report",
)
CALLS = (
    "dsmc.drift_rescale_step", "dsmc.advance", "kernels.sample_sigma",
    "operator.weak_moments", "operator.q_plus_direct", "operator.q_plus_carleman",
)
TOTAL_S = {
    "dsmc.init_ensemble.s": "dsmc.init_ensemble",
    "kernels.make_kernel.s": "kernels.make_kernel",
    "config.validate_config.s": "config.validate_config",
    "rescale.transfer_moment_series.s": "rescale.transfer_moment_series",
    "io.write_s": "io.write",
    "io.read_s": "io.read",
}
TALLIES = {
    "dsmc.collisions": "count",
    "dsmc.candidates": "count",
    "dsmc.acceptance": "ratio",
    "dsmc.majorant_violations": "count",
    "dsmc.dt_halvings": "count",
}


class SetupDone(Exception):
    """Raised at the first collision step or quadrature call of a
    --setup-only run."""


def validated_config(workload, seed):
    """The preset with the workload's overrides and seed applied, passed
    through config.validate_config so an invalid override set stops the
    run before anything is simulated."""
    from granular import config

    raw = json.loads(json.dumps(config.preset(workload.preset)))
    raw["seed"] = seed
    for path, value in workload.overrides.items():
        node = raw
        *heads, leaf = path.split(".")
        for h in heads:
            node = node[h]
        node[leaf] = value
    return config.validate_config(raw)


def _moments_csv(path):
    import numpy as np

    with open(path) as fh:
        fh.readline()  # comment header
        cols = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {c: data[:, i] for i, c in enumerate(cols)}


def _dsmc_gates(out_dir):
    import numpy as np

    mom = _moments_csv(os.path.join(out_dir, "moments.csv"))
    with open(os.path.join(out_dir, "snapshot_final.json")) as fh:
        tallies = json.load(fh)["tallies"]
    mass, energy = mom["mass"], mom["energy"]
    p = np.stack([mom[c] for c in mom if c in ("px", "py", "pz", "pw")], axis=1)
    p_rel = float(np.max(np.abs(p))) / (mass[0] * np.sqrt(np.max(energy) / mass[0]))
    # E_T - E_0 against the collision and drift tallies; 1e-10 of the
    # largest energy is the tolerance the unit tests use for the ledger
    ledger = (energy[-1] - energy[0]) - tallies["collision_denergy"] - tallies["drift_denergy"]
    ledger_rel = abs(float(ledger)) / float(np.max(energy))
    return [
        ("gate:mass_exact", bool(np.all(mass == mass[0])), float(np.max(np.abs(mass - mass[0])))),
        ("gate:momentum_rel_1e-10", p_rel <= 1e-10, p_rel),
        ("gate:energy_ledger", ledger_rel <= 1e-10, ledger_rel),
    ]


def _operator_gates(out_dir):
    with open(os.path.join(out_dir, "qcheck_summary.json")) as fh:
        res = json.load(fh)["moment_residuals"]
    mass_rel = abs(res["mass_relative"])
    mom_rel = max(abs(x) for x in res["momentum_residual"]) / abs(res["loss_mass"])
    return [
        ("gate:operator_mass_rel_1e-10", mass_rel < 1e-10, mass_rel),
        ("gate:operator_momentum_rel_1e-10", mom_rel < 1e-10, mom_rel),
    ]


def gates(workload, out_dir, cfg):
    """Invariant gates read from the raw files of a finished run. A gate
    whose file or field is missing fails."""
    out = []
    try:
        with open(os.path.join(out_dir, "config.json")) as fh:
            written = json.load(fh)["config"]
        same = written == json.loads(json.dumps(dict(cfg)))
        out.append(("gate:config_as_validated", same, None))
    except (OSError, KeyError, ValueError) as exc:
        out.append(("gate:config_as_validated", False, repr(exc)))
    check = _dsmc_gates if workload.engine == "dsmc" else _operator_gates
    try:
        out += check(out_dir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        out += [(name, False, repr(exc)) for name in GATES[workload.engine]]
    return [(name, bool(ok), value if value is None or isinstance(value, str) else float(value))
            for name, ok, value in out]


def failed_operations(workload):
    """The operations of a run that raised: the report and every gate,
    all failed."""
    return [("report", False)] + [(g, False) for g in COMMON_GATES + GATES[workload.engine]]


def _tallies(out_dir):
    path = os.path.join(out_dir, "snapshot_final.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)["tallies"]


def layer_metrics(stats, counts, tallies, out_dir):
    """The per-layer metrics of a traced run. A metric whose function no
    longer exists in the program is absent; one whose function exists
    but did not run on this workload reads 0."""
    import numpy as np

    m = {}
    for name in SELF_S:
        if name in stats:
            m[f"{name}.self_s"] = (stats[name]["self_s"], "s")
    for name in CALLS:
        if name in stats:
            m[f"{name}.calls"] = (stats[name]["calls"], "count")
    for metric, name in TOTAL_S.items():
        if name in stats:
            m[metric] = (stats[name]["total_s"], "s")
    if "dsmc.advance" in stats:
        d = stats["dsmc.advance"]["durations"]
        p50, p99 = np.percentile(d, [50, 99]) * 1e6 if len(d) else (0.0, 0.0)
        m["dsmc.advance.p50_us"] = (float(p50), "us")
        m["dsmc.advance.p99_us"] = (float(p99), "us")
    for counter, value in counts.items():
        m[counter] = (value, "count")
    for metric, unit in TALLIES.items():
        key = metric.split(".", 1)[1]
        if not tallies or key in tallies:
            m[metric] = (tallies.get(key, 0), unit)
    m["io.bytes_written"] = (
        sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)), "B")
    return m


def run_rep(workload, seed, out_dir, t0, trace=False, spans_path=None, setup_only=False):
    """Run the workload once into out_dir and return its result dict.
    Times count from t0, taken when the process started."""
    marks = {}

    def first_work():
        marks["setup_end"] = time.perf_counter()
        if setup_only:
            raise SetupDone

    layers = spans.LAYERS if trace else [
        layer for layer in spans.LAYERS if layer.name in spans.ENGINE_LAYERS]
    rec = spans.Recorder()
    result = {"workload": workload.name, "seed": seed, "trace": trace}
    try:
        import granular.reporting

        with rec.install(layers), spans.first_call(spans.FIRST_WORK, first_work):
            cfg = validated_config(workload, seed)
            granular.reporting.run_preset(
                workload.preset, out_dir, seed=seed, overrides=workload.overrides)
        result["wall_s"] = time.perf_counter() - t0
    except SetupDone:
        result["setup_s"] = marks["setup_end"] - t0
        return result
    except Exception:  # a run that raises fails all of its operations
        result["error"] = traceback.format_exc()
        result["operations"] = failed_operations(workload)
        return result

    import granular

    result["granular_path"] = os.path.dirname(os.path.abspath(granular.__file__))
    if "setup_end" in marks:
        result["setup_s"] = marks["setup_end"] - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.path.join(out_dir, "report.json")) as fh:
        checks = json.load(fh)["checks"]
    gate_results = gates(workload, out_dir, cfg)
    result["gates"] = gate_results
    result["operations"] = [(f"check:{c['check']}", bool(c["pass"])) for c in checks] + [
        (name, bool(ok)) for name, ok, _ in gate_results]

    stats = rec.aggregate()
    tallies = _tallies(out_dir)
    # collisions_per_s: accepted collisions per second inside dsmc.run, or
    # for the operator the (v, v_star, sigma) triples per second inside
    # weak_moments; absent when the engine function no longer exists
    if workload.engine == "dsmc" and "dsmc.run" in stats:
        result["engine_s"] = stats["dsmc.run"]["total_s"]
        result["engine_work"] = tallies["collisions"]
    elif workload.engine == "operator" and "operator.weak_moments" in stats:
        result["engine_s"] = stats["operator.weak_moments"]["total_s"]
        result["engine_work"] = rec.counts["operator.weak_moments.pair_sigma_evals"]
    if trace:
        result["layers"] = layer_metrics(stats, rec.counts, tallies, out_dir)
        if spans_path:
            rec.write_csv(spans_path)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    result = run_rep(WORKLOADS[args.workload], args.seed, args.out, T0, trace=args.trace,
                     spans_path=args.spans, setup_only=args.setup_only)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
