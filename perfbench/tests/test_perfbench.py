"""Tests of the benchmark itself, on workloads small enough to run in
seconds. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import time

import pytest

import run
from rep import run_rep
from workloads import Workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY_DSMC = Workload("tiny-haff", "haff-law", "dsmc", {
    "numerics.particles": 3000, "numerics.t_final": 12.0})
TINY_OPERATOR = Workload("tiny-operator", "operator-check", "operator", {
    "numerics.grid_points": 11,
    "numerics.quadrature": {"radial_order": 8, "angular_order": 8, "hyperplane_order": 8}})

WORK_COUNTS = (
    "dsmc.collisions", "dsmc.candidates", "dsmc.advance.calls", "kernels.sample_sigma.calls",
    "dsmc.drift_rescale_step.calls", "operator.weak_moments.pair_sigma_evals",
    "operator.DensityGrid.interp.points", "operator.q_plus_direct.calls",
)


def _rep(workload, out_dir, seed=5, trace=True):
    result = run_rep(workload, seed, str(out_dir), time.perf_counter(), trace=trace)
    assert "error" not in result, result["error"]
    return result


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run of each tiny workload: (result, output directory)."""
    out = {}
    for w in (TINY_DSMC, TINY_OPERATOR):
        d = tmp_path_factory.mktemp(w.name)
        out[w.engine] = (_rep(w, d), d)
    return out


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_counts_repeat_exactly_at_fixed_seed(traced, tmp_path):
    for engine, workload in (("dsmc", TINY_DSMC), ("operator", TINY_OPERATOR)):
        first = traced[engine][0]["layers"]
        again = _rep(workload, tmp_path / engine)["layers"]
        for name in WORK_COUNTS:
            assert again[name] == first[name], name
    assert traced["dsmc"][0]["layers"]["dsmc.collisions"][0] > 0
    assert traced["operator"][0]["layers"]["operator.weak_moments.pair_sigma_evals"][0] > 0


def test_wrappers_are_removed_after_a_run(traced):
    import granular.dsmc
    import granular.operator
    import granular.reporting

    for fn in (granular.dsmc.collide_step, granular.reporting.run,
               granular.reporting.weak_moments, granular.operator.DensityGrid.interp):
        assert not hasattr(fn, "__wrapped__")


def test_gates_pass_on_intact_files(traced):
    for result, _ in traced.values():
        assert result["gates"] and all(ok for _, ok, _ in result["gates"])


def _corrupt(src, dst, fname, edit):
    shutil.copytree(src, dst)
    path = os.path.join(dst, fname)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))
    return dst


def _failed_gates(workload, out_dir):
    import rep

    cfg = rep.validated_config(workload, 5)
    return {name for name, ok, _ in rep.gates(workload, str(out_dir), cfg) if not ok}


def _edit_last_row(column, change):
    def edit(text):
        lines = text.splitlines(keepends=True)
        k = lines[1].strip().split(",").index(column)
        row = lines[-1].strip().split(",")
        row[k] = repr(change(float(row[k])))
        lines[-1] = ",".join(row) + "\n"
        return "".join(lines)
    return edit


@pytest.mark.parametrize("column, change, gate", [
    ("mass", lambda m: m * (1.0 + 1e-12), "gate:mass_exact"),
    ("px", lambda p: p + 1e-6, "gate:momentum_rel_1e-10"),
    ("energy", lambda e: e * (1.0 + 1e-6), "gate:energy_ledger"),
])
def test_gates_fail_on_corrupted_moments(traced, tmp_path, column, change, gate):
    bad = _corrupt(traced["dsmc"][1], tmp_path / "bad", "moments.csv", _edit_last_row(column, change))
    assert _failed_gates(TINY_DSMC, bad) == {gate}


def test_gates_fail_on_corrupted_operator_summary(traced, tmp_path):
    def edit(text):
        data = json.loads(text)
        data["moment_residuals"]["mass_relative"] = 1e-6
        data["moment_residuals"]["momentum_residual"][0] = 1e-6
        return json.dumps(data)

    bad = _corrupt(traced["operator"][1], tmp_path / "bad", "qcheck_summary.json", edit)
    assert _failed_gates(TINY_OPERATOR, bad) == {
        "gate:operator_mass_rel_1e-10", "gate:operator_momentum_rel_1e-10"}


def test_gates_fail_on_missing_file(traced, tmp_path):
    bad = shutil.copytree(traced["dsmc"][1], tmp_path / "bad")
    os.remove(os.path.join(bad, "snapshot_final.json"))
    assert {"gate:energy_ledger", "gate:mass_exact"} <= _failed_gates(TINY_DSMC, bad)


def test_setup_only_stops_before_the_first_collision(tmp_path):
    result = run_rep(TINY_DSMC, 5, str(tmp_path), time.perf_counter(), setup_only=True)
    assert result["setup_s"] > 0 and "wall_s" not in result
    assert not os.path.exists(tmp_path / "moments.csv")


def test_every_named_metric_is_emitted_with_its_unit(traced):
    spec = _spec()
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for engine, (result, _) in traced.items():
        untraced = dict(result, layers=None)
        summary = run.summarize([untraced, result], [], trace=True)
        got = {k: m["unit"] for k, m in summary["metrics"].items()}
        assert got == per_layer, engine

        summary = run.summarize([result], [result], trace=False)
        got = {k: m["unit"] for k, m in summary["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in spec["end_to_end"]}, engine
        assert all(m["value"] > 0 for m in summary["metrics"].values()), engine
        line = run.final_line(summary)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] == len(result["operations"])


def test_benchmark_json_names_the_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
