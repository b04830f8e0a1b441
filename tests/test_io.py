import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from granular import io as gio
from granular.dsmc import MOMENT_SPEED_POWERS, RunOutput
from granular.observables import equal_volume_edges, histogram_from_speeds

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
ROUND_TRIP = settings(max_examples=60, deadline=None)


@st.composite
def run_outputs(draw):
    rows = draw(st.integers(1, 12))
    dim = draw(st.integers(2, 4))
    col = arrays(float, rows, elements=finite)
    return RunOutput(
        times=draw(col),
        mass=draw(col),
        momentum=draw(arrays(float, (rows, dim), elements=finite)),
        energy=draw(col),
        speed_moments={p: draw(col) for p in MOMENT_SPEED_POWERS},
        snapshots=[],
        tallies={},
        metadata={"seed": draw(st.integers(0, 2**31)), "frame": draw(st.sampled_from(["original", "rescaled"])),
                  "dim": dim, "rho": 1.0, "e": 0.8},
    )


@ROUND_TRIP
@given(out=run_outputs())
def test_moments_csv_round_trip(tmp_path_factory, out):
    path = tmp_path_factory.mktemp("moments") / "moments.csv"
    gio.write_moments_csv(path, out, {"config_hash": "abc", "tau": 0.045})
    back = gio.read_moments_csv(path)
    assert back["meta"]["config_hash"] == "abc"
    assert float(back["meta"]["tau"]) == 0.045
    assert back["meta"]["frame"] == out.metadata["frame"]
    assert int(back["meta"]["dim"]) == out.metadata["dim"]
    for name, want in [("t", out.times), ("mass", out.mass), ("energy", out.energy),
                       ("momentum", out.momentum)]:
        assert np.array_equal(back[name], want), name
    for p in MOMENT_SPEED_POWERS:
        assert np.array_equal(back[f"m{p}"], out.speed_moments[p]), p


@st.composite
def histograms(draw):
    dim = draw(st.integers(2, 4))
    speeds = draw(arrays(float, st.integers(1, 300), elements=st.floats(0.0, 40.0)))
    weight = draw(st.floats(1e-6, 1.0))
    kw = {"frame": draw(st.sampled_from(["original", "rescaled"])),
          "time": draw(st.floats(0.0, 1e4))}
    if draw(st.booleans()):  # uniform bins, as written by simulate
        kw["n_bins"] = draw(st.integers(8, 80))
        kw["r_max"] = draw(st.none() | st.floats(0.5, 50.0))
        if kw["r_max"] is None and speeds.max() < 1e-300:  # too small to bin
            kw["r_max"] = 1.0
    else:  # equal-volume shells, as written by the stability preset
        kw["edges"] = equal_volume_edges(draw(st.floats(0.5, 50.0)), draw(st.integers(2, 40)), dim)
    return histogram_from_speeds(speeds, weight, dim, **kw)


@ROUND_TRIP
@given(hist=histograms())
def test_hist_csv_round_trip(tmp_path_factory, hist):
    path = tmp_path_factory.mktemp("hist") / "hist.csv"
    gio.write_hist_csv(path, hist, {"config_hash": "abc", "seed": 3})
    back = gio.read_hist_csv(path)
    assert np.array_equal(back.edges, hist.edges)
    assert np.array_equal(back.density, hist.density)
    assert np.array_equal(back.counts, hist.counts)
    assert (back.dim, back.frame, back.time) == (hist.dim, hist.frame, hist.time)
    assert (back.mass, back.clipped) == (hist.mass, hist.clipped)


def test_hist_csv_counts_speeds_above_r_max(tmp_path):
    speeds = np.array([0.5, 1.0, 2.0, 3.0, 4.5, 7.0])
    hist = histogram_from_speeds(speeds, 0.25, 3, n_bins=8, r_max=3.0)
    assert hist.clipped == 2
    assert hist.counts.sum() + hist.clipped == len(speeds)
    path = tmp_path / "hist.csv"
    gio.write_hist_csv(path, hist)
    assert "mass=1.0 clipped=2" in path.read_text().splitlines()[0]
    back = gio.read_hist_csv(path)
    assert (back.mass, back.clipped) == (1.0, 2)


def test_hist_csv_without_mass_rejected(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text("# schema=1 kind=hist dim=3\nr_lo,r_hi,g_radial,count\n0.0,1.0,0.5,3\n")
    with pytest.raises(ValueError, match="no mass="):
        gio.read_hist_csv(path)


def _rows(n_cols):
    return st.integers(0, 12).flatmap(lambda n: arrays(float, (n, n_cols), elements=finite))


@ROUND_TRIP
@given(data=_rows(3), k=st.integers(0, 8), direction=st.sampled_from(["g2f", "f2g", "identity"]))
def test_transfer_csv_round_trip(tmp_path_factory, data, k, direction):
    path = tmp_path_factory.mktemp("transfer") / "transfer.csv"
    gio.write_transfer_csv(path, *data.T, k, direction, {"config_hash": "abc"})
    meta, columns, back = gio.read_table(path)
    assert meta == {"schema": "1", "kind": "transfer", "direction": direction,
                    "moment_order": str(k), "config_hash": "abc"}
    assert columns == ["source_time", "target_time", "value"]
    assert np.array_equal(back, data)


# the columns of the tables the operator-check and stability presets write
TABLES = {
    "qcheck": ["e", "v_index", "vx", "vy", "q_plus_direct", "q_plus_carleman", "rel_err",
               "q_minus", "error_estimate"],
    "stability": ["t", "weighted_l1"],
}


def _tables():
    return st.sampled_from(sorted(TABLES)).flatmap(
        lambda kind: st.tuples(st.just(kind), _rows(len(TABLES[kind]))))


@pytest.mark.filterwarnings("error")
@ROUND_TRIP
@given(table=_tables(), seed=st.integers(0, 2**31))
@example(table=("stability", np.empty((0, 2))), seed=1)  # a table with no rows
def test_table_round_trip(tmp_path_factory, table, seed):
    kind, data = table
    columns = TABLES[kind]
    path = tmp_path_factory.mktemp(kind) / f"{kind}.csv"
    gio.write_table(path, kind, {"config_hash": "abc", "seed": seed, "delta": 0.1}, columns, data)
    meta, back_columns, back = gio.read_table(path)
    assert meta == {"schema": "1", "kind": kind, "config_hash": "abc", "seed": str(seed),
                    "delta": "0.1"}
    assert back_columns == columns
    assert np.array_equal(back, data)


def test_count_column_holds_integers(tmp_path):
    path = tmp_path / "t.csv"
    gio.write_table(path, "hist", {}, ["r_lo", "count"], [(0.0, 3), (1.0, 4.0)])
    assert path.read_text().splitlines()[1:] == ["r_lo,count", "0.0,3", "1.0,4"]


def test_row_length_must_match_columns(tmp_path):
    with pytest.raises(ValueError):
        gio.write_table(tmp_path / "t.csv", "moments", {}, ["t", "px"], [(0.0, 1.0, 2.0)])
    path = tmp_path / "short_header.csv"
    path.write_text("# schema=1 kind=moments\nt,px\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="rows of 3 values under 2 columns"):
        gio.read_table(path)
