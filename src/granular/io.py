"""CSV/JSON persistence for runs, so reports can be rebuilt from raw
outputs alone.

Every CSV file is one table, written by `write_table` and read by
`read_table`: a header line `# schema=1 kind=<kind> k=v ...` (config
hash, seed and whatever else the kind records), a line of column names,
and one comma-separated row per record. Each cell is the shortest
round-trip repr of a float (`fmt`), except in a column named `count`,
which holds integers. The named readers and writers below fix the
columns of their kind. Radial histograms write the edges of each shell,
so uniform and non-uniform binnings read back exactly."""

import json
import os

import numpy as np

from .observables import VelocityHistogram

__all__ = [
    "write_table",
    "read_table",
    "write_moments_csv",
    "read_moments_csv",
    "write_hist_csv",
    "read_hist_csv",
    "write_transfer_csv",
    "write_json",
    "read_json",
    "fmt",
]


def fmt(x):
    """Shortest round-trip float formatting (bit-stable across runs)."""
    return repr(float(x))


def _fmt_count(x):
    return str(int(x))


def write_table(path, kind, meta, columns, rows):
    """Write one table: the header of kind and meta, the column names,
    then each row of len(columns) numbers."""
    cell = [_fmt_count if c == "count" else fmt for c in columns]
    head = " ".join(f"{k}={v}" for k, v in {"schema": 1, "kind": kind, **meta}.items())
    with open(path, "w") as fh:
        fh.write(f"# {head}\n" + ",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f(x) for f, x in zip(cell, row, strict=True)) + "\n")


def read_table(path):
    """(meta, columns, data) of a table written by write_table: the
    header as a dict of strings, the column names, and a float array
    with one column per name."""
    with open(path) as fh:
        meta = dict(tok.split("=", 1) for tok in fh.readline().lstrip("#").split() if "=" in tok)
        columns = fh.readline().strip().split(",")
        lines = [line for line in fh if line.strip()]
    # loadtxt warns on input without rows, so a table with none skips it
    data = np.loadtxt(lines, delimiter=",", ndmin=2) if lines else np.empty((0, len(columns)))
    if data.shape[1] != len(columns):
        raise ValueError(f"{path}: rows of {data.shape[1]} values under {len(columns)} columns")
    return meta, columns, data


def write_moments_csv(path, run_out, extra_meta=None):
    md, extra = run_out.metadata, extra_meta or {}
    meta = {"config_hash": extra.get("config_hash", "none"),
            **{k: md[k] for k in ("seed", "frame", "dim", "rho", "e")},
            **{k: extra[k] for k in ("tau",) if k in extra}}
    powers = sorted(run_out.speed_moments)
    columns = ["t", "mass", *(f"p{ax}" for ax in "xyzw"[: md["dim"]]), "energy",
               *(f"m{p}" for p in powers)]
    rows = ([run_out.times[k], run_out.mass[k], *run_out.momentum[k], run_out.energy[k],
             *(run_out.speed_moments[p][k] for p in powers)] for k in range(len(run_out.times)))
    write_table(path, "moments", meta, columns, rows)


def read_moments_csv(path):
    meta, cols, data = read_table(path)
    out = {"meta": meta, "columns": cols}
    for i, c in enumerate(cols):
        out[c] = data[:, i]
    out["momentum"] = data[:, 2 : 2 + int(meta.get("dim", 3))]
    return out


def write_hist_csv(path, hist, extra_meta=None):
    """Radial histogram with explicit (possibly non-uniform) shell edges; the
    header also carries the binned mass and the count clipped above the last edge."""
    meta = {
        "config_hash": (extra_meta or {}).get("config_hash", "none"),
        "seed": (extra_meta or {}).get("seed", "none"),
        "frame": hist.frame,
        "time": fmt(hist.time),
        "dim": hist.dim,
        "mass": fmt(hist.mass),
        "clipped": hist.clipped,
    }
    rows = zip(hist.edges[:-1], hist.edges[1:], hist.density, hist.counts)
    write_table(path, "hist", meta, ["r_lo", "r_hi", "g_radial", "count"], rows)


def read_hist_csv(path):
    meta, _, data = read_table(path)
    if "mass" not in meta:
        raise ValueError(f"{path}: histogram header has no mass= (written by an older version)")
    return VelocityHistogram(
        edges=np.concatenate([data[:, 0], data[-1:, 1]]),
        density=data[:, 2],
        counts=data[:, 3],
        mass=float(meta["mass"]),
        dim=int(meta["dim"]),
        frame=meta.get("frame", "original"),
        time=float(meta.get("time", 0.0)),
        clipped=int(meta["clipped"]),
    )


def write_transfer_csv(path, source_times, target_times, values, k, direction, meta=None):
    write_table(path, "transfer", {"direction": direction, "moment_order": k, **(meta or {})},
                ["source_time", "target_time", "value"], zip(source_times, target_times, values))


def write_json(path, payload):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
