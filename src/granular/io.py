"""CSV/JSON persistence for runs. Every file carries a comment header
with schema version, config hash and seed so reports can be rebuilt
from raw outputs alone. Radial histograms have one format, with the
edges of each shell written out, so uniform and non-uniform binnings
read back exactly."""

import json
import os

import numpy as np

from .observables import VelocityHistogram

__all__ = [
    "write_moments_csv",
    "read_moments_csv",
    "write_hist_csv",
    "read_hist_csv",
    "write_snapshot_json",
    "write_transfer_csv",
    "write_json",
    "read_json",
    "fmt",
]


def fmt(x):
    """Shortest round-trip float formatting (bit-stable across runs)."""
    return repr(float(x))


def _header(meta):
    items = " ".join(f"{k}={v}" for k, v in meta.items())
    return f"# {items}\n"


def _parse_header(line):
    meta = {}
    for tok in line.lstrip("#").split():
        if "=" in tok:
            k, v = tok.split("=", 1)
            meta[k] = v
    return meta


def write_moments_csv(path, run_out, extra_meta=None):
    meta = {
        "schema": 1,
        "kind": "moments",
        "config_hash": (extra_meta or {}).get("config_hash", "none"),
        "seed": run_out.metadata["seed"],
        "frame": run_out.metadata["frame"],
        "dim": run_out.metadata["dim"],
        "rho": run_out.metadata["rho"],
        "e": run_out.metadata["e"],
    }
    dim = run_out.metadata["dim"]
    mom_cols = ",".join(f"p{ax}" for ax in "xyzw"[:dim])
    powers = sorted(run_out.speed_moments)
    with open(path, "w") as fh:
        fh.write(_header(meta))
        fh.write(f"t,mass,{mom_cols},energy," + ",".join(f"m{p}" for p in powers) + "\n")
        for k in range(len(run_out.times)):
            row = [run_out.times[k], run_out.mass[k], *run_out.momentum[k], run_out.energy[k]]
            row += [run_out.speed_moments[p][k] for p in powers]
            fh.write(",".join(fmt(x) for x in row) + "\n")


def read_moments_csv(path):
    with open(path) as fh:
        meta = _parse_header(fh.readline())
        cols = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    out = {"meta": meta, "columns": cols}
    for i, c in enumerate(cols):
        out[c] = data[:, i]
    dim = int(meta.get("dim", 3))
    out["momentum"] = data[:, 2 : 2 + dim]
    return out


def write_hist_csv(path, hist, extra_meta=None):
    """Radial histogram with explicit (possibly non-uniform) shell edges; the
    header also carries the binned mass and the count clipped above the last edge."""
    meta = {
        "schema": 1,
        "kind": "hist",
        "config_hash": (extra_meta or {}).get("config_hash", "none"),
        "seed": (extra_meta or {}).get("seed", "none"),
        "frame": hist.frame,
        "time": fmt(hist.time),
        "dim": hist.dim,
        "mass": fmt(hist.mass),
        "clipped": hist.clipped,
    }
    with open(path, "w") as fh:
        fh.write(_header(meta))
        fh.write("r_lo,r_hi,g_radial,count\n")
        for lo, hi, d, c in zip(hist.edges[:-1], hist.edges[1:], hist.density, hist.counts):
            fh.write(f"{fmt(lo)},{fmt(hi)},{fmt(d)},{int(c)}\n")


def read_hist_csv(path):
    with open(path) as fh:
        meta = _parse_header(fh.readline())
        fh.readline()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
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


def write_snapshot_json(path, run_out, time, extra_meta=None):
    payload = {
        "schema": 1,
        "kind": "snapshot",
        "config_hash": (extra_meta or {}).get("config_hash", "none"),
        "time": time,
        "metadata": run_out.metadata,
        "tallies": run_out.tallies,
    }
    write_json(path, payload)


def write_transfer_csv(path, source_times, target_times, values, k, direction, meta=None):
    hdr = {
        "schema": 1,
        "kind": "transfer",
        "direction": direction,
        "moment_order": k,
    }
    hdr.update(meta or {})
    with open(path, "w") as fh:
        fh.write(_header(hdr))
        fh.write("source_time,target_time,value\n")
        for s, t, v in zip(source_times, target_times, values):
            fh.write(f"{fmt(s)},{fmt(t)},{fmt(v)}\n")


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
