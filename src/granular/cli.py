"""Command-line interface: granular <subcommand> --config ...

Every subcommand is a thin layer over the one pipeline in `reporting`:
simulate and selfsim (rescaled frame) call `reporting.simulate`, qcheck
and preset run an experiment and its report, haff and tail apply the
preset check functions to a raw file, report rebuilds a report from a
run directory, and transfer maps a moment series between frames.

Exit codes: 0 when every check passes (or nothing is checked), 1 when a
check fails, 2 when an input is invalid (config, file or fit window).
"""

import argparse
import json
import os
import sys

from . import io as gio
from .config import PRESET_NAMES, parse_config, validate_config
from .dsmc import FRAME_RESCALED
from .rescale import transfer_moment_series
from .reporting import (
    emit_report,
    haff_slope_check,
    run_experiment,
    run_preset,
    simulate,
    tail_order_one_check,
)


def _load_config(args):
    if args.config:
        cfg = parse_config(args.config)
    else:
        cfg = validate_config({})
    if args.seed is not None:
        cfg["seed"] = args.seed
        cfg = validate_config(dict(cfg))
    return cfg


def _out_dir(args, cfg):
    out = args.out or cfg["output"]["directory"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(args, force_frame=None):
    cfg = _load_config(args)
    if force_frame:
        cfg["frame"] = force_frame
    out_dir = _out_dir(args, cfg)
    simulate(cfg, out_dir)
    print(f"wrote {out_dir}/moments.csv")
    return 0


def _print_report(report, out_dir):
    with open(os.path.join(out_dir, "report.txt")) as fh:
        print(fh.read())
    return 0 if report["all_pass"] else 1


def cmd_qcheck(args):
    cfg = _load_config(args)
    out_dir = _out_dir(args, cfg)
    return _print_report(run_experiment("operator-check", cfg, out_dir), out_dir)


def _print_check(check, out):
    payload = {"checks": [check], "all_pass": check["pass"]}
    if out:
        gio.write_json(out, payload)
    print(json.dumps(payload, indent=2))
    return 0 if check["pass"] else 1


def cmd_haff(args):
    mom = gio.read_moments_csv(args.input)
    check, _, _ = haff_slope_check(mom, args.window, args.tolerance)
    return _print_check(check, args.out)


def cmd_tail(args):
    hist = gio.read_hist_csv(args.input)
    window = tuple(args.window) if args.window else None
    return _print_check(tail_order_one_check(hist, window), args.out)


def cmd_transfer(args):
    mom = gio.read_moments_csv(args.input)
    col = {0: "mass", 2: "energy"}.get(args.k, f"m{args.k}")
    if col not in mom:
        print(f"error: column {col} not present in {args.input}", file=sys.stderr)
        return 2
    tgt, vals, src = transfer_moment_series(mom["t"], mom[col], args.k, args.direction)
    gio.write_transfer_csv(args.out, src, tgt, vals, args.k, args.direction,
                           {"config_hash": mom["meta"].get("config_hash", "none")})
    print(f"wrote {args.out}")
    return 0


def cmd_preset(args):
    out_dir = args.out or args.name
    return _print_report(run_preset(args.name, out_dir, seed=args.seed), out_dir)


def cmd_report(args):
    return _print_report(emit_report(args.dir), args.dir)


def build_parser():
    p = argparse.ArgumentParser(
        prog="granular",
        description="Inelastic hard-sphere gas: DSMC runs, operator checks, fits",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config path")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", help="output directory")

    sp = sub.add_parser("simulate", help="run DSMC in the configured frame")
    add_common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("selfsim", help="run DSMC in the rescaled frame")
    add_common(sp)
    sp.set_defaults(fn=lambda a: cmd_simulate(a, force_frame=FRAME_RESCALED))

    sp = sub.add_parser("qcheck", help="deterministic operator cross-validation")
    add_common(sp)
    sp.set_defaults(fn=cmd_qcheck)

    sp = sub.add_parser("haff", help="fit the cooling exponent of a moments.csv")
    sp.add_argument("--input", required=True)
    sp.add_argument("--window", nargs=2, type=float, default=[10.0, 100.0])
    sp.add_argument("--tolerance", type=float, default=0.15)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_haff)

    sp = sub.add_parser("tail", help="fit tail order of a histogram CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--window", nargs=2, type=float, default=None)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_tail)

    sp = sub.add_parser("transfer", help="map a moment series between frames")
    sp.add_argument("--input", required=True)
    sp.add_argument("--direction", choices=["g2f", "f2g"], required=True)
    sp.add_argument("-k", type=int, default=2, help="moment order |v|^k")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_transfer)

    sp = sub.add_parser("preset", help="run a named end-to-end experiment")
    sp.add_argument("--name", choices=list(PRESET_NAMES), required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_preset)

    sp = sub.add_parser("report", help="rebuild the report from raw outputs")
    sp.add_argument("--dir", required=True)
    sp.set_defaults(fn=cmd_report)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
