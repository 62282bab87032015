"""Command line interface: validate, factor, synth3 and curve.

Exit codes: 0 on success, 1 on a domain failure (a JSON diagnostic is printed
to stdout), 2 on usage or parse errors.  All commands are deterministic given
input, configuration and seed.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .config import Config
from .dualquat import DualQuaternion, normalize_pose
from .errors import MotionFactorError
from .factorization import (
    NO_FACTORIZATION,
    SUCCESS,
    FactorizationReport,
    SearchSettings,
    all_factorizations,
    factor_bounded_with_multiplier,
    factor_with_backtracking,
    is_bounded,
    right_multiply_and_factor,
)
from .linkage import export, linkage_to_json
from .polyring import DQPoly, RP_ONE, RealPoly, max_real_factor, validate_motion
from .synthesis import kempe_linkage_for_curve, synthesize_bennett

CONFIG_ENV = "MOTIONFACTOR_CONFIG"


def _load_config(args) -> Config:
    path = os.environ.get(CONFIG_ENV)
    base = _read_json(path) if path else {}
    flags = {"tolerance": args.tol, "backtrack_budget": args.budget,
             "sample_count": args.samples, "seed": args.seed}
    try:
        # a file that is not an object, or a key that is not a field, is a TypeError
        return Config(**{**base, **{k: v for k, v in flags.items() if v is not None}})
    except (TypeError, ValueError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _settings(cfg: Config) -> SearchSettings:
    return SearchSettings(
        tol=cfg.tolerance,
        budget=cfg.backtrack_budget,
        family_samples=cfg.family_samples,
        seed=cfg.seed,
    )


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _read_dqpoly(path: str) -> DQPoly:
    data = _read_json(path)
    try:
        return DQPoly.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed polynomial file {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _fail(payload: dict) -> int:
    print(json.dumps(payload))
    return 1


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    poly = _read_dqpoly(args.input)
    try:
        motion = validate_motion(poly, cfg.tolerance)
    except MotionFactorError as exc:
        return _fail({"valid": False, "error": type(exc).__name__, "detail": str(exc)})
    primal_factor = max_real_factor(poly)
    report = {
        "valid": True,
        "degree": int(motion.degree),
        "norm": list(motion.norm.coeffs),
        "bounded": is_bounded(motion),
        "primal_real_factor": list(primal_factor.coeffs),
        "generic": primal_factor.degree <= 0,
    }
    print(json.dumps(report))
    return 0


def cmd_factor(args) -> int:
    cfg = _load_config(args)
    st = _settings(cfg)
    poly = _read_dqpoly(args.input)
    try:
        motion = validate_motion(poly, cfg.tolerance)
        if args.all:
            monic, _ = motion.monicize(cfg.tolerance)
            facts = tuple(all_factorizations(monic))
            note = ("enumerated permutations of the norm quadratics",)
            rep = FactorizationReport(SUCCESS if facts else NO_FACTORIZATION, facts, RP_ONE, note)
        elif args.multiplier_deg is not None:
            rep = factor_bounded_with_multiplier(motion, max_deg=args.multiplier_deg, settings=st)
        elif args.right_h is not None:
            h_poly = _read_dqpoly(args.right_h)
            rep = right_multiply_and_factor(motion, h_poly, settings=st)
        else:
            rep = factor_with_backtracking(motion, st)
    except MotionFactorError as exc:
        return _fail({"status": "error", "error": type(exc).__name__, "detail": str(exc)})
    print(json.dumps(rep.to_json()))
    return 0 if rep.status == SUCCESS else 1


def cmd_synth3(args) -> int:
    cfg = _load_config(args)
    data = _read_json(args.poses)
    if isinstance(data, dict):
        data = data.get("poses", [])
    if not isinstance(data, list) or len(data) != 3:
        print("error: poses file must hold exactly three 8-tuples", file=sys.stderr)
        return 2
    try:
        rows = [DualQuaternion.from_array(row) for row in data]
        if not all(math.isfinite(x) for h in rows for x in h.as_array()):
            raise ValueError("pose coordinates must be finite")
    except (TypeError, ValueError) as exc:
        print(f"error: malformed poses file: {exc}", file=sys.stderr)
        return 2
    try:
        poses = [normalize_pose(h, cfg.tolerance) for h in rows]
        bennett = synthesize_bennett(*poses, tol=cfg.tolerance)
        linkage = bennett.to_linkage(cfg.tolerance)
    except MotionFactorError as exc:
        return _fail({"error": type(exc).__name__, "detail": str(exc)})
    out = {
        "fixed_axes": [list(h.as_array()) for h in bennett.fixed_axes],
        "moving_axes": [list(h.as_array()) for h in bennett.moving_axes],
        "coupler_motion": bennett.coupler_motion.poly.to_json(),
        "frame_offset": list(bennett.frame_offset.as_array()),
        "linkage": linkage_to_json(linkage),
    }
    print(json.dumps(out))
    return 0


def cmd_curve(args) -> int:
    cfg = _load_config(args)
    st = _settings(cfg)
    data = _read_json(args.curve)
    try:
        v = tuple(RealPoly.of(c) for c in data["v"])
        w = RealPoly.of(data["w"])
        if not all(math.isfinite(x) for p in (*v, w) for x in p.coeffs):
            raise ValueError("curve coefficients must be finite")
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed curve file: {exc}", file=sys.stderr)
        return 2
    if len(v) != 3:
        print("error: curve numerator needs three component polynomials", file=sys.stderr)
        return 2
    m0 = None
    if args.m0:
        try:
            m0 = DualQuaternion.from_array([float(x) for x in args.m0.split(",")])
            if not all(math.isfinite(x) for x in m0.as_array()):
                raise ValueError("--m0 coordinates must be finite")
        except ValueError as exc:
            print(f"error: malformed --m0: {exc}", file=sys.stderr)
            return 2
    try:
        linkage = kempe_linkage_for_curve(v, w, m0=m0, settings=st)
    except MotionFactorError as exc:
        return _fail({"error": type(exc).__name__, "detail": str(exc)})
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    written = []
    formats = args.export or ["json"]
    for fmt in formats:
        path = os.path.join(out_dir, f"linkage.{fmt}")
        with open(path, "wb") as fh:
            fh.write(export(linkage, fmt, {"sample_count": cfg.sample_count}))
        written.append(path)
    summary = {
        "joint_count": len(linkage.graph.joints),
        "link_count": len(linkage.graph.links),
        "loop_count": len(linkage.loops),
        "ground": linkage.ground,
        "tracer": {"link": linkage.tracer[0], "point": list(linkage.tracer[1])},
        "notes": list(linkage.notes),
        "files": written,
    }
    print(json.dumps(summary))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionfactor",
        description="Factor motion polynomials over the dual quaternions and synthesize linkages.",
    )
    parser.add_argument("--tol", type=float, default=None, help="global tolerance")
    parser.add_argument("--budget", type=int, default=None, help="backtracking node budget")
    parser.add_argument("--samples", type=int, default=None, help="export sample count")
    parser.add_argument("--seed", type=int, default=None, help="seed for family sampling")
    parser.add_argument("--out", default=None, help="output directory for generated files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a motion polynomial file")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("factor", help="factor a motion polynomial")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true",
                       help="enumerate all factorizations of a generic input")
    group.add_argument("--multiplier-deg", type=int, default=None,
                       help="search for a real multiplier up to this degree")
    group.add_argument("--right-H", dest="right_h", default=None,
                       help="file with a monic quaternion polynomial to right multiply")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("synth3", help="three pose Bennett synthesis")
    p.add_argument("poses")
    p.set_defaults(func=cmd_synth3)

    p = sub.add_parser("curve", help="build a linkage drawing a rational curve")
    p.add_argument("curve")
    p.add_argument("--m0", default=None,
                   help="extra joint as 8 comma separated numbers")
    p.add_argument("--export", action="append", choices=["json", "svg", "csv"],
                   default=None, help="output formats (repeatable)")
    p.set_defaults(func=cmd_curve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
