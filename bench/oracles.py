"""Outcome oracles: classify each problem as verified, typed failure, crash or wrong.

They run after the timed loop.  Factorization and pose checks use the
benchmark's own arithmetic in ``dq``; the linkage checks go through the
package's public ``import_linkage``, ``rigidity_check`` and ``trajectory``,
because re-importing and re-checking the exported file is what a user does.

Each check returns ``(reason, worst)``: ``reason`` is None when the output
passes, and ``worst`` is the largest relative error it measured, kept as a
diagnostic only.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

import dq
from workloads import SUCCESS, Problem

VERIFIED = "verified"
TYPED = "typed_failure"   # the program said why it gave no answer
CRASH = "crash"           # an untyped exception escaped cli.main
WRONG = "wrong"           # the program claimed an answer the oracle rejects

RESIDUAL = 1e-8      # factor chain residual, relative to 1 + max|coefficient|
POSE = 1e-7          # projective distance of a synthesized pose
TRACER = 1e-6        # distance of the tracer point from the curve


def _factorizations(report: dict) -> list[tuple[np.ndarray, list[float]]]:
    return [(np.array(f["factors"], dtype=float).reshape(-1, 8), f["multiplier"])
            for f in report["factorizations"]]


def _check_residuals(facts, c: np.ndarray) -> tuple[str | None, float]:
    """Each chain's largest coefficient error against c times its multiplier, relative to c."""
    scale = 1.0 + np.max(np.abs(c))
    groups: dict[tuple, list[int]] = {}
    for k, (f, mult) in enumerate(facts):
        groups.setdefault((len(f), tuple(mult)), []).append(k)
    residual = np.zeros(len(facts))
    for (n, mult), ks in groups.items():  # one batched product per chain length and multiplier
        prods = dq.chain(np.stack([facts[k][0] for k in ks]))
        target = dq.scale_real(c, mult)
        rows = max(prods.shape[1], len(target))
        diff = np.zeros((len(ks), rows, 8))
        diff[:, :prods.shape[1]] += prods
        diff[:, :len(target)] -= target
        residual[ks] = np.max(np.abs(diff), axis=(1, 2)) / scale
    bad = np.flatnonzero(~(residual <= RESIDUAL))
    worst = float(np.max(residual, initial=0.0))
    if bad.size:
        return f"factorization {bad[0]} relative residual {residual[bad[0]]:.3e}", worst
    return None, worst


def check_enumerate(p: Problem, report: dict) -> tuple[str | None, float]:
    """n! distinct factorizations within the residual bound, the constructing chain among them."""
    c, chain, n = p.data["coeffs"], p.data["chain"], p.data["degree"]
    facts = _factorizations(report)
    if len(facts) != math.factorial(n) or any(len(f) != n for f, _ in facts):
        return f"{len(facts)} factorizations, expected {math.factorial(n)} of length {n}", 0.0
    reason, worst = _check_residuals(facts, c)
    if reason:
        return reason, worst
    stacked = np.array([f.ravel() for f, _ in facts])
    scale = 1.0 + np.max(np.abs(stacked))
    gaps = np.max(np.abs(stacked[:, None, :] - stacked[None, :, :]), axis=2)
    np.fill_diagonal(gaps, np.inf)
    if np.min(gaps) <= 1e-7 * scale:
        return "two factorizations coincide", worst
    if np.min(np.max(np.abs(stacked - chain.ravel()), axis=1)) > 1e-6 * scale:
        return "constructing chain missing", worst
    return None, worst


def check_synth(p: Problem, report: dict) -> tuple[str | None, float]:
    """Coupler motion times frame offset visits the poses at t = 0, 1, inf; both chains close."""
    coupler = np.array(report["coupler_motion"]["coeffs"], dtype=float)
    offset = np.array(report["frame_offset"], dtype=float)
    worst = 0.0
    for t, pose in zip((0.0, 1.0, math.inf), p.data["poses"]):
        dist = dq.projective_distance(dq.dqmul(dq.evaluate(coupler, t), offset), pose)
        worst = max(worst, dist)
        if not dist <= POSE:
            return f"pose at t={t} missed by {dist:.3e}", worst
    (h1, k1), (h2, k2) = report["fixed_axes"], report["moving_axes"]
    reason, res = _check_residuals(
        [(np.array([h1, h2]), [1.0]), (np.array([k1, k2]), [1.0])], coupler)
    return (f"axis chain misses the coupler motion: {reason}" if reason else None), max(worst, res)


def _curve_point(v, w, t: float) -> np.ndarray:
    num = np.array([np.polyval(vi[::-1], t) for vi in v], dtype=float)
    return num / np.polyval(np.asarray(w)[::-1], t)


def check_curve(p: Problem, report: dict) -> tuple[str | None, float]:
    """Exported linkage re-imports, stays rigid, and its tracer draws v/w."""
    from motionfactor.linkage import import_linkage, rigidity_check, trajectory

    out = p.data["out"]
    if p.data.get("svg") and not os.path.getsize(os.path.join(out, "linkage.svg")):
        return "empty linkage.svg", 0.0
    with open(os.path.join(out, "linkage.json")) as fh:
        linkage = import_linkage(json.load(fh))
    rig = rigidity_check(linkage, [-2.9, -1.7, -0.6, 0.3, 1.1, 2.2, 3.4])
    if not rig.passes():
        return f"rigidity deviation {rig.max_deviation:.3e}", rig.max_deviation
    if linkage.tracer is None:
        return "no tracer", rig.max_deviation
    ts = np.linspace(-4.05, 4.05, 9)
    pts = trajectory(linkage, linkage.tracer[0], linkage.tracer[1], ts)
    worst = rig.max_deviation
    for t, pt in zip(ts, pts):
        gap = float(np.linalg.norm(pt - _curve_point(p.data["v"], p.data["w"], t)))
        worst = max(worst, gap)
        if not gap <= TRACER:
            return f"tracer off the curve by {gap:.3e} at t={t:.2f}", worst
    return None, worst


def check_product(p: Problem, report: dict) -> tuple[str | None, float]:
    """At least one factorization, and every one reproduces the input within the bound."""
    facts = _factorizations(report)
    if not facts:
        return "no factorization", 0.0
    return _check_residuals(facts, p.data["coeffs"])


CHECKS = {
    "enumerate": check_enumerate,
    "synth": check_synth,
    "curve": check_curve,
    "product": check_product,
}


def classify(p: Problem, code, stdout: str, error: str | None) -> tuple[str, str, float]:
    """Outcome class, a one line reason and the oracle's worst error for one problem.

    ``code`` is what cli.main returned, ``error`` the type name of an exception
    that escaped it, prefixed ``typed:`` for the package's own error classes.
    """
    if error is not None:
        if error.startswith("typed:"):
            return TYPED, error[len("typed:"):], 0.0
        return CRASH, error, 0.0
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        report = {}
    if p.expect != SUCCESS:
        if code == 1 and report.get("error") == p.expect:
            return VERIFIED, "", 0.0
        if code == 0:
            return WRONG, f"succeeded where {p.expect} was the right answer", 0.0
        return TYPED, str(report.get("error", f"exit {code}")), 0.0
    if code != 0:
        return TYPED, str(report.get("error") or report.get("status") or f"exit {code}"), 0.0
    try:
        reason, worst = CHECKS[p.oracle](p, report)
    except Exception as exc:  # an output the oracle cannot even read is a wrong answer
        reason, worst = f"{type(exc).__name__}: {exc}", 0.0
    return (WRONG if reason else VERIFIED), reason or "", worst
