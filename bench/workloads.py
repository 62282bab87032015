"""Seeded problem generators, one per workload.

Problem ``i`` of a workload depends only on the seed and ``i``, so a run that
gets through more problems in its time sees the same first problems as a
slower one.  Mixes repeat in cycles whose order is shuffled per cycle, which
keeps the share of each problem kind fixed from seed to seed.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import dq

SUCCESS = "success"


@dataclass
class Problem:
    """One command line invocation with what its oracle needs to judge it."""

    kind: str    # label of the problem class within the workload's mix
    oracle: str  # which check in oracles.CHECKS judges a successful output
    argv: list[str]
    expect: str  # "success" or the name of the typed error that is the right answer
    data: dict = field(default_factory=dict)


def _write(path: str, payload) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _separated_rotations(rng, degree: int, avoid=(), gap: float = 0.05) -> list[np.ndarray]:
    """Rotation generators whose norm quadratics differ pairwise (and from avoid) by over gap."""
    quads = [np.asarray(q, dtype=float) for q in avoid]
    factors = []
    while len(factors) < degree:
        h = dq.rotation_generator(rng)
        q = dq.norm_quadratic(h)
        if all(np.max(np.abs(q - q2)) > gap for q2 in quads):
            factors.append(h)
            quads.append(q)
    return factors


def _has_real_primal_factor(c: np.ndarray, factors) -> bool:
    """True when a norm quadratic of the factors divides every primal component."""
    scale = 1.0 + np.max(np.abs(c))
    for h in factors:
        m = dq.norm_quadratic(h)[::-1]
        rems = [np.polydiv(c[::-1, i], m)[1] for i in range(4)]
        if max(np.max(np.abs(r)) for r in rems) <= 1e-6 * scale:
            return True
    return False


def generic_motion(rng, degree: int, avoid=(), conditioned: bool = False) -> tuple[np.ndarray, list[np.ndarray]]:
    """Monic product of rotations with separated norms and no real primal factor.

    With ``conditioned``, the norm quadratics differ pairwise by over
    CONDITIONED_GAP and no vector component has a leading coefficient the
    tool's arithmetic would trim (see _lead_trimmed).
    """
    gap = CONDITIONED_GAP if conditioned else 0.05
    while True:
        factors = _separated_rotations(rng, degree, avoid, gap)
        c = dq.chain(factors)
        if not _has_real_primal_factor(c, factors) and not (conditioned and _lead_trimmed(c)):
            return c, factors


# Norm quadratics closer than this put clustered roots into the tool's root
# finder, and the error of about 1e-10 in the quadratic factors grows to 2e-8
# in the computed factors, which then fail the tool's own check of its output
# (bench/README.md, "Known failures").
CONDITIONED_GAP = 0.3
LEAD_MIN = 1e-3


def _lead_trimmed(c: np.ndarray) -> bool:
    """True when a vector component of c has a leading coefficient below LEAD_MIN (1 + max|c|).

    The t^(n-1) coefficients of the primal and dual vector parts of a monic
    motion are the only leading coefficients of its components that are not
    fixed.  The tool trims the leading coefficient of a product polynomial
    when it is below about 1e-9 times the product's largest one, so a squared
    or multiplied component whose leading coefficient is near 1e-4 loses it,
    the norm polynomial comes out wrong by about 1e-9, and every factor
    inherits that error until it fails the tool's own check of its output
    (bench/README.md, "Known failures").  The bound keeps such a product
    about a thousand times above the trimming threshold.
    """
    lead = np.abs(c[-2, [1, 2, 3, 5, 6, 7]])
    return bool(np.min(lead) < LEAD_MIN * (1.0 + np.max(np.abs(c))))


# -- enumerate ---------------------------------------------------------------

# p50 falls inside the degree 4 block and p90 inside the degree 5 block
ENUMERATE_DEGREES = [3, 3, 3, 4, 4, 4, 4, 5, 5, 5]
REPARAM_SCALES = (0.1, 10.0)


def enumerate_problem(seed: int, i: int, workdir: str, full: bool = False) -> Problem:
    n = len(ENUMERATE_DEGREES)
    cycle, slot = divmod(i, n)
    rng = np.random.default_rng([seed, 1, cycle])
    order = rng.permutation(n)
    reparam_slot = int(rng.integers(n))
    degree = ENUMERATE_DEGREES[order[slot]]
    rng = np.random.default_rng([seed, 1, cycle, slot])
    c, factors = generic_motion(rng, degree, conditioned=not full)
    kind = f"deg{degree}"
    if full and slot == reparam_slot:
        # C(s*t) / s**n: the same motion at another speed, still n! factorizations
        s = REPARAM_SCALES[cycle % 2]
        c = c * (s ** (np.arange(len(c)) - degree))[:, None]
        factors = [h / s for h in factors]
        kind = f"deg{degree}-s{s:g}"
    path = _write(os.path.join(workdir, f"p{i}.json"), {"coeffs": c.tolist()})
    return Problem(kind, "enumerate", ["factor", path, "--all"], SUCCESS,
                   {"coeffs": c, "chain": np.array(factors), "degree": degree})


# -- synth -------------------------------------------------------------------

LEADING_TERM_MIN = 1e-7  # well above the 1e-9 below which the tool trims a coefficient


def _defect_trimmed(poses) -> bool:
    """True when the tool would trim part of the conic's leading Study defect as zero.

    The interpolating conic's t^2 coefficient is r2 * q01.  The tool sums the
    Study defect of the conic over the four coordinates, p_i * q_i, and drops
    a leading coefficient below about 1e-9 from each product and each partial
    sum.  When a term or partial sum of the t^2 coefficient is that small, a
    spurious defect of the same size is left over and the tool rejects a valid
    triple with DegeneratePoses (bench/README.md, "Known failures").
    """
    r2, q01 = poses[2], dq.study_form(poses[0], poses[1])
    terms = r2[:4] * r2[4:] * q01 ** 2
    return bool(min(np.min(np.abs(terms)), np.min(np.abs(np.cumsum(terms)[:3]))) < LEADING_TERM_MIN)


def _general_position_poses(rng) -> list[np.ndarray]:
    while True:
        poses = [dq.random_pose(rng) for _ in range(3)]
        forms = [abs(dq.study_form(poses[a], poses[b])) for a, b in ((0, 1), (0, 2), (1, 2))]
        if min(forms) > 1e-2 and not _defect_trimmed(poses):
            return poses


SYNTH_CYCLE = 10  # one triple in ten repeats a pose


def synth_problem(seed: int, i: int, workdir: str) -> Problem:
    cycle, slot = divmod(i, SYNTH_CYCLE)
    repeat_slot = int(np.random.default_rng([seed, 2, cycle]).integers(SYNTH_CYCLE))
    rng = np.random.default_rng([seed, 2, cycle, slot])
    poses = _general_position_poses(rng)
    kind, expect = "general", SUCCESS
    if slot == repeat_slot:
        a, b = sorted(rng.choice(3, size=2, replace=False))
        poses[b] = poses[a]
        kind, expect = "repeated", "DegeneratePoses"
    path = _write(os.path.join(workdir, f"p{i}.json"), [p.tolist() for p in poses])
    return Problem(kind, "synth", ["synth3", path], expect, {"poses": np.array(poses)})


# -- curve -------------------------------------------------------------------

def _ellipse(rng) -> tuple[list[list[float]], list[float]]:
    """Ellipse with random semi-axes, tilt and centre over w = t^2 + 1.

    With t = tan(theta/2) the curve is c + M (cos theta, sin theta) for
    M = R(phi) diag(a, b) R(psi), and the numerator has degree one exactly
    when c = M e1, the form of the README example (the point at t = inf is
    the origin).  The tilt phi and phase psi move the centre.
    """
    while True:
        a, b = rng.uniform(0.5, 3.0, size=2)
        if abs(a - b) > 0.2:
            break
    phi, psi = rng.uniform(0.0, 2.0 * math.pi, size=2)

    def rot(x):
        return np.array([[math.cos(x), -math.sin(x)], [math.sin(x), math.cos(x)]])

    m = rot(phi) @ np.diag([a, b]) @ rot(psi)
    return [[2.0 * m[0, 0], 2.0 * m[0, 1]], [2.0 * m[1, 0], 2.0 * m[1, 1]], [0.0]], [1.0, 0.0, 1.0]


def _planar_quartic(rng) -> tuple[list[list[float]], list[float]]:
    """Planar quartic over w = (t^2 + 1) q, q = (t - a)^2 + b^2 a second positive quadratic.

    The roots a +- bi of q stay well away from the roots +-i of t^2 + 1.
    """
    a = rng.uniform(-1.0, 1.0)
    b = rng.uniform(2.0, 3.0)
    w = np.convolve([1.0, 0.0, 1.0], [a * a + b * b, -2.0 * a, 1.0])
    x, y = rng.uniform(-2.0, 2.0, size=(2, 5))
    return [x.tolist(), y.tolist(), [0.0]], w.tolist()


def _curve_problem(kind: str, v, w, i: int, workdir: str, options: list[str],
                   exports: list[str]) -> Problem:
    path = _write(os.path.join(workdir, f"p{i}.json"), {"v": v, "w": w})
    out = os.path.join(workdir, f"out{i}")
    argv = options + ["--out", out, "curve", path] + exports
    return Problem(kind, "curve", argv, SUCCESS, {"v": v, "w": w, "out": out, "svg": "svg" in exports})


PLANAR_EXPORTS = ["--export", "svg", "--export", "json"]
CURVE_CYCLE = 5  # in curve-full, four ellipses and one planar quartic


def curve_problem(seed: int, i: int, workdir: str, full: bool = False) -> Problem:
    cycle, slot = divmod(i, CURVE_CYCLE)
    quartic_slot = int(np.random.default_rng([seed, 3, cycle]).integers(CURVE_CYCLE))
    rng = np.random.default_rng([seed, 3, cycle, slot])
    if full and slot == quartic_slot:
        return _curve_problem("quartic", *_planar_quartic(rng), i, workdir, [], PLANAR_EXPORTS)
    return _curve_problem("ellipse", *_ellipse(rng), i, workdir, [], PLANAR_EXPORTS)


# -- spatial -----------------------------------------------------------------

SPATIAL_BUDGET = ["--budget", "60"]
SPATIAL_CYCLE = 4  # three products, one 3-D curve


def spatial_problem(seed: int, i: int, workdir: str) -> Problem:
    cycle, slot = divmod(i, SPATIAL_CYCLE)
    curve_slot = int(np.random.default_rng([seed, 4, cycle]).integers(SPATIAL_CYCLE))
    rng = np.random.default_rng([seed, 4, cycle, slot])
    if slot == curve_slot:
        w = np.convolve([1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
        v = rng.uniform(-2.0, 2.0, size=(3, 5))
        return _curve_problem("curve3d", v.tolist(), w.tolist(), i, workdir, SPATIAL_BUDGET, [])
    t2p1 = np.array([1.0, 0.0, 1.0])
    c, _ = generic_motion(rng, 2, avoid=[t2p1])
    c = dq.scale_real(c, t2p1)
    path = _write(os.path.join(workdir, f"p{i}.json"), {"coeffs": c.tolist()})
    return Problem("product", "product", SPATIAL_BUDGET + ["factor", path], SUCCESS, {"coeffs": c})


# The first three mixes are the ones BENCHMARK.json lists: they leave out the
# inputs the tool is known to fail on.  The "-full" mixes keep them, so that
# fail_ratio and crash_ratio show those defects when run by hand.
WORKLOADS = {
    "enumerate": enumerate_problem,
    "synth": synth_problem,
    "curve": curve_problem,
    "enumerate-full": functools.partial(enumerate_problem, full=True),
    "curve-full": functools.partial(curve_problem, full=True),
    "spatial": spatial_problem,
}

# problems per mix cycle; a run ends on a cycle boundary so every kind gets its share
CYCLES = {
    "enumerate": len(ENUMERATE_DEGREES),
    "synth": SYNTH_CYCLE,
    "curve": CURVE_CYCLE,
    "enumerate-full": len(ENUMERATE_DEGREES),
    "curve-full": CURVE_CYCLE,
    "spatial": SPATIAL_CYCLE,
}
