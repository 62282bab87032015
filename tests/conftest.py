"""Shared builders and independent oracles for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from motionfactor.dualquat import DualQuaternion, Q_ONE, Quaternion, normalize_pose
from motionfactor.polyring import DQPoly, MotionPolynomial, RealPoly, validate_motion


def dq(pw=0.0, px=0.0, py=0.0, pz=0.0, qw=0.0, qx=0.0, qy=0.0, qz=0.0) -> DualQuaternion:
    return DualQuaternion(Quaternion(pw, px, py, pz), Quaternion(qw, qx, qy, qz))


def coeff_residual(a: DQPoly, b: DQPoly) -> float:
    n = max(len(a.coeffs), len(b.coeffs), 1)
    return max((a.coeff(k) - b.coeff(k)).max_abs() for k in range(n))


def product_of(factors) -> DQPoly:
    out = DQPoly.of([1.0])
    for h in factors:
        out = out * DQPoly.t_minus(h)
    return out


def residual_reference(f, c: DQPoly) -> float:
    """Reconstruction residual of a Factorization from chained DQPoly products."""
    return coeff_residual(product_of(f.factors), c * f.multiplier)


def pairwise_dedupe(fs, tol: float = 1e-7):
    """Reference dedupe: drop a factorization within tol of an earlier kept one, then sort."""
    from motionfactor.factorization import _factor_sort_key

    out = []
    for f in fs:
        if not any(
            len(f.factors) == len(g.factors)
            and all((a - b).max_abs() <= tol for a, b in zip(f.factors, g.factors))
            for g in out
        ):
            out.append(f)
    return sorted(out, key=_factor_sort_key)


def random_rotation_generator(rng, axis_direction=None, scalar=None) -> DualQuaternion:
    """Rotation generator c + rho*d + eps*rho*(d x a) about a random line."""
    c = rng.uniform(-1.5, 1.5) if scalar is None else scalar
    if axis_direction is None:
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
    else:
        d = np.asarray(axis_direction, dtype=float)
        d = d / np.linalg.norm(d)
    a = rng.normal(size=3)
    rho = rng.uniform(0.5, 2.0)
    return DualQuaternion(
        Quaternion(c, *(rho * d)), Quaternion(0.0, *(rho * np.cross(d, a)))
    )


def random_translation_generator(rng) -> DualQuaternion:
    """Translation generator c + eps*v along a random direction."""
    return DualQuaternion(Quaternion(rng.uniform(-1.5, 1.5)), Quaternion(0.0, *rng.normal(size=3)))


def report_json_reference(rep) -> dict:
    """Per-factor serializer of a FactorizationReport: one classify_generator call per factor."""
    from motionfactor.dualquat import classify_generator

    return {
        "status": rep.status,
        "multiplier": list(rep.multiplier.coeffs),
        "factorizations": [{
            "factors": [list(h.as_array()) for h in f.factors],
            "multiplier": list(f.multiplier.coeffs),
            "kinds": [classify_generator(h).kind for h in f.factors],
        } for f in rep.factorizations],
        "diagnostics": list(rep.diagnostics),
    }


def norm_quadratic(h: DualQuaternion) -> RealPoly:
    return RealPoly((h.primal.norm(), -2.0 * h.primal.scalar(), 1.0))


def random_generic_motion(rng, degree: int, planar=False) -> tuple[MotionPolynomial, list[DualQuaternion]]:
    """Monic motion polynomial built from rotation factors with separated norms."""
    from motionfactor.polyring import max_real_factor

    while True:
        factors = []
        quads = []
        while len(factors) < degree:
            h = random_rotation_generator(rng, axis_direction=(0, 0, 1) if planar else None)
            q = norm_quadratic(h)
            if all((q - q2).max_abs() > 0.05 for q2 in quads):
                factors.append(h)
                quads.append(q)
        c = validate_motion(product_of(factors))
        if max_real_factor(c.poly).degree <= 0:
            return c, factors


def random_pose(rng):
    p = rng.normal(size=4)
    p /= np.linalg.norm(p)
    pq = Quaternion(*p)
    translation = rng.normal(size=3)
    q = Quaternion(0.0, *translation) * pq * (-0.5)
    return normalize_pose(DualQuaternion(pq, q))


def general_position_poses(rng, n=3):
    """Pose tuples resampled until the pairing forms are safely nonzero."""
    from motionfactor.dualquat import study_form

    while True:
        poses = [random_pose(rng) for _ in range(n)]
        forms = [
            abs(study_form(poses[i].rep, poses[j].rep))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        if min(forms) > 1e-2:
            return poses


def brute_right_eval(c: DQPoly, h: DualQuaternion) -> DualQuaternion:
    """Independent oracle: explicit sum of c_i * h**i with precomputed powers."""
    power = DualQuaternion(Q_ONE)
    acc = DualQuaternion()
    for coeff in c.coeffs:
        acc = acc + coeff * power
        power = power * h
    return acc


def sympy_real_factor_oracle(component_coeffs: list[list[int]]):
    """Divisor enumeration oracle for the common real factor of integer polynomials.

    Factors the first nonzero component over the rationals, enumerates every
    monic divisor assembled from its irreducible factors and returns the
    highest degree divisor dividing all components exactly.
    """
    import sympy

    t = sympy.Symbol("t")
    polys = []
    for coeffs in component_coeffs:
        p = sympy.Poly(list(reversed(coeffs)), t, domain="QQ")
        if not p.is_zero:
            polys.append(p)
    assert polys, "all components are zero"
    _, factor_list = sympy.factor_list(polys[0])
    choices = [(sympy.Poly(f, t), k) for f, k in factor_list]
    best = sympy.Poly(1, t)
    stack = [(0, sympy.Poly(1, t))]
    while stack:
        idx, current = stack.pop()
        if idx == len(choices):
            if current.degree() > best.degree() and all(
                sympy.rem(p, current, t) == 0 for p in polys
            ):
                best = current
            continue
        f, mult = choices[idx]
        prod = sympy.Poly(1, t)
        for e in range(mult + 1):
            stack.append((idx + 1, current * prod))
            prod = prod * f
    best = best.monic()
    return [float(c) for c in reversed(best.all_coeffs())]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
