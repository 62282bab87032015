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


def forward_kinematics_reference(linkage, t_samples):
    """Per-link forward kinematics: one dq_mul_array call per tree edge, loop factor and joint anchor.

    A linkage.Configurations from the spanning tree walked link by link, with
    every joint anchor from classify_generator at 1e-6; errors as
    forward_kinematics raises them, for the first failing sample and its first
    failing check.
    """
    import math

    from motionfactor.dualquat import DQ_ONE, classify_generator, dq_mul_array
    from motionfactor.errors import ExceptionalPoint, NotInGroup, NotOnStudyQuadric, SingularParameter
    from motionfactor.linkage import Configurations

    conj = np.array([1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0])
    eps_conj = np.array([1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0])

    def act_rows(h, point):
        x = np.zeros_like(h)
        x[:, 0] = 1.0
        x[:, 5:] = -np.asarray(point, dtype=float)
        moved = dq_mul_array(dq_mul_array(h, x), h * eps_conj)
        return -moved[:, 5:] / moved[:, :1]

    def canonical_rows(h, t, fails):
        pn = np.sum(h[:, :4] ** 2, axis=1)
        scale = 1.0 + pn + np.sum(h[:, 4:] ** 2, axis=1)
        defect = 2.0 * np.sum(h[:, :4] * h[:, 4:], axis=1)
        fails.append((~(pn > 1e-6 * scale), lambda s: ExceptionalPoint(
            f"primal part vanishes at t = {t[s]}, point lies in the exceptional 3-space")))
        fails.append((~(np.abs(defect) <= 1e-6 * scale), lambda s: NotOnStudyQuadric(
            f"Study defect {defect[s]:.3e} exceeds tolerance at t = {t[s]}")))
        rep = h * (1.0 / np.sqrt(pn))[:, None]
        lead = rep[np.arange(len(rep)), np.argmax(np.abs(rep[:, :4]), axis=1)]
        rep[lead < 0.0] *= -1.0
        return rep

    t = np.asarray(t_samples, dtype=float).reshape(-1)
    home = np.isinf(t)
    fails = []
    with np.errstate(all="ignore"):
        quads = np.array([norm_quadratic(j.generator).coeffs for j in linkage.graph.joints])
        c0, c1, c2 = quads.T[:, :, None]
        near = ~(np.abs((c2 * t + c1) * t + c0) >= 1e-3 * (1.0 + t * t)).all(axis=0)
        fails.append((~home & near, lambda s: SingularParameter(
            f"t = {t[s]} is not a number" if math.isnan(t[s])
            else f"t = {t[s]} is within 0.001 of a norm polynomial root")))
        evals = {}
        for j in linkage.graph.joints:
            g = np.multiply.outer(t, DQ_ONE.as_array()) - j.generator.as_array()
            g[home] = DQ_ONE.as_array()
            evals[j.id] = g
        neighbors = {l.id: [] for l in linkage.graph.links}
        for jid, a, b in linkage.orientations:
            neighbors[a].append((b, jid, True))
            neighbors[b].append((a, jid, False))
        raw = {linkage.ground: np.tile(DQ_ONE.as_array(), (len(t), 1))}
        stack = [linkage.ground]
        while stack:
            cur = stack.pop()
            for nxt, jid, forward in neighbors[cur]:
                if nxt not in raw:
                    g = evals[jid]
                    raw[nxt] = dq_mul_array(raw[cur], g if forward else g * conj)
                    stack.append(nxt)
        disp = {lid: canonical_rows(g, t, fails) for lid, g in raw.items()}
        for g in disp.values():
            re = np.sum(g[:, :4] ** 2, axis=1)
            du = 2.0 * np.sum(g[:, :4] * g[:, 4:], axis=1)
            fails.append((~(np.abs(du) <= 1e-6 * (1.0 + re)), lambda s, du=du: NotInGroup(
                f"Study defect {du[s]:.3e} exceeds tolerance at t = {t[s]}")))
        positions = {}
        for jid, a, _ in linkage.orientations:
            anchor = classify_generator(linkage.graph.joint(jid).generator, 1e-6).anchor_point()
            positions[jid] = act_rows(disp[a], anchor)
        residuals = [np.zeros(len(t))]
        for left, right in linkage.loops:
            ends = []
            for chain in (left, right):
                prod = evals[chain[0]]
                for jid in chain[1:]:
                    prod = dq_mul_array(prod, evals[jid])
                ends.append(canonical_rows(prod, t, fails))
            u, v = ends
            residuals.append(np.minimum(np.linalg.norm(u - v, axis=1), np.linalg.norm(u + v, axis=1)))
    bad = np.array([mask for mask, _ in fails])
    hit = np.flatnonzero(bad.any(axis=0))
    if hit.size:
        s = int(hit[0])
        raise fails[int(np.argmax(bad[:, s]))][1](s)
    return Configurations(t, disp, positions, np.max(residuals, axis=0))
