"""Linkage synthesis from motion polynomial factorizations.

Three poses in general position span a plane whose intersection with the
Study quadric is a conic; a rational quadratic parametrization of that conic
is a motion polynomial whose two factorizations give the four axes of a
Bennett linkage.  Flips rewrite a product of two linear factors with the
factor norms swapped, and chains of flips turn an open chain of revolute
factors into a closed linkage that draws a prescribed bounded rational curve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .dualquat import (
    DQ_ONE,
    DualQuaternion,
    Pose,
    Quaternion,
    act_on_point,
    generator_kinds,
    study_form,
)
from .errors import (
    ConstantRemainder,
    DegenerateFlip,
    DegeneratePoses,
    FactorizationNotFound,
    InsufficientFactorizations,
    InvalidCurve,
    NonGenericConic,
    NonInvertibleLeading,
    UnboundedCurve,
)
from .factorization import (
    SUCCESS,
    SearchSettings,
    _linear_zeros,
    all_factorizations,
    factor_bounded_with_multiplier,
)
from .linkage import Linkage, assemble
from .polyring import (
    DQPoly,
    MotionPolynomial,
    RealPoly,
    chain_product,
    common_real_factor,
    divide_linear,
    max_real_factor,
    mod_quadratic,
    norm_quadratics,
    real_roots_complex,
    validate_motion,
)


@dataclass(frozen=True, slots=True)
class BennettLinkage:
    """Four revolute axes closing a movable spatial loop.

    coupler_motion is monic; the physical coupler carries a probe frame
    offset by frame_offset, so the probe visits pose p at parameter t when
    coupler_motion(t) * frame_offset is proportional to p.
    """

    fixed_axes: tuple[DualQuaternion, DualQuaternion]
    moving_axes: tuple[DualQuaternion, DualQuaternion]
    coupler_motion: MotionPolynomial
    frame_offset: DualQuaternion = DQ_ONE

    def probe_pose(self, t0: float) -> DualQuaternion:
        return self.coupler_motion.eval_at(t0) * self.frame_offset

    def to_linkage(self, tol: float = DEFAULT_TOL) -> Linkage:
        h1, k1 = self.fixed_axes
        h2, k2 = self.moving_axes
        loop = ([("h1", h1), ("h2", h2)], [("k1", k1), ("k2", k2)])
        return assemble([loop], tol=tol)


@dataclass(frozen=True, eq=False)
class FlipResult:
    """Output of a flip: (t - m_prev)(t - h) = (t - k)(t - m), with k and m the rows of a (2, 8) array."""

    rows: np.ndarray
    k = property(lambda self: DualQuaternion.from_array(self.rows[0]))
    m = property(lambda self: DualQuaternion.from_array(self.rows[1]))


def _rank_and_reps(poses: tuple[Pose, ...]) -> tuple[int, list[DualQuaternion]]:
    reps = [p.rep for p in poses]
    mat = np.vstack([r.as_array() for r in reps])
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(svals > 1e-9 * svals[0]))
    return rank, reps


def interpolate_three_poses(
    p0: Pose, p1: Pose, p2: Pose, tol: float = DEFAULT_TOL
) -> MotionPolynomial:
    """Quadratic motion polynomial through the three poses at t = 0, 1, infinity.

    The curve lies on the Study quadric identically.  The interpolation nodes
    are a convention; any Moebius reparametrization gives an equivalent curve.
    Collinear pose triples on the quadric get a quadratic parametrization of
    their common line; other degenerate configurations raise DegeneratePoses.
    """
    rank, reps = _rank_and_reps((p0, p1, p2))
    if rank < 2:
        raise DegeneratePoses("poses are projectively identical")
    r0, r1, r2 = reps
    q01 = study_form(r0, r1)
    q02 = study_form(r0, r2)
    q12 = study_form(r1, r2)
    scale = 1.0 + max(r.max_abs() for r in reps)
    small = [abs(q) <= tol * scale for q in (q01, q02, q12)]
    if rank == 2:
        if not all(small):
            raise DegeneratePoses("two poses coincide projectively")
        return _interpolate_on_line(r0, r1, r2, tol)
    if all(small):
        # totally isotropic plane (for example coplanar displacements): the
        # whole plane lies on the quadric and unit weights interpolate
        q12 = q02 = q01 = 1.0
    elif any(small):
        raise DegeneratePoses("pose pairing form vanishes, poses are not in general position")
    coeff0 = r0 * q12
    coeff1 = r1 * q02 - r0 * q12 - r2 * q01
    coeff2 = r2 * q01
    c = DQPoly.of([coeff0, coeff1, coeff2])
    try:
        return validate_motion(c, tol)
    except Exception as exc:  # pragma: no cover - guarded by the checks above
        raise DegeneratePoses(f"interpolating conic is not a motion polynomial: {exc}")


def _interpolate_on_line(
    r0: DualQuaternion, r1: DualQuaternion, r2: DualQuaternion, tol: float
) -> MotionPolynomial:
    # The three points lie on a line contained in the quadric.  Write
    # r2 = mu*r0 + nu*r1 and param the line quadratically so the nodes land
    # at 0, 1, infinity.
    mat = np.vstack([r0.as_array(), r1.as_array()]).T
    sol, res, *_ = np.linalg.lstsq(mat, r2.as_array(), rcond=None)
    mu, nu = float(sol[0]), float(sol[1])
    if res.size and float(res[0]) > tol * (1.0 + r2.max_abs()):
        raise DegeneratePoses("third pose leaves the line of the first two")
    a0 = 1.0
    b0 = 1.0 if abs(1.0 + nu) > 0.1 else 2.0
    a1 = -mu
    b1 = nu
    coeff0 = r0 * a0
    coeff1 = r0 * (a1 - a0) + r1 * b0
    coeff2 = r0 * (-a1) + r1 * b1
    c = DQPoly.of([coeff0, coeff1, coeff2])
    try:
        return validate_motion(c, tol)
    except Exception as exc:
        raise DegeneratePoses(f"degenerate line parametrization: {exc}")


def synthesize_bennett(
    p0: Pose, p1: Pose, p2: Pose, tol: float = DEFAULT_TOL
) -> BennettLinkage:
    """Bennett linkage whose coupler visits the three poses.

    The coupler motion is the monic interpolating conic; its two
    factorizations give the fixed axes (h1, k1) and moving axes (h2, k2).
    """
    rank, _ = _rank_and_reps((p0, p1, p2))
    if rank < 3:
        raise DegeneratePoses("poses do not span a plane, the conic degenerates")
    c_raw = interpolate_three_poses(p0, p1, p2, tol)
    c_mon, lead = c_raw.monicize(tol)
    if max_real_factor(c_mon.poly).degree > 0:
        raise NonGenericConic("primal part of the conic has a real factor")
    facts = all_factorizations(c_mon)
    if len(facts) < 2:
        raise NonGenericConic("conic admits fewer than two factorizations")
    (h1, h2), (k1, k2) = facts[0].factors, facts[1].factors
    return BennettLinkage((h1, k1), (h2, k2), c_mon, lead)


def bennett_flip(m_prev, h, tol: float = DEFAULT_TOL) -> FlipResult:
    """Refactor (t - m_prev)(t - h) pulling the norm quadratic of m_prev first.

    m_prev and h are DualQuaternions or their 8 coordinates.  Returns (k, m)
    with (t - m_prev)(t - h) = (t - k)(t - m); the extraction order swap
    moves the norm quadratic of m_prev onto the new right factor.
    """
    pair = np.array([g.as_array() if isinstance(g, DualQuaternion) else g for g in (m_prev, h)],
                    dtype=float)
    generator_kinds(pair, tol)
    q_prev, q_h = norm_quadratics(pair)
    if np.max(np.abs(q_prev - q_h)) <= 1e-7 * (1.0 + np.max(np.abs(q_prev))):
        raise DegenerateFlip("norm quadratics of the pair coincide")
    x = chain_product(pair)
    try:
        m = _linear_zeros(*mod_quadratic(x, q_prev[:2]), tol)
    except (ConstantRemainder, NonInvertibleLeading):
        raise DegenerateFlip("flip does not have a unique solution") from None
    quot, rem = divide_linear(x, m)
    if not np.max(np.abs(rem)) <= 1e-7 * (1.0 + np.max(np.abs(x))):
        raise DegenerateFlip("flip reconstruction failed")
    return FlipResult(np.array([-quot[0], m]))


def translation_motion_from_curve(
    v: tuple[RealPoly, RealPoly, RealPoly], w: RealPoly, tol: float = DEFAULT_TOL
) -> MotionPolynomial:
    """Curvilinear translation along the rational curve v(t)/w(t).

    Every point x moves along x + v(t)/w(t).  The result is monic with norm
    w(t)**2; it requires w without real roots, deg v <= deg w, and (v, w)
    without a common real factor.
    """
    vx, vy, vz = v
    if w.is_zero:
        raise InvalidCurve("denominator is zero")
    if max(vx.degree, vy.degree, vz.degree) > w.degree:
        raise InvalidCurve("curve numerator degree exceeds denominator degree")
    roots = real_roots_complex(w)
    if any(abs(r.imag) <= 1e-6 * (1.0 + abs(r)) for r in roots):
        raise UnboundedCurve("denominator has a real root, the curve is unbounded")
    if any(not vi.is_zero for vi in (vx, vy, vz)):
        shared = common_real_factor([vx, vy, vz, w])
        if shared.degree > 0:
            raise InvalidCurve("numerator and denominator share a real polynomial factor")
    lead = w.lead
    wm = w * (1.0 / lead)
    vm = [vi * (1.0 / lead) for vi in (vx, vy, vz)]
    n = int(wm.degree)
    coeffs = []
    for kdx in range(n + 1):
        primal = Quaternion(wm.coeff(kdx))
        dual = Quaternion(0.0, -vm[0].coeff(kdx) / 2.0, -vm[1].coeff(kdx) / 2.0,
                          -vm[2].coeff(kdx) / 2.0)
        coeffs.append(DualQuaternion(primal, dual))
    return validate_motion(DQPoly.of(coeffs), tol)


DEFAULT_FLIP_JOINT = DualQuaternion(Quaternion(1.0, 0.0, 0.0, 1.0))  # norm t^2 - 2t + 2


def kempe_linkage_for_curve(
    v: tuple[RealPoly, RealPoly, RealPoly],
    w: RealPoly,
    m0: DualQuaternion | None = None,
    settings: SearchSettings | None = None,
) -> Linkage:
    """Revolute only linkage drawing the bounded rational curve v(t)/w(t).

    Factors the curvilinear translation (after multiplying with a real
    polynomial when necessary), augments the factor chain with the extra
    joint m0 and closes one quadrilateral cell per flip.  The tracer link
    carries the last factor pair and its tracer point draws the curve.
    """
    st = settings or SearchSettings()
    c = translation_motion_from_curve(v, w, st.tol)
    if c.degree == 0:
        raise InvalidCurve("curve is a single point: its motion has no factors")
    m0 = (DEFAULT_FLIP_JOINT if m0 is None else m0).as_array()
    if generator_kinds(m0[None], st.tol) != ["rotation"]:
        raise DegenerateFlip("extra joint m0 must be a rotation")
    report = factor_bounded_with_multiplier(c, settings=st, first=True)
    if report.status != SUCCESS:
        raise FactorizationNotFound(
            "no rotation only factorization found for the curve motion; "
            + " | ".join(report.diagnostics)
        )
    hs = report.factorizations[0].rows
    quads = norm_quadratics(np.vstack([m0, hs]))
    if np.any(np.max(np.abs(quads[1:] - quads[0]), axis=1) <= 1e-7 * (1.0 + np.max(np.abs(quads[0])))):
        raise DegenerateFlip("norm quadratic of m0 collides with a factor norm")
    ms, ks = [m0], []
    for h in hs:
        k, m = bennett_flip(ms[-1], h, st.tol).rows
        ks.append(k)
        ms.append(m)
    loops = [([(f"m{i-1}", ms[i - 1]), (f"h{i}", h)], [(f"k{i}", ks[i - 1]), (f"m{i}", ms[i])])
             for i, h in enumerate(hs, start=1)]
    ground = "+".join(sorted(["m0", "h1"]))
    tracer_link = "+".join(sorted([f"h{len(hs)}", f"m{len(hs)}"]))
    # the factors are those of the monic c * lead^-1: the point that draws the
    # curve is the image of the origin under lead, nonzero when deg v = deg w
    tracer = tuple(float(x) for x in act_on_point(c.poly.lead, (0.0, 0.0, 0.0), st.tol))
    linkage = assemble(loops, ground=ground, tracer=(tracer_link, tracer), tol=st.tol)
    return linkage.with_notes(
        (f"curve motion factored with real multiplier {list(report.multiplier.coeffs)}",)
    )


def six_bar_from_cubic(c: MotionPolynomial, tol: float = DEFAULT_TOL) -> Linkage:
    """Closed 6R loop from two factorizations of a generic cubic motion polynomial."""
    cm, _ = c.monicize(tol)
    facts = all_factorizations(cm)
    if len(facts) < 2:
        raise InsufficientFactorizations(
            f"cubic admits {len(facts)} distinct factorization(s), need two to close a loop"
        )
    left = [(f"h{i+1}", h) for i, h in enumerate(facts[0].rows)]
    right = [(f"k{i+1}", k) for i, k in enumerate(facts[1].rows)]
    linkage = assemble([(left, right)], tol=tol)
    rotations = all(j.kind == "rotation" for j in linkage.graph.joints)
    if rotations and _axes_concurrent(linkage.graph.directions, linkage.graph.anchors):
        linkage = linkage.with_notes(("all axes concurrent: spherical special case",))
    return linkage


def _axes_concurrent(directions: np.ndarray, anchors: np.ndarray, tol: float = 1e-6) -> bool:
    """True when one point lies on every axis (within tolerance), for (m, 3) directions and anchors."""
    proj = np.eye(3) - directions[:, :, None] * directions[:, None, :]
    point, *_ = np.linalg.lstsq(proj.reshape(-1, 3), (proj @ anchors[:, :, None]).reshape(-1), rcond=None)
    worst = np.max(np.linalg.norm(np.cross(point - anchors, directions), axis=1))
    return worst <= tol * (1.0 + float(np.linalg.norm(point)))
