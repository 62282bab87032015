"""Quaternion and dual quaternion algebra with the kinematic action on 3-space.

All values are immutable plain data and every operation is a pure function,
so everything here is safe to share between threads.  Rigid displacements are
represented projectively: a dual quaternion h = p + eps*q with nonzero real
norm acts on points, and real multiples of h act identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    ExceptionalPoint,
    NotInGroup,
    NotLinearMotion,
    NotOnStudyQuadric,
)


def _max_or_nan(values) -> float:
    """Largest of some nonnegative values, 0 for none, NaN when any is NaN.

    The builtin max keeps a NaN only when it comes first, which would let a
    NaN coefficient pass every tolerance check built on max_abs.
    """
    out = 0.0
    for v in values:
        if not v <= out:
            if v != v:
                return v
            out = v
    return out


@dataclass(frozen=True, slots=True)
class DualNumber:
    """Number re + eps*du with eps**2 = 0."""

    re: float
    du: float = 0.0

    def __mul__(self, other: "DualNumber") -> "DualNumber":
        return DualNumber(self.re * other.re, self.re * other.du + self.du * other.re)


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Element w + x*i + y*j + z*k of the quaternion algebra."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            aw, ax, ay, az = self.w, self.x, self.y, self.z
            bw, bx, by, bz = other.w, other.x, other.y, other.z
            return Quaternion(
                aw * bw - ax * bx - ay * by - az * bz,
                aw * bx + ax * bw + ay * bz - az * by,
                aw * by - ax * bz + ay * bw + az * bx,
                aw * bz + ax * by - ay * bx + az * bw,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def dot(self, other: "Quaternion") -> float:
        return (self.w * other.w + self.x * other.x
                + self.y * other.y + self.z * other.z)

    def scalar(self) -> float:
        return self.w

    def vec(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def inverse(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return self.conj() * (1.0 / n)

    def max_abs(self) -> float:
        return _max_or_nan((abs(self.w), abs(self.x), abs(self.y), abs(self.z)))

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @staticmethod
    def from_vector(v) -> "Quaternion":
        v = np.asarray(v, dtype=float)
        return Quaternion(0.0, v[0], v[1], v[2])


Q_ZERO = Quaternion()
Q_ONE = Quaternion(1.0)
QI = Quaternion(0.0, 1.0, 0.0, 0.0)
QJ = Quaternion(0.0, 0.0, 1.0, 0.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True, slots=True)
class DualQuaternion:
    """Element primal + eps*dual of the dual quaternion ring."""

    primal: Quaternion = Q_ZERO
    dual: Quaternion = Q_ZERO

    def __add__(self, other: "DualQuaternion") -> "DualQuaternion":
        return DualQuaternion(self.primal + other.primal, self.dual + other.dual)

    def __sub__(self, other: "DualQuaternion") -> "DualQuaternion":
        return DualQuaternion(self.primal - other.primal, self.dual - other.dual)

    def __neg__(self) -> "DualQuaternion":
        return DualQuaternion(-self.primal, -self.dual)

    def __mul__(self, other):
        if isinstance(other, DualQuaternion):
            return DualQuaternion(
                self.primal * other.primal,
                self.primal * other.dual + self.dual * other.primal,
            )
        if isinstance(other, Quaternion):
            return DualQuaternion(self.primal * other, self.dual * other)
        if isinstance(other, (int, float)):
            return DualQuaternion(self.primal * other, self.dual * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        if isinstance(other, Quaternion):
            return DualQuaternion(other * self.primal, other * self.dual)
        return NotImplemented

    def conj(self) -> "DualQuaternion":
        return DualQuaternion(self.primal.conj(), self.dual.conj())

    def norm(self) -> DualNumber:
        # h*conj(h) = N(p) + eps*(p*conj(q) + q*conj(p)); the dual part is
        # automatically scalar and equals twice the 4-vector inner product
        # of primal and dual, which is the Study condition defect.
        return DualNumber(self.primal.norm(), 2.0 * self.primal.dot(self.dual))

    def study_defect(self) -> float:
        return 2.0 * self.primal.dot(self.dual)

    def inverse(self) -> "DualQuaternion":
        pinv = self.primal.inverse()
        return DualQuaternion(pinv, -(pinv * self.dual * pinv))

    def max_abs(self) -> float:
        return _max_or_nan((self.primal.max_abs(), self.dual.max_abs()))

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_abs() <= tol

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.primal.as_array(), self.dual.as_array()])

    @staticmethod
    def from_array(a) -> "DualQuaternion":
        a = np.asarray(a, dtype=float)
        if a.shape != (8,):
            raise ValueError("dual quaternion needs 8 coordinates")
        return DualQuaternion(Quaternion(*a[:4]), Quaternion(*a[4:]))


DQ_ZERO = DualQuaternion()
DQ_ONE = DualQuaternion(Q_ONE)

# Structure constants of the ring on coordinates (primal w, x, y, z, dual w, x,
# y, z): (a*b)[k] = sum over i, j of a[i] * b[j] * DQ_STRUCTURE[i, j, k].  Built
# from DualQuaternion.__mul__, so the multiplication table has one source.
DQ_STRUCTURE = np.array([
    [(DualQuaternion.from_array(a) * DualQuaternion.from_array(b)).as_array() for b in np.eye(8)]
    for a in np.eye(8)
])
_STRUCTURE_ROWS = DQ_STRUCTURE.reshape(8, 64)


def dq_mul_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a*b of dual quaternions stored as (..., 8) float arrays."""
    left = (a @ _STRUCTURE_ROWS).reshape(*a.shape[:-1], 8, 8)
    return (b[..., None, :] @ left)[..., 0, :]


def dq_inverse_array(a: np.ndarray) -> np.ndarray:
    """Inverses p^-1 - eps*p^-1*q*p^-1 of (..., 8) dual quaternions.

    The primal parts must be invertible; callers check their norms first.
    """
    pinv = np.zeros_like(a)
    pinv[..., :4] = a[..., :4] * np.array([1.0, -1.0, -1.0, -1.0])
    pinv /= np.sum(a[..., :4] ** 2, axis=-1, keepdims=True)
    dual = np.zeros_like(a)
    dual[..., 4:] = a[..., 4:]
    return pinv - dq_mul_array(dq_mul_array(pinv, dual), pinv)


def act_on_point(h: DualQuaternion, point, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Apply the rigid displacement represented by h to a point of 3-space.

    Requires the norm of h to be a nonzero real; raises NotInGroup otherwise.
    """
    nrm = h.norm()
    scale = 1.0 + abs(nrm.re)
    if abs(nrm.du) > tol * scale:
        raise NotInGroup(f"Study defect {nrm.du:.3e} exceeds tolerance")
    if abs(nrm.re) <= tol * scale:
        raise NotInGroup("primal part has zero norm")
    p, q = h.primal, h.dual
    xq = Quaternion.from_vector(point)
    r = p * xq * p.conj() + p * q.conj() - q * p.conj()
    return r.vec() / nrm.re


@dataclass(frozen=True, eq=False)
class Rotation:
    """Revolute generator: rotation about the line with these Pluecker coordinates."""

    direction: np.ndarray
    moment: np.ndarray
    kind = "rotation"

    def anchor_point(self) -> np.ndarray:
        """Point of the axis closest to the origin."""
        return np.cross(self.direction, self.moment)


@dataclass(frozen=True, eq=False)
class Translation:
    """Prismatic generator: translation along a fixed unit direction."""

    direction: np.ndarray
    kind = "translation"

    def anchor_point(self) -> np.ndarray:
        # No axis to anchor; carry the origin as the representative point.
        return np.zeros(3)


Generator = Rotation | Translation


# the checks of generator_kinds, in the order they are made
_NOT_LINEAR = ("dual part of h has a scalar component", "norm of t - h is not a real polynomial",
               "h is a real constant, t - h moves nothing")
# sums of the squares of the primal and the dual vector part of a row
_VECTOR_PARTS = np.array([[0, 0], [1, 0], [1, 0], [1, 0], [0, 0], [0, 1], [0, 1], [0, 1]], dtype=float)


def generator_kinds(rows: np.ndarray, tol: float = DEFAULT_TOL) -> list[str]:
    """Kinds "rotation" or "translation" of t - h for the rows h of an (m, 8) array.

    Raises NotLinearMotion when some t - h is not a motion polynomial or h is
    a real constant; the first such row names its first failing check.  A row
    with a NaN fails every bound and so ends as a real constant.
    """
    size = np.abs(rows)
    scale = 1.0 + size.max(axis=1)
    bound = tol * scale
    lengths = np.sqrt(rows * rows @ _VECTOR_PARTS) > bound[:, None]
    defect = 2.0 * (rows[:, :4] * rows[:, 4:]).sum(axis=1)
    failed = np.array([size[:, 4] > bound, np.abs(defect) > bound * scale, ~lengths.any(axis=1)])
    if failed.any():
        raise NotLinearMotion(_NOT_LINEAR[failed[:, failed.any(axis=0).argmax()].argmax()])
    return ["rotation" if r else "translation" for r in lengths[:, 0].tolist()]


def classify_generator(h: DualQuaternion, tol: float = DEFAULT_TOL) -> Generator:
    """Classify the monic linear motion polynomial t - h.

    Returns a Rotation with the (unit direction, moment) of its fixed axis, or
    a Translation with its unit direction.  The checks are those of
    generator_kinds, which raises NotLinearMotion.
    """
    kind, = generator_kinds(h.as_array()[None], tol)
    pv, qv = h.primal.vec(), h.dual.vec()
    if kind == "translation":
        return Translation(qv / float(np.linalg.norm(qv)))
    # h = cos + sin*(d + eps*(d x a)) up to scale, so the classical
    # Pluecker moment a x d is the negated dual vector part
    plen = float(np.linalg.norm(pv))
    direction, moment = pv / plen, -qv / plen
    return Rotation(direction, moment - np.dot(direction, moment) * direction)


def _unit_orthogonal(n: np.ndarray, axis: int = 0) -> np.ndarray:
    """Unit vector orthogonal to the unit vector n, from a coordinate axis.

    The axis is replaced by the y axis when it lies within about 25 degrees of n.
    """
    helper = np.eye(3)[axis]
    if abs(float(np.dot(helper, n))) > 0.9:
        helper = np.eye(3)[1]
    u = helper - float(np.dot(helper, n)) * n
    return u / np.linalg.norm(u)


def planar_frame(
    rows: np.ndarray, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Orthonormal frame (u, v, n) of (m, 8) dual quaternions in one plane, or None.

    Planar means every primal vector part is parallel to the unit normal n,
    every dual part is a vector orthogonal to n, and no dual part has a scalar
    component.  n is the first primal vector part; without one, it is the first
    nonzero cross product of two dual vector parts, or else orthogonal to the
    one dual direction.  u starts from the x axis and v = n x u.
    """
    scale = 1.0 + float(np.max(np.abs(rows), initial=0.0))
    bound = tol * scale
    if np.any(np.abs(rows[:, 4]) > bound):
        return None
    prim = rows[np.linalg.norm(rows[:, 1:4], axis=1) > bound, 1:4]
    dual = rows[np.linalg.norm(rows[:, 5:8], axis=1) > bound, 5:8]
    if len(prim):
        n = prim[0] / np.linalg.norm(prim[0])
    else:
        crosses = (np.cross(a, b) for i, a in enumerate(dual) for b in dual[i + 1:])
        n = next((c / np.linalg.norm(c) for c in crosses if np.linalg.norm(c) > bound * scale), None)
        if n is None and len(dual):
            n = _unit_orthogonal(dual[0] / np.linalg.norm(dual[0]), axis=2)
    if n is None:
        return None
    if np.any(np.linalg.norm(np.cross(n, prim), axis=1) > bound) or np.any(np.abs(dual @ n) > bound):
        return None
    u = _unit_orthogonal(n)
    return u, np.cross(n, u), n


def study_form(a: DualQuaternion, b: DualQuaternion) -> float:
    """Symmetric bilinear form cutting out the Study quadric.

    study_form(h, h) equals the Study defect of h.
    """
    return a.primal.dot(b.dual) + b.primal.dot(a.dual)


@dataclass(frozen=True, slots=True)
class Pose:
    """Canonical projective representative of a rigid displacement.

    The representative has unit primal norm and its largest magnitude primal
    coefficient is positive.
    """

    rep: DualQuaternion

    def as_array(self) -> np.ndarray:
        return self.rep.as_array()


def normalize_pose(h: DualQuaternion, tol: float = DEFAULT_TOL) -> Pose:
    """Normalize h to the canonical representative of its displacement."""
    pn = h.primal.norm()
    scale = 1.0 + pn + h.dual.norm()
    if pn <= tol * scale:
        raise ExceptionalPoint("primal part vanishes, point lies in the exceptional 3-space")
    defect = h.study_defect()
    if abs(defect) > tol * scale:
        raise NotOnStudyQuadric(f"Study defect {defect:.3e} exceeds tolerance")
    rep = h * (1.0 / math.sqrt(pn))
    coeffs = rep.primal.as_array()
    if coeffs[int(np.argmax(np.abs(coeffs)))] < 0.0:
        rep = -rep
    return Pose(rep)


def projective_residual(a: DualQuaternion, b: DualQuaternion) -> float:
    """Sine of the angle between the two representatives in R^8.

    Zero exactly when a and b define the same projective point.
    """
    u = a.as_array()
    v = b.as_array()
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 1.0
    u = u / nu
    # orthogonal component, accurate for small angles unlike sqrt(1 - cos^2)
    w = v - np.dot(u, v) * u
    return float(np.linalg.norm(w) / nv)


def pose_distance(a: DualQuaternion, b: DualQuaternion, tol: float = DEFAULT_TOL) -> float:
    """Distance between the canonical representatives, insensitive to sign."""
    u = normalize_pose(a, tol).as_array()
    v = normalize_pose(b, tol).as_array()
    return float(min(np.linalg.norm(u - v), np.linalg.norm(u + v)))
