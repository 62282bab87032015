"""Univariate polynomials over the reals and the dual quaternions.

Coefficients are stored in ascending degree with a central variable: t
commutes with every coefficient, but the coefficients themselves do not
commute.  Division is right division with left quotients throughout, so
c = quotient * divisor + remainder.
"""
from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .dualquat import DQ_ONE, DualQuaternion, Quaternion, _max_or_nan, dq_mul_array
from .errors import (
    NonInvertibleDivisorLeading,
    NonFiniteCoefficient,
    NonInvertibleLeading,
    NonRealNorm,
    NotNonnegative,
    NumericalConditionWarning,
    OddDegree,
    ZeroNorm,
)

NEG_INF = float("-inf")


def _trim_floats(vals: list[float], tol: float) -> tuple[float, ...]:
    scale = max((abs(v) for v in vals), default=0.0)
    cut = tol * (1.0 + scale)
    n = len(vals)
    while n > 0 and abs(vals[n - 1]) <= cut:
        n -= 1
    return tuple(float(v) for v in vals[:n])


@dataclass(frozen=True, slots=True)
class RealPoly:
    """Real polynomial, coefficients ascending by degree, trailing zeros trimmed."""

    coeffs: tuple[float, ...] = ()

    @staticmethod
    def of(vals, tol: float = DEFAULT_TOL) -> "RealPoly":
        return RealPoly(_trim_floats([float(v) for v in vals], tol))

    @property
    def degree(self) -> float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> float:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> float:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0.0

    def monic(self) -> "RealPoly":
        return self * (1.0 / self.lead)

    def __add__(self, other: "RealPoly") -> "RealPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RealPoly.of([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "RealPoly") -> "RealPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RealPoly.of([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __mul__(self, other):
        if isinstance(other, RealPoly):
            if self.is_zero or other.is_zero:
                return RealPoly()
            return RealPoly.of(np.convolve(self.coeffs, other.coeffs))
        if isinstance(other, (int, float)):
            return RealPoly.of([c * other for c in self.coeffs])
        return NotImplemented

    def __call__(self, t: float) -> float:
        if math.isinf(t):
            return self.lead if not self.is_zero else 0.0
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def divmod_by(self, d: "RealPoly", tol: float = DEFAULT_TOL) -> tuple["RealPoly", "RealPoly"]:
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        r = list(self.coeffs)
        nd = len(d.coeffs)
        if len(r) < nd:
            return RealPoly(), self
        q = [0.0] * (len(r) - nd + 1)
        dl = d.lead
        for k in range(len(r) - nd, -1, -1):
            coef = r[k + nd - 1] / dl
            q[k] = coef
            if coef != 0.0:
                for i, dc in enumerate(d.coeffs):
                    r[k + i] -= coef * dc
            r[k + nd - 1] = 0.0
        return RealPoly.of(q, tol), RealPoly.of(r[: nd - 1], tol)

    def max_abs(self) -> float:
        return _max_or_nan(abs(c) for c in self.coeffs)

    def as_array(self) -> np.ndarray:
        return np.array(self.coeffs if self.coeffs else (0.0,))


RP_ZERO = RealPoly()
RP_ONE = RealPoly((1.0,))


def _trim_dq(vals: list[DualQuaternion], tol: float) -> tuple[DualQuaternion, ...]:
    scale = max((v.max_abs() for v in vals), default=0.0)
    cut = tol * (1.0 + scale)
    n = len(vals)
    while n > 0 and vals[n - 1].max_abs() <= cut:
        n -= 1
    return tuple(vals[:n])


@dataclass(frozen=True, slots=True)
class DQPoly:
    """Polynomial over the dual quaternions in a central variable."""

    coeffs: tuple[DualQuaternion, ...] = ()

    @staticmethod
    def of(vals, tol: float = DEFAULT_TOL) -> "DQPoly":
        out = []
        for v in vals:
            if isinstance(v, DualQuaternion):
                out.append(v)
            elif isinstance(v, Quaternion):
                out.append(DualQuaternion(v))
            elif isinstance(v, (int, float)):
                out.append(DualQuaternion(Quaternion(float(v))))
            else:
                out.append(DualQuaternion.from_array(v))
        return DQPoly(_trim_dq(out, tol))

    @staticmethod
    def from_array(a: np.ndarray) -> "DQPoly":
        """Untrimmed polynomial from an (n, 8) array of ascending coefficients."""
        return DQPoly(tuple(
            DualQuaternion(Quaternion(*r[:4]), Quaternion(*r[4:])) for r in a.tolist()
        ))

    def as_array(self) -> np.ndarray:
        """The ascending coefficients as an (n, 8) array."""
        return np.array([c.as_array() for c in self.coeffs]).reshape(-1, 8)

    @staticmethod
    def from_real(p: RealPoly) -> "DQPoly":
        return DQPoly.of(list(p.coeffs))

    @staticmethod
    def t_minus(h: DualQuaternion) -> "DQPoly":
        return DQPoly((-h, DQ_ONE))

    @property
    def degree(self) -> float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> DualQuaternion:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> DualQuaternion:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else DualQuaternion()

    def is_monic(self, tol: float = DEFAULT_TOL) -> bool:
        return (not self.is_zero) and np.max(np.abs(self.lead.as_array() - DQ_ONE.as_array())) <= tol

    def component(self, i: int) -> RealPoly:
        """Real coefficient polynomial of basis element i (0..3 primal, 4..7 dual)."""
        return RealPoly.of([c.as_array()[i] for c in self.coeffs])

    def primal_components(self) -> list[RealPoly]:
        return [self.component(i) for i in range(4)]

    def conj(self) -> "DQPoly":
        return DQPoly(tuple(c.conj() for c in self.coeffs))

    def __add__(self, other: "DQPoly") -> "DQPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return DQPoly.of([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __mul__(self, other):
        if isinstance(other, RealPoly):
            other = DQPoly.from_real(other)
        if isinstance(other, (DualQuaternion, Quaternion, int, float)):
            if isinstance(other, (int, float)):
                other = DualQuaternion(Quaternion(float(other)))
            elif isinstance(other, Quaternion):
                other = DualQuaternion(other)
            return DQPoly(tuple(c * other for c in self.coeffs))
        if isinstance(other, DQPoly):
            if self.is_zero or other.is_zero:
                return DQPoly()
            out = [DualQuaternion() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return DQPoly(tuple(out))
        return NotImplemented

    def eval_at(self, t0: float) -> DualQuaternion:
        """Evaluate at a real parameter; at infinity this is the leading coefficient."""
        if not self.is_zero and math.isinf(t0):
            return self.lead
        return self.right_eval(DualQuaternion(Quaternion(t0)))

    def right_eval(self, h: DualQuaternion) -> DualQuaternion:
        """Right evaluation sum(c_i * h**i), the remainder of the right division by t - h."""
        if self.is_zero:
            return DualQuaternion()
        return DualQuaternion.from_array(divide_linear(self.as_array(), h.as_array())[1])

    def max_abs(self) -> float:
        return _max_or_nan(c.max_abs() for c in self.coeffs)

    def to_json(self) -> dict:
        return {"coeffs": [list(c.as_array()) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "DQPoly":
        coeffs = data["coeffs"]
        if not all(np.isfinite(np.asarray(v, dtype=float)).all() for v in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        return DQPoly.of(coeffs)


def norm_quadratics(rows: np.ndarray) -> np.ndarray:
    """Ascending coefficients |p|^2, -2*Re(p), 1 of the norms of t - h for the (m, 8) rows h = p + eps*q."""
    return np.column_stack([np.sum(rows[:, :4] ** 2, axis=1), -2.0 * rows[:, 0], np.ones(len(rows))])


def norm_quadratic(h: DualQuaternion) -> RealPoly:
    """Norm t^2 - 2*Re(p)*t + |p|^2 of the linear motion polynomial t - h: the one-row norm_quadratics."""
    return RealPoly(tuple(norm_quadratics(h.as_array()[None])[0].tolist()))


def chain_product(hs: np.ndarray) -> np.ndarray:
    """Ascending coefficients of (t - h_1)...(t - h_k) for a batch of factor chains.

    hs holds the factors as an (..., k, 8) array; the result has shape
    (..., k + 1, 8) with leading coefficient 1.  Each factor costs one
    dq_mul_array call over the whole batch.
    """
    hs = np.asarray(hs, dtype=float)
    k = hs.shape[-2]
    out = np.zeros(hs.shape[:-2] + (k + 1, 8))
    out[..., 0, 0] = 1.0
    for j in range(k):
        # P * (t - h) = t*P - P*h: shift P up one degree, then subtract P*h
        ph = dq_mul_array(out[..., :j + 1, :], hs[..., j:j + 1, :])
        out[..., 1:j + 2, :] = out[..., :j + 1, :]
        out[..., 0, :] = 0.0
        out[..., :j + 1, :] -= ph
    return out


def mod_quadratic(d: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remainder r0 + r1*t of polynomials modulo real monic quadratics t**2 + m1*t + m0.

    d holds ascending dual quaternion coefficients, shape (..., L, 8), and m
    holds (m0, m1), shape (..., 2).  A real divisor is central, so each of the
    8 components is reduced on its own.  Returns r0 and r1, shape (..., 8) each.
    """
    r = np.zeros(d.shape[:-2] + (max(d.shape[-2], 2), 8))
    r[..., :d.shape[-2], :] = d
    for k in range(r.shape[-2] - 1, 1, -1):
        r[..., k - 1, :] -= m[..., 1:2] * r[..., k, :]
        r[..., k - 2, :] -= m[..., 0:1] * r[..., k, :]
    return r[..., 0, :], r[..., 1, :]


def divide_linear(d: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right division of polynomials by t - h: d = quotient * (t - h) + remainder.

    d holds ascending coefficients, shape (..., L, 8), and h the zeros, shape
    (..., 8).  Returns the left quotients, shape (..., L - 1, 8), and the
    remainders, shape (..., 8), which are the right evaluations sum(d_k * h**k).
    """
    deg = d.shape[-2] - 1
    quot = np.empty(d.shape[:-2] + (deg, 8))
    acc = d[..., deg, :]
    for k in range(deg - 1, -1, -1):
        # synthetic division: q_(k-1) = d_k + q_k * h
        quot[..., k, :] = acc
        acc = d[..., k, :] + dq_mul_array(acc, h)
    return quot, acc


def right_divide(c: DQPoly, d: DQPoly, tol: float = DEFAULT_TOL) -> tuple[DQPoly, DQPoly]:
    """Right division c = quotient * d + remainder with deg remainder < deg d."""
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    dl = d.lead
    if dl.primal.norm() <= tol * (1.0 + dl.max_abs()) ** 2:
        raise NonInvertibleDivisorLeading("divisor leading coefficient has zero primal part")
    dinv = dl.inverse()
    r = list(c.coeffs)
    nd = len(d.coeffs)
    if len(r) < nd:
        return DQPoly(), c
    q = [DualQuaternion() for _ in range(len(r) - nd + 1)]
    for k in range(len(r) - nd, -1, -1):
        a = r[k + nd - 1] * dinv
        q[k] = a
        for i in range(nd - 1):
            r[k + i] = r[k + i] - a * d.coeffs[i]
        r[k + nd - 1] = DualQuaternion()
    return DQPoly.of(q, tol), DQPoly.of(r[: nd - 1], tol)


def norm_poly(c: DQPoly) -> tuple[RealPoly, RealPoly]:
    """Real and dual scalar parts of c * conj(c).

    The vector parts vanish identically: the terms c_i*conj(c_j) and
    c_j*conj(c_i) of one coefficient are conjugate, so their sum is scalar.
    The dual scalar part is the Study defect of the curve and vanishes
    exactly when c is a motion polynomial.  The products are summed untrimmed
    and the sums trimmed once, so a small leading coefficient of one
    component is not cut from its product on that product's own scale.
    """
    if not np.isfinite(c.as_array()).all():
        raise NonFiniteCoefficient("polynomial has a NaN or infinite coefficient")
    re, du = np.zeros(2 * len(c.coeffs)), np.zeros(2 * len(c.coeffs))
    for i in range(4):
        p, q = c.component(i).coeffs, c.component(4 + i).coeffs
        if p:
            re[:2 * len(p) - 1] += np.convolve(p, p)
        if p and q:
            du[:len(p) + len(q) - 1] += np.convolve(p, q) * 2.0
    return RealPoly.of(re), RealPoly.of(du)


@dataclass(frozen=True, slots=True)
class MotionPolynomial:
    """Validated polynomial with real nonzero norm and invertible leading coefficient."""

    poly: DQPoly
    norm: RealPoly

    @property
    def degree(self) -> float:
        return self.poly.degree

    def is_monic(self, tol: float = DEFAULT_TOL) -> bool:
        return self.poly.is_monic(tol)

    def monicize(self, tol: float = DEFAULT_TOL) -> tuple["MotionPolynomial", DualQuaternion]:
        """Split off the leading coefficient: poly = monic * lead.

        Returns the monic motion polynomial and the leading coefficient, so the
        original motion is the monic one followed by the constant displacement.
        """
        lead = self.poly.lead
        if self.is_monic(tol):
            return self, DQ_ONE
        monic = self.poly * lead.inverse()
        return validate_motion(monic, tol), lead

    def eval_at(self, t0: float) -> DualQuaternion:
        return self.poly.eval_at(t0)


def validate_motion(c: DQPoly, tol: float = DEFAULT_TOL) -> MotionPolynomial:
    """Check the motion polynomial conditions and wrap c with its cached norm."""
    if c.is_zero:
        raise ZeroNorm("zero polynomial")
    re, du = norm_poly(c)
    scale = 1.0 + re.max_abs()
    if du.max_abs() > tol * scale:
        raise NonRealNorm(f"dual part of the norm has magnitude {du.max_abs():.3e}")
    if re.is_zero:
        raise ZeroNorm("norm polynomial vanishes identically")
    lead = c.lead
    if lead.primal.norm() <= tol * (1.0 + lead.max_abs()) ** 2:
        raise NonInvertibleLeading("leading coefficient has zero primal part")
    return MotionPolynomial(c, re)


def real_roots_complex(n: RealPoly) -> np.ndarray:
    """All complex roots of a real polynomial, via companion matrix eigenvalues."""
    if n.is_zero:
        raise ValueError("zero polynomial has no well defined root set")
    if n.degree == 0:
        return np.array([], dtype=complex)
    return np.roots(n.as_array()[::-1])


_IM_TOL = 1e-6          # imaginary part below this means "real root"
_CLUSTER_NET = 2e-2     # relative radius within which eigenvalues may be one multiple root
_CONDITION_SEP = 1e-4   # separation below which the quadratic multiset is ill conditioned


def _newton_remainder(p: list[complex], nodes: list[complex]) -> list[complex]:
    """Remainder of p modulo prod(t - r) over the nodes, in the Newton basis of the nodes.

    p holds descending coefficients.  Entry j is the divided difference
    p[r_0, ..., r_j], found by one synthetic division per node; at k equal
    nodes z these are the Taylor coefficients p^(j)(z) / j!.
    """
    out = []
    for r in nodes:
        acc = 0j
        quot = []
        for c in p:
            acc = acc * r + c
            quot.append(acc)
        out.append(quot.pop())
        p = quot
    return out


def _polish(p: list[complex], z: complex, k: int) -> complex:
    """Newton on the (k-1)-th derivative of p, of which a k-fold root is a simple root."""
    for _ in range(40):
        taylor = _newton_remainder(p, [z] * (k + 1))
        if taylor[k] == 0:
            break
        step = -taylor[k - 1] / (k * taylor[k])
        if not cmath.isfinite(step) or abs(step) > 1.0:
            break
        z += step
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
    return z


def root_clusters(coeffs) -> list[tuple[complex, int]]:
    """Distinct roots of a real or complex polynomial with their multiplicities.

    coeffs holds ascending coefficients.  The eigenvalues of the companion
    matrix scatter a k-fold root by about eps**(1/k), so eigenvalues within
    _CLUSTER_NET * (1 + |z|) of each other form a candidate cluster, polished
    by Newton on the (k-1)-th derivative.  A merge is kept only when p modulo
    (t - z)**k is no larger than p modulo the product over the unmerged
    eigenvalues, or is negligible; otherwise the eigenvalues stay simple roots.
    """
    p = [complex(c) for c in reversed(coeffs)]
    clusters: list[list[complex]] = []
    roots = np.roots(p).tolist()
    for r in sorted(roots, key=lambda z: (round(z.real, 6), round(z.imag, 6))):
        for cl in clusters:
            if abs(r - cl[0]) <= _CLUSTER_NET * (1.0 + abs(cl[0])):
                cl.append(r)
                break
        else:
            clusters.append([r])
    floor = 1e-12 * (1.0 + max(abs(c) for c in p))
    out: list[tuple[complex, int]] = []
    for cl in clusters:
        k = len(cl)
        z = _polish(p, sum(cl) / k, k)
        if k == 1:
            out.append((z, 1))
            continue
        after = max(abs(a) for a in _newton_remainder(p, [z] * k))
        before = max(abs(a) for a in _newton_remainder(p, cl))
        if after <= max(before, floor):
            out.append((z, k))
        else:
            out.extend((r, 1) for r in cl)
    return out


def quadratic_factors(n: RealPoly, tol: float = DEFAULT_TOL) -> list[RealPoly]:
    """Factor a monic nonnegative real polynomial into monic quadratics.

    A root cluster z of multiplicity k above the real axis gives k copies of
    t**2 - 2*Re(z)*t + |z|**2; a real root must have even multiplicity k and
    gives k/2 copies of (t - r)**2.  The result is a multiset sorted by
    coefficients.  A NumericalConditionWarning is emitted when two quadratic
    factors nearly coincide, since multiplicities are then ambiguous in
    floating point.
    """
    if n.is_zero:
        raise ValueError("zero polynomial")
    if abs(n.lead - 1.0) > 1e-8:
        raise ValueError("polynomial must be monic")
    deg = int(n.degree)
    if deg % 2 != 0:
        raise OddDegree(f"degree {deg} is odd")
    if deg == 0:
        return []
    quads: list[RealPoly] = []
    reps: list[complex] = []
    unpaired = 0
    for z, k in root_clusters(n.coeffs):
        if z.imag < -_IM_TOL:
            unpaired -= k
            continue
        if z.imag > _IM_TOL:
            unpaired += k
        elif k % 2 != 0:
            raise NotNonnegative(f"real root {z.real:.6g} has odd multiplicity {k}")
        else:
            z, k = complex(z.real, 0.0), k // 2
        quads.extend([RealPoly((abs(z) ** 2, -2.0 * z.real, 1.0))] * k)
        reps.extend([z] * k)
    if unpaired:
        raise NotNonnegative("unpaired complex root, polynomial is not real or not nonnegative")
    if any(abs(a - b) < _CONDITION_SEP for a, b in itertools.combinations(reps, 2)):
        warnings.warn(
            "nearly coinciding quadratic factors, multiplicities are ill conditioned",
            NumericalConditionWarning,
            stacklevel=2,
        )
    quads.sort(key=lambda q: (round(q.coeff(1), 9), round(q.coeff(0), 9)))
    return quads


def group_quadratics(ms: list[RealPoly], tol: float = 1e-7) -> list[tuple[RealPoly, int]]:
    """Distinct quadratics of a multiset with their multiplicities, in first-seen order."""
    groups: list[tuple[RealPoly, int]] = []
    for m in ms:
        for i, (rep, cnt) in enumerate(groups):
            if (m - rep).max_abs() <= tol * (1.0 + rep.max_abs()):
                groups[i] = (rep, cnt + 1)
                break
        else:
            groups.append((m, 1))
    return groups


def _divides_all(polys: list[RealPoly], d: RealPoly, tol: float) -> list[RealPoly] | None:
    quots = []
    for p in polys:
        q, r = p.divmod_by(d)
        if r.max_abs() > tol * (1.0 + p.max_abs()):
            return None
        quots.append(q)
    return quots


def common_real_factor(polys: list[RealPoly], tol: float = 1e-7) -> RealPoly:
    """Monic greatest common real polynomial divisor of the given polynomials.

    Candidates come from the quadratic factorization of the sum of squares,
    which every common real factor must divide twice.
    """
    work = [p for p in polys if not p.is_zero]
    if not work:
        raise ValueError("all component polynomials are zero")
    ssq = RP_ZERO
    for p in work:
        ssq = ssq + p * p
    ssq = ssq.monic()
    g = RP_ONE
    for quad, mult in group_quadratics(quadratic_factors(ssq), 1e-6):
        b, c0 = quad.coeff(1), quad.coeff(0)
        disc = b * b - 4.0 * c0
        if disc > -_IM_TOL * (1.0 + abs(c0)):
            lin = RealPoly((b / 2.0, 1.0))  # t - r with r = -b/2
            budget = mult
            while budget > 0:
                quots = _divides_all(work, lin, tol)
                if quots is None:
                    break
                work = quots
                g = g * lin
                budget -= 1
        else:
            budget = mult // 2
            while budget > 0:
                quots = _divides_all(work, quad, tol)
                if quots is None:
                    break
                work = quots
                g = g * quad
                budget -= 1
    return g


def max_real_factor(p: DQPoly, tol: float = 1e-7) -> RealPoly:
    """Maximal monic real polynomial dividing the primal part of p.

    Intended for quaternion polynomials or primal parts; dual components of
    the argument are ignored.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    return common_real_factor(p.primal_components(), tol)
