"""Factorization of motion polynomials into linear rotation and translation factors.

The generic path peels one linear factor per quadratic factor of the norm
polynomial; choosing the order of the quadratics enumerates all (generically
n!) factorizations.  Exceptional inputs, where the primal part has real
factors, lead to empty or infinite solution sets for single factors.  Planar
inputs are then solved exactly in a commutative complex subalgebra; other
inputs go through a budgeted depth first search over sampled solution
families with a one step lookahead.  When only revolute factors are
acceptable, real polynomial multipliers of bounded degree are tried in order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_BUDGET, DEFAULT_FAMILY_SAMPLES, DEFAULT_TOL
from .dualquat import (
    DQ_STRUCTURE,
    DualQuaternion,
    Quaternion,
    dq_inverse_array,
    dq_mul_array,
    generator_kinds,
    planar_frame,
)
from .errors import (
    ConstantRemainder,
    ExceptionalCase,
    NonInvertibleLeading,
    NotLinearMotion,
    NotMonic,
    NotQuaternionPolynomial,
    Unbounded,
)
from .polyring import (
    DQPoly,
    MotionPolynomial,
    RP_ONE,
    RealPoly,
    chain_product,
    divide_linear,
    group_quadratics,
    max_real_factor,
    mod_quadratic,
    norm_poly,
    quadratic_factors,
    real_roots_complex,
    root_clusters,
    validate_motion,
)


def __getattr__(name: str):
    # scipy.optimize takes most of the package's import time, and only the
    # spatial family search and the final polish call it: load it on first use
    if name == "least_squares":
        from scipy.optimize import least_squares
        globals()["least_squares"] = least_squares
        return least_squares
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _least_squares():
    """scipy's least_squares, looked up through this module's global on each call."""
    return globals().get("least_squares") or __getattr__("least_squares")


SUCCESS = "success"
NO_FACTORIZATION = "no_factorization"
NEEDS_MULTIPLIER = "needs_multiplier"


@dataclass(frozen=True, slots=True, eq=False)
class Factorization:
    """Ordered linear factors with (t-h_1)...(t-h_n) = C * multiplier.

    rows holds the h_i as an (n, 8) array; a tuple of DualQuaternions is converted.
    """

    rows: np.ndarray
    multiplier: RealPoly = RP_ONE

    def __post_init__(self) -> None:
        rows = self.rows if isinstance(self.rows, np.ndarray) else [h.as_array() for h in self.rows]
        object.__setattr__(self, "rows", np.reshape(rows, (-1, 8)))

    @property
    def factors(self) -> tuple[DualQuaternion, ...]:
        return tuple(DualQuaternion(Quaternion(*h[:4]), Quaternion(*h[4:])) for h in self.rows.tolist())

    def factor_array(self) -> np.ndarray:
        return self.rows

    def residual_against(self, c: DQPoly) -> float:
        """Largest coefficient of (t-h_1)...(t-h_n) - c * multiplier."""
        prod, cs = chain_product(self.rows), c.as_array()
        diff = np.zeros((max(len(prod), len(cs) + len(self.multiplier.coeffs) - 1), 8))
        diff[:len(prod)] = prod
        for i, r in enumerate(self.multiplier.coeffs):
            diff[i:i + len(cs)] -= r * cs
        return float(np.max(np.abs(diff)))

    def kinds(self) -> tuple[str, ...]:
        return tuple(generator_kinds(self.rows))

    def to_json(self, kinds: list[str] | None = None) -> dict:
        return {
            "factors": self.rows.tolist(),
            "multiplier": list(self.multiplier.coeffs),
            "kinds": generator_kinds(self.rows) if kinds is None else kinds,
        }


@dataclass(frozen=True, slots=True)
class UniqueSolution:
    h: DualQuaternion


@dataclass(frozen=True, eq=False)
class SolutionFamily:
    """Affine family basepoint + params @ basis of factor candidates.

    The basepoint is an (8,) array and the basis a (d, 8) array with
    orthonormal rows.  When satisfied is False the stated residual
    constraints cut a nonlinear subset out of the affine space instead of
    the whole space.
    """

    basepoint: np.ndarray
    basis: np.ndarray
    constraints: tuple[str, ...]
    satisfied: bool

    def at(self, params) -> np.ndarray:
        return self.basepoint + params @ self.basis

    def params_of(self, h: np.ndarray) -> np.ndarray:
        """Coordinates of the projection of the (8,) array h onto the family."""
        return self.basis @ (h - self.basepoint)

    def distance_to(self, h: DualQuaternion) -> float:
        x = h.as_array()
        return float(np.linalg.norm(self.at(self.params_of(x)) - x))


@dataclass(frozen=True, slots=True)
class NoSolution:
    residual: float
    reason: str


LinearSolutionSet = UniqueSolution | SolutionFamily | NoSolution


@dataclass(frozen=True, slots=True)
class FactorizationReport:
    status: str
    factorizations: tuple[Factorization, ...]
    multiplier: RealPoly = RP_ONE
    diagnostics: tuple[str, ...] = ()

    def to_json(self) -> dict:
        fs = self.factorizations
        # one classification pass over the factors of every factorization
        kinds = iter(generator_kinds(np.concatenate([np.zeros((0, 8))] + [f.rows for f in fs])))
        return {
            "status": self.status,
            "multiplier": list(self.multiplier.coeffs),
            "factorizations": [f.to_json(list(itertools.islice(kinds, len(f.rows)))) for f in fs],
            "diagnostics": list(self.diagnostics),
        }


@dataclass(frozen=True, slots=True)
class SearchSettings:
    tol: float = DEFAULT_TOL
    budget: int = DEFAULT_BUDGET
    family_samples: int = DEFAULT_FAMILY_SAMPLES
    seed: int = 0


def _linear_zeros(r0: np.ndarray, r1: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Zeros h = -r1**-1 * r0 of linear remainders r0 + r1*t, shape (..., 8) each.

    Every row must have a nonconstant remainder with invertible leading
    coefficient; each bound is written so that a NaN fails it.
    """
    r1_size = np.max(np.abs(r1), axis=-1)
    scale = 1.0 + np.maximum(np.max(np.abs(r0), axis=-1), r1_size)
    if not np.all(r1_size > tol * scale):
        raise ConstantRemainder("remainder is constant, no linear zero exists")
    if not np.all(np.sum(r1[..., :4] ** 2, axis=-1) > tol * scale * scale):
        raise NonInvertibleLeading("leading coefficient of the remainder is not invertible")
    return -dq_mul_array(dq_inverse_array(r1), r0)


def linear_zero(r: DQPoly, tol: float = DEFAULT_TOL) -> DualQuaternion:
    """Unique zero of a linear polynomial with invertible leading coefficient."""
    r0, r1 = r.coeff(0).as_array(), r.coeff(1).as_array()
    return DualQuaternion.from_array(_linear_zeros(r0, r1, tol))


def _peel_level(d: np.ndarray, m: np.ndarray, limit: float,
                tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Right factor t - h and quotient for every row of a batch of polynomials.

    Row i of d holds the ascending dual quaternion coefficients of one
    polynomial, shape (N, L+1, 8); row i of m holds (m0, m1) of the monic norm
    quadratic t**2 + m1*t + m0 to pull from its right, shape (N, 2).  Returns
    the zeros h, shape (N, 8), and the quotients, shape (N, L, 8).
    """
    h = _linear_zeros(*mod_quadratic(d, m), tol)
    quot, rem = divide_linear(d, h)
    if not np.all(np.max(np.abs(rem), axis=1) <= limit):
        raise ExceptionalCase("division by the computed linear factor left a remainder")
    return h, quot


def factor_generic(c: MotionPolynomial, order: list[RealPoly] | None = None) -> Factorization:
    """Peel linear factors following the given order of monic norm quadratics.

    Each chosen quadratic is pulled from the right of the remaining quotient.
    The input must be monic; exceptional remainders raise ExceptionalCase.
    """
    if not c.is_monic():
        raise NotMonic("factor_generic needs a monic motion polynomial")
    if order is None:
        order = quadratic_factors(c.norm.monic())
    limit = 1e-6 * (1.0 + c.poly.max_abs())
    d, factors = c.poly.as_array()[None], []
    for m in order:
        h, d = _peel_level(d, np.array([[m.coeff(0), m.coeff(1)]]), limit)
        factors.insert(0, h[0])
    return Factorization(np.array(factors))


def _factor_sort_key(f: Factorization):
    return tuple(tuple(round(v, 9) for v in h) for h in f.rows.tolist())


def _unique_sorted(hs: np.ndarray, dedupe: bool, tol: float = 1e-7) -> np.ndarray:
    """Indices of the rows of an (N, k, 8) factor array in _factor_sort_key order.

    With dedupe, a row is dropped first when all its factors lie within tol
    of those of an earlier kept row.
    """
    flat = hs.reshape(len(hs), -1)
    keep = np.arange(len(hs))
    if dedupe:
        kept: list[int] = []
        for i, row in enumerate(flat):
            if not (np.abs(flat[kept] - row).max(axis=1, initial=0.0) <= tol).any():
                kept.append(i)
        keep = np.array(kept, dtype=int)
    if len(keep) < 2 or not flat.shape[1]:
        return keep
    return keep[np.lexsort(np.round(flat[keep], 9).T[::-1])]


def _dedupe_factorizations(fs: list[Factorization], tol: float = 1e-7) -> list[Factorization]:
    """Factorizations of one length, near duplicates dropped, sorted by _factor_sort_key."""
    if not fs:
        return []
    hs = np.array([f.rows for f in fs])
    return [fs[i] for i in _unique_sorted(hs, True, tol)]


def all_factorizations(c: MotionPolynomial) -> list[Factorization]:
    """All factorizations reachable by permuting the norm quadratics.

    The orders form one tree, walked from the right one level at a time:
    every node of depth k is a row of an (N, deg+1-k, 8) coefficient array,
    and each level expands every row by each distinct quadratic it has left,
    peeling all children in one batched call.  Orders sharing their last k
    quadratics thus share their last k peels.  Factorizations are sorted by
    their factors rounded to 9 digits; they are deduped only when a
    quadratic repeats.
    """
    if not c.is_monic():
        raise NotMonic("all_factorizations needs a monic motion polynomial")
    groups = group_quadratics(quadratic_factors(c.norm.monic()))
    quads = np.array([(m.coeff(0), m.coeff(1)) for m, _ in groups])
    limit = 1e-6 * (1.0 + c.poly.max_abs())
    d = c.poly.as_array()[None]
    left = np.array([[cnt for _, cnt in groups]], dtype=int)
    hs = np.zeros((1, 0, 8))
    while left.any():
        # row-major order keeps the leaves in depth first order of the tree
        rows, quad = np.nonzero(left)
        h, d = _peel_level(d[rows], quads[quad], limit)
        hs = np.concatenate([h[:, None], hs[rows]], axis=1)
        left = left[rows]
        left[np.arange(len(rows)), quad] -= 1
    hs = hs[_unique_sorted(hs, any(cnt > 1 for _, cnt in groups))]
    return [Factorization(f) for f in hs]


# ---------------------------------------------------------------------------
# Single linear factor with prescribed norm quadratic
# ---------------------------------------------------------------------------

def _solve_affine(a: np.ndarray, b: np.ndarray, scale: float):
    """Minimum norm solution and orthonormal nullspace basis of a*h = b."""
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return np.zeros(a.shape[1]), np.zeros((0, a.shape[1])), float("inf")
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    cutoff = max(s[0] * 1e-11 if s.size else 0.0, 1e-11 * scale)
    rank = int(np.sum(s > cutoff))
    h0 = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank]) if rank else np.zeros(a.shape[1])
    nullspace = vt[rank:]
    residual = float(np.linalg.norm(a @ h0 - b))
    return h0, nullspace, residual


def _factor_system(c: np.ndarray, m: RealPoly) -> tuple[np.ndarray, np.ndarray, float]:
    """Linear system on the 8 coordinates of a factor zero with norm quadratic m.

    c holds ascending coefficients, shape (L, 8).  A remainder that is
    negligible relative to c means m divides c exactly; the division rows are
    then dropped instead of solving against noise.
    """
    s = -m.coeff(1) / 2.0
    n = m.coeff(0)
    r0, r1 = mod_quadratic(c, m.as_array()[:2])
    rem_size = np.max(np.abs([r0, r1]))
    scale = 1.0 + max(rem_size, abs(s), abs(n))
    trace_rows = np.eye(8)[[0, 4]]
    trace_rhs = np.array([s, 0.0])
    if rem_size <= 1e-8 * (1.0 + np.max(np.abs(c))):
        return trace_rows, trace_rhs, scale
    # rows of the left multiplication h -> r1 * h
    a = np.vstack([np.einsum("i,ijk->kj", r1, DQ_STRUCTURE), trace_rows])
    b = np.concatenate([-r0, trace_rhs])
    return a, b, scale


def solve_linear_factor(
    c: DQPoly, m: RealPoly, tol: float = DEFAULT_TOL
) -> LinearSolutionSet:
    """All h with norm quadratic m and right_eval(c, h) = 0.

    Reduces c modulo m to a linear remainder, solves the resulting linear
    system over the 8 coordinates of h together with the trace conditions,
    and intersects with the quadratic norm and Study conditions.  Conditions
    that restrict the solution space affinely are folded back into the linear
    system; truly quadratic residual conditions are reported on the family.
    """
    if m.degree != 2:
        raise ValueError("norm factor must be quadratic")
    if abs(m.lead - 1.0) > 1e-8:
        raise ValueError("norm factor must be monic")
    s = -m.coeff(1) / 2.0
    n = m.coeff(0)
    a, b, scale = _factor_system(c.as_array(), m)
    feas_tol = 1e-7 * scale

    constraints: tuple[str, ...] = ()
    for _ in range(4):
        h0, nullspace, residual = _solve_affine(a, b, scale)
        if residual > feas_tol:
            return NoSolution(residual, "linear system is inconsistent")
        d = nullspace.shape[0]
        vp = nullspace[:, :4]
        vd = nullspace[:, 4:]
        # residual conditions restricted to the affine space, as quadratics in
        # the family parameters lam
        c1 = float(h0[:4] @ h0[:4] - n)
        l1 = 2.0 * vp @ h0[:4]
        q1 = vp @ vp.T
        c2 = float(h0[:4] @ h0[4:])
        l2 = vp @ h0[4:] + vd @ h0[:4]
        q2 = 0.5 * (vp @ vd.T + vd @ vp.T)
        conds = [("primal norm", c1, l1, q1), ("study condition", c2, l2, q2)]
        if d == 0:
            bad = max(abs(c1), abs(c2))
            if bad > feas_tol:
                return NoSolution(bad, "norm or Study condition violated")
            return UniqueSolution(DualQuaternion.from_array(h0))
        added = False
        residual_constraints: list[str] = []
        for name, c0, lin, quad in conds:
            qn = float(np.linalg.norm(quad))
            ln = float(np.linalg.norm(lin))
            if qn <= feas_tol and ln <= feas_tol:
                if abs(c0) > feas_tol:
                    return NoSolution(abs(c0), f"{name} cannot be met on the solution space")
            elif qn <= feas_tol:
                # affine condition: fold into the linear system and resolve
                row = lin @ nullspace
                a = np.vstack([a, row])
                b = np.concatenate([b, [row @ h0 - c0]])
                added = True
            else:
                residual_constraints.append(name)
        if not added:
            constraints = tuple(residual_constraints)
            break

    satisfied = not constraints
    if satisfied:
        lam, *_ = np.linalg.lstsq(vd.T, -h0[4:], rcond=None)
        basepoint = h0 + nullspace.T @ lam
    else:
        basepoint = _canonical_variety_point(s, n)
    return SolutionFamily(basepoint, nullspace, constraints, satisfied)


def _canonical_variety_point(s: float, n: float) -> np.ndarray:
    return np.array([s, 0.0, 0.0, math.sqrt(max(n - s * s, 0.0)), 0.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Backtracking search
# ---------------------------------------------------------------------------

@dataclass
class _SearchState:
    target: np.ndarray
    budget: int
    nodes: int = 0
    truncated: bool = False
    family_seen: bool = False
    results: list[np.ndarray] = field(default_factory=list)

    def spend(self) -> bool:
        self.nodes += 1
        if self.nodes > self.budget:
            self.truncated = True
            return False
        return True


def _remaining_after(groups: list[tuple[RealPoly, int]], idx: int) -> list[tuple[RealPoly, int]]:
    out = []
    for i, (m, cnt) in enumerate(groups):
        cnt = cnt - 1 if i == idx else cnt
        if cnt > 0:
            out.append((m, cnt))
    return out


def _factor_conditions(h: np.ndarray, m: RealPoly) -> np.ndarray:
    """Norm, trace, Study and dual scalar conditions for t - h to have norm quadratic m."""
    return np.array([h[:4] @ h[:4] - m.coeff(0), 2.0 * h[0] + m.coeff(1), h[:4] @ h[4:], h[4]])


def _probe_residual(quot: np.ndarray, m: RealPoly, tol: float) -> np.ndarray:
    """Infeasibility vector of extending the factorization of quot with norm m.

    quot holds the ascending coefficients of a monic polynomial, shape (L, 8).
    """
    n = m.coeff(0)
    if len(quot) <= 2:
        return _factor_conditions(-quot[0], m)
    a, b, scale = _factor_system(quot, m)
    h0, _, res = _solve_affine(a, b, scale)
    if not math.isfinite(res):
        return np.full(12, 1e9)
    residual = a @ h0 - b
    if a.shape[0] == 2:
        # m divides quot exactly: a factor with this norm always splits off
        return np.zeros(12)
    return np.concatenate([
        residual,
        [h0[:4] @ h0[:4] - n, h0[:4] @ h0[4:]],
    ])


def _direction_starts(d: np.ndarray) -> list[np.ndarray]:
    """Candidate rotation axis directions suggested by the coefficient structure."""
    dirs = [np.array([0.0, 0.0, 1.0])]
    vecs = []
    for coeff in d:
        for v in (coeff[1:4], coeff[5:8]):
            ln = np.linalg.norm(v)
            if ln > 1e-9:
                vecs.append(v / ln)
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            cr = np.cross(vecs[i], vecs[j])
            ln = np.linalg.norm(cr)
            if ln > 1e-6:
                vecs.append(cr / ln)
                dirs.append(cr / ln)
        if len(dirs) > 6:
            break
    uniq: list[np.ndarray] = []
    for v in dirs:
        if all(min(np.linalg.norm(v - u), np.linalg.norm(v + u)) > 1e-6 for u in uniq):
            uniq.append(v)
    return uniq


def _family_objective(d: np.ndarray, fam: SolutionFamily, m: RealPoly, m_next: RealPoly | None, tol: float):
    scale = 1.0 + np.max(np.abs(d))

    def resid(lam: np.ndarray) -> np.ndarray:
        h = fam.at(lam)
        quot, rem = divide_linear(d, h)
        parts = [_factor_conditions(h, m) / scale, rem / scale]
        if m_next is not None:
            parts.append(_probe_residual(quot, m_next, tol) / scale)
        out = np.concatenate(parts)
        if not np.all(np.isfinite(out)):
            # overflow from far away parameters: steer the optimizer back
            return np.full(out.shape, 1e9)
        return out

    return resid


def _family_candidates(
    d: np.ndarray,
    m: RealPoly,
    fam: SolutionFamily,
    remaining: list[tuple[RealPoly, int]],
    settings: SearchSettings,
    state: _SearchState,
) -> list[np.ndarray]:
    """Representatives of a solution family worth branching on.

    Solutions of a one step lookahead (parameters for which the next level
    stays feasible) come first, then the canonical minimum dual norm point,
    then a few deterministic samples.
    """
    dim = len(fam.basis)
    if dim == 0:
        return [fam.basepoint]
    scale = 1.0 + np.max(np.abs(d))
    rng = np.random.default_rng(settings.seed + 1)

    # near field starts first: the lookahead objective can decay toward
    # infinity along the family, which makes far starts useless decoys
    starts: list[np.ndarray] = [np.zeros(dim)]
    s = -m.coeff(1) / 2.0
    n = m.coeff(0)
    if not fam.satisfied:
        rho = math.sqrt(max(n - s * s, 0.0))
        for direction in _direction_starts(d):
            for sign in (1.0, -1.0):
                u = np.concatenate([[s], sign * rho * direction, np.zeros(4)])
                starts.append(fam.params_of(u))
    for step in (0.5, 1.0, 2.0 * scale):
        for i in range(dim):
            for sign in (1.0, -1.0):
                lam = np.zeros(dim)
                lam[i] = sign * step
                starts.append(lam)
    if dim > 3:
        starts.extend(rng.normal(scale=scale, size=(8, dim)))

    candidates: list[np.ndarray] = []
    for m_next in [mn for mn, _ in remaining] or [None]:
        objective = _family_objective(d, fam, m, m_next, settings.tol)
        found = 0
        for lam0 in starts:
            # parameter solves are the expensive part of the search, so they
            # count against the node budget as well
            if not state.spend():
                return candidates
            res = _least_squares()(objective, lam0, xtol=3e-16, ftol=3e-16, gtol=None, max_nfev=120)
            if float(np.linalg.norm(res.fun)) <= 1e-9:
                candidates.append(fam.at(res.x))
                found += 1
                if found >= 2 + settings.family_samples:
                    break

    if fam.satisfied:
        candidates.append(fam.basepoint)
        for i in range(settings.family_samples):
            lam = np.zeros(dim)
            lam[i % dim] = (0.5 + 0.5 * (i // dim)) * scale * (1 if i % 2 == 0 else -1)
            candidates.append(fam.at(lam))

    uniq: list[np.ndarray] = []
    for h in candidates:
        if all(np.max(np.abs(h - g)) > 1e-7 * scale for g in uniq):
            uniq.append(h)
    return uniq


def _record(state: _SearchState, hs: np.ndarray) -> None:
    """Keep the (n, 8) factor chain hs when its product reconstructs the target."""
    target = state.target
    if np.max(np.abs(chain_product(hs) - target)) <= 1e-5 * (1.0 + np.max(np.abs(target))):
        state.results.append(hs)


def _dfs(
    d: np.ndarray,
    groups: list[tuple[RealPoly, int]],
    acc: np.ndarray,
    state: _SearchState,
    settings: SearchSettings,
) -> None:
    if state.truncated:
        return
    if len(d) <= 1:
        if not groups:
            _record(state, acc)
        return
    if len(d) == 2:
        _record(state, np.vstack([-d[:1], acc]))
        return
    for idx, (m, _) in enumerate(groups):
        sol = solve_linear_factor(DQPoly.from_array(d), m, settings.tol)
        remaining = _remaining_after(groups, idx)
        if isinstance(sol, NoSolution):
            continue
        if isinstance(sol, UniqueSolution):
            candidates = [sol.h.as_array()]
        else:
            state.family_seen = True
            candidates = _family_candidates(d, m, sol, remaining, settings, state)
        for h in candidates:
            if not state.spend():
                return
            quot, rem = divide_linear(d, h)
            if not np.max(np.abs(rem)) <= 1e-6 * (1.0 + np.max(np.abs(d))):
                continue
            _dfs(quot, remaining, np.vstack([h, acc]), state, settings)


# ---------------------------------------------------------------------------
# Planar subalgebra: exact factorization via complex linear algebra
# ---------------------------------------------------------------------------

def _distinct_sequences(clusters: list[tuple[complex, int]]) -> list[list[complex]]:
    """Every distinct ordering of the roots, each repeated by its multiplicity."""
    labels = [i for i, (_, k) in enumerate(clusters) for _ in range(k)]
    seqs = sorted(set(itertools.permutations(labels)))
    return [[clusters[i][0] for i in seq] for seq in seqs]


def _lex_min_dual(w0: np.ndarray, nullspace: np.ndarray) -> np.ndarray:
    """Pick the family member minimizing dual norms from the last factor backwards."""
    w = w0.copy()
    basis = nullspace.copy()  # shape (d, m), rows are basis vectors
    scale = 1.0 + float(np.max(np.abs(w))) if w.size else 1.0
    for j in range(len(w) - 1, -1, -1):
        if basis.shape[0] == 0:
            break
        row = basis[:, j]
        rn = float(np.linalg.norm(row))
        if rn <= 1e-9 * scale:
            continue  # remaining freedom cannot move this coordinate
        lam = -w[j] * np.conj(row) / (rn * rn)
        w = w + basis.T @ lam
        _, _, vt = np.linalg.svd(row.reshape(1, -1))
        keep = vt[1:]
        basis = keep.conj() @ basis if keep.size else np.zeros((0, len(w)), dtype=complex)
    return w


def _factor_planar(
    d: np.ndarray,
    frame: tuple[np.ndarray, np.ndarray, np.ndarray],
    state: "_SearchState",
    settings: SearchSettings,
) -> None:
    """Exact factorization of a monic planar polynomial with (m+1, 8) coefficients.

    In the plane the problem is commutative: the primal parts are the complex
    roots of the primal code in some order, and the dual parts solve a square
    complex linear system.  Inconsistent orderings are skipped; singular but
    consistent systems yield solution families sampled like the search does.
    """
    u, v, n = frame
    m = len(d) - 1
    pcode = d[:, 0] + 1j * (d[:, 1:4] @ n)
    qcode = d[:, 5:8] @ u - 1j * (d[:, 5:8] @ v)
    rhs = -qcode[:m]
    scale = 1.0 + float(np.max(np.abs(qcode)))
    for seq in _distinct_sequences(root_clusters(pcode)):
        if not state.spend():
            return
        cols = []
        for j in range(m):
            poly = np.array([1.0 + 0.0j])
            for l in range(m):
                if l == j:
                    continue
                zl = np.conj(seq[l]) if l < j else seq[l]
                poly = np.convolve(poly, np.array([-zl, 1.0]))
            cols.append(poly)
        mat = np.column_stack(cols)
        w0, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        if np.linalg.norm(mat @ w0 - rhs) > 1e-8 * scale:
            continue
        _, svals, vt = np.linalg.svd(mat)
        rank = int(np.sum(svals > max(svals[0] * 1e-11, 1e-11 * scale)))
        nullspace = vt[rank:].conj()
        w_candidates = [_lex_min_dual(w0, nullspace)]
        if nullspace.shape[0] > 0:
            state.family_seen = True
            base = w_candidates[0]
            for i in range(settings.family_samples):
                row = nullspace[i % nullspace.shape[0]]
                step = (0.5 + 0.5 * (i // nullspace.shape[0])) * scale
                w_candidates.append(base + step * (1j ** i) * row)
        z = np.array(seq)
        for w in w_candidates:
            factors = np.zeros((m, 8))
            factors[:, 0] = z.real
            factors[:, 1:4] = z.imag[:, None] * n
            factors[:, 5:8] = w.real[:, None] * u - w.imag[:, None] * v
            _record(state, factors)


def _refine_factors(hs: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Polish an (n, 8) factor chain so its product matches goal to machine precision.

    The chain has one factor per degree of the monic goal, as every
    recorded factorization passed the reconstruction check.
    """
    k = len(hs)
    x0 = hs.ravel()
    scale = 1.0 + np.max(np.abs(goal))

    def resid(x: np.ndarray) -> np.ndarray:
        hs = x.reshape(k, 8)
        return np.concatenate([
            (chain_product(hs) - goal).ravel(),
            hs[:, 4],
            np.sum(hs[:, :4] * hs[:, 4:], axis=1),
        ]) / scale

    before = float(np.linalg.norm(resid(x0)))
    if before <= 1e-12:
        return hs
    res = _least_squares()(resid, x0, xtol=3e-16, ftol=3e-16, gtol=None, max_nfev=80)
    if float(np.linalg.norm(res.fun)) >= before:
        return hs
    return res.x.reshape(k, 8)


def _ensure_monic(c: MotionPolynomial, diagnostics: list[str], tol: float) -> MotionPolynomial:
    if c.is_monic(tol):
        return c
    monic, _ = c.monicize(tol)
    diagnostics.append("input normalized to a monic polynomial by splitting off the leading coefficient")
    return monic


def factor_with_backtracking(
    c: MotionPolynomial, settings: SearchSettings | None = None
) -> FactorizationReport:
    """Depth first search over norm quadratic orders and solution families.

    Collects every distinct full linear factorization found within the node
    budget.  Encountered solution families are sampled (canonical
    representative, lookahead solutions, and a few deterministic samples), so
    an infinite solution set yields finitely many representatives.
    """
    st = settings or SearchSettings()
    diagnostics: list[str] = []
    cm = _ensure_monic(c, diagnostics, st.tol)
    d = cm.poly.as_array()
    state = _SearchState(target=d, budget=st.budget)
    frame = planar_frame(d)
    if frame is not None:
        # planar inputs reduce to commutative complex algebra and are solved
        # exactly, covering the exceptional cases with real primal factors
        diagnostics.append("planar input solved in the complex subalgebra")
        _factor_planar(d, frame, state, st)
    else:
        ms = quadratic_factors(cm.norm.monic(), st.tol)
        groups = group_quadratics(ms)
        _dfs(d, groups, np.zeros((0, 8)), state, st)
    facts = _dedupe_factorizations([Factorization(_refine_factors(hs, d)) for hs in state.results])
    if state.family_seen:
        diagnostics.append(
            "solution families encountered: infinitely many factorizations exist, "
            "returned factorizations sample them"
        )
    if state.truncated:
        diagnostics.append(f"node budget {st.budget} exhausted after {state.nodes} nodes")
    if facts:
        return FactorizationReport(SUCCESS, tuple(facts), RP_ONE, tuple(diagnostics))
    if state.truncated:
        return FactorizationReport(NEEDS_MULTIPLIER, (), RP_ONE, tuple(diagnostics))
    diagnostics.append("search tree exhausted without a full factorization")
    return FactorizationReport(NO_FACTORIZATION, (), RP_ONE, tuple(diagnostics))


def is_bounded(c: MotionPolynomial) -> bool:
    """True when the norm polynomial has no real roots, so all trajectories stay bounded."""
    roots = real_roots_complex(c.norm)
    return not any(abs(r.imag) <= 1e-6 * (1.0 + abs(r)) for r in roots)


def _multiplier_candidates(base_quads: list[RealPoly], max_deg: int) -> list[RealPoly]:
    """Candidate real multipliers: 1, single factors, products, then squares."""
    cands: list[tuple[tuple[int, int, tuple[float, ...]], RealPoly]] = []
    for expo in itertools.product(range(3), repeat=len(base_quads)):
        deg = 2 * sum(expo)
        if deg == 0 or deg > 2 * max_deg:
            continue
        has_square = int(any(e >= 2 for e in expo))
        if not has_square and deg > max_deg and sum(expo) > 1:
            continue
        r = RP_ONE
        for e, q in zip(expo, base_quads):
            for _ in range(e):
                r = r * q
        cands.append(((has_square, deg, tuple(r.coeffs)), r))
    cands.sort(key=lambda kv: kv[0])
    return [RP_ONE] + [r for _, r in cands]


def factor_bounded_with_multiplier(
    c: MotionPolynomial,
    max_deg: int | None = None,
    settings: SearchSettings | None = None,
) -> FactorizationReport:
    """Search for a real multiplier R so that c * R factors into rotations only.

    Candidates are ordered by degree: the trivial multiplier, then the
    irreducible quadratic factors of the real part of the primal, their
    products, and finally products with squared factors.
    """
    st = settings or SearchSettings()
    diagnostics: list[str] = []
    cm = _ensure_monic(c, diagnostics, st.tol)
    if not is_bounded(cm):
        raise Unbounded("norm polynomial has real roots, trajectories are unbounded")
    w = max_real_factor(cm.poly)
    max_deg = int(w.degree) if max_deg is None else max_deg
    base_quads = []
    if w.degree >= 2:
        base_quads = [q for q, _ in group_quadratics(quadratic_factors(w.monic()))]
    candidates = _multiplier_candidates(base_quads, max(max_deg, 0))
    diagnostics.append(
        "candidate multipliers: " + "; ".join(str(list(r.coeffs)) for r in candidates)
    )
    for r in candidates:
        target = validate_motion(cm.poly * r, st.tol)
        rep = factor_with_backtracking(target, st)
        rotations_only = []
        for f in rep.factorizations:
            try:
                if all(k == "rotation" for k in generator_kinds(f.rows, 1e-6)):
                    rotations_only.append(replace(f, multiplier=r))
            except NotLinearMotion:
                continue
        if rotations_only:
            diagnostics.extend(rep.diagnostics)
            diagnostics.append(f"multiplier {list(r.coeffs)} succeeded")
            return FactorizationReport(
                SUCCESS, tuple(rotations_only), r, tuple(diagnostics)
            )
        diagnostics.append(f"multiplier {list(r.coeffs)} failed: {rep.status}")
    diagnostics.append("no candidate multiplier produced a rotation only factorization")
    return FactorizationReport(NEEDS_MULTIPLIER, (), RP_ONE, tuple(diagnostics))


def _check_quaternion_monic(p: DQPoly, what: str, tol: float) -> None:
    if not np.max(np.abs(p.as_array()[:, 4:]), initial=0.0) <= tol * (1.0 + p.max_abs()):
        raise NotQuaternionPolynomial(f"{what} has a nonzero dual part, not a quaternion polynomial")
    if not p.is_monic(tol):
        raise NotMonic(f"{what} must be monic")


def factor_quaternion(p: DQPoly, tol: float = DEFAULT_TOL) -> Factorization:
    """Factor a monic quaternion polynomial into linear quaternion factors.

    When a norm quadratic divides the polynomial exactly, the canonical split
    with zero at s + sqrt(n - s**2) * k is used.
    """
    norm, _ = norm_poly(p)  # raises NonFiniteCoefficient before the checks below see a NaN
    _check_quaternion_monic(p, "polynomial", tol)
    scale = 1.0 + p.max_abs()
    d = p.as_array()
    factors: list[np.ndarray] = []
    for m in quadratic_factors(norm.monic(), tol):
        r0, r1 = mod_quadratic(d, m.as_array()[:2])
        if np.max(np.abs([r0, r1])) <= 1e-8 * scale:
            h = _canonical_variety_point(-m.coeff(1) / 2.0, m.coeff(0))
            h[3] = -h[3]
        else:
            h = _linear_zeros(r0, r1, tol)
        factors.insert(0, h)
        d, rem = divide_linear(d, h)
        if not np.max(np.abs(rem)) <= 1e-6 * scale:
            raise ExceptionalCase("division by the computed linear factor left a remainder")
    return Factorization(np.array(factors))


def right_multiply_and_factor(
    c: MotionPolynomial, h_poly: DQPoly, settings: SearchSettings | None = None
) -> FactorizationReport:
    """Factor c * H for a user supplied monic quaternion polynomial H.

    C and C*H parametrize different motions, but the fixed points of H retain
    their trajectories, which is what makes the construction useful for
    drawing curves.
    """
    st = settings or SearchSettings()
    _check_quaternion_monic(h_poly, "right multiplier", st.tol)
    target = validate_motion(c.poly * h_poly, st.tol)
    rep = factor_with_backtracking(target, st)
    note = (
        "factored the right multiplied polynomial; fixed points of the right "
        "multiplier retain their trajectories"
    )
    return replace(rep, diagnostics=(note,) + rep.diagnostics)
