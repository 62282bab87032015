import itertools
import json
import sys

import numpy as np
import pytest

from motionfactor.dualquat import (
    DQ_ONE,
    DualQuaternion,
    Q_ONE,
    QI,
    QJ,
    QK,
    Quaternion,
    Rotation,
    classify_generator,
)
from motionfactor import factorization, polyring
from motionfactor.errors import (
    ConstantRemainder,
    MotionFactorError,
    NonInvertibleLeading,
    NumericalConditionWarning,
    Unbounded,
)
from motionfactor.factorization import (
    SUCCESS,
    Factorization,
    FactorizationReport,
    SearchSettings,
    _dedupe_factorizations,
    _factor_sort_key,
    all_factorizations,
    factor_bounded_with_multiplier,
    factor_generic,
    factor_quaternion,
    factor_with_backtracking,
    is_bounded,
    linear_zero,
    right_multiply_and_factor,
)
from motionfactor.polyring import (
    DQPoly,
    MotionPolynomial,
    RealPoly,
    group_quadratics,
    quadratic_factors,
    validate_motion,
)
from motionfactor.synthesis import bennett_flip, translation_motion_from_curve

from conftest import (
    dq,
    norm_quadratic,
    pairwise_dedupe,
    product_of,
    random_generic_motion,
    random_rotation_generator,
    report_json_reference,
    residual_reference,
)


def per_order_peel(c):
    """Reference enumeration: one independent factor_generic per distinct order."""
    groups = group_quadratics(quadratic_factors(c.norm.monic()))
    labels = [i for i, (_, cnt) in enumerate(groups) for _ in range(cnt)]
    orders = sorted(set(itertools.permutations(labels)))
    return [factor_generic(c, [groups[i][0] for i in order]) for order in orders]


def assert_same_factorizations(got, want, c):
    tol = 1e-12 * (1.0 + c.poly.max_abs())
    assert len(got) == len(want)
    for f, g in zip(got, want):
        assert len(f.factors) == len(g.factors)
        for a, b in zip(f.factors, g.factors):
            assert (a - b).max_abs() <= tol


class TestLinearZero:
    def test_simple(self):
        r = DQPoly.of([DualQuaternion(QI * -2.0), DualQuaternion(Quaternion(2.0))])
        assert (linear_zero(r) - DualQuaternion(QI)).is_zero(1e-12)

    def test_constant_remainder(self):
        with pytest.raises(ConstantRemainder):
            linear_zero(DQPoly.of([DualQuaternion(Quaternion(), QI)]))

    def test_non_invertible_leading(self):
        r = DQPoly.of([DualQuaternion(Quaternion(), QI), DualQuaternion(Quaternion(), QJ)])
        with pytest.raises(NonInvertibleLeading):
            linear_zero(r)


class TestFactorGeneric:
    def test_ij_product(self):
        c = validate_motion(product_of([DualQuaternion(QI), DualQuaternion(QJ)]))
        f = factor_generic(c)
        assert (f.factors[0] - DualQuaternion(QI)).max_abs() < 1e-6
        assert (f.factors[1] - DualQuaternion(QJ)).max_abs() < 1e-6
        assert f.residual_against(c.poly) < 1e-8

    def test_repeated_rotation(self):
        c = validate_motion(product_of([DualQuaternion(QI), DualQuaternion(QI)]))
        f = factor_generic(c)
        for h in f.factors:
            assert (h - DualQuaternion(QI)).max_abs() < 1e-6

    def test_random_roundtrip(self, rng):
        for _ in range(10):
            c, _ = random_generic_motion(rng, 2)
            f = factor_generic(c)
            assert f.residual_against(c.poly) < 1e-8

    def test_requires_monic(self):
        c = validate_motion(DQPoly.of([DualQuaternion(QI), DualQuaternion(Quaternion(2.0))]))
        with pytest.raises(ValueError):
            factor_generic(c)

    def test_non_monic_is_typed(self):
        c = validate_motion(DQPoly.of([DualQuaternion(QI), DualQuaternion(Quaternion(2.0))]))
        with pytest.raises(MotionFactorError):
            all_factorizations(c)
        with pytest.raises(MotionFactorError):
            factor_generic(c)


class TestAllFactorizations:
    def test_generic_quadratic_has_two(self, rng):
        c, factors = random_generic_motion(rng, 2)
        fs = all_factorizations(c)
        assert len(fs) == 2
        assert any(
            all((a - b).max_abs() < 1e-7 for a, b in zip(f.factors, factors)) for f in fs
        )

    def test_generic_cubic_has_six(self, rng):
        c, _ = random_generic_motion(rng, 3)
        fs = all_factorizations(c)
        assert len(fs) == 6
        for f in fs:
            assert f.residual_against(c.poly) < 1e-8

    def test_repeated_norm_factor_single(self):
        with pytest.warns(Warning):
            c = validate_motion(product_of([DualQuaternion(QI), DualQuaternion(QI)]))
            fs = all_factorizations(c)
        assert len(fs) == 1

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_matches_per_order_peel(self, rng, degree):
        for _ in range(3 if degree < 5 else 1):
            c, _ = random_generic_motion(rng, degree)
            want = sorted(per_order_peel(c), key=_factor_sort_key)
            assert len(want) == len(set(itertools.permutations(range(degree))))
            assert_same_factorizations(all_factorizations(c), want, c)

    def test_repeated_quadratic_matches_deduped_peel(self, rng):
        h = random_rotation_generator(rng)
        with pytest.warns(NumericalConditionWarning):
            c = validate_motion(product_of([DualQuaternion(QI), DualQuaternion(QI), h]))
            got = all_factorizations(c)
            want = _dedupe_factorizations(per_order_peel(c))
        assert len(got) == 3
        assert_same_factorizations(got, want, c)
        for f in got:
            assert f.residual_against(c.poly) < 1e-8

    def test_shared_suffix_divisions(self, rng, monkeypatch):
        # the library divides on coefficient arrays only: the dataclass
        # right_divide is a reference for tests and is never called, whichever
        # module holds a reference to it
        c, _ = random_generic_motion(rng, 4)
        calls = []
        divide = polyring.right_divide

        def counting(*args, **kwargs):
            calls.append(1)
            return divide(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "motionfactor" and getattr(module, "right_divide", None) is divide:
                monkeypatch.setattr(module, "right_divide", counting)
        assert len(all_factorizations(c)) == 24
        # 4 + 12 + 24 + 24 peels of two divisions each; one peel per order
        # and factor would take 4 * 24 * 2 = 192
        assert len(calls) <= 2 * 64
        c2, _ = random_generic_motion(rng, 2)
        cr = validate_motion(c2.poly * RealPoly((1.0, 0.0, 1.0)))
        assert factor_with_backtracking(cr, SearchSettings(budget=4000)).status == SUCCESS
        qs = [DualQuaternion(Quaternion(*rng.normal(size=4))) for _ in range(3)]
        assert len(factor_quaternion(product_of(qs)).factors) == 3
        linear_zero(DQPoly.of([DualQuaternion(QI * -2.0), DualQuaternion(Quaternion(2.0))]))
        bennett_flip(random_rotation_generator(rng), random_rotation_generator(rng))
        product_of(qs).right_eval(random_rotation_generator(rng))
        assert calls == []

    def test_level_batched_peels(self, rng, monkeypatch):
        c, _ = random_generic_motion(rng, 4)
        rows = []
        peel = factorization._peel_level

        def counting(d, m, *args, **kwargs):
            rows.append(len(d))
            return peel(d, m, *args, **kwargs)

        monkeypatch.setattr(factorization, "_peel_level", counting)
        assert len(all_factorizations(c)) == 24
        # one call per tree level; 64 peels where one per order and factor is 96
        assert rows == [4, 12, 24, 24]

    def test_conjugated_quartic_with_small_vector_lead(self):
        # a change of coordinates that turns the t^3 primal vector coefficient
        # until its x part is 2e-5: the geometry and the 24 factorizations stay
        c, _ = random_generic_motion(np.random.default_rng(0), 4)
        v = c.poly.coeffs[-2].primal.as_array()[1:]
        a, e = v / np.linalg.norm(v), 2e-5 / np.linalg.norm(v)
        b = np.array([e, np.sqrt(1.0 - e * e), 0.0])
        axis = np.cross(a, b)
        half = 0.5 * np.arctan2(np.linalg.norm(axis), a @ b)
        r = Quaternion(np.cos(half), *(np.sin(half) * axis / np.linalg.norm(axis)))
        cc = DQPoly(tuple(DualQuaternion(r * k.primal * r.conj(), r * k.dual * r.conj())
                          for k in c.poly.coeffs))
        assert abs(cc.coeffs[-2].primal.x - 2e-5) < 1e-12
        fs = all_factorizations(validate_motion(cc))
        assert len(fs) == 24
        assert max(f.residual_against(cc) for f in fs) < 1e-8

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_nan_coefficient_raises(self, rng, k):
        c, _ = random_generic_motion(rng, 3)
        coeffs = list(c.poly.coeffs)
        coeffs[k] = coeffs[k] + dq(0.0, 0.0, float("nan"))
        with pytest.raises(MotionFactorError):
            all_factorizations(MotionPolynomial(DQPoly(tuple(coeffs)), c.norm))

    def test_norm_bookkeeping(self, rng):
        c, _ = random_generic_motion(rng, 3)
        fs = all_factorizations(c)
        want = quadratic_factors(c.norm.monic())
        for f in fs:
            got = sorted(
                (norm_quadratic(h) for h in f.factors),
                key=lambda q: (round(q.coeff(1), 9), round(q.coeff(0), 9)),
            )
            for a, b in zip(got, want):
                assert (a - b).max_abs() < 1e-7


class TestBoundedness:
    def test_rotation_bounded(self):
        assert is_bounded(validate_motion(DQPoly.t_minus(DualQuaternion(QI))))

    def test_translation_unbounded(self):
        assert not is_bounded(validate_motion(DQPoly.t_minus(DualQuaternion(Quaternion(), QI))))

    def test_curvilinear_translation_bounded(self):
        c = DQPoly.of([
            DualQuaternion(Q_ONE, Quaternion(0, 1.5, 0, 0)),
            DualQuaternion(Quaternion(), Quaternion(0, 0, 0.5, 0)),
            DQ_ONE,
        ])
        assert is_bounded(validate_motion(c))


class TestFactorQuaternion:
    def test_ij(self):
        p = product_of([DualQuaternion(QI), DualQuaternion(QJ)])
        f = factor_quaternion(p)
        assert (f.factors[0] - DualQuaternion(QI)).max_abs() < 1e-8
        assert (f.factors[1] - DualQuaternion(QJ)).max_abs() < 1e-8

    def test_canonical_split_of_real_quadratic(self):
        with pytest.warns(Warning):
            f = factor_quaternion(DQPoly.of([1.0, 0.0, 1.0]))
        assert (f.factors[0] - DualQuaternion(QK)).max_abs() < 1e-8
        assert (f.factors[1] - DualQuaternion(-QK)).max_abs() < 1e-8

    def test_random_roundtrip(self, rng):
        for _ in range(10):
            qs = [DualQuaternion(Quaternion(*rng.normal(size=4))) for _ in range(4)]
            p = product_of(qs)
            f = factor_quaternion(p)
            assert len(f.factors) == 4
            assert f.residual_against(p) < 1e-8

    def test_rejects_dual_parts(self):
        with pytest.raises(ValueError):
            factor_quaternion(DQPoly.t_minus(dq(0, 1, 0, 0, 0, 0, 1, 0)))


class TestBacktrackingGeneric:
    def test_matches_all_factorizations(self, rng):
        c, _ = random_generic_motion(rng, 2)
        rep = factor_with_backtracking(c)
        assert rep.status == SUCCESS
        fs = all_factorizations(c)
        assert len(rep.factorizations) == len(fs)
        for f in rep.factorizations:
            assert f.residual_against(c.poly) < 1e-9

    def test_budget_exhaustion_reports(self, rng):
        c, _ = random_generic_motion(rng, 3)
        rep = factor_with_backtracking(c, SearchSettings(budget=2))
        assert rep.status in (SUCCESS, "needs_multiplier")
        assert any("budget" in d for d in rep.diagnostics)


class TestProbeResidual:
    def test_fixed_length_on_every_branch(self, rng):
        # the family search appends this vector to a least-squares residual,
        # whose length must not change from one evaluation to the next
        h1, h2 = random_rotation_generator(rng), random_rotation_generator(rng)
        m = norm_quadratic(random_rotation_generator(rng))
        generic = product_of([h1, h2])
        exact = DQPoly.from_real(m) * DQPoly.t_minus(h1)
        nan = DQPoly(generic.coeffs[:1] + (DualQuaternion(Quaternion(float("nan"))),)
                     + generic.coeffs[2:])
        lengths = {len(factorization._probe_residual(q.as_array(), m, 1e-9))
                   for q in (generic, exact, nan)}
        assert lengths == {12}


class TestFactorBounded:
    def test_generic_reduces_to_trivial_multiplier(self, rng):
        c, _ = random_generic_motion(rng, 2)
        rep = factor_bounded_with_multiplier(c)
        assert rep.status == SUCCESS
        assert rep.multiplier.degree == 0
        assert len(rep.factorizations) == len(all_factorizations(c))

    def test_unbounded_raises(self):
        c = validate_motion(DQPoly.t_minus(DualQuaternion(Quaternion(), QI)))
        with pytest.raises(Unbounded):
            factor_bounded_with_multiplier(c)

    def test_all_factors_rotations(self, rng):
        c, _ = random_generic_motion(rng, 2)
        rep = factor_bounded_with_multiplier(c)
        for f in rep.factorizations:
            for h in f.factors:
                assert isinstance(classify_generator(h), Rotation)


class TestRightMultiply:
    def test_trivial_multiplier_equals_backtracking(self, rng):
        c, _ = random_generic_motion(rng, 2)
        rep1 = right_multiply_and_factor(c, DQPoly.of([1.0]))
        rep2 = factor_with_backtracking(c)
        assert rep1.status == rep2.status == SUCCESS
        assert len(rep1.factorizations) == len(rep2.factorizations)

    def test_square_of_rotation(self):
        c = validate_motion(DQPoly.t_minus(DualQuaternion(QI)))
        rep = right_multiply_and_factor(c, DQPoly.t_minus(DualQuaternion(QI)))
        assert rep.status == SUCCESS
        f = rep.factorizations[0]
        for h in f.factors:
            assert (h - DualQuaternion(QI)).max_abs() < 1e-7

    def test_rejects_dual_multiplier(self, rng):
        c, _ = random_generic_motion(rng, 2)
        with pytest.raises(ValueError):
            right_multiply_and_factor(c, DQPoly.t_minus(dq(0, 0, 0, 1, 0, 1, 0, 0)))


class TestReportSerialization:
    def test_round_trip_through_json(self, rng):
        c, _ = random_generic_motion(rng, 2)
        rep = factor_with_backtracking(c)
        data = rep.to_json()
        for fd in data["factorizations"]:
            factors = [DualQuaternion.from_array(row) for row in fd["factors"]]
            mult = RealPoly.of(fd["multiplier"])
            f = Factorization(tuple(factors), mult)
            assert f.residual_against(c.poly) < 1e-8

    def test_report_matches_per_factor_serializer(self, rng):
        reports = []
        for degree in (2, 3, 4, 5):
            c, _ = random_generic_motion(rng, degree)
            reports.append(FactorizationReport(SUCCESS, tuple(all_factorizations(c))))
        c, _ = random_generic_motion(rng, 3)
        reports.append(factor_with_backtracking(c))
        t2p1 = RealPoly((1.0, 0.0, 1.0))
        ellipse = translation_motion_from_curve(
            (RealPoly((-4.0,)), RealPoly((0.0, -2.0)), RealPoly(())), t2p1)
        reports.append(factor_bounded_with_multiplier(ellipse))
        assert reports[-1].multiplier.degree == 2
        # factorizations of different lengths in one report
        reports.append(FactorizationReport(SUCCESS, reports[0].factorizations + reports[1].factorizations))
        for rep in reports:
            assert rep.status == SUCCESS and rep.factorizations
            want = report_json_reference(rep)
            assert rep.to_json() == want
            assert json.dumps(rep.to_json()) == json.dumps(want)

    def test_tuple_of_dual_quaternions_becomes_rows(self, rng):
        hs = [random_rotation_generator(rng) for _ in range(3)]
        f = Factorization(tuple(hs))
        assert f.rows.shape == (3, 8) and f.factor_array() is f.rows
        assert f.factors == tuple(hs)
        assert Factorization(()).rows.shape == (0, 8)


class TestArrayChains:
    def test_residual_against_with_multiplier(self, rng):
        for _ in range(5):
            c, factors = random_generic_motion(rng, 3)
            h = random_rotation_generator(rng)
            r = norm_quadratic(h)
            exact = Factorization(tuple(factors) + (h, h.conj()), r)
            off = Factorization(tuple(factors) + (h, h), r)
            for f in (exact, off):
                want = residual_reference(f, c.poly)
                assert abs(f.residual_against(c.poly) - want) <= 1e-12 * (1 + c.poly.max_abs())
            assert exact.residual_against(c.poly) < 1e-10
            assert off.residual_against(c.poly) > 1e-3

    def test_array_dedupe_matches_pairwise(self, rng):
        fs = []
        for _ in range(5):
            base = [random_rotation_generator(rng) for _ in range(3)]
            direction = rng.uniform(-1.0, 1.0, size=8)
            direction /= np.max(np.abs(direction))
            # steps of 0.6e-7: neighbours are duplicates, the second next is not
            for step in (0.0, 0.6e-7, 1.2e-7, 0.3e-7, 5e-7):
                fs.append(Factorization(tuple(
                    DualQuaternion.from_array(h.as_array() + step * direction) for h in base
                )))
        fs = [fs[i] for i in rng.permutation(len(fs))]
        got = _dedupe_factorizations(fs)
        want = pairwise_dedupe(fs)
        assert 5 < len(want) < len(fs)
        assert [id(f) for f in got] == [id(f) for f in want]


class TestSearchOnArrays:
    def test_no_dual_quaternion_arithmetic_in_the_search(self, monkeypatch):
        # the search keeps its factors as coefficient rows from start to end:
        # DualQuaternion objects are built only for the returned factorizations
        watched = {"_dfs", "_family_candidates", "_family_objective", "_record",
                   "_refine_factors", "_factor_planar"}
        t2p1 = RealPoly((1.0, 0.0, 1.0))
        c, _ = random_generic_motion(np.random.default_rng(20240811), 2)
        spatial = validate_motion(c.poly * t2p1)
        ellipse = translation_motion_from_curve(
            (RealPoly((-4.0,)), RealPoly((0.0, -2.0)), RealPoly(())), t2p1)
        planar = validate_motion(ellipse.poly * t2p1)
        calls, inside = [], []

        def spying(name):
            op = getattr(DualQuaternion, name)

            def spy(self, other):
                calls.append(name)
                frame = sys._getframe(1)
                while frame is not None:
                    if frame.f_code.co_name in watched:
                        inside.append((name, frame.f_code.co_name))
                    frame = frame.f_back
                return op(self, other)
            return spy

        for name in ("__add__", "__sub__", "__mul__"):
            monkeypatch.setattr(DualQuaternion, name, spying(name))
        reps = [factor_with_backtracking(spatial, SearchSettings(budget=4000)),
                factor_with_backtracking(planar)]
        assert [rep.status for rep in reps] == [SUCCESS, SUCCESS]
        assert any("famil" in d for d in reps[0].diagnostics)
        assert any("planar" in d for d in reps[1].diagnostics)
        residual_reference(reps[0].factorizations[0], spatial.poly)
        assert calls, "the spy saw no DualQuaternion arithmetic at all"
        assert inside == []

    def test_family_holds_arrays(self):
        # the circular translation has a two parameter family of right factors
        # with norm t^2 + 1: an (8,) basepoint and a (2, 8) orthonormal basis
        c = DQPoly.of([dq(1, 0, 0, 0, 0, 1, 0, 0), dq(0, 0, 0, 0, 0, 0, 1, 0), DQ_ONE])
        fam = factorization.solve_linear_factor(c, RealPoly((1.0, 0.0, 1.0)))
        assert isinstance(fam, factorization.SolutionFamily)
        assert fam.basepoint.shape == (8,) and fam.basis.shape == (2, 8)
        lam = np.array([0.3, -0.7])
        h = fam.at(lam)
        assert np.allclose(fam.params_of(h), lam, atol=1e-12)
        assert fam.distance_to(DualQuaternion.from_array(h)) < 1e-12
