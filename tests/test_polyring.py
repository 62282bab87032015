import numpy as np
import pytest

from motionfactor.dualquat import DQ_ONE, DualQuaternion, Q_ONE, QI, QJ, QK, Quaternion
from motionfactor.errors import (
    MotionFactorError,
    NonFiniteCoefficient,
    NonInvertibleDivisorLeading,
    NonInvertibleLeading,
    NonRealNorm,
    NotNonnegative,
    NumericalConditionWarning,
    OddDegree,
    ZeroNorm,
)
from motionfactor.polyring import (
    DQPoly,
    RealPoly,
    chain_product,
    common_real_factor,
    divide_linear,
    max_real_factor,
    mod_quadratic,
    norm_poly,
    norm_quadratic,
    quadratic_factors,
    real_roots_complex,
    right_divide,
    root_clusters,
    validate_motion,
)

from conftest import brute_right_eval, coeff_residual, dq, product_of, random_rotation_generator


def rp(*coeffs):
    return RealPoly.of(coeffs)


class TestRealPoly:
    def test_degree_sentinel(self):
        assert RealPoly().degree == float("-inf")
        assert rp(1.0).degree == 0
        assert rp(0.0, 1.0).degree == 1

    def test_trimming(self):
        assert rp(1.0, 2.0, 1e-12).coeffs == (1.0, 2.0)

    def test_divmod_reconstruction(self, rng):
        for _ in range(30):
            a = RealPoly.of(rng.normal(size=rng.integers(1, 8)))
            d = RealPoly.of(rng.normal(size=rng.integers(1, 5)))
            if d.is_zero:
                continue
            q, r = a.divmod_by(d)
            err = (q * d + r - a).max_abs()
            assert err < 1e-9 * (1 + a.max_abs() + q.max_abs() * d.max_abs())
            assert r.degree < d.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rp(1.0).divmod_by(RealPoly())

    def test_max_abs_keeps_nan(self):
        assert np.isnan(RealPoly((1.0, float("nan"), 2.0)).max_abs())
        assert RealPoly().max_abs() == 0.0


class TestDQPolyArithmetic:
    def test_max_abs_keeps_nan(self):
        p = DQPoly((DQ_ONE, dq(0.0, 2.0, 0.0, 0.0, 0.0, float("nan")), DQ_ONE))
        assert np.isnan(p.max_abs())
        assert DQPoly().max_abs() == 0.0

    def test_square_of_t_minus_i(self):
        c = DQPoly.t_minus(DualQuaternion(QI)) * DQPoly.t_minus(DualQuaternion(QI))
        want = DQPoly.of([DualQuaternion(Quaternion(-1)), DualQuaternion(QI * -2.0), DQ_ONE])
        assert coeff_residual(c, want) == 0.0

    def test_noncommutativity(self):
        ij = DQPoly.t_minus(DualQuaternion(QI)) * DQPoly.t_minus(DualQuaternion(QJ))
        ji = DQPoly.t_minus(DualQuaternion(QJ)) * DQPoly.t_minus(DualQuaternion(QI))
        want_ij = DQPoly.of([DualQuaternion(QK), DualQuaternion(-(QI + QJ)), DQ_ONE])
        want_ji = DQPoly.of([DualQuaternion(-QK), DualQuaternion(-(QI + QJ)), DQ_ONE])
        assert coeff_residual(ij, want_ij) == 0.0
        assert coeff_residual(ji, want_ji) == 0.0

    def test_conj_antihomomorphism(self, rng):
        for _ in range(20):
            a = DQPoly.of([dq(*rng.normal(size=8)) for _ in range(3)])
            b = DQPoly.of([dq(*rng.normal(size=8)) for _ in range(2)])
            assert coeff_residual((a * b).conj(), b.conj() * a.conj()) < 1e-9 * (
                1 + a.max_abs() * b.max_abs()
            )


class TestChainProduct:
    @pytest.mark.parametrize("k", range(7))
    def test_matches_chained_dataclass_products(self, rng, k):
        hs = rng.normal(size=(k, 8))
        got = chain_product(hs)
        want = product_of([DualQuaternion.from_array(h) for h in hs])
        assert got.shape == (k + 1, 8)
        assert coeff_residual(DQPoly.from_array(got), want) <= 1e-12 * (1 + want.max_abs())

    def test_batched_chains(self, rng):
        hs = rng.normal(size=(4, 3, 5, 8))
        got = chain_product(hs)
        assert got.shape == (4, 3, 6, 8)
        for row, chain in zip(got.reshape(-1, 6, 8), hs.reshape(-1, 5, 8)):
            want = product_of([DualQuaternion.from_array(h) for h in chain])
            assert coeff_residual(DQPoly.from_array(row), want) <= 1e-12 * (1 + want.max_abs())


class TestNormPoly:
    def test_rotation_norm(self):
        re, du = norm_poly(DQPoly.t_minus(DualQuaternion(QI)))
        assert re.coeffs == (1.0, 0.0, 1.0)
        assert du.is_zero

    def test_translation_norm(self):
        re, du = norm_poly(DQPoly.t_minus(DualQuaternion(Quaternion(), QI)))
        assert re.coeffs == (0.0, 0.0, 1.0)
        assert du.is_zero

    def test_constant_dual_norm(self):
        c = DQPoly.of([DualQuaternion(Q_ONE, QI), DualQuaternion(), DQ_ONE])
        re, du = norm_poly(c)
        assert (re - rp(1.0, 0.0, 2.0, 0.0, 1.0)).max_abs() < 1e-12
        assert du.is_zero

    def test_small_lead_kept(self):
        # the x component leads with 5e-5 next to coefficients of about 3: the
        # lead 2.5e-9 of its square is under the trimming threshold of the
        # square alone, yet a middle coefficient of the norm needs it
        rows = np.zeros((3, 8))
        rows[:, 0] = [3.1, -2.7, 1.0]
        rows[:, 1] = [2.9, 5e-5, 0.0]
        rows[:, 6] = [-3.2, 2.8, 0.0]
        rows[:, 2] = [0.4, 1e-4, 0.0]
        re, du = norm_poly(DQPoly.from_array(rows))
        want_re = sum(np.convolve(rows[:, i], rows[:, i]) for i in range(4))
        want_du = 2.0 * sum(np.convolve(rows[:, i], rows[:, 4 + i]) for i in range(4))
        for got, want in ((re, want_re), (du, want_du)):
            got = np.pad(got.coeffs, (0, len(want) - len(got.coeffs)))
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_multiplicative(self, rng):
        a = product_of([random_rotation_generator(rng) for _ in range(2)])
        b = product_of([random_rotation_generator(rng)])
        ra, _ = norm_poly(a)
        rb, _ = norm_poly(b)
        rab, _ = norm_poly(a * b)
        assert (rab - ra * rb).max_abs() < 1e-9 * (1 + rab.max_abs())

    def test_norm_quadratic_is_norm_of_linear_factor(self, rng):
        for h in [random_rotation_generator(rng) for _ in range(5)] + [DualQuaternion(Quaternion(), QI)]:
            re, _ = norm_poly(DQPoly.t_minus(h))
            q = norm_quadratic(h)
            assert len(q.coeffs) == 3 and q.coeffs[2] == 1.0
            assert (re - q).max_abs() < 1e-12 * (1 + re.max_abs())


class TestValidateMotion:
    def test_curvilinear_translations_are_valid(self):
        for a, b in ((1.0, 1.0), (2.0, 1.0)):
            c = DQPoly.of([
                DualQuaternion(Q_ONE, Quaternion(0, a, 0, 0)),
                DualQuaternion(Quaternion(), Quaternion(0, 0, b, 0)),
                DQ_ONE,
            ])
            assert validate_motion(c).degree == 2

    def test_translation_factor_is_valid(self):
        validate_motion(DQPoly.t_minus(dq(1, 0, 0, 0, 0, 1, 0, 0)))

    def test_non_real_norm(self):
        with pytest.raises(NonRealNorm):
            validate_motion(DQPoly.of([DualQuaternion(Quaternion(), Q_ONE), DQ_ONE]))

    def test_non_invertible_leading(self):
        with pytest.raises(NonInvertibleLeading):
            validate_motion(DQPoly.of([DQ_ONE, DualQuaternion(Quaternion(), QI)]))

    def test_zero_norm(self):
        with pytest.raises(ZeroNorm):
            validate_motion(DQPoly.of([DualQuaternion(Quaternion(), QI)]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("k,i", [(0, 0), (0, 6), (1, 3), (2, 7)])
    def test_non_finite_coefficient(self, bad, k, i):
        rows = [DualQuaternion(QI).as_array(), DualQuaternion(QJ).as_array(), DQ_ONE.as_array()]
        rows[k][i] = bad
        c = DQPoly(tuple(DualQuaternion.from_array(r) for r in rows))
        with pytest.raises(NonFiniteCoefficient) as err:
            validate_motion(c)
        assert isinstance(err.value, MotionFactorError)


class TestRightDivision:
    def test_constant_remainder_example(self):
        c = DQPoly.of([DualQuaternion(Q_ONE, QI), DualQuaternion(), DQ_ONE])
        q, r = right_divide(c, DQPoly.of([1.0, 0.0, 1.0]))
        assert coeff_residual(q, DQPoly.of([1.0])) < 1e-12
        assert coeff_residual(r, DQPoly.of([DualQuaternion(Quaternion(), QI)])) < 1e-12

    def test_right_factor_divides(self):
        c = DQPoly.t_minus(DualQuaternion(QI)) * DQPoly.t_minus(DualQuaternion(QJ))
        q, r = right_divide(c, DQPoly.t_minus(DualQuaternion(QJ)))
        assert coeff_residual(q, DQPoly.t_minus(DualQuaternion(QI))) < 1e-12
        assert r.is_zero

    def test_left_factor_leaves_remainder(self):
        c = DQPoly.t_minus(DualQuaternion(QI)) * DQPoly.t_minus(DualQuaternion(QJ))
        _, r = right_divide(c, DQPoly.t_minus(DualQuaternion(QI)))
        # remainder equals the right evaluation at i, which is 2k
        assert coeff_residual(r, DQPoly.of([DualQuaternion(QK * 2.0)])) < 1e-12

    def test_random_reconstruction(self, rng):
        for _ in range(50):
            c = DQPoly.of([dq(*rng.normal(size=8)) for _ in range(rng.integers(2, 6))])
            d = DQPoly.of([dq(*rng.normal(size=8)) for _ in range(rng.integers(1, 4))])
            if d.is_zero or d.lead.primal.norm() < 1e-3:
                continue
            q, r = right_divide(c, d)
            recon = q * d + r
            assert coeff_residual(recon, c) < 1e-9 * (1 + c.max_abs() + q.max_abs() * d.max_abs())
            assert r.degree < d.degree

    def test_non_invertible_divisor(self):
        d = DQPoly.of([DQ_ONE, DualQuaternion(Quaternion(), QJ)])
        with pytest.raises(NonInvertibleDivisorLeading):
            right_divide(DQPoly.of([1.0, 0.0, 1.0]), d)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_array_kernels_match_right_divide(self, rng, degree):
        cs = rng.normal(size=(3, degree + 1, 8))
        ms = rng.normal(size=(3, 2))
        hs = rng.normal(size=(3, 8))
        quads, quots, rems = np.stack(mod_quadratic(cs, ms), axis=-2), *divide_linear(cs, hs)
        for c_arr, m, h, quad, quot, rem in zip(cs, ms, hs, quads, quots, rems):
            c = DQPoly.from_array(c_arr)
            tol = 1e-10 * (1.0 + c.max_abs()) * (1.0 + np.max(np.abs(h))) ** degree
            _, r = right_divide(c, DQPoly.of([m[0], m[1], 1.0]))
            want = np.array([r.coeff(k).as_array() for k in range(2)])
            assert np.max(np.abs(np.array(mod_quadratic(c_arr, m)) - want)) <= tol
            q, r = right_divide(c, DQPoly.t_minus(DualQuaternion.from_array(h)))
            want_q = np.array([q.coeff(k).as_array() for k in range(degree)])
            got_q, got_r = divide_linear(c_arr, h)
            assert np.max(np.abs(got_q - want_q)) <= tol
            assert np.max(np.abs(got_r - r.coeff(0).as_array())) <= tol
            # the batched (N, L, 8) calls agree with the one-row calls
            assert np.max(np.abs(quad - want)) <= tol
            assert np.max(np.abs(quot - got_q)) <= tol
            assert np.max(np.abs(rem - got_r)) <= tol


class TestEvaluation:
    def test_eval_examples(self):
        c1 = DQPoly.t_minus(DualQuaternion(QI))
        assert (c1.eval_at(0.0) - DualQuaternion(-QI)).is_zero()
        c2 = c1 * c1
        assert (c2.eval_at(1.0) - DualQuaternion(QI * -2.0)).is_zero()
        assert (c2.eval_at(float("inf")) - DQ_ONE).is_zero()

    def test_right_eval_zeros(self):
        c = DQPoly.t_minus(DualQuaternion(QJ))
        assert c.right_eval(DualQuaternion(QJ)).is_zero()
        c2 = DQPoly.t_minus(DualQuaternion(QI)) * c
        assert c2.right_eval(DualQuaternion(QJ)).is_zero()

    def test_right_eval_against_brute_force(self, rng):
        c = DQPoly.t_minus(DualQuaternion(QI)) * DQPoly.t_minus(DualQuaternion(QJ))
        h = DualQuaternion(QI)
        assert (c.right_eval(h) - brute_right_eval(c, h)).is_zero(1e-12)
        assert (c.right_eval(h) - DualQuaternion(QK * 2.0)).is_zero(1e-12)

    def test_right_eval_is_division_remainder(self, rng):
        for _ in range(50):
            c = DQPoly.of([dq(*rng.normal(size=8)) for _ in range(rng.integers(2, 6))])
            h = dq(*rng.normal(size=8))
            _, r = right_divide(c, DQPoly.t_minus(h))
            got = c.right_eval(h)
            want = r.coeff(0)
            assert (got - want).max_abs() < 1e-9 * (1 + got.max_abs())


class TestRoots:
    def test_examples(self):
        roots = sorted(real_roots_complex(rp(1.0, 0.0, 1.0)), key=lambda z: z.imag)
        assert np.allclose(roots, [-1j, 1j])
        assert np.allclose(sorted(real_roots_complex(rp(-3.0, 1.0)).real), [3.0])

    def test_reconstruction(self, rng):
        p = rp(4.0, 0.0, 5.0, 0.0, 1.0) * rp(4.0, -4.0, 1.0)  # (t^2+1)(t^2+4)(t-2)^2
        roots = real_roots_complex(p)
        recon = np.poly(roots)[::-1].real
        assert np.allclose(recon, p.as_array(), atol=1e-7)


class TestQuadraticFactors:
    def test_repeated_factor(self):
        n = rp(1.0, 0.0, 1.0) * rp(1.0, 0.0, 1.0)
        with pytest.warns(NumericalConditionWarning):
            quads = quadratic_factors(n)
        assert len(quads) == 2
        for q in quads:
            assert (q - rp(1.0, 0.0, 1.0)).max_abs() < 1e-10

    def test_distinct_factors(self):
        quads = quadratic_factors(rp(1.0, 0.0, 1.0) * rp(4.0, 0.0, 1.0))
        assert len(quads) == 2
        assert (quads[0] - rp(1.0, 0.0, 1.0)).max_abs() < 1e-10
        assert (quads[1] - rp(4.0, 0.0, 1.0)).max_abs() < 1e-10

    def test_double_real_root(self):
        quads = quadratic_factors(rp(0.0, 0.0, 1.0))
        assert len(quads) == 1
        assert (quads[0] - rp(0.0, 0.0, 1.0)).max_abs() < 1e-8

    def test_rejects_negative(self):
        with pytest.raises(NotNonnegative):
            quadratic_factors(rp(-4.0, 0.0, 3.0, 0.0, 1.0))  # (t^2-1)(t^2+4)

    def test_rejects_odd_degree(self):
        with pytest.raises(OddDegree):
            quadratic_factors(rp(0.0, 1.0, 0.0, 1.0))

    def test_random_reconstruction(self, rng):
        for _ in range(25):
            k = int(rng.integers(1, 7))
            target = RealPoly.of([1.0])
            for _ in range(k):
                s = rng.uniform(-2, 2)
                r = rng.uniform(0.1, 2.0)
                target = target * rp(s * s + r * r, -2 * s, 1.0)
            quads = quadratic_factors(target)
            prod = RealPoly.of([1.0])
            for q in quads:
                prod = prod * q
            assert (prod - target).max_abs() < 1e-7 * (1 + target.max_abs())


class TestRootClusters:
    Z1 = complex(0.7, 1.3)
    Z2 = complex(-1.1, 0.4)

    @staticmethod
    def ascending(*roots):
        return np.poly(roots)[::-1]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_single_cluster(self, k):
        (z, mult), = root_clusters(self.ascending(*[self.Z1] * k))
        assert mult == k
        assert abs(z - self.Z1) < 1e-10

    def test_two_clusters(self):
        got = root_clusters(self.ascending(*[self.Z1] * 2, *[self.Z2] * 3))
        assert sorted(mult for _, mult in got) == [2, 3]
        for z, mult in got:
            want = self.Z1 if mult == 2 else self.Z2
            assert abs(z - want) < 1e-10

    def test_squared_circle_norm(self):
        # (t^2 + 1)^2: a remainder modulo (t - i)^2 has a vanishing leading
        # coefficient at i but not next to it
        got = sorted(root_clusters((1.0, 0.0, 2.0, 0.0, 1.0)), key=lambda zk: zk[0].imag)
        assert [mult for _, mult in got] == [2, 2]
        assert abs(got[0][0] + 1j) < 1e-12 and abs(got[1][0] - 1j) < 1e-12

    def test_close_simple_roots_stay_apart(self):
        # within the clustering net, but no double root: the merge is rejected
        got = sorted(root_clusters(rp(1.01, -2.01, 1.0).coeffs), key=lambda zk: zk[0].real)
        assert [mult for _, mult in got] == [1, 1]
        assert abs(got[0][0] - 1.0) < 1e-12 and abs(got[1][0] - 1.01) < 1e-12


class TestMaxRealFactor:
    def test_scalar_polynomial_is_its_own_factor(self):
        p = DQPoly.of([1.0, 0.0, 1.0])
        assert (max_real_factor(p) - rp(1.0, 0.0, 1.0)).max_abs() < 1e-10

    def test_real_quadratic_times_rotation(self):
        p = DQPoly.of([1.0, 0.0, 1.0]) * DQPoly.t_minus(DualQuaternion(QI))
        assert (max_real_factor(p) - rp(1.0, 0.0, 1.0)).max_abs() < 1e-8

    def test_real_linear_factor(self):
        # primal of the exceptional translation example: (t-1)(t-j)
        p = DQPoly.t_minus(DualQuaternion(Quaternion(1.0))) * DQPoly.t_minus(DualQuaternion(QJ))
        got = max_real_factor(p)
        assert (got - rp(-1.0, 1.0)).max_abs() < 1e-8

    def test_generic_product_has_trivial_factor(self, rng):
        p = product_of([random_rotation_generator(rng) for _ in range(2)])
        assert max_real_factor(p).degree == 0

    def test_against_divisor_enumeration_oracle(self, rng):
        from conftest import sympy_real_factor_oracle

        for _ in range(10):
            real_part = rp(1.0)
            for _ in range(int(rng.integers(0, 3))):
                if rng.random() < 0.5:
                    real_part = real_part * rp(-int(rng.integers(-2, 3)), 1)
                else:
                    real_part = real_part * rp(int(rng.integers(1, 4)), int(rng.integers(-1, 2)), 1)
            quat_part = DQPoly.of([
                DualQuaternion(Quaternion(*[int(x) for x in rng.integers(-2, 3, size=4)]))
                for _ in range(2)
            ] + [DQ_ONE])
            p = DQPoly.from_real(real_part) * quat_part
            comps = [[int(round(x)) for x in comp.as_array()] for comp in p.primal_components()]
            want = sympy_real_factor_oracle(comps)
            got = max_real_factor(p)
            assert got.degree == len(want) - 1
            assert np.allclose(got.as_array(), want, atol=1e-6)


class TestCommonRealFactor:
    def test_shared_linear(self):
        g = common_real_factor([rp(0.0, -1.0, 1.0), rp(1.0, -1.0)])
        assert (g - rp(-1.0, 1.0)).max_abs() < 1e-8
