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
    Translation,
    act_on_point,
    classify_generator,
    dq_inverse_array,
    dq_mul_array,
    generator_kinds,
    normalize_pose,
    planar_frame,
    pose_distance,
    study_form,
)
from motionfactor.errors import (
    ExceptionalPoint,
    NotInGroup,
    NotLinearMotion,
    NotOnStudyQuadric,
)
from motionfactor.factorization import all_factorizations
from motionfactor.polyring import DQPoly

from conftest import dq, random_generic_motion, random_rotation_generator, random_translation_generator


class TestQuaternion:
    def test_defining_relations(self):
        assert QI * QJ == QK
        assert QI * QI == Quaternion(-1)
        assert QJ * QJ == Quaternion(-1)
        assert QK * QK == Quaternion(-1)
        assert QI * QJ * QK == Quaternion(-1)

    def test_conj_product_is_norm(self):
        q = Quaternion(1, 1, 0, 0)
        assert q * q.conj() == Quaternion(2)

    def test_conj_involution_and_norm(self, rng):
        for _ in range(25):
            q = Quaternion(*rng.normal(size=4))
            assert q.conj().conj() == q
            assert q.norm() >= 0.0
            r = Quaternion(*rng.normal(size=4))
            assert abs((q * r).norm() - q.norm() * r.norm()) < 1e-9 * (1 + q.norm() * r.norm())

    def test_norm_zero_iff_zero(self):
        assert Quaternion().norm() == 0.0
        assert Quaternion(0, 1e-3, 0, 0).norm() > 0.0


class TestDualQuaternion:
    def test_eps_squared_is_zero(self):
        a = DualQuaternion(Q_ONE * 0.0, QI)
        b = DualQuaternion(Q_ONE * 0.0, QJ)
        assert (a * b).is_zero()

    def test_unit_with_dual_conj(self):
        h = DualQuaternion(Q_ONE, QI)
        assert (h * h.conj() - DQ_ONE).is_zero()

    def test_identity(self, rng):
        h = dq(*rng.normal(size=8))
        assert (DQ_ONE * h - h).is_zero()
        assert (h * DQ_ONE - h).is_zero()

    def test_norm_examples(self):
        n = DualQuaternion(Q_ONE, QI).norm()
        assert (n.re, n.du) == (1.0, 0.0)
        n = DualQuaternion(QI).norm()
        assert (n.re, n.du) == (1.0, 0.0)
        n = DualQuaternion(Q_ONE, Q_ONE).norm()
        assert (n.re, n.du) == (1.0, 2.0)

    def test_norm_multiplicative_and_defect(self, rng):
        for _ in range(25):
            a = dq(*rng.normal(size=8))
            b = dq(*rng.normal(size=8))
            nab = (a * b).norm()
            na, nb = a.norm(), b.norm()
            prod = na * nb
            scale = 1 + abs(prod.re) + abs(prod.du)
            assert abs(nab.re - prod.re) < 1e-9 * scale
            assert abs(nab.du - prod.du) < 1e-9 * scale
            assert abs(a.norm().du - a.study_defect()) < 1e-12 * scale

    def test_conj_involution(self, rng):
        h = dq(*rng.normal(size=8))
        assert h.conj().conj() == h

    def test_inverse(self, rng):
        h = dq(*rng.normal(size=8))
        assert (h * h.inverse() - DQ_ONE).is_zero(1e-9)

    @pytest.mark.parametrize("slot", range(8))
    def test_max_abs_keeps_nan(self, slot):
        coords = [0.0] * 8
        coords[slot] = float("nan")
        h = dq(*coords)
        assert np.isnan(h.max_abs())
        assert np.isnan(h.primal.max_abs() if slot < 4 else h.dual.max_abs())
        assert not h.is_zero()

    def test_max_abs_of_infinity(self):
        assert dq(0.0, 1.0, float("-inf")).max_abs() == float("inf")


class TestArrayKernel:
    def test_product_matches_dataclass(self, rng):
        a = rng.normal(size=(5, 3, 8))
        b = rng.normal(size=(5, 3, 8))
        got = dq_mul_array(a, b)
        assert got.shape == (5, 3, 8)
        for x, y, z in zip(a.reshape(-1, 8), b.reshape(-1, 8), got.reshape(-1, 8)):
            want = (DualQuaternion.from_array(x) * DualQuaternion.from_array(y)).as_array()
            assert np.max(np.abs(z - want)) <= 1e-14 * (1 + np.max(np.abs(want)))

    def test_inverse_matches_dataclass(self, rng):
        a = rng.normal(size=(7, 8))
        for x, z in zip(a, dq_inverse_array(a)):
            want = DualQuaternion.from_array(x).inverse().as_array()
            assert np.max(np.abs(z - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


class TestAction:
    def test_rotation_formula_components(self, rng):
        # trajectory of the rotation t - i matches the half angle formulas
        h = DualQuaternion(QI)
        for t0 in np.linspace(-5, 5, 11):
            g = DQPoly.t_minus(h).eval_at(float(t0))
            x = rng.normal(size=3)
            got = act_on_point(g, x)
            den = t0 * t0 + 1
            want = np.array([
                x[0],
                (t0 * t0 - 1) / den * x[1] + 2 * t0 / den * x[2],
                (t0 * t0 - 1) / den * x[2] - 2 * t0 / den * x[1],
            ])
            assert np.linalg.norm(got - want) < 1e-12

    def test_identity_action(self, rng):
        x = rng.normal(size=3)
        assert np.allclose(act_on_point(DQ_ONE, x), x)

    def test_translation_example(self):
        for t0 in (0.5, 2.0, -3.0):
            g = DualQuaternion(Quaternion(t0), -QI)  # value of t - eps*i at t0
            x = np.array([0.3, -1.0, 2.0])
            assert np.allclose(act_on_point(g, x), x + np.array([2.0 / t0, 0, 0]))

    def test_rejects_non_group_elements(self):
        with pytest.raises(NotInGroup):
            act_on_point(DualQuaternion(Q_ONE, Q_ONE), [1, 0, 0])
        with pytest.raises(NotInGroup):
            act_on_point(DualQuaternion(Quaternion(), QI), [1, 0, 0])

    def test_isometry(self, rng):
        for _ in range(20):
            h = random_rotation_generator(rng)
            g = DQPoly.t_minus(h).eval_at(0.7)
            x, y = rng.normal(size=3), rng.normal(size=3)
            d0 = np.linalg.norm(x - y)
            d1 = np.linalg.norm(act_on_point(g, x) - act_on_point(g, y))
            assert abs(d0 - d1) < 1e-9 * (1 + d0)

    def test_homomorphism(self, rng):
        for _ in range(20):
            g1 = DQPoly.t_minus(random_rotation_generator(rng)).eval_at(0.4)
            g2 = DQPoly.t_minus(random_rotation_generator(rng)).eval_at(-1.2)
            x = rng.normal(size=3)
            lhs = act_on_point(g1 * g2, x)
            rhs = act_on_point(g1, act_on_point(g2, x))
            assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_real_scalars_act_trivially(self, rng):
        h = DQPoly.t_minus(random_rotation_generator(rng)).eval_at(1.1)
        x = rng.normal(size=3)
        assert np.allclose(act_on_point(h, x), act_on_point(h * (-2.5), x))


class TestClassify:
    def test_basis_rotation(self):
        gen = classify_generator(DualQuaternion(QI))
        assert isinstance(gen, Rotation)
        assert np.allclose(gen.direction, [1, 0, 0])
        assert np.allclose(gen.anchor_point(), [0, 0, 0])

    def test_basis_translation(self):
        gen = classify_generator(DualQuaternion(Quaternion(), QI))
        assert isinstance(gen, Translation)
        assert np.allclose(gen.direction, [1, 0, 0])

    def test_family_member_axis_parallel_to_z(self):
        # h1 of the circular translation family, a = 1, f = 0.3, g = -0.2
        f, g, a = 0.3, -0.2, 1.0
        h = dq(0, 0, 0, 1, 0, -f, -(a + g), 0)
        gen = classify_generator(h)
        assert isinstance(gen, Rotation)
        assert np.allclose(np.abs(gen.direction), [0, 0, 1])

    def test_fixed_point_oracle(self, rng):
        for _ in range(25):
            h = random_rotation_generator(rng)
            gen = classify_generator(h)
            anchor = gen.anchor_point()
            assert abs(np.dot(gen.direction, gen.moment)) < 1e-12
            for t0 in (-2.0, 0.3, 5.0):
                g = DQPoly.t_minus(h).eval_at(t0)
                for s in (0.0, 1.0, -2.0):
                    x = anchor + s * gen.direction
                    assert np.linalg.norm(act_on_point(g, x) - x) < 1e-9

    def test_rejects_invalid(self):
        with pytest.raises(NotLinearMotion):
            classify_generator(DualQuaternion(Q_ONE, Q_ONE))  # scalar dual part
        with pytest.raises(NotLinearMotion):
            classify_generator(DualQuaternion(Quaternion(2.0)))  # real constant
        with pytest.raises(NotLinearMotion):
            classify_generator(dq(1, 1, 0, 0, 0, 1, 0, 0))  # study defect


def _message(h: DualQuaternion) -> str:
    with pytest.raises(NotLinearMotion) as info:
        classify_generator(h)
    return str(info.value)


BAD_GENERATORS = {
    "dual scalar part": DualQuaternion(Q_ONE, Q_ONE),
    "study defect": dq(1, 1, 0, 0, 0, 1, 0, 0),
    "dual scalar part and study defect": dq(1, 1, 0, 0, 1, 1, 0, 0),
    "real constant": DualQuaternion(Quaternion(2.0)),
    "nan row": dq(0, float("nan"), 0, 0, 0, 1, 0, 0),
}


class TestGeneratorKinds:
    def test_matches_classify_generator(self, rng):
        hs = [random_rotation_generator(rng) if rng.uniform() < 0.5 else random_translation_generator(rng)
              for _ in range(200)]
        want = [classify_generator(h).kind for h in hs]
        assert 50 < want.count("translation") < 150
        assert generator_kinds(np.array([h.as_array() for h in hs])) == want
        for tol in (1e-6, 1e-12):
            assert generator_kinds(np.array([h.as_array() for h in hs]), tol) == [
                classify_generator(h, tol).kind for h in hs]

    def test_no_rows(self):
        assert generator_kinds(np.zeros((0, 8))) == []

    @pytest.mark.parametrize("name", sorted(BAD_GENERATORS))
    def test_bad_row_message(self, rng, name):
        bad = BAD_GENERATORS[name]
        rows = np.array([random_rotation_generator(rng).as_array(), bad.as_array()])
        with pytest.raises(NotLinearMotion) as info:
            generator_kinds(rows)
        assert str(info.value) == _message(bad)

    def test_each_row_names_its_first_failing_check(self):
        messages = {name: _message(h) for name, h in BAD_GENERATORS.items()}
        assert messages["dual scalar part and study defect"] == messages["dual scalar part"]
        assert messages["nan row"] == messages["real constant"]
        assert messages["dual scalar part"] == "dual part of h has a scalar component"
        assert messages["study defect"] == "norm of t - h is not a real polynomial"
        assert messages["real constant"] == "h is a real constant, t - h moves nothing"

    @pytest.mark.parametrize("first, second", [("study defect", "dual scalar part"),
                                               ("dual scalar part", "real constant"),
                                               ("nan row", "study defect")])
    def test_first_bad_row_wins(self, rng, first, second):
        rows = np.array([random_translation_generator(rng).as_array(),
                         BAD_GENERATORS[first].as_array(), BAD_GENERATORS[second].as_array()])
        with pytest.raises(NotLinearMotion) as info:
            generator_kinds(rows)
        assert str(info.value) == _message(BAD_GENERATORS[first])


class TestPose:
    def test_scaling_and_sign(self):
        assert normalize_pose(DualQuaternion(Quaternion(2.0))).rep == DQ_ONE
        assert normalize_pose(DualQuaternion(Quaternion(-1.0))).rep == DQ_ONE

    def test_defect_zero_accepted(self):
        pose = normalize_pose(DualQuaternion(QI, QJ))
        assert abs(pose.rep.study_defect()) < 1e-12
        assert abs(pose.rep.primal.norm() - 1.0) < 1e-12

    def test_rejects_exceptional_and_off_quadric(self):
        with pytest.raises(ExceptionalPoint):
            normalize_pose(DualQuaternion(Quaternion(), QI))
        with pytest.raises(NotOnStudyQuadric):
            normalize_pose(DualQuaternion(Q_ONE, Q_ONE))

    def test_study_form_matches_defect(self, rng):
        h = dq(*rng.normal(size=8))
        assert abs(study_form(h, h) - h.study_defect()) < 1e-12

    def test_pose_distance_sign_invariant(self, rng):
        h = DualQuaternion(QI, QJ)
        assert pose_distance(h, h * (-3.0)) < 1e-12


def assert_frame(frame, normal):
    u, v, n = frame
    assert np.allclose(np.array([u, v, n]) @ np.array([u, v, n]).T, np.eye(3))
    assert np.allclose(np.cross(u, v), n)
    assert np.linalg.norm(np.cross(n, normal)) < 1e-12


class TestPlanarFrame:
    def test_planar_polynomial(self, rng):
        c, _ = random_generic_motion(rng, 3, planar=True)
        assert_frame(planar_frame(c.poly.as_array()), (0.0, 0.0, 1.0))

    def test_parallel_axis_joints(self, rng):
        axis = np.array([1.0, 2.0, -2.0]) / 3.0
        rows = np.array([random_rotation_generator(rng, axis).as_array() for _ in range(4)])
        u, v, n = planar_frame(rows)
        assert_frame((u, v, n), axis)
        # n follows the first primal vector part, u starts from the x axis
        assert np.dot(n, rows[0, 1:4]) > 0
        assert np.allclose(u, np.array([8.0, -2.0, 2.0]) / np.sqrt(72.0))

    def test_dual_only_translations(self):
        rows = np.array([[1.0, 0, 0, 0, 0, 0.5, -1.0, 0.0], [2.0, 0, 0, 0, 0, 3.0, 1.0, 0.0]])
        assert_frame(planar_frame(rows), (0.0, 0.0, 1.0))
        # a single translation direction: n starts from the z axis
        assert_frame(planar_frame(rows[:1]), (0.0, 0.0, 1.0))
        assert_frame(planar_frame(np.array([[1.0, 0, 0, 0, 0, 0, 0, 2.0]])), (0.0, 1.0, 0.0))

    def test_spatial_bennett_is_not_planar(self, rng):
        c, _ = random_generic_motion(rng, 2)
        f1, f2 = all_factorizations(c)[:2]
        assert planar_frame(np.vstack([f1.factor_array(), f2.factor_array()])) is None

    def test_constant_row_has_no_frame(self):
        assert planar_frame(np.array([[1.0, 0, 0, 0, 0, 0, 0, 0]])) is None

    def test_dual_scalar_part_is_not_planar(self):
        assert planar_frame(np.array([[1.0, 0, 0, 1.0, 0.5, 1.0, 0, 0]])) is None
