import math
import sys

import numpy as np
import pytest

from motionfactor import factorization, synthesis
from motionfactor.dualquat import (
    DQ_ONE,
    DualQuaternion,
    Q_ONE,
    QI,
    QJ,
    QK,
    Quaternion,
    act_on_point,
    normalize_pose,
    planar_frame,
    pose_distance,
    projective_residual,
    study_form,
)
from motionfactor.errors import (
    DegenerateFlip,
    DegeneratePoses,
    InsufficientFactorizations,
    MotionFactorError,
    UnboundedCurve,
)
from motionfactor.factorization import SUCCESS, factor_bounded_with_multiplier
from motionfactor.polyring import DQPoly, RealPoly, validate_motion
from motionfactor.synthesis import (
    bennett_flip,
    interpolate_three_poses,
    kempe_linkage_for_curve,
    six_bar_from_cubic,
    synthesize_bennett,
    translation_motion_from_curve,
)
from motionfactor.linkage import rigidity_check, sample_configuration, trajectory

from conftest import (
    coeff_residual,
    general_position_poses,
    norm_quadratic,
    product_of,
    random_generic_motion,
    random_pose,
    random_rotation_generator,
)


class TestInterpolation:
    def test_identical_poses_rejected(self):
        p = normalize_pose(DualQuaternion(QI, QJ))
        with pytest.raises(DegeneratePoses):
            interpolate_three_poses(p, p, p)

    def test_random_poses(self, rng):
        for _ in range(10):
            p0, p1, p2 = general_position_poses(rng)
            c = interpolate_three_poses(p0, p1, p2)
            assert c.degree == 2
            # curve stays on the quadric
            for t in np.cos(np.pi * (2 * np.arange(21) + 1) / 42) * 3.0:
                g = c.eval_at(float(t))
                assert abs(study_form(g, g)) < 1e-8 * (1 + g.max_abs()) ** 2
            # nodes hit the poses projectively
            assert projective_residual(c.eval_at(0.0), p0.rep) < 1e-8
            assert projective_residual(c.eval_at(1.0), p1.rep) < 1e-8
            assert projective_residual(c.poly.lead, p2.rep) < 1e-8

    def test_collinear_rotation_poses(self):
        # three poses of the rotation about the first axis: the quadratic
        # parametrizes the same rotation
        p0 = normalize_pose(DQ_ONE)
        p1 = normalize_pose(DualQuaternion(Quaternion(1.0, -1.0, 0.0, 0.0)))
        p2 = normalize_pose(DualQuaternion(-QI))
        c = interpolate_three_poses(p0, p1, p2)
        assert c.degree == 2
        assert projective_residual(c.eval_at(0.0), p0.rep) < 1e-10
        assert projective_residual(c.eval_at(1.0), p1.rep) < 1e-10
        assert projective_residual(c.poly.lead, p2.rep) < 1e-10
        for t in np.linspace(-3, 3, 13):
            g = c.eval_at(float(t))
            arr = g.as_array()
            # stays in the pencil spanned by 1 and i: a rotation about the same axis
            assert np.max(np.abs(arr[np.array([2, 3, 4, 5, 6, 7])])) < 1e-10 * (1 + g.max_abs())


class TestBennettSynthesis:
    def test_visits_poses(self, rng):
        for _ in range(5):
            p0, p1, p2 = general_position_poses(rng)
            bl = synthesize_bennett(p0, p1, p2)
            for t, pose in ((0.0, p0), (1.0, p1), (float("inf"), p2)):
                assert pose_distance(bl.probe_pose(t), pose.rep) < 1e-7

    def test_closure(self, rng):
        p0, p1, p2 = general_position_poses(rng)
        bl = synthesize_bennett(p0, p1, p2)
        lhs = product_of([bl.fixed_axes[0], bl.moving_axes[0]])
        rhs = product_of([bl.fixed_axes[1], bl.moving_axes[1]])
        assert coeff_residual(lhs, rhs) < 1e-9
        assert coeff_residual(lhs, bl.coupler_motion.poly) < 1e-9

    def test_planar_poses_give_antiparallelogram(self, rng):
        # poses of a planar motion: rotations about parallel axes
        gens = [random_rotation_generator(rng, axis_direction=(0, 0, 1)) for _ in range(2)]
        c = validate_motion(product_of(gens))
        poses = [normalize_pose(c.eval_at(t)) for t in (-1.0, 0.5, 2.0)]
        bl = synthesize_bennett(*poses)
        linkage = bl.to_linkage()
        h1, k1 = bl.fixed_axes
        h2, k2 = bl.moving_axes
        for t in (-2.0, 0.25, 3.0):
            pos = sample_configuration(linkage, t).joint_positions
            assert abs(np.linalg.norm(pos["h1"] - pos["h2"]) - np.linalg.norm(pos["k1"] - pos["k2"])) < 1e-7
            assert abs(np.linalg.norm(pos["h2"] - pos["k2"]) - np.linalg.norm(pos["h1"] - pos["k1"])) < 1e-7
            zs = [pos[j][2] for j in ("h1", "h2", "k1", "k2")]
            assert np.ptp(zs) < 1e-8

    def test_collinear_poses_rejected(self):
        p0 = normalize_pose(DQ_ONE)
        p1 = normalize_pose(DualQuaternion(Quaternion(1.0, -1.0, 0.0, 0.0)))
        p2 = normalize_pose(DualQuaternion(-QI))
        with pytest.raises(DegeneratePoses):
            synthesize_bennett(p0, p1, p2)


class TestBennettFlip:
    def test_equal_generators_degenerate(self):
        h = DualQuaternion(QI)
        with pytest.raises(DegenerateFlip):
            bennett_flip(h, h)

    def test_equal_norm_quadratics_degenerate(self):
        # distinct axes with the same norm quadratic collapse the flip cell
        with pytest.raises(DegenerateFlip):
            bennett_flip(DualQuaternion(QI), DualQuaternion(QJ))

    def test_flip_identity_and_norm_swap(self, rng):
        for _ in range(20):
            m_prev = random_rotation_generator(rng)
            h = random_rotation_generator(rng)
            if (norm_quadratic(m_prev) - norm_quadratic(h)).max_abs() < 0.05:
                continue
            flip = bennett_flip(m_prev, h)
            lhs = product_of([m_prev, h])
            rhs = product_of([flip.k, flip.m])
            assert coeff_residual(lhs, rhs) < 1e-9
            assert (norm_quadratic(flip.m) - norm_quadratic(m_prev)).max_abs() < 1e-7
            assert (norm_quadratic(flip.k) - norm_quadratic(h)).max_abs() < 1e-7

    def test_planar_flip_antiparallelogram(self, rng):
        from motionfactor.linkage import assemble

        m_prev = random_rotation_generator(rng, axis_direction=(0, 0, 1), scalar=0.0)
        h = random_rotation_generator(rng, axis_direction=(0, 0, 1), scalar=0.8)
        flip = bennett_flip(m_prev, h)
        loop = ([("m0", m_prev), ("h1", h)], [("k1", flip.k), ("m1", flip.m)])
        linkage = assemble([loop])
        for t in (-1.5, 0.2, 2.5):
            pos = sample_configuration(linkage, t).joint_positions
            s1 = np.linalg.norm(pos["h1"] - pos["m1"])
            s2 = np.linalg.norm(pos["m1"] - pos["k1"])
            s3 = np.linalg.norm(pos["k1"] - pos["m0"])
            s4 = np.linalg.norm(pos["m0"] - pos["h1"])
            assert abs(s1 - s3) < 1e-7
            assert abs(s2 - s4) < 1e-7


class TestTranslationMotion:
    def test_axis_aligned_ellipse(self):
        c = translation_motion_from_curve(
            (RealPoly((-2.0,)), RealPoly((0.0, -2.0)), RealPoly(())), RealPoly((1.0, 0.0, 1.0))
        )
        want = DQPoly.of([
            DualQuaternion(Q_ONE, Quaternion(0, 1.0, 0, 0)),
            DualQuaternion(Quaternion(), Quaternion(0, 0, 1.0, 0)),
            DQ_ONE,
        ])
        assert coeff_residual(c.poly, want) < 1e-12

    def test_zero_numerator_is_identity_motion(self, rng):
        c = translation_motion_from_curve(
            (RealPoly(()), RealPoly(()), RealPoly(())), RealPoly((2.0, 0.0, 2.0))
        )
        x = rng.normal(size=3)
        assert np.allclose(act_on_point(c.eval_at(0.3), x), x)

    def test_translation_matches_curve(self, rng):
        v = (RealPoly((1.0, 0.5)), RealPoly((0.0, -1.0)), RealPoly((0.5,)))
        w = RealPoly((2.0, 0.0, 1.0))
        c = translation_motion_from_curve(v, w)
        for t in np.linspace(-3, 3, 7):
            x = rng.normal(size=3)
            want = x + np.array([vi(float(t)) for vi in v]) / w(float(t))
            assert np.allclose(act_on_point(c.eval_at(float(t)), x), want, atol=1e-10)

    def test_real_root_denominator_rejected(self):
        with pytest.raises(UnboundedCurve):
            translation_motion_from_curve(
                (RealPoly((1.0,)), RealPoly(()), RealPoly(())), RealPoly((-1.0, 0.0, 1.0))
            )

    def test_shared_factor_rejected(self):
        shared = RealPoly((1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            translation_motion_from_curve(
                (shared, RealPoly(()), RealPoly(())), shared * shared
            )


class TestKempe:
    def test_circle_chain_of_length_two(self):
        v = (RealPoly((-2.0,)), RealPoly((0.0, -2.0)), RealPoly(()))
        w = RealPoly((1.0, 0.0, 1.0))
        linkage = kempe_linkage_for_curve(v, w)
        assert len(linkage.loops) == 2
        assert len(linkage.graph.joints) == 7  # 2 h + 2 k + 3 m

    def test_ellipse_cells(self):
        v = (RealPoly((-4.0,)), RealPoly((0.0, -2.0)), RealPoly(()))
        w = RealPoly((1.0, 0.0, 1.0))
        linkage = kempe_linkage_for_curve(v, w)
        assert len(linkage.loops) == 4
        for left, right in linkage.loops:
            assert len(left) == len(right) == 2

    def test_chains_multiply_on_arrays(self, monkeypatch):
        # the residual, polish, dedupe, closure and flip steps multiply factor
        # chains with chain_product, never with DQPoly products
        watched = {"_record", "_refine_factors", "_dedupe_factorizations", "assemble", "bennett_flip"}
        calls, inside = [], []
        mul = DQPoly.__mul__

        def spy(self, other):
            calls.append(1)
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code.co_name in watched:
                    inside.append(frame.f_code.co_name)
                frame = frame.f_back
            return mul(self, other)

        monkeypatch.setattr(DQPoly, "__mul__", spy)
        v = (RealPoly((-4.0,)), RealPoly((0.0, -2.0)), RealPoly(()))
        kempe_linkage_for_curve(v, RealPoly((1.0, 0.0, 1.0)))
        assert calls, "the spy saw no DQPoly product at all"
        assert inside == []

    @staticmethod
    def assert_traces(linkage, v, w):
        ts = [-2.5, -0.7, 0.0, 0.3, 1.9]
        got = trajectory(linkage, linkage.tracer[0], linkage.tracer[1], ts)
        want = np.array([[vi(t) / w(t) for vi in v] for t in ts])
        assert np.max(np.abs(got - want)) < 1e-9

    def test_tracer_with_numerator_of_full_degree(self):
        # deg v = deg w: the curve motion is not monic, and the tracer point
        # must absorb the leading coefficient that monicizing splits off
        v = (RealPoly((-4.0, 0.0, 1.0)), RealPoly((0.0, -2.0, 0.5)), RealPoly(()))
        w = RealPoly((1.0, 0.0, 1.0))
        self.assert_traces(kempe_linkage_for_curve(v, w), v, w)

    def test_planar_quartic(self):
        # w = (t^2 + 1) ((t - a)^2 + b^2): the multiplied motion has double
        # primal roots at +-i
        a, b = 0.4, 2.5
        w = RealPoly.of(np.convolve([1.0, 0.0, 1.0], [a * a + b * b, -2.0 * a, 1.0]))
        v = (RealPoly((1.2, -0.8, 0.3, 1.5, -1.1)), RealPoly((-0.6, 1.7, -1.4, 0.2, 0.9)),
             RealPoly(()))
        linkage = kempe_linkage_for_curve(v, w)
        assert rigidity_check(linkage).passes()
        self.assert_traces(linkage, v, w)

    def test_clashing_extra_joint_rejected(self):
        v = (RealPoly((-2.0,)), RealPoly((0.0, -2.0)), RealPoly(()))
        w = RealPoly((1.0, 0.0, 1.0))
        with pytest.raises(DegenerateFlip):
            kempe_linkage_for_curve(v, w, m0=DualQuaternion(QK))

    @pytest.mark.parametrize("m0", [DualQuaternion(Quaternion(), QI), DualQuaternion(Q_ONE)],
                             ids=["translation", "constant"])
    def test_extra_joint_checked_before_the_search(self, monkeypatch, m0):
        import motionfactor.synthesis as synthesis

        calls = []
        monkeypatch.setattr(synthesis, "factor_bounded_with_multiplier",
                            lambda *args, **kwargs: calls.append(1))
        v = (RealPoly((-4.0,)), RealPoly((0.0, -2.0)), RealPoly(()))
        with pytest.raises(MotionFactorError):
            kempe_linkage_for_curve(v, RealPoly((1.0, 0.0, 1.0)), m0=m0)
        assert calls == []


def seeded_ellipse(rng):
    """Ellipse c + M (cos theta, sin theta) over w = t^2 + 1 whose point at t = inf is the origin."""
    a, b = rng.uniform(0.5, 3.0, size=2)
    phi, psi = rng.uniform(0.0, 2.0 * math.pi, size=2)

    def rot(x):
        return np.array([[math.cos(x), -math.sin(x)], [math.sin(x), math.cos(x)]])

    m = 2.0 * rot(phi) @ np.diag([a, b]) @ rot(psi)
    return (RealPoly(tuple(m[0])), RealPoly(tuple(m[1])), RealPoly(())), RealPoly((1.0, 0.0, 1.0))


# planar quartic whose multiplier search needs w itself, of degree 4
C1 = ((RealPoly((-0.651281012443394, 0.8624447963157468)),
       RealPoly((0.6691532407894528, 1.2188436051712233)), RealPoly(())),
      RealPoly((16.365943094043466, 10.124903331974439, 9.01480796787431, 4.435708342188955, 1.0)))
README_ELLIPSE = ((RealPoly((-4.0,)), RealPoly((0.0, -2.0)), RealPoly(())), RealPoly((1.0, 0.0, 1.0)))
_ellipse_rng = np.random.default_rng(31)
FIRST_HIT_CURVES = [README_ELLIPSE] + [seeded_ellipse(_ellipse_rng) for _ in range(20)] + [C1]
FIRST_HIT_IDS = ["readme"] + [f"ellipse{i}" for i in range(20)] + ["c1"]


class TestFirstHit:
    """curve takes the first rotation-only factorization the multiplier search meets."""

    @staticmethod
    def spent_nodes(monkeypatch, c, first):
        states = []

        class CountingState(factorization._SearchState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        monkeypatch.setattr(factorization, "_SearchState", CountingState)
        rep = factor_bounded_with_multiplier(c, first=first)
        return rep, sum(st.nodes for st in states)

    @pytest.mark.parametrize("curve", FIRST_HIT_CURVES, ids=FIRST_HIT_IDS)
    def test_first_hit_is_one_of_the_full_search(self, monkeypatch, curve):
        c = translation_motion_from_curve(*curve)
        first, first_nodes = self.spent_nodes(monkeypatch, c, True)
        full, full_nodes = self.spent_nodes(monkeypatch, c, False)
        assert first.status == full.status == SUCCESS
        assert len(first.factorizations) == 1
        assert first.multiplier.coeffs == full.multiplier.coeffs
        (f,) = first.factorizations
        assert f.multiplier.coeffs == full.multiplier.coeffs
        assert min(np.max(np.abs(g.rows - f.rows)) for g in full.factorizations) <= 1e-9
        assert 0 < first_nodes <= full_nodes

    @pytest.mark.parametrize("curve", FIRST_HIT_CURVES, ids=FIRST_HIT_IDS)
    def test_curve_linkage_is_planar_rigid_and_traces(self, curve):
        v, w = curve
        linkage = kempe_linkage_for_curve(v, w)
        # the factor chain h1..hn that the flips were built on lies in one plane
        hs = np.array([j.generator.as_array() for j in linkage.graph.joints if j.id.startswith("h")])
        assert len(hs) == 2 * w.degree
        assert planar_frame(hs) is not None
        assert rigidity_check(linkage).passes()
        ts = [-2.5, -0.7, 0.0, 0.3, 1.9]
        got = trajectory(linkage, linkage.tracer[0], linkage.tracer[1], ts)
        want = np.array([[vi(t) / w(t) for vi in v] for t in ts])
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_flips_take_the_linear_zero_path(self, monkeypatch):
        flips, solves = [], []
        flip, solve = synthesis.bennett_flip, factorization.solve_linear_factor

        def flip_spy(*args, **kwargs):
            flips.append(1)
            return flip(*args, **kwargs)

        def solve_spy(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code.co_name == "bennett_flip":
                    solves.append(1)
                frame = frame.f_back
            return solve(*args, **kwargs)

        monkeypatch.setattr(synthesis, "bennett_flip", flip_spy)
        monkeypatch.setattr(factorization, "solve_linear_factor", solve_spy)
        monkeypatch.setattr(synthesis, "solve_linear_factor", solve_spy, raising=False)
        kempe_linkage_for_curve(*README_ELLIPSE)
        assert len(flips) == 4
        assert solves == []


class TestSixBar:
    def test_random_cubic_loop(self, rng):
        c, _ = random_generic_motion(rng, 3)
        linkage = six_bar_from_cubic(c)
        assert len(linkage.graph.links) == 6
        assert len(linkage.graph.joints) == 6
        (left, right) = linkage.loops[0]
        lhs = product_of([linkage.graph.joint(j).generator for j in left])
        rhs = product_of([linkage.graph.joint(j).generator for j in right])
        assert coeff_residual(lhs, rhs) < 1e-8

    def test_single_factorization_rejected(self):
        c = validate_motion(product_of([DualQuaternion(QI)] * 3))
        with pytest.raises(InsufficientFactorizations):
            with pytest.warns(Warning):
                six_bar_from_cubic(c)

    def test_concurrent_axes_note(self, rng):
        gens = []
        while len(gens) < 3:
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            rho = rng.uniform(0.5, 2.0)
            h = DualQuaternion(Quaternion(rng.uniform(-1.5, 1.5), *(rho * d)))
            if all((norm_quadratic(h) - norm_quadratic(g)).max_abs() > 0.05 for g in gens):
                gens.append(h)
        c = validate_motion(product_of(gens))
        linkage = six_bar_from_cubic(c)
        assert any("spherical" in note for note in linkage.notes)
