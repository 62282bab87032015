import dataclasses
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from motionfactor import dualquat as dualquat_module
from motionfactor import linkage as linkage_module
from motionfactor.dualquat import (
    DQ_ONE,
    DualQuaternion,
    QI,
    Quaternion,
    act_on_point,
    classify_generator,
    pose_distance,
)
from motionfactor.errors import ClosureMismatch, NotInGroup, NotOnStudyQuadric, NotPlanar, SingularParameter
from motionfactor.factorization import all_factorizations
from motionfactor.linkage import (
    Joint,
    LinkGraph,
    assemble,
    default_samples,
    export,
    forward_kinematics,
    import_linkage,
    rigidity_check,
    sample_configuration,
    trajectory,
)
from motionfactor.polyring import DQPoly, RealPoly
from motionfactor.synthesis import kempe_linkage_for_curve, six_bar_from_cubic, synthesize_bennett

from conftest import (
    forward_kinematics_reference,
    general_position_poses,
    random_generic_motion,
    random_rotation_generator,
)


def bennett_linkage(rng):
    c, _ = random_generic_motion(rng, 2)
    f1, f2 = all_factorizations(c)[:2]
    loop = (
        [("h1", f1.factors[0]), ("h2", f1.factors[1])],
        [("k1", f2.factors[0]), ("k2", f2.factors[1])],
    )
    return assemble([loop])


def translation_pair_linkage():
    # a translation factor has a real norm root at its scalar, here t = 1
    h = DualQuaternion(Quaternion(1.0), QI)
    k = DualQuaternion(Quaternion(1.0), QI * 0.5)
    return assemble([
        ([("a", h), ("b", k)], [("c", h), ("d", k)])
    ])


def dataclass_positions(linkage, t):
    """Joint positions from dataclass products along a breadth first path from the ground."""
    evals = {j.id: DQPoly.t_minus(j.generator).eval_at(t) for j in linkage.graph.joints}
    disp = {linkage.ground: DQ_ONE}
    frontier = [linkage.ground]
    while frontier:
        reached = []
        for cur in frontier:
            for jid, a, b in linkage.orientations:
                for here, there, g in ((a, b, evals[jid]), (b, a, evals[jid].conj())):
                    if here == cur and there not in disp:
                        disp[there] = disp[cur] * g
                        reached.append(there)
        frontier = reached
    return {
        jid: act_on_point(disp[a], classify_generator(linkage.graph.joint(jid).generator).anchor_point(), 1e-6)
        for jid, a, _ in linkage.orientations
    }


def ellipse_linkage():
    v = (RealPoly((-4.0,)), RealPoly((0.0, -2.0)), RealPoly(()))
    w = RealPoly((1.0, 0.0, 1.0))
    return kempe_linkage_for_curve(v, w), v, w


class TestAssemble:
    def test_bennett_counts(self, rng):
        linkage = bennett_linkage(rng)
        assert len(linkage.graph.links) == 4
        assert len(linkage.graph.joints) == 4

    def test_six_bar_counts(self, rng):
        c, _ = random_generic_motion(rng, 3)
        f1, f2 = all_factorizations(c)[:2]
        loop = (
            [(f"h{i}", h) for i, h in enumerate(f1.factors, 1)],
            [(f"k{i}", k) for i, k in enumerate(f2.factors, 1)],
        )
        linkage = assemble([loop])
        assert len(linkage.graph.links) == 6
        assert len(linkage.graph.joints) == 6

    def test_mismatched_chains_rejected(self, rng):
        h1 = random_rotation_generator(rng)
        h2 = random_rotation_generator(rng)
        k1 = random_rotation_generator(rng)
        k2 = random_rotation_generator(rng)
        with pytest.raises(ClosureMismatch):
            assemble([([("h1", h1), ("h2", h2)], [("k1", k1), ("k2", k2)])])


class TestSampling:
    def test_infinity_is_home_configuration(self, rng):
        linkage = bennett_linkage(rng)
        sample = sample_configuration(linkage, float("inf"))
        for disp in sample.link_displacements.values():
            assert pose_distance(disp, DQ_ONE) < 1e-12

    def test_bennett_coupler_agreement(self, rng):
        linkage = bennett_linkage(rng)
        gens = {j.id: j.generator for j in linkage.graph.joints}
        for t in default_samples(linkage, 10):
            left = DQPoly.t_minus(gens["h1"]).eval_at(t) * DQPoly.t_minus(gens["h2"]).eval_at(t)
            right = DQPoly.t_minus(gens["k1"]).eval_at(t) * DQPoly.t_minus(gens["k2"]).eval_at(t)
            assert pose_distance(left, right) < 1e-9
            assert sample_configuration(linkage, t).max_loop_residual < 1e-9

    def test_singular_parameter_rejected(self):
        # a translation factor has a real norm root at its scalar
        h = DualQuaternion(Quaternion(1.0), QI)
        k = DualQuaternion(Quaternion(1.0), QI * 0.5)
        linkage = assemble([
            ([("a", h), ("b", k)], [("c", h), ("d", k)])
        ])
        with pytest.raises(SingularParameter):
            sample_configuration(linkage, 1.0)


class TestForwardKinematics:
    @pytest.mark.parametrize("which", ["ellipse", "bennett"])
    def test_matches_dataclass_evaluation(self, rng, which):
        linkage = ellipse_linkage()[0] if which == "ellipse" else bennett_linkage(rng)
        ts = default_samples(linkage, 25) + [float("inf"), float("-inf")]
        cfg = forward_kinematics(linkage, ts)
        assert cfg.loop_residuals.shape == (len(ts),)
        assert np.all(cfg.loop_residuals < 1e-9)
        for s, t in enumerate(ts):
            want = dataclass_positions(linkage, t)
            assert set(want) == set(cfg.joint_positions)
            for jid, p in want.items():
                assert np.abs(cfg.joint_positions[jid][s] - p).max() <= 1e-12 * (1.0 + np.abs(p).max())

    def test_one_row_call_is_sample_configuration(self, rng):
        linkage = bennett_linkage(rng)
        ts = default_samples(linkage, 6)
        cfg = forward_kinematics(linkage, ts)
        for s, t in enumerate(ts):
            sample = sample_configuration(linkage, t)
            for jid, p in sample.joint_positions.items():
                assert np.array_equal(p, cfg.joint_positions[jid][s])
            for lid, g in sample.link_displacements.items():
                assert np.array_equal(g.as_array(), cfg.link_displacements[lid][s])

    def test_first_failing_sample_is_reported(self):
        linkage = translation_pair_linkage()
        with pytest.raises(SingularParameter, match="t = 1.0 "):
            forward_kinematics(linkage, [3.0, 1.0, float("nan")])
        with pytest.raises(SingularParameter, match="t = nan "):
            forward_kinematics(linkage, [3.0, float("nan"), 1.0])

    def test_nan_parameter_sample_configuration(self, rng):
        with pytest.raises(SingularParameter):
            sample_configuration(bennett_linkage(rng), float("nan"))

    def test_nan_parameter_trajectory(self, rng):
        linkage = bennett_linkage(rng)
        with pytest.raises(SingularParameter):
            trajectory(linkage, linkage.ground, (0.0, 0.0, 0.0), [0.5, float("nan")])

    def test_nan_parameter_csv_export(self, rng):
        with pytest.raises(SingularParameter):
            export(bennett_linkage(rng), "csv", {"samples": [float("nan")]})

    def test_nan_parameter_rigidity_check(self, rng):
        with pytest.raises(SingularParameter):
            rigidity_check(bennett_linkage(rng), [0.5, float("nan")])

    def test_svg_export_is_one_kernel_call(self, monkeypatch):
        linkage, _, _ = ellipse_linkage()
        kernel = linkage_module.forward_kinematics
        classify = dualquat_module.classify_generator
        counts = {"kernel": 0, "classify": 0}

        def counting_kernel(*args, **kwargs):
            counts["kernel"] += 1
            return kernel(*args, **kwargs)

        def counting_classify(*args, **kwargs):
            counts["classify"] += 1
            return classify(*args, **kwargs)

        monkeypatch.setattr(linkage_module, "forward_kinematics", counting_kernel)
        for module in (dualquat_module, linkage_module):
            monkeypatch.setattr(module, "classify_generator", counting_classify, raising=False)
        classified = []
        for count in (5, 25):
            counts.update(kernel=0, classify=0)
            export(linkage, "svg", {"samples": default_samples(linkage, count)})
            assert counts["kernel"] == 1
            classified.append(counts["classify"])
        # the anchors and the drawing plane are read from the linkage's joint arrays
        assert classified == [0] * 2


def planar_quartic_linkage():
    a, b = 0.4, 2.5
    w = RealPoly.of(np.convolve([1.0, 0.0, 1.0], [a * a + b * b, -2.0 * a, 1.0]))
    v = (RealPoly((1.2, -0.8, 0.3, 1.5, -1.1)), RealPoly((-0.6, 1.7, -1.4, 0.2, 0.9)), RealPoly(()))
    return kempe_linkage_for_curve(v, w)


def with_generator(linkage, jid, row):
    """The linkage with one joint's generator replaced, its kind kept and nothing rechecked."""
    joints = tuple(
        Joint(j.id, DualQuaternion.from_array(row), j.kind) if j.id == jid else j
        for j in linkage.graph.joints
    )
    return dataclasses.replace(linkage, graph=LinkGraph(linkage.graph.links, joints))


class TestForwardKinematicsEquivalence:
    """The level-batched forward kinematics against the per-link walk kept in conftest."""

    @pytest.fixture(scope="class")
    def linkages(self):
        rng = np.random.default_rng(41)
        return {
            "ellipse": ellipse_linkage()[0],
            "quartic": planar_quartic_linkage(),
            "bennett": bennett_linkage(rng),
            "six_bar": six_bar_from_cubic(random_generic_motion(rng, 3)[0]),
        }

    @pytest.mark.parametrize("which", ["ellipse", "quartic", "bennett", "six_bar"])
    def test_bit_equal(self, linkages, which):
        linkage = linkages[which]
        ts = default_samples(linkage, 25) + [float("inf"), float("-inf"), 0.0]
        got, want = forward_kinematics(linkage, ts), forward_kinematics_reference(linkage, ts)
        assert list(got.link_displacements) == list(want.link_displacements)
        for lid, g in want.link_displacements.items():
            assert np.array_equal(got.link_displacements[lid], g)
        assert list(got.joint_positions) == list(want.joint_positions)
        for jid, p in want.joint_positions.items():
            assert np.array_equal(got.joint_positions[jid], p)
        assert np.array_equal(got.loop_residuals, want.loop_residuals)
        assert np.all(got.loop_residuals < 1e-9)

    @staticmethod
    def same_error(linkage, ts):
        with pytest.raises(Exception) as want:
            forward_kinematics_reference(linkage, ts)
        with pytest.raises(Exception) as got:
            forward_kinematics(linkage, ts)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        return got.value

    @pytest.mark.parametrize("which", ["ellipse", "quartic", "bennett", "six_bar"])
    def test_nan_samples(self, linkages, which):
        for ts in ([0.5, float("nan")], [float("nan"), 0.5, float("nan")], [float("inf"), float("nan")]):
            assert isinstance(self.same_error(linkages[which], ts), SingularParameter)

    def test_near_root_samples(self, linkages):
        linkage = translation_pair_linkage()
        for ts in ([3.0, 1.0, float("nan")], [1.0 + 5e-4, 2.0], [float("nan"), 1.0]):
            assert isinstance(self.same_error(linkage, ts), SingularParameter)
        # a rotation whose norm quadratic has its complex roots 1e-3 off the real axis
        bennett = linkages["bennett"]
        near = bennett.graph.rows[0] * [1.0, 1e-3, 1e-3, 1e-3, 1.0, 1e-3, 1e-3, 1e-3]
        bent = with_generator(bennett, bennett.graph.joints[0].id, near)
        assert isinstance(self.same_error(bent, [5.0, float(near[0]), 0.0]), SingularParameter)

    @pytest.mark.parametrize("which", ["ellipse", "bennett", "six_bar"])
    def test_out_of_group_samples(self, linkages, which):
        # a Study defect inside the generator checks at 1e-6 that the link poses fail at 1e-6
        linkage = linkages[which]
        errors = set()
        for k, joint in enumerate(linkage.graph.joints):
            row = linkage.graph.rows[k].copy()
            pv = row[1:4] / np.linalg.norm(row[1:4])
            row[5:8] += 0.45e-6 * (1.0 + np.max(np.abs(row))) ** 2 / np.linalg.norm(row[1:4]) * pv
            bent = with_generator(linkage, joint.id, row)
            ts = [5.0, float(row[0]), -0.3, float("nan")]
            errors.add(type(self.same_error(bent, ts)))
        assert errors & {NotOnStudyQuadric, NotInGroup}


class TestRigidity:
    def test_bennett_rigid(self, rng):
        linkage = bennett_linkage(rng)
        report = rigidity_check(linkage)
        assert report.passes(1e-7)

    def test_kempe_rigid_with_constant_angles(self):
        linkage, _, _ = ellipse_linkage()
        report = rigidity_check(linkage)
        assert report.passes(1e-7)
        three_joint_links = [l for l in linkage.graph.links if len(l.joint_ids) == 3]
        assert three_joint_links
        for link in three_joint_links:
            assert report.angle_notes[link.id] < 1e-7

    def test_perturbation_detected(self, rng):
        linkage = bennett_linkage(rng)
        joints = list(linkage.graph.joints)
        g = joints[0].generator
        # stay on the generator manifold: bend the moment orthogonally
        pv = g.primal.vec()
        delta = np.cross(pv, [0.0, 0.0, 1.0])
        delta = 1e-3 * delta / np.linalg.norm(delta)
        bad_gen = DualQuaternion(g.primal, g.dual + Quaternion(0.0, *delta))
        joints[0] = Joint(joints[0].id, bad_gen, joints[0].kind)
        bad = dataclasses.replace(linkage, graph=LinkGraph(linkage.graph.links, tuple(joints)))
        report = rigidity_check(bad)
        assert report.max_deviation > 1e-4


class TestTrajectory:
    def test_ground_is_constant(self, rng):
        linkage = bennett_linkage(rng)
        pts = trajectory(linkage, linkage.ground, (0.3, -1.0, 2.0), default_samples(linkage, 7))
        assert np.allclose(pts, pts[0])

    def test_circular_translation_coupler(self):
        # circle curve: every coupler point runs on a unit circle centered
        # one unit along -x from its home position
        v = (RealPoly((-2.0,)), RealPoly((0.0, -2.0)), RealPoly(()))
        w = RealPoly((1.0, 0.0, 1.0))
        linkage = kempe_linkage_for_curve(v, w)
        link_id, point = linkage.tracer
        pts = trajectory(linkage, link_id, point, list(np.linspace(-6, 6, 30)))
        center = np.array(point) + np.array([-1.0, 0.0, 0.0])
        radii = np.linalg.norm(pts - center, axis=1)
        assert np.allclose(radii, 1.0, atol=1e-9)

    def test_trajectory_degree_bound(self, rng):
        # sampled coupler trajectory admits a rational parametrization of
        # degree <= 2 * deg(C): least squares implicitization residual
        linkage = bennett_linkage(rng)
        coupler = next(
            l.id for l in linkage.graph.links if l.joint_ids == frozenset({"h2", "k2"})
        )
        ts = np.linspace(-2.0, 2.0, 25)
        pts = trajectory(linkage, coupler, (0.2, 0.1, -0.3), list(ts))
        deg = 4
        rows = []
        for t, p in zip(ts, pts):
            tp = np.array([t ** k for k in range(deg + 1)])
            for axis in range(3):
                row = np.zeros(4 * (deg + 1))
                row[axis * (deg + 1): (axis + 1) * (deg + 1)] = tp
                row[3 * (deg + 1):] = -p[axis] * tp
                rows.append(row)
        mat = np.vstack(rows)
        svals = np.linalg.svd(mat, compute_uv=False)
        assert svals[-1] < 1e-6 * svals[0]


class TestExport:
    def test_json_round_trip(self, rng):
        linkage = bennett_linkage(rng)
        data = json.loads(export(linkage, "json"))
        back = import_linkage(data)
        assert back.ground == linkage.ground
        assert {l.id for l in back.graph.links} == {l.id for l in linkage.graph.links}
        for j in linkage.graph.joints:
            assert (back.graph.joint(j.id).generator - j.generator).max_abs() < 1e-12

    def test_corrupted_links_rejected(self, rng):
        linkage = bennett_linkage(rng)
        data = json.loads(export(linkage, "json"))
        data["links"][0]["joints"] = ["h1", "k2"]
        with pytest.raises(ClosureMismatch):
            import_linkage(data)

    def test_svg_tracer_matches_curve(self):
        linkage, v, w = ellipse_linkage()
        samples = default_samples(linkage, 40)
        svg = export(linkage, "svg", {"samples": samples}).decode()
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        tracers = [e for e in root.iter(f"{ns}polyline") if e.get("class") == "tracer"]
        assert len(tracers) == 1
        pts = [
            tuple(float(x) for x in chunk.split(","))
            for chunk in tracers[0].get("points").split()
        ]
        assert len(pts) == len(samples)
        for t, (x, y) in zip(samples, pts):
            want = np.array([v[0](t), v[1](t)]) / w(t)
            assert np.linalg.norm(np.array([x, y]) - want) < 1e-8

    def test_spatial_svg_rejected_other_formats_work(self, rng):
        linkage = bennett_linkage(rng)
        with pytest.raises(NotPlanar):
            export(linkage, "svg")
        assert export(linkage, "json")
        assert export(linkage, "csv")

    def test_csv_header_and_shape(self, rng):
        linkage = bennett_linkage(rng)
        samples = default_samples(linkage, 5)
        text = export(linkage, "csv", {"samples": samples}).decode()
        lines = [l for l in text.strip().splitlines() if l]
        assert lines[0] == "t,joint_id,x,y,z"
        assert len(lines) == 1 + 5 * len(linkage.graph.joints)


class TestBennettFromPoses:
    def test_rigidity_of_synthesized_linkage(self, rng):
        p0, p1, p2 = general_position_poses(rng)
        linkage = synthesize_bennett(p0, p1, p2).to_linkage()
        assert rigidity_check(linkage).passes(1e-7)
