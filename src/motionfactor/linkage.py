"""Linkage data model, forward kinematics, validation and exporters.

A linkage is a connected graph of rigid links joined by revolute or prismatic
joints, together with closure loops given as pairs of factor chains whose
products agree.  Forward kinematics evaluates each chain at a parameter; the
loop identities guarantee a consistent configuration for every parameter
value away from the real roots of the involved norm polynomials.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_SAMPLE_COUNT, DEFAULT_SAMPLE_RANGE, DEFAULT_TOL
from .dualquat import DQ_ONE, DualQuaternion, Rotation, classify_generator, dq_mul_array, planar_frame
from .errors import (
    ClosureMismatch,
    ExceptionalPoint,
    NotInGroup,
    NotOnStudyQuadric,
    NotPlanar,
    SingularParameter,
)
from .polyring import RealPoly, chain_product, norm_quadratic


@dataclass(frozen=True, eq=False)
class Joint:
    """Revolute or prismatic joint, labeled by the dual quaternion of its factor."""

    id: str
    generator: DualQuaternion
    kind: str


@dataclass(frozen=True, eq=False)
class Link:
    """Rigid body carrying one or more joints."""

    id: str
    joint_ids: frozenset[str]


@dataclass(frozen=True, eq=False)
class LinkGraph:
    """Links as vertices, shared joints as edges."""

    links: tuple[Link, ...]
    joints: tuple[Joint, ...]

    def link(self, link_id: str) -> Link:
        for l in self.links:
            if l.id == link_id:
                return l
        raise KeyError(link_id)

    def joint(self, joint_id: str) -> Joint:
        for j in self.joints:
            if j.id == joint_id:
                return j
        raise KeyError(joint_id)


@dataclass(frozen=True, eq=False)
class Linkage:
    """Link graph plus closure loops, ground link and optional tracer point."""

    graph: LinkGraph
    loops: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    ground: str
    orientations: tuple[tuple[str, str, str], ...]  # joint id, from link, to link
    tracer: tuple[str, tuple[float, float, float]] | None = None
    notes: tuple[str, ...] = ()

    def with_notes(self, notes: tuple[str, ...]) -> "Linkage":
        return replace(self, notes=self.notes + notes)

    def norm_quadratics(self) -> list[RealPoly]:
        return [norm_quadratic(j.generator) for j in self.graph.joints]


@dataclass(frozen=True, eq=False)
class ConfigurationSample:
    """Snapshot of the linkage at one parameter value."""

    t: float
    link_displacements: dict[str, DualQuaternion]
    joint_positions: dict[str, np.ndarray]
    max_loop_residual: float


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def assemble(loops, ground: str | None = None, tracer=None, tol: float = DEFAULT_TOL) -> Linkage:
    """Build a linkage from closure loops given as pairs of joint chains.

    Each loop is a pair (left, right) of chains of (joint id, generator)
    traversed from the loop base to the far link.  Chains sharing a joint are
    welded consistently: the links on the incoming sides merge, and likewise
    the outgoing sides.  Raises ClosureMismatch when a chain pair does not
    multiply to the same polynomial.
    """
    gens: dict[str, DualQuaternion] = {}
    for left, right in loops:
        for jid, gen in list(left) + list(right):
            if jid in gens:
                if (gens[jid] - gen).max_abs() > 1e-9 * (1.0 + gen.max_abs()):
                    raise ValueError(f"joint {jid} appears with two different generators")
            else:
                gens[jid] = gen
    for i, (left, right) in enumerate(loops):
        if len(left) != len(right):
            raise ClosureMismatch(f"loop {i}: chains of {len(left)} and {len(right)} joints")
        hs = np.array([[gen.as_array() for _, gen in chain] for chain in (left, right)])
        lp, rp = chain_product(hs.reshape(2, len(left), 8))
        residual = float(np.max(np.abs(lp - rp)))
        if not residual <= 1e-7 * (1.0 + np.max(np.abs(lp))):
            raise ClosureMismatch(f"loop {i}: chain products differ by {residual:.3e}")

    # Slots are the per-loop link positions; shared joints weld their incoming
    # slots together and their outgoing slots together.
    uf = _UnionFind()
    joint_sides: dict[str, list[tuple]] = {}
    for i, (left, right) in enumerate(loops):
        for chain_name, chain in (("l", left), ("r", right)):
            for pos, (jid, _) in enumerate(chain):
                before = (i, chain_name, pos)
                after = (i, chain_name, pos + 1)
                if pos == 0:
                    uf.union(before, (i, "l", 0))  # loop base shared by both chains
                if pos + 1 == len(chain):
                    uf.union(after, (i, "far"))
                joint_sides.setdefault(jid, []).append((before, after))
    for jid, sides in joint_sides.items():
        first_before, first_after = sides[0]
        for before, after in sides[1:]:
            uf.union(before, first_before)
            uf.union(after, first_after)

    class_joints: dict = {}
    orient: list[tuple[str, object, object]] = []
    for jid, sides in joint_sides.items():
        before, after = sides[0]
        a, b = uf.find(before), uf.find(after)
        if a == b:
            raise ClosureMismatch(f"joint {jid} would connect a link to itself")
        class_joints.setdefault(a, set()).add(jid)
        class_joints.setdefault(b, set()).add(jid)
        orient.append((jid, a, b))

    link_names: dict = {}
    for cls, jids in class_joints.items():
        link_names[cls] = "+".join(sorted(jids))
    links = tuple(
        Link(link_names[cls], frozenset(jids)) for cls, jids in sorted(
            class_joints.items(), key=lambda kv: link_names[kv[0]]
        )
    )
    joints = tuple(
        Joint(jid, gens[jid], classify_generator(gens[jid], tol).kind)
        for jid in sorted(gens)
    )
    orientations = tuple(
        (jid, link_names[a], link_names[b]) for jid, a, b in sorted(orient)
    )

    # connectivity of the link graph
    adj: dict[str, set[str]] = {l.id: set() for l in links}
    for _, a, b in orientations:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    stack = [links[0].id]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(adj[cur] - seen)
    if len(seen) != len(links):
        raise ValueError("link graph is not connected")

    base_cls = uf.find((0, "l", 0))
    ground_id = link_names[base_cls] if ground is None else ground
    if ground_id not in adj:
        raise ValueError(f"unknown ground link {ground_id!r}")
    tracer_t = None
    if tracer is not None:
        link_id, point = tracer
        if link_id not in adj:
            raise ValueError(f"unknown tracer link {link_id!r}")
        tracer_t = (link_id, (float(point[0]), float(point[1]), float(point[2])))
    loops_t = tuple(
        (tuple(jid for jid, _ in left), tuple(jid for jid, _ in right))
        for left, right in loops
    )
    return Linkage(LinkGraph(links, joints), loops_t, ground_id, orientations, tracer_t)


_SINGULAR_MARGIN = 1e-3  # relative distance of a sample from a norm quadratic root
_CONJ = np.array([1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0])
_EPS_CONJ = np.array([1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True, eq=False)
class Configurations:
    """Forward kinematics at S parameter values, one row per sample."""

    t: np.ndarray                               # (S,)
    link_displacements: dict[str, np.ndarray]   # link id -> (S, 8) canonical poses
    joint_positions: dict[str, np.ndarray]      # joint id -> (S, 3) world anchor points
    loop_residuals: np.ndarray                  # (S,) worst loop residual


def _act_rows(h: np.ndarray, points) -> np.ndarray:
    """Point action of (S, 8) displacements on points of shape (3,) or (S, 3).

    The dual part of h*(1 - eps*x)*(conj(p) - eps*conj(q)) is
    -(p*x*conj(p) + p*conj(q) - q*conj(p)), the numerator of act_on_point.
    """
    x = np.zeros_like(h)
    x[:, 0] = 1.0
    x[:, 5:] = -np.asarray(points, dtype=float)
    moved = dq_mul_array(dq_mul_array(h, x), h * _EPS_CONJ)
    return -moved[:, 5:] / moved[:, :1]


def _canonical_rows(h: np.ndarray, t: np.ndarray, fails: list) -> np.ndarray:
    """normalize_pose at 1e-6 on every row; failing rows are recorded in fails, not raised."""
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


def _raise_first(fails: list) -> None:
    """Raise for the first failing sample, with the first check it fails."""
    bad = np.array([mask for mask, _ in fails])
    hit = np.flatnonzero(bad.any(axis=0))
    if hit.size:
        s = int(hit[0])
        raise fails[int(np.argmax(bad[:, s]))][1](s)


def forward_kinematics(linkage: Linkage, t_samples) -> Configurations:
    """Forward kinematics at every sample parameter in one array pass.

    Each joint evaluates to t - h (the identity at t = +-inf), each link
    displacement is the product along the spanning tree from the ground, and
    each loop residual is the pose distance of its two chain products.  A
    parameter within 1e-3*(1 + t^2) of a norm quadratic root, or NaN, raises
    SingularParameter; a displacement off the Study quadric or outside the
    group raises as normalize_pose and act_on_point do at 1e-6.  With several
    failing samples, the first one in order is reported.
    """
    t = np.asarray(t_samples, dtype=float).reshape(-1)
    home = np.isinf(t)
    fails: list = []
    with np.errstate(all="ignore"):
        fails.append((~home & _near_root(linkage, t, _SINGULAR_MARGIN), lambda s: SingularParameter(
            f"t = {t[s]} is not a number" if math.isnan(t[s])
            else f"t = {t[s]} is within {_SINGULAR_MARGIN} of a norm polynomial root")))
        evals = {}
        for j in linkage.graph.joints:
            g = np.multiply.outer(t, DQ_ONE.as_array()) - j.generator.as_array()
            g[home] = DQ_ONE.as_array()
            evals[j.id] = g

        neighbors: dict[str, list[tuple[str, str, bool]]] = {l.id: [] for l in linkage.graph.links}
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
                    raw[nxt] = dq_mul_array(raw[cur], g if forward else g * _CONJ)
                    stack.append(nxt)
        disp = {lid: _canonical_rows(g, t, fails) for lid, g in raw.items()}
        for g in disp.values():
            # act_on_point's check; its zero-norm check cannot fail on a canonical pose
            re = np.sum(g[:, :4] ** 2, axis=1)
            du = 2.0 * np.sum(g[:, :4] * g[:, 4:], axis=1)
            fails.append((~(np.abs(du) <= 1e-6 * (1.0 + re)), lambda s, du=du: NotInGroup(
                f"Study defect {du[s]:.3e} exceeds tolerance at t = {t[s]}")))
        positions = {}
        for jid, a, _ in linkage.orientations:
            anchor = classify_generator(linkage.graph.joint(jid).generator, 1e-6).anchor_point()
            positions[jid] = _act_rows(disp[a], anchor)

        residuals = [np.zeros(len(t))]
        for left, right in linkage.loops:
            ends = []
            for chain in (left, right):
                prod = evals[chain[0]]
                for jid in chain[1:]:
                    prod = dq_mul_array(prod, evals[jid])
                ends.append(_canonical_rows(prod, t, fails))
            u, v = ends
            residuals.append(np.minimum(np.linalg.norm(u - v, axis=1), np.linalg.norm(u + v, axis=1)))
    _raise_first(fails)
    return Configurations(t, disp, positions, np.max(residuals, axis=0))


def sample_configuration(linkage: Linkage, t0: float, tol: float = DEFAULT_TOL) -> ConfigurationSample:
    """Forward kinematics at one parameter value: the one-row forward_kinematics.

    Link displacements are the canonical poses of the spanning tree products
    from the ground link; joint positions are the axis anchor points in the
    world frame.  Raises SingularParameter for a NaN t or one near a root of a
    joint's norm quadratic; t = +-inf is the home configuration.
    """
    cfg = forward_kinematics(linkage, [t0])
    return ConfigurationSample(
        t0,
        {lid: DualQuaternion.from_array(g[0]) for lid, g in cfg.link_displacements.items()},
        {jid: p[0] for jid, p in cfg.joint_positions.items()},
        float(cfg.loop_residuals[0]),
    )


def _near_root(linkage: Linkage, t: np.ndarray, margin: float) -> np.ndarray:
    """Samples within margin*(1 + t^2) of a root of some joint's norm quadratic, or NaN."""
    c0, c1, c2 = np.array([q.coeffs for q in linkage.norm_quadratics()]).T[:, :, None]
    values = (c2 * t + c1) * t + c0
    return ~(np.abs(values) >= margin * (1.0 + t * t)).all(axis=0)


def default_samples(linkage: Linkage, count: int = DEFAULT_SAMPLE_COUNT,
                    span: tuple[float, float] = DEFAULT_SAMPLE_RANGE,
                    margin: float = _SINGULAR_MARGIN) -> list[float]:
    """Equally spaced parameter samples nudged away from norm polynomial roots."""
    t = np.linspace(span[0], span[1], count)
    for _ in range(40):
        near = _near_root(linkage, t, margin)
        if not near.any():
            break
        t[near] += 2.1 * margin
    return t.tolist()


def _line_distance_angle(l1, l2) -> tuple[np.ndarray, np.ndarray]:
    """Distances and angles between two lines given per sample as (direction, point) rows."""
    d1, a1 = l1
    d2, a2 = l2
    n1 = np.linalg.norm(d1, axis=1)
    n2 = np.linalg.norm(d2, axis=1)
    cr = np.cross(d1, d2)
    ncr = np.linalg.norm(cr, axis=1)
    angle = np.arctan2(ncr, np.abs(np.sum(d1 * d2, axis=1)))
    # parallel axes: the skew line formula would divide noise by noise
    parallel = ncr <= 1e-7 * n1 * n2
    skew = np.abs(np.sum((a2 - a1) * cr, axis=1)) / np.where(parallel, 1.0, ncr)
    along = np.linalg.norm(np.cross(a2 - a1, d1), axis=1) / n1
    return np.where(parallel, along, skew), angle


@dataclass(frozen=True, eq=False)
class RigidityReport:
    """Per link maximal deviation of pairwise joint axis distances and angles."""

    per_link: dict[str, float]
    angle_notes: dict[str, float]
    max_deviation: float
    samples: tuple[float, ...]

    def passes(self, threshold: float = 1e-7) -> bool:
        return self.max_deviation <= threshold


def rigidity_check(linkage: Linkage, samples: list[float] | None = None) -> RigidityReport:
    """Check that joints sharing a link keep their mutual distance and angle.

    Joint axes are located through the spanning tree displacements of their
    incoming links, evaluated for all samples in one forward_kinematics call,
    so broken closure identities show up as varying distances.
    """
    if samples is None:
        samples = default_samples(linkage)
    cfg = forward_kinematics(linkage, samples)
    positions = cfg.joint_positions
    lines: dict[str, tuple[np.ndarray, np.ndarray] | None] = {}
    for jid, a, _ in linkage.orientations:
        gen = classify_generator(linkage.graph.joint(jid).generator, 1e-6)
        if isinstance(gen, Rotation) and len(samples):
            p1 = _act_rows(cfg.link_displacements[a], gen.anchor_point() + gen.direction)
            lines[jid] = (p1 - positions[jid], positions[jid])
        else:
            lines[jid] = None
    per_link: dict[str, float] = {}
    angle_notes: dict[str, float] = {}
    for link in linkage.graph.links:
        jids = sorted(link.joint_ids)
        dev = 0.0
        for i in range(len(jids)):
            for j in range(i + 1, len(jids)):
                l1, l2 = lines[jids[i]], lines[jids[j]]
                if l1 is not None and l2 is not None:
                    dists, angles = _line_distance_angle(l1, l2)
                    dev = max(dev, float(np.ptp(dists)), float(np.ptp(angles)))
        per_link[link.id] = dev
        if len(jids) >= 3:
            spread = 0.0
            for a in range(len(jids)):
                for b in range(len(jids)):
                    for c in range(b + 1, len(jids)):
                        if a in (b, c):
                            continue
                        pa = positions[jids[a]]
                        u = positions[jids[b]] - pa
                        v = positions[jids[c]] - pa
                        nu = np.linalg.norm(u, axis=1)
                        nv = np.linalg.norm(v, axis=1)
                        ok = (nu >= 1e-12) & (nv >= 1e-12)
                        if ok.any():
                            cos = np.sum(u[ok] * v[ok], axis=1) / (nu[ok] * nv[ok])
                            spread = max(spread, float(np.ptp(np.arccos(np.clip(cos, -1.0, 1.0)))))
            angle_notes[link.id] = spread
    worst = max(per_link.values(), default=0.0)
    return RigidityReport(per_link, angle_notes, worst, tuple(samples))


def trajectory(linkage: Linkage, link_id: str, point, t_samples) -> np.ndarray:
    """Trajectory of a point rigidly attached to a link, one row per sample.

    All samples go through one forward_kinematics call, with its parameter
    and pose checks.
    """
    linkage.graph.link(link_id)
    cfg = forward_kinematics(linkage, t_samples)
    return _act_rows(cfg.link_displacements[link_id], point)


def linkage_to_json(linkage: Linkage) -> dict:
    data = {
        "joints": [
            {"id": j.id, "generator": list(j.generator.as_array()), "kind": j.kind}
            for j in linkage.graph.joints
        ],
        "links": [
            {"id": l.id, "joints": sorted(l.joint_ids)} for l in linkage.graph.links
        ],
        "loops": [
            {"left": list(left), "right": list(right)} for left, right in linkage.loops
        ],
        "ground": linkage.ground,
    }
    if linkage.tracer is not None:
        data["tracer"] = {"link": linkage.tracer[0], "point": list(linkage.tracer[1])}
    if linkage.notes:
        data["notes"] = list(linkage.notes)
    return data


def import_linkage(data: dict, tol: float = DEFAULT_TOL) -> Linkage:
    """Rebuild a linkage from its JSON form, revalidating all loop closures."""
    gens = {j["id"]: DualQuaternion.from_array(j["generator"]) for j in data["joints"]}
    loops = []
    for loop in data["loops"]:
        left = [(jid, gens[jid]) for jid in loop["left"]]
        right = [(jid, gens[jid]) for jid in loop["right"]]
        loops.append((left, right))
    tracer = None
    if "tracer" in data:
        tracer = (data["tracer"]["link"], tuple(data["tracer"]["point"]))
    linkage = assemble(loops, ground=data.get("ground"), tracer=tracer, tol=tol)
    want_links = {l["id"]: frozenset(l["joints"]) for l in data.get("links", [])}
    if want_links:
        got_links = {l.id: l.joint_ids for l in linkage.graph.links}
        if want_links != got_links:
            raise ClosureMismatch("stored link partition disagrees with the assembled one")
    if "notes" in data:
        linkage = linkage.with_notes(tuple(data["notes"]))
    return linkage


def export(linkage: Linkage, format: str = "json", options: dict | None = None) -> bytes:
    """Serialize a linkage: json (lossless), svg (planar only) or csv of joint paths.

    svg and csv evaluate all samples in one forward_kinematics call.
    """
    options = options or {}
    if format == "json":
        return json.dumps(linkage_to_json(linkage), indent=2).encode()
    samples = options.get("samples")
    if samples is None:
        samples = default_samples(linkage, options.get("sample_count", DEFAULT_SAMPLE_COUNT))
    if format == "csv":
        positions = forward_kinematics(linkage, samples).joint_positions
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", "joint_id", "x", "y", "z"])
        for s, t in enumerate(samples):
            for jid in sorted(positions):
                x, y, z = positions[jid][s]
                writer.writerow([repr(t), jid, repr(float(x)), repr(float(y)), repr(float(z))])
        return buf.getvalue().encode()
    if format == "svg":
        return _export_svg(linkage, samples)
    raise ValueError(f"unknown export format {format!r}")


def _export_svg(linkage: Linkage, samples: list[float]) -> bytes:
    if not len(samples):
        raise ValueError("svg export needs at least one sample")
    joints = linkage.graph.joints
    frame = planar_frame(np.array([j.generator.as_array() for j in joints]))
    if frame is None or all(j.kind != "rotation" for j in joints):
        raise NotPlanar("no common rotation axis direction defines a drawing plane")
    e1, e2, normal = frame
    if normal[int(np.argmax(np.abs(normal)))] < 0:
        e2 = -e2
    cfg = forward_kinematics(linkage, samples)

    def project(p: np.ndarray) -> np.ndarray:
        return np.column_stack([p @ e1, p @ e2])

    joint_paths = {j.id: project(cfg.joint_positions[j.id]) for j in joints}
    tracer_path = np.zeros((0, 2))
    if linkage.tracer is not None:
        link_id, point = linkage.tracer
        tracer_path = project(_act_rows(cfg.link_displacements[link_id], point))
    all_pts = np.vstack([*joint_paths.values(), tracer_path])
    lo = all_pts.min(axis=0)
    span = all_pts.max(axis=0) - lo
    pad = 0.1 * max(span[0], span[1], 1.0)
    view = (lo[0] - pad, lo[1] - pad, span[0] + 2 * pad, span[1] + 2 * pad)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view[0]:.4f} {view[1]:.4f} '
        f'{view[2]:.4f} {view[3]:.4f}">'
    ]
    stroke = max(view[2], view[3]) / 300.0
    for jid, path in joint_paths.items():
        pts = " ".join(f"{x:.10g},{y:.10g}" for x, y in path.tolist())
        parts.append(
            f'<polyline class="joint-path" id="path-{jid}" points="{pts}" '
            f'fill="none" stroke="#888" stroke-width="{stroke:.4f}"/>'
        )
    if len(tracer_path):
        pts = " ".join(f"{x:.10g},{y:.10g}" for x, y in tracer_path.tolist())
        parts.append(
            f'<polyline class="tracer" points="{pts}" fill="none" '
            f'stroke="#d22" stroke-width="{1.5 * stroke:.4f}"/>'
        )
    for jid in sorted(joint_paths):
        x, y = joint_paths[jid][0]
        parts.append(
            f'<circle class="joint" id="joint-{jid}" cx="{x:.10g}" cy="{y:.10g}" '
            f'r="{2 * stroke:.4f}" fill="#225"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode()
