"""Linkage data model, forward kinematics, validation and exporters.

A linkage is a connected graph of rigid links joined by revolute or prismatic
joints, together with closure loops given as pairs of factor chains whose
products agree.  Forward kinematics evaluates each chain at a parameter; the
loop identities guarantee a consistent configuration for every parameter
value away from the real roots of the involved norm polynomials.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_SAMPLE_COUNT, DEFAULT_SAMPLE_RANGE, DEFAULT_TOL
from .dualquat import DualQuaternion, _cross_rows, _generator_lines, dq_mul_array, generator_axes, planar_frame
from .errors import (
    ClosureMismatch,
    ExceptionalPoint,
    NotInGroup,
    NotOnStudyQuadric,
    NotPlanar,
    SingularParameter,
)
from .polyring import chain_product, norm_quadratics


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
    """Links as vertices, shared joints as edges.

    rows holds the joint generators as a (J, 8) array in the order of joints,
    directions and anchors their (J, 3) axes as generator_axes gives them;
    left out, they are derived from the joints and the kinds these carry.
    """

    links: tuple[Link, ...]
    joints: tuple[Joint, ...]
    rows: np.ndarray | None = None
    directions: np.ndarray | None = None
    anchors: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.rows is None:
            rows = np.reshape([j.generator.as_array() for j in self.joints], (-1, 8))
            object.__setattr__(self, "rows", rows)
        if self.anchors is None:
            rotation = np.array([j.kind == "rotation" for j in self.joints], dtype=bool)
            for name, value in zip(("directions", "anchors"), _generator_lines(self.rows, rotation)):
                object.__setattr__(self, name, value)

    def link(self, link_id: str) -> Link:
        return {l.id: l for l in self.links}[link_id]

    def joint(self, joint_id: str) -> Joint:
        return {j.id: j for j in self.joints}[joint_id]


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

    @functools.cached_property
    def tree(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Spanning tree from the ground: the link ids in depth first order, the ground first,
        and per other link a row (depth, position, parent's position, joint index, 1 if the
        joint points away from the parent else 0)."""
        jindex = {j.id: k for k, j in enumerate(self.graph.joints)}
        neighbors: dict[str, list[tuple[str, int, int]]] = {l.id: [] for l in self.graph.links}
        for jid, a, b in self.orientations:
            neighbors[a].append((b, jindex[jid], 1))
            neighbors[b].append((a, jindex[jid], 0))
        order, edges, at = [self.ground], [], {self.ground: (0, 0)}  # link -> (position, depth)
        stack = [self.ground]
        while stack:
            cur = stack.pop()
            pos, depth = at[cur]
            for nxt, joint, forward in neighbors[cur]:
                if nxt not in at:
                    at[nxt] = (len(order), depth + 1)
                    edges.append((depth + 1, len(order), pos, joint, forward))
                    order.append(nxt)
                    stack.append(nxt)
        return tuple(order), np.array(edges, dtype=int).reshape(-1, 5)


@dataclass(frozen=True, eq=False)
class ConfigurationSample:
    """Snapshot of the linkage at one parameter value."""

    t: float
    link_displacements: dict[str, DualQuaternion]
    joint_positions: dict[str, np.ndarray]
    max_loop_residual: float


def assemble(loops, ground: str | None = None, tracer=None, tol: float = DEFAULT_TOL) -> Linkage:
    """Build a linkage from closure loops given as pairs of joint chains.

    Each loop is a pair (left, right) of chains of (joint id, generator)
    traversed from the loop base to the far link; a generator is a
    DualQuaternion or its 8 coordinates.  Chains sharing a joint are welded
    consistently: the links on the incoming sides merge, and likewise the
    outgoing sides.  Raises ClosureMismatch when a chain pair does not
    multiply to the same polynomial.
    """
    ids, gens = zip(*[joint for left, right in loops for joint in (*left, *right)])
    rows = np.array([g.as_array() if isinstance(g, DualQuaternion) else g for g in gens], dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 8:
        raise ValueError("dual quaternion needs 8 coordinates")
    first = {jid: k for k, jid in reversed(list(enumerate(ids)))}  # each joint's first occurrence
    differ = (np.max(np.abs(rows[[first[jid] for jid in ids]] - rows), axis=1)
              > 1e-9 * (1.0 + np.max(np.abs(rows), axis=1)))
    if differ.any():
        raise ValueError(f"joint {ids[int(np.argmax(differ))]} appears with two different generators")
    # every loop's closure, from one chain_product call per chain length
    sizes = [(len(left), len(right)) for left, right in loops]
    starts, residual = np.cumsum([0] + [a + b for a, b in sizes]), {}
    for n in {a for a, b in sizes if a == b}:
        group = [i for i, (a, b) in enumerate(sizes) if a == b == n]
        chains = np.reshape([rows[starts[i]:starts[i + 1]] for i in group], (len(group), 2, n, 8))
        prods = chain_product(chains)
        diff = np.max(np.abs(prods[:, 0] - prods[:, 1]), axis=(1, 2)).tolist()
        residual.update(zip(group, zip(diff, np.max(np.abs(prods[:, 0]), axis=(1, 2)).tolist())))
    for i, (a, b) in enumerate(sizes):
        if a != b:
            raise ClosureMismatch(f"loop {i}: chains of {a} and {b} joints")
        diff, size = residual[i]
        if not diff <= 1e-7 * (1.0 + size):
            raise ClosureMismatch(f"loop {i}: chain products differ by {diff:.3e}")

    # Slots are the per-loop link positions; shared joints weld their incoming
    # slots together and their outgoing slots together.
    parent: dict = {}  # union-find: each slot maps to its parent, a root to itself

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    joint_sides: dict[str, list[tuple]] = {}
    for i, (left, right) in enumerate(loops):
        for chain_name, chain in (("l", left), ("r", right)):
            for pos, (jid, _) in enumerate(chain):
                before = (i, chain_name, pos)
                after = (i, chain_name, pos + 1)
                if pos == 0:
                    parent[find(before)] = find((i, "l", 0))  # loop base shared by both chains
                if pos + 1 == len(chain):
                    parent[find(after)] = find((i, "far"))
                joint_sides.setdefault(jid, []).append((before, after))
    for jid, sides in joint_sides.items():
        first_before, first_after = sides[0]
        for before, after in sides[1:]:
            parent[find(before)] = find(first_before)
            parent[find(after)] = find(first_after)

    class_joints: dict = {}
    orient: list[tuple[str, object, object]] = []
    for jid, sides in joint_sides.items():
        before, after = sides[0]
        a, b = find(before), find(after)
        if a == b:
            raise ClosureMismatch(f"joint {jid} would connect a link to itself")
        class_joints.setdefault(a, set()).add(jid)
        class_joints.setdefault(b, set()).add(jid)
        orient.append((jid, a, b))

    link_names = {cls: "+".join(sorted(jids)) for cls, jids in class_joints.items()}
    links = tuple(
        Link(link_names[cls], frozenset(jids)) for cls, jids in sorted(
            class_joints.items(), key=lambda kv: link_names[kv[0]]
        )
    )
    joint_ids = sorted(first)
    joint_rows = rows[[first[jid] for jid in joint_ids]]
    kinds, directions, anchors = generator_axes(joint_rows, tol)
    joints = tuple(  # each joint keeps the generator object of its first occurrence
        Joint(jid, g if isinstance(g := gens[first[jid]], DualQuaternion) else DualQuaternion.from_array(g), kind)
        for jid, kind in zip(joint_ids, kinds)
    )
    orientations = tuple(
        (jid, link_names[a], link_names[b]) for jid, a, b in sorted(orient)
    )

    names = {l.id for l in links}
    ground_id = link_names[find((0, "l", 0))] if ground is None else ground
    if ground_id not in names:
        raise ValueError(f"unknown ground link {ground_id!r}")
    tracer_t = None
    if tracer is not None:
        link_id, point = tracer
        if link_id not in names:
            raise ValueError(f"unknown tracer link {link_id!r}")
        tracer_t = (link_id, (float(point[0]), float(point[1]), float(point[2])))
    loops_t = tuple(tuple(tuple(jid for jid, _ in chain) for chain in loop) for loop in loops)
    graph = LinkGraph(links, joints, joint_rows, directions, anchors)
    linkage = Linkage(graph, loops_t, ground_id, orientations, tracer_t)
    if len(linkage.tree[0]) != len(links):
        raise ValueError("link graph is not connected")
    return linkage


_SINGULAR_MARGIN = 1e-3  # relative distance of a sample from a norm quadratic root
_ONE = np.eye(8)[0]
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
    """Point action of (..., 8) displacements on points broadcast to shape (..., 3).

    The dual part of h*(1 - eps*x)*(conj(p) - eps*conj(q)) is
    -(p*x*conj(p) + p*conj(q) - q*conj(p)), the numerator of act_on_point.
    """
    x = np.zeros_like(h)
    x[..., 0] = 1.0
    x[..., 5:] = -np.asarray(points, dtype=float)
    moved = dq_mul_array(dq_mul_array(h, x), h * _EPS_CONJ)
    return -moved[..., 5:] / moved[..., :1]


def _canonical_rows(h: np.ndarray, t: np.ndarray, fails: list) -> np.ndarray:
    """normalize_pose at 1e-6 on every row of (N, S, 8) poses; failing rows go to fails, not raised."""
    pn = np.sum(h[..., :4] ** 2, axis=-1)
    scale = 1.0 + pn + np.sum(h[..., 4:] ** 2, axis=-1)
    defect = 2.0 * np.sum(h[..., :4] * h[..., 4:], axis=-1)
    checks = np.stack([~(pn > 1e-6 * scale), ~(np.abs(defect) <= 1e-6 * scale)], axis=1)
    fails.append((checks.reshape(2 * len(h), len(t)), lambda i, s: ExceptionalPoint(
        f"primal part vanishes at t = {t[s]}, point lies in the exceptional 3-space") if i % 2 == 0
        else NotOnStudyQuadric(f"Study defect {defect[i // 2, s]:.3e} exceeds tolerance at t = {t[s]}")))
    rep = h * (1.0 / np.sqrt(pn))[..., None]
    lead = np.take_along_axis(rep, np.argmax(np.abs(rep[..., :4]), axis=-1)[..., None], axis=-1)[..., 0]
    rep[lead < 0.0] *= -1.0
    return rep


def _raise_first(fails: list) -> None:
    """Raise for the first failing sample, with the first check it fails.

    fails holds pairs of (checks, S) masks and error(i, s), the exception of
    check i at sample s.
    """
    bad = np.concatenate([masks for masks, _ in fails])
    hit = np.flatnonzero(bad.any(axis=0))
    if hit.size:
        s = int(hit[0])
        checks = [(i, error) for masks, error in fails for i in range(len(masks))]
        i, error = checks[int(np.argmax(bad[:, s]))]
        raise error(i, s)


def forward_kinematics(linkage: Linkage, t_samples) -> Configurations:
    """Forward kinematics at every sample parameter in one array pass.

    Each joint evaluates to t - h (the identity at t = +-inf), each link
    displacement is the product along the spanning tree from the ground, one
    dq_mul_array call per tree level, and each loop residual is the pose
    distance of its two chain products.  A parameter within 1e-3*(1 + t^2) of
    a norm quadratic root, or NaN, raises SingularParameter; a displacement
    off the Study quadric or outside the group raises as normalize_pose and
    act_on_point do at 1e-6.  With several failing samples, the first one in
    order is reported.
    """
    t = np.asarray(t_samples, dtype=float).reshape(-1)
    home = np.isinf(t)
    graph, (order, edges) = linkage.graph, linkage.tree
    jindex = {j.id: k for k, j in enumerate(graph.joints)}
    fails: list = []
    with np.errstate(all="ignore"):
        near = ~home & _near_root(linkage, t, _SINGULAR_MARGIN)
        fails.append((near[None], lambda i, s: SingularParameter(
            f"t = {t[s]} is not a number" if math.isnan(t[s])
            else f"t = {t[s]} is within {_SINGULAR_MARGIN} of a norm polynomial root")))
        evals = np.multiply.outer(t, _ONE) - graph.rows[:, None, :]
        evals[:, home] = _ONE
        raw = np.empty((len(order), len(t), 8))
        raw[0] = _ONE
        for depth in range(1, int(edges[:, 0].max(initial=0)) + 1):
            _, pos, parent, joint, forward = edges[edges[:, 0] == depth].T
            g = evals[joint] * np.where(forward[:, None, None] == 1, 1.0, _CONJ)
            raw[pos] = dq_mul_array(raw[parent], g)
        disp = _canonical_rows(raw, t, fails)
        # act_on_point's check; its zero-norm check cannot fail on a canonical pose
        re = np.sum(disp[..., :4] ** 2, axis=-1)
        du = 2.0 * np.sum(disp[..., :4] * disp[..., 4:], axis=-1)
        fails.append((~(np.abs(du) <= 1e-6 * (1.0 + re)), lambda i, s: NotInGroup(
            f"Study defect {du[i, s]:.3e} exceeds tolerance at t = {t[s]}")))
        at = {lid: k for k, lid in enumerate(order)}
        owner = [at[a] for _, a, _ in linkage.orientations]
        anchors = graph.anchors[[jindex[jid] for jid, _, _ in linkage.orientations]]
        positions = _act_rows(disp[owner], anchors[:, None, :])

        chains = [[jindex[jid] for jid in chain] for loop in linkage.loops for chain in loop]
        ends = np.empty((len(chains), len(t), 8))
        for n in {len(c) for c in chains}:  # the chains of one length multiply together
            sel = [k for k, c in enumerate(chains) if len(c) == n]
            ends[sel] = functools.reduce(dq_mul_array, evals[np.array([chains[k] for k in sel]).T])
        ends = _canonical_rows(ends, t, fails)
        u, v = ends[0::2], ends[1::2]
        residuals = np.minimum(np.linalg.norm(u - v, axis=-1), np.linalg.norm(u + v, axis=-1))
    _raise_first(fails)
    return Configurations(t, dict(zip(order, disp)),
                          {jid: p for (jid, _, _), p in zip(linkage.orientations, positions)},
                          np.max(residuals, axis=0, initial=0.0))


def sample_configuration(linkage: Linkage, t0: float, tol: float = DEFAULT_TOL) -> ConfigurationSample:
    """Forward kinematics at one parameter value: the one-row forward_kinematics."""
    cfg = forward_kinematics(linkage, [t0])
    return ConfigurationSample(
        t0,
        {lid: DualQuaternion.from_array(g[0]) for lid, g in cfg.link_displacements.items()},
        {jid: p[0] for jid, p in cfg.joint_positions.items()},
        float(cfg.loop_residuals[0]),
    )


def _near_root(linkage: Linkage, t: np.ndarray, margin: float) -> np.ndarray:
    """Samples within margin*(1 + t^2) of a root of some joint's norm quadratic, or NaN."""
    c0, c1, c2 = norm_quadratics(linkage.graph.rows).T[:, :, None]
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
    """Distances and angles between two lines given per sample as (..., 3) direction and point arrays."""
    d1, a1 = l1
    d2, a2 = l2
    n1 = np.linalg.norm(d1, axis=-1)
    n2 = np.linalg.norm(d2, axis=-1)
    cr = _cross_rows(d1, d2)
    ncr = np.linalg.norm(cr, axis=-1)
    angle = np.arctan2(ncr, np.abs(np.sum(d1 * d2, axis=-1)))
    # parallel axes: the skew line formula would divide noise by noise
    parallel = ncr <= 1e-7 * n1 * n2
    skew = np.abs(np.sum((a2 - a1) * cr, axis=-1)) / np.where(parallel, 1.0, ncr)
    along = np.linalg.norm(_cross_rows(a2 - a1, d1), axis=-1) / n1
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
    so broken closure identities show up as varying distances.  The axis
    lines, the joint pairs and the angle triples of all links are one array
    pass each.
    """
    if samples is None:
        samples = default_samples(linkage)
    cfg = forward_kinematics(linkage, samples)
    graph, links = linkage.graph, linkage.graph.links
    jindex = {j.id: k for k, j in enumerate(graph.joints)}
    rotation = [j.kind == "rotation" for j in graph.joints]
    pairs, triples = [], []  # link number, then joint indices
    for n, link in enumerate(links):
        ks = [jindex[jid] for jid in sorted(link.joint_ids)]
        pairs += [(n, a, b) for i, a in enumerate(ks) for b in ks[i + 1:] if rotation[a] and rotation[b]]
        triples += [(n, a, b, c) for a in ks for i, b in enumerate(ks) for c in ks[i + 1:]
                    if a not in (b, c)]
    per_link = {l.id: 0.0 for l in links}
    angle_notes = {l.id: 0.0 for l in links if len(l.joint_ids) >= 3}
    positions = np.array([cfg.joint_positions[j.id] for j in graph.joints])
    if len(samples) and pairs:
        owner = {jid: a for jid, a, _ in linkage.orientations}
        owners = np.array([cfg.link_displacements[owner[j.id]] for j in graph.joints])
        lines = _act_rows(owners, (graph.anchors + graph.directions)[:, None, :]) - positions
        n, a, b = np.array(pairs).T
        dists, angles = _line_distance_angle((lines[a], positions[a]), (lines[b], positions[b]))
        for k, spread in zip(n.tolist(), np.ptp([dists, angles], axis=-1).T.tolist()):
            per_link[links[k].id] = max(per_link[links[k].id], *spread)
    if len(samples) and triples:
        n, a, b, c = np.array(triples).T
        u, v = positions[b] - positions[a], positions[c] - positions[a]
        nu, nv = np.linalg.norm(u, axis=-1), np.linalg.norm(v, axis=-1)
        ok = (nu >= 1e-12) & (nv >= 1e-12)
        with np.errstate(divide="ignore", invalid="ignore"):  # the samples that are not ok are left out
            angle = np.arccos(np.clip(np.sum(u * v, axis=-1) / (nu * nv), -1.0, 1.0))
        spread = np.where(ok, angle, -np.inf).max(axis=-1) - np.where(ok, angle, np.inf).min(axis=-1)
        for k, value in zip(n[ok.any(axis=1)].tolist(), spread[ok.any(axis=1)].tolist()):
            angle_notes[links[k].id] = max(angle_notes[links[k].id], value)
    return RigidityReport(per_link, angle_notes, max(per_link.values(), default=0.0), tuple(samples))


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
            {"id": j.id, "generator": row, "kind": j.kind}
            for j, row in zip(linkage.graph.joints, linkage.graph.rows.tolist())
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
    gens = {j["id"]: j["generator"] for j in data["joints"]}
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
    frame = planar_frame(linkage.graph.rows)
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
