"""Rebuilding a honeycomb from its diagram, and the operations that rest on
that: overlays, tripod witnesses, eliding, and breathing along a loop.

Reconstruction glues one small dual region per diagram vertex, walking the
finite pieces to pin the relative translations; inconsistent walks mean the
measure is not a honeycomb diagram.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .diagram import Diagram, canonical_diagram, degeneracy_graph, diagram
from .errors import (DirectionViolation, EpsilonTooLarge, NotADiagram,
                     NotDominant, NotSimplyDegenerate, ParallelLinesOnly,
                     TypeDoesNotClose)
from .honeycomb import (Honeycomb, Partition, _add, _cross2, _sub,
                        build_tinkertoy_from_type, dual_sides,
                        validate_configuration)
from .plane import (DIRECTION_ORDER, INF, Direction, PlanePoint,
                    SegmentOrRay, coord, frac)
from .weights import as_weight

_DIR_INDEX = {d.name: i for i, d in enumerate(DIRECTION_ORDER)}


def reconstruct(m: Diagram) -> Honeycomb:
    """The unique honeycomb with this diagram.

    The result's tinkertoy is the type's standard-position tinkertoy, so
    honeycombs of standard tinkertoys round-trip on the nose.  NotADiagram
    explains any failure: fractional multiplicities, disconnected support,
    or region gluings that do not match up ("monodromy").
    """
    m = canonical_diagram(m.segments)
    for s in m.segments:
        if s.multiplicity.denominator != 1:
            raise NotADiagram("nonintegral-multiplicity",
                              f"piece {s} has multiplicity {s.multiplicity}")

    at = {v.location: i for i, v in enumerate(m.vertices)}
    nverts = len(m.vertices)
    adj = [[] for _ in range(nverts)]
    support = Partition(range(nverts))
    for s in m.segments:
        if s.is_ray:
            assert s.base in at
            continue
        a, b = at[s.base], at[s.end]
        adj[a].append((b, s.direction))
        adj[b].append((a, s.direction.opposite()))
        support.union(a, b)
    if len(support.classes()) > 1:
        raise NotADiagram("disconnected", "support has several components")

    census = m.ray_census()
    census = tuple(int(c) for c in census)
    try:
        whole = build_tinkertoy_from_type(census)
    except TypeDoesNotClose as ex:
        raise NotADiagram("tension", str(ex)) from ex

    local = {}  # census -> (tinkertoy, dual sides), shared across vertices
    for v in m.vertices:
        c = tuple(int(x) for x in v.mults)
        if c not in local:
            local[c] = (build_tinkertoy_from_type(c), dual_sides(c))

    # walk the finite pieces, pinning each region's translation
    trans = {0: (0, 0, 0)}
    queue = deque([0])
    while queue:
        a = queue.popleft()
        ca = tuple(int(x) for x in m.vertices[a].mults)
        for b, d in adj[a]:
            cb = tuple(int(x) for x in m.vertices[b].mults)
            ci = _DIR_INDEX[d.name]
            co = _DIR_INDEX[d.opposite().name]
            t = _add(trans[a],
                     _sub(local[ca][1][ci][1], local[cb][1][co][0]))
            if b in trans:
                if trans[b] != t:
                    raise NotADiagram(
                        "monodromy",
                        f"gluings disagree at {m.vertices[b].location}")
            else:
                trans[b] = t
                queue.append(b)

    claimed = {}
    for i, v in enumerate(m.vertices):
        c = tuple(int(x) for x in v.mults)
        for w in local[c][0].vertices:
            wp = _add(w, trans[i])
            if wp in claimed:
                raise NotADiagram("monodromy",
                                  f"two regions claim lattice vertex {wp}")
            claimed[wp] = i

    delta = _sub(min(claimed), min(whole.vertices))
    if ((2 * delta[0] + delta[1]) % 3 != 0
            or {_add(u, delta) for u in whole.vertices} != set(claimed)):
        raise NotADiagram("monodromy",
                          "regions do not tile the type's dual region")

    pos = {u: m.vertices[claimed[_add(u, delta)]].location
           for u in whole.vertices}
    try:
        h = validate_configuration(whole, pos)
    except DirectionViolation as ex:
        raise NotADiagram("monodromy", str(ex)) from ex
    assert diagram(h) == m
    return h


def overlay(h1: Honeycomb, h2: Honeycomb) -> Honeycomb:
    """The honeycomb whose diagram is the sum of the two diagrams."""
    pieces = list(diagram(h1).segments) + list(diagram(h2).segments)
    try:
        summed = canonical_diagram(pieces)
    except NotADiagram as ex:
        if ex.reason == "parallel-lines":
            raise ParallelLinesOnly(
                "both summands are unions of parallel lines") from ex
        raise
    return reconstruct(summed)


def prv_witness(lam, mu, w, v) -> Honeycomb:
    """Overlay of the n tripods at (lam[w(i)], mu[v(i)], -lam[w(i)]-mu[v(i)]).

    Requires lam[w(i)] + mu[v(i)] to be weakly decreasing in i; the result
    is a honeycomb whose nu-boundary reads off that dominant sum.
    """
    lam = as_weight(lam)
    mu = as_weight(mu)
    n = len(lam)
    if len(mu) != n:
        raise ValueError("lam and mu must have the same length")
    w = tuple(w)
    v = tuple(v)
    if sorted(w) != list(range(n)) or sorted(v) != list(range(n)):
        raise ValueError("w and v must be permutations of 0..n-1")
    sigma = tuple(lam[w[i]] + mu[v[i]] for i in range(n))
    if any(sigma[i] < sigma[i + 1] for i in range(n - 1)):
        raise NotDominant(f"lam[w]+mu[v] = {sigma} is not weakly decreasing")
    pieces = []
    for i in range(n):
        p = PlanePoint(lam[w[i]], mu[v[i]], -lam[w[i]] - mu[v[i]])
        for ray in (DIRECTION_ORDER[0], DIRECTION_ORDER[2], DIRECTION_ORDER[4]):
            pieces.append(SegmentOrRay(p, ray, INF))
    return reconstruct(canonical_diagram(pieces))


@dataclass(frozen=True)
class HalfEdge:
    """A boundary ray of the post-elision graph."""

    node: int
    direction: Direction
    constant: object  # int or Fraction, as plane.coord stores it


@dataclass(frozen=True)
class ElisionEdge:
    """A maximal straight chain between two trivalent vertices."""

    a: int
    b: int
    direction: Direction  # travelling from a to b
    length: object  # int or Fraction, as plane.coord stores it


class PostElisionGraph:
    """What remains of a diagram after straightening out its crossings."""

    def __init__(self, nodes, edges, half_edges, free_lines):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.half_edges = tuple(half_edges)
        self.free_lines = tuple(free_lines)
        joined = Partition(range(len(self.nodes)))
        # a forest joins two classes with every edge; any other edge closes
        # a cycle
        self.acyclic = all(joined.union(e.a, e.b) for e in self.edges)

    def __repr__(self):
        return (f"PostElisionGraph({len(self.nodes)} nodes, "
                f"{len(self.edges)} edges, {len(self.half_edges)} rays, "
                f"acyclic={self.acyclic})")


def elide(m: Diagram) -> PostElisionGraph:
    """Erase crossings, keeping trivalent vertices and straight chains.

    Only simply degenerate diagrams qualify: every vertex a Y, inverted-Y
    or crossing, all multiplicities 1.
    """
    for v in m.vertices:
        if v.kind not in ("Y", "inverted-Y", "crossing") or max(v.mults) != 1:
            raise NotSimplyDegenerate(v)
    verts = m.vertices
    at = {v.location.coords(): k for k, v in enumerate(verts)}
    node_of, nodes = {}, []
    for k, v in enumerate(verts):
        if v.kind != "crossing":
            node_of[k] = len(nodes)
            nodes.append(v)

    # (vertex, census index) -> (the piece leaving it that way, the vertex
    # at its far end or None for a ray); canonical pieces end at vertices
    leaving = {}
    for s in m.segments:
        x, y, z = s.base.coords()
        a = at[x, y, z]
        di = _DIR_INDEX[s.direction.name]
        if s.is_ray:
            leaving[a, di] = (s, None)
            continue
        dx, dy, dz = s.direction.step
        length = s.length
        b = at[x + length * dx, y + length * dy, z + length * dz]
        leaving[a, di] = (s, b)
        leaving[b, (di + 3) % 6] = (s, a)

    edges, half_edges = [], []
    seen = set()
    used_rays = set()
    for start, i in node_of.items():
        for di, d in enumerate(DIRECTION_ORDER):
            if verts[start].mults[di] == 0:
                continue
            k = start
            length = 0
            while True:
                s, far = leaving[k, di]
                if far is None:
                    used_rays.add((k, di))
                    half_edges.append(HalfEdge(
                        i, d, verts[k].location[d.constant_axis]))
                    break
                length += s.length
                k = far
                if verts[k].kind == "crossing":
                    continue
                j = node_of[k]
                key = frozenset({(i, di), (j, (di + 3) % 6)})
                if key not in seen:
                    seen.add(key)
                    edges.append(ElisionEdge(i, j, d, coord(length)))
                break

    free_lines = []
    for s in m.segments:
        if not s.is_ray:
            continue
        k = at[s.base.coords()]
        di = _DIR_INDEX[s.direction.name]
        if (k, di) in used_rays:
            continue
        di = (di + 3) % 6
        while True:
            t, far = leaving[k, di]
            if far is None:
                used_rays.add((k, di))
                free_lines.append((t.direction.constant_axis, t.constant()))
                break
            k = far
    return PostElisionGraph(nodes, edges, half_edges, free_lines)


def breathe_loop(h: Honeycomb, loop, epsilon) -> Honeycomb:
    """Slide the edges of a loop, preserving boundary and all directions.

    loop: trivalent diagram-vertex locations in cyclic order.  Each loop
    vertex moves along its third edge; positive epsilon moves each vertex
    of a clockwise-traversed loop outward.  Raises EpsilonTooLarge with the
    largest legal step when some edge would go negative.
    """
    eps = frac(epsilon)
    m = diagram(h)
    graph = elide(m)

    loop_pts = [p if isinstance(p, PlanePoint) else PlanePoint(*p)
                for p in loop]
    if len(loop_pts) < 3 or len(set(loop_pts)) != len(loop_pts):
        raise ValueError("a loop visits at least three distinct vertices")
    node_at = {graph.nodes[i].location: i for i in range(len(graph.nodes))}
    try:
        idxs = [node_at[p] for p in loop_pts]
    except KeyError as ex:
        raise ValueError(f"{ex.args[0]} is not a trivalent vertex") from ex

    step_dir = {}
    for e in graph.edges:
        step_dir[(e.a, e.b)] = e.direction
        step_dir[(e.b, e.a)] = e.direction.opposite()
    k = len(idxs)
    dirs = []
    for t in range(k):
        pair = (idxs[t], idxs[(t + 1) % k])
        if pair not in step_dir:
            raise ValueError(f"loop vertices {loop_pts[t]} and "
                             f"{loop_pts[(t + 1) % k]} are not joined")
        dirs.append(step_dir[pair])

    # unit-rate displacement of each loop vertex: along its third edge,
    # outward exactly when the turn is clockwise in the (x,y)-chart
    disp = {}
    for t in range(k):
        a, b = dirs[t - 1], dirs[t]
        sign = 1 if _cross2(a.step, b.step) < 0 else -1
        f = _sub(a.step, b.step)
        disp[idxs[t]] = tuple(Fraction(sign * c) for c in f)

    # moving chain lines, then crossings carried along by them
    dgn_regions = {r.location: r.members for r in degeneracy_graph(h).regions}
    moves = {}  # tinkertoy vertex -> unit-rate displacement
    for t in range(k):
        u = idxs[t]
        members = dgn_regions[graph.nodes[u].location]
        assert len(members) == 1
        moves[next(iter(members))] = disp[u]

    cross_shift = {}  # crossing location -> {axis: shift rate}
    for t in range(k):
        u, w = idxs[t], idxs[(t + 1) % k]
        c = dirs[t]
        axis = c.constant_axis
        rate_u, rate_w = disp[u], disp[w]
        assert rate_w[axis] - rate_u[axis] == 0
        pu, pw = graph.nodes[u].location, graph.nodes[w].location
        lo, hi = sorted((pu[c.param_axis], pw[c.param_axis]))
        for x in m.vertices:
            if x.kind != "crossing" or x.location[axis] != pu[axis]:
                continue
            tpar = x.location[c.param_axis]
            if lo < tpar < hi:
                cross_shift.setdefault(x.location, {})[axis] = rate_u[axis]
    for loc, shifts in cross_shift.items():
        vec = [Fraction(0)] * 3
        for axis, s in shifts.items():
            vec[axis] = s
        free = [i for i in range(3) if i not in shifts]
        assert len(free) >= 1
        vec[free[0]] = -sum(vec)
        for w in dgn_regions[loc]:
            moves[w] = tuple(vec)

    # exact largest legal step from the finite edge lengths
    zero = (Fraction(0),) * 3
    rates = {}
    for e in h.tinkertoy.finite_edges:
        dv = _sub(moves.get(e.head, zero), moves.get(e.tail, zero))
        rate = e.direction.multiple(dv)
        assert rate is not None
        if rate != 0:
            rates[e] = rate
    # the edges that shrink at this sign of eps; the nearest zero binds
    bounds = [Fraction(-h.edge_length(e), r) for e, r in rates.items()
              if r * eps < 0]
    limit = min(bounds, key=abs, default=None)
    if limit is not None and abs(eps) > abs(limit):
        raise EpsilonTooLarge(limit)

    pos = {v: h.position(v).translate(tuple(eps * c for c in moves[v]))
           if v in moves else h.position(v)
           for v in h.tinkertoy.vertices}
    return validate_configuration(h.tinkertoy, pos)
