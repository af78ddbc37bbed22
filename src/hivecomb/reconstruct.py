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

from .diagram import Diagram, canonical_diagram, diagram
from .errors import (DirectionViolation, EpsilonTooLarge, NotADiagram,
                     NotDominant, NotSimplyDegenerate, ParallelLinesOnly,
                     TypeDoesNotClose)
from .honeycomb import (Honeycomb, Partition, _add, _sub,
                        build_tinkertoy_from_type, dual_sides, triangle,
                        validate_configuration)
from .plane import (DIRECTION_ORDER, INF, Direction, PlanePoint,
                    SegmentOrRay, coord, frac)
from .weights import as_weight


def reconstruct(m: Diagram) -> Honeycomb:
    """The unique honeycomb with this diagram.

    The result's tinkertoy is the type's standard-position tinkertoy, so
    honeycombs of standard tinkertoys round-trip on the nose.  NotADiagram
    explains any failure: fractional multiplicities or region gluings that
    do not match up ("monodromy").

    The walk over finite pieces reaches every vertex.  Each connected part
    of the support is a balanced tropical plane curve with a vertex, so its
    Newton polygon is two-dimensional, and two such curves always meet
    (Richter-Gebert, Sturmfels and Theobald 2005): at a vertex of the
    canonical form, or on a line it cuts at one.
    """
    m = canonical_diagram(m.segments)
    for s in m.segments:
        if s.multiplicity.denominator != 1:
            raise NotADiagram("nonintegral-multiplicity",
                              f"piece {s} has multiplicity {s.multiplicity}")

    # per vertex, (the vertex at the far end, census index) per finite piece
    adj = [[] for _ in m.vertices]
    for (a, di), (_, b) in m.leaving.items():
        if b is not None:
            adj[a].append((b, di))

    try:
        whole = build_tinkertoy_from_type(m.type)
    except TypeDoesNotClose as ex:
        raise NotADiagram("tension", str(ex)) from ex

    census = [v.mults for v in m.vertices]  # ints, by the check above
    local = {c: (build_tinkertoy_from_type(c), dual_sides(c))
             for c in census}

    # walk the finite pieces, pinning each region's translation
    trans = {0: (0, 0, 0)}
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for b, di in adj[a]:
            t = _add(trans[a], _sub(local[census[a]][1][di][1],
                                    local[census[b]][1][(di + 3) % 6][0]))
            if b in trans:
                if trans[b] != t:
                    raise NotADiagram(
                        "monodromy",
                        f"gluings disagree at {m.vertices[b].location}")
            else:
                trans[b] = t
                queue.append(b)

    claimed = {}
    for i, c in enumerate(census):
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
    if diagram(h) != m:
        raise RuntimeError("reconstructed honeycomb has another diagram")
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
    node_of, nodes = {}, []
    for k, v in enumerate(verts):
        if v.kind != "crossing":
            node_of[k] = len(nodes)
            nodes.append(v)

    leaving = m.leaving
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
    for (k, di), (_, far) in leaving.items():
        if far is not None or (k, di) in used_rays:
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


def _winding(loop, p) -> int:
    """Counterclockwise winding number of a closed polygon around p, in the
    (x, y) chart; p must not lie on the polygon."""
    px, py = p
    w = 0
    for a, b in zip(loop, loop[1:] + loop[:1]):
        left = (b[0] - a[0]) * (py - a[1]) - (px - a[0]) * (b[1] - a[1])
        if a[1] <= py < b[1] and left > 0:
            w += 1
        elif b[1] <= py < a[1] and left < 0:
            w -= 1
    return w


def breathe_loop(h: Honeycomb, loop, epsilon) -> Honeycomb:
    """Slide the edges of a loop, preserving boundary and all directions.

    loop: trivalent diagram-vertex locations in cyclic order, each joined to
    the next by an edge of the post-elision graph.  A vertex coordinate is
    the face one below it minus the face one above it on that axis (as in
    hive._vertex_table), so the move is a change of face heights: each
    bounded face, a hexagon of the tinkertoy, rises by epsilon times the
    loop's clockwise winding number around it.  Positive epsilon thus grows
    a clockwise loop, and the lobes of a self-crossing loop move
    oppositely.  Raises EpsilonTooLarge with the largest legal step when
    some edge would go negative.
    """
    eps = frac(epsilon)
    graph = elide(diagram(h))

    loop_pts = [p if isinstance(p, PlanePoint) else PlanePoint(*p)
                for p in loop]
    if len(loop_pts) < 3 or len(set(loop_pts)) != len(loop_pts):
        raise ValueError("a loop visits at least three distinct vertices")
    node_at = {graph.nodes[i].location: i for i in range(len(graph.nodes))}
    try:
        idxs = [node_at[p] for p in loop_pts]
    except KeyError as ex:
        raise ValueError(f"{ex.args[0]} is not a trivalent vertex") from ex
    joined = {frozenset((e.a, e.b)) for e in graph.edges}
    for k in range(len(idxs)):
        if frozenset((idxs[k - 1], idxs[k])) not in joined:
            raise ValueError(f"loop vertices {loop_pts[k - 1]} and "
                             f"{loop_pts[k]} are not joined")

    # each hexagon weighted by the clockwise winding around the centroid of
    # its six corners; the centroid is inside the face, as no face of a
    # simply degenerate honeycomb collapses to a segment or point
    t = h.tinkertoy
    rise = {}
    for f in t.hexagons:
        ps = [h.position(_add(f, d.step)) for d in DIRECTION_ORDER]
        rise[f] = -_winding(loop_pts, (Fraction(sum(p.x for p in ps), 6),
                                       Fraction(sum(p.y for p in ps), 6)))
    # unit-rate displacement: +rise on the axis where a face is one below
    # the vertex, -rise where it is one above
    moves = {v: [sum(rise.get(f, 0) * (v[a] - f[a]) for f in triangle(v))
                 for a in range(3)] for v in t.vertices}

    # exact largest legal step: of the edges that shrink at this sign of
    # eps, the nearest zero binds
    bounds = []
    for e in t.finite_edges:
        rate = e.direction.multiple(_sub(moves[e.head], moves[e.tail]))
        if rate * eps < 0:
            bounds.append(Fraction(-h.edge_length(e), rate))
    limit = min(bounds, key=abs, default=None)
    if limit is not None and abs(eps) > abs(limit):
        raise EpsilonTooLarge(limit)

    pos = {v: h.position(v).translate([eps * c for c in moves[v]])
           for v in t.vertices}
    return validate_configuration(t, pos)
