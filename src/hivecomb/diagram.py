"""Honeycombs as measures: canonical diagrams and vertex classification.

The diagram of a honeycomb is the multiplicity-weighted union of its edges.
Canonical form splits that measure into maximal constant-multiplicity pieces
whose interiors avoid all vertices, so two honeycombs give equal diagrams
exactly when they give the same measure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import NotADiagram, TensionViolation, UnknownPattern
from .honeycomb import DualGraph, Honeycomb, Partition, Tinkertoy
from .plane import (AXIS_POSITIVE, DIRECTION_ORDER, INF, Direction,
                    PlanePoint, SegmentOrRay, constant_coordinate, coord,
                    point_with, tension)

#: Vertex kinds in increasing ray count.
VERTEX_KINDS = ("Y", "inverted-Y", "crossing", "rake", "5-valent", "6-valent")

_RAKE_SUPPORTS = tuple(frozenset({i, (i + 1) % 6, (i + 2) % 6, (i + 4) % 6})
                       for i in range(6))


def classify_vertex(mults) -> str:
    """Name the local pattern of a vertex from its six ray multiplicities.

    mults follows DIRECTION_ORDER.  Raises TensionViolation when the rays do
    not balance and UnknownPattern for a balanced pattern that matches none
    of the six shapes (which cannot happen for nonnegative multiplicities).
    """
    m = tuple(coord(x) for x in mults)
    if len(m) != 6 or any(x < 0 for x in m):
        raise ValueError("need six nonnegative multiplicities")
    t = tension(m)
    if t != (0, 0, 0):
        raise TensionViolation(f"rays pull with net tension {t}: {m}")
    support = frozenset(i for i in range(6) if m[i] > 0)
    k = len(support)
    if k < 3:
        raise ValueError("a vertex uses at least three rays")
    if k == 3:
        if support == frozenset({0, 2, 4}):
            return "Y"
        if support == frozenset({1, 3, 5}):
            return "inverted-Y"
        raise UnknownPattern(f"unbalanced 3-ray support {sorted(support)}")
    if k == 4:
        pairs = [i for i in range(3) if i in support and i + 3 in support]
        if len(pairs) == 2:
            assert all(m[i] == m[i + 3] for i in pairs)
            return "crossing"
        if support in _RAKE_SUPPORTS:
            return "rake"
        raise UnknownPattern(f"unbalanced 4-ray support {sorted(support)}")
    return "5-valent" if k == 5 else "6-valent"


@dataclass(frozen=True)
class DiagramVertex:
    """A point of a diagram where at least three rays carry measure."""

    location: PlanePoint
    mults: tuple  # six exact multiplicities (see plane.coord), DIRECTION_ORDER
    kind: str

    def multiplicity(self, d: Direction):
        return self.mults[DIRECTION_ORDER.index(d)]

    def __repr__(self):
        return f"{self.kind}@{self.location}"


def _point_key(p: PlanePoint):
    return (p.x, p.y)


def _piece_key(s: SegmentOrRay):
    axis, c = constant_coordinate(s)
    lo, hi = s.interval()
    return (axis, c,
            (0, lo) if lo is not None else (-1, 0),
            (0, hi) if hi is not None else (1, 0),
            s.multiplicity)


class _LineProfile:
    """Multiplicity profile of one line, between its finite breakpoints."""

    def __init__(self, key, pieces):
        self.axis, self.constant = key
        self.pieces = pieces
        cuts = set()
        for s in pieces:
            lo, hi = s.interval()
            if lo is not None:
                cuts.add(lo)
            if hi is not None:
                cuts.add(hi)
        self.breakpoints = sorted(cuts)
        # mult of elementary interval i = (breakpoints[i-1], breakpoints[i]),
        # with i = 0 and i = len(breakpoints) unbounded
        mults = [0] * (len(self.breakpoints) + 1)
        for s in pieces:
            lo, hi = s.interval()
            a = 0 if lo is None else bisect_left(self.breakpoints, lo) + 1
            b = (len(mults) if hi is None
                 else bisect_left(self.breakpoints, hi) + 1)
            for i in range(a, b):
                mults[i] += s.multiplicity
        self.mults = [coord(m) for m in mults]

    def point(self, t) -> PlanePoint:
        return point_with(self.axis, self.constant,
                          AXIS_POSITIVE[self.axis].param_axis, t)

    def mult_beside(self, t, side: int):
        """Multiplicity immediately above (side=+1) or below (side=-1) t."""
        if side > 0:
            return self.mults[bisect_right(self.breakpoints, t)]
        return self.mults[bisect_left(self.breakpoints, t)]


#: (constant axis, parameter axis, orientation) of each ray, census order.
_RAY_AXES = tuple((d.constant_axis, d.param_axis, d.orientation)
                  for d in DIRECTION_ORDER)


def _mults_at(profiles, p: PlanePoint):
    coords = p.coords()
    out = []
    for axis, param, orientation in _RAY_AXES:
        prof = profiles.get((axis, coords[axis]))
        if prof is None:
            out.append(0)
        else:
            out.append(prof.mult_beside(coords[param], orientation))
    return tuple(out)


class Diagram:
    """Canonical form of a honeycomb measure.

    segments: constant-multiplicity pieces with vertex-free interiors,
    canonically oriented and sorted; vertices: the classified branch points.
    Equality compares the underlying measures.
    """

    def __init__(self, segments, vertices):
        self.segments = tuple(sorted(segments, key=_piece_key))
        self.vertices = tuple(sorted(vertices, key=lambda v: _point_key(v.location)))

    def ray_census(self):
        """Total multiplicity of infinite rays per direction, census order."""
        out = [0] * 6
        for s in self.segments:
            if s.is_ray:
                out[DIRECTION_ORDER.index(s.direction)] += s.multiplicity
        return tuple(out)

    @property
    def type(self):
        census = self.ray_census()
        if all(c.denominator == 1 for c in census):
            return tuple(int(c) for c in census)
        return census

    def vertex_at(self, p: PlanePoint):
        for v in self.vertices:
            if v.location == p:
                return v
        return None

    def translate(self, vec) -> "Diagram":
        vec = tuple(coord(c) for c in vec)
        moved = [SegmentOrRay(s.base.translate(vec), s.direction, s.length,
                              s.multiplicity) for s in self.segments]
        return canonical_diagram(moved)

    def __eq__(self, other):
        return isinstance(other, Diagram) and self.segments == other.segments

    def __hash__(self):
        return hash(self.segments)

    def __repr__(self):
        return (f"Diagram({len(self.segments)} pieces, "
                f"{len(self.vertices)} vertices, type={self.type})")


def canonical_diagram(pieces) -> Diagram:
    """Rebuild an arbitrary bag of pieces into canonical diagram form.

    Overlapping collinear measure adds.  Raises NotADiagram when the measure
    has loose ends or unbalanced branch points ("tension"), when its support
    keeps a whole line away from every vertex ("disconnected"), or when there
    are no vertices at all ("parallel-lines").
    """
    pieces = list(pieces)
    lines = {}
    for s in pieces:
        lines.setdefault(constant_coordinate(s), []).append(s)
    profiles = {key: _LineProfile(key, ps) for key, ps in lines.items()}

    candidates = set()
    for prof in profiles.values():
        for t in prof.breakpoints:
            candidates.add(prof.point(t))
    keys = list(profiles)
    for i, (a1, c1) in enumerate(keys):
        for a2, c2 in keys[i + 1:]:
            if a1 != a2:
                candidates.add(point_with(a1, c1, a2, c2))

    vertices = []
    for p in sorted(candidates, key=_point_key):
        mults = _mults_at(profiles, p)
        nonzero = sum(1 for m in mults if m > 0)
        if nonzero == 0:
            continue
        if nonzero <= 2:
            through = any(mults[i] == mults[i + 3] > 0 for i in range(3))
            if not (nonzero == 2 and through):
                raise NotADiagram("tension", f"loose measure end at {p}")
            continue
        try:
            kind = classify_vertex(mults)
        except TensionViolation as ex:
            raise NotADiagram("tension", f"at {p}: {ex}") from ex
        vertices.append(DiagramVertex(p, mults, kind))

    if not vertices:
        raise NotADiagram("parallel-lines", "the measure has no vertices")

    cuts = {key: set() for key in profiles}
    for v in vertices:
        for axis in range(3):
            key = (axis, v.location[axis])
            if key in cuts:
                cuts[key].add(v.location[AXIS_POSITIVE[axis].param_axis])

    segments = []
    for key, prof in profiles.items():
        params = sorted(cuts[key])
        if not params:
            raise NotADiagram("disconnected",
                              f"line {key} avoids every vertex")
        axis = prof.axis
        spans = ([(None, params[0])]
                 + list(zip(params, params[1:]))
                 + [(params[-1], None)])
        for lo, hi in spans:
            m = (prof.mult_beside(hi, -1) if lo is None
                 else prof.mult_beside(lo, +1))
            if m == 0:
                continue
            if lo is None:
                segments.append(SegmentOrRay(
                    prof.point(hi), AXIS_POSITIVE[axis].opposite(), INF, m))
            elif hi is None:
                segments.append(SegmentOrRay(
                    prof.point(lo), AXIS_POSITIVE[axis], INF, m))
            else:
                segments.append(SegmentOrRay(
                    prof.point(lo), AXIS_POSITIVE[axis], hi - lo, m))
    return Diagram(segments, vertices)


def diagram(h: Honeycomb) -> Diagram:
    """The canonical diagram of a honeycomb configuration."""
    pieces = []
    for e in h.tinkertoy.edges:
        if e.is_boundary:
            pieces.append(SegmentOrRay(h.position(e.anchor),
                                       e.ray_direction, INF))
        else:
            length = h.edge_length(e)
            if length > 0:
                pieces.append(SegmentOrRay(h.position(e.tail),
                                           e.direction, length))
    return canonical_diagram(pieces)


@dataclass(frozen=True)
class Region:
    """A maximal set of tinkertoy vertices collapsed to one point."""

    members: frozenset
    location: PlanePoint
    census: tuple
    kind: str


class DegeneracyGraph:
    """The dual graph with edges dual to degenerate edges removed.

    Its regions biject with the vertices of the honeycomb's diagram; each
    region records the collapsed subtinkertoy's boundary census and kind.
    """

    def __init__(self, dual, kept_edges, dropped_edges, regions):
        self.dual = dual
        self.kept_edges = frozenset(kept_edges)
        self.dropped_edges = frozenset(dropped_edges)
        self.regions = tuple(regions)
        self.region_of = {v: i for i, r in enumerate(self.regions)
                          for v in r.members}

    def __repr__(self):
        return (f"DegeneracyGraph({len(self.kept_edges)} edges kept, "
                f"{len(self.regions)} regions)")


def degeneracy_graph(h: Honeycomb) -> DegeneracyGraph:
    dual = DualGraph(h.tinkertoy)
    degenerate = set(h.degenerate_edges)
    kept, dropped = [], []
    for e, pair in dual.dual_of.items():
        (dropped if e in degenerate else kept).append(pair)

    collapsed = Partition(h.tinkertoy.vertices)
    for e in degenerate:
        collapsed.union(e.tail, e.head)
    regions = []
    for members in sorted(collapsed.classes(), key=min):
        # a region is itself a tinkertoy (collapsing cannot strand part
        # of a hexagon), and its boundary census balances
        sub = Tinkertoy(members)
        census = sub.type
        regions.append(Region(frozenset(members), h.position(min(members)),
                              census, classify_vertex(census)))
    return DegeneracyGraph(dual, kept, dropped, regions)
