"""Honeycombs as measures: canonical diagrams and vertex classification.

The diagram of a honeycomb is the multiplicity-weighted union of its edges.
Canonical form splits that measure into maximal constant-multiplicity pieces
whose interiors avoid all vertices, so two honeycombs give equal diagrams
exactly when they give the same measure.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .errors import NotADiagram, TensionViolation, UnknownPattern
from .honeycomb import DualGraph, Honeycomb, Partition, Tinkertoy
from .plane import (AXIS_POSITIVE, DIRECTION_ORDER, INF, Direction,
                    PlanePoint, SegmentOrRay, constant_coordinate, coord,
                    coords_with, param_interval, tension)

#: The census index of each direction, by name.
_DIR_INDEX = {d.name: i for i, d in enumerate(DIRECTION_ORDER)}

#: Vertex kinds in increasing ray count.
VERTEX_KINDS = ("Y", "inverted-Y", "crossing", "rake", "5-valent", "6-valent")

#: Ray supports as bitmasks, bit i for census index i.
_Y, _INVERTED_Y = 0b010101, 0b101010
_RAKE_SUPPORTS = frozenset(1 << i | 1 << (i + 1) % 6 | 1 << (i + 2) % 6
                           | 1 << (i + 4) % 6 for i in range(6))


def _indices(support) -> list:
    return [i for i in range(6) if support >> i & 1]


def classify_vertex(mults) -> str:
    """Name the local pattern of a vertex from its six ray multiplicities.

    mults follows DIRECTION_ORDER.  Raises TensionViolation when the rays do
    not balance and UnknownPattern for a balanced pattern that matches none
    of the six shapes (which cannot happen for nonnegative multiplicities).
    """
    m = tuple(map(coord, mults))
    if len(m) != 6 or min(m) < 0:
        raise ValueError("need six nonnegative multiplicities")
    t = tension(m)
    if t != (0, 0, 0):
        raise TensionViolation(f"rays pull with net tension {t}: {m}")
    support = 0
    for i, x in enumerate(m):
        if x:
            support |= 1 << i
    k = support.bit_count()
    if k < 3:
        raise ValueError("a vertex uses at least three rays")
    if k == 3:
        if support == _Y:
            return "Y"
        if support == _INVERTED_Y:
            return "inverted-Y"
        raise UnknownPattern(f"unbalanced 3-ray support {_indices(support)}")
    if k == 4:
        pairs = [i for i in range(3) if support >> i & support >> i + 3 & 1]
        if len(pairs) == 2:
            assert all(m[i] == m[i + 3] for i in pairs)
            return "crossing"
        if support in _RAKE_SUPPORTS:
            return "rake"
        raise UnknownPattern(f"unbalanced 4-ray support {_indices(support)}")
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
    """Multiplicity profile of one line, between its finite breakpoints.

    Built from spans (lo, hi, multiplicity) of the line's canonical
    parameter, a None bound meaning unbounded on that side.
    """

    def __init__(self, key, spans):
        self.axis, self.constant = key
        self.param = AXIS_POSITIVE[self.axis].param_axis
        cuts = set()
        for lo, hi, _ in spans:
            if lo is not None:
                cuts.add(lo)
            if hi is not None:
                cuts.add(hi)
        self.breakpoints = sorted(cuts)
        # mult of elementary interval i = (breakpoints[i-1], breakpoints[i]),
        # with i = 0 and i = len(breakpoints) unbounded
        mults = [0] * (len(self.breakpoints) + 1)
        for lo, hi, m in spans:
            a = 0 if lo is None else bisect_left(self.breakpoints, lo) + 1
            b = (len(mults) if hi is None
                 else bisect_left(self.breakpoints, hi) + 1)
            for i in range(a, b):
                mults[i] += m
        self.mults = [coord(m) for m in mults]

    def point(self, t) -> tuple:
        """Coordinates of the point with parameter t."""
        return coords_with(self.axis, self.constant, self.param, t)

    def around(self, t):
        """Multiplicities just below and just above parameter t."""
        i = bisect_left(self.breakpoints, t)
        below = self.mults[i]
        if i < len(self.breakpoints) and self.breakpoints[i] == t:
            return below, self.mults[i + 1]
        return below, below

    def measured_below(self, t) -> bool:
        """Whether the line has measure just below parameter t."""
        return self.mults[bisect_left(self.breakpoints, t)] > 0


#: Per constant axis, the census indices of the rays that leave a point
#: along its line towards lower and towards higher parameter.
_RAYS_ON_AXIS = tuple((DIRECTION_ORDER.index(AXIS_POSITIVE[a].opposite()),
                       DIRECTION_ORDER.index(AXIS_POSITIVE[a]))
                      for a in range(3))


def _mults_at(profiles, p):
    """The six ray multiplicities at coordinates p, census order."""
    rays = [0] * 6
    for axis, (down, up) in enumerate(_RAYS_ON_AXIS):
        prof = profiles.get((axis, p[axis]))
        if prof is not None:
            rays[down], rays[up] = prof.around(p[prof.param])
    return tuple(rays)


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

    @cached_property
    def leaving(self) -> dict:
        """(vertex index, census index) -> (the piece leaving that vertex
        that way, the vertex index at its far end or None for a ray).
        Canonical pieces end at vertices, so each is filed at both ends."""
        at = {v.location.coords(): k for k, v in enumerate(self.vertices)}
        out = {}
        for s in self.segments:
            x, y, z = s.base.coords()
            d = s.direction
            a, di = at[x, y, z], _DIR_INDEX[d.name]
            if s.is_ray:
                out[a, di] = (s, None)
                continue
            dx, dy, dz = d.step
            b = at[x + s.length * dx, y + s.length * dy, z + s.length * dz]
            out[a, di] = (s, b)
            out[b, (di + 3) % 6] = (s, a)
        return out

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


def _add_span(lines, base, d: Direction, length, m):
    """File a piece from coordinates base along d under its line's key, as
    the span (lo, hi, m) of the line's canonical parameter."""
    lo, hi = param_interval(base[d.param_axis], d, length)
    lines.setdefault((d.constant_axis, base[d.constant_axis]), []).append(
        (lo, hi, m))


def canonical_diagram(pieces) -> Diagram:
    """Rebuild an arbitrary bag of pieces into canonical diagram form.

    Overlapping collinear measure adds.  Raises NotADiagram when the measure
    has loose ends or unbalanced branch points ("tension"), or when there
    are no vertices at all ("parallel-lines").
    """
    lines = {}
    for s in pieces:
        _add_span(lines, s.base.coords(), s.direction, s.length,
                  s.multiplicity)
    return _canonical(lines)


def _canonical(lines) -> Diagram:
    """canonical_diagram over spans already filed by line (`_add_span`).

    Only two kinds of point can be anything but empty or the inside of a
    straight run, so only they are classified: the breakpoints of each
    line, and the crossings of two non-parallel lines that both carry
    measure just below the crossing in their canonical parameters.  This is
    exact for any bag of pieces, overlays included.  Away from a line's
    breakpoints its multiplicity is the same on both sides, so a point that
    is no breakpoint has each line through it measured on both sides or
    on neither.  A vertex has at least three rays with nonzero
    multiplicity and one line gives at most two, so at least two lines
    carry measure next to it: it is a breakpoint or a crossing of two
    lines measured on both sides.  A loose end or a tension fault is a
    point where some line's multiplicity changes, which is a breakpoint,
    or it has three or more rays and is found like a vertex.  Any other
    point has at most one measured line through it, not at a breakpoint,
    so it is empty or the measure passes straight through.  Points are
    coordinate tuples until one is classified as a vertex.

    Every line is cut at a vertex.  A line without one has no breakpoint
    (a loose end, raised first), so it is a whole line a = c of constant
    positive multiplicity.  If some vertex has a < c, the one with the
    largest such a has no ray with a increasing (it would reach a vertex
    with larger a or cross the line, at a vertex), so by balance none with
    a decreasing either, and is no vertex.  Likewise above c, and some
    vertex exists.
    """
    profiles = {key: _LineProfile(key, spans) for key, spans in lines.items()}

    candidates = set()
    for prof in profiles.values():
        for t in prof.breakpoints:
            candidates.add(prof.point(t))
    by_axis = ([], [], [])
    for prof in profiles.values():
        by_axis[prof.axis].append(prof)
    for axis in range(3):
        # a line of the next axis crosses at the parameter equal to its own
        # constant; its parameter there is the third coordinate
        for p1 in by_axis[axis]:
            for p2 in by_axis[(axis + 1) % 3]:
                if (p1.measured_below(p2.constant)
                        and p2.measured_below(-p1.constant - p2.constant)):
                    candidates.add(p1.point(p2.constant))

    vertices = []
    for p in sorted(candidates):
        mults = _mults_at(profiles, p)
        nonzero = sum(1 for m in mults if m > 0)
        if nonzero == 0:
            continue
        if nonzero <= 2:
            through = any(mults[i] == mults[i + 3] > 0 for i in range(3))
            if not (nonzero == 2 and through):
                raise NotADiagram("tension",
                                  f"loose measure end at {PlanePoint(*p)}")
            continue
        try:
            kind = classify_vertex(mults)
        except TensionViolation as ex:
            raise NotADiagram("tension", f"at {PlanePoint(*p)}: {ex}") from ex
        vertices.append(DiagramVertex(PlanePoint(*p), mults, kind))

    if not vertices:
        raise NotADiagram("parallel-lines", "the measure has no vertices")

    cuts = {key: {} for key in profiles}
    for v in vertices:
        loc = v.location
        for axis in range(3):
            at = cuts.get((axis, loc[axis]))
            if at is not None:
                at[loc[AXIS_POSITIVE[axis].param_axis]] = loc

    segments = []
    for key, prof in profiles.items():
        at = cuts[key]
        params = sorted(at)
        up = AXIS_POSITIVE[prof.axis]
        spans = ([(None, params[0])]
                 + list(zip(params, params[1:]))
                 + [(params[-1], None)])
        for lo, hi in spans:
            m = prof.around(hi)[0] if lo is None else prof.around(lo)[1]
            if m == 0:
                continue
            if lo is None:
                segments.append(SegmentOrRay(at[hi], up.opposite(), INF, m))
            elif hi is None:
                segments.append(SegmentOrRay(at[lo], up, INF, m))
            else:
                segments.append(SegmentOrRay(at[lo], up, hi - lo, m))
    return Diagram(segments, vertices)


def diagram(h: Honeycomb) -> Diagram:
    """The canonical diagram of a honeycomb configuration."""
    lines = {}
    for e in h.tinkertoy.edges:
        if e.is_boundary:
            _add_span(lines, h.position(e.anchor).coords(), e.ray_direction,
                      INF, 1)
        else:
            length = h.edge_length(e)
            if length > 0:
                _add_span(lines, h.position(e.tail).coords(), e.direction,
                          length, 1)
    return _canonical(lines)


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
