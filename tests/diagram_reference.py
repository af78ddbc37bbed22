"""The `canonical_diagram` that `hivecomb.diagram.canonical_diagram` replaced.

It builds a `PlanePoint` for every breakpoint of every line and for every
crossing of two non-parallel lines, measured or not, and classifies each
one.  Tests require the library's version, which classifies only the
breakpoints and the crossings of two measured lines, to return the same
segments, vertices and `NotADiagram` reason on any bag of pieces.
"""

from bisect import bisect_left, bisect_right

from hivecomb.diagram import Diagram, DiagramVertex, classify_vertex
from hivecomb.errors import NotADiagram, TensionViolation
from hivecomb.plane import (AXIS_POSITIVE, DIRECTION_ORDER, INF, PlanePoint,
                            SegmentOrRay, constant_coordinate, coord,
                            point_with)


def _point_key(p: PlanePoint):
    return (p.x, p.y)


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
