"""Honeycomb tinkertoys and their configurations.

A tinkertoy is a finite window of the infinite honeycomb graph: vertices are
integer points (i,j,k) of B with 3 not dividing 2i+j, and every vertex carries
its three edges.  Vertices with 2i+j = 2 mod 3 are tails; their edges point to
the three heads one lattice step away.  A configuration (honeycomb) places
every vertex in B so that each edge keeps its direction and has nonnegative
length.

The shared lattice helpers live here: the 3-vector `_add` and `_sub` and the
2-D `_cross2`, `triangle` (the dual points around a vertex), `dual_sides`
(the counterclockwise walk around a type's dual region) and `Partition`
(the union-find behind every class of collapsed or connected items).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .errors import DirectionViolation, TypeDoesNotClose
from .plane import (DIRECTION_ORDER, E, NW, SW, Direction, PlanePoint, coord,
                    perp_step, tension)
from .weights import BoundaryTriple

#: Edge directions, tail to head.
EDGE_DIRS = (SW, NW, E)

#: The six unit steps between lattice vertices, census order.
_UNIT_STEPS = tuple(d.step for d in DIRECTION_ORDER)

#: Walking a dual region boundary counterclockwise visits the ray classes in
#: this census order (verified on the GL_n triangle).
CCW_CLASSES = (0, 5, 4, 3, 2, 1)


def _add(p, s):
    return (p[0] + s[0], p[1] + s[1], p[2] + s[2])


def _sub(p, s):
    return (p[0] - s[0], p[1] - s[1], p[2] - s[2])


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


class Partition:
    """Union-find over a fixed set of hashable items."""

    def __init__(self, items):
        self._parent = {v: v for v in items}

    def find(self, v):
        parent = self._parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(self, a, b) -> bool:
        """Join the classes of a and b; False when they were one already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[ra] = rb
        return True

    def classes(self) -> list:
        """Each class as a set, in the order of its first item."""
        out = {}
        for v in self._parent:
            out.setdefault(self.find(v), set()).add(v)
        return list(out.values())


def is_lattice_vertex(p) -> bool:
    """Whether p is a vertex of the infinite honeycomb graph."""
    return p[0] + p[1] + p[2] == 0 and (2 * p[0] + p[1]) % 3 != 0


def is_head(p) -> bool:
    return (2 * p[0] + p[1]) % 3 == 1


def is_tail(p) -> bool:
    return (2 * p[0] + p[1]) % 3 == 2


def is_root_point(p) -> bool:
    """Whether p is a dual-graph (root-lattice) point."""
    return p[0] + p[1] + p[2] == 0 and (2 * p[0] + p[1]) % 3 == 0


@dataclass(frozen=True)
class Edge:
    """One edge, possibly missing its tail or head (boundary ray)."""

    tail: Optional[tuple]
    head: Optional[tuple]
    direction: Direction

    def __post_init__(self):
        if self.tail is None and self.head is None:
            raise ValueError("an edge needs at least one end")
        if self.tail is not None and not is_tail(self.tail):
            raise ValueError(f"{self.tail} cannot be a tail")
        if self.head is not None and not is_head(self.head):
            raise ValueError(f"{self.head} cannot be a head")
        if self.tail is not None and self.head is not None:
            if _add(self.tail, self.direction.step) != self.head:
                raise ValueError("head is not one step from tail")

    @property
    def is_boundary(self) -> bool:
        return self.tail is None or self.head is None

    @property
    def anchor(self) -> tuple:
        """The vertex the edge is attached to (head preferred)."""
        return self.head if self.head is not None else self.tail

    @property
    def ray_direction(self) -> Direction:
        """Outgoing direction of a boundary edge's infinite ray."""
        if not self.is_boundary:
            raise ValueError("finite edges have no ray")
        return self.direction if self.head is None else self.direction.opposite()

    def __repr__(self):
        return f"Edge({self.tail}-{self.direction}->{self.head})"


class Tinkertoy:
    """A honeycomb tinkertoy: a vertex set satisfying the five axioms.

    The edge set is determined by the vertices (every vertex carries all
    three of its edges), so equality and hashing go by vertex set alone.
    """

    def __init__(self, vertices):
        verts = frozenset(tuple(v) for v in vertices)
        for v in verts:
            if not is_lattice_vertex(v):
                raise ValueError(f"{v} is not a honeycomb lattice vertex")
        self.vertices = verts
        self.sorted_vertices = tuple(sorted(verts))
        self._check_axioms()
        self.edges = self._build_edges()
        self.boundary_edges = tuple(e for e in self.edges if e.is_boundary)
        self.finite_edges = tuple(e for e in self.edges if not e.is_boundary)
        census = [0] * 6
        for e in self.boundary_edges:
            census[DIRECTION_ORDER.index(e.ray_direction)] += 1
        self.type = tuple(census)

    def _check_axioms(self):
        verts = self.vertices
        if not verts:
            raise ValueError("a tinkertoy contains at least one vertex")
        # connectedness
        seen = set()
        stack = [self.sorted_vertices[0]]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            steps = EDGE_DIRS
            nbrs = ([_add(v, d.step) for d in steps] if is_tail(v)
                    else [_sub(v, d.step) for d in steps])
            stack.extend(w for w in nbrs if w in verts and w not in seen)
        if seen != verts:
            raise ValueError("tinkertoy is not connected")
        # hexagon closure: 4+ vertices around a root point force all 6
        roots = {_add(v, s) for v in verts for s in _UNIT_STEPS}
        for r in roots:
            if not is_root_point(r):
                continue
            present = sum(_add(r, s) in verts for s in _UNIT_STEPS)
            if 4 <= present < 6:
                raise ValueError(f"hexagon around {r} is only partly present")

    def _build_edges(self):
        verts = self.vertices
        edges = []
        for v in self.sorted_vertices:
            if is_tail(v):
                for d in EDGE_DIRS:
                    h = _add(v, d.step)
                    edges.append(Edge(v, h if h in verts else None, d))
            else:
                for d in EDGE_DIRS:
                    t = _sub(v, d.step)
                    if t not in verts:
                        edges.append(Edge(None, v, d))
        return tuple(edges)

    @property
    def hexagons(self):
        """Root points all six of whose surrounding vertices are present."""
        roots = {_add(v, s) for v in self.vertices for s in _UNIT_STEPS}
        out = [r for r in roots if is_root_point(r)
               and all(_add(r, s) in self.vertices for s in _UNIT_STEPS)]
        return tuple(sorted(out))

    def translate(self, vec) -> "Tinkertoy":
        vec = tuple(vec)
        if (2 * vec[0] + vec[1]) % 3 != 0 or sum(vec) != 0:
            raise ValueError("tinkertoys only translate by root-lattice vectors")
        return Tinkertoy(_add(v, vec) for v in self.vertices)

    def __eq__(self, other):
        return isinstance(other, Tinkertoy) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Tinkertoy(type={self.type}, {len(self.vertices)} vertices)"


def dual_sides(census) -> dict:
    """Start and end corner of each side of a type's dual region, keyed by
    ray class, walking counterclockwise from the origin (one side per
    nonzero census entry)."""
    sides = {}
    cur = (0, 0, 0)
    for idx in CCW_CLASSES:
        m = census[idx]
        if m == 0:
            continue
        nxt = _add(cur, tuple(m * s for s in perp_step(DIRECTION_ORDER[idx])))
        sides[idx] = (cur, nxt)
        cur = nxt
    return sides


def dual_polygon(census):
    """Corner points of the convex dual region of a boundary type.

    The corners are the starts of the `dual_sides` walk; raises
    TypeDoesNotClose when the walk fails to close or the region has no area.
    """
    census = tuple(int(c) for c in census)
    if len(census) != 6 or any(c < 0 for c in census):
        raise ValueError("a type is six nonnegative integers")
    if all(c == 0 for c in census):
        raise TypeDoesNotClose("all six ray counts are zero")
    total = tension(census)
    if total != (0, 0, 0):
        raise TypeDoesNotClose(f"ray tensions sum to {total}, not zero")
    sides = list(dual_sides(census).values())
    assert sides[-1][1] == (0, 0, 0)
    corners = tuple(start for start, _ in sides)
    if _area2(corners) == 0:
        raise TypeDoesNotClose("region collapses to a segment")
    return corners


def _area2(corners) -> int:
    """Twice the signed area of a polygon, in the (x, y) chart of B."""
    return sum(_cross2(corners[i], corners[(i + 1) % len(corners)])
               for i in range(len(corners)))


def tinkertoy_size(census) -> int:
    """Vertex count of the tinkertoy of a boundary type, without building it.

    The dual triangles of the vertices tile the dual region, and twice the
    area of one is 3 in the (x, y) chart, so the count is |2 * area| / 3 of
    the dual polygon.  Raises like dual_polygon for a type that does not
    close.
    """
    return abs(_area2(dual_polygon(census))) // 3


def polygon_contains(corners, p) -> bool:
    """Whether p is inside or on the convex dual region (CCW corner list)."""
    for a, b in zip(corners, corners[1:] + corners[:1]):
        side = _sub(b, a)
        if _cross2(side, _sub(p, a)) > 0:
            return False
    return True


def triangle(v) -> tuple:
    """The three dual-graph points around a lattice vertex, sorted."""
    steps = [d.step for d in EDGE_DIRS]
    pts = ([_add(v, s) for s in steps] if is_head(v)
           else [_sub(v, s) for s in steps])
    return tuple(sorted(pts))


def vertices_in_dual_region(corners):
    """Lattice vertices whose whole dual triangle lies inside the region."""
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    out = set()
    for i in range(min(xs) - 2, max(xs) + 3):
        for j in range(min(ys) - 2, max(ys) + 3):
            v = (i, j, -i - j)
            if not is_lattice_vertex(v):
                continue
            if all(polygon_contains(corners, p) for p in triangle(v)):
                out.add(v)
    return out


def build_tinkertoy_from_type(census) -> Tinkertoy:
    """The unique tinkertoy of a boundary type, in standard position.

    Standard position pins the translation ambiguity: the dual region's walk
    starts at the origin.
    """
    corners = dual_polygon(census)
    verts = vertices_in_dual_region(corners)
    if not verts:
        raise TypeDoesNotClose("region contains no whole dual triangle")
    t = Tinkertoy(verts)
    assert t.type == tuple(int(c) for c in census)
    return t


@cache
def build_gl_tinkertoy(n: int) -> Tinkertoy:
    """The GL_n tinkertoy: type (n, 0, n, 0, n, 0) in standard position.
    Built once per n and shared; a Tinkertoy is only set in __init__."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return build_tinkertoy_from_type((n, 0, n, 0, n, 0))


class Honeycomb:
    """A configuration of a tinkertoy: exact positions for every vertex.

    Positions and edge lengths are ints where integral, Fractions otherwise
    (see plane.coord).

    Construct through validate_configuration so the direction and
    nonnegative-length constraints are always checked.
    """

    def __init__(self, tinkertoy: Tinkertoy, positions, lengths):
        self.tinkertoy = tinkertoy
        self._pos = positions
        self._lengths = lengths

    def position(self, v) -> PlanePoint:
        return self._pos[v]

    @property
    def positions(self):
        return dict(self._pos)

    def edge_length(self, e: Edge):
        return self._lengths[e]

    @property
    def degenerate_edges(self):
        return tuple(e for e in self.tinkertoy.finite_edges
                     if self._lengths[e] == 0)

    @property
    def degenerate_vertices(self):
        out = set()
        for e in self.degenerate_edges:
            out.add(e.tail)
            out.add(e.head)
        return frozenset(out)

    @property
    def is_nondegenerate(self) -> bool:
        return not self.degenerate_edges

    @property
    def is_lattice(self) -> bool:
        return all(c.denominator == 1 for p in self._pos.values()
                   for c in p.coords())

    def translate(self, vec) -> "Honeycomb":
        vec = tuple(coord(c) for c in vec)
        pos = {v: p.translate(vec) for v, p in self._pos.items()}
        return Honeycomb(self.tinkertoy, pos, dict(self._lengths))

    def boundary_conditions(self) -> BoundaryTriple:
        """(lambda, mu, nu) read off the three boundary ray families."""
        t = self.tinkertoy.type
        n = t[0]
        if t != (n, 0, n, 0, n, 0) or n == 0:
            raise ValueError(f"type {t} is not GL-like; no (lambda,mu,nu) reading")
        families = []
        for ray_dir in (DIRECTION_ORDER[0], DIRECTION_ORDER[2], DIRECTION_ORDER[4]):
            axis = ray_dir.constant_axis
            rays = [e for e in self.tinkertoy.boundary_edges
                    if e.ray_direction is ray_dir]
            rays.sort(key=lambda e: e.anchor[axis], reverse=True)
            families.append(tuple(self._pos[e.anchor][axis] for e in rays))
        return BoundaryTriple(*families)

    def __eq__(self, other):
        return (isinstance(other, Honeycomb)
                and self.tinkertoy == other.tinkertoy
                and self._pos == other._pos)

    def __repr__(self):
        return f"Honeycomb(type={self.tinkertoy.type}, lattice={self.is_lattice})"


def validate_configuration(tinkertoy: Tinkertoy, positions) -> Honeycomb:
    """Check a position map and wrap it as a Honeycomb.

    Each two-ended edge's displacement must be a nonnegative multiple of its
    direction; DirectionViolation names the first edge that fails.  Lengths
    are exact like the coordinates: ints on integral positions.
    """
    pos = {}
    for v in tinkertoy.sorted_vertices:
        if v not in positions:
            raise ValueError(f"no position for vertex {v}")
        p = positions[v]
        pos[v] = p if isinstance(p, PlanePoint) else PlanePoint(*p)
    lengths = {}
    for e in tinkertoy.finite_edges:
        a, b = pos[e.tail], pos[e.head]
        delta = (b.x - a.x, b.y - a.y, b.z - a.z)
        t = e.direction.multiple(delta)
        if t is None:
            raise DirectionViolation(e, f"displacement {delta} is off-axis")
        t = coord(t)
        if t < 0:
            raise DirectionViolation(e, f"length {t} is negative")
        lengths[e] = t
    return Honeycomb(tinkertoy, pos, lengths)


def standard_configuration(t: Tinkertoy) -> Honeycomb:
    """The defining embedding: every vertex at its own lattice point."""
    return validate_configuration(t, {v: PlanePoint(*v) for v in t.vertices})


def dual_pair(e: Edge) -> tuple:
    """The two dual-graph points separated by (the line of) an edge: its
    anchor's triangle without the point across the anchor from the edge."""
    v = e.anchor
    across = (_add(v, e.direction.step) if e.head is not None
              else _sub(v, e.direction.step))
    return tuple(p for p in triangle(v) if p != across)


class DualGraph:
    """The triangle mesh dual to a tinkertoy: one point per region."""

    def __init__(self, tinkertoy: Tinkertoy):
        self.tinkertoy = tinkertoy
        self.triangles = {v: triangle(v) for v in tinkertoy.vertices}
        self.points = frozenset(p for tri in self.triangles.values() for p in tri)
        self.dual_of = {e: dual_pair(e) for e in tinkertoy.edges}
        self.edges = frozenset(self.dual_of.values())

    def __repr__(self):
        return (f"DualGraph({len(self.points)} points, "
                f"{len(self.edges)} edges)")


def dual_graph(t: Tinkertoy) -> DualGraph:
    return DualGraph(t)
