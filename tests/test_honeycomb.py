"""Tinkertoys and their configurations: axioms, duals, boundary readings."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivecomb import (DIRECTIONS, BoundaryTriple, DirectionViolation, Edge,
                      PlanePoint, Tinkertoy, TypeDoesNotClose,
                      build_gl_tinkertoy, build_tinkertoy_from_type,
                      dual_graph, standard_configuration,
                      validate_configuration)
from hivecomb.honeycomb import (Partition, dual_pair, dual_polygon,
                                dual_sides, is_head, is_lattice_vertex,
                                is_root_point, is_tail, tinkertoy_size,
                                triangle)

F = Fraction

TRIPOD = ((1, -1, 0),)


class TestLatticePredicates:
    def test_classes_partition(self):
        # 3 | 2i+j splits points into roots, tails (heads is the rest)
        assert is_root_point((0, 0, 0)) and not is_lattice_vertex((0, 0, 0))
        assert is_tail((-1, 1, 0)) and is_head((1, -1, 0))
        assert is_lattice_vertex((1, -1, 0))
        for p in [(1, -1, 0), (-1, 1, 0), (0, 0, 0)]:
            assert is_root_point(p) + is_head(p) + is_tail(p) == 1

    def test_triangle_points(self):
        tri = triangle((1, -1, 0))
        assert len(tri) == 3
        assert all(is_root_point(q) for q in tri)


class TestEdge:
    def test_needs_an_end(self):
        with pytest.raises(ValueError):
            Edge(None, None, DIRECTIONS["NE"])

    def test_head_must_be_one_step(self):
        with pytest.raises(ValueError):
            Edge((-1, 1, 0), (1, -1, 0), DIRECTIONS["NE"])

    def test_ray_direction(self):
        e = Edge(None, (1, -1, 0), DIRECTIONS["NE"])
        assert e.is_boundary and e.anchor == (1, -1, 0)
        assert e.ray_direction is DIRECTIONS["SW"]


class TestTinkertoy:
    def test_gl_sizes(self):
        for n in (1, 2, 3, 4):
            t = build_gl_tinkertoy(n)
            assert len(t.vertices) == n * n
            assert t.type == (n, 0, n, 0, n, 0)
            assert len(t.boundary_edges) == 3 * n

    def test_gl1_is_the_tripod(self):
        assert build_gl_tinkertoy(1).vertices == frozenset(TRIPOD)

    def test_gl3_has_one_hexagon(self):
        assert build_gl_tinkertoy(2).hexagons == ()
        assert build_gl_tinkertoy(3).hexagons == ((3, -3, 0),)
        assert len(build_gl_tinkertoy(4).hexagons) == 3

    def test_edge_counts(self):
        t = build_gl_tinkertoy(3)
        assert len(t.finite_edges) == 9
        assert all(not e.is_boundary for e in t.finite_edges)

    def test_connectedness_required(self):
        far = (1 - 9, -1 + 9, 0)
        with pytest.raises(ValueError):
            Tinkertoy([(1, -1, 0), far])

    def test_hexagon_closure_required(self):
        ring = [q for q in triangle_ring()]
        with pytest.raises(ValueError):
            Tinkertoy(ring[:-1])
        Tinkertoy(ring)

    def test_translation_stays_on_root_lattice(self):
        t = build_gl_tinkertoy(1)
        moved = t.translate((2, -1, -1))
        assert moved.vertices == frozenset({(3, -2, -1)})
        with pytest.raises(ValueError):
            t.translate((0, 1, -1))

    def test_from_type(self):
        t = build_tinkertoy_from_type((1, 0, 1, 0, 1, 0))
        assert len(t.vertices) == 1
        u = build_tinkertoy_from_type((1, 1, 1, 1, 1, 1))
        assert len(u.vertices) == 6 and len(u.hexagons) == 1

    def test_from_type_requires_balance(self):
        with pytest.raises(TypeDoesNotClose):
            build_tinkertoy_from_type((1, 0, 0, 0, 0, 0))
        with pytest.raises(TypeDoesNotClose):
            tinkertoy_size((1, 0, 0, 0, 0, 0))

    def test_size_without_building(self):
        assert [tinkertoy_size(c) for c in (
            (1, 0, 1, 0, 1, 0), (2, 0, 2, 0, 2, 0), (3, 0, 3, 0, 3, 0),
            (2, 1, 2, 1, 2, 1))] == [1, 4, 9, 13]
        closing = 0
        for census in itertools.product(range(3), repeat=6):
            try:
                size = tinkertoy_size(census)
            except TypeDoesNotClose:
                continue
            closing += 1
            assert size == len(build_tinkertoy_from_type(census).vertices)
        assert closing == 38


def triangle_ring():
    """The six vertices around the root point (3, -3, 0)."""
    root = (3, -3, 0)
    steps = [(0, 1, -1), (0, -1, 1), (1, 0, -1), (-1, 0, 1), (-1, 1, 0),
             (1, -1, 0)]
    return [tuple(root[i] + s[i] for i in range(3)) for s in steps]


class TestConfigurations:
    def test_standard_boundary_readings(self):
        h2 = standard_configuration(build_gl_tinkertoy(2))
        assert h2.boundary_conditions() == \
            BoundaryTriple((3, 1), (-1, -3), (1, -1))
        h3 = standard_configuration(build_gl_tinkertoy(3))
        assert h3.boundary_conditions() == \
            BoundaryTriple((5, 3, 1), (-1, -3, -5), (2, 0, -2))

    def test_standard_is_nondegenerate_lattice(self):
        h = standard_configuration(build_gl_tinkertoy(3))
        assert h.is_lattice and h.is_nondegenerate
        assert h.degenerate_vertices == frozenset()

    def test_off_axis_rejected(self):
        t = build_gl_tinkertoy(2)
        pos = {v: PlanePoint(*v) for v in t.vertices}
        victim = next(iter(pos))
        pos[victim] = pos[victim].translate((1, -1, 0))
        with pytest.raises(DirectionViolation):
            validate_configuration(t, pos)

    def test_negative_length_rejected(self):
        t = build_gl_tinkertoy(2)
        e = t.finite_edges[0]
        pos = {v: PlanePoint(*v) for v in t.vertices}
        pos[e.head] = pos[e.head].translate(
            tuple(-2 * c for c in e.direction.step))
        with pytest.raises(DirectionViolation):
            validate_configuration(t, pos)

    def test_translation_preserves_lengths(self):
        h = standard_configuration(build_gl_tinkertoy(2))
        moved = h.translate((F(1, 3), F(1, 3), F(-2, 3)))
        assert not moved.is_lattice
        for e in h.tinkertoy.finite_edges:
            assert moved.edge_length(e) == h.edge_length(e)


class TestDualGraph:
    def test_gl2_counts(self):
        d = dual_graph(build_gl_tinkertoy(2))
        assert len(d.points) == 6 and len(d.edges) == 9

    def test_dual_pairs_share_an_edge(self):
        t = build_gl_tinkertoy(3)
        d = dual_graph(t)
        for e in t.finite_edges:
            a, b = dual_pair(e)
            diff = tuple(x - y for x, y in zip(a, b))
            assert sum(c * c for c in diff) == 6
            assert frozenset({a, b}) not in (frozenset(),)
            assert (a, b) in d.dual_of.values()

    def test_triangles_tile_points(self):
        t = build_gl_tinkertoy(2)
        d = dual_graph(t)
        assert {p for tri in d.triangles.values() for p in tri} == d.points

    def test_dual_sides_close_around_the_polygon(self):
        census = (2, 1, 0, 3, 0, 1)
        sides = dual_sides(census)
        assert list(sides) == [0, 5, 3, 1]  # counterclockwise, nonzero only
        starts = [a for a, _ in sides.values()]
        ends = [b for _, b in sides.values()]
        assert ends == starts[1:] + starts[:1]
        assert tuple(starts) == dual_polygon(census)


class TestPartition:
    def test_union_reports_new_joins(self):
        p = Partition("abcde")
        assert p.union("a", "b") and p.union("c", "b")
        assert not p.union("a", "c")
        assert p.find("a") == p.find("c") != p.find("d")
        assert p.classes() == [{"a", "b", "c"}, {"d"}, {"e"}]


@given(st.integers(1, 4))
@settings(max_examples=4, deadline=None)
def test_gl_tinkertoy_roundtrips_through_type(n):
    t = build_gl_tinkertoy(n)
    assert build_tinkertoy_from_type(t.type).type == t.type


@given(st.integers(1, 3), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=30, deadline=None)
def test_boundary_reading_is_translation_covariant(n, a, b):
    h = standard_configuration(build_gl_tinkertoy(n))
    t = h.boundary_conditions()
    moved = h.translate((a, b, -a - b)).boundary_conditions()
    assert moved.lam == tuple(x + a for x in t.lam)
    assert moved.mu == tuple(x + b for x in t.mu)
    assert moved.nu == tuple(x - a - b for x in t.nu)
