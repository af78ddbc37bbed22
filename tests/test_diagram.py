"""Diagrams of honeycombs: canonicalization, vertex kinds, degeneracy."""

import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivecomb import (DIRECTIONS, INF, BoundaryTriple, PlanePoint,
                      SegmentOrRay, TensionViolation, build_gl_tinkertoy,
                      canonical_diagram, classify_vertex, degeneracy_graph,
                      diagram, enumerate_lattice_hives, hive_to_honeycomb,
                      standard_configuration, tension)
from hivecomb.diagram import VERTEX_KINDS
from hivecomb.errors import NotADiagram
from hivecomb.hive import exists_lattice_hive
from hivecomb.lift import largest_lift
from hivecomb.weights import boundary_grid

import diagram_reference

F = Fraction
O = PlanePoint(0, 0, 0)

ADJ = BoundaryTriple((1, 0, -1), (1, 0, -1), (1, 0, -1))


def adj_degenerate_honeycomb():
    h = next(h for h in enumerate_lattice_hives(ADJ) if h[(1, 1)] == 1)
    return hive_to_honeycomb(h)


class TestTension:
    def test_balanced(self):
        assert tension((1, 0, 1, 0, 1, 0)) == (0, 0, 0)
        assert tension((1, 1, 1, 1, 1, 1)) == (0, 0, 0)

    def test_unbalanced(self):
        assert tension((1, 0, 0, 0, 0, 0)) == (0, 1, -1)


class TestClassifyVertex:
    def test_kind_table(self):
        assert classify_vertex((1, 0, 1, 0, 1, 0)) == "Y"
        assert classify_vertex((2, 0, 2, 0, 2, 0)) == "Y"
        assert classify_vertex((0, 1, 0, 1, 0, 1)) == "inverted-Y"
        assert classify_vertex((1, 0, 1, 1, 0, 1)) == "crossing"
        assert classify_vertex((2, 0, 1, 2, 0, 1)) == "crossing"
        assert classify_vertex((1, 1, 1, 0, 2, 0)) == "rake"
        assert classify_vertex((2, 1, 1, 1, 2, 0)) == "5-valent"
        assert classify_vertex((1, 1, 1, 1, 1, 1)) == "6-valent"
        assert set(VERTEX_KINDS) >= {"Y", "inverted-Y", "crossing", "rake",
                                     "5-valent", "6-valent"}

    def test_tension_checked(self):
        with pytest.raises(TensionViolation):
            classify_vertex((1, 0, 0, 0, 0, 0))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            classify_vertex((1, 0, 1, 0, 1))
        with pytest.raises(ValueError):
            classify_vertex((-1, 0, -1, 0, -1, 0))


class TestCanonicalDiagram:
    def test_collinear_pieces_merge(self):
        pieces = [SegmentOrRay(O, DIRECTIONS["NE"], 1),
                  SegmentOrRay(PlanePoint(0, 1, -1), DIRECTIONS["NE"], INF),
                  SegmentOrRay(O, DIRECTIONS["SE"], INF),
                  SegmentOrRay(O, DIRECTIONS["W"], INF)]
        m = canonical_diagram(pieces)
        assert len(m.segments) == 3
        assert all(s.is_ray for s in m.segments)
        assert [(v.kind, v.location) for v in m.vertices] == [("Y", O)]
        assert m.type == (1, 0, 1, 0, 1, 0)

    def test_loose_end_rejected(self):
        with pytest.raises(NotADiagram) as ex:
            canonical_diagram([SegmentOrRay(O, DIRECTIONS["NE"], 1),
                               SegmentOrRay(O, DIRECTIONS["SE"], INF),
                               SegmentOrRay(O, DIRECTIONS["W"], INF)])
        assert ex.value.reason == "tension"

    def test_parallel_lines_rejected(self):
        with pytest.raises(NotADiagram) as ex:
            canonical_diagram(
                [SegmentOrRay(O, DIRECTIONS["NE"], INF),
                 SegmentOrRay(O, DIRECTIONS["SW"], INF),
                 SegmentOrRay(PlanePoint(1, -1, 0), DIRECTIONS["NE"], INF),
                 SegmentOrRay(PlanePoint(1, -1, 0), DIRECTIONS["SW"], INF)])
        assert ex.value.reason == "parallel-lines"


def outcome(canon, pieces):
    """Segments and (location, mults, kind) per vertex, or the reason and
    message of the NotADiagram raised."""
    try:
        m = canon(pieces)
    except NotADiagram as ex:
        return ex.reason, str(ex)
    return m.segments, [(v.location, v.mults, v.kind) for v in m.vertices]


def full_line(base, name):
    """Two opposite rays from base: a whole line with a breakpoint there."""
    d = DIRECTIONS[name]
    return [SegmentOrRay(base, d, INF), SegmentOrRay(base, d.opposite(), INF)]


Y_AT_O = [SegmentOrRay(O, DIRECTIONS[d], INF) for d in ("NE", "SE", "W")]


class TestCandidatePoints:
    """canonical_diagram classifies only line breakpoints and crossings of
    two measured lines; the replaced version classified every crossing."""

    def test_crossing_away_from_every_breakpoint(self):
        # the line x = 5 breaks at y = -10 and meets the W ray of the Y,
        # which breaks only at O, at (5, -5, 0)
        pieces = Y_AT_O + full_line(PlanePoint(5, -10, 5), "NE")
        m = canonical_diagram(pieces)
        p = PlanePoint(5, -5, 0)
        assert [(v.location, v.kind) for v in m.vertices] == [
            (O, "Y"), (p, "crossing")]
        assert m.vertex_at(p).mults == (1, 1, 0, 1, 1, 0)
        assert Counter(s.base for s in m.segments) == {O: 3, p: 3}
        assert outcome(canonical_diagram, pieces) == outcome(
            diagram_reference.canonical_diagram, pieces)

    def test_unmeasured_third_line(self):
        # two whole lines cross at O; the line y = 0 through O carries
        # measure only from the inverted Y at (2, 0, -2) on, away from O
        s = PlanePoint(2, 0, -2)
        pieces = (full_line(O, "NE") + full_line(O, "W")
                  + [SegmentOrRay(s, DIRECTIONS[d], INF)
                     for d in ("E", "SW", "NW")])
        m = canonical_diagram(pieces)
        assert {(v.location, v.kind) for v in m.vertices} == {
            (O, "crossing"), (s, "inverted-Y"),
            (PlanePoint(0, 2, -2), "crossing"),
            (PlanePoint(2, -2, 0), "crossing")}
        assert m.vertex_at(O).mults == (1, 1, 0, 1, 1, 0)
        assert outcome(canonical_diagram, pieces) == outcome(
            diagram_reference.canonical_diagram, pieces)


@cache
def lift_diagrams():
    rng = random.Random("lift diagrams")
    ts = [t for t in boundary_grid(3, 2, 2)
          if t.regular and exists_lattice_hive(t)]
    ts = rng.sample(ts, 4) + [BoundaryTriple((1, 0), (1, 0), (0, -2))]
    return [diagram(hive_to_honeycomb(largest_lift(t).hive)) for t in ts]


def random_bag(rng):
    """Translated copies of 1-3 lift diagrams, some with a loose end made
    by dropping, shortening or adding a piece."""
    pieces = []
    for m in rng.sample(lift_diagrams(), rng.randint(1, 3)):
        den = rng.choice((1, 1, 2))
        a, b = (F(rng.randint(-4, 4), den) for _ in range(2))
        pieces += m.translate((a, b, -a - b)).segments
    change = rng.choice(("none", "none", "drop", "shorten", "add"))
    if change == "drop":
        pieces.pop(rng.randrange(len(pieces)))
    elif change == "shorten":
        k = rng.choice([i for i, s in enumerate(pieces) if not s.is_ray])
        s = pieces[k]
        if s.length > 1:
            pieces[k] = SegmentOrRay(s.base, s.direction, s.length - 1,
                                     s.multiplicity)
    elif change == "add":
        base = rng.choice(pieces).base
        pieces.append(SegmentOrRay(base, rng.choice(list(DIRECTIONS.values())),
                                   rng.choice((1, 2, INF))))
    rng.shuffle(pieces)
    return pieces


def test_matches_reference_on_random_bags():
    rng = random.Random(15)
    seen = Counter()
    for _ in range(300):
        pieces = random_bag(rng)
        got = outcome(canonical_diagram, pieces)
        assert got == outcome(diagram_reference.canonical_diagram, pieces)
        seen[got[0] if isinstance(got[0], str) else "diagram"] += 1
    assert seen["diagram"] >= 150 and seen["tension"] >= 30, seen


class TestDiagramOfHoneycomb:
    def test_standard_gl2(self):
        m = diagram(standard_configuration(build_gl_tinkertoy(2)))
        assert Counter(v.kind for v in m.vertices) == \
            {"Y": 3, "inverted-Y": 1}
        assert sum(1 for s in m.segments if not s.is_ray) == 3
        assert sum(1 for s in m.segments if s.is_ray) == 6
        assert m.type == (2, 0, 2, 0, 2, 0)
        assert m.ray_census() == (2, 0, 2, 0, 2, 0)

    def test_degenerate_adjoint_point(self):
        m = diagram(adj_degenerate_honeycomb())
        assert Counter(v.kind for v in m.vertices) == \
            {"Y": 3, "6-valent": 1}
        center = m.vertex_at(O)
        assert center.kind == "6-valent"
        assert center.mults == tuple(F(1) for _ in range(6))
        assert sum(1 for s in m.segments if not s.is_ray) == 3

    def test_translate_and_equality(self):
        m = diagram(standard_configuration(build_gl_tinkertoy(2)))
        moved = m.translate((1, -2, 1))
        assert moved != m
        assert moved.translate((-1, 2, -1)) == m
        assert moved.vertex_at(PlanePoint(2, -3, 1)) is not None


class TestDegeneracyGraph:
    def test_nondegenerate_has_singleton_regions(self):
        h = standard_configuration(build_gl_tinkertoy(2))
        g = degeneracy_graph(h)
        assert len(g.regions) == 4 and len(g.dropped_edges) == 0
        assert all(len(r.members) == 1 for r in g.regions)

    def test_collapsed_hexagon_region(self):
        g = degeneracy_graph(adj_degenerate_honeycomb())
        assert Counter(r.kind for r in g.regions) == {"Y": 3, "6-valent": 1}
        assert (len(g.kept_edges), len(g.dropped_edges)) == (12, 6)
        big = max(g.regions, key=lambda r: len(r.members))
        assert len(big.members) == 6
        assert big.census == (1, 1, 1, 1, 1, 1)
        assert big.location == O
        for r in g.regions:
            for v in r.members:
                assert g.region_of[v] == g.regions.index(r)


@given(st.permutations([0, 1, 2, 3, 4, 5]), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_tension_is_permutation_sensitive_but_balanced_when_opposite(perm, m):
    # any multiset placed symmetrically on opposite rays balances
    mults = [0] * 6
    mults[perm[0]] = m
    mults[(perm[0] + 3) % 6] = m
    assert tension(mults) == (0, 0, 0)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_y_censuses_always_balance(a, b, c):
    mults = (a, 0, b, 0, c, 0)
    t = tension(mults)
    assert (t == (0, 0, 0)) == (a == b == c)
