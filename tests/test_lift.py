"""Weighted-perimeter lifts: weights, inflation, molts, and the LP driver."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivecomb import (BoundaryTriple, DegenerateOptimum, HasCycle, Hive,
                      Infeasible, InflationVector, NotDegenerate,
                      NotSimplyDegenerate, ObjectiveVector, RhombusViolation,
                      WeightFunction, diagram, dominant_vectors, elide,
                      enumerate_lattice_hives, find_nonintegral_vertex,
                      forest_solve, hive_indices, hive_to_honeycomb, inflate,
                      inflation_vector, largest_lift, lp_maximize,
                      make_weight_function, max_inflation, molt_regions,
                      wperim, wperim_objective)
from hivecomb.diagram import classify_vertex
from hivecomb.hive import HiveShape, exists_lattice_hive, root_of
from hivecomb.oracles import enumerate_polytope_vertices
from hivecomb.plane import PlanePoint
from hivecomb.reconstruct import HalfEdge, PostElisionGraph
from hivecomb import lift as lift_module
from hivecomb.cli import lift_report_to_json
from hivecomb.lift import _lp_rows, _vertices, basis_table
from hivecomb.weights import boundary_grid
from hivecomb.errors import Unbounded
from hivecomb.simplex import LPSolution, _gauss_jordan, _integral, maximize
from test_simplex import _random_lp
from vertex_reference import dense_vertices

F = Fraction

ADJ = BoundaryTriple((1, 0, -1), (1, 0, -1), (1, 0, -1))
GL2 = BoundaryTriple((1, 0), (1, 0), (0, -2))
W3 = make_weight_function(3, seed=0)


def adj_hives():
    hs = enumerate_lattice_hives(ADJ)
    low = next(h for h in hs if h[(1, 1)] == 1)
    high = next(h for h in hs if h[(1, 1)] == 2)
    return low, high


def entries(h):
    return [h[p] for p in hive_indices(h.n)]


def mix(a, b, lam):
    """Convex combination of two hives over the same boundary."""
    return Hive(a.n, [(1 - lam) * a[p] + lam * b[p] for p in hive_indices(a.n)])


def feasible_boundary(n, rng, bound=6):
    """A seeded boundary triple whose hive polytope is not empty."""
    while True:
        lam, mu = (tuple(sorted((rng.randint(-bound, bound) for _ in range(n)),
                                reverse=True)) for _ in range(2))
        nus = dominant_vectors(n, -2 * bound, 2 * bound,
                               -(sum(lam) + sum(mu)))
        if nus:
            t = BoundaryTriple(lam, mu, rng.choice(nus))
            if exists_lattice_hive(t):
                return t


def probe_ties(c, rows):
    """(index, low, high) for each variable free on the optimal face of
    max c.x over rows, by solving for both extremes."""
    face = rows + [(c, -maximize(c, rows).value)]
    ties = []
    for i in range(len(c)):
        unit = [0] * len(c)
        unit[i] = 1
        hi = maximize(unit, face).value
        unit[i] = -1
        lo = -maximize(unit, face).value
        if lo != hi:
            ties.append((i, lo, hi))
    return tuple(ties)


def reference_ties(objective, t):
    """Entries free on the optimal face, by solving for both extremes."""
    inter, _, rows = _lp_rows(t)
    return tuple((inter[i], lo, hi) for i, lo, hi in
                 probe_ties([objective.coeffs[p] for p in inter], rows))


def along_face(c, rows, x, d):
    """d is a direction along the optimal face at x, exactly: c.d = 0, and x
    + eps d satisfies every row for eps the least slack_i / -(A_i.d) over
    the rows with A_i.d < 0, which is positive (1 when there is none)."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    eps = min((F(dot(coef, x) + const) / -dot(coef, d)
               for coef, const in rows if dot(coef, d) < 0), default=F(1))
    y = [a + eps * b for a, b in zip(x, d)]
    return (any(d) and eps > 0 and dot(c, d) == 0
            and all(dot(coef, y) + const >= 0 for coef, const in rows))


def lp_along_face(ov, t, out):
    """along_face for an lp_maximize outcome over the interior entries."""
    inter, _, rows = _lp_rows(t)
    return along_face([ov.coeffs[p] for p in inter], rows,
                      [out.hive[p] for p in inter], out.direction)


class FakeVertex:
    def __init__(self, census):
        self.mults = tuple(F(x) for x in census)
        self.kind = classify_vertex(census)


class TestWeightFunction:
    def test_no_hexagons_below_three(self):
        for n in (1, 2):
            w = make_weight_function(n)
            assert w.values == {}
            assert w((0, 0)) == 0

    def test_frozen_values(self):
        assert W3((1, 1)) == F(93293, 1024)
        assert make_weight_function(3, seed=1)((1, 1)) == F(46899, 512)
        w5 = make_weight_function(5, seed=0)
        assert w5((1, 1)) == F(400803, 1024)
        assert w5((2, 2)) == F(13667, 32)

    def test_built_once_per_seed(self):
        # shared objects, equal to freshly built ones
        for n, seed in ((3, 0), (4, 7), (5, "x")):
            w = make_weight_function(n, seed)
            assert make_weight_function(n, seed) is w
            fresh = make_weight_function.__wrapped__(n, seed)
            assert (w.values, w.seed) == (fresh.values, fresh.seed)
            ov = wperim_objective(w)
            assert wperim_objective(w) is ov
            assert ov.coeffs == wperim_objective.__wrapped__(fresh).coeffs

    def test_seeds_differ(self):
        assert make_weight_function(4, seed=0).values != \
            make_weight_function(4, seed=1).values

    def test_off_hexagon_is_zero(self):
        assert W3((0, 0)) == 0
        assert W3((3, 0)) == 0
        assert isinstance(W3((0, 0)), Fraction)

    def test_superharmonic_margin(self):
        for n in (3, 4, 5):
            w = make_weight_function(n, seed=7)
            for p in HiveShape(n).interior():
                i, j = p
                nbrs = [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1),
                        (i + 1, j - 1), (i - 1, j + 1)]
                assert 6 * w(p) > sum(w(q) for q in nbrs)
                assert w(p) > 0

    def test_unperturbed_laplacian_margin(self):
        # With w0 = M - |root|^2, an entry whose six neighbours are all
        # hexagons has 6*w0(p) - sum w0(q) = sum |step|^2 = 6 * 6 = 36.
        n = 6
        sq = {p: sum(x * x for x in root_of(n, *p))
              for p in HiveShape(n).interior()}
        m = 1 + 6 * max(sq.values())
        p = (2, 2)
        nbrs = [(3, 2), (1, 2), (2, 3), (2, 1), (3, 1), (1, 3)]
        assert all(q in sq for q in nbrs)
        assert 6 * (m - sq[p]) - sum(m - sq[q] for q in nbrs) == 36

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            WeightFunction(3, {})
        with pytest.raises(ValueError):
            WeightFunction(3, {(1, 1): F(-1)})
        with pytest.raises(ValueError):
            WeightFunction(4, {(1, 1): F(1), (2, 1): F(7), (1, 2): F(1)})

    def test_rejects_extra_entries(self):
        with pytest.raises(ValueError):
            WeightFunction(3, {(1, 1): F(5), (0, 0): F(1)})


class TestObjective:
    def test_interior_coefficients_positive(self):
        for n in (2, 3, 4, 5):
            ov = wperim_objective(make_weight_function(n, seed=3))
            for p in HiveShape(n).interior():
                assert ov.coeffs[p] > 0

    def test_zero_hive(self):
        z = Hive(3, [0] * 10)
        ov = wperim_objective(W3)
        assert ov.value(z) == 0
        assert wperim(W3, z) == 0

    def test_two_paths_agree_on_adjoint(self):
        low, high = adj_hives()
        ov = wperim_objective(W3)
        assert wperim(W3, low) == ov.value(low) == 0
        assert wperim(W3, high) == ov.value(high) == F(279879, 512)
        assert ov.coeffs[(1, 1)] == F(279879, 512)

    def test_two_paths_agree_randomly(self):
        rng = random.Random(5)
        low, high = adj_hives()
        ov = wperim_objective(W3)
        for _ in range(20):
            lam = F(rng.randint(0, 64), 64)
            h = mix(low, high, lam)
            assert wperim(W3, h) == ov.value(h)

    def test_inflation_derivative(self):
        # Growing the hexagon at p adds exactly eps * (6w(p) - sum w(q)).
        low, _ = adj_hives()
        ov = wperim_objective(W3)
        iv = inflation_vector(3, (1, 1))
        eps = F(1, 3)
        gain = ov.value(inflate(low, iv, eps)) - ov.value(low)
        assert gain == eps * ov.coeffs[(1, 1)] == F(93293, 512)


class TestInflation:
    def test_vector_support(self):
        iv = inflation_vector(3, (1, 1))
        assert iv.amount((1, 1)) == 1
        assert iv.amount((0, 1)) == 0
        two = iv + iv
        assert two.amount((1, 1)) == 2

    def test_vector_rejects_boundary(self):
        with pytest.raises(ValueError):
            inflation_vector(3, (0, 0))
        with pytest.raises(ValueError):
            inflation_vector(3, (2, 5))

    def test_adjoint_molt_step(self):
        low, high = adj_hives()
        iv = inflation_vector(3, (1, 1))
        assert max_inflation(low, iv) == 1
        assert entries(inflate(low, iv, 1)) == entries(high)
        with pytest.raises(RhombusViolation):
            inflate(low, iv, 2)

    def test_max_inflation_requires_motion(self):
        low, _ = adj_hives()
        still = InflationVector(3, ())
        with pytest.raises(ValueError):
            max_inflation(low, still)

    def test_inflate_accepts_entry_or_iterable(self):
        low, high = adj_hives()
        assert entries(inflate(low, (1, 1), 1)) == entries(high)
        assert entries(inflate(low, [(1, 1)], 1)) == entries(high)


class TestMolt:
    def test_unit_six_valent(self):
        assert molt_regions(3, FakeVertex((1, 1, 1, 1, 1, 1))) == \
            frozenset({(1, -2, 1)})

    def test_double_y(self):
        assert molt_regions(3, FakeVertex((2, 0, 2, 0, 2, 0))) == \
            frozenset({(1, -2, 1), (3, -3, 0)})

    def test_double_inverted_y(self):
        assert molt_regions(3, FakeVertex((0, 2, 0, 2, 0, 2))) == \
            frozenset({(0, -3, 3), (1, -2, 1)})

    def test_crossing_thick_thin(self):
        assert molt_regions(3, FakeVertex((2, 0, 1, 2, 0, 1))) == \
            frozenset({(2, -1, -1), (3, -3, 0)})

    def test_rake(self):
        assert molt_regions(4, FakeVertex((1, 1, 1, 0, 2, 0))) == \
            frozenset({(1, -2, 1)})

    def test_five_valent(self):
        assert molt_regions(4, FakeVertex((2, 1, 1, 1, 2, 0))) == \
            frozenset({(1, -2, 1), (2, -1, -1)})

    def test_triple_y_marks_hexagons_and_two_sides(self):
        # One bounded hexagon plus two non-corner points on each of the two
        # designated sides of the triangular patch.
        got = molt_regions(4, FakeVertex((3, 0, 3, 0, 3, 0)))
        assert got == frozenset({(1, -2, 1), (2, -4, 2), (3, -3, 0),
                                 (4, -5, 1), (5, -4, -1)})

    def test_simple_vertices_do_not_molt(self):
        for census in [(1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1),
                       (1, 0, 1, 1, 0, 1)]:
            with pytest.raises(NotDegenerate):
                molt_regions(3, FakeVertex(census))

    def test_fractional_multiplicities_rejected(self):
        v = FakeVertex((1, 0, 1, 0, 1, 0))
        v.mults = (F(3, 2), F(0), F(3, 2), F(0), F(3, 2), F(0))
        with pytest.raises(ValueError):
            molt_regions(3, v)

    def test_adjoint_vertex_molts_to_single_hexagon(self):
        low, _ = adj_hives()
        dg = diagram(hive_to_honeycomb(low))
        v6 = next(v for v in dg.vertices if v.kind == "6-valent")
        assert v6.mults == tuple(F(1) for _ in range(6))
        assert molt_regions(3, v6) == frozenset({(1, -2, 1)})


class TestLP:
    def test_unique_point_gl2(self):
        ov = wperim_objective(make_weight_function(2))
        out = lp_maximize(ov, GL2)
        assert out.unique and out.direction is None
        assert entries(out.hive) == [0, 1, 2, 1, 2, 2]

    def test_infeasible(self):
        bad = BoundaryTriple((1, 0), (1, 0), (1, -3))
        with pytest.raises(Infeasible):
            lp_maximize(wperim_objective(make_weight_function(2)), bad)
        with pytest.raises(Infeasible):
            largest_lift(bad)

    def test_zero_objective_reports_slack(self):
        z = ObjectiveVector(3, {p: F(0) for p in hive_indices(3)})
        out = lp_maximize(z, ADJ)
        assert out.value == 0
        assert not out.unique
        # the simplex stops at (1, 1) = 1; the face runs up to 2
        assert out.hive[(1, 1)] == 1 and out.direction[0] > 0
        assert lp_along_face(z, ADJ, out)

    def test_inconclusive_certificate_solves_twice(self, monkeypatch):
        calls = []

        def counted(c, rows):
            calls.append(len(c))
            return maximize(c, rows)

        monkeypatch.setattr(lift_module, "maximize", counted)
        basis_table.cache_clear()
        t5 = BoundaryTriple((4, 3, 2, 1, 0), (4, 3, 2, 1, 0),
                            (0, -2, -4, -6, -8))
        for t, tied in ((ADJ, True), (t5, False)):
            zero = ObjectiveVector(t.n, {p: F(0) for p in hive_indices(t.n)})
            calls.clear()
            out = lp_maximize(zero, t)
            assert not out.certificate.unique and out.unique != tied
            # the optimum and one uniqueness LP, where 2K probes ran
            assert calls == [len(out.certificate.x)] * 2

    def test_ties_match_reference_probe(self):
        rng = random.Random(23)
        cases = [(ObjectiveVector(3, {p: F(0) for p in hive_indices(3)}),
                  ADJ)]
        for n in (2, 3, 4, 5):
            for seed in range(3):
                cases.append((wperim_objective(make_weight_function(n, seed)),
                              feasible_boundary(n, rng)))
        # one entry's height alone: raising (1, 1) ends at a degenerate
        # vertex the tableau cannot certify, lowering it ends on an edge
        t4 = BoundaryTriple((4, 2, 1, 0), (3, 2, 1, 0), (-1, -3, -4, -5))
        for sign in (1, -1):
            cases.append((ObjectiveVector(4, {p: F(sign * (p == (1, 1)))
                                              for p in hive_indices(4)}),
                          t4))
        untied = 0
        for ov, t in cases:
            out = lp_maximize(ov, t)
            assert out.unique == (reference_ties(ov, t) == ()), t
            assert out.unique or lp_along_face(ov, t, out), t
            untied += out.unique
        assert 0 < untied < len(cases)
        # bounded random LPs of full column rank, by _face_direction itself
        seen = {"certified": 0, "inconclusive, unique": 0, "tied": 0}
        for _ in range(2000):
            c, rows = _random_lp(rng)
            k = len(c)
            if len(_gauss_jordan([_integral(list(coef)) for coef, _ in rows],
                                 range(k))) < k:
                continue
            try:
                sol = maximize(c, rows)
                ref = probe_ties(c, rows)
            except (Infeasible, Unbounded):
                continue
            if sol.unique:
                assert ref == (), (c, rows)
                seen["certified"] += 1
                continue
            d = lift_module._face_direction(c, rows, sol.x)
            assert (d is None) == (ref == ()), (c, rows)
            assert d is None or along_face(c, rows, sol.x, d), (c, rows)
            seen["inconclusive, unique" if d is None else "tied"] += 1
        assert sum(seen.values()) >= 500 and min(seen.values()) > 0, seen

    def test_matches_vertex_enumeration(self):
        rng = random.Random(9)
        ov = wperim_objective(make_weight_function(3, seed=2))
        checked = 0
        while checked < 6:
            lam = tuple(sorted((rng.randint(-4, 4) for _ in range(3)),
                               reverse=True))
            mu = tuple(sorted((rng.randint(-4, 4) for _ in range(3)),
                              reverse=True))
            nus = dominant_vectors(3, -12, 12, -(sum(lam) + sum(mu)))
            if not nus:
                continue
            t = BoundaryTriple(lam, mu, rng.choice(nus))
            if not exists_lattice_hive(t):
                continue
            out = lp_maximize(ov, t)
            verts = enumerate_polytope_vertices(t)
            assert out.value == max(ov.value(h) for h in verts)
            if out.unique:
                assert any(entries(h) == entries(out.hive) for h in verts)
            checked += 1


class TestLargestLift:
    def test_adjoint(self):
        rep = largest_lift(ADJ)
        assert rep.hive[(1, 1)] == 2
        assert rep.vertex_kinds == {"Y": 3, "crossing": 3}
        assert rep.max_multiplicity == 1
        assert rep.acyclic is True
        assert rep.integral is True
        assert rep.retries == 0
        assert rep.objective_value == F(279879, 512)
        assert len(rep.forest.nodes) == 3 and len(rep.forest.edges) == 0

    def test_generic_lift_solves_once(self, monkeypatch):
        calls = []

        def counted(c, rows):
            calls.append(len(c))
            return maximize(c, rows)

        monkeypatch.setattr(lift_module, "maximize", counted)
        basis_table.cache_clear()
        t = feasible_boundary(5, random.Random(5))
        rep = largest_lift(t)
        assert rep.retries == 0
        assert calls == [6]
        # the second lift over t is answered by the basis the first proved
        again = largest_lift(t)
        assert calls == [6]
        assert again.hive == rep.hive and again.retries == 0
        assert again.objective_value == rep.objective_value
        assert basis_table.cache_info().hits == 1

    def test_fractional_multiplicity_raises(self, monkeypatch):
        """The self-check on the diagram survives python -O."""
        half = type("Segment", (), {"multiplicity": F(1, 2)})
        fake = type("Diagram", (), {"vertices": [], "segments": [half]})
        monkeypatch.setattr(lift_module, "diagram", lambda h: fake)
        with pytest.raises(RuntimeError, match="multiplicity 1/2"):
            largest_lift(ADJ)

    def test_tie_retries_with_a_new_seed(self, monkeypatch, caplog):
        solve = lift_module.lp_maximize
        calls = []

        def tied_once(objective, t):
            calls.append(objective)
            out = solve(objective, t)
            if len(calls) == 1:
                out = dataclasses.replace(out, direction=(F(1),))
            return out

        monkeypatch.setattr(lift_module, "lp_maximize", tied_once)
        with caplog.at_level("WARNING", logger="hivecomb.lift"):
            rep = largest_lift(ADJ)
        assert rep.retries == 1 and len(calls) == 2
        assert rep.weight.seed == "0:retry1"
        assert any(r.levelname == "WARNING" and "retry 1" in r.getMessage()
                   for r in caplog.records)

    def test_ties_every_time_raise_with_witness(self, monkeypatch):
        solve = lift_module.lp_maximize
        monkeypatch.setattr(
            lift_module, "lp_maximize",
            lambda objective, t: dataclasses.replace(solve(objective, t),
                                                     direction=(F(1),)))
        with pytest.raises(DegenerateOptimum) as got:
            largest_lift(ADJ, max_retries=0)
        assert got.value.witness == (F(1),)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            largest_lift(ADJ, max_retries=-1)
        assert largest_lift(ADJ, max_retries=0).retries == 0

    def test_gl2(self):
        rep = largest_lift(GL2)
        assert entries(rep.hive) == [0, 1, 2, 1, 2, 2]
        assert rep.vertex_kinds == {"Y": 2, "crossing": 1}
        assert rep.max_multiplicity == 1 and rep.acyclic is True

    def test_scaling_equivariance(self):
        base = largest_lift(GL2)
        for k in (2, 5):
            rep = largest_lift(GL2.scaled(k))
            assert entries(rep.hive) == [k * x for x in entries(base.hive)]

    def test_nonregular_boundary_still_lifts(self):
        t = BoundaryTriple((1, 1, 0), (1, 0, -1), (0, -1, -1))
        assert not t.regular
        rep = largest_lift(t)
        assert "6-valent" not in rep.vertex_kinds
        assert rep.integral

    def test_random_regular_boundaries(self):
        rng = random.Random(11)
        done = 0
        while done < 8:
            n = rng.choice((2, 3, 4))
            lam = tuple(sorted(rng.sample(range(-5, 6), n), reverse=True))
            mu = tuple(sorted(rng.sample(range(-5, 6), n), reverse=True))
            nus = [v for v in dominant_vectors(n, -15, 15,
                                               -(sum(lam) + sum(mu)))
                   if len(set(v)) == n]
            if not nus:
                continue
            t = BoundaryTriple(lam, mu, rng.choice(nus))
            if not exists_lattice_hive(t):
                continue
            rep = largest_lift(t)
            assert "6-valent" not in rep.vertex_kinds
            assert rep.max_multiplicity == 1
            assert rep.acyclic is True
            assert rep.integral and rep.retries == 0
            sol = forest_solve(t, rep.forest)
            for e, c in sol.items():
                axis = e.direction.constant_axis
                assert rep.forest.nodes[e.a].location[axis] == c
            done += 1

    def test_no_float_leaks(self):
        # every coordinate, length and multiplicity of the honeycomb, its
        # diagram and the post-elision forest is an int when integral and a
        # Fraction otherwise; the rational boundary exercises the Fractions
        def exact(v):
            return (type(v) is int
                    or (type(v) is Fraction and v.denominator != 1))

        def point(p):
            return all(exact(c) for c in p.coords())

        rng = random.Random(17)
        reps = []
        for n in (3, 4, 5):
            t = feasible_boundary(n, rng)
            while not t.regular:
                t = feasible_boundary(n, rng)
            reps.append(largest_lift(t))
        half = BoundaryTriple((F(3, 2), F(1, 2), 0), (1, F(1, 2), 0),
                              (F(-1, 2), -1, -2))
        reps.append(largest_lift(half))
        fractions = 0
        for rep in reps:
            h = hive_to_honeycomb(rep.hive)
            assert all(point(h.position(v)) for v in h.tinkertoy.vertices)
            assert all(exact(h.edge_length(e))
                       for e in h.tinkertoy.finite_edges)
            dg = diagram(h)
            for s in dg.segments:
                assert point(s.base) and exact(s.multiplicity)
                assert s.is_ray or exact(s.length)
            for v in dg.vertices + rep.forest.nodes:
                assert point(v.location) and all(exact(m) for m in v.mults)
            assert all(exact(e.length) for e in rep.forest.edges)
            assert all(exact(he.constant) for he in rep.forest.half_edges)
            fractions += sum(type(c) is Fraction for s in dg.segments
                             for c in s.base.coords())
        assert fractions > 0
        with pytest.raises(TypeError):
            PlanePoint(0.5, -0.5, 0)


def simplex_outcome(ov, t):
    """lp_maximize's hive, value and uniqueness, by the simplex alone."""
    inter, bvals, rows = _lp_rows(t)
    sol = maximize([ov.coeffs[p] for p in inter], rows)
    at = {**bvals, **dict(zip(inter, sol.x))}
    hive = Hive(t.n, [at[p] for p in hive_indices(t.n)])
    return hive, ov.value(hive), sol.unique or reference_ties(ov, t) == ()


def certificate_holds(ov, t, out):
    """u >= 0, zero on every slack row, and sum u_i a_i = -c, exactly."""
    inter, _, rows = _lp_rows(t)
    x, u = out.certificate.x, out.certificate.multipliers
    if len(u) != len(rows) or list(x) != [out.hive[p] for p in inter]:
        return False
    for ui, (coef, const) in zip(u, rows):
        slack = sum(a * b for a, b in zip(coef, x)) + const
        if ui < 0 or slack < 0 or (ui and slack):
            return False
    return all(sum(ui * coef[j] for ui, (coef, _) in zip(u, rows))
               == -ov.coeffs[p] for j, p in enumerate(inter))


def det(m):
    """Laplace expansion, exact for the small matrices here."""
    if not m:
        return 1
    return sum((-1) ** j * a * det([r[:j] + r[j + 1:] for r in m[1:]])
               for j, a in enumerate(m[0]) if a)


def dual_feasible_bases(ov):
    """Every nonsingular k-subset B of the rhombus rows with multipliers
    u > 0 solving A_B^T u = -c (Cramer's rule), with its determinant."""
    n = ov.n
    zero = (0,) * n
    inter, _, rows = _lp_rows(BoundaryTriple(zero, zero, zero))
    c = [ov.coeffs[p] for p in inter]
    found = {}
    for sub in itertools.combinations(range(len(rows)), len(c)):
        at = [list(col) for col in zip(*[rows[r][0] for r in sub])]
        d = det(at)
        if d and all(det([row[:r] + [-cj] + row[r + 1:]
                          for row, cj in zip(at, c)]) * d > 0
                     for r in range(len(c))):
            found[sub] = d
    return found


class TestBasisTable:
    def test_full_scan_at_small_n(self):
        """The bases that can be optimal are 3 and 25 at n = 3, 4, all
        unimodular: every optimal vertex over an integral boundary is
        integral, chamber by chamber.  Every basis the table proves is
        one of them."""
        rng = random.Random(31)
        for n, size in ((3, 3), (4, 25)):
            ov = wperim_objective(make_weight_function(n))
            found = dual_feasible_bases(ov)
            assert len(found) == size
            assert {abs(d) for d in found.values()} == {1}
            basis_table.cache_clear()
            for _ in range(30):
                out = lp_maximize(ov, feasible_boundary(n, rng))
                if out.certificate.unique:
                    u = out.certificate.multipliers
                    assert tuple(r for r, v in enumerate(u) if v) in found
            assert 0 < basis_table.cache_info().bases[0] <= size

    def test_answers_match_simplex(self):
        basis_table.cache_clear()
        rng = random.Random(37)
        ts = [feasible_boundary(n, rng) for n in (2, 3, 4, 5)
              for _ in range(8)]
        hits = {}
        for seed in (0, 1):
            for t in ts + ts[::2]:
                ov = wperim_objective(make_weight_function(t.n, seed))
                before = basis_table.cache_info().hits
                out = lp_maximize(ov, t)
                assert (out.hive, out.value, out.unique) == \
                    simplex_outcome(ov, t), t
                if basis_table.cache_info().hits > before:
                    assert out.unique and certificate_holds(ov, t, out), t
                    hits[t.n] = hits.get(t.n, 0) + 1
        assert sorted(hits) == [2, 3, 4, 5]

    def test_fallthroughs_answer_as_before(self):
        basis_table.cache_clear()
        ov2 = wperim_objective(make_weight_function(2))
        ov3 = wperim_objective(make_weight_function(3))
        # each key now holds a basis, so each case below reaches the guard
        lp_maximize(ov2, GL2)
        lp_maximize(ov3, ADJ)
        half = BoundaryTriple((F(3, 2), F(1, 2), 0), (1, F(1, 2), 0),
                              (F(-1, 2), -1, -2))
        for ov, t, why in ((ov3, half, "nonintegral"),
                           (ov2, GL2.scaled(2 ** 40), "range"),
                           (ov3, ADJ.twisted(2 ** 70, 5), "range")):
            before = basis_table.cache_info()
            out = lp_maximize(ov, t)
            after = basis_table.cache_info()
            assert after.fallthroughs[why] == before.fallthroughs[why] + 1
            assert (after.hits, after.misses) == (before.hits, before.misses)
            assert (out.hive, out.value, out.unique) == simplex_outcome(ov, t)
        big = largest_lift(GL2.scaled(2 ** 40))
        assert entries(big.hive) == [2 ** 40 * x for x in (0, 1, 2, 1, 2, 2)]

    def test_zero_objective_never_enters(self):
        basis_table.cache_clear()
        z = ObjectiveVector(3, {p: F(0) for p in hive_indices(3)})
        for _ in range(2):
            out = lp_maximize(z, ADJ)
            assert not out.unique and lp_along_face(z, ADJ, out)
        info = basis_table.cache_info()
        assert (info.hits, info.misses, info.bases) == (0, 2, (0,))

    def test_order_does_not_change_answers(self):
        rng = random.Random(41)
        ts = [feasible_boundary(n, rng, 4) for n in (3, 3, 4, 4, 5)
              for _ in range(10)]

        def run(order):
            basis_table.cache_clear()
            got = {}
            for i in order:
                try:
                    rep = largest_lift(ts[i])
                except DegenerateOptimum as ex:
                    got[i] = repr(ex)
                    continue
                got[i] = (json.dumps(lift_report_to_json(rep)), rep.retries)
            return got

        assert run(range(50)) == run(reversed(range(50)))
        assert basis_table.cache_info().hits > 0

    @pytest.mark.parametrize("limit, held", [(0, 0), (3, 0), (5, 1)])
    def test_scale_limit(self, monkeypatch, limit, held):
        """ADJ's basis has d = 1, vertex-map row sums up to 2 and slack-map
        row sums up to 5: a limit of 0 refuses it before its slack map is
        built, 3 refuses it after, and 5 lets it in.  A refused basis leaves
        the answers as they were and every later lookup a miss."""
        monkeypatch.setattr(lift_module, "_SCALE_LIMIT", limit)
        basis_table.cache_clear()
        ov = wperim_objective(W3)
        for _ in range(2):
            out = lp_maximize(ov, ADJ)
            assert (out.hive, out.value, out.unique) == \
                simplex_outcome(ov, ADJ)
        info = basis_table.cache_info()
        assert (info.hits, info.misses, info.bases) == (held, 2 - held,
                                                       (held,))
        basis_table.cache_clear()

    def test_unsound_basis_raises(self):
        """Rows 0 and 2 of the n=4 LP are opposite, so with row 3 they
        balance the objective -A_3 with multipliers 1 but are no basis;
        they do not balance the zero objective."""
        inter = HiveShape(4).interior()
        a3 = lift_module._lp_maps(4)[0][3].tolist()
        coeffs = {p: F(0) for p in hive_indices(4)}
        coeffs.update((p, F(-v)) for p, v in zip(inter, a3))
        u = [F(int(r in (0, 2, 3))) for r in range(18)]
        sol = LPSolution((F(0),) * 3, F(0), tuple(u), True)
        basis_table.cache_clear()
        with pytest.raises(RuntimeError, match="singular"):
            basis_table.learn(ObjectiveVector(4, coeffs), sol)
        zero = ObjectiveVector(4, {p: F(0) for p in hive_indices(4)})
        with pytest.raises(RuntimeError, match="balance"):
            basis_table.learn(zero, sol)
        basis_table.cache_clear()

    def test_inexact_vertex_map_raises(self, monkeypatch):
        reduce = lift_module._gauss_jordan

        def off_by_one(tab, cols):
            piv = reduce(tab, cols)
            tab[piv[0]][-1] += 1
            return piv

        monkeypatch.setattr(lift_module, "_gauss_jordan", off_by_one)
        basis_table.cache_clear()
        with pytest.raises(RuntimeError, match="inexact"):
            lp_maximize(wperim_objective(W3), ADJ)
        basis_table.cache_clear()

    def test_memory_is_bounded(self, monkeypatch):
        monkeypatch.setattr(lift_module, "TABLE_BASES", 2)
        monkeypatch.setattr(lift_module, "TABLE_OBJECTIVES", 2)
        basis_table.cache_clear()
        rng = random.Random(43)
        for seed in range(3):
            ov = wperim_objective(make_weight_function(4, seed))
            for _ in range(8):
                t = feasible_boundary(4, rng)
                out = lp_maximize(ov, t)
                assert (out.hive, out.value, out.unique) == \
                    simplex_outcome(ov, t)
        assert basis_table.cache_info().bases == (2, 2)
        basis_table.cache_clear()


class TestForestSolve:
    def tripod(self):
        t = BoundaryTriple((1,), (1,), (-2,))
        h = enumerate_lattice_hives(t)[0]
        return t, elide(diagram(hive_to_honeycomb(h)))

    def test_tripod(self):
        t, g = self.tripod()
        assert (len(g.nodes), len(g.edges), len(g.half_edges)) == (1, 0, 3)
        assert sorted((str(h.direction), h.constant) for h in g.half_edges) \
            == [("NE", 1), ("SE", 1), ("W", -2)]
        assert forest_solve(t, g) == {}

    def test_tampered_ray_constant(self):
        t, g = self.tripod()
        bent = (HalfEdge(g.half_edges[0].node, g.half_edges[0].direction,
                         g.half_edges[0].constant + 1),) + g.half_edges[1:]
        with pytest.raises(ValueError):
            forest_solve(t, PostElisionGraph(g.nodes, g.edges, bent,
                                             g.free_lines))

    def test_wrong_family(self):
        _, g = self.tripod()
        with pytest.raises(ValueError):
            forest_solve(ADJ, g)

    def test_edge_constants_match_locations(self):
        t = BoundaryTriple((2, 0), (2, 0), (-1, -3))
        rep = largest_lift(t)
        assert rep.vertex_kinds == {"Y": 3, "inverted-Y": 1}
        g = rep.forest
        assert (len(g.nodes), len(g.edges)) == (4, 3)
        sol = forest_solve(t, g)
        assert len(sol) == 3
        for e, c in sol.items():
            axis = e.direction.constant_axis
            assert g.nodes[e.a].location[axis] == c
            assert g.nodes[e.b].location[axis] == c

    def test_cycle_detected(self):
        low, _ = adj_hives()
        generic = Hive(3, [low[p] if p != (1, 1) else F(3, 2)
                           for p in hive_indices(3)])
        g = elide(diagram(hive_to_honeycomb(generic)))
        assert (len(g.nodes), len(g.edges), g.acyclic) == (9, 9, False)
        with pytest.raises(HasCycle):
            forest_solve(ADJ, g)


WITNESS = BoundaryTriple((2, 2, 1, 0, -1), (2, 1, 0, -1, -2),
                         (1, 0, -1, -2, -2))
WITNESS_ENTRIES = [0, 2, 2, 4, 4, 4, 5, 6, 6, 5,
                   5, F(13, 2), F(13, 2), F(13, 2), 5, 4, 6, 7, 7, 6, 4]
# a boundary whose polytope has three nonintegral vertices among 18
THREE_HITS = BoundaryTriple((3, 3, 1, 0, -2), (3, 1, -1, -2, -3),
                            (2, 1, -1, -2, -3))


class TestNonintegralVertex:
    def test_small_sizes_are_integral(self):
        # No square rhombus subsystem has determinant 2 or more below n = 4,
        # so every polytope vertex over any boundary is integral there.
        assert find_nonintegral_vertex(2, 6) is None
        assert find_nonintegral_vertex(3, 6) is None

    def test_boundary_of_another_size_refused(self):
        # the n <= 3 shortcut scans no polytope but still reads boundaries,
        # so a None there certifies the boundaries it was given
        for n in (3, 4, 6):
            with pytest.raises(ValueError, match="size"):
                find_nonintegral_vertex(n, 2, boundaries=[WITNESS])
        assert find_nonintegral_vertex(3, 2, boundaries=[ADJ]) is None

    @pytest.mark.parametrize("n", [3, 4])
    def test_nonintegral_boundary_refused(self, n):
        zero = (0,) * (n - 1)
        half = BoundaryTriple((F(1, 2), *zero), (0, *zero), (*zero, F(-1, 2)))
        with pytest.raises(ValueError, match="integral"):
            find_nonintegral_vertex(n, 2, boundaries=[half])

    def test_n4_small_window_is_integral(self):
        assert find_nonintegral_vertex(4, 1) is None

    def test_witness(self):
        got = find_nonintegral_vertex(5, 2, boundaries=[WITNESS])
        assert got is not None
        t, h = got
        assert t == WITNESS and not t.regular
        assert entries(h) == WITNESS_ENTRIES
        assert {h[p].denominator for p in hive_indices(5)} == {1, 2}

    def test_witness_defect(self):
        # The honeycomb dual to the fractional vertex is forced through
        # vertices no regular lift can contain.
        _, h = find_nonintegral_vertex(5, 2, boundaries=[WITNESS])
        dg = diagram(hive_to_honeycomb(h))
        kinds = {v.kind for v in dg.vertices}
        assert not kinds <= {"Y", "inverted-Y", "crossing"}
        assert "6-valent" in kinds and "5-valent" in kinds
        assert max(s.multiplicity for s in dg.segments) == 2
        with pytest.raises(NotSimplyDegenerate):
            elide(dg)

    @pytest.mark.parametrize("e", [58, 60, 61, 70])
    def test_witness_huge_twist(self, e):
        """The scan runs on the twisted-back kernel row, so twists past
        int64 find the same vertex, moved by the twist."""
        t = WITNESS.twisted(2 ** e, -(2 ** e))
        got = find_nonintegral_vertex(5, 2, boundaries=[t])
        assert got is not None and got[0] == t
        moved = [v + 2 ** e * i for v, (i, _) in
                 zip(WITNESS_ENTRIES, hive_indices(5))]
        assert entries(got[1]) == moved

    def test_scaled_witness(self):
        """Scaling the boundary scales every vertex: by 3 the half-integral
        entries stay fractional, by 2^52 every vertex is integral."""
        got = find_nonintegral_vertex(5, 2, boundaries=[WITNESS.scaled(3)])
        assert got is not None and got[0] == WITNESS.scaled(3)
        assert entries(got[1]) == [3 * v for v in WITNESS_ENTRIES]
        assert find_nonintegral_vertex(
            5, 2, boundaries=[WITNESS.scaled(2 ** 52)]) is None

    def test_first_in_subset_order_among_hits(self):
        """Of several nonintegral vertices the hunt returns the one whose
        first nonsingular subset of tight rows, in subset order, comes
        first: the vertex a scan over all row subsets meets first."""
        t = THREE_HITS
        inter, _, rows = _lp_rows(t)
        firsts = {}
        for h in polytope_vertices(t):
            x = [h[p] for p in inter]
            tight = [r for r, (coef, const) in enumerate(rows) if any(coef)
                     and sum(c * v for c, v in zip(coef, x)) + const == 0]
            firsts[next(sub for sub in itertools.combinations(tight, 6)
                        if round(np.linalg.det([rows[r][0] for r in sub])))
                   ] = h
        hits = [firsts[f] for f in sorted(firsts) if not firsts[f].is_integral]
        assert len(hits) == 3 and hits[0] != min(hits, key=entries)
        assert find_nonintegral_vertex(5, 3, boundaries=[t]) == (t, hits[0])

    def test_first_basis_matches_subset_scan(self):
        """_first_basis gives the first nonsingular k-subset of tight rows
        in subset order, found by brute force, at every vertex of WITNESS
        and of seeded n=4 and n=5 boundaries, degenerate ones (more than k
        tight rows) included."""
        rng = random.Random(24)
        ts = [WITNESS, THREE_HITS] + [feasible_boundary(n, rng, 3)
                                      for n in (4, 5) for _ in range(6)]
        vertices = degenerate = 0
        for t in ts:
            _, bvals, rows = _lp_rows(t)
            coefs = [coef for coef, _ in rows]
            k = len(coefs[0])
            for _, _, tight in _vertices(rows, min(bvals.values())):
                scan = [r for r in range(len(rows))
                        if tight >> r & 1 and any(coefs[r])]
                first = next(list(sub) for sub in
                             itertools.combinations(scan, k)
                             if round(np.linalg.det([coefs[r] for r in sub])))
                assert lift_module._first_basis(coefs, tight) == first
                vertices += 1
                degenerate += len(scan) > k
        assert (vertices, degenerate) == (68, 67)

    def test_corrupted_hit_raises(self, monkeypatch):
        """Hits are re-verified by checks that python -O keeps."""
        found = lift_module._vertices

        def corrupted(rows, low):
            return [((x[0] + 1000 * s, *x[1:]), s, z)
                    for x, s, z in found(rows, low)]

        monkeypatch.setattr(lift_module, "_vertices", corrupted)
        with pytest.raises(RuntimeError):
            find_nonintegral_vertex(5, 2, boundaries=[WITNESS])

    def test_boundary_grid(self):
        grid = list(boundary_grid(3, 2, 2))
        assert len(list(boundary_grid(2, 2, 2))) == 351 and len(grid) == 3413
        assert all(max(map(abs, t.lam + t.mu + t.nu)) <= 2 for t in grid)
        assert grid == sorted(grid, key=lambda t: (t.lam, t.mu, t.nu),
                              reverse=True)

    def test_deterministic(self):
        a = find_nonintegral_vertex(4, 1, seed=3, limit=500)
        b = find_nonintegral_vertex(4, 1, seed=3, limit=500)
        assert a == b


def polytope_vertices(t):
    """The vertices `_vertices` finds over t, as sorted hives."""
    inter, bvals, rows = _lp_rows(t)
    rows = [(coef, int(const)) for coef, const in rows]
    out = []
    for x, s, _ in _vertices(rows, int(min(bvals.values()))):
        at = {**bvals, **{p: F(v, s) for p, v in zip(inter, x)}}
        out.append(Hive(t.n, [at[p] for p in hive_indices(t.n)]))
    return sorted(out, key=lambda h: h.entries)


def test_vertices_match_oracle():
    rng = random.Random(8)
    draws = [feasible_boundary(n, rng, 3) for n in (3, 4) for _ in range(5)]
    regular = []
    while len(regular) < 4:
        t = feasible_boundary(4, rng, 8)
        if t.regular:
            regular.append(t)
    # lam x trivial is lam alone, so sigma = (1, 1, 0, 0) has no hive
    empty = BoundaryTriple((2, 0, 0, 0), (0, 0, 0, 0), (0, 0, -1, -1))
    cases = list(boundary_grid(4, 1, 1)) + draws + regular + [empty]
    sizes = set()
    for t in cases:
        got = polytope_vertices(t)
        assert got == enumerate_polytope_vertices(t), t
        sizes.add(len(got))
    assert polytope_vertices(empty) == [] and max(sizes) == 10
    n5 = [WITNESS, THREE_HITS] + [feasible_boundary(5, rng, 2)
                                  for _ in range(3)]
    for t in n5:
        assert polytope_vertices(t) == enumerate_polytope_vertices(
            t, allow_large=True), t


def test_scan_matches_dense_reference():
    """The sparse-term scan gives the dense reference's (x, s, tight) list
    on seeded n=4 and n=5 bound-2 grid boundaries, empty polytopes
    included, and with all-zero rows spliced in."""
    rng = random.Random(22)
    empty, zero_const = 0, 0
    for n in (4, 5):
        doms = dominant_vectors(n, -2, 2)
        nus = {}
        for _ in range(600):
            choices = ()
            while not choices:
                lam, mu = rng.choice(doms), rng.choice(doms)
                total = -(sum(lam) + sum(mu))
                if total not in nus:
                    nus[total] = dominant_vectors(n, -2, 2, total)
                choices = nus[total]
            t = BoundaryTriple(lam, mu, rng.choice(choices))
            _, bvals, rows = _lp_rows(t)
            low = min(bvals.values())
            got = _vertices(rows, low)
            assert got == dense_vertices(rows, low), t
            empty += not got
            zero_const += sum(any(c) and not b for c, b in rows)
    assert empty > 600 and zero_const > 1000
    _, bvals, rows = _lp_rows(WITNESS)
    low, zero = min(bvals.values()), (0,) * len(rows[0][0])
    for extra in ((zero, 0), (zero, 3), (zero, -1)):
        for at in (0, 7, len(rows)):
            spliced = rows[:at] + [extra] + rows[at:]
            got = _vertices(spliced, low)
            assert got == dense_vertices(spliced, low)
            assert (got == []) == (extra[1] < 0)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=15, deadline=None)
def test_weights_always_valid(seed):
    w = make_weight_function(4, seed=seed)
    assert all(v > 0 for v in w.values.values())


@given(st.integers(0, 64))
@settings(max_examples=30, deadline=None)
def test_wperim_paths_agree_between_lattice_points(k):
    low, high = adj_hives()
    h = mix(low, high, F(k, 64))
    assert wperim(W3, h) == wperim_objective(W3).value(h)


@given(st.integers(0, 16), st.integers(0, 16))
@settings(max_examples=20, deadline=None)
def test_inflate_is_additive(a, b):
    low, _ = adj_hives()
    iv = inflation_vector(3, (1, 1))
    ea, eb = F(a, 32), F(b, 32)
    once = inflate(low, iv, ea + eb)
    twice = inflate(inflate(low, iv, ea), iv, eb)
    assert entries(once) == entries(twice)
