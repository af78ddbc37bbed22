"""Hive arrays: rhombus inequalities, counting, and honeycomb duality."""

import gc
import inspect
import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivecomb import (BoundaryTriple, Hive, HiveShape, RhombusViolation,
                      boundary_from_weights, bz_pattern, bz_rows,
                      count_gt_patterns, count_lattice_hives,
                      decompose_tensor_product, degeneracy_graph,
                      dominant_vectors, enumerate_lattice_hives,
                      exists_lattice_hive, flatspace_decomposition,
                      hive_to_honeycomb, honeycomb_to_hive, rhombi,
                      rhombus_value, sigma_to_nu)
import hivecomb
from hivecomb.errors import DirectionViolation
from hivecomb.hive import hive_index_of, root_of
from hivecomb.honeycomb import _add, build_gl_tinkertoy, validate_configuration
from hivecomb.oracles import lr_coefficient_tableaux
from hivecomb import _kernels
from hivecomb.hive import _flat, _plan
from kernel_reference import count_dfs

ADJ = BoundaryTriple((2, 1, 0), (2, 1, 0), (-1, -2, -3))
#: The benchmark's pinned count: 1,337,644 hives at n = 6.
BIG = BoundaryTriple(tuple(5 * x for x in (5, 4, 3, 2, 1, 0)),
                     tuple(5 * x for x in (5, 4, 3, 2, 1, 0)),
                     sigma_to_nu(tuple(5 * x for x in (8, 7, 6, 4, 3, 2))))


def hives_for(lam, mu, nu):
    return enumerate_lattice_hives(BoundaryTriple(lam, mu, nu))


def random_triple(rng, n, span=5):
    """A random zero-sum dominant triple, not necessarily feasible."""
    lam = tuple(sorted((rng.randint(-span, span) for _ in range(n)), reverse=True))
    mu = tuple(sorted((rng.randint(-span, span) for _ in range(n)), reverse=True))
    rest = -(sum(lam) + sum(mu))
    nus = dominant_vectors(n, -3 * span, 3 * span, rest)
    return BoundaryTriple(lam, mu, rng.choice(nus)) if nus else None


def random_hive(rng, n, span=5):
    while True:
        t = random_triple(rng, n, span)
        if t is None:
            continue
        hs = enumerate_lattice_hives(t)
        if hs:
            return rng.choice(hs)


def dfs_count(t, exists_only=False):
    """Reference count: the plain DFS on t's untwisted boundary."""
    plan = _plan(t.n)
    row = np.zeros(HiveShape(t.n).size, np.int64)
    for p, v in boundary_from_weights(t).items():
        row[_flat(*p)] = int(v)
    if any(row[a] + row[b] - row[c] - row[d] < 0 for a, b, c, d in plan.fixed):
        return 0
    return int(count_dfs(row, *plan.scan, exists_only))


#: Node budgets of the depth-first count: none (every count goes to the
#: frontier), one row, the default, and one no test count reaches.
BUDGETS = [0, 1, _kernels.DFS_NODES, 1 << 30]


@cache
def count_draws():
    """Seeded boundaries at n = 1..6 with their reference counts, 60 per n.
    Every other nu is drawn from the decomposition of lam and mu, so about
    half are feasible; every third draw is twisted by up to +-2^50, which
    keeps the count of the untwisted boundary."""
    rng = random.Random(27)
    draws = []
    for n in range(1, 7):
        while len(draws) < 60 * n:
            t = random_triple(rng, n, span=4)
            if t is None:
                continue
            if len(draws) % 2:
                sigma = rng.choice(sorted(decompose_tensor_product(t.lam,
                                                                   t.mu)))
                t = BoundaryTriple(t.lam, t.mu, sigma_to_nu(sigma))
            want = dfs_count(t)
            if len(draws) % 3 == 0:
                t = t.twisted(rng.choice((1, -1)) * rng.randint(0, 2 ** 50),
                              rng.choice((1, -1)) * rng.randint(0, 2 ** 50))
            draws.append((t, want))
    return draws


def record_frontier(monkeypatch):
    """The number of rows of each call to _kernels.frontier from now on."""
    calls = []
    frontier = _kernels.frontier

    def recorded(rows, *args, **kwargs):
        calls.append(rows.shape[0])
        return frontier(rows, *args, **kwargs)

    monkeypatch.setattr(_kernels, "frontier", recorded)
    return calls


def dfs_decomposition(lam, mu):
    """Reference decomposition: dfs_count on each sigma, in listing order."""
    want = []
    for sigma in dominant_vectors(len(lam), lam[-1] + mu[-1], lam[0] + mu[0],
                                  sum(lam) + sum(mu)):
        c = dfs_count(BoundaryTriple(lam, mu, sigma_to_nu(sigma)))
        if c:
            want.append((sigma, c))
    return want


class TestShape:
    def test_sizes(self):
        for n in range(1, 7):
            s = HiveShape(n)
            assert s.size == (n + 1) * (n + 2) // 2
            assert len(list(s.indices())) == s.size
            assert len(list(s.interior())) == s.size - 3 * n
            assert len(list(s.boundary())) == 3 * n

    def test_rhombi_counts(self):
        for n, k in [(1, 0), (2, 3), (3, 9), (4, 18), (5, 30)]:
            assert len(rhombi(n)) == k

    def test_rhombi_against_adjacency(self):
        # every rhombus is two unit triangles glued along an interior edge,
        # so the count must match a direct scan over adjacent index pairs
        for n in range(1, 6):
            found = set()
            pts = set(HiveShape(n).indices())
            for (i, j) in pts:
                for s in ((0, 1), (1, 0), (1, -1)):
                    q = (i + s[0], j + s[1])
                    if q not in pts:
                        continue
                    for r in rhombi(n):
                        if set(r.obtuse) == {(i, j), q}:
                            found.add(r)
            assert found == set(rhombi(n))

    def test_root_roundtrip(self):
        for n in range(1, 6):
            for p in HiveShape(n).indices():
                r = root_of(n, *p)
                assert sum(r) == 0
                assert hive_index_of(n, r) == p


class TestHiveBasics:
    def test_fraction_coercion(self):
        # entries are held as plane.coord holds them: ints where integral
        h = Hive(1, ["1/2", Fraction(4, 2), "0/3"])
        assert h.value(0, 0) == Fraction(1, 2)
        assert h.value(1, 0) == 2
        assert [type(x) for x in h.entries] == [Fraction, int, int]
        assert h == Hive(1, [Fraction(1, 2), 2, 0])
        r = h.replaced((0, 1), Fraction(6, 3))
        assert r[(0, 1)] == 2 and type(r[(0, 1)]) is int

    @pytest.mark.parametrize("n, entries", [(-1, []), (0, [5]), (0, [])])
    def test_size_below_one_refused(self, n, entries):
        with pytest.raises(ValueError, match="at least 1"):
            Hive(n, entries)

    def test_length_check(self):
        with pytest.raises(ValueError):
            Hive(2, [0, 1, 2])

    def test_boundary_walk_n2(self):
        t = BoundaryTriple((1, 0), (1, 0), (-1, -1))
        b = boundary_from_weights(t)
        h = Hive(2, [b.get((i, j), 0) for r in range(3)
                     for (i, j) in [(r - k, k) for k in range(r + 1)]])
        walk = [h.value(0, 0), h.value(1, 0), h.value(2, 0),
                h.value(1, 1), h.value(0, 2), h.value(0, 1)]
        assert walk == [0, 1, 1, 2, 2, 1]

    def test_boundary_walk_n3(self):
        hs = enumerate_lattice_hives(ADJ)
        h = hs[0]
        walk = [h.value(*p) for p in
                [(0, 0), (1, 0), (2, 0), (3, 0), (2, 1), (1, 2),
                 (0, 3), (0, 2), (0, 1)]]
        assert walk == [0, 2, 3, 3, 5, 6, 6, 5, 3]

    def test_boundary_triple_roundtrip(self):
        rng = random.Random(5)
        for _ in range(20):
            h = random_hive(rng, rng.randint(1, 4))
            b = boundary_from_weights(h.boundary_triple())
            for p, v in b.items():
                assert h.value(*p) == v

    def test_first_violation_order_and_is_valid(self):
        hs = enumerate_lattice_hives(ADJ)
        assert all(h.is_valid for h in hs)
        bad = hs[0].replaced((1, 1), 100)
        v = bad.first_violation()
        assert v is not None and rhombus_value(bad, v) < 0
        with pytest.raises(RhombusViolation):
            hive_to_honeycomb(bad)


class TestCounting:
    def test_adjoint_square(self):
        assert count_lattice_hives(ADJ) == 2
        hs = enumerate_lattice_hives(ADJ)
        assert [h.value(1, 1) for h in hs] == [4, 5]
        assert hs == sorted(hs, key=lambda h: h.entries)

    def test_enumeration_is_sorted_and_valid(self):
        rng = random.Random(11)
        for _ in range(25):
            t = random_triple(rng, rng.randint(1, 4))
            if t is None:
                continue
            hs = enumerate_lattice_hives(t)
            assert len(hs) == count_lattice_hives(t)
            assert hs == sorted(hs, key=lambda h: h.entries)
            for h in hs:
                assert h.is_valid and h.is_integral
                assert h.boundary_triple() == t

    def test_exists_matches_count(self):
        rng = random.Random(13)
        for _ in range(40):
            t = random_triple(rng, rng.randint(1, 4), span=3)
            if t is None:
                continue
            assert exists_lattice_hive(t) == (count_lattice_hives(t) > 0)

    def test_gl2_triangle_inequalities(self):
        # one-row separations: count is 1 exactly when each weight's
        # separation is at most the sum of the other two
        for l1 in range(-3, 4):
            for l2 in range(l1 - 3, l1 + 1):
                for m1 in range(-3, 4):
                    for m2 in range(m1 - 3, m1 + 1):
                        tot = l1 + l2 + m1 + m2
                        for n1 in range(-6, 7):
                            n2 = -tot - n1
                            if n2 > n1:
                                continue
                            t = BoundaryTriple((l1, l2), (m1, m2), (n1, n2))
                            a, b, c = l1 - l2, m1 - m2, n1 - n2
                            ok = a <= b + c and b <= a + c and c <= a + b
                            assert count_lattice_hives(t) == (1 if ok else 0)

    def test_rotation_invariance(self):
        rng = random.Random(17)
        for _ in range(15):
            t = random_triple(rng, rng.randint(2, 4), span=3)
            if t is None:
                continue
            c = count_lattice_hives(t)
            assert count_lattice_hives(t.rotated()) == c
            assert count_lattice_hives(t.twisted(2, -1)) == c

    def test_nonintegral_boundary_rejected(self):
        t = BoundaryTriple(("1/2", 0), (1, 0), ("-1/2", -1))
        with pytest.raises(ValueError):
            count_lattice_hives(t)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_kernels_agree(self, monkeypatch, budget):
        """The kernels agree with the reference DFS, run on the untwisted
        boundary, in count, existence, enumeration and the batched
        decomposition, whatever share of the counts the depth-first walk
        takes."""
        monkeypatch.setattr(_kernels, "DFS_NODES", budget)
        rng = random.Random(19)
        for _ in range(20):
            t = random_triple(rng, rng.randint(2, 5), span=4)
            if t is None:
                continue
            dfs = dfs_count(t)
            assert dfs_count(t, exists_only=True) == (dfs > 0)
            assert count_lattice_hives(t) == dfs
            assert exists_lattice_hive(t) == (dfs > 0)
            entries = [h.entries for h in enumerate_lattice_hives(t)]
            assert len(entries) == dfs
            assert all(a < b for a, b in zip(entries, entries[1:]))
            got = decompose_tensor_product(t.lam, t.mu)
            assert list(got.items()) == dfs_decomposition(t.lam, t.mu)

    @pytest.mark.parametrize("rows, a, b", [(1, 0, 0), (7, 0, 0),
                                            (1 << 14, 2 ** 50, -2 ** 50),
                                            (7, -2 ** 50, 2 ** 50)])
    def test_decomposition_split_and_twisted(self, monkeypatch, rows, a, b):
        """The batched decomposition agrees with the reference DFS, item
        for item, with frontier layers cut into 1 or 7 children and with
        lam and mu twisted by (a, b): every sigma moves by a + b."""
        monkeypatch.setattr(_kernels, "FRONTIER_ROWS", rows)
        rng = random.Random(19)
        for _ in range(20):
            t = random_triple(rng, rng.randint(2, 5), span=4)
            if t is None:
                continue
            want = [(tuple(x + a + b for x in sigma), c)
                    for sigma, c in dfs_decomposition(t.lam, t.mu)]
            got = decompose_tensor_product([x + a for x in t.lam],
                                           [x + b for x in t.mu])
            assert list(got.items()) == want

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("rows", [1, 7])
    def test_split_frontier(self, monkeypatch, rows, budget):
        """Layers cut into pieces of 1 or 7 children give the same answers,
        in the same order; at budget 0 every count goes through them."""
        cases = [ADJ, BoundaryTriple((6, 4, 2, 0), (6, 4, 2, 0),
                                     (-2, -5, -7, -10)),
                 BoundaryTriple((4, 3, 2, 1, 0), (4, 3, 2, 1, 0),
                                (-2, -3, -4, -5, -6)),
                 BoundaryTriple((4, 2, 1, 0), (3, 2, 0, 0),
                                (-3, -3, -3, -3))]

        def answers():
            return [(count_lattice_hives(t), exists_lattice_hive(t),
                     enumerate_lattice_hives(t),
                     decompose_tensor_product(t.lam, t.mu)) for t in cases]

        want = answers()
        assert [a[0] for a in want] == [2, 11, 16, 0]
        monkeypatch.setattr(_kernels, "FRONTIER_ROWS", rows)
        monkeypatch.setattr(_kernels, "DFS_NODES", budget)
        assert answers() == want

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_counts_match_reference(self, monkeypatch, budget):
        """Counts equal the reference DFS on 360 seeded draws at every
        budget, the empty interior of n <= 2 (which counts 1) included."""
        monkeypatch.setattr(_kernels, "DFS_NODES", budget)
        draws = count_draws()
        assert {t.n for t, _ in draws} == set(range(1, 7))
        assert sum(abs(t.lam[-1]) > 2 ** 40 for t, _ in draws) >= 100
        for t in (BoundaryTriple((3,), (2,), (-5,)),
                  BoundaryTriple((2, 0), (2, 0), (-2, -2))):
            assert count_lattice_hives(t) == dfs_count(t) == 1
        for t, want in draws:
            assert count_lattice_hives(t) == want, t

    def test_small_counts_stay_off_frontier(self, monkeypatch):
        """A count of at most 250 nodes never reaches the frontier."""
        calls = record_frontier(monkeypatch)
        small = []
        for t, want in count_draws():
            row = hivecomb.hive._kernel_row(t)
            if row is not None and _kernels.depth_first(
                    row.tolist(), _plan(t.n).bounds, 250) is not None:
                small.append((t, want))
        assert len(small) >= 300 and max(want for _, want in small) >= 10
        assert [count_lattice_hives(t) for t, _ in small] == \
            [want for _, want in small]
        assert calls == []

    def test_big_count_bounded_memory(self, monkeypatch):
        """The pinned count walks DFS_NODES rows, then goes to the frontier
        as one row and counts right in bounded memory."""
        calls = record_frontier(monkeypatch)
        tracemalloc.start()
        try:
            count = count_lattice_hives(BIG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 1337644
        assert calls == [1]
        assert peak < 50 * 2 ** 20

    @pytest.mark.parametrize("N", [2 ** 24, 2 ** 40])
    def test_wide_parent_bounded_memory(self, N):
        """An entry whose range is far wider than memory is expanded a
        block at a time, not materialised as one child index."""
        t = BoundaryTriple((2 * N, N, 0, 0), (2 * N, N, 0, 0),
                           (0, -N, -2 * N, -3 * N))
        tracemalloc.start()
        try:
            found = exists_lattice_hive(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found
        assert peak < 50 * 2 ** 20


class TestDecompose:
    def test_adjoint_square_multiset(self):
        got = decompose_tensor_product((2, 1, 0), (2, 1, 0))
        assert got == {(4, 2, 0): 1, (3, 2, 1): 2, (4, 1, 1): 1,
                       (3, 3, 0): 1, (2, 2, 2): 1}
        assert sum(got.values()) == 6

    def test_trivial_factor(self):
        assert decompose_tensor_product((3, 1, 0), (0, 0, 0)) == {(3, 1, 0): 1}

    def test_gl2_clebsch_gordan(self):
        got = decompose_tensor_product((2, 0), (1, -1))
        assert got == {(3, -1): 1, (2, 0): 1, (1, 1): 1}

    def test_consistent_with_counts(self):
        for sigma, mult in decompose_tensor_product((2, 1, 0), (2, 1, 0)).items():
            t = BoundaryTriple((2, 1, 0), (2, 1, 0), sigma_to_nu(sigma))
            assert count_lattice_hives(t) == mult

    def test_size_zero_is_a_value_error(self):
        with pytest.raises(ValueError, match="hive size must be at least 1"):
            decompose_tensor_product((), ())

    def test_unequal_lengths_refused(self):
        with pytest.raises(ValueError, match="equal lengths"):
            decompose_tensor_product((2, 1, 0), (1, 0))

    def test_nonintegral_weight_refused(self):
        with pytest.raises(ValueError, match="integral"):
            decompose_tensor_product((Fraction(1, 2), 0), (1, 0))

    @pytest.mark.parametrize("lam, mu", [((2 ** 61, 0), (0, 0)),
                                         ((2 ** 60, 0, 0), (0, 0, 0))])
    def test_oversized_refused_before_listing_sigma(self, monkeypatch, lam,
                                                    mu):
        """About 2^60 sigma would be listed before any row is built; the
        one bound shared by every sigma refuses them all at once."""
        monkeypatch.setattr(hivecomb.hive, "dominant_vectors",
                            lambda *args: pytest.fail("sigma listed"))
        with pytest.raises(OverflowError, match="limit 2\\^60"):
            decompose_tensor_product(lam, mu)

    def test_past_plan_limit_refused_before_listing(self):
        """A weight wider than PLAN_MAX_N is refused at once, before its
        sigma are listed or a plan is built."""
        wide = [0] * (hivecomb.hive.PLAN_MAX_N + 1)
        with pytest.raises(ValueError, match="input too large"):
            decompose_tensor_product(wide, wide)
        with pytest.raises(ValueError, match="input too large"):
            count_lattice_hives(BoundaryTriple(wide, wide, wide))

    def test_keys_are_int_tuples(self):
        got = decompose_tensor_product((Fraction(4, 2), 1, 0), ("2", 1, 0))
        assert got == decompose_tensor_product((2, 1, 0), (2, 1, 0))
        assert {type(x) for sigma in got for x in sigma} == {int}
        assert {type(c) for c in got.values()} == {int}

    def test_wide_pieri_product_is_quick(self):
        """(45, 0^7) squared has the 46 Pieri terms (90 - k, k, 0^6).  The
        Weyl caps list only those, not every dominant sigma of size 90."""
        lam = (45,) + (0,) * 7
        start = time.perf_counter()
        got = decompose_tensor_product(lam, lam)
        assert time.perf_counter() - start < 10
        assert got == {(90 - k, k) + (0,) * 6: 1 for k in range(46)}


class TestGT:
    def test_frozen_counts(self):
        assert count_gt_patterns((1, 0)) == 2
        assert count_gt_patterns((3, 1)) == 3
        assert count_gt_patterns((2, 1, 0)) == 8
        assert count_gt_patterns((2, 0, -2)) == 27

    def test_nonintegral_rejected(self):
        with pytest.raises(ValueError):
            count_gt_patterns(("1/2", 0))

    def test_matches_recursive_count(self):
        """The row-by-row count equals a memoized recursion over the rows
        interleaving down from each row, on seeded weights with n <= 6."""
        def below(row, memo):
            if len(row) <= 1:
                return 1
            if row not in memo:
                memo[row] = sum(below(nxt, memo) for nxt in itertools.product(
                    *(range(row[i + 1], row[i] + 1)
                      for i in range(len(row) - 1))))
            return memo[row]

        rng = random.Random(22)
        for _ in range(200):
            n = rng.randint(0, 6)
            lam = sorted((rng.randint(-4, 4) for _ in range(n)), reverse=True)
            assert count_gt_patterns(lam) == below(tuple(lam), {}), lam

    def test_wide_weight(self):
        assert count_gt_patterns([0] * 1100) == 1
        assert count_gt_patterns([1] + [0] * 1099) == 1100


@pytest.mark.parametrize("call", [
    lambda: dominant_vectors(4, -2, 2, 0),
    lambda: count_gt_patterns((3, 1, 0)),
    lambda: lr_coefficient_tableaux((2, 1), (2, 1), (3, 2, 1)),
], ids=["dominant_vectors", "count_gt_patterns", "lr_coefficient_tableaux"])
def test_no_reference_cycles(call):
    """The recursive walks leave nothing for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        call()
    finally:
        gc.enable()
    assert gc.collect() == 0


#: (vertex index, step): a head and a tail of the adjoint honeycomb, each
#: moved so that some edge leaves its axis.
MOVED_VERTEX_CASES = ((1, (1, 0, -1)), (4, (1, 0, -1)))


def moved_vertex_honeycomb(k, step):
    """The first adjoint honeycomb with vertex k moved by step, built
    without validate_configuration.  Self-contained, so that the python -O
    test can run its source."""
    from hivecomb import (BoundaryTriple, enumerate_lattice_hives,
                          hive_to_honeycomb)
    from hivecomb.honeycomb import Honeycomb
    t = BoundaryTriple((2, 1, 0), (2, 1, 0), (-1, -2, -3))
    h = hive_to_honeycomb(enumerate_lattice_hives(t)[0])
    pos = h.positions
    v = h.tinkertoy.sorted_vertices[k]
    pos[v] = pos[v].translate(step)
    return Honeycomb(h.tinkertoy, pos, {})


class TestHoneycombDuality:
    def test_roundtrip_adjoint(self):
        for H in enumerate_lattice_hives(ADJ):
            assert honeycomb_to_hive(hive_to_honeycomb(H)) == H

    def test_roundtrip_random(self):
        rng = random.Random(23)
        for _ in range(20):
            H = random_hive(rng, rng.randint(1, 5))
            h = hive_to_honeycomb(H)
            assert honeycomb_to_hive(h) == H
            assert h.boundary_conditions() == boundary_conditions_of(H)

    def test_roundtrip_translated_tinkertoy(self):
        shift = (2, -1, -1)
        for H in enumerate_lattice_hives(ADJ):
            h = hive_to_honeycomb(H)
            moved = validate_configuration(
                build_gl_tinkertoy(3).translate(shift),
                {_add(v, shift): p for v, p in h.positions.items()})
            assert moved.tinkertoy != h.tinkertoy
            assert honeycomb_to_hive(moved) == H

    @pytest.mark.parametrize("k, step", MOVED_VERTEX_CASES)
    def test_moved_vertex_raises(self, k, step):
        with pytest.raises(DirectionViolation):
            honeycomb_to_hive(moved_vertex_honeycomb(k, step))

    def test_moved_vertex_raises_under_optimize(self):
        # the check is no assert, so python -O keeps it
        src = os.path.dirname(os.path.dirname(hivecomb.__file__))
        script = inspect.getsource(moved_vertex_honeycomb) + (
            "from hivecomb import DirectionViolation, honeycomb_to_hive\n"
            "for case in %r:\n"
            "    try:\n"
            "        print(honeycomb_to_hive(moved_vertex_honeycomb(*case)))\n"
            "    except DirectionViolation:\n"
            "        print('DirectionViolation')\n" % (MOVED_VERTEX_CASES,))
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["DirectionViolation"] * 2

    def test_edge_lengths_are_rhombus_values(self):
        rng = random.Random(29)
        for _ in range(10):
            H = random_hive(rng, rng.randint(2, 4))
            h = hive_to_honeycomb(H)
            dual = {}
            from hivecomb.honeycomb import dual_graph
            dg = dual_graph(h.tinkertoy)
            for e in h.tinkertoy.edges:
                if e.is_boundary:
                    continue
                p, q = dg.dual_of[e]
                dual[frozenset((hive_index_of(H.n, p), hive_index_of(H.n, q)))] = \
                    h.edge_length(e)
            for r in rhombi(H.n):
                key = frozenset(r.obtuse)
                if key in dual:
                    assert dual[key] == rhombus_value(H, r)

    def test_constant_hive_collapses(self):
        t = BoundaryTriple((1, 1, 1), (2, 2, 2), (-3, -3, -3))
        (H,) = enumerate_lattice_hives(t)
        h = hive_to_honeycomb(H)
        assert len(set(h.positions.values())) == 1


def boundary_conditions_of(H):
    return hive_to_honeycomb(H).boundary_conditions()


class TestFlatspace:
    def test_adjoint_pair(self):
        h4, h5 = enumerate_lattice_hives(ADJ)
        sizes4 = sorted(len(r) for r in flatspace_decomposition(h4))
        sizes5 = sorted(len(r) for r in flatspace_decomposition(h5))
        assert sizes4 == [1, 1, 1, 6]
        assert sizes5 == [1, 1, 1, 2, 2, 2]

    def test_matches_degeneracy_regions(self):
        rng = random.Random(31)
        for _ in range(12):
            H = random_hive(rng, rng.randint(2, 4))
            parts = flatspace_decomposition(H)
            regions = degeneracy_graph(hive_to_honeycomb(H)).regions
            assert parts == frozenset(frozenset(r.members) for r in regions)


class TestBZ:
    def pattern_rows(self, H):
        h = hive_to_honeycomb(H)
        return bz_pattern(h), bz_rows(H.n), h

    def test_row_sums(self):
        rng = random.Random(37)
        for _ in range(20):
            H = random_hive(rng, rng.randint(2, 5))
            t = H.boundary_triple()
            n = H.n
            pat, (f0, f1, f2), _ = self.pattern_rows(H)
            for c in range(1, n):
                assert sum(pat[p] for p in f0[c - 1]) == t.nu[n - c - 1] - t.nu[n - c]
                assert sum(pat[p] for p in f1[c - 1]) == t.mu[n - c - 1] - t.mu[n - c]
                assert sum(pat[p] for p in f2[c - 1]) == t.lam[c - 1] - t.lam[c]

    def test_partial_sums_are_edge_lengths(self):
        rng = random.Random(41)
        for _ in range(15):
            H = random_hive(rng, rng.randint(2, 5))
            pat, fams, h = self.pattern_rows(H)
            lengths = {h.edge_length(e) for e in h.tinkertoy.edges
                       if not e.is_boundary}
            for fam in fams:
                for row in fam:
                    acc = Fraction(0)
                    for k, p in enumerate(row):
                        acc += pat[p]
                        assert acc >= 0
                        if k < len(row) - 1:
                            assert acc in lengths

    def test_rotation_covariance(self):
        # reading the same honeycomb with boundary roles rotated permutes
        # the pattern by the 120-degree index rotation
        rng = random.Random(43)
        for _ in range(10):
            H = random_hive(rng, rng.randint(2, 4))
            n = H.n
            pat = bz_pattern(hive_to_honeycomb(H))
            t = H.boundary_triple().rotated()
            hs = [g for g in enumerate_lattice_hives(t)
                  if bz_pattern(hive_to_honeycomb(g)) ==
                  {(j, n - i - j): v for (i, j), v in pat.items()}]
            assert hs

    def test_fully_degenerate_is_zero(self):
        t = BoundaryTriple((1, 1, 1), (2, 2, 2), (-3, -3, -3))
        (H,) = enumerate_lattice_hives(t)
        pat = bz_pattern(hive_to_honeycomb(H))
        assert all(v == 0 for v in pat.values())

    def test_adjoint_pair_distinct(self):
        h4, h5 = enumerate_lattice_hives(ADJ)
        assert bz_pattern(hive_to_honeycomb(h4)) != \
            bz_pattern(hive_to_honeycomb(h5))

    def test_keys(self):
        for n in (2, 3, 4):
            t = BoundaryTriple((n,) * n, (n,) * n, (-2 * n,) * n)
            (H,) = enumerate_lattice_hives(t)
            pat = bz_pattern(hive_to_honeycomb(H))
            corners = {(0, 0), (n, 0), (0, n)}
            assert set(pat) == set(HiveShape(n).indices()) - corners


small_weight = st.integers(min_value=-3, max_value=3)


@st.composite
def feasible_triples(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    lam = tuple(sorted((draw(small_weight) for _ in range(n)), reverse=True))
    mu = tuple(sorted((draw(small_weight) for _ in range(n)), reverse=True))
    rest = -(sum(lam) + sum(mu))
    nus = dominant_vectors(n, -9, 9, rest)
    if not nus:
        return None
    return BoundaryTriple(lam, mu, nus[draw(st.integers(0, len(nus) - 1))])


@settings(max_examples=60, deadline=None)
@given(feasible_triples())
def test_property_enumeration(t):
    if t is None:
        return
    hs = enumerate_lattice_hives(t)
    assert len(hs) == count_lattice_hives(t)
    for h in hs:
        assert h.is_valid and h.is_integral
        assert all(rhombus_value(h, r) >= 0 for r in rhombi(h.n))
        assert h.value(0, 0) == 0


@settings(max_examples=40, deadline=None)
@given(feasible_triples())
def test_property_rotation(t):
    if t is None:
        return
    assert count_lattice_hives(t.rotated()) == count_lattice_hives(t)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(-2 ** 70, 2 ** 70),
       st.integers(-2 ** 70, 2 ** 70))
def test_property_huge_twists(seed, a, b):
    """Twists far past int64 change no count, existence or enumeration."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    t = random_triple(rng, n, span=3)  # often infeasible
    if t is None or rng.random() < 0.5:
        t = random_hive(rng, n, span=3).boundary_triple()
    tt = t.twisted(a, b)
    assert count_lattice_hives(tt) == count_lattice_hives(t)
    assert exists_lattice_hive(tt) == exists_lattice_hive(t)
    hs = enumerate_lattice_hives(tt)
    assert len(hs) == len(enumerate_lattice_hives(t))
    assert all(h.boundary_triple() == tt for h in hs)
