"""Independent ground-truth checks: tableaux rule, Weyl dims, vertex scan."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hivecomb import (BoundaryTriple, TooLarge, count_lattice_hives,
                      decompose_tensor_product, dominant_vectors, rhombi,
                      rhombus_value)
from hivecomb.errors import SizeMismatch
from hivecomb.oracles import (as_partition, enumerate_polytope_vertices,
                              lr_coefficient_tableaux, partition_triple,
                              transcribed_lr_count, weyl_dim)


def _rank(mat):
    m = [row[:] for row in mat]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


class TestPartition:
    def test_normalization(self):
        assert as_partition((3, 1, 0, 0)) == (3, 1)
        assert as_partition(()) == ()

    def test_rejects(self):
        with pytest.raises(ValueError):
            as_partition((1, 2))
        with pytest.raises(ValueError):
            as_partition((1, -1))
        with pytest.raises(ValueError):
            as_partition((1.5, 0))


class TestTableaux:
    def test_adjoint_square_coefficient(self):
        assert lr_coefficient_tableaux((2, 1, 0), (2, 1, 0), (3, 2, 1)) == 2

    def test_empty_mu(self):
        assert lr_coefficient_tableaux((3, 1), (), (3, 1)) == 1

    def test_pieri_row(self):
        # multiplying by a single row gives horizontal strips, each once
        assert lr_coefficient_tableaux((2, 1), (2,), (4, 1)) == 1
        assert lr_coefficient_tableaux((2, 1), (2,), (3, 2)) == 1
        assert lr_coefficient_tableaux((2, 1), (2,), (2, 2, 1)) == 1
        assert lr_coefficient_tableaux((2, 1), (2,), (3, 1, 1)) == 1

    def test_non_containment(self):
        assert lr_coefficient_tableaux((3,), (1,), (2, 2)) == 0

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            lr_coefficient_tableaux((2, 1), (1,), (2, 1))

    def test_symmetry_in_factors(self):
        rng = random.Random(7)
        for _ in range(30):
            lam = as_partition(sorted((rng.randint(0, 3) for _ in range(3)),
                                      reverse=True))
            mu = as_partition(sorted((rng.randint(0, 3) for _ in range(3)),
                                     reverse=True))
            nus = dominant_vectors(3, 0, 6, sum(lam) + sum(mu))
            for nu in nus:
                ns = as_partition(nu)
                if len(ns) < len(nu) and nu[-1] != 0:
                    continue
                assert (lr_coefficient_tableaux(lam, mu, ns)
                        == lr_coefficient_tableaux(mu, lam, ns))


class TestTranscription:
    def test_adjoint_square(self):
        t = BoundaryTriple((2, 1, 0), (2, 1, 0), (-1, -2, -3))
        assert partition_triple(t) == ((2, 1, 0), (2, 1, 0), (3, 2, 1))
        assert transcribed_lr_count(t) == 2

    def test_negative_entries(self):
        t = BoundaryTriple((1, 0, -1), (1, 0, -1), (0, 0, 0))
        lam, mu, nu_star = partition_triple(t)
        assert min(lam + mu + nu_star) >= 0
        assert sum(nu_star) == sum(lam) + sum(mu)
        assert transcribed_lr_count(t) == count_lattice_hives(t)

    def test_nonintegral_rejected(self):
        t = BoundaryTriple(("1/2", 0), (0, 0), (0, "-1/2"))
        with pytest.raises(ValueError):
            partition_triple(t)

    def test_agreement_with_hive_count(self):
        rng = random.Random(3)
        for _ in range(150):
            n = rng.randint(1, 4)
            lam = tuple(sorted((rng.randint(-4, 4) for _ in range(n)),
                               reverse=True))
            mu = tuple(sorted((rng.randint(-4, 4) for _ in range(n)),
                              reverse=True))
            nus = dominant_vectors(n, -12, 12, -(sum(lam) + sum(mu)))
            if not nus:
                continue
            t = BoundaryTriple(lam, mu, rng.choice(nus))
            assert count_lattice_hives(t) == transcribed_lr_count(t)


class TestWeylDim:
    def test_frozen(self):
        assert weyl_dim((0, 0, 0)) == 1
        assert weyl_dim((1, 0, 0)) == 3
        assert weyl_dim((1, 0, 0, 0, 0), 5) == 5
        assert weyl_dim((2, 1, 0)) == 8

    def test_twist_shifts_nothing(self):
        assert weyl_dim((5, 4, 3)) == weyl_dim((2, 1, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weyl_dim((1, 0), 3)

    def test_dimension_consistency(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 3)
            lam = tuple(sorted((rng.randint(-3, 3) for _ in range(n)),
                               reverse=True))
            mu = tuple(sorted((rng.randint(-3, 3) for _ in range(n)),
                              reverse=True))
            total = sum(m * weyl_dim(s) for s, m in
                        decompose_tensor_product(lam, mu).items())
            assert total == weyl_dim(lam) * weyl_dim(mu)


class TestPolytopeVertices:
    def test_gl2_unique(self):
        vs = enumerate_polytope_vertices(BoundaryTriple((2, 0), (1, 1), (-1, -3)))
        assert len(vs) == 1

    def test_infeasible_empty(self):
        assert enumerate_polytope_vertices(
            BoundaryTriple((4, 0), (0, 0), (-1, -3))) == []

    def test_adjoint_interval_endpoints(self):
        t = BoundaryTriple((2, 1, 0), (2, 1, 0), (-1, -2, -3))
        vs = enumerate_polytope_vertices(t)
        assert [v.value(1, 1) for v in vs] == [4, 5]

    def test_size_guard(self):
        t = BoundaryTriple((1,) * 5, (1,) * 5, (-2,) * 5)
        with pytest.raises(TooLarge):
            enumerate_polytope_vertices(t)
        assert enumerate_polytope_vertices(t, allow_large=True)

    def test_int64_guard(self):
        # unguarded, int64 wraps at 2^59 and five "vertices" come back
        t = BoundaryTriple((2, 1, 0, -1), (2, 1, 0, -1), (1, 0, -2, -3))
        big = enumerate_polytope_vertices(t.scaled(2 ** 56))
        assert [[x / 2 ** 56 for x in v.entries] for v in big] \
            == [list(v.entries) for v in enumerate_polytope_vertices(t)]
        with pytest.raises(TooLarge):
            enumerate_polytope_vertices(t.scaled(2 ** 59))

    def test_vertices_are_basic(self):
        # a vertex must make at least (interior count) linearly independent
        # rhombus constraints tight
        rng = random.Random(11)
        checked = 0
        while checked < 10:
            n = rng.randint(3, 4)
            lam = tuple(sorted((rng.randint(-3, 3) for _ in range(n)),
                               reverse=True))
            mu = tuple(sorted((rng.randint(-3, 3) for _ in range(n)),
                              reverse=True))
            nus = dominant_vectors(n, -9, 9, -(sum(lam) + sum(mu)))
            if not nus:
                continue
            t = BoundaryTriple(lam, mu, rng.choice(nus))
            k = (n - 1) * (n - 2) // 2
            for H in enumerate_polytope_vertices(t):
                order = sorted(H.shape.interior())
                tight = []
                for r in rhombi(n):
                    if rhombus_value(H, r) == 0:
                        row = [Fraction(sum(1 for q in r.obtuse if q == p)
                                        - sum(1 for q in r.acute if q == p))
                               for p in order]
                        tight.append(row)
                assert tight and _rank(tight) >= k
                checked += 1

    def test_vertices_valid_and_extreme(self):
        t = BoundaryTriple((2, 1, 0), (2, 1, 0), (-1, -2, -3))
        for H in enumerate_polytope_vertices(t):
            assert H.is_valid
            assert H.boundary_triple() == t


def test_imports_keep_the_oracles_independent():
    """From its own package oracles.py takes error types and the two data
    classes only, never the hive or lift code it is meant to check."""
    path = Path(__file__).resolve().parents[1] / "src/hivecomb/oracles.py"
    inside = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "hivecomb"
                           for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "hivecomb"):
            module = (node.module or "").removeprefix("hivecomb.")
            inside |= {(module, a.name) for a in node.names}
    assert inside == {("errors", "SizeMismatch"), ("errors", "TooLarge"),
                      ("hive", "Hive"), ("weights", "BoundaryTriple")}
