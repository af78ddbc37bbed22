"""Dominant weights and boundary triples: ints where integral."""

import random
from fractions import Fraction

import pytest

from hivecomb import BoundaryTriple, as_weight, dominant_vectors, sigma_to_nu
from hivecomb.weights import random_dominant_vector
from hivecomb.errors import NotDominant

ADJ = BoundaryTriple((2, 1, 0), (2, 1, 0), (-1, -2, -3))


def types(t):
    return [type(x) for w in (t.lam, t.mu, t.nu) for x in w]


def test_integral_triple_holds_ints():
    assert types(ADJ) == [int] * 9


def test_fraction_and_string_entries_become_ints_where_integral():
    w = as_weight((Fraction(4, 2), "3/3", Fraction(1, 2)))
    assert w == (2, 1, Fraction(1, 2))
    assert [type(x) for x in w] == [int, int, Fraction]


def test_scaled_keeps_a_fraction_only_where_not_integral():
    half = ADJ.scaled(Fraction(1, 2))
    assert half == BoundaryTriple((1, Fraction(1, 2), 0), (1, Fraction(1, 2), 0),
                                  (Fraction(-1, 2), -1, Fraction(-3, 2)))
    assert types(half) == [int, Fraction, int] * 2 + [Fraction, int, Fraction]
    assert types(half.scaled(2)) == [int] * 9
    assert types(ADJ.scaled(Fraction(6, 3))) == [int] * 9


def test_twisted_keeps_ints():
    assert types(ADJ.twisted(2 ** 50, -3)) == [int] * 9
    assert types(ADJ.twisted(Fraction(1, 2), Fraction(1, 2))) == (
        [Fraction] * 6 + [int] * 3)


def test_int_and_fraction_triples_equal_and_hash_alike():
    fr = BoundaryTriple(*([Fraction(x) for x in w]
                          for w in ((2, 1, 0), (2, 1, 0), (-1, -2, -3))))
    assert fr == ADJ
    assert hash(fr) == hash(ADJ)
    assert str(fr) == str(ADJ)
    assert len({fr, ADJ, ADJ.scaled(Fraction(1, 2)).scaled(2)}) == 1


def test_sigma_to_nu_gives_ints():
    nu = sigma_to_nu((Fraction(4), 2, 0))
    assert nu == (0, -2, -4)
    assert [type(x) for x in nu] == [int] * 3


def test_not_dominant_still_raised():
    with pytest.raises(NotDominant):
        as_weight((0, 1))


def test_integral_reads_the_entry_types():
    assert ADJ.integral and ADJ.scaled(Fraction(4, 2)).integral
    assert BoundaryTriple((Fraction(4, 2), 0), (1, 1), (-2, -2)).integral
    assert not ADJ.scaled(Fraction(1, 2)).integral
    mixed = BoundaryTriple((Fraction(1, 2), 0), (2, 1), (-1, Fraction(-5, 2)))
    assert types(mixed) == [Fraction, int, int, int, int, Fraction]
    assert not mixed.integral


def recursive_dominant_vectors(n, lo, hi, total=None):
    """The listing as it was first written: recursion over the positions,
    trying every value from hi down and pruning sums out of reach."""
    out = []

    def tails(prefix, remaining, hi):
        if remaining == 0:
            if total is None or sum(prefix) == total:
                out.append(tuple(prefix))
            return
        for v in range(hi, lo - 1, -1):
            if total is not None:
                partial = sum(prefix) + v
                rest = remaining - 1
                if partial + rest * lo > total or partial + rest * v < total:
                    continue
            prefix.append(v)
            tails(prefix, remaining - 1, v)
            prefix.pop()

    tails([], n, hi)
    return out


def test_dominant_vectors_match_recursive_listing():
    """Same list in the same order on seeded draws: n = 0, no total,
    empty ranges (hi < lo, or a total out of reach) and negative bounds.
    Each draw is listed again with one bound per position, each at most
    hi, against the recursive listing without the vectors past them."""
    rng = random.Random(22)
    cap_rng = random.Random(23)
    seen = set()
    for _ in range(1500):
        n = rng.randint(0, 5)
        lo = rng.randint(-4, 3)
        hi = rng.randint(lo - 2, lo + 5)
        total = None if rng.random() < 0.3 else rng.randint(
            n * min(lo, hi) - 3, n * max(lo, hi) + 3)
        got = dominant_vectors(n, lo, hi, total)
        want = recursive_dominant_vectors(n, lo, hi, total)
        assert got == want, (n, lo, hi, total)
        seen.add((n == 0, total is None, not got, lo < 0))
        caps = [cap_rng.randint(min(lo - 1, hi), hi) for _ in range(n)]
        capped = dominant_vectors(n, lo, caps, total)
        assert capped == [v for v in want
                          if all(x <= c for x, c in zip(v, caps))], (
            n, lo, caps, total)
        seen.add(("capped", len(capped) < len(got), bool(capped)))
    assert len(seen) >= 13
    with pytest.raises(ValueError):
        dominant_vectors(3, 0, [1, 1])


class IndexAt:
    """An rng whose randrange(k) returns one fixed index below k."""

    def __init__(self, index):
        self.index = index

    def randrange(self, k):
        assert 0 <= self.index < k
        return self.index


def test_random_dominant_vector_unranks_the_listing():
    """Every index of dominant_vectors' list unranks to its vector, on
    every total in reach and a few past it (no vector: None, no draw); a
    seeded rng then draws as rng.choice over the list does."""
    for n in range(6):
        for lo, hi in ((-3, 3), (0, 4), (-2, -1), (2, 1)):
            for total in range(n * lo - 2, n * hi + 3):
                want = dominant_vectors(n, lo, hi, total)
                assert [random_dominant_vector(IndexAt(i), n, lo, hi, total)
                        for i in range(len(want))] == want, (n, lo, hi, total)
                if not want:
                    assert random_dominant_vector(
                        None, n, lo, hi, total) is None
    params, rng, ref = random.Random(4), random.Random(5), random.Random(5)
    for _ in range(300):
        n = params.randint(1, 5)
        total = params.randint(-4 * n - 2, 4 * n + 2)
        listed = dominant_vectors(n, -4, 4, total)
        want = ref.choice(listed) if listed else None
        assert random_dominant_vector(rng, n, -4, 4, total) == want
    assert rng.random() == ref.random()


def test_dominant_vectors_of_many_parts():
    assert dominant_vectors(1100, 0, 0) == [(0,) * 1100]
    assert dominant_vectors(1100, 0, 1, 1) == [(1,) + (0,) * 1099]
    assert dominant_vectors(1100, 0, 1, 1101) == []
    with pytest.raises(ValueError):
        dominant_vectors(-1, 0, 1)
