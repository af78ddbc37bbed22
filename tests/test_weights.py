"""Dominant weights and boundary triples: ints where integral."""

from fractions import Fraction

import pytest

from hivecomb import BoundaryTriple, as_weight, sigma_to_nu
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
