"""Exact simplex: free variables, both phases, failures, certificates, and
agreement with the Fraction-tableau reference."""

import random
from fractions import Fraction

import pytest

import simplex_reference
from hivecomb import simplex
from hivecomb.errors import Infeasible, Unbounded
from hivecomb.hive import HiveShape
from hivecomb.lift import _lp_rows, make_weight_function, wperim_objective
from hivecomb.simplex import maximize
from test_acceptance import _random_feasible

F = Fraction


def certified(c, rows, sol):
    """The solution is feasible and its multipliers prove it optimal."""
    for u, (coef, const) in zip(sol.multipliers, rows):
        slack = sum(a * x for a, x in zip(coef, sol.x)) + const
        assert slack >= 0 and u >= 0 and (u == 0 or slack == 0)
    for j, cj in enumerate(c):
        assert sum(u * coef[j]
                   for u, (coef, _) in zip(sol.multipliers, rows)) == -cj
    return sol.value == sum(a * x for a, x in zip(c, sol.x))


class TestFreeVariables:
    def test_negative_optimum(self):
        # x <= -2 and x >= -7: the maximum of x sits below zero
        rows = [((-1,), -2), ((1,), 7)]
        sol = maximize((1,), rows)
        assert sol.x == (F(-2),) and sol.value == -2
        assert sol.multipliers == (1, 0)
        assert sol.unique
        assert certified((1,), rows, sol)

    def test_phase_one(self):
        # x pivots into the basis on x >= 0, which leaves x - 2 >= 0 as
        # s_1 - s_0 = -2: a negative constant that needs an artificial
        rows = [((1,), 0), ((1,), -2), ((-1,), 5)]
        sol = maximize((-1,), rows)
        assert sol.x == (F(2),) and sol.value == -2
        assert sol.multipliers == (0, 1, 0)
        assert sol.unique
        assert certified((-1,), rows, sol)

    def test_redundant_row(self):
        # x >= 1 twice against x <= 1: phase 1 ends with an artificial
        # basic at zero on the repeated row, pivoted out before phase 2
        rows = [((1,), 1), ((1,), -1), ((-1,), 1), ((1,), -1)]
        sol = maximize((-1,), rows)
        assert sol.x == (F(1),) and sol.value == -1
        assert certified((-1,), rows, sol)
        sol = maximize((1,), rows)
        assert sol.x == (F(1),) and sol.value == 1
        assert certified((1,), rows, sol)

    def test_two_dimensional_vertex(self):
        # the triangle x, y >= 0, x + y <= 4 with 3x + 2y: vertex (4, 0)
        rows = [((1, 0), 0), ((0, 1), 0), ((-1, -1), 4)]
        sol = maximize((3, 2), rows)
        assert sol.x == (F(4), F(0)) and sol.value == 12
        assert sol.multipliers == (0, 1, 3)
        assert sol.unique
        assert certified((3, 2), rows, sol)


class TestFailures:
    def test_infeasible(self):
        with pytest.raises(Infeasible):
            maximize((1,), [((1,), -3), ((-1,), 1)])

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            maximize((1,), [((1,), 0)])

    def test_unbounded_along_a_line(self):
        # y appears in no row, so it moves freely and the objective with it
        with pytest.raises(Unbounded):
            maximize((0, 1), [((1, 0), 0), ((-1, 0), 4)])

    def test_infeasible_before_unbounded(self):
        with pytest.raises(Infeasible):
            maximize((0, 1), [((1, 0), -3), ((-1, 0), 1)])

    def test_ragged_rows(self):
        with pytest.raises(ValueError):
            maximize((1, 1), [((1,), 0)])


class TestUniquenessCertificate:
    SQUARE = [((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), 1)]

    def test_generic_objective(self):
        sol = maximize((2, 3), self.SQUARE)
        assert sol.x == (F(1), F(1)) and sol.unique
        assert certified((2, 3), self.SQUARE, sol)

    def test_zero_objective(self):
        sol = maximize((0, 0), self.SQUARE)
        assert sol.value == 0 and not sol.unique
        assert certified((0, 0), self.SQUARE, sol)

    def test_objective_along_an_edge(self):
        # x + 0y is maximal on the whole edge x = 1
        sol = maximize((1, 0), self.SQUARE)
        assert sol.value == 1 and not sol.unique

    def test_free_line(self):
        # y appears in no row and costs nothing: every y is optimal
        sol = maximize((1, 0), [((1, 0), 0), ((-1, 0), 4)])
        assert sol.x == (F(4), F(0)) and not sol.unique


def _outcome(solve, c, rows):
    """Status and answer of one solve, for exact comparison."""
    try:
        sol = solve(c, rows)
    except (Infeasible, Unbounded) as ex:
        return type(ex).__name__
    assert all(type(v) is Fraction for v in sol.x + sol.multipliers)
    return sol.x, sol.value, sol.multipliers, sol.unique


def _random_lp(rng):
    """A small LP, drawn to reach every status and the tie-breaking paths."""
    k = rng.randint(1, 4)
    m = rng.randint(0, 7)
    denoms = (1, 1, 1, 2, 3) if rng.random() < 0.3 else (1,)

    def num(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.choice(denoms))

    rows = [([num(-3, 3) for _ in range(k)], num(-5, 5)) for _ in range(m)]
    if rng.random() < 0.5:  # a box keeps it bounded
        b = rng.randint(0, 4)
        for j in range(k):
            for sign in (1, -1):
                coef = [0] * k
                coef[j] = sign
                rows.append((coef, b))
    if rng.random() < 0.2:  # a free line: one variable in no row
        j = rng.randrange(k)
        for coef, _ in rows:
            coef[j] = 0
    if rows and rng.random() < 0.2:  # a repeated row
        rows.append(rng.choice(rows))
    rng.shuffle(rows)
    kind = rng.random()
    if kind < 0.15:  # zero objective: everything feasible is optimal
        c = [0] * k
    elif kind < 0.3 and rows:  # parallel to a row: ties along its facet
        coef, _ = rng.choice(rows)
        c = [-v * rng.randint(1, 3) for v in coef]
    else:
        c = [num(-4, 4) for _ in range(k)]
    return c, rows


@pytest.mark.parametrize("column, delta, message", [
    (-1, -1, "optimizer is infeasible"),
    (-1, 1, "multiplier negative or on a slack row"),
    (1, 1, "certificate does not balance the objective"),
])
def test_corrupted_certificate_raises(monkeypatch, column, delta, message):
    """Each exact check of the final certificate catches a tableau that
    went wrong: maximize -x over 0 <= x <= 5, with the set-aside row of x
    moved after its pivot (its constant, or its slack coefficient of row
    x >= 0)."""
    reduce = simplex._gauss_jordan

    def moved(tab, cols):
        piv = reduce(tab, cols)
        tab[piv[0]][column] += delta
        return piv

    monkeypatch.setattr(simplex, "_gauss_jordan", moved)
    with pytest.raises(RuntimeError, match=message):
        maximize((-1,), [((1,), 0), ((-1,), 5)])


def test_matches_fraction_reference_on_random_lps():
    rng = random.Random(31)
    seen = set()
    for _ in range(3000):
        c, rows = _random_lp(rng)
        got = _outcome(maximize, c, rows)
        assert got == _outcome(simplex_reference.maximize, c, rows), (c, rows)
        seen.add(got if isinstance(got, str) else got[3])
    assert seen == {"Infeasible", "Unbounded", True, False}


def test_matches_fraction_reference_on_lift_lps():
    # the 200 regular boundaries of test_acceptance's largest-lift runs
    rng = random.Random(200)
    for k in range(200):
        n = 2 + k % 4
        t = _random_feasible(n, rng, bound=8, regular=True)
        _, _, rows = _lp_rows(t)
        ov = wperim_objective(make_weight_function(n))
        c = [ov.coeffs[p] for p in HiveShape(n).interior()]
        assert (_outcome(maximize, c, rows)
                == _outcome(simplex_reference.maximize, c, rows)), t
