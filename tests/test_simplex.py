"""Exact simplex: free variables, both phases, failures and certificates."""

from fractions import Fraction

import pytest

from hivecomb.errors import Infeasible, Unbounded
from hivecomb.simplex import maximize

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
