"""Exact rational linear programming by two-phase simplex.

Each row coef.x + const >= 0 gets a slack s_i = coef.x + const >= 0.  The
variables x are free, and the tableau starts with one Gaussian pivot per
free variable: x_j enters the basis on a row of its own, and that row is set
aside.  A set-aside row expresses x_j through the slacks; it takes part in
no ratio test, so x_j never leaves the basis.  Phase 1 and phase 2 then run
on the slack and artificial columns of the remaining rows only, with no
x+/x- split.

The optimum comes with two certificates read from the final tableau:

* optimality: the multipliers u_i >= 0 are minus the slack reduced costs,
  and they are checked exactly before returning;
* uniqueness: when every nonbasic slack column has a strictly negative
  reduced cost, any move off x loses objective, so x is the only optimum
  (Mangasarian, "Uniqueness of solution in linear programming", LAA 1979).
  A zero reduced cost leaves the question open.

The tableau is fraction-free (Edmonds 1967; Azulay & Pique, ACM TOMS 2001):
every row, the objective included, is scaled to integers once and then kept
as a primitive integer vector that is a positive multiple of the rational
row it stands for.  A pivot replaces row by p*row - f*prow and divides out
the gcd, so signs, and ratios compared by cross-products, are exactly those
of the rational tableau: Bland's least-index rule picks the same pivots, and
only the answer is turned back into Fractions.  Rows are updated only where
the pivot column is nonzero.  Problem sizes here stay small (a few dozen
rows).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import Infeasible, Unbounded


@dataclass(frozen=True)
class LPSolution:
    """An exact optimum with its optimality certificate.

    x maximizes value = c.x over the rows; multipliers u >= 0 are supported
    on active rows and satisfy sum(u_i * a_i) = -c, which proves optimality:
    c.x = -sum(u_i a_i.x) <= sum(u_i const_i) = c.x* for every feasible x.
    unique is True when the optimal tableau proves x the only optimum; False
    proves nothing either way.
    """

    x: tuple
    value: Fraction
    multipliers: tuple
    unique: bool


def _exact(v):
    """ints and Fractions as they are; anything else through Fraction."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _integral(row):
    """The primitive integer vector that is a positive multiple of row."""
    # star-args from lists, here and below: a tuple built from a generator
    # is shrunk to size, and the tuple free lists keep the leftovers (about
    # 1 MB of peak RSS on the lift benchmark)
    den = math.lcm(*[v.denominator for v in row])
    out = [v.numerator * (den // v.denominator) for v in row]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def _eliminate(row, f, p, nz):
    """row <- (p*row - f*prow) / gcd in place, for p = prow[col] > 0 and
    f = row[col]; nz lists the nonzero (j, prow[j]).  Entries of row past
    the end of prow (the objective's scale) are only multiplied by p."""
    g = math.gcd(f, p)
    if g > 1:
        f //= g
        p //= g
    if p != 1:
        row[:] = [p * v for v in row]
    for j, v in nz:
        row[j] -= f * v
    g = math.gcd(*row)
    if g > 1:
        row[:] = [v // g for v in row]


def _pivot(prow, col, rows):
    """Make column col basic in prow, eliminating it from the other rows.

    prow is negated first when its entry is negative; returns the entry and
    the nonzero (j, prow[j]) for further eliminations.
    """
    if prow[col] < 0:
        prow[:] = [-v for v in prow]
    p = prow[col]
    nz = [(j, v) for j, v in enumerate(prow) if v]
    for row in rows:
        f = row[col]
        if f and row is not prow:
            _eliminate(row, f, p, nz)
    return p, nz


def _gauss_jordan(tab, cols):
    """Pivot each column of cols in turn on the first unused row of tab with
    a nonzero entry there (_pivot, in place); returns {column: pivot row},
    in pivot order.  A column with no such row is skipped: it depends on the
    columns pivoted before it."""
    free = list(range(len(tab)))
    piv = {}
    for j in cols:
        for r in free:
            if tab[r][j]:
                _pivot(tab[r], j, tab)
                free.remove(r)
                piv[j] = r
                break
    return piv


def maximize(c, rows) -> LPSolution:
    """Maximize c.x subject to coef.x + const >= 0 for each row.

    Variables are free.  Raises Infeasible when the rows exclude every x,
    Unbounded when the objective grows without limit, ValueError when a row
    does not have one coefficient per variable.
    """
    c = [_exact(v) for v in c]
    rows = [([_exact(v) for v in coef], _exact(const)) for coef, const in rows]
    k = len(c)
    m = len(rows)
    if any(len(coef) != k for coef, _ in rows):
        raise ValueError(f"every row needs {k} coefficients")

    # row i: -a_i.x + s_i = const_i, laid out as [x (k) | s (m) | rhs]
    full = []
    for i, (coef, const) in enumerate(rows):
        row = [-v for v in coef] + [0] * m + [const]
        row[k + i] = 1
        full.append(_integral(row))

    # one Gaussian pivot per free variable; a column with nothing left to
    # pivot on is a line in the feasible set, kept nonbasic at zero
    aside = _gauss_jordan(full, range(k))  # free variable -> set-aside row
    lines = [j for j in range(k) if j not in aside]
    cons = [i for i in range(m) if i not in aside.values()]

    # the remaining rows mention slacks only, each with its own slack basic;
    # a negative constant needs an artificial: columns are
    # [s (m) | artificial (nart) | rhs]
    tab = []
    art_rows = []
    for i in cons:
        row = full[i][k:]
        if row[-1] < 0:
            row = [-v for v in row]
            art_rows.append(len(tab))
        tab.append(row)
    nart = len(art_rows)
    for row in tab:
        row[-1:-1] = [0] * nart
    for a, r in enumerate(art_rows):
        tab[r][m + a] = -tab[r][cons[r]]
    width = m + nart
    basis = list(cons)
    for a, r in enumerate(art_rows):
        basis[r] = m + a
    every = range(len(tab))

    # an objective row is [reduced costs | rhs | scale]: the true row over
    # its last entry; the rhs cell carries minus the objective value of the
    # basic solution
    def price(obj):
        for r, b in enumerate(basis):
            if obj[b]:
                row = tab[r]
                _eliminate(obj, obj[b], row[b],
                           [(j, v) for j, v in enumerate(row) if v])
        return obj

    def run(obj):
        while True:
            enter = next((j for j in range(width) if obj[j] > 0), None)
            if enter is None:
                return obj
            best = None
            for i in every:
                a = tab[i][enter]
                if a > 0:
                    # rhs_i / a against the best ratio, by cross-products
                    rhs = tab[i][-1]
                    if best is None:
                        best = (rhs, a, i)
                        continue
                    lhs, rgt = rhs * best[1], best[0] * a
                    if lhs < rgt or (lhs == rgt
                                     and basis[i] < basis[best[2]]):
                        best = (rhs, a, i)
            if best is None:
                raise Unbounded("objective increases without limit")
            r = best[2]
            p, nz = _pivot(tab[r], enter, tab)
            _eliminate(obj, obj[enter], p, nz)
            basis[r] = enter

    if nart:
        obj = run(price([0] * m + [-1] * nart + [0, 1]))
        if obj[-2] > 0:
            raise Infeasible("empty polytope")
        # drive leftover zero-value artificials out of the basis: the slack
        # parts of the rows stay independent, so each row has a slack to
        # pivot on; then drop the artificial columns
        for r in every:
            if basis[r] >= m:
                col = next(j for j in range(m) if tab[r][j])
                _pivot(tab[r], col, tab)
                basis[r] = col
        tab = [_integral(row[:m] + row[-1:]) for row in tab]
        width = m

    # the objective through the set-aside rows: x_j = rhs - (rest of row),
    # over the basic entry d_r of each set-aside row
    for j in lines:
        if c[j] != sum(c[i] * Fraction(full[r][j], full[r][i])
                       for i, r in aside.items()):
            raise Unbounded("objective increases along a line")
    *cint, cden = _integral(c + [1])
    dl = math.lcm(*[full[r][i] for i, r in aside.items()])
    cost = [0] * (m + 1) + [cden * dl]
    for i, r in aside.items():
        if cint[i]:
            f = cint[i] * (dl // full[r][i])
            for j, v in enumerate(full[r][k:]):
                if v:
                    cost[j] -= f * v
    obj = run(price(_integral(cost)))

    # the basic solution over one common denominator ds for the slacks
    ds = math.lcm(*[tab[r][b] for r, b in enumerate(basis)])
    s = [0] * m
    for r, b in enumerate(basis):
        s[b] = tab[r][-1] * (ds // tab[r][b])
    zero = Fraction(0)
    x = [zero] * k
    for j, r in aside.items():
        row = full[r]
        num = row[-1] * ds - sum(v * sv for v, sv in zip(row[k:-1], s)
                                 if v and sv)
        x[j] = Fraction(num, row[j] * ds)
    x = tuple(x)
    scale = obj[-1]
    mult = tuple(Fraction(-v, scale) if v else zero for v in obj[:m])
    value = sum(v * xi for v, xi in zip(c, x))
    basic = set(basis)
    unique = not lines and all(obj[j] < 0 for j in range(m)
                               if j not in basic)

    # exact certificate check, on the numerators: u >= 0 on active rows
    # only, sum u_i a_i = -c; x = xs / dx and u = -obj / scale
    dx = math.lcm(*[v.denominator for v in x])
    xs = [v.numerator * (dx // v.denominator) for v in x]
    for ui, (coef, const) in zip(obj, rows):
        slack = sum(v * xi for v, xi in zip(coef, xs) if v) + const * dx
        if slack < 0:
            raise RuntimeError("simplex optimizer is infeasible")
        if ui > 0 or (ui != 0 and slack != 0):
            raise RuntimeError("simplex multiplier negative or on a slack row")
    active = [(ui, coef) for ui, (coef, _) in zip(obj, rows) if ui]
    for j in range(k):
        if sum(ui * coef[j] for ui, coef in active) * cden != cint[j] * scale:
            raise RuntimeError("simplex certificate does not balance the "
                               "objective")
    return LPSolution(x, value, mult, unique)
