"""The Fraction-tableau simplex that `hivecomb.simplex.maximize` replaced.

`maximize` here pivots `Fraction` tableaus with the same phases, Bland's
rule and certificate check as the integer simplex, so tests can require
both to return the same status, point, value, multipliers and uniqueness
flag.
"""

from fractions import Fraction

from hivecomb.errors import Infeasible, Unbounded
from hivecomb.simplex import LPSolution


def _pivot(tab, r, col, rows):
    """Make column col basic in row r, eliminating it from the given rows."""
    prow = tab[r]
    piv = prow[col]
    if piv != 1:
        prow[:] = [v / piv if v else v for v in prow]
    nz = [j for j, v in enumerate(prow) if v]
    for i in rows:
        row = tab[i]
        f = row[col]
        if i != r and f:
            for j in nz:
                row[j] -= f * prow[j]


def _subtract(dst, f, src):
    """dst -= f * src, touching only the nonzero entries of src."""
    for j, v in enumerate(src):
        if v:
            dst[j] -= f * v


def maximize(c, rows) -> LPSolution:
    """Maximize c.x subject to coef.x + const >= 0 for each row.

    Variables are free.  Raises Infeasible when the rows exclude every x,
    Unbounded when the objective grows without limit, ValueError when a row
    does not have one coefficient per variable.
    """
    c = [Fraction(v) for v in c]
    rows = [([Fraction(v) for v in coef], Fraction(const))
            for coef, const in rows]
    k = len(c)
    m = len(rows)
    if any(len(coef) != k for coef, _ in rows):
        raise ValueError(f"every row needs {k} coefficients")

    # row i: -a_i.x + s_i = const_i, laid out as [x (k) | s (m) | rhs]
    zero = Fraction(0)
    full = []
    for i, (coef, const) in enumerate(rows):
        row = [-v for v in coef] + [zero] * m + [const]
        row[k + i] = Fraction(1)
        full.append(row)

    # one Gaussian pivot per free variable; a column with nothing left to
    # pivot on is a line in the feasible set, kept nonbasic at zero
    aside = {}  # free variable -> its set-aside row
    for j in range(k):
        r = next((i for i in range(m)
                  if i not in aside.values() and full[i][j]), None)
        if r is not None:
            _pivot(full, r, j, range(m))
            aside[j] = r
    lines = [j for j in range(k) if j not in aside]
    cons = [i for i in range(m) if i not in aside.values()]

    # the remaining rows mention slacks only; a negative constant needs an
    # artificial: columns are [s (m) | artificial (nart) | rhs]
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
        row[-1:-1] = [zero] * nart
    for a, r in enumerate(art_rows):
        tab[r][m + a] = Fraction(1)
    width = m + nart
    basis = list(cons)
    for a, r in enumerate(art_rows):
        basis[r] = m + a
    every = range(len(tab))

    def price(obj):
        # reduced costs against the current basis; the rhs cell carries
        # minus the objective value of the basic solution
        for r, b in enumerate(basis):
            if obj[b]:
                _subtract(obj, obj[b], tab[r])
        return obj

    def run(obj):
        while True:
            enter = next((j for j in range(width) if obj[j] > 0), None)
            if enter is None:
                return obj
            best = None
            for i in every:
                if tab[i][enter] > 0:
                    ratio = tab[i][-1] / tab[i][enter]
                    if (best is None or ratio < best[0]
                            or (ratio == best[0] and basis[i] < basis[best[1]])):
                        best = (ratio, i)
            if best is None:
                raise Unbounded("objective increases without limit")
            r = best[1]
            _pivot(tab, r, enter, every)
            _subtract(obj, obj[enter], tab[r])
            basis[r] = enter

    if nart:
        phase1 = [zero] * m + [Fraction(-1)] * nart + [zero]
        obj = run(price(phase1))
        if obj[-1] > 0:
            raise Infeasible("empty polytope")
        # drive leftover zero-value artificials out of the basis: the slack
        # parts of the rows stay independent, so each row has a slack to
        # pivot on; then drop the artificial columns
        for r in every:
            if basis[r] >= m:
                col = next(j for j in range(m) if tab[r][j])
                _pivot(tab, r, col, every)
                basis[r] = col
        tab = [row[:m] + row[-1:] for row in tab]
        width = m

    # the objective through the set-aside rows: x_j = rhs - (rest of row)
    for j in lines:
        if c[j] != sum(c[i] * full[r][j] for i, r in aside.items()):
            raise Unbounded("objective increases along a line")
    cost = [zero] * (m + 1)
    for i, r in aside.items():
        _subtract(cost, c[i], full[r][k:])
    obj = run(price(cost))

    s = [zero] * m
    for r, b in enumerate(basis):
        s[b] = tab[r][-1]
    x = [zero] * k
    for j, r in aside.items():
        x[j] = full[r][-1] - sum(v * sv for v, sv in zip(full[r][k:-1], s)
                                 if v and sv)
    x = tuple(x)
    mult = tuple(-obj[i] for i in range(m))
    value = sum(v * xi for v, xi in zip(c, x))
    basic = set(basis)
    unique = not lines and all(obj[j] < 0 for j in range(m)
                               if j not in basic)

    # exact certificate check: u >= 0 on active rows only, sum u_i a_i = -c
    for ui, (coef, const) in zip(mult, rows):
        slack = sum(v * xi for v, xi in zip(coef, x)) + const
        if slack < 0:
            raise RuntimeError("simplex optimizer is infeasible")
        if ui < 0 or (ui != 0 and slack != 0):
            raise RuntimeError("simplex multiplier negative or on a slack row")
    for j in range(k):
        total = sum(ui * coef[j] for ui, (coef, _) in zip(mult, rows))
        if total != -c[j]:
            raise RuntimeError("simplex certificate does not balance the "
                               "objective")
    return LPSolution(x, value, mult, unique)
