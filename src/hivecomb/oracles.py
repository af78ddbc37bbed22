"""Ground-truth cross-checks, kept independent of the main modules.

Implements the classical skew-tableaux Littlewood-Richardson rule, the Weyl
dimension formula, and brute-force vertex enumeration for the hive polytope.
Nothing here shares combinatorial helpers with the hive or lift code: the
boundary filling, rhombus scan, and flat indexing are all reimplemented, so
agreement between the two sides is evidence rather than tautology.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import SizeMismatch, TooLarge
from .hive import Hive
from .weights import BoundaryTriple


def as_partition(seq) -> tuple:
    """Validate a weakly decreasing nonnegative integer sequence.

    Trailing zeros are stripped so equal partitions compare equal.
    """
    parts = [int(x) for x in seq]
    if any(p != x for p, x in zip(parts, seq)):
        raise ValueError("partition entries must be integers")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("partition entries must weakly decrease")
    if parts and parts[-1] < 0:
        raise ValueError("partition entries must be nonnegative")
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def lr_coefficient_tableaux(lam, mu, nu_star) -> int:
    """Count LR skew tableaux of shape nu_star/lam with content mu.

    A tableau qualifies when rows weakly increase, columns strictly
    increase, and the right-to-left, top-to-bottom reading word is a
    lattice word.  Plain backtracking in reading order; each placement is
    checked against the row neighbor, the column neighbor, the content
    quota, and the running lattice counts.
    """
    lam, mu, nu_star = as_partition(lam), as_partition(mu), as_partition(nu_star)
    if sum(nu_star) != sum(lam) + sum(mu):
        raise SizeMismatch(
            f"|nu*| = {sum(nu_star)} but |lam| + |mu| = {sum(lam) + sum(mu)}")
    if len(lam) > len(nu_star):
        return 0
    if any(l > v for l, v in zip(lam, nu_star)):
        return 0
    if not mu:
        return 1

    rows = len(nu_star)
    inner = lam + (0,) * (rows - len(lam))
    cells = []
    for r in range(rows):
        for c in range(nu_star[r] - 1, inner[r] - 1, -1):
            cells.append((r, c))
    return _place(cells, 0, mu, [0] * (len(mu) + 1), {})


def _place(cells, pos, mu, used, grid):
    """Tableaux completing grid from cells[pos] on; used[v] counts the
    entries v placed so far."""
    if pos == len(cells):
        return 1
    k = len(mu)
    r, c = cells[pos]
    right = grid.get((r, c + 1), k)
    above = grid.get((r - 1, c), 0) if r > 0 else 0
    total = 0
    for v in range(above + 1, min(right, r + 1, k) + 1):
        if used[v] >= mu[v - 1]:
            continue
        if v > 1 and used[v] >= used[v - 1]:
            continue
        used[v] += 1
        grid[(r, c)] = v
        total += _place(cells, pos + 1, mu, used, grid)
        used[v] -= 1
    grid.pop((r, c), None)
    return total


def partition_triple(t: BoundaryTriple):
    """Shift a zero-sum triple into partition form for the tableaux rule.

    Twists lambda and mu up by determinant powers until nonnegative, then
    reverses and negates the twisted nu.  Counting is twist-invariant, so
    the transcribed coefficient equals the original multiplicity.
    """
    if not t.integral:
        raise ValueError("transcription needs an integral triple")
    b = max(0, -int(t.mu[-1]))
    a = max(0, -int(t.lam[-1]), int(t.nu[0]) - b)
    lam = tuple(int(x) + a for x in t.lam)
    mu = tuple(int(x) + b for x in t.mu)
    nu_star = tuple(a + b - int(x) for x in reversed(t.nu))
    assert min(lam + mu + nu_star) >= 0
    assert sum(nu_star) == sum(lam) + sum(mu)
    return lam, mu, nu_star


def transcribed_lr_count(t: BoundaryTriple) -> int:
    """Tensor-product multiplicity of t via the tableaux rule."""
    lam, mu, nu_star = partition_triple(t)
    return lr_coefficient_tableaux(lam, mu, nu_star)


def weyl_dim(lam, n=None) -> int:
    """Dimension of the irreducible with highest weight lam.

    prod over i < j of (lam_i - lam_j + j - i) / (j - i), 1-indexed.
    """
    lam = tuple(Fraction(x) for x in lam)
    if n is None:
        n = len(lam)
    if n != len(lam):
        raise ValueError(f"weight has length {len(lam)}, expected {n}")
    d = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            d *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert d.denominator == 1
    return int(d)


def _boundary_values(t: BoundaryTriple) -> dict:
    n = t.n
    out = {(0, 0): Fraction(0)}
    acc = Fraction(0)
    for i in range(1, n + 1):
        acc += t.lam[i - 1]
        out[(i, 0)] = acc
    for s in range(1, n + 1):
        acc += t.mu[s - 1]
        out[(n - s, s)] = acc
    # walk the nu side from the top corner back down: H(0,j-1) - H(0,j) = nu_{n-j+1}
    acc = out[(0, n)]
    for j in range(n, 0, -1):
        out[(0, j - 1)] = acc + t.nu[n - j]
        acc = out[(0, j - 1)]
    assert out[(0, 0)] == 0
    return out


def _rhombus_rows(n, boundary):
    """Constraint rows (coeffs over interior vars, constant) for all rhombi."""
    pts = {(i, j) for i in range(n + 1) for j in range(n + 1 - i)}
    interior = sorted(p for p in pts if p not in boundary)
    index = {p: k for k, p in enumerate(interior)}
    apex = {(0, 1): ((1, 0), (-1, 1)), (1, 0): ((1, -1), (0, 1)),
            (1, -1): ((0, -1), (1, 0))}
    rows = []
    for p in sorted(pts):
        for s, (o1, o2) in apex.items():
            q = (p[0] + s[0], p[1] + s[1])
            a1 = (p[0] + o1[0], p[1] + o1[1])
            a2 = (p[0] + o2[0], p[1] + o2[1])
            if not {q, a1, a2} <= pts:
                continue
            coef = [0] * len(interior)
            const = Fraction(0)
            for pt, sign in ((p, 1), (q, 1), (a1, -1), (a2, -1)):
                if pt in index:
                    coef[index[pt]] += sign
                else:
                    const += sign * boundary[pt]
            rows.append((tuple(coef), const))
    return interior, rows


def _solve_square(rows):
    """Exact solve of a square linear system; None when singular.

    Fraction-free (Bareiss) elimination in integers: the constants are put
    over one denominator, every division is exact, and only the solution is
    turned into Fractions.
    """
    k = len(rows)
    den = math.lcm(*[Fraction(const).denominator for _, const in rows])
    m = [[int(c) for c in coef] + [int(-Fraction(const) * den)]
         for coef, const in rows]
    prev = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        top = m[col]
        p = top[col]
        for r in range(col + 1, k):
            f = m[r][col]
            m[r] = [(v * p - f * t) // prev for v, t in zip(m[r], top)]
        prev = p
    # prev is now det; back substitution gives the Cramer numerators det*x
    num = [0] * k
    for i in reversed(range(k)):
        acc = prev * m[i][k] - sum(m[i][j] * num[j] for j in range(i + 1, k))
        num[i] = acc // m[i][i]
    return [Fraction(v, prev * den) for v in num]


def enumerate_polytope_vertices(t: BoundaryTriple, allow_large=False):
    """All vertices of the hive polytope over boundary t, exactly.

    Brute force over square subsystems of tight rhombus constraints, so the
    cost explodes combinatorially; refuses n > 4 unless allow_large is set.
    """
    n = t.n
    if n > 4 and not allow_large:
        raise TooLarge(f"vertex enumeration at n = {n} needs allow_large")
    boundary = _boundary_values(t)
    interior, rows = _rhombus_rows(n, boundary)
    k = len(interior)

    def to_hive(values):
        ent = []
        at = dict(zip(interior, values))
        for r in range(n + 1):
            for j in range(r + 1):
                p = (r - j, j)
                ent.append(boundary[p] if p in boundary else at[p])
        return Hive(n, ent)

    if k == 0:
        if all(const >= 0 for _, const in rows):
            return [to_hive([])]
        return []

    var_rows = [row for row in rows if any(row[0])]
    subsets = list(combinations(range(len(var_rows)), k))
    # float determinants are exact for these tiny integer matrices and let
    # numpy discard the (many) singular subsets in one pass
    mats = np.array([[var_rows[i][0] for i in sub] for sub in subsets],
                    dtype=np.float64)
    keep = np.abs(np.linalg.det(mats)) > 0.5
    seen = set()
    out = []
    for sub, ok in zip(subsets, keep):
        if not ok:
            continue
        x = _solve_square([var_rows[i] for i in sub])
        if x is None or tuple(x) in seen:
            continue
        seen.add(tuple(x))
        if all(sum(c * v for c, v in zip(coef, x)) + const >= 0
               for coef, const in rows):
            out.append(to_hive(x))
    out.sort(key=lambda h: h.entries)
    return out
