"""Ground-truth cross-checks, kept independent of the main modules.

Implements the classical skew-tableaux Littlewood-Richardson rule, the Weyl
dimension formula, and vertex enumeration for the hive polytope.  The
enumeration solves every nonsingular square subsystem of the rhombus
constraints; the subsystems and their integer adjugates depend on n only, so
they are tabulated once per n and each boundary costs two int64 products.
From the package it takes only error types and the Hive and BoundaryTriple
data classes, which carry its input and its vertices; nothing here shares
combinatorial helpers with the hive or lift code: the boundary filling,
rhombus scan, and flat indexing are all reimplemented, so agreement between
the two sides is evidence rather than tautology.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice

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
    return _place(cells, mu)


def _place(cells, mu):
    """Tableaux filling cells in order, each cell trying its values in
    increasing order: a depth-first search on a stack of the value in place
    at each open cell (0 before the first), so it never recurses."""
    k = len(mu)
    used = [0] * (k + 1)  # used[v] counts the entries v placed so far
    grid, total = {}, 0
    placed = [0]
    while placed:
        r, c = cell = cells[len(placed) - 1]
        v = placed[-1]
        if v:
            used[v] -= 1
        else:
            v = grid.get((r - 1, c), 0)
        hi = min(grid.get((r, c + 1), k), r + 1, k)
        v += 1
        while v <= hi and (used[v] >= mu[v - 1]
                           or v > 1 and used[v] >= used[v - 1]):
            v += 1
        if v > hi:
            placed.pop()
            continue
        used[v] += 1
        grid[cell] = placed[-1] = v
        if len(placed) == len(cells):
            total += 1
        else:
            placed.append(0)
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


@lru_cache(maxsize=None)
def _square_table(n):
    """Every nonsingular square subsystem of the rhombus rows at size n.

    The coefficient rows do not depend on the boundary, so the k-subsets
    of them with nonzero determinant are found once per n.  Each comes with
    det = |det A| and the integer matrix adj = det * A^-1, checked exactly
    by adj @ A == det * I, so det * x = adj @ b solves A x = b.
    """
    zero = (0,) * n
    interior, rows = _rhombus_rows(n, _boundary_values(
        BoundaryTriple(zero, zero, zero)))
    k = len(interior)
    coef = np.array([c for c, _ in rows], dtype=np.int64).reshape(len(rows), k)
    subs, dets, adjs = [], [], []
    todo = combinations(range(len(rows)), k)
    while chunk := list(islice(todo, 1024)):
        sub = np.array(chunk, dtype=np.intp).reshape(len(chunk), k)
        mats = coef[sub]
        # float determinants are exact for these tiny integer matrices
        det = np.abs(np.rint(np.linalg.det(mats))).astype(np.int64)
        sub, mats, det = sub[det != 0], mats[det != 0], det[det != 0]
        det_eye = det[:, None, None] * np.eye(k, dtype=np.int64)
        # int8 storage; an entry it cannot hold fails the exact check
        adj = np.rint(det_eye @ np.linalg.inv(mats)).astype(np.int8)
        if not np.array_equal(adj @ mats, det_eye):
            raise ArithmeticError(f"inexact adjugate at n = {n}")
        subs.append(sub)
        dets.append(det)
        adjs.append(adj)
    sub, det, adj = (np.concatenate(a) for a in (subs, dets, adjs))
    # |det * den * slack| <= B * scale when every |const * den| <= B
    scale = (int(np.abs(coef).sum(1).max(initial=0))
             * int(np.abs(adj).sum(2).max(initial=0)) + int(det.max()))
    return coef, sub, det, adj, scale


def enumerate_polytope_vertices(t: BoundaryTriple, allow_large=False):
    """All vertices of the hive polytope over boundary t, exactly.

    Every nonsingular square subsystem of rhombus constraints, taken tight,
    gives a candidate; the feasible ones are the vertices.  The subsystems
    and their adjugates come from a per-n table, so one boundary costs two
    int64 products over it.  Building that table explodes combinatorially,
    so n > 4 is refused unless allow_large is set; constants too large for
    int64 are refused always.
    """
    n = t.n
    if n > 4 and not allow_large:
        raise TooLarge(f"vertex enumeration at n = {n} needs allow_large")
    boundary = _boundary_values(t)
    interior, rows = _rhombus_rows(n, boundary)
    coef, sub, det, adj, scale = _square_table(n)
    den = math.lcm(*[const.denominator for _, const in rows])
    consts = [int(const * den) for _, const in rows]
    if max(map(abs, consts), default=0) * scale >= 2 ** 63:
        raise TooLarge("boundary too large for int64 vertex enumeration")
    consts = np.array(consts, dtype=np.int64)
    # det * den * x and det for every subset, then det * den * every slack
    xs = np.column_stack([np.einsum("sij,sj->si", adj, -consts[sub]), det])
    feasible = (xs @ np.column_stack([coef, consts]).T >= 0).all(1)
    verts = {tuple(Fraction(v, d * den) for v in x)
             for *x, d in set(map(tuple, xs[feasible].tolist()))}
    out = []
    for x in verts:
        at = {**boundary, **dict(zip(interior, x))}
        out.append(Hive(n, [at[(r - j, j)]
                            for r in range(n + 1) for j in range(r + 1)]))
    out.sort(key=lambda h: h.entries)
    return out
