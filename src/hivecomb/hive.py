"""Hives: triangular arrays that coordinatize honeycombs.

A hive of size n assigns a rational to every lattice point (i, j) with
i, j >= 0 and i + j <= n, subject to one inequality per rhombus (pair of
edge-adjacent small triangles): the sum over the two obtuse corners minus
the sum over the two acute corners is >= 0.  Entries are stored in
antidiagonal rows from the zero corner: row r lists (r,0), (r-1,1), ..., (0,r).

Walking the triangle boundary clockwise from the zero corner, consecutive
differences read lambda, then mu, then nu; the zero-sum condition makes the
walk close up.  hive_to_honeycomb / honeycomb_to_hive realize the linear
correspondence with configurations, under which each rhombus value is the
length of one honeycomb edge.
"""

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, product
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import DirectionViolation, RhombusViolation
from .honeycomb import (Honeycomb, Partition, build_gl_tinkertoy, dual_graph,
                        triangle, validate_configuration)
from .plane import coord
from .weights import BoundaryTriple, as_weight, dominant_vectors, is_integral


def hive_indices(n):
    """All (i, j) of the size-n triangle in antidiagonal row-major order."""
    return [(r - p, p) for r in range(n + 1) for p in range(r + 1)]


def _flat(i, j):
    r = i + j
    return r * (r + 1) // 2 + j


@dataclass(frozen=True)
class HiveShape:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("hive size must be at least 1")

    @property
    def size(self) -> int:
        return (self.n + 1) * (self.n + 2) // 2

    def indices(self):
        return hive_indices(self.n)

    def interior(self):
        return [(i, j) for i, j in hive_indices(self.n)
                if i >= 1 and j >= 1 and i + j <= self.n - 1]

    def boundary(self):
        return [(i, j) for i, j in hive_indices(self.n)
                if i == 0 or j == 0 or i + j == self.n]


# obtuse pairs differ by one of these steps; each maps to its two acute apexes
_APEX = {
    (0, 1): ((1, 0), (-1, 1)),
    (1, 0): ((1, -1), (0, 1)),
    (1, -1): ((0, -1), (1, 0)),
}


@dataclass(frozen=True)
class Rhombus:
    obtuse: tuple
    acute: tuple

    @property
    def corners(self):
        return self.obtuse + self.acute


def _rhombus_at(p, s):
    apex = _APEX[s]
    return Rhombus((p, (p[0] + s[0], p[1] + s[1])),
                   ((p[0] + apex[0][0], p[1] + apex[0][1]),
                    (p[0] + apex[1][0], p[1] + apex[1][1])))


def _rhombus_between(p, q):
    """The rhombus whose obtuse corners are the adjacent entries p and q."""
    s = (q[0] - p[0], q[1] - p[1])
    if s in _APEX:
        return _rhombus_at(p, s)
    return _rhombus_at(q, (-s[0], -s[1]))


class _Plan(NamedTuple):
    """The rhombus system of the size-n hive, laid out once.  Interior
    entries come in scan order (antidiagonal rows from the zero corner): the
    frontier's fill order and the variable order of the LP and vertex hunt.
    """

    rhombi: tuple  # every Rhombus, in scan order
    walk: tuple  # flat indices of _walk(n)
    scan: tuple  # (iidx, lo_ptr, lo_abc, up_ptr, up_abc) for _kernels.frontier
    bounds: tuple  # the scan per interior entry as Python ints, for
    # _kernels.depth_first: (flat index, flat lower triples, flat upper)
    fixed: tuple  # boundary-only rhombi (only at n = 2, with no interior
    # entry): flat (obtuse, obtuse, acute, acute)
    quads: np.ndarray  # every rhombus: flat (obtuse, obtuse, acute, acute)


def _walk(n):
    """The boundary after (0, 0), clockwise: lambda side, mu side, nu side."""
    return ([(i, 0) for i in range(1, n + 1)]
            + [(n - s, s) for s in range(1, n + 1)]
            + [(0, j) for j in range(n - 1, 0, -1)])


def _csr(bounds):
    """Per-entry tuples of flat (a, b, c) triples as CSR arrays."""
    ptr = np.cumsum([0] + [len(b) for b in bounds], dtype=np.int64)
    abc = np.array([t for b in bounds for t in b], dtype=np.int64)
    return ptr, abc.reshape(-1, 3)


#: The largest hive size whose plan is built.  A plan holds about n^2
#: Rhombus objects (3n(n-1)/2 rhombi) and their corner arrays; building
#: one takes about 1 s and 130 MB at n = 256.
PLAN_MAX_N = 64


@cache
def _plan(n) -> _Plan:
    """Each rhombus as a kernel bound on its last interior entry in scan
    order (a fixed check when it has none) and by its flat corners: about
    n^2 objects (see PLAN_MAX_N).  The LP builds its rows from the corners
    (lift._lp_maps).  ValueError past PLAN_MAX_N, before anything is built."""
    if n > PLAN_MAX_N:
        raise ValueError(f"input too large: hive size {n} is past the "
                         f"largest planned size, {PLAN_MAX_N}")
    order = hive_indices(n)
    inside = set(order)
    found = [r for r in (_rhombus_at(p, s) for p in order for s in _APEX)
             if all(c in inside for c in r.corners)]
    interior = tuple(HiveShape(n).interior())
    ipos = {p: k for k, p in enumerate(interior)}
    lower = [[] for _ in interior]
    upper = [[] for _ in interior]
    fixed = []
    quads = [tuple(_flat(*c) for c in r.corners) for r in found]
    for k, r in enumerate(found):
        inter = [c for c in r.corners if c in ipos]
        if not inter:
            fixed.append(quads[k])
            continue
        # the last corner set is bounded by the other three: below when it
        # is obtuse, above when it is acute
        last = max(inter, key=ipos.get)
        pair, rest = ((r.obtuse, r.acute) if last in r.obtuse
                      else (r.acute, r.obtuse))
        side = lower if pair is r.obtuse else upper
        side[ipos[last]].append(
            tuple(_flat(*p) for p in (*rest, pair[pair[0] == last])))
    # the antidiagonal scan always yields at least one bound on each side
    assert all(lower) and all(upper), "unbounded interior entry in scan"
    slots = [_flat(*p) for p in interior]
    return _Plan(tuple(found), tuple(_flat(*p) for p in _walk(n)),
                 (np.array(slots, dtype=np.int64), *_csr(lower),
                  *_csr(upper)),
                 tuple((k, tuple(chain(*lo)), tuple(chain(*up)))
                       for k, lo, up in zip(slots, lower, upper)),
                 tuple(fixed), np.array(quads, dtype=np.int64).reshape(-1, 4))


def rhombi(shape):
    """Every pair of edge-adjacent small triangles, in scan order."""
    return _plan(shape.n if isinstance(shape, HiveShape) else int(shape)).rhombi


class Hive:
    """An assignment of exact rationals to the size-n triangle, each held
    as plane.coord stores it: an int where integral, else a Fraction."""

    def __init__(self, n, entries):
        self.n = n
        entries = tuple(coord(x) for x in entries)
        size = HiveShape(n).size  # ValueError below size 1
        if len(entries) != size:
            raise ValueError(f"a size-{n} hive has {size} entries, "
                             f"got {len(entries)}")
        self.entries = entries

    def value(self, i, j):
        if i < 0 or j < 0 or i + j > self.n:
            raise KeyError((i, j))
        return self.entries[_flat(i, j)]

    def __getitem__(self, ij):
        return self.value(*ij)

    @property
    def shape(self) -> HiveShape:
        return HiveShape(self.n)

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.entries)

    def first_violation(self):
        """The first rhombus (in scan order) with negative value, or None."""
        e = self.entries
        plan = _plan(self.n)
        for r, (o1, o2, a1, a2) in zip(plan.rhombi, plan.quads.tolist()):
            if e[o1] + e[o2] - e[a1] - e[a2] < 0:
                return r
        return None

    @property
    def is_valid(self) -> bool:
        return self.first_violation() is None

    def boundary_triple(self) -> BoundaryTriple:
        """Consecutive differences around the clockwise boundary walk."""
        n, e = self.n, self.entries
        loop = (0, *_plan(n).walk, 0)
        steps = [e[b] - e[a] for a, b in zip(loop, loop[1:])]
        return BoundaryTriple(steps[:n], steps[n:2 * n], steps[2 * n:])

    def replaced(self, ij, v) -> "Hive":
        ent = list(self.entries)
        ent[_flat(*ij)] = v
        return Hive(self.n, ent)

    def __eq__(self, other):
        return (isinstance(other, Hive) and self.n == other.n
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.n, self.entries))

    def __repr__(self):
        rows = []
        for r in range(self.n + 1):
            rows.append(" ".join(str(self.entries[_flat(r - p, p)])
                                 for p in range(r + 1)))
        return "Hive(" + " | ".join(rows) + ")"


def rhombus_value(H: Hive, r: Rhombus):
    return (H[r.obtuse[0]] + H[r.obtuse[1]]
            - H[r.acute[0]] - H[r.acute[1]])


def boundary_from_weights(t: BoundaryTriple) -> dict:
    """Boundary entries as partial sums along the clockwise walk."""
    steps = t.lam + t.mu + t.nu[:-1]
    return {(0, 0): 0, **dict(zip(_walk(t.n), accumulate(steps)))}


# ---------------------------------------------------------------------------
# the linear correspondence with honeycomb configurations

def root_of(n, i, j):
    """The dual-graph point of tau_n carrying hive index (i, j)."""
    return (2 * n - 2 * i - j, -n + i - j, -n + i + 2 * j)


def hive_index_of(n, p):
    """Inverse of root_of."""
    a, b, c = p[0] - 2 * n, p[1] + n, p[2] + n
    i, j = (b - a) // 3, -(a + 2 * b) // 3
    assert root_of(n, i, j) == tuple(p)
    return (i, j)


def _gl_size(census):
    n = census[0]
    if tuple(census) != (n, 0, n, 0, n, 0):
        raise ValueError(f"not a GL_n honeycomb type: {census}")
    return n


@cache
def _vertex_table(n):
    """tau_n with, for each vertex in sorted order, the flat indices of the
    entries that give its coordinates: (below, above) per axis; and the
    inverse, one (earlier entry, vertex index, axis, sign) per entry after
    the zero corner, in flat order.

    The dual points of a vertex sit one below, level with and one above it
    on each axis; that coordinate is the entry below minus the one above.
    Built once per n and shared, like build_gl_tinkertoy.
    """
    t = build_gl_tinkertoy(n)
    flat = {root_of(n, i, j): _flat(i, j) for i, j in hive_indices(n)}
    rows, fill = [], {}
    for k, v in enumerate(t.sorted_vertices):
        tri = triangle(v)
        axes = tuple((flat[next(p for p in tri if p[a] == v[a] - 1)],
                      flat[next(p for p in tri if p[a] == v[a] + 1)])
                     for a in range(3))
        rows.append((v, axes))
        for a, (lo, hi) in enumerate(axes):
            if lo > hi:
                fill.setdefault(lo, (hi, k, a, 1))
            else:
                fill.setdefault(hi, (lo, k, a, -1))
    return t, tuple(rows), tuple(fill[k] for k in range(1, len(flat)))


def hive_to_honeycomb(H: Hive) -> Honeycomb:
    """Place every tau_n vertex using differences of surrounding entries.

    Integral entries, as in every largest lift over an integral regular
    boundary, go in as ints, so the honeycomb is built in int arithmetic.
    """
    bad = H.first_violation()
    if bad is not None:
        raise RhombusViolation(bad, rhombus_value(H, bad))
    t, rows, _ = _vertex_table(H.n)
    e = H.entries
    pos = {v: (e[x0] - e[x1], e[y0] - e[y1], e[z0] - e[z1])
           for v, ((x0, x1), (y0, y1), (z0, z1)) in rows}
    return validate_configuration(t, pos)


def honeycomb_to_hive(h: Honeycomb) -> Hive:
    """Invert hive_to_honeycomb, pinning the zero-corner entry to 0.

    Each entry after the zero corner is an earlier one plus or minus one
    vertex coordinate (_vertex_table).  The hive is then mapped back onto
    every position; a mismatch means some edge is off its axis, and raises
    DirectionViolation.  The tinkertoy of a type is unique up to
    translation, which keeps the sorted order, so h's vertices line up with
    the table's rows.
    """
    n = _gl_size(h.tinkertoy.type)
    _, rows, fill = _vertex_table(n)
    verts = h.tinkertoy.sorted_vertices
    pos = [h.position(v).coords() for v in verts]
    e = [0]
    for other, k, a, sign in fill:
        e.append(e[other] + sign * pos[k][a])
    for v, p, (_, axes) in zip(verts, pos, rows):
        for a, (lo, hi) in enumerate(axes):
            if e[lo] - e[hi] != p[a]:
                edge = next(x for x in h.tinkertoy.edges
                            if v in (x.tail, x.head)
                            and x.direction.constant_axis == a)
                raise DirectionViolation(
                    edge, f"constant coordinate {p[a]} at {v}, but the hive "
                    f"filled from the other positions gives {e[lo] - e[hi]}")
    return Hive(n, e)


# ---------------------------------------------------------------------------
# counting and enumeration

#: Bound on |entry| for every row the kernel scan builds; see _kernel_row.
_ENTRY_LIMIT = 1 << 60


def _check_bound(bound):
    """OverflowError when kernel entries up to `bound` pass _ENTRY_LIMIT."""
    if bound > _ENTRY_LIMIT:
        raise OverflowError(f"hive entries up to {bound} do not fit the int64 "
                            f"kernels (limit 2^60)")


def _twist_shift(t: BoundaryTriple) -> list:
    """Entries lam_n*i + (lam_n+mu_n)*j, in flat order, by which a twist
    by (lam_n, mu_n) moves hive entry (i, j).  They are linear in (i, j),
    so no rhombus value changes."""
    a, b = int(t.lam[-1]), int(t.mu[-1])
    return [a * i + (a + b) * j for i, j in hive_indices(t.n)]


def _kernel_row(t: BoundaryTriple):
    """The boundary of t twisted by (-lam_n, -mu_n), as an int64 kernel row
    with zero interior, or None when a boundary-only rhombus is negative
    (then no hive, integral or not, has this boundary).

    The row is the clockwise walk over the twisted weights, summed in
    Python ints.  The twist makes entry sizes depend on the spread of the
    weights, not on their size.  The scan bounds interior entry (i, j) above
    by H(i-1,j) + H(i,j-1) - H(i-1,j-1) and below by
    H(i+1,j-1) + H(i-1,j) - H(i,j-1), so its step H(i,j) - H(i-1,j) lies
    between the steps at (i+1,j-1) and (i,j-1); by induction on j, every
    step lies in [lam_n, lam_1], which the twist moves to [0, lam_1 - lam_n].
    So every entry of every row the scan builds is within
    B = max|boundary entry| + (n-2)(lam_1 - lam_n), every bound triple within
    3B and every width within 6B + 1.  B <= 2^60 keeps these inside the
    +-2^62 sentinels and int64; past it this raises OverflowError.
    """
    if not t.integral:
        raise ValueError("the hive kernels need an integral boundary")
    plan = _plan(t.n)
    lam, mu, nu = ([x.numerator for x in w] for w in (t.lam, t.mu, t.nu))
    a, b = lam[-1], mu[-1]
    row = [0] * HiveShape(t.n).size
    steps = ([x - a for x in lam] + [x - b for x in mu]
             + [x + a + b for x in nu[:-1]])
    for k, v in zip(plan.walk, accumulate(steps)):
        row[k] = v
    for o1, o2, a1, a2 in plan.fixed:
        if row[o1] + row[o2] - row[a1] - row[a2] < 0:
            return None
    _check_bound(max(map(abs, row)) + max(t.n - 2, 0) * (lam[0] - a))
    return np.array(row, dtype=np.int64)


def count_lattice_hives(t: BoundaryTriple) -> int:
    """Number of integer hives with the given boundary.

    The kernels walk the boundary twisted to lam_n = mu_n = 0: depth-first
    in Python ints while the count takes at most _kernels.DFS_NODES partial
    rows, else by the frontier in bounded memory.  OverflowError when the
    weights spread past 2^60.
    """
    row = _kernel_row(t)
    if row is None:
        return 0
    plan = _plan(t.n)
    return int(_kernels.count_assignments(row, *plan.scan,
                                          bounds=plan.bounds))


def exists_lattice_hive(t: BoundaryTriple) -> bool:
    """Whether count_lattice_hives(t) >= 1, stopping at the first witness."""
    row = _kernel_row(t)
    if row is None:
        return False
    return bool(_kernels.count_assignments(row, *_plan(t.n).scan,
                                           exists_only=True))


def enumerate_lattice_hives(t: BoundaryTriple):
    """The witnesses behind count_lattice_hives, sorted lexicographically."""
    row = _kernel_row(t)
    if row is None:
        return []
    _, rows = _kernels.frontier(row[np.newaxis, :], *_plan(t.n).scan,
                                keep_rows=True)
    shift = _twist_shift(t)
    return [Hive(t.n, [v + s for v, s in zip(row, shift)])
            for row in rows.tolist()]


def decompose_tensor_product(lam, mu) -> dict:
    """Multiplicities of each dominant sigma inside the product of lam and mu.

    Every boundary (lam, mu, -reverse(sigma)) is twisted by (-lam_n, -mu_n),
    as in _kernel_row, so it is the same as listing the shifted
    s = sigma - (lam_n + mu_n) with the twisted weights lam' = lam - lam_n
    and mu' = mu - mu_n.  Only the dominant s >= 0 under Weyl's caps
    s_j <= min over i + k = j + 1 of (lam'_i + mu'_k) are listed: every
    nonzero term meets them, sigma being the spectrum of A + B for
    Hermitian A, B of spectra lam, mu.  At n = 2 they are the three
    boundary-only rhombi, and from n = 3 on there are none.  All rows are
    built at once, by one cumsum of the walk's steps, and go, tagged by
    s, into one frontier walk.

    The bound of _kernel_row is one number for every sigma.  After the
    twist every lam and mu step is >= 0 and every nu step, -s_i, is <= 0,
    so every boundary entry lies in [0, P] with P = sum(lam') + sum(mu'),
    reached at the mu corner whatever sigma is.  So
    B = P + (n-2) lam'_1 is checked once, before any sigma is listed, and
    OverflowError past 2^60 comes at once however many sigma there are.
    """
    lam = as_weight(lam)
    mu = as_weight(mu)
    if len(lam) != len(mu):
        raise ValueError("weights must have equal lengths")
    if not (is_integral(lam) and is_integral(mu)):
        raise ValueError("decomposition needs integral weights")
    n = len(lam)
    size = HiveShape(n).size  # ValueError at n = 0, as count_lattice_hives
    plan = _plan(n)
    shift = lam[-1] + mu[-1]
    steps = [x - lam[-1] for x in lam] + [x - mu[-1] for x in mu]
    top = sum(steps)
    _check_bound(top + max(n - 2, 0) * steps[0])
    caps = [min(steps[i] + steps[n + j - i] for i in range(j + 1))
            for j in range(n)]
    shifted = np.array(dominant_vectors(n, 0, caps, top), dtype=np.int64)
    walk_steps = np.empty((shifted.shape[0], 3 * n - 1), dtype=np.int64)
    walk_steps[:, :2 * n] = steps
    walk_steps[:, 2 * n:] = -shifted[:, :0:-1]
    rows = np.zeros((shifted.shape[0], size), dtype=np.int64)
    rows[:, plan.walk] = walk_steps.cumsum(axis=1)
    counts, _ = _kernels.frontier(rows, *plan.scan,
                                  ids=np.arange(rows.shape[0]))
    return {tuple(x + shift for x in s): c
            for s, c in zip(shifted.tolist(), counts.tolist()) if c}


# ---------------------------------------------------------------------------
# flatspaces and patterns

def flatspace_decomposition(H: Hive):
    """Group small triangles across value-0 rhombi.

    Small triangles are named by their dual lattice vertices, so the result
    is directly comparable with degeneracy_graph region members.
    """
    n = H.n
    t = build_gl_tinkertoy(n)
    dg = dual_graph(t)
    flats = Partition(t.vertices)
    for e in t.finite_edges:
        p, q = (hive_index_of(n, x) for x in dg.dual_of[e])
        if rhombus_value(H, _rhombus_between(p, q)) == 0:
            flats.union(e.tail, e.head)
    return frozenset(frozenset(g) for g in flats.classes())


def count_gt_patterns(lam) -> int:
    """Number of integer triangular patterns interleaving down from lam."""
    w = as_weight(lam)
    if not is_integral(w):
        raise ValueError("pattern counting needs an integral weight")
    level = {w: 1}
    # each row of a pattern interleaves the one above it: count the
    # patterns ending in each row, one row length at a time
    for _ in range(len(w) - 1):
        below = {}
        for row, count in level.items():
            for nxt in product(*(range(row[i + 1], row[i] + 1)
                                 for i in range(len(row) - 1))):
                below[nxt] = below.get(nxt, 0) + count
        level = below
    return sum(level.values())


def bz_rows(n):
    """The three families of dual-point rows, each row oriented for telescoping.

    Family 0 fixes j (mu side to nu side), family 1 fixes i (lambda side to
    mu side), family 2 fixes i+j (nu side to lambda side); full row sums are
    consecutive differences of nu, mu, lambda respectively.  Along each row
    every partial sum equals the length of some finite edge, so the partial
    sums of a valid pattern are nonnegative.
    """
    fam0 = [[(i, c) for i in range(n - c, -1, -1)] for c in range(1, n)]
    fam1 = [[(c, j) for j in range(n - c + 1)] for c in range(1, n)]
    fam2 = [[(c - j, j) for j in range(c, -1, -1)] for c in range(1, n)]
    return fam0, fam1, fam2


def bz_pattern(h: Honeycomb) -> dict:
    """Torsion for each hexagon, one facing edge length for each wedge.

    Keyed by dual index: interior points carry their hexagon's left vertical
    edge length minus the right one; boundary points (corners excluded) carry
    the length of the rhombus edge facing into the triangle on their row.
    """
    H = honeycomb_to_hive(h)
    n = H.n

    def rh(p, q):
        return rhombus_value(H, _rhombus_between(p, q))

    out = {}
    for i, j in HiveShape(n).interior():
        out[(i, j)] = rh((i - 1, j), (i, j)) - rh((i, j), (i + 1, j))
    for c in range(1, n):
        out[(c, 0)] = rh((c, 0), (c, 1))
        out[(n - c, c)] = rh((n - c - 1, c), (n - c, c))
        out[(0, c)] = rh((0, c), (1, c - 1))
    return out
