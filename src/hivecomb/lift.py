"""Extremal honeycombs by exact linear programming over hive polytopes.

The optimizer maximizes a weighted sum of hexagon perimeters.  Weights are
positive, strictly superharmonic against the six neighbors, zero off the
hexagons, and carry a small seeded perturbation so the optimum is a single
vertex.  In hive coordinates the objective is linear, so the whole search is
one exact-rational LP.  The optimal bases it proves are kept per objective,
and a boundary that one of them solves skips the simplex.  The report
re-derives the structural facts the optimum is supposed to have (no
6-valent vertices, multiplicity one and an acyclic post-elision graph over
regular boundaries, integrality over integral ones).

Also here: hexagon inflation directions, the molting recipes that express a
degenerate vertex's unfolding as a sum of inflations, the leaf-stripping
solver for edge constant coordinates on an acyclic post-elision graph, and
the hunt for hive-polytope vertices with nonintegral coordinates, which
enumerates each boundary's vertices exactly by double description.
"""

import logging
import math
import random
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .diagram import diagram
from .errors import (DegenerateOptimum, HasCycle, NotDegenerate,
                     NotSimplyDegenerate, RhombusViolation)
from .hive import (Hive, HiveShape, _flat, _plan, _rhombus_between,
                   boundary_from_weights, hive_indices, hive_to_honeycomb,
                   rhombi, rhombus_value, root_of)
from .honeycomb import build_tinkertoy_from_type, dual_sides
from .plane import DIRECTION_ORDER, coord, frac, perp_step
from .reconstruct import elide
from .simplex import LPSolution, _gauss_jordan, maximize
from .weights import BoundaryTriple, boundary_grid

log = logging.getLogger(__name__)

# the six lattice neighbors of a hive entry, in index coordinates
_NEIGHBOR_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def _neighbors(p):
    return [(p[0] + a, p[1] + b) for a, b in _NEIGHBOR_STEPS]


# ---------------------------------------------------------------------------
# weight functions and the perimeter objective


class WeightFunction:
    """Positive weights on the hexagons of the size-n triangle.

    Hexagons are the interior entries; everywhere else the weight is zero.
    Construction verifies positivity and strict superharmonicity, w(p) >
    (1/6) sum of the six neighbor weights, for every hexagon.  Instances are
    immutable by contract: make_weight_function shares them and
    wperim_objective caches its result per instance.
    """

    def __init__(self, n, values, seed=None):
        self.n = n
        self.values = {tuple(p): frac(v) for p, v in dict(values).items()}
        self.seed = seed
        interior = set(HiveShape(n).interior())
        if set(self.values) != interior:
            raise ValueError("weights must cover exactly the interior entries")
        for p, v in self.values.items():
            if v <= 0:
                raise ValueError(f"weight at {p} must be positive, got {v}")
        for p in interior:
            if 6 * self.values[p] <= sum(self(q) for q in _neighbors(p)):
                raise ValueError(f"weight at {p} is not strictly superharmonic")

    def __call__(self, p) -> Fraction:
        return self.values.get(tuple(p), Fraction(0))

    def __repr__(self):
        return (f"WeightFunction(n={self.n}, {len(self.values)} hexagons, "
                f"seed={self.seed!r})")


@lru_cache(maxsize=256)
def make_weight_function(n, seed=0) -> WeightFunction:
    """A seeded generic weight function for the size-n triangle.

    Base value M - |c|^2 at each hexagon with center c (root_of),
    M = 1 + 6 max |c|^2, plus a perturbation drawn uniformly from (0, 1) in
    steps of 2^-10.  Centers are nonzero root-lattice vectors, so
    |c|^2 >= 6, and neighboring centers differ by a step of square length 6.
    With all six neighbors hexagons the base leaves superharmonic slack
    6 * 6 = 36; with k <= 5 of them, (6 - k) M - 6 |c|^2 + (their |c|^2)
    >= 1 + 6k.  The perturbation costs less than k <= 6, so the one draw
    always verifies.

    Built and verified once per (n, seed): later calls return the same
    object, so it is immutable by contract.
    """
    interior = sorted(HiveShape(n).interior())
    sq = {p: sum(c * c for c in root_of(n, *p)) for p in interior}
    M = 1 + 6 * max(sq.values(), default=0)
    rng = random.Random(f"{seed}:{n}:0")
    values = {p: M - sq[p] + Fraction(rng.randrange(1, 1 << 10), 1 << 10)
              for p in interior}
    return WeightFunction(n, values, seed=seed)


class ObjectiveVector:
    """The weighted-perimeter functional, linear in the hive entries."""

    def __init__(self, n, coeffs):
        self.n = n
        self.coeffs = {tuple(p): frac(v) for p, v in dict(coeffs).items()}
        if set(self.coeffs) != set(hive_indices(n)):
            raise ValueError("need one coefficient per hive entry")

    def value(self, H: Hive) -> Fraction:
        if H.n != self.n:
            raise ValueError("hive size does not match the objective")
        return sum(c * H[p] for p, c in self.coeffs.items())

    def __repr__(self):
        return f"ObjectiveVector(n={self.n})"


@lru_cache(maxsize=256)
def wperim_objective(w: WeightFunction) -> ObjectiveVector:
    """Express the weighted perimeter sum in hive coordinates.

    A hexagon's perimeter is the sum of its six boundary edge lengths, each
    of which is a rhombus value; the terms collapse to 6*H(p) minus the six
    neighbor entries.  Collecting per entry gives coefficient
    6*w(p) - sum of w over p's neighbors, strictly positive on interior
    entries by superharmonicity.

    Built once per weight function (by identity) and shared: the result is
    immutable by contract, like the weights it is built from.
    """
    n = w.n
    ov = ObjectiveVector(n, {p: 6 * w(p) - sum(w(q) for q in _neighbors(p))
                             for p in hive_indices(n)})
    assert all(ov.coeffs[p] > 0 for p in HiveShape(n).interior())
    return ov


def wperim(w: WeightFunction, H: Hive) -> Fraction:
    """Weighted perimeter computed region by region from rhombus values."""
    if H.n != w.n:
        raise ValueError("hive size does not match the weight function")
    total = Fraction(0)
    for p, wp in w.values.items():
        perim = sum(rhombus_value(H, _rhombus_between(p, q))
                    for q in _neighbors(p))
        total += wp * perim
    return total


# ---------------------------------------------------------------------------
# inflation directions


@dataclass(frozen=True)
class InflationVector:
    """A virtual direction in hive coordinates, one amount per entry."""

    n: int
    amounts: tuple  # ((i, j), Fraction) pairs, entry-sorted

    def amount(self, p) -> Fraction:
        return dict(self.amounts).get(tuple(p), Fraction(0))

    def __add__(self, other) -> "InflationVector":
        if self.n != other.n:
            raise ValueError("sizes differ")
        merged = dict(self.amounts)
        for p, v in other.amounts:
            merged[p] = merged.get(p, Fraction(0)) + v
        return InflationVector(self.n, tuple(sorted(
            (p, v) for p, v in merged.items() if v != 0)))


def inflation_vector(n, p) -> InflationVector:
    """The direction that grows the hexagon at interior entry p.

    Raising the single entry p raises all six rhombi whose short diagonal
    ends at p and lowers the six with p at an acute corner, which is exactly
    the hexagon inflation move.
    """
    p = tuple(p)
    if p not in set(HiveShape(n).interior()):
        raise ValueError(f"{p} is not an interior entry of a size-{n} hive")
    return InflationVector(n, ((p, Fraction(1)),))


def _as_direction(n, regions) -> dict:
    """The summed inflation amounts of regions, keyed by entry."""
    if isinstance(regions, InflationVector):
        if regions.n != n:
            raise ValueError("sizes differ")
        return dict(regions.amounts)
    regions = [regions] if isinstance(regions, tuple) and regions and \
        not isinstance(regions[0], tuple) else list(regions)
    amounts = {}
    for p in regions:
        for q, v in inflation_vector(n, p).amounts:
            amounts[q] = amounts.get(q, 0) + v
    return amounts


def inflate(H: Hive, regions, eps) -> Hive:
    """Move eps along the summed inflation directions of the given regions.

    regions may be an InflationVector, a single entry, or an iterable of
    entries.  The result is validated; an eps beyond the feasible range
    raises RhombusViolation.
    """
    eps = frac(eps)
    ent = list(H.entries)
    for p, v in _as_direction(H.n, regions).items():
        ent[_flat(*p)] += eps * v
    out = Hive(H.n, ent)
    bad = out.first_violation()
    if bad is not None:
        raise RhombusViolation(bad, rhombus_value(out, bad))
    return out


def max_inflation(H: Hive, regions) -> Fraction:
    """The largest eps for which inflate(H, regions, eps) stays a hive."""
    amount = _as_direction(H.n, regions).get
    best = None
    for r in rhombi(H.n):
        rate = (amount(r.obtuse[0], 0) + amount(r.obtuse[1], 0)
                - amount(r.acute[0], 0) - amount(r.acute[1], 0))
        if rate < 0:
            bound = Fraction(rhombus_value(H, r), -rate)
            if best is None or bound < best:
                best = bound
    if best is None:
        raise ValueError("direction never decreases a rhombus; no finite bound")
    return best


# ---------------------------------------------------------------------------
# molting recipes

def molt_regions(m, v) -> frozenset:
    """The regions to inflate, all at once, to unfold degenerate vertex v.

    Returned as dual-graph points of the collapsed patch in its own standard
    position (the patch is the tinkertoy of v's ray census).  The recipe
    marks every hexagon of the patch, plus the 4-sided gaps strictly inside
    the `dual_sides` sides carrying the designated thick edges: both
    non-excluded sides for a Y (its mirror likewise), the thicker line's two
    sides for a crossing, and the heaviest side for a rake or 5-valent
    vertex.  A simple Y or a crossing of two multiplicity-1 lines has
    nothing to molt.
    """
    census = tuple(coord(x) for x in v.mults)
    if any(type(x) is not int or x < 0 for x in census):
        raise ValueError(f"vertex multiplicities must be whole: {v.mults}")
    kind = v.kind
    if kind in ("Y", "inverted-Y", "crossing") and max(census) == 1:
        raise NotDegenerate(f"nothing to molt at a simple {kind} vertex")

    hexes = build_tinkertoy_from_type(census).hexagons
    sides = dual_sides(census)

    if kind == "6-valent":
        designated = ()
    elif kind == "5-valent" or kind == "rake":
        top = max(census)
        designated = (min(k for k in sides if census[k] == top),)
    elif kind == "crossing":
        c = max((census[k], -k) for k in sides)[1] * -1
        designated = (c, (c + 3) % 6)
    elif kind == "Y":
        designated = (2, 4)
    elif kind == "inverted-Y":
        designated = (3, 5)
    else:
        raise ValueError(f"unknown vertex kind {kind!r}")

    marked = set(hexes)
    for k in designated:
        start, step = sides[k][0], perp_step(DIRECTION_ORDER[k])
        marked.update(tuple(a + i * b for a, b in zip(start, step))
                      for i in range(1, census[k]))
    if not marked:
        raise NotDegenerate(f"nothing to molt at {v}")
    return frozenset(marked)


# ---------------------------------------------------------------------------
# the LP over a hive polytope


@lru_cache(maxsize=None)
def _lp_maps(n):
    """The size-n LP's rhombus rows, in scan order, as two int64 maps: A
    over the interior entries (the variables) and Q over the boundary walk,
    +1 at obtuse and -1 at acute corners.  Built once per n from the plan's
    corner quads, for _lp_rows and the basis table."""
    plan = _plan(n)
    full = np.zeros((len(plan.quads), HiveShape(n).size), dtype=np.int8)
    np.put_along_axis(full, plan.quads, np.int8([1, 1, -1, -1]), axis=1)
    return (full[:, plan.scan[0]].astype(np.int64),
            full[:, list(plan.walk)].astype(np.int64))


def _lp_rows(t: BoundaryTriple):
    """Interior entries (the LP variables), the boundary and the rhombus
    rows of t as (coefficients, constant)."""
    bvals = boundary_from_weights(t)
    b = [bvals.get(p, 0) for p in hive_indices(t.n)]
    rows = [(coef, b[o1] + b[o2] - b[a1] - b[a2]) for coef, (o1, o2, a1, a2)
            in zip(_lp_maps(t.n)[0].tolist(), _plan(t.n).quads.tolist())]
    return HiveShape(t.n).interior(), bvals, rows


@dataclass(frozen=True)
class LPOutcome:
    """An optimal hive with its certificate and any optimum-face direction."""

    hive: Hive
    value: Fraction
    certificate: object  # simplex.LPSolution over the interior variables
    direction: object  # None, or d along the optimal face, in scan order

    @property
    def unique(self) -> bool:
        return self.direction is None


#: The basis table keeps at most this many bases per objective, dropping
#: the oldest first, and at most this many objectives, dropping the least
#: recently used first.
TABLE_BASES = 256
TABLE_OBJECTIVES = 8
# Lookups run in int64: boundary entries stay below 2^29, and a basis
# enters only when every row of its two maps has absolute sum at most 2^33,
# so every product and partial sum stays below 2^62.
_ENTRY_LIMIT = 1 << 29
_SCALE_LIMIT = 1 << 33


class BasisTableInfo(NamedTuple):
    """BasisTable.cache_info(): lookups by outcome and bases held."""

    hits: int
    misses: int
    fallthroughs: dict  # reason -> lookups sent to the simplex untried
    bases: tuple  # bases held per objective, least recently used first


class _Bases:
    """The proved optimal bases of one objective, stacked for lookup.

    A boundary enters as w, its entries along the walk; the row constants
    are Q @ w (_lp_maps).  A basis B enters by one fraction-free reduction
    of [A_B | Q_B] (simplex._gauss_jordan), which leaves each row as
    p_j x_j + q_j.w = 0.  With d the least common denominator of
    A_B^-1 Q_B (the lcm of the p_j, a divisor of |det A_B|; every basis
    seen at n <= 6 has |det A_B| = 1), its vertex x has d * x = X @ w,
    X = -d A_B^-1 Q_B, and d times the slacks of every row are S @ w,
    S = A @ X + d * Q: two int64 maps per basis.
    """

    def __init__(self, objective):
        n = objective.n
        self.objective = objective
        self.values = tuple(objective.coeffs.values())
        plan = self.plan = _plan(n)
        self.A, self.Q = _lp_maps(n)
        self.size = HiveShape(n).size
        self.inter = plan.scan[0].tolist()  # flat indices, in LP order
        self.cden = math.lcm(*[v.denominator for v in self.values])
        cint = [v.numerator * (self.cden // v.denominator)
                for v in (objective.coeffs[p] for p in hive_indices(n))]
        self.cwalk = [cint[f] for f in plan.walk]
        self.cinter = [cint[f] for f in self.inter]
        (m, k), width = self.A.shape, self.Q.shape[1]
        self.rows = []  # per basis its row indices
        self.mults = []  # per basis the multipliers of every row
        self.D = []  # per basis d
        self.X = np.zeros((0, k, width), dtype=np.int64)
        self.S = np.zeros((0, m, width), dtype=np.int64)

    def add(self, rows, X, d, mults):
        S = self.A @ X + d * self.Q
        if S[list(rows)].any():
            raise RuntimeError("inexact vertex map of a simplex basis")
        if max((sum(map(abs, r)) for r in S.tolist()),
               default=0) > _SCALE_LIMIT:
            return
        if len(self.rows) >= TABLE_BASES:
            del self.rows[0], self.mults[0], self.D[0]
            self.X, self.S = self.X[1:], self.S[1:]
        self.rows.append(rows)
        self.mults.append(mults)
        self.D.append(d)
        self.X = np.concatenate([self.X, X[np.newaxis]])
        self.S = np.concatenate([self.S, S[np.newaxis]])


class BasisTable:
    """Simplex bases proved optimal and unique, kept per objective.

    One objective's LP keeps its rows and only moves their constants from
    boundary to boundary (see lp_maximize).  Counters and clearing work as
    on functools caches: cache_info() and cache_clear().
    """

    def __init__(self):
        self._tables = OrderedDict()  # id(objective) -> _Bases
        self.cache_clear()

    def cache_clear(self):
        self._tables.clear()
        self.hits = self.misses = 0
        self.fallthroughs = {"nonintegral": 0, "range": 0}

    def cache_info(self) -> BasisTableInfo:
        return BasisTableInfo(self.hits, self.misses, dict(self.fallthroughs),
                              tuple(len(b.rows) for b in self._tables.values()))

    def _bases(self, objective) -> _Bases:
        key = id(objective)
        bases = self._tables.get(key)
        # the entry holds the objective, so no other live object has its id
        if bases is None or bases.values != tuple(objective.coeffs.values()):
            bases = self._tables[key] = _Bases(objective)
            if len(self._tables) > TABLE_OBJECTIVES:
                self._tables.popitem(last=False)
        self._tables.move_to_end(key)
        return bases

    def lookup(self, objective, t: BoundaryTriple):
        """The LPOutcome of the first held basis optimal over t, or None."""
        if not t.integral:
            self.fallthroughs["nonintegral"] += 1
            return None
        walk = list(accumulate(
            [v.numerator for v in t.lam + t.mu + t.nu[:-1]]))
        if max(map(abs, walk), default=0) >= _ENTRY_LIMIT:
            self.fallthroughs["range"] += 1
            return None
        bases = self._bases(objective)
        w = np.array(walk, dtype=np.int64)
        # per basis its least slack, or 0 when none is negative
        least = (bases.S @ w).min(1, initial=0).tolist()
        if 0 not in least:
            self.misses += 1
            return None
        self.hits += 1
        i = least.index(0)
        d, dx = bases.D[i], (bases.X[i] @ w).tolist()
        x = tuple(Fraction(v, d) for v in dx)
        ent = [0] * bases.size
        for f, v in zip(bases.plan.walk, walk):
            ent[f] = v
        for f, v in zip(bases.inter, x):
            ent[f] = v
        lp_value = Fraction(sum(map(int.__mul__, bases.cinter, dx)),
                            d * bases.cden)
        value = lp_value + Fraction(sum(map(int.__mul__, bases.cwalk, walk)),
                                    bases.cden)
        return LPOutcome(Hive(t.n, ent), value,
                         LPSolution(x, lp_value, bases.mults[i], True), None)

    def learn(self, objective, sol):
        """Hold the basis B of a unique simplex optimum, the rows with a
        positive multiplier: check that the multipliers are positive and
        balance the objective on B, reduce [A_B | Q_B] once and check
        A_B X = -d Q_B, all exactly in ints (see _Bases)."""
        if not sol.unique:
            return
        bases = self._bases(objective)
        rows = tuple(r for r, u in enumerate(sol.multipliers) if u)
        k = len(bases.inter)
        if len(rows) != k or rows in bases.rows:
            return
        A, Q = bases.A[list(rows)], bases.Q[list(rows)]
        # sum_B u_r A_r = -c, on the numerators of u = du / den
        us = [sol.multipliers[r] for r in rows]
        den = math.lcm(*[u.denominator for u in us])
        du = [u.numerator * (den // u.denominator) for u in us]
        if min(du, default=1) <= 0 or any(
                sum(map(int.__mul__, col, du)) * bases.cden != -cj * den
                for col, cj in zip(A.T.tolist(), bases.cinter)):
            raise RuntimeError("simplex certificate is not positive on its "
                               "basis or does not balance the objective")
        tab = np.hstack([A, Q]).tolist()
        piv = _gauss_jordan(tab, range(k))
        if len(piv) < k:
            raise RuntimeError("singular simplex basis")
        d = math.lcm(*[tab[r][j] for j, r in piv.items()])
        X = [[-(d // tab[r][j]) * v for v in tab[r][k:]]
             for j, r in piv.items()]
        # X goes to int64 only within the scale limit
        if max([d] + [sum(map(abs, r)) for r in X]) > _SCALE_LIMIT:
            return
        bases.add(rows, np.array(X, dtype=np.int64).reshape(Q.shape), d,
                  sol.multipliers)


basis_table = BasisTable()


def lp_maximize(objective: ObjectiveVector, t: BoundaryTriple) -> LPOutcome:
    """Maximize the functional over the hive polytope of boundary t.

    Raises Infeasible when the polytope is empty; Unbounded cannot happen
    for hive polytopes and is left to propagate as an internal error.

    First the basis table (basis_table) is tried.  The rows coef.x + const
    >= 0 of the LP are the same for every boundary of size n; only their
    constants move.  A basis B is k rows with a nonsingular coefficient
    matrix A_B, and its vertex x_B = -A_B^-1 const_B.  The table holds the
    bases of earlier unique simplex optima: for each, multipliers u > 0 on
    B with A_B^T u = -c, checked exactly when it enters.  They do not
    depend on the constants, so B stays dual feasible over every boundary,
    and it is optimal over t exactly when x_B satisfies every row of t.
    Its multipliers are then strictly positive on k independent tight rows,
    so x_B is the only optimum (Mangasarian, LAA 1979): any other optimum
    would make all of B tight too.  A basis enters by one fraction-free
    reduction of [A_B | Q_B], which gives its vertex map and the least
    common denominator d of A_B^-1 Q_B, a divisor of |det A_B| (_Bases).
    A lookup takes the integer boundary entries of t and, with one int64
    product, d times every slack of every held basis; the first basis with
    no negative slack is a hit, one more product gives its d * x_B, and
    its own multipliers are the certificate returned.  At a degenerate
    optimum, where more than k rows are tight, that may be another optimal
    basis than the one the simplex would end on; the hive, value and
    uniqueness are the same.  Boundaries that are not integral, or have a
    boundary entry of 2^29 or more in absolute value, skip the table.

    Otherwise the simplex works on the free-basic tableau, where the
    interior entries never leave the basis, and reads uniqueness off the
    optimal tableau: when every nonbasic slack column has a strictly
    negative reduced cost, the optimum x is the only one, and the basis
    enters the table.  Otherwise one more LP (Mangasarian) maximizes the
    sum of A_i.d over the tight rows i, capped at 1, for c.d >= 0 and each
    A_i.d >= 0, the moves d along the optimal face: 1 gives a direction, 0
    proves x unique, for the tight rows of a vertex have full column rank.
    """
    n = t.n
    if objective.n != n:
        raise ValueError("objective size does not match the boundary")
    out = basis_table.lookup(objective, t)
    if out is not None:
        return out
    inter, bvals, rows = _lp_rows(t)
    c = [objective.coeffs[p] for p in inter]
    sol = maximize(c, rows)
    basis_table.learn(objective, sol)
    entries = {**bvals, **dict(zip(inter, sol.x))}
    hive = Hive(n, [entries[p] for p in hive_indices(n)])
    value = sol.value + sum(objective.coeffs[p] * v for p, v in bvals.items())
    direction = None if sol.unique else _face_direction(c, rows, sol.x)
    return LPOutcome(hive, value, sol, direction)


def _face_direction(c, rows, x):
    """lp_maximize's uniqueness LP at the optimum x: a direction, or None."""
    tight = [coef for coef, const in rows
             if sum(a * v for a, v in zip(coef, x)) + const == 0]
    total = [sum(col) for col in zip(*tight)]
    face = [(coef, 0) for coef in tight + [c]] + [([-a for a in total], 1)]
    out = maximize(total, face)
    return out.x if out.value else None


@dataclass
class LiftReport:
    """The optimum over a boundary with its re-derived structure."""

    hive: Hive
    integral: bool
    vertex_kinds: dict  # kind -> count over the diagram's vertices
    max_multiplicity: int
    acyclic: object  # bool, or None when elision does not apply
    objective_value: Fraction
    certificate: object
    weight: WeightFunction
    forest: object  # the post-elision graph, or None
    retries: int


def largest_lift(t: BoundaryTriple, w: WeightFunction = None,
                 max_retries=3) -> LiftReport:
    """The hive over t maximizing the weighted perimeter of w.

    When the optimum face is not a single vertex the weight function is
    regenerated from a derived seed and the LP re-run; a tie surviving
    max_retries regenerations raises DegenerateOptimum with a direction
    along the optimal face attached.  The report's structural flags are all
    re-derived from the optimal hive itself.
    """
    if w is None:
        w = make_weight_function(t.n)
    if w.n != t.n:
        raise ValueError("weight function size does not match the boundary")
    if max_retries < 0:
        raise ValueError(f"max_retries must be nonnegative, not {max_retries}")
    retries = 0
    out = lp_maximize(wperim_objective(w), t)
    while not out.unique:
        if retries >= max_retries:
            raise DegenerateOptimum(out.direction)
        retries += 1
        log.warning("optimum over %r is not unique; re-perturbing the "
                    "weight function (retry %d)", t, retries)
        w = make_weight_function(t.n, seed=f"{w.seed!r}:retry{retries}")
        out = lp_maximize(wperim_objective(w), t)

    dg = diagram(hive_to_honeycomb(out.hive))
    kinds = {}
    for v in dg.vertices:
        kinds[v.kind] = kinds.get(v.kind, 0) + 1
    maxmult = max((s.multiplicity for s in dg.segments), default=Fraction(1))
    if maxmult.denominator != 1:
        raise RuntimeError(f"largest lift over {t!r} has a diagram segment "
                           f"of multiplicity {maxmult}")
    try:
        forest = elide(dg)
        acyclic = forest.acyclic
    except NotSimplyDegenerate:
        forest, acyclic = None, None
    return LiftReport(hive=out.hive, integral=out.hive.is_integral,
                      vertex_kinds=kinds, max_multiplicity=int(maxmult),
                      acyclic=acyclic, objective_value=out.value,
                      certificate=out.certificate, weight=w, forest=forest,
                      retries=retries)


# ---------------------------------------------------------------------------
# integral edge data on an acyclic post-elision graph


def forest_solve(t: BoundaryTriple, forest) -> dict:
    """Constant coordinates of every finite edge, by stripping leaves.

    The three lines through a trivalent node have constant coordinates
    summing to zero (the node lies in the zero-sum plane), so once two are
    known the third is minus their sum.  Boundary ray constants are given;
    peeling leaf nodes determines every edge of an acyclic graph.  The ray
    data is cross-checked against t family by family first.
    """
    if not forest.acyclic:
        raise HasCycle("post-elision graph contains a cycle")
    expect = {0: t.lam, 2: t.mu, 4: t.nu}
    got = {0: [], 2: [], 4: []}
    for he in forest.half_edges:
        k = DIRECTION_ORDER.index(he.direction)
        if k not in got:
            raise ValueError(f"boundary ray in direction {he.direction} does "
                             "not belong to a dominant-weight family")
        got[k].append(he.constant)
    if forest.free_lines:
        raise ValueError("free lines cannot occur over a dominant boundary")
    for k, vals in got.items():
        if sorted(vals) != sorted(expect[k]):
            raise ValueError(f"ray constants {sorted(vals)} disagree with the "
                             f"boundary family {sorted(expect[k])}")

    incident = {i: [] for i in range(len(forest.nodes))}
    for e in forest.edges:
        incident[e.a].append(e)
        incident[e.b].append(e)
    acc = {i: Fraction(0) for i in incident}
    for he in forest.half_edges:
        acc[he.node] += he.constant
    unsolved = {i: len(edges) for i, edges in incident.items()}
    solved = {}
    ready = [i for i, cnt in unsolved.items() if cnt <= 1]
    while ready:
        i = ready.pop()
        if unsolved[i] == 0:
            if acc[i] != 0:
                raise ValueError(f"constants at node {i} sum to {acc[i]}, "
                                 "not zero")
            continue
        e = next(x for x in incident[i] if x not in solved)
        solved[e] = -acc[i]
        for u in (e.a, e.b):
            acc[u] += solved[e]
            unsolved[u] -= 1
            if unsolved[u] <= 1 and u != i:
                ready.append(u)
    assert len(solved) == len(forest.edges)
    return solved


# ---------------------------------------------------------------------------
# hunting nonintegral polytope vertices


def _vertices(rows, low):
    """Every vertex of the polytope {x : coef.x + const >= 0 for all rows},
    given a lower bound low on every coordinate of its points.

    rows are (coef, const) in ints, their coefficients of full column rank
    k, so the polytope is bounded.  Double description (Fukuda & Prodon
    1996) of the cone {(x, s) : coef.x + const*s >= 0, s >= 0}: it starts
    from the simplicial cone s >= 0, x_i >= low*s (which holds it), whose
    rays are (low, ..., low, 1) and the unit vectors (e_i, 0), and inserts
    the rows one at a time, each evaluated on a ray through its nonzero
    terms only (a rhombus row has at most four interior coefficients, all
    +-1, beside its constant).  Rays on a row's side stay; each pair across
    it that the combinatorial test calls adjacent (no third ray is tight on
    every inequality both are tight on) is joined into a ray on it.  Zero
    sets are int bitmasks: bit 0 for s >= 0, bit i + 1 for x_i >= low*s
    and bit k + 1 + r for rows[r].  Rays stay primitive, so a ray (x, s)
    with s > 0 is the vertex x / s, integral exactly when s == 1.  Returns
    (x, s, tight) per vertex, tight the bitmask of the rows it makes tight.
    """
    k = len(rows[0][0])
    start = (1 << k + 1) - 1
    rays = [((low,) * k + (1,), start - 1)]
    rays += [(tuple(int(i == j) for j in range(k + 1)), start - (2 << i))
             for i in range(k)]
    for r, (coef, const) in enumerate(rows):
        terms = [(i, c) for i, c in enumerate((*coef, const)) if c]
        bit = 1 << k + 1 + r
        pos, neg, kept = [], [], []
        for ray, z in rays:
            v = 0
            for i, c in terms:
                v += c * ray[i]
            if v < 0:
                neg.append((v, ray, z))
                continue
            if v > 0:
                pos.append((v, ray, z))
            kept.append((ray, z if v else z | bit))
        masks = [z for _, z in rays]
        for vp, p, zp in pos:
            for vn, q, zq in neg:
                z = zp & zq
                if (z.bit_count() >= k - 1
                        and sum(z & zr == z for zr in masks) == 2):
                    ray = [vp * b - vn * c for c, b in zip(p, q)]
                    g = math.gcd(*ray)
                    kept.append((tuple(x // g for x in ray), z | bit))
        rays = kept
    return [(ray[:-1], ray[-1], z >> k + 1) for ray, z in rays]


def _first_basis(coefs, tight):
    """The lexicographically first basis of the rows coefs[r] with bit r
    set in tight, as row indices: of a vertex's bases, the first in subset
    order.  They are the pivot columns of the transpose, reduced column by
    column (simplex._gauss_jordan)."""
    picked = [r for r in range(len(coefs)) if tight >> r & 1]
    tab = [list(col) for col in zip(*[coefs[r] for r in picked])]
    return [picked[j] for j in _gauss_jordan(tab, range(len(picked)))]


def find_nonintegral_vertex(n, entry_bound, seed=None, limit=None,
                            boundaries=None):
    """First hive-polytope vertex with a nonintegral entry, if any.

    Scans integral boundary triples with all entries in [-entry_bound,
    entry_bound] in lexicographic order (or shuffled by seed, or the given
    boundaries), enumerating every vertex of each boundary's polytope
    exactly from its LP rows (`_vertices`).  Of several nonintegral
    vertices the one returned has the lexicographically first basis of
    tight rows.  Hits are re-verified before being returned as a
    (boundary, hive) pair; None certifies no such vertex exists in range.
    Below n = 4 there is at most one interior entry, each row's coefficient
    is 0 or +-1, and every vertex is integral, so no polytope is scanned;
    given boundaries are still checked.  ValueError for n < 1, a negative
    entry_bound, a limit below 1 or a boundary of another size: no range is
    scanned there, so no answer certifies anything.
    """
    if n < 1 or entry_bound < 0 or (limit is not None and limit < 1):
        raise ValueError(f"need n >= 1, entry_bound >= 0 and limit >= 1; got "
                         f"n={n}, entry_bound={entry_bound}, limit={limit}")
    if boundaries is None:
        if n <= 3:
            return None
        boundaries = boundary_grid(n, entry_bound, entry_bound)
        if seed is not None:
            boundaries = list(boundaries)
            random.Random(seed).shuffle(boundaries)
    for count, t in enumerate(boundaries):
        if limit is not None and count >= limit:
            break
        if t.n != n:
            raise ValueError(f"a boundary of size {t.n} in a size-{n} hunt")
        if not t.integral:
            raise ValueError("the vertex hunt needs an integral boundary")
        if n <= 3:
            continue
        inter, bvals, rows = _lp_rows(t)
        # a hive is the restriction of a concave function on the triangle,
        # so no entry is below the smallest boundary entry
        hits = [v for v in _vertices(rows, min(bvals.values())) if v[1] > 1]
        if not hits:
            continue
        coefs = [coef for coef, _ in rows]
        x, s, _ = min(hits, key=lambda v: _first_basis(coefs, v[2]))
        entries = {**bvals, **{p: Fraction(v, s) for p, v in zip(inter, x)}}
        hive = Hive(n, [entries[p] for p in hive_indices(n)])
        if not hive.is_valid or hive.is_integral:
            raise RuntimeError(f"vertex hunt hit over {t!r} is not a valid "
                               "nonintegral hive")
        if hive.boundary_triple() != t:
            raise RuntimeError(f"vertex hunt hit over {t!r} has another "
                               "boundary")
        return t, hive
    return None
