"""Extremal honeycombs by exact linear programming over hive polytopes.

The optimizer maximizes a weighted sum of hexagon perimeters.  Weights are
positive, strictly superharmonic against the six neighbors, zero off the
hexagons, and carry a small seeded perturbation so the optimum is a single
vertex.  In hive coordinates the objective is linear, so the whole search is
one exact-rational LP; the report re-derives the structural facts the
optimum is supposed to have (no 6-valent vertices, multiplicity one and an
acyclic post-elision graph over regular boundaries, integrality over
integral ones).

Also here: hexagon inflation directions, the molting recipes that express a
degenerate vertex's unfolding as a sum of inflations, the leaf-stripping
solver for edge constant coordinates on an acyclic post-elision graph, and
the hunt for hive-polytope vertices with nonintegral coordinates, which
enumerates each boundary's vertices exactly by double description.
"""

import logging
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .diagram import diagram
from .errors import (DegenerateOptimum, HasCycle, NotDegenerate,
                     NotSimplyDegenerate, RhombusViolation)
from .hive import (Hive, HiveShape, _flat, _plan, _rhombus_between,
                   boundary_from_weights, hive_indices, hive_to_honeycomb,
                   rhombi, rhombus_value, root_of)
from .honeycomb import _add, build_tinkertoy_from_type, dual_graph
from .plane import DIRECTION_ORDER, frac
from .reconstruct import elide
from .simplex import maximize
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

    def __init__(self, n, values, seed=None, attempt=0):
        self.n = n
        self.values = {tuple(p): frac(v) for p, v in dict(values).items()}
        self.seed = seed
        self.attempt = attempt
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
                f"seed={self.seed!r}, attempt={self.attempt})")


@lru_cache(maxsize=256)
def make_weight_function(n, seed=0) -> WeightFunction:
    """A seeded generic weight function for the size-n triangle.

    Base value M - |c|^2 at each hexagon with center c (root_of),
    M = 1 + 6 max |c|^2, plus a perturbation drawn uniformly from (0, 1) in
    steps of 2^-10.  Centers are nonzero root-lattice vectors, so
    |c|^2 >= 6, and neighboring centers differ by a step of square length 6.
    With all six neighbors hexagons the base leaves superharmonic slack
    6 * 6 = 36; with k <= 5 of them, (6 - k) M - 6 |c|^2 + (their |c|^2)
    >= 1 + 6k.  The perturbation costs less than k <= 6, so the one draw,
    attempt 0, always verifies.

    Built and verified once per (n, seed): later calls return the same
    object, so it is immutable by contract.
    """
    interior = sorted(HiveShape(n).interior())
    sq = {p: sum(c * c for c in root_of(n, *p)) for p in interior}
    M = 1 + 6 * max(sq.values(), default=0)
    rng = random.Random(f"{seed}:{n}:0")
    values = {p: M - sq[p] + Fraction(rng.randrange(1, 1 << 10), 1 << 10)
              for p in interior}
    return WeightFunction(n, values, seed=seed, attempt=0)


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

_ROOT_STEPS = ((-2, 1, 1), (2, -1, -1), (-1, -1, 2),
               (1, 1, -2), (1, -2, 1), (-1, 2, -1))


def molt_regions(m, v) -> frozenset:
    """The regions to inflate, all at once, to unfold degenerate vertex v.

    Returned as dual-graph points of the collapsed patch in its own standard
    position (the patch is the tinkertoy of v's ray census).  The recipe
    marks every bounded region of the patch, plus the 4-sided gaps along the
    sides carrying the designated thick edges: both non-excluded sides for a
    Y (its mirror likewise), the thicker line's two sides for a crossing,
    and the heaviest side for a rake or 5-valent vertex.  A simple Y or a
    crossing of two multiplicity-1 lines has nothing to molt.
    """
    census = []
    for x in v.mults:
        x = frac(x)
        if x.denominator != 1 or x < 0:
            raise ValueError(f"vertex multiplicities must be whole: {v.mults}")
        census.append(int(x))
    census = tuple(census)
    kind = v.kind
    if kind in ("Y", "inverted-Y", "crossing") and max(census) == 1:
        raise NotDegenerate(f"nothing to molt at a simple {kind} vertex")

    pts = dual_graph(build_tinkertoy_from_type(census)).points
    hexes = {p for p in pts if all(_add(p, s) in pts for s in _ROOT_STEPS)}
    sides = {}
    for k in range(6):
        if census[k] == 0:
            continue
        step = DIRECTION_ORDER[k].step
        reach = max(sum(a * b for a, b in zip(p, step)) for p in pts)
        sides[k] = {p for p in pts
                    if sum(a * b for a, b in zip(p, step)) == reach}
    corners = {p for p in pts
               if sum(p in side for side in sides.values()) >= 2}

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
        marked |= sides[k] - corners
    if not marked:
        raise NotDegenerate(f"nothing to molt at {v}")
    return frozenset(marked)


# ---------------------------------------------------------------------------
# the LP over a hive polytope


def _lp_rows(t: BoundaryTriple):
    """Interior entries (the LP variables), the boundary and the rhombus
    rows of t as (coefficients, constant)."""
    plan = _plan(t.n)
    bvals = boundary_from_weights(t)
    b = [bvals.get(p, 0) for p in hive_indices(t.n)]
    rows = [(coef, b[o1] + b[o2] - b[a1] - b[a2]) for coef, (o1, o2, a1, a2)
            in zip(plan.coefs.tolist(), plan.quads.tolist())]
    return HiveShape(t.n).interior(), bvals, rows


@dataclass(frozen=True)
class LPOutcome:
    """An optimal hive with its certificate and any optimum-face slack."""

    hive: Hive
    value: Fraction
    certificate: object  # simplex.LPSolution over the interior variables
    ties: tuple  # (entry, low, high) for entries free on the optimal face

    @property
    def unique(self) -> bool:
        return not self.ties


def lp_maximize(objective: ObjectiveVector, t: BoundaryTriple) -> LPOutcome:
    """Maximize the functional over the hive polytope of boundary t.

    Raises Infeasible when the polytope is empty; Unbounded cannot happen
    for hive polytopes and is left to propagate as an internal error.  The
    simplex works on the free-basic tableau, where the interior entries
    never leave the basis, and reads uniqueness off the optimal tableau:
    when every nonbasic slack column has a strictly negative reduced cost,
    the optimum is the only one and ties is empty with no further solve.
    Otherwise the certificate is inconclusive, and every interior entry is
    re-optimized both ways across the optimal face, so ties lists exactly
    the entries the optimum leaves free.
    """
    n = t.n
    if objective.n != n:
        raise ValueError("objective size does not match the boundary")
    inter, bvals, rows = _lp_rows(t)
    c = [objective.coeffs[p] for p in inter]
    sol = maximize(c, rows)
    entries = {**bvals, **dict(zip(inter, sol.x))}
    hive = Hive(n, [entries[p] for p in hive_indices(n)])
    value = sol.value + sum(objective.coeffs[p] * v for p, v in bvals.items())
    ties = []
    if not sol.unique:
        face = rows + [(tuple(c), -sol.value)]
        for i, p in enumerate(inter):
            probe_c = [Fraction(0)] * len(inter)
            probe_c[i] = Fraction(1)
            hi = maximize(probe_c, face).value
            probe_c[i] = Fraction(-1)
            lo = -maximize(probe_c, face).value
            if lo != hi:
                ties.append((p, lo, hi))
    return LPOutcome(hive, value, sol, tuple(ties))


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
    max_retries regenerations raises DegenerateOptimum with the free
    directions attached.  The report's structural flags are all re-derived
    from the optimal hive itself.
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
            raise DegenerateOptimum(out.ties)
        retries += 1
        log.warning("optimum over %r is not unique (%d free entries); "
                    "re-perturbing the weight function (retry %d)",
                    t, len(out.ties), retries)
        w = make_weight_function(t.n, seed=f"{w.seed!r}:retry{retries}")
        out = lp_maximize(wperim_objective(w), t)

    dg = diagram(hive_to_honeycomb(out.hive))
    kinds = {}
    for v in dg.vertices:
        kinds[v.kind] = kinds.get(v.kind, 0) + 1
    maxmult = max((s.multiplicity for s in dg.segments), default=Fraction(1))
    assert maxmult.denominator == 1
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
    the rows one at a time.  Rays on a row's side stay; each pair across it
    that the combinatorial test calls adjacent (no third ray is tight on
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
        a, bit = (*coef, const), 1 << k + 1 + r
        pos, neg, kept = [], [], []
        for ray, z in rays:
            v = sum(p * q for p, q in zip(a, ray))
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
    order.  A greedy pass keeps each row independent of those kept before,
    by fraction-free elimination in ints."""
    pivots, picked = [], []
    for r, v in enumerate(coefs):
        if not tight >> r & 1:
            continue
        for col, p in pivots:
            f = v[col]
            if f:
                v = [a * p[col] - f * b for a, b in zip(v, p)]
        col = next((c for c, a in enumerate(v) if a), None)
        if col is not None:
            pivots.append((col, v))
            picked.append(r)
    return picked


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
    is 0 or +-1, and every vertex is integral, so nothing is scanned.
    ValueError for n < 1, a negative entry_bound or a limit below 1: no
    range is scanned there, so no answer certifies anything.
    """
    if n < 1 or entry_bound < 0 or (limit is not None and limit < 1):
        raise ValueError(f"need n >= 1, entry_bound >= 0 and limit >= 1; got "
                         f"n={n}, entry_bound={entry_bound}, limit={limit}")
    if n <= 3:
        return None
    if boundaries is None:
        boundaries = boundary_grid(n, entry_bound, entry_bound)
        if seed is not None:
            boundaries = list(boundaries)
            random.Random(seed).shuffle(boundaries)
    for count, t in enumerate(boundaries):
        if limit is not None and count >= limit:
            break
        if not t.integral:
            raise ValueError("the vertex hunt needs an integral boundary")
        inter, bvals, rows = _lp_rows(t)
        rows = [(coef, int(const)) for coef, const in rows]
        # a hive is the restriction of a concave function on the triangle,
        # so no entry is below the smallest boundary entry
        hits = [v for v in _vertices(rows, int(min(bvals.values())))
                if v[1] > 1]
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
