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
solver for edge constant coordinates on an acyclic post-elision graph, and a
scan for hive-polytope vertices with nonintegral coordinates.
"""

import itertools
import logging
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

from . import _kernels
from .diagram import diagram
from .errors import (DegenerateOptimum, HasCycle, NotDegenerate,
                     NotSimplyDegenerate, RhombusViolation, TooLarge)
from .hive import (Hive, HiveShape, _kernel_row, _plan, _rhombus_at,
                   _twist_shift, boundary_from_weights, hive_indices,
                   hive_to_honeycomb, rhombi, rhombus_value, root_of)
from .honeycomb import build_tinkertoy_from_type, dual_graph
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

    Base value M - |center|^2 at each hexagon, with M large enough that
    superharmonicity holds with slack at least 6 even where neighbors are
    missing, plus a perturbation drawn uniformly from (0, 1) in steps of
    2^-(10+attempt).  The slack absorbs any such perturbation, so attempt 0
    already verifies; the retry loop only shrinks the perturbation further.

    Built and verified once per (n, seed): later calls return the same
    object, so it is immutable by contract.
    """
    interior = sorted(HiveShape(n).interior())
    sq = {p: sum(c * c for c in root_of(n, *p)) for p in interior}
    M = 1 + 6 * max(sq.values(), default=0)
    for attempt in range(64):
        rng = random.Random(f"{seed}:{n}:{attempt}")
        scale = Fraction(1, 1 << (10 + attempt))
        values = {p: M - sq[p] + rng.randrange(1, 1 << 10) * scale
                  for p in interior}
        try:
            return WeightFunction(n, values, seed=seed, attempt=attempt)
        except ValueError:
            log.info("weight function for n=%d seed=%r failed verification "
                     "at attempt %d, shrinking perturbation", n, seed, attempt)
    raise AssertionError("perturbation below the superharmonic slack "
                         "still failed verification")


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
        perim = Fraction(0)
        for q in _neighbors(p):
            s = (q[0] - p[0], q[1] - p[1])
            r = _rhombus_at(p, s) if s in ((0, 1), (1, 0), (1, -1)) \
                else _rhombus_at(q, (-s[0], -s[1]))
            perim += rhombus_value(H, r)
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


def _as_direction(n, regions) -> InflationVector:
    if isinstance(regions, InflationVector):
        if regions.n != n:
            raise ValueError("sizes differ")
        return regions
    regions = [regions] if isinstance(regions, tuple) and regions and \
        not isinstance(regions[0], tuple) else list(regions)
    vec = InflationVector(n, ())
    for p in regions:
        vec = vec + inflation_vector(n, p)
    return vec


def inflate(H: Hive, regions, eps) -> Hive:
    """Move eps along the summed inflation directions of the given regions.

    regions may be an InflationVector, a single entry, or an iterable of
    entries.  The result is validated; an eps beyond the feasible range
    raises RhombusViolation.
    """
    eps = frac(eps)
    vec = _as_direction(H.n, regions)
    out = H
    for p, v in vec.amounts:
        out = out.replaced(p, out[p] + eps * v)
    bad = out.first_violation()
    if bad is not None:
        raise RhombusViolation(bad, rhombus_value(out, bad))
    return out


def max_inflation(H: Hive, regions) -> Fraction:
    """The largest eps for which inflate(H, regions, eps) stays a hive."""
    vec = _as_direction(H.n, regions)
    best = None
    for r in rhombi(H.n):
        rate = (vec.amount(r.obtuse[0]) + vec.amount(r.obtuse[1])
                - vec.amount(r.acute[0]) - vec.amount(r.acute[1]))
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
    hexes = {p for p in pts
             if all(tuple(a + b for a, b in zip(p, s)) in pts
                    for s in _ROOT_STEPS)}
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


#: Most k-subsets of rhombus rows _vertex_plan lists; n=5 has C(30, 6) =
#: 593,775, n=6 already C(45, 10) = 3,190,187,286.
MAX_VERTEX_SUBSETS = 1_000_000


@cache
def _vertex_plan(n):
    """Rhombus rows as arrays plus all tight subsets that can go off-lattice.

    Returns (coefs, sub_rows, sub_adj, sub_det, const_limit).  Rhombus r
    reads coefs[r].x + consts[r] >= 0 for the interior entries x in scan
    order, with consts = E[quads] @ (1, 1, -1, -1) for the plan's rhombus
    corners and a kernel row E.  Subsets of k independent rows are
    precomputed with integer adjugates and determinants (sign-normalized
    positive); those with det 1 can only give integral solutions and are
    dropped.  Determinants come from float batches but are verified exactly
    in integers before use.

    const_limit bounds max|consts| for `_kernels.vertex_scan`: with at most
    4 nonzero +-1 coefficients per row, every numerator adj @ -consts is
    within k*A*C and every tested value coef.numer + det*const within
    (4*k*A + D)*C, for A the largest |adjugate| entry, D the largest det and
    C = max|consts|.  C <= const_limit keeps all of them inside int64.

    TooLarge, before anything is listed, when there are more than
    MAX_VERTEX_SUBSETS subsets to list (n >= 6).
    """
    plan = _plan(n)
    coefs = plan.coefs
    k = coefs.shape[1]
    var_rows = [i for i in range(len(coefs)) if coefs[i].any()]
    total = math.comb(len(var_rows), k)
    if total > MAX_VERTEX_SUBSETS:
        raise TooLarge(f"the n={n} vertex scan would list C({len(var_rows)}, "
                       f"{k}) = {total} row subsets (limit "
                       f"{MAX_VERTEX_SUBSETS})")
    subs = np.array(list(itertools.combinations(var_rows, k)), np.int32)
    kept = [(np.empty((0, k), np.int32), np.empty((0, k, k), np.int32),
             np.empty(0, np.int64))]
    for lo in range(0, len(subs), 1 << 16):
        chunk = subs[lo:lo + (1 << 16)]
        mats = coefs[chunk]
        dets = np.rint(np.linalg.det(mats.astype(np.float64))).astype(np.int64)
        keep = np.abs(dets) >= 2
        if not keep.any():
            continue
        mats, dets, chunk = mats[keep], dets[keep], chunk[keep]
        adj = np.rint(np.linalg.inv(mats.astype(np.float64))
                      * dets[:, None, None]).astype(np.int64)
        sign = np.sign(dets)
        dets, adj = dets * sign, adj * sign[:, None, None]
        ident = dets[:, None, None] * np.eye(k, dtype=np.int64)
        assert (np.einsum("sij,sjk->sik", mats, adj) == ident).all()
        kept.append((chunk, adj.astype(np.int32), dets))
    sub_rows, sub_adj, sub_det = map(np.concatenate, zip(*kept))
    spread = 4 * k * int(np.abs(sub_adj).max(initial=0)) + int(sub_det.max(
        initial=1))
    return coefs, sub_rows, sub_adj, sub_det, ((1 << 63) - 1) // spread


def find_nonintegral_vertex(n, entry_bound, seed=None, limit=None,
                            boundaries=None):
    """First hive-polytope vertex with a nonintegral entry, if any.

    Scans integral boundary triples with all entries in [-entry_bound,
    entry_bound] in lexicographic order (or shuffled by seed, or the given
    boundaries), checking every basic solution of every boundary's polytope
    on its kernel row (the boundary twisted to lam_n = mu_n = 0; the twist
    is added back to a hit).  Hits are re-verified in exact arithmetic
    before being returned as a (boundary, hive) pair; None certifies no such
    vertex exists in range.  OverflowError when a boundary's rhombus
    constants are too large for the int64 scan; TooLarge for n >= 6, whose
    subset table does not fit in memory.
    """
    coefs, sub_rows, sub_adj, sub_det, const_limit = _vertex_plan(n)
    if len(sub_det) == 0:
        return None
    if boundaries is None:
        boundaries = boundary_grid(n, entry_bound, entry_bound)
        if seed is not None:
            boundaries = list(boundaries)
            random.Random(seed).shuffle(boundaries)
    plan = _plan(n)
    for count, t in enumerate(boundaries):
        if limit is not None and count >= limit:
            break
        row = _kernel_row(t)
        if row is None:
            continue  # a negative boundary-only rhombus: empty polytope
        consts = row[plan.quads] @ np.array([1, 1, -1, -1])
        big = int(np.abs(consts).max())
        if big > const_limit:
            raise OverflowError(f"rhombus constants up to {big} do not fit "
                                f"the int64 vertex scan (limit {const_limit})")
        s = _kernels.vertex_scan(coefs, consts, sub_rows, sub_adj, sub_det)
        if s < 0:
            continue
        numer = -(sub_adj[s].astype(np.int64) @ consts[sub_rows[s]])
        entries = row.tolist()
        for k, v in zip(plan.scan[0].tolist(), numer.tolist()):
            entries[k] = Fraction(v, int(sub_det[s]))
        hive = Hive(n, [v + d for v, d in zip(entries, _twist_shift(t))])
        assert hive.is_valid and not hive.is_integral
        assert hive.boundary_triple() == t
        return t, hive
    return None
