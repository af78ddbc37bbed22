"""The four workloads: seeded inputs, pinned warm-up queries, execution.

Inputs are built only with `hivecomb.weights` and the tableaux oracle, so a
change to `hive` or `lift` cannot change them.  Each workload yields blocks
of queries with fixed shares per kind and size; the closed loop runs whole
blocks, so every run sees the same mix whatever its seed.
"""

import bisect
import itertools
import random
from dataclasses import dataclass
from functools import cache

from hivecomb import cli, hive, lift
from hivecomb.weights import BoundaryTriple, dominant_vectors, sigma_to_nu

import reference


@dataclass(frozen=True, eq=False)
class Query:
    kind: str
    args: tuple
    untwisted: object = None  # the triple a twisted copy is checked against


# Every call goes through a module or class attribute, so the traced run's
# wrappers see it.
def _feasible(t):
    return (hive.exists_lattice_hive(t), hive.exists_lattice_hive(t.scaled(2)),
            hive.exists_lattice_hive(t.scaled(3)))


def _lift(t):
    rep = lift.largest_lift(t)
    return rep, cli.lift_report_to_json(rep)


def _hunt(n, bound, t):
    got = lift.find_nonintegral_vertex(n, bound, boundaries=[t])
    return got, None if got is None else cli.hive_to_json(got[1])


RUN = {
    "count": lambda t: hive.count_lattice_hives(t),
    "decompose": lambda lam, mu: hive.decompose_tensor_product(lam, mu),
    "enumerate": lambda t: hive.enumerate_lattice_hives(t),
    "feasible": _feasible,
    "lift": _lift,
    "hunt": _hunt,
}


def run(q):
    return RUN[q.kind](*q.args)


def check(oracle, q, out):
    """(reason the answer is wrong or None, whether it could be verified)."""
    a = q.args
    t = q.untwisted or a[0]
    if q.kind == "count":
        return reference.check_count(oracle, t, out), True
    if q.kind == "decompose":
        return reference.check_decompose(oracle, *a, out), True
    if q.kind == "enumerate":
        return reference.check_enumerate(oracle, t, out), True
    if q.kind == "feasible":
        return reference.check_feasible(oracle, t, out), True
    if q.kind == "lift":
        return reference.check_lift(t, *out), True
    return reference.check_hunt(oracle, a[0], a[2], *out)


# ---------------------------------------------------------------- inputs

@cache
def _doms(n, lo, hi, total=None):
    return tuple(dominant_vectors(n, lo, hi, total))


def _highest(lam, mu):
    """lam (x) mu -> lam + mu, which always has multiplicity one."""
    return BoundaryTriple(lam, mu, sigma_to_nu(tuple(a + b for a, b in
                                                     zip(lam, mu))))


def _feasible_triple(rng, oracle, n, bound):
    """A triple with entries in [0, bound] for lam, mu and count >= 1."""
    while True:
        lam, mu = rng.choice(_doms(n, 0, bound)), rng.choice(_doms(n, 0, bound))
        sigmas = _doms(n, lam[-1] + mu[-1], lam[0] + mu[0], sum(lam) + sum(mu))
        for _ in range(8):
            t = BoundaryTriple(lam, mu, sigma_to_nu(rng.choice(sigmas)))
            if oracle.count(t) > 0:
                return t


def _regular_feasible(rng, oracle, n, bound):
    """A regular triple with entries in [-bound, bound] and count >= 1."""
    pool = range(-bound, bound + 1)
    while True:
        lam = tuple(sorted(rng.sample(pool, n), reverse=True))
        mu = tuple(sorted(rng.sample(pool, n), reverse=True))
        nus = [v for v in _doms(n, -bound, bound, -(sum(lam) + sum(mu)))
               if len(set(v)) == n]
        rng.shuffle(nus)
        for nu in nus[:8]:
            t = BoundaryTriple(lam, mu, nu)
            if oracle.count(t) > 0:
                return t


def _grid_triple(rng, n, bound):
    """A uniform draw from the bound-b dominant grid of test_07's mix."""
    doms = _doms(n, -bound, bound)
    while True:
        lam, mu = rng.choice(doms), rng.choice(doms)
        nus = _doms(n, -bound, bound, -(sum(lam) + sum(mu)))
        if nus:
            return BoundaryTriple(lam, mu, rng.choice(nus))


def boundary_grid(n, bound):
    """Every integral boundary with entries in [-bound, bound], in the
    lexicographic order of the exhaustive nonintegral-vertex scan."""
    doms = _doms(n, -bound, bound)
    for lam in doms:
        for mu in doms:
            for nu in _doms(n, -bound, bound, -(sum(lam) + sum(mu))):
                yield BoundaryTriple(lam, mu, nu)


class GridSampler:
    """Uniform draws from boundary_grid(n, bound) without listing it."""

    def __init__(self, n, bound):
        doms = _doms(n, -bound, bound)
        self.pairs = list(itertools.product(doms, doms))
        self.n, self.bound = n, bound
        self.ends = list(itertools.accumulate(
            len(self._nus(lam, mu)) for lam, mu in self.pairs))

    def _nus(self, lam, mu):
        return _doms(self.n, -self.bound, self.bound, -(sum(lam) + sum(mu)))

    def __len__(self):
        return self.ends[-1]

    def draw(self, rng):
        k = rng.randrange(len(self))
        i = bisect.bisect_right(self.ends, k)
        lam, mu = self.pairs[i]
        return BoundaryTriple(lam, mu, self._nus(lam, mu)[
            k - (self.ends[i - 1] if i else 0)])


#: log2 ranges of the larger twist in the timed slices, one twisted copy per
#: range in turn.  The counting kernels are exact below about 2^60 (times
#: 3 for t.scaled(3)), so every timed copy has an answer to time.
TWIST_RANGES = ((0, 32), (32, 48), (48, 56))
#: log2 ranges of the edge probe, which straddle the int64 edge of the
#: kernels and reach 2^70.
EDGE_RANGES = ((60, 61), (61, 62), (62, 70))


class Twister:
    """Determinant twists (a, b, -a-b), the larger one drawn from each of
    `ranges` in turn."""

    def __init__(self, ranges=TWIST_RANGES):
        self.ranges = ranges
        self.turn = 0

    def __call__(self, rng, t):
        lo, hi = self.ranges[self.turn % len(self.ranges)]
        self.turn += 1
        x = rng.uniform(lo, hi)
        big = rng.choice((-1, 1)) * int(2 ** x)
        small = rng.choice((-1, 1)) * int(2 ** rng.uniform(0, x))
        a, b = (big, small) if rng.random() < 0.5 else (small, big)
        return t.twisted(a, b)


def _mixed(rng, queries):
    rng.shuffle(queries)
    return queries


# ------------------------------------------------------------- workloads

#: The count cases of the former kernel-only benchmark.
OLD_COUNTS = (
    BoundaryTriple((2, 1, 0), (2, 1, 0), (-1, -2, -3)),
    BoundaryTriple((8, 4, 0), (8, 4, 0), (-4, -8, -12)),
    BoundaryTriple((6, 4, 2, 0), (6, 4, 2, 0), (-2, -5, -7, -10)),
    BoundaryTriple((4, 3, 2, 1, 0), (4, 3, 2, 1, 0), (-2, -3, -4, -5, -6)),
    BoundaryTriple((12, 9, 6, 3, 0), (12, 9, 6, 3, 0),
                   (-8, -10, -12, -14, -16)),
)
BIG_COUNT = BoundaryTriple(*next(iter(reference.PINNED_COUNTS)))
PINNED_DECOMPOSE = (((2, 1, 0), (2, 1, 0)), ((8, 5, 2, 0), (7, 4, 2, 0)))


def lr_count_blocks(rng, oracle):
    """Counts of one size each cost about the same, and a decomposition
    whose weights all span [0, b] costs about 4-6 ms at every n used here,
    so the median lands among the n=5 counts and p90 among these
    decompositions.  The heavy pinned count runs once per run."""
    twist = Twister()
    bounds = {3: 8, 4: 6, 5: 4, 6: 3}
    for k in itertools.count():
        qs = [Query("count", (t,)) for t in OLD_COUNTS + (BIG_COUNT,) * (k == 0)]
        qs += [Query("decompose", p) for p in PINNED_DECOMPOSE]
        counted = [_feasible_triple(rng, oracle, n, bounds[n])
                   for n, m in ((3, 4), (4, 4), (5, 9), (6, 4))
                   for _ in range(m)]
        qs += [Query("count", (t,)) for t in counted]
        for n, m, b in ((3, 3, 6), (4, 3, 3), (5, 2, 2)):
            spread = [v for v in _doms(n, 0, b) if v[0] == b and v[-1] == 0]
            qs += [Query("decompose", (rng.choice(spread), rng.choice(spread)))
                   for _ in range(m)]
        qs += [Query("enumerate", (_feasible_triple(rng, oracle, n, 4),))
               for n in (2, 3, 3, 4, 4)]
        for _ in range(6):
            t = rng.choice(counted)
            qs.append(Query("count", (twist(rng, t),), untwisted=t))
        yield _mixed(rng, qs)


def feasibility_blocks(rng, oracle):
    twist = Twister()
    while True:
        plain = [_grid_triple(rng, n, 3) for n in (3, 4, 5) for _ in range(10)]
        qs = [Query("feasible", (t,)) for t in plain]
        for _ in range(3):
            t = rng.choice(plain)
            qs.append(Query("feasible", (twist(rng, t),), untwisted=t))
        yield _mixed(rng, qs)


def lift_blocks(rng, oracle):
    """n=3 and n=4 lifts are seeded.  One n=5 lift costs about as much as
    the rest of its block, and its cost varies twofold with the boundary,
    so every block lifts the same n=5 boundary, drawn with a fixed seed."""
    n5 = Query("lift", (_regular_feasible(random.Random("lift:n=5"), oracle,
                                          5, 8),))
    while True:
        qs = [Query("lift", (_regular_feasible(rng, oracle, n, 8),))
              for n, m in ((3, 24), (4, 9)) for _ in range(m)]
        yield _mixed(rng, qs + [n5])


#: The vertex-scan cases of the former kernel-only benchmark.
OLD_SCAN_N4 = tuple(itertools.islice(boundary_grid(4, 2), 40))
OLD_SCAN_N5 = tuple(itertools.islice(boundary_grid(5, 1), 4)) + (
    reference.WITNESS,)


def vertex_hunt_blocks(rng, oracle):
    grid5, grid4 = GridSampler(5, 2), GridSampler(4, 2)
    for k in itertools.count():
        qs = [Query("hunt", (5, 2, t)) for t in OLD_SCAN_N5]
        qs += [Query("hunt", (4, 2, OLD_SCAN_N4[(4 * k + i) % 40]))
               for i in range(4)]
        qs += [Query("hunt", (4, 2, grid4.draw(rng))) for _ in range(2)]
        qs += [Query("hunt", (5, 2, grid5.draw(rng))) for _ in range(29)]
        yield _mixed(rng, qs)


#: The int64 defect as first seen: a 2^61 twist counts 0 where the answer
#: is 2, and a 2^62 twist raises OverflowError.
PINNED_EDGE = tuple(
    Query("count", (OLD_COUNTS[0].twisted(a, 0),), untwisted=OLD_COUNTS[0])
    for a in (1 << 61, 1 << 62))


def lr_count_edge(rng, oracle):
    twist = Twister(EDGE_RANGES)
    qs = list(PINNED_EDGE)
    for n in (3, 4, 5, 6, 3, 4):
        t = _feasible_triple(rng, oracle, n, 3)
        qs.append(Query("count", (twist(rng, t),), untwisted=t))
    return qs


def feasibility_edge(rng, oracle):
    twist = Twister(EDGE_RANGES)
    qs = []
    for n in (3, 4, 5, 3, 4, 5):
        t = _grid_triple(rng, n, 3)
        qs.append(Query("feasible", (twist(rng, t),), untwisted=t))
    return qs


@dataclass(frozen=True)
class Workload:
    blocks: object  # (rng, oracle) -> iterator of query lists
    warmup: list  # pinned queries, one per size, run during set-up
    traced_blocks: int  # how many timed blocks the traced run replays
    # The vertex scans stream through arrays of several MB, and their speed
    # follows the host's memory bandwidth more than its interpreter speed,
    # so their speed probe includes a memory part.  The other workloads
    # spend their time in the interpreter and are tracked better without.
    memory_probe: bool = False
    # (rng, oracle) -> twisted queries past the int64 edge of the kernels,
    # run once after the timed phase and reported apart from it
    edge: object = None


WORKLOADS = {
    "lr_count": Workload(
        lr_count_blocks,
        [Query("count", (_highest(lam, lam),))
         for lam in ((1, 0), (2, 1, 0), (3, 2, 1, 0), (4, 3, 2, 1, 0),
                     (5, 4, 3, 2, 1, 0))],
        traced_blocks=20, edge=lr_count_edge),
    "feasibility": Workload(
        feasibility_blocks,
        [Query("feasible", (_highest(lam, lam),))
         for lam in ((2, 1, 0), (3, 2, 1, 0), (4, 3, 2, 1, 0))],
        traced_blocks=100, edge=feasibility_edge),
    "lift": Workload(
        lift_blocks,
        [Query("lift", (t,)) for t in (
            BoundaryTriple((4, 1, 0), (4, 1, 0), (-2, -3, -5)),
            _highest((3, 2, 1, 0), (3, 2, 1, 0)),
            _highest((4, 3, 2, 1, 0), (4, 3, 2, 1, 0)))],
        traced_blocks=1),
    "vertex_hunt": Workload(
        vertex_hunt_blocks,
        [Query("hunt", (4, 2, OLD_SCAN_N4[0])),
         Query("hunt", (5, 2, reference.WITNESS))],
        memory_probe=True,
        traced_blocks=8),
}
