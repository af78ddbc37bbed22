"""Dominant weights and boundary triples.

A dominant weight is a weakly decreasing vector of exact rationals (usually
integers), held as `plane.coord` stores a value: an int where an entry is
integral and a Fraction only where it is not.  Equal ints and Fractions
compare, hash and print alike, so the choice is invisible to equality,
hashing and str().  A BoundaryTriple is the (lambda, mu, nu) data on the
boundary of a GL_n honeycomb / hive; its total sum must vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import NotDominant, ZeroSumViolation
from .plane import coord


def as_weight(v) -> tuple:
    """Coerce each entry with plane.coord (an int where integral, else a
    Fraction); NotDominant for input that is not weakly decreasing."""
    w = tuple(coord(x) for x in v)
    for a, b in zip(w, w[1:]):
        if a < b:
            raise NotDominant(f"({', '.join(map(str, w))}) is not weakly "
                              "decreasing")
    return w


def is_integral(w) -> bool:
    return all(x.denominator == 1 for x in w)


def is_regular(w) -> bool:
    """Strictly decreasing (no repeated entries)."""
    return all(a > b for a, b in zip(w, w[1:]))


@dataclass(frozen=True)
class BoundaryTriple:
    lam: tuple
    mu: tuple
    nu: tuple

    def __post_init__(self):
        object.__setattr__(self, "lam", as_weight(self.lam))
        object.__setattr__(self, "mu", as_weight(self.mu))
        object.__setattr__(self, "nu", as_weight(self.nu))
        if not (len(self.lam) == len(self.mu) == len(self.nu)):
            raise ValueError("lambda, mu, nu must have equal lengths")
        if sum(self.lam) + sum(self.mu) + sum(self.nu) != 0:
            raise ZeroSumViolation(
                f"total sum {sum(self.lam) + sum(self.mu) + sum(self.nu)} != 0")

    @property
    def n(self) -> int:
        return len(self.lam)

    @property
    def integral(self) -> bool:
        """Every entry an integer.  Exact by type: as_weight stores an
        entry as a Fraction only where it is not integral, else as an
        int."""
        return all(type(x) is int for x in self.lam + self.mu + self.nu)

    @property
    def regular(self) -> bool:
        return all(is_regular(w) for w in (self.lam, self.mu, self.nu))

    def scaled(self, k) -> "BoundaryTriple":
        k = coord(k)
        return BoundaryTriple(tuple(k * x for x in self.lam),
                              tuple(k * x for x in self.mu),
                              tuple(k * x for x in self.nu))

    def rotated(self) -> "BoundaryTriple":
        """Simultaneous cyclic rotation (lambda, mu, nu) -> (mu, nu, lambda)."""
        return BoundaryTriple(self.mu, self.nu, self.lam)

    def twisted(self, a, b) -> "BoundaryTriple":
        """Determinant twist by (a, b, -a-b) on (lambda, mu, nu)."""
        a, b = coord(a), coord(b)
        c = -a - b
        return BoundaryTriple(tuple(x + a for x in self.lam),
                              tuple(x + b for x in self.mu),
                              tuple(x + c for x in self.nu))


def sigma_to_nu(sigma) -> tuple:
    """nu = -reverse(sigma): the boundary weight dual to an output weight sigma."""
    s = as_weight(sigma)
    return tuple(-x for x in reversed(s))


def nu_to_sigma(nu) -> tuple:
    """Inverse of sigma_to_nu."""
    return sigma_to_nu(nu)


def dominant_vectors(n: int, lo: int, hi, total=None):
    """All weakly decreasing integer n-vectors with entries in [lo, hi].

    hi is one bound, or a list or tuple of n bounds, one per position.
    With total given, only those summing to it.  A list of tuples of ints
    in decreasing lexicographic order.  ValueError for a negative n or
    another count of bounds.

    Listed without recursion: each position takes, from the top down,
    every value of its valid range, which follows from its bound, the
    entry before it and the running sum.  With total given, a value v at
    position i is tried when the n - 1 - i entries after it, each in
    [lo, v], can make up the rest of the sum.
    """
    if n < 0:
        raise ValueError(f"a weight has at least 0 parts, not {n}")
    caps = list(hi) if isinstance(hi, (list, tuple)) else [hi] * n
    if len(caps) != n:
        raise ValueError(f"{len(caps)} bounds for {n} positions")
    out, vec, floor = [], [0] * n, [0] * n
    i, partial = 0, 0  # vec[:i] is fixed and sums to partial
    while True:
        if i < n:
            top = min(vec[i - 1], caps[i]) if i else caps[0]
            floor[i] = lo
            if total is not None:
                rest = n - 1 - i
                top = min(top, total - partial - rest * lo)
                floor[i] = max(lo, -((partial - total) // (rest + 1)))
            if top >= floor[i]:
                vec[i] = top
                partial += top
                i += 1
                continue
        elif total is None or partial == total:
            out.append(tuple(vec))
        # step back to the last entry that can still go down by one
        while True:
            i -= 1
            if i < 0:
                return out
            if vec[i] > floor[i]:
                vec[i] -= 1
                partial -= 1
                i += 1
                break
            partial -= vec[i]


@lru_cache(maxsize=1 << 16)
def _dominant_count(n, lo, hi, total):
    """len(dominant_vectors(n, lo, hi, total)) for one bound hi: each first
    entry v, at least the mean total / n, with the count of the n - 1
    entries after it, bound by v and summing to total - v."""
    if n == 0:
        return int(total == 0)
    count = 0
    for v in range(max(lo, -(-total // n)), min(hi, total - (n - 1) * lo) + 1):
        count += _dominant_count(n - 1, lo, v, total - v)
    return count


def random_dominant_vector(rng, n: int, lo: int, hi: int, total: int):
    """rng.choice(dominant_vectors(n, lo, hi, total)) for one bound hi, or
    None, drawing nothing, when there is none; without listing them.

    random.choice draws its index as rng.randrange(count) does, so the same
    rng state picks the same vector.  The index is unranked in
    dominant_vectors' order: each position takes, from the top down, the
    first value whose tails (_dominant_count, memoised on the position, the
    bound and the rest of the sum) cover what is left of the index.  The
    count recurses once per position, so the recursion limit bounds n.
    """
    count = _dominant_count(n, lo, hi, total)
    if not count:
        return None
    index, vec = rng.randrange(count), []
    for rest in range(n - 1, -1, -1):
        for v in range(min(hi, total - rest * lo), lo - 1, -1):
            tails = _dominant_count(rest, lo, v, total - v)
            if index < tails:
                break
            index -= tails
        vec.append(v)
        hi, total = v, total - v
    return tuple(vec)


def boundary_grid(n: int, bound: int, nu_bound: int):
    """Every zero-sum dominant integer triple with lambda and mu entries in
    [-bound, bound] and nu entries in [-nu_bound, nu_bound], lambda, then
    mu, then nu in decreasing lexicographic order."""
    for lam, mu in product(dominant_vectors(n, -bound, bound), repeat=2):
        rest = -(sum(lam) + sum(mu))
        for nu in dominant_vectors(n, -nu_bound, nu_bound, rest):
            yield BoundaryTriple(lam, mu, nu)
