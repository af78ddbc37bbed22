"""Dominant weights and boundary triples.

A dominant weight is a weakly decreasing vector of exact rationals (usually
integers).  A BoundaryTriple is the (lambda, mu, nu) data on the boundary of a
GL_n honeycomb / hive; its total sum must vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import NotDominant, ZeroSumViolation
from .plane import frac


def as_weight(v) -> tuple:
    """Coerce to a tuple of Fractions; reject non-weakly-decreasing input."""
    w = tuple(frac(x) for x in v)
    for a, b in zip(w, w[1:]):
        if a < b:
            raise NotDominant(f"{v} is not weakly decreasing")
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
        return all(is_integral(w) for w in (self.lam, self.mu, self.nu))

    @property
    def regular(self) -> bool:
        return all(is_regular(w) for w in (self.lam, self.mu, self.nu))

    def scaled(self, k) -> "BoundaryTriple":
        k = frac(k)
        return BoundaryTriple(tuple(k * x for x in self.lam),
                              tuple(k * x for x in self.mu),
                              tuple(k * x for x in self.nu))

    def rotated(self) -> "BoundaryTriple":
        """Simultaneous cyclic rotation (lambda, mu, nu) -> (mu, nu, lambda)."""
        return BoundaryTriple(self.mu, self.nu, self.lam)

    def twisted(self, a, b) -> "BoundaryTriple":
        """Determinant twist by (a, b, -a-b) on (lambda, mu, nu)."""
        a, b = frac(a), frac(b)
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


def _dominant_tails(out, prefix, remaining, lo, hi, total):
    """Append each completion of prefix to out; see dominant_vectors."""
    if remaining == 0:
        if total is None or sum(prefix) == total:
            out.append(tuple(prefix))
        return
    for v in range(hi, lo - 1, -1):
        # prune when the sum can no longer reach the target
        if total is not None:
            partial = sum(prefix) + v
            rest = remaining - 1
            if partial + rest * lo > total or partial + rest * v < total:
                continue
        prefix.append(v)
        _dominant_tails(out, prefix, remaining - 1, lo, v, total)
        prefix.pop()


def dominant_vectors(n: int, lo: int, hi: int, total=None):
    """All weakly decreasing integer n-vectors with entries in [lo, hi].

    With total given, only those summing to it.  Yields tuples of ints.
    """
    out = []
    _dominant_tails(out, [], n, lo, hi, total)
    return out


def boundary_grid(n: int, bound: int, nu_bound: int):
    """Every zero-sum dominant integer triple with lambda and mu entries in
    [-bound, bound] and nu entries in [-nu_bound, nu_bound], lambda, then
    mu, then nu in decreasing lexicographic order."""
    for lam, mu in product(dominant_vectors(n, -bound, bound), repeat=2):
        rest = -(sum(lam) + sum(mu))
        for nu in dominant_vectors(n, -nu_bound, nu_bound, rest):
            yield BoundaryTriple(lam, mu, nu)
