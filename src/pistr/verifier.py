"""Exact product degrees and product-irregularity verdicts.

Product degrees are kept in factored form (prime -> exponent), so products
like 3^(n-1) stay exact at any order.

One kernel computes every verdict: is_product_irregular counts the labels
at each vertex of an edge labeling with bincount, factorizing each distinct
label value once, and reports the smallest colliding vertex pair. check_matrix
converts a weighted adjacency matrix to its labeled graph and calls it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, isqrt

import numpy as np

from .graphs import EdgeLabeling, matrix_to_labeled_graph

_TRIAL = 1 << 10  # factors below this are found by trial division
# Strong probable primes to the 13 prime bases 2..41 are prime below
# 3317044064679887385961981, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def factorize(v: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of v >= 1 as sorted (prime, exponent) pairs.

    Factors below 2^10 are divided out; what remains is either prime
    (Miller-Rabin) or split by Pollard-Brent rho until every part is.
    """
    if v < 1:
        raise ValueError("labels must be positive")
    counts: dict[int, int] = {}
    rest, d = v, 2
    while d < _TRIAL and d * d <= rest:
        while rest % d == 0:
            rest //= d
            counts[d] = counts.get(d, 0) + 1
        d += 1 if d == 2 else 2
    parts = [rest] if rest > 1 else []
    while parts:  # each part > 1 and free of factors below _TRIAL
        part = parts.pop()
        if _is_prime(part):
            counts[part] = counts.get(part, 0) + 1
        else:
            d = _rho_divisor(part)
            parts += (d, part // d)
    return tuple(sorted(counts.items()))


def _is_prime(n: int) -> bool:
    """Primality of n > 1 with no factor below _TRIAL. A Miller-Rabin
    witness proves n composite; passing every base proves it prime below
    _MR_EXACT_BELOW, and above it trial division decides."""
    if n < _TRIAL * _TRIAL:
        return True
    odd, twos = n - 1, 0
    while not odd & 1:
        odd >>= 1
        twos += 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or all(n % d for d in range(_TRIAL + 1, isqrt(n) + 1, 2))


def _rho_divisor(n: int) -> int:
    """A divisor 1 < d < n of a composite n with no factor below _TRIAL:
    Pollard's rho with Brent's cycle search, the differences multiplied
    together between gcds (Brent, BIT 1980)."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step from its start one at a time
            g, y = 1, saved
            while g == 1:
                y = (y * y + c) % n
                g = gcd(abs(x - y), n)
        if g != n:
            return g


@dataclass(frozen=True)
class ProductDegree:
    """Factored product of incident edge labels; label 1 contributes nothing."""

    factors: tuple[tuple[int, int], ...]

    @classmethod
    def from_value(cls, v: int) -> "ProductDegree":
        return cls(factorize(v))

    @property
    def value(self) -> int:
        v = 1
        for p, e in self.factors:
            v *= p**e
        return v

    def __repr__(self):
        return f"ProductDegree({self.value})"


@dataclass(frozen=True, eq=False)
class IrregularityReport:
    """Verdict plus per-vertex degrees; witness is the smallest colliding
    pair. degrees is built from the exponent rows (one per vertex, one
    column per prime) when it is first read. Reports are equal when their
    verdicts, witnesses and degrees are."""

    ok: bool
    witness: tuple[int, int] | None
    _primes: list[int] = field(repr=False)
    _exponents: np.ndarray = field(repr=False)

    @cached_property
    def degrees(self) -> tuple[ProductDegree, ...]:
        primes = self._primes
        return tuple(ProductDegree(tuple((p, e) for p, e in zip(primes, row) if e))
                     for row in self._exponents.tolist())

    def _key(self):
        return self.ok, self.witness, self.degrees

    def __eq__(self, other):
        if not isinstance(other, IrregularityReport):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _witness(exponents: np.ndarray) -> tuple[int, int] | None:
    """The smallest pair u < v of equal rows, or None. The rows are sorted
    stably, so each run of equal rows lists its vertices ascending: of the
    vertices with an equal row after them, the least is u, and v follows it."""
    n, width = exponents.shape
    order = (np.lexsort(exponents.T[::-1]) if width
             else np.arange(n))  # every row is empty: all rows are equal
    ranked = exponents[order]
    same = np.flatnonzero((ranked[1:] == ranked[:-1]).all(axis=1))
    if not len(same):
        return None
    first = same[order[same].argmin()]
    return int(order[first]), int(order[first + 1])


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a, ascending: the least, then each one
    above its predecessor in sorted order."""
    ordered = np.sort(a)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


def is_product_irregular(labeling: EdgeLabeling) -> IrregularityReport:
    """All vertices must have pairwise distinct product degrees.

    A bincount over each end of the edges counts, per label value, how many
    edges with that label meet each vertex; each label value is factorized once,
    and one product of the counts with the values' exponents gives every
    vertex's exponent per prime. Those rows, sorted, give the verdict and
    the witness; the report builds the factored degrees only when read.
    """
    g = labeling.graph
    n = g.n_vertices
    u, v = g.ends
    values = _distinct(labeling.values)
    size = len(values) * n
    at = values.searchsorted(labeling.values)  # in place from here: one array per edge
    at *= n
    at += u
    counts = np.bincount(at, minlength=size)
    at -= u
    at += v
    counts += np.bincount(at, minlength=size)
    counts = counts.reshape(len(values), n)
    factors = [dict(factorize(w)) for w in values.tolist()]
    primes = sorted(set().union(*factors))
    # one column per prime, then a column of ones that counts the edges
    exponents = np.array([[f.get(p, 0) for p in primes] + [1] for f in factors],
                         dtype=np.int64).reshape(len(values), len(primes) + 1)
    rows = counts.T @ exponents
    isolated = np.flatnonzero(rows[:, -1] == 0)
    if len(isolated):
        raise ValueError(f"vertex {isolated[0]} is isolated; product degree undefined")
    rows = rows[:, :-1]
    witness = _witness(rows)
    return IrregularityReport(witness is None, witness, primes, rows)


def check_matrix(m: np.ndarray) -> IrregularityReport:
    """Product-irregularity of a weighted adjacency matrix: the verdict of
    is_product_irregular on its labeled graph; ValueError unless m is a
    valid weighted adjacency matrix with no all-zero row."""
    return is_product_irregular(matrix_to_labeled_graph(m)[1])

