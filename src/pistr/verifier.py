"""Exact product degrees and product-irregularity verdicts.

Product degrees are kept in factored form (prime -> exponent), so products
like 3^(n-1) stay exact at any order. For labels drawn from {1, 2, 3} a
degree collapses to the exponent pair (a, b) with value 2^a * 3^b.

Two entry points reach the same verdict by separate paths:
is_product_irregular reads the label array of an edge labeling with one
bincount, factorizing each distinct label value once; check_matrix reads the rows of a
weighted adjacency matrix. Both report the smallest colliding vertex pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graphs import EdgeLabeling, Graph, validate_weighted_adjacency

_factor_cache: dict[int, tuple[tuple[int, int], ...]] = {1: ()}


def factorize(v: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of v >= 1 as sorted (prime, exponent) pairs."""
    if v < 1:
        raise ValueError("labels must be positive")
    cached = _factor_cache.get(v)
    if cached is not None:
        return cached
    rest, d, out = v, 2, []
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    result = tuple(out)
    _factor_cache[v] = result
    return result


@dataclass(frozen=True)
class ProductDegree:
    """Factored product of incident edge labels; label 1 contributes nothing."""

    factors: tuple[tuple[int, int], ...]

    @classmethod
    def from_value(cls, v: int) -> "ProductDegree":
        return cls(factorize(v))

    @classmethod
    def from_labels(cls, labels) -> "ProductDegree":
        acc: Counter[int] = Counter()
        for w in labels:
            for p, e in factorize(w):
                acc[p] += e
        return cls(tuple(sorted(acc.items())))

    @classmethod
    def from_pair(cls, a: int, b: int) -> "ProductDegree":
        out = []
        if a:
            out.append((2, a))
        if b:
            out.append((3, b))
        return cls(tuple(out))

    @property
    def value(self) -> int:
        v = 1
        for p, e in self.factors:
            v *= p**e
        return v

    @property
    def pair(self) -> tuple[int, int]:
        """(exponent of 2, exponent of 3); defined only for labels in {1,2,3}."""
        if any(p not in (2, 3) for p, _ in self.factors):
            raise ValueError("degree has prime factors beyond 2 and 3")
        d = dict(self.factors)
        return d.get(2, 0), d.get(3, 0)

    def __repr__(self):
        return f"ProductDegree({self.value})"


@dataclass(frozen=True)
class IrregularityReport:
    """Verdict plus per-vertex degrees; witness is the smallest colliding pair."""

    ok: bool
    witness: tuple[int, int] | None
    degrees: tuple[ProductDegree, ...]


def product_degree(labeling: EdgeLabeling, v: int) -> ProductDegree:
    """Factored product of the labels of the edges incident with v."""
    nbrs = labeling.graph.neighbors(v)
    if not nbrs:
        raise ValueError(f"vertex {v} is isolated; product degree undefined")
    return ProductDegree.from_labels(labeling.label(v, u) for u in nbrs)


def _report(degrees: list[ProductDegree]) -> IrregularityReport:
    groups: dict[tuple, list[int]] = {}
    for v, d in enumerate(degrees):
        groups.setdefault(d.factors, []).append(v)
    witness = None
    for members in groups.values():
        if len(members) > 1:
            pair = (members[0], members[1])
            if witness is None or pair < witness:
                witness = pair
    return IrregularityReport(witness is None, witness, tuple(degrees))


def is_product_irregular(labeling: EdgeLabeling) -> IrregularityReport:
    """All vertices must have pairwise distinct product degrees.

    One bincount over the edge ends counts, per label value, how many edges
    with that label meet each vertex; each label value is factorized once,
    and one product of the counts with the values' exponents gives every
    vertex's exponent per prime.
    """
    g = labeling.graph
    n = g.n_vertices
    u, v = g.ends
    values = np.array(sorted(set(labeling.values.tolist())), dtype=labeling.values.dtype)
    at = values.searchsorted(labeling.values) * n
    counts = np.bincount(np.concatenate((at + u, at + v)),
                         minlength=len(values) * n).reshape(len(values), n)
    factors = [dict(factorize(w)) for w in values.tolist()]
    primes = sorted(set().union(*factors))
    # one column per prime, then a column of ones that counts the edges
    exponents = np.array([[f.get(p, 0) for p in primes] + [1] for f in factors],
                         dtype=np.int64).reshape(len(values), len(primes) + 1)
    rows = (counts.T @ exponents).tolist()
    for x, row in enumerate(rows):
        if not row[-1]:
            raise ValueError(f"vertex {x} is isolated; product degree undefined")
    return _report([ProductDegree(tuple((p, e) for p, e in zip(primes, row) if e))
                    for row in rows])


def check_matrix(m: np.ndarray) -> IrregularityReport:
    """Product-irregularity of a weighted adjacency matrix.

    The verdict equals is_product_irregular on the converted labeled graph;
    rows are read directly (product of nonzero entries), with a vectorized
    path for matrices over {0,1,2,3}.
    """
    m = validate_weighted_adjacency(m)
    if m.shape[0] == 0:
        return IrregularityReport(True, None, ())
    row_nonzero = (m > 0).sum(axis=1)
    if np.any(row_nonzero == 0):
        raise ValueError("matrix has an all-zero row (isolated vertex)")
    if m.max() <= 3:
        a = (m == 2).sum(axis=1)
        b = (m == 3).sum(axis=1)
        degrees = [ProductDegree.from_pair(int(ai), int(bi)) for ai, bi in zip(a, b)]
    else:
        degrees = []
        for row in m:
            degrees.append(ProductDegree.from_labels(int(w) for w in row if w))
    return _report(degrees)


def extend_with_ones(labeling: EdgeLabeling, new_edges) -> EdgeLabeling:
    """Labeling of a supergraph: added edges carry label 1, degrees unchanged."""
    g = labeling.graph
    labels = dict(labeling.labels)
    for u, v in new_edges:
        e = (u, v) if u < v else (v, u)
        if e in labels:
            raise ValueError(f"edge {e} already present")
        labels[e] = 1
    bigger = Graph(g.n_vertices, frozenset(labels))
    return EdgeLabeling(bigger, labels, labeling.strength)
