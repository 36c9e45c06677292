"""Exact product degrees and product-irregularity verdicts.

Product degrees are kept in factored form (prime -> exponent), so products
like 3^(n-1) stay exact at any order.

One kernel computes every verdict: is_product_irregular counts the labels
at each vertex of an edge labeling with bincount, factorizing each distinct
label value once, and reports the smallest colliding vertex pair. check_matrix
converts a weighted adjacency matrix to its labeled graph and calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import EdgeLabeling, Graph, matrix_to_labeled_graph

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

    @property
    def value(self) -> int:
        v = 1
        for p, e in self.factors:
            v *= p**e
        return v

    def __repr__(self):
        return f"ProductDegree({self.value})"


@dataclass(frozen=True)
class IrregularityReport:
    """Verdict plus per-vertex degrees; witness is the smallest colliding pair."""

    ok: bool
    witness: tuple[int, int] | None
    degrees: tuple[ProductDegree, ...]


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

    A bincount over each end of the edges counts, per label value, how many
    edges with that label meet each vertex; each label value is factorized once,
    and one product of the counts with the values' exponents gives every
    vertex's exponent per prime.
    """
    g = labeling.graph
    n = g.n_vertices
    u, v = g.ends
    values = np.array(sorted(set(labeling.values.tolist())), dtype=labeling.values.dtype)
    at = values.searchsorted(labeling.values) * n
    size = len(values) * n
    counts = (np.bincount(at + u, minlength=size)
              + np.bincount(at + v, minlength=size)).reshape(len(values), n)
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
    """Product-irregularity of a weighted adjacency matrix: the verdict of
    is_product_irregular on its labeled graph; ValueError unless m is a
    valid weighted adjacency matrix with no all-zero row."""
    return is_product_irregular(matrix_to_labeled_graph(m)[1])


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
