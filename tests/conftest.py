"""Shared generators for randomized tests; everything is seeded."""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import signal

import numpy as np
import pytest

from pistr.graphs import (EdgeLabeling, Graph, add_cross_edge, complete_graph,
                          disjoint_union, edge_key, has_isolated_vertex_or_edge)


def random_graph_no_isolates(rng: random.Random, n_min=4, n_max=7,
                             max_edges=None) -> Graph:
    """Random graph with no isolated vertices and no isolated edges."""
    while True:
        n = rng.randint(n_min, n_max)
        pairs = list(itertools.combinations(range(n), 2))
        p = rng.uniform(0.35, 0.8)
        edges = [e for e in pairs if rng.random() < p]
        if max_edges is not None and len(edges) > max_edges:
            rng.shuffle(edges)
            edges = edges[:max_edges]
        g = Graph.from_edges(n, edges)
        if g.n_edges and not has_isolated_vertex_or_edge(g):
            return g


def random_labeling(rng: random.Random, g: Graph, s: int = 3) -> dict:
    return {e: rng.randint(1, s) for e in g.edges}


def planted_cover_graph(rng: random.Random, sizes, extra_cross=0) -> Graph:
    """Disjoint cliques joined by a random spanning tree of cross edges plus
    extra random cross edges."""
    g = complete_graph(sizes[0])
    offs = [0]
    for s in sizes[1:]:
        offs.append(g.n_vertices)
        g = disjoint_union(g, complete_graph(s))
    middle = rng.randrange(len(sizes)) if len(sizes) == 3 else 0
    others = [i for i in range(len(sizes)) if i != middle]
    for o in others:
        u = offs[middle] + rng.randrange(sizes[middle])
        v = offs[o] + rng.randrange(sizes[o])
        g = add_cross_edge(g, u, v)
    pairs = [(u, v)
             for ai in range(len(sizes)) for bi in range(ai + 1, len(sizes))
             for u in range(offs[ai], offs[ai] + sizes[ai])
             for v in range(offs[bi], offs[bi] + sizes[bi])]
    rng.shuffle(pairs)
    added = 0
    for u, v in pairs:
        if added >= extra_cross:
            break
        if not g.has_edge(u, v):
            g = add_cross_edge(g, u, v)
            added += 1
    return g


def cycle_complement(n: int, seed: int) -> Graph:
    """The complement of an n-cycle whose vertices follow the seeded
    permutation np.random.default_rng(seed).permutation(n)."""
    order = np.random.default_rng(seed).permutation(n).tolist()
    cycle = {edge_key(order[i - 1], order[i]) for i in range(n)}
    return Graph(n, frozenset(itertools.combinations(range(n), 2)) - cycle)


# The Grötzsch graph, the smallest triangle-free graph of chromatic number
# 4: the 5-cycle u0..u4 (vertices 0-4), w_i (vertex 5 + i) joined to the
# two neighbours of u_i, and z (vertex 10) joined to every w_i.
GROTZSCH_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (1, 5), (4, 5), (0, 6), (2, 6), (1, 7), (3, 7), (2, 8), (4, 8), (0, 9), (3, 9),
    (5, 10), (6, 10), (7, 10), (8, 10), (9, 10),
)


def grotzsch_blowup_complement(t: int, seed: int) -> Graph:
    """The complement of the Grötzsch graph with each vertex replaced by t
    copies that share its neighbours and not each other, numbered by the
    permutation np.random.default_rng(seed).permutation(11 * t). Each
    vertex's t copies are closed twins, and the clique cover number is the
    Grötzsch graph's chromatic number, 4."""
    n = 11 * t
    order = np.random.default_rng(seed).permutation(n).tolist()
    blown = {edge_key(order[a * t + i], order[b * t + j])
             for a, b in GROTZSCH_EDGES for i in range(t) for j in range(t)}
    return Graph(n, frozenset(itertools.combinations(range(n), 2)) - blown)


def permute_graph(rng: random.Random, g: Graph, labels=None):
    """Relabel vertices by a random permutation; returns (graph, perm[, labels])."""
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    h = Graph.from_edges(g.n_vertices, edges)
    if labels is None:
        return h, perm
    new_labels = {edge_key(perm[u], perm[v]): w for (u, v), w in labels.items()}
    return h, perm, new_labels


def brute_products(m) -> list[int]:
    """The product of each row's nonzero entries, as Python ints: the
    reference the verifier and the engine are checked against."""
    return [math.prod(w for w in row if w) for row in np.asarray(m).tolist()]


def brute_witness(products: list[int]) -> tuple[int, int] | None:
    """The lexicographically smallest pair u < v with equal products."""
    n = len(products)
    return min(((u, v) for u in range(n) for v in range(u + 1, n)
                if products[u] == products[v]), default=None)


def extend_with_ones(labeling: EdgeLabeling, new_edges) -> EdgeLabeling:
    """Labeling of a supergraph: added edges carry label 1, degrees unchanged."""
    g = labeling.graph
    labels = dict(labeling.labels)
    for u, v in new_edges:
        e = edge_key(u, v)
        if e in labels:
            raise ValueError(f"edge {e} already present")
        labels[e] = 1
    bigger = Graph(g.n_vertices, frozenset(labels))
    return EdgeLabeling(bigger, labels, labeling.strength)


def verify_k4_characterization() -> bool:
    """Exhaust all 3^6 labelings of K_4 and test the characterization via
    the product degree 6 (the exponent pair (1,1)).

    The exact biconditional that holds is: a labeling is product-irregular
    iff exactly one vertex has product degree 6. The forward direction
    (irregular implies a degree-6 vertex exists) is what forces two disjoint
    K_4 blocks to collide at strength 3; the naive converse "a degree-6
    vertex exists implies irregular" is false on 186 of the 729 labelings.
    """
    edges = sorted(complete_graph(4).edges)
    for labels in itertools.product((1, 2, 3), repeat=6):
        prod = [1, 1, 1, 1]
        for (u, v), w in zip(edges, labels):
            prod[u] *= w
            prod[v] *= w
        irregular = len(set(prod)) == 4
        if irregular != (prod.count(6) == 1):
            return False
    return True


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the test if the body runs longer than seconds, so that a hang
    fails fast instead of stalling the suite. Built on a SIGALRM interval
    timer (POSIX, main thread only): the failure is raised between two
    bytecodes, and pytest's own exception gets past ``except Exception``."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return random.Random(20240811)
