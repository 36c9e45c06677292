"""Seeded inputs for the benchmark workloads.

Each generator takes a ``random.Random`` built from the workload seed and
returns plain data: document text for ``construct``, pistr graphs for the
exact workloads. The composition of every instance set (which shapes and
sizes, how many of each) is fixed; the seed draws vertex numberings, tree
edges, surplus edges and random graph structure. That keeps a pass over the
set comparable from one seed to the next while the inputs themselves differ.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

# Planted cover sizes for the construct stream. Catalog rows first: one
# part, two parts, the direct-sum rows of three parts and the four
# "+2 edges" injection rows.
ONE_PART = [(3,), (4,), (5,), (7,), (10,), (16,)]
TWO_PART_CATALOG = [(4, 4), (5, 5), (6, 6), (4, 7), (5, 9), (3, 5), (3, 8),
                    (2, 4), (2, 7), (1, 4), (1, 9)]
THREE_PART_DIRECT = [(6, 6, 6), (5, 6, 6), (6, 6, 7), (4, 6, 7), (4, 5, 6),
                     (5, 5, 6), (7, 8, 9), (4, 7, 9), (5, 8, 8), (6, 6, 9),
                     (5, 6, 8), (5, 5, 8), (4, 6, 9), (4, 5, 8)]
THREE_PART_INJECTION = [(5, 5, 5), (4, 5, 5), (4, 4, 5), (4, 4, 4)]
# Shapes without a catalog row, which go to the engine's bounded search.
TWO_PART_FALLBACK = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4)]
THREE_PART_FALLBACK = [(1, 4, 5), (2, 2, 2), (3, 3, 3), (2, 5, 7), (3, 4, 4),
                       (3, 6, 9), (1, 5, 6), (4, 4, 6), (4, 4, 9), (4, 6, 6)]

# Smallest part of each balanced three-part cover, each drawn twice; the
# other two parts are up to two larger, capped at 16. Two passes over the
# stream then time more than 200 operations, the least for reporting a p95.
BALANCED_SMALLEST = (10, 11, 12, 13, 14, 15, 16)
BALANCED_REPEATS = 2
# The large planted covers, 8 of 103 documents, of 360 to 900 vertices. The
# smallest part of a multi-part cover stays small because the cover search
# is exponential in it; a three-part cover with a part of 2 or 3 goes to the
# engine's fallback.
LARGE_COVERS = ((360,), (3, 417), (2, 239, 239), (5, 277, 278), (8, 316, 316),
                (3, 358, 359), (6, 402, 402), (4, 448, 448))

RANDOM_EDGE_CAP = 14
SINGLE_REPEATS = 20  # 27 connected shapes: 540 graphs
UNION_REPEATS = 8  # 21 pairs of component shapes: 168 unions
# (order, size) of the union components: connected, 3 to 5 vertices, and
# each has a realisation without twins (K4 minus an edge and K5 minus an
# edge have none).
UNION_COMPONENTS = ((3, 2), (4, 3), (4, 4), (5, 4), (5, 5), (5, 6), (5, 7), (5, 8))


@dataclass(frozen=True)
class Document:
    """One unlabeled input document of the construct stream; the ident names
    its kind (catalog, fallback, balanced or large) and planted shape."""

    ident: str
    text: str


@dataclass(frozen=True)
class Instance:
    """One exact-strength instance: a graph and the solver that handles it."""

    ident: str
    graph: object  # pistr.graphs.Graph
    solver: str  # "ps_exact" | "ps_exact_disconnected"


def planted_cover(rng: random.Random, sizes, middle: int = 0,
                  same_vertex: bool = True, extra: int = 0):
    """Disjoint cliques of the given sizes joined by a spanning tree of cross
    edges through part ``middle``, plus ``extra`` surplus cross edges, with
    vertices renumbered at random. Returns (n_vertices, parts, cross edges)
    with 0-based vertex ids; every part is a clique."""
    n = sum(sizes)
    perm = list(range(n))
    rng.shuffle(perm)
    offs = list(itertools.accumulate(sizes, initial=0))
    parts = [perm[off:off + size] for off, size in zip(offs, sizes)]
    mid = middle if len(sizes) == 3 else 0
    hub = rng.randrange(sizes[mid])
    cross = set()
    for o in (p for p in range(len(sizes)) if p != mid):
        if not same_vertex:
            hub = (hub + 1) % sizes[mid]
        cross.add(_pair(parts[mid][hub], rng.choice(parts[o])))
    if len(sizes) > 1:
        cross_total = sum(a * b for a, b in itertools.combinations(sizes, 2))
        target = len(cross) + min(extra, cross_total - len(cross))
        while len(cross) < target:
            a, b = rng.sample(range(len(sizes)), 2)
            cross.add(_pair(rng.choice(parts[a]), rng.choice(parts[b])))
    return n, parts, sorted(cross)


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def document_text(n: int, parts, cross) -> str:
    """Unlabeled document: header, then each clique's edges, then the cross
    edges, with 1-based vertex ids."""
    lines = []
    for part in parts:
        ids = [str(v + 1) for v in part]
        lines.extend(f"e {a} {b}\n" for i, a in enumerate(ids) for b in ids[i + 1:])
    lines.extend(f"e {u + 1} {v + 1}\n" for u, v in cross)
    return f"p {n} {len(lines)}\n" + "".join(lines)


def _doc(rng, kind, sizes, middle=0, same_vertex=True, extra=0) -> Document:
    n, parts, cross = planted_cover(rng, sizes, middle, same_vertex, extra)
    tag = "same" if same_vertex else "diff"
    ident = f"{kind}:{'-'.join(map(str, sizes))}:m{middle}:{tag}:x{extra}"
    return Document(ident, document_text(n, parts, cross))


def construct_documents(rng: random.Random, smoke: bool = False) -> list[Document]:
    """The construct stream: every catalog row and fallback shape, balanced
    three-part covers with parts up to 16, and about one large planted cover
    in 13, in a seeded order."""
    docs = []
    for sizes in ONE_PART + TWO_PART_CATALOG + THREE_PART_DIRECT:
        docs.append(_doc(rng, "catalog", sizes, rng.randrange(len(sizes)),
                         rng.random() < 0.5, rng.randint(0, 3)))
    for sizes in THREE_PART_INJECTION:
        for middle, same in itertools.product(range(3), (True, False)):
            docs.append(_doc(rng, "catalog", sizes, middle, same))
    for sizes in TWO_PART_FALLBACK:
        docs.append(_doc(rng, "fallback", sizes, 0, True, rng.randint(0, 1)))
    for sizes in THREE_PART_FALLBACK:
        for same in (True, False):
            docs.append(_doc(rng, "fallback", sizes, rng.randrange(3), same))
    for a in BALANCED_SMALLEST * BALANCED_REPEATS:
        sizes = (a, min(16, a + rng.randint(0, 2)), min(16, a + rng.randint(0, 2)))
        docs.append(_doc(rng, "balanced", sizes, rng.randrange(3),
                         rng.random() < 0.5, rng.randint(0, 3)))
    # A large cover's cost depends on the part its tree edges meet and on
    # their pattern; those stay fixed so that the seed, which draws only the
    # numbering and the endpoints, does not move the tail from run to run.
    large = [_doc(rng, "large", sizes, 1 if len(sizes) == 3 else 0, True, 1)
             for sizes in LARGE_COVERS]
    if smoke:
        docs = docs[::12]
        large = [_doc(rng, "large", (3, 58, 59), 1)]
    rng.shuffle(docs)
    # Spread the large documents evenly through the stream.
    step = len(docs) // len(large)
    for k, doc in enumerate(large):
        docs.insert(k * (step + 1), doc)
    return docs


def limit_probes() -> list[tuple[str, int, list[tuple[int, int]]]]:
    """Inputs past the cover search's known limits: K1000 overflows its
    recursion, a planted (50,60,70) cover runs for minutes. Returns
    (ident, n_vertices, 0-based edges) triples; they do not depend on the
    workload seed."""
    n = 1000
    k1000 = [(u, v) for u in range(n) for v in range(u + 1, n)]
    n2, parts, cross = planted_cover(random.Random(1806), (50, 60, 70), middle=1)
    planted = [_pair(u, v) for part in parts
               for i, u in enumerate(part) for v in part[i + 1:]] + cross
    return [("probe:K1000", n, k1000), ("probe:50-60-70", n2, planted)]


def random_connected(rng: random.Random, n: int, m: int):
    """Connected graph on n vertices with m edges: a random tree plus random
    extra edges. Returns a sorted edge list."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)])))
             for i in range(1, n)}
    rest = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    rng.shuffle(rest)
    edges.update(rest[:m - len(edges)])
    return sorted(edges)


def twin_vertices(n: int, edges) -> int:
    """Number of vertices that have a twin: another vertex with the same
    closed neighbourhood. Swapping two twins is an automorphism."""
    closed = [{v} for v in range(n)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    counts = Counter(frozenset(c) for c in closed)
    return sum(k for k in counts.values() if k > 1)


def _single_shapes() -> list[tuple[int, int]]:
    """(n, m) of the connected random graphs: 6 to 9 vertices, n to 14
    edges, and at least 4 edges missing so that few vertices are twins."""
    return [(n, m) for n in range(6, 10)
            for m in range(n, min(RANDOM_EDGE_CAP, n * (n - 1) // 2 - 4) + 1)]


def _union_shapes() -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Pairs of UNION_COMPONENTS with at most 9 vertices in all."""
    return [(a, b) for a, b in itertools.combinations_with_replacement(UNION_COMPONENTS, 2)
            if a[0] + b[0] <= 9]


def random_instances(rng: random.Random, graph_cls, smoke: bool = False) -> list[Instance]:
    """Random graphs with 6 to 9 vertices and at most 14 edges, each with at
    most one pair of twins, in a seeded order. Each connected (n, m) shape
    appears SINGLE_REPEATS times and each pair of component shapes
    UNION_REPEATS times, so about a quarter of the instances are disjoint
    unions of two distinct random components."""
    singles = _single_shapes() * (1 if smoke else SINGLE_REPEATS)
    unions = _union_shapes()[::4] if smoke else _union_shapes() * UNION_REPEATS
    out = []
    for i, (n, m) in enumerate(singles):
        edges = random_connected(rng, n, m)
        while twin_vertices(n, edges) > 2:
            edges = random_connected(rng, n, m)
        out.append(Instance(f"single:{i}:{n}-{m}", graph_cls.from_edges(n, edges),
                            "ps_exact"))
    for i, ((n1, m1), (n2, m2)) in enumerate(unions):
        while True:
            e1 = random_connected(rng, n1, m1)
            e2 = random_connected(rng, n2, m2)
            edges = e1 + [(u + n1, v + n1) for u, v in e2]
            if (n1, e1) != (n2, e2) and twin_vertices(n1 + n2, edges) <= 2:
                break
        out.append(Instance(f"union:{i}:{n1}-{m1}+{n2}-{m2}",
                            graph_cls.from_edges(n1 + n2, edges),
                            "ps_exact_disconnected"))
    rng.shuffle(out)
    return out


def clique_instances(graphs_mod, smoke: bool = False) -> list[Instance]:
    """The fixed exact-cliques set: complete graphs, clique unions joined by
    tree edges, and disjoint clique unions for the per-component solver."""
    K = graphs_mod.complete_graph
    union = graphs_mod.disjoint_union
    edge = graphs_mod.add_cross_edge

    def joined(a, b):
        return edge(union(K(a), K(b)), 0, a)

    path = edge(edge(union(union(K(3), K(3)), K(3)), 0, 3), 4, 6)
    items = [(f"K{n}", K(n), "ps_exact") for n in (5, 6, 7, 8)]
    items += [(f"K{a}+K{b}+e", joined(a, b), "ps_exact")
              for a, b in ((3, 3), (3, 4), (4, 4), (4, 5))]
    items += [("K3+K3+K3 path", path, "ps_exact"),
              ("K4+K4", union(K(4), K(4)), "ps_exact_disconnected"),
              ("K5+K5", union(K(5), K(5)), "ps_exact_disconnected"),
              ("K5+K5+K4", union(union(K(5), K(5)), K(4)), "ps_exact_disconnected"),
              ("K4+K4 (ps_exact)", union(K(4), K(4)), "ps_exact")]
    if smoke:
        items = [it for it in items if it[0] not in ("K7", "K8")]
    return [Instance(ident, g, solver) for ident, g, solver in items]
