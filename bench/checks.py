"""Answer checks that do not reuse the code they check.

The exhaustive oracle enumerates every labeling with labels 1..s in NumPy
and shares nothing with pistr's search. Construct answers are re-parsed and
verified through ``check_matrix`` on the weighted adjacency matrix, a path
independent of the ``is_product_irregular`` call the engine makes itself.
"""

from __future__ import annotations

import json

import numpy as np

# For labels 1..4 a product degree is 2^a * 3^b with a <= 16 and b <= 8 at
# the orders checked here, so a + 64 b identifies it and adds over edges.
_LABEL_CODE = np.array([0, 1, 64, 2], dtype=np.int64)  # labels 1, 2, 3, 4
_CHUNK = 1 << 14
ORACLE_MAX_LABELINGS = 4 ** 12

# Two-part cover sizes without a catalog row (the engine's own docstring
# lists the same set); every other two-part shape has one.
_TWO_PART_RESIDUAL = {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4)}


class Unchecked(Exception):
    """The answer needs a refutation too large for the oracle."""


def is_catalog_shape(sizes) -> bool:
    """True when the cover sizes have a catalog construction, which must
    give strength 3: one part of order >= 3, two parts outside the residual
    set, three parts all >= 4 except (4,4,m>=6) and (4,6,6)."""
    s = tuple(sorted(sizes))
    if len(s) == 1:
        return s[0] >= 3
    if len(s) == 2:
        return s not in _TWO_PART_RESIDUAL
    a, b, c = s
    return a >= 4 and not (a == b == 4 and c >= 6) and s != (4, 6, 6)


def irregular_labeling_exists(n: int, edges, s: int) -> bool | None:
    """Exhaustively decide whether some labeling of the edges with labels
    1..s (s <= 4) gives all n vertices distinct products. None when the
    s^m labelings are more than ORACLE_MAX_LABELINGS."""
    if s > 4:
        raise ValueError("the oracle encodes labels 1..4 only")
    m = len(edges)
    total = s ** m
    if total > ORACLE_MAX_LABELINGS:
        return None
    incidence = np.zeros((m, n), dtype=np.int64)
    for j, (u, v) in enumerate(edges):
        incidence[j, u] = incidence[j, v] = 1
    powers = s ** np.arange(m, dtype=np.int64)
    codes = _LABEL_CODE[:s]
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(total, start + _CHUNK), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % s
        degrees = codes[digits] @ incidence
        degrees.sort(axis=1)
        if np.any(np.all(degrees[:, 1:] != degrees[:, :-1], axis=1)):
            return True
    return False


def certificate_ok(graph, labels: dict, s: int) -> bool:
    """The labeling covers exactly the graph's edges with labels 1..s and
    gives every vertex a distinct product."""
    if set(labels) != set(graph.edges):
        return False
    prod = [1] * graph.n_vertices
    for (u, v), w in labels.items():
        if not 1 <= w <= s:
            return False
        prod[u] *= w
        prod[v] *= w
    return len(set(prod)) == graph.n_vertices


def check_exact(graph, result, pinned: int | None = None) -> str | None:
    """Problem with an exact answer (value searched up to s_max = 4), or None.

    A value of 3 with a valid certificate is optimal: with labels {1, 2}
    every product is 2^a, 0 <= a <= n - 1, so n distinct products force the
    vertices with a = 0 and a = n - 1 to be adjacent, a contradiction.
    A value of 4 needs the oracle to refute 3; None needs it to refute 4.
    Raises Unchecked when that refutation is too large and no value is
    pinned.
    """
    if result.budget_exhausted:
        return "budget exhausted"
    value = result.value
    if pinned is not None and value != pinned:
        return f"value {value}, pinned {pinned}"
    if value is not None:
        if value < 3:
            return f"value {value} below the lower bound 3"
        if result.certificate is None or not certificate_ok(
                graph, dict(result.certificate.labels), value):
            return "certificate does not verify"
        if value == 3:
            return None
    refute = 4 if value is None else value - 1
    edges = sorted(graph.edges)
    found = irregular_labeling_exists(graph.n_vertices, edges, refute)
    if found is None:
        if pinned is None:
            raise Unchecked(f"refuting {refute} needs {refute}^{len(edges)} labelings")
        return None
    if found:
        return f"oracle finds a labeling with labels 1..{refute}"
    return None


def check_construct(fileio, graphs, verifier, text: str, out: str) -> str | None:
    """Problem with one `construct --json` answer, or None."""
    payload = json.loads(out)
    if not payload.get("found"):
        return "no labeling found"
    g_in, _ = fileio.parse_graph(text)
    g_out, labeling = fileio.parse_graph(payload["document"])
    if labeling is None or g_out != g_in:
        return "emitted document does not label the input graph"
    strength = payload["strength"]
    if strength not in (3, 4) or max(labeling.labels.values()) > strength:
        return f"strength {strength} does not match the labels"
    report = verifier.check_matrix(graphs.labeled_graph_to_matrix(labeling))
    if not report.ok:
        return f"labeling is not product-irregular (witness {report.witness})"
    sizes = payload["case"]["cover_sizes"]
    if sum(sizes) != g_in.n_vertices:
        return f"cover sizes {sizes} do not partition the vertices"
    if is_catalog_shape(sizes) and strength != 3:
        return f"catalog shape {sizes} answered at strength {strength}"
    return None
