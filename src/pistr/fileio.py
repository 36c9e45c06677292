"""Line-oriented graph documents.

Format: a header line "p <n_vertices> <n_edges>", then one line per edge
"e <u> <v>" or "e <u> <v> <label>" with 1-based vertex ids. Lines starting
with "c" and blank lines are ignored. Either every edge carries a label or
none does.
"""

from __future__ import annotations

from bisect import bisect_right

from .graphs import EdgeLabeling, Graph


class DocumentError(ValueError):
    """Malformed graph document; the message carries the 1-based line index."""


def parse_graph(text: str) -> tuple[Graph, EdgeLabeling | None]:
    n = None
    declared_edges = None
    labels: dict = {}
    n_labeled = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        head = fields[0]
        if head == "e":
            if n is None:
                raise DocumentError(f"line {lineno}: edge before header")
            arity = len(fields)
            if arity != 3 and arity != 4:
                raise DocumentError(f"line {lineno}: edge must be 'e <u> <v> [label]'")
            try:
                u, v = int(fields[1]), int(fields[2])
                w = int(fields[3]) if arity == 4 else None
            except ValueError:
                raise DocumentError(f"line {lineno}: non-integer edge fields") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DocumentError(f"line {lineno}: vertex id outside 1..{n}")
            if u == v:
                raise DocumentError(f"line {lineno}: loop at vertex {u}")
            e = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if e in labels:
                raise DocumentError(f"line {lineno}: duplicate edge {u} {v}")
            if w is not None:
                if w < 1:
                    raise DocumentError(f"line {lineno}: label must be >= 1")
                n_labeled += 1
            labels[e] = w
        elif head == "p":
            if n is not None:
                raise DocumentError(f"line {lineno}: duplicate header")
            if len(fields) != 3:
                raise DocumentError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                n, declared_edges = int(fields[1]), int(fields[2])
            except ValueError:
                raise DocumentError(f"line {lineno}: non-integer header fields") from None
            if n < 1 or declared_edges < 0:
                raise DocumentError(f"line {lineno}: header out of range")
        elif head[0] != "c":
            raise DocumentError(f"line {lineno}: unknown record {head!r}")
    if n is None:
        raise DocumentError("missing 'p' header line")
    if len(labels) != declared_edges:
        raise DocumentError(
            f"header declares {declared_edges} edges, found {len(labels)}")
    if 0 < n_labeled < len(labels):
        raise DocumentError("mixed labeled and unlabeled edges")
    g = Graph(n, frozenset(labels))
    if n_labeled:
        return g, EdgeLabeling.make(g, labels)
    return g, None


def emit_graph(g: Graph, labeling: EdgeLabeling | None = None) -> str:
    """The document of g (and its labels): edges in sorted order, read off
    the sorted adjacency rows, u ascending and each v > u in row order."""
    ids = [str(v + 1) for v in range(g.n_vertices)]
    lines = [f"p {g.n_vertices} {g.n_edges}"]
    labels = None if labeling is None else labeling.labels
    for u, nbrs in enumerate(g.adjacency):
        upper = nbrs[bisect_right(nbrs, u):]
        head = f"e {ids[u]} "
        if labels is None:
            lines += [head + ids[v] for v in upper]
        else:
            lines += [f"{head}{ids[v]} {labels[u, v]}" for v in upper]
    return "\n".join(lines) + "\n"
