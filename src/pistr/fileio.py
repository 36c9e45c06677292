"""Line-oriented graph documents.

Format: a header line "p <n_vertices> <n_edges>", then one line per edge
"e <u> <v>" or "e <u> <v> <label>" with 1-based vertex ids. Lines starting
with "c" and blank lines are ignored. Either every edge carries a label or
none does.
"""

from __future__ import annotations

from .graphs import EdgeLabeling, Graph, edge_key


class DocumentError(ValueError):
    """Malformed graph document; the message carries the 1-based line index."""


def parse_graph(text: str) -> tuple[Graph, EdgeLabeling | None]:
    n = None
    declared_edges = None
    labels: dict = {}
    labeled_flags = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
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
        elif fields[0] == "e":
            if n is None:
                raise DocumentError(f"line {lineno}: edge before header")
            if len(fields) not in (3, 4):
                raise DocumentError(f"line {lineno}: edge must be 'e <u> <v> [label]'")
            try:
                u, v = int(fields[1]), int(fields[2])
                w = int(fields[3]) if len(fields) == 4 else None
            except ValueError:
                raise DocumentError(f"line {lineno}: non-integer edge fields") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DocumentError(f"line {lineno}: vertex id outside 1..{n}")
            if u == v:
                raise DocumentError(f"line {lineno}: loop at vertex {u}")
            e = edge_key(u - 1, v - 1)
            if e in labels:
                raise DocumentError(f"line {lineno}: duplicate edge {u} {v}")
            if w is not None and w < 1:
                raise DocumentError(f"line {lineno}: label must be >= 1")
            labels[e] = w
            labeled_flags.add(w is not None)
        else:
            raise DocumentError(f"line {lineno}: unknown record {fields[0]!r}")
    if n is None:
        raise DocumentError("missing 'p' header line")
    if len(labels) != declared_edges:
        raise DocumentError(
            f"header declares {declared_edges} edges, found {len(labels)}")
    if len(labeled_flags) > 1:
        raise DocumentError("mixed labeled and unlabeled edges")
    g = Graph(n, frozenset(labels))
    if labeled_flags == {True}:
        return g, EdgeLabeling.make(g, labels)
    return g, None


def emit_graph(g: Graph, labeling: EdgeLabeling | None = None) -> str:
    ids = [str(v + 1) for v in range(g.n_vertices)]
    lines = [f"p {g.n_vertices} {g.n_edges}"]
    if labeling is None:
        lines += [f"e {ids[u]} {ids[v]}" for u, v in g.sorted_edges()]
    else:
        labels = labeling.labels
        lines += [f"e {ids[u]} {ids[v]} {labels[u, v]}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"
