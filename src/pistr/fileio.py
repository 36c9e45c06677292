"""Line-oriented graph documents.

Format: a header line "p <n_vertices> <n_edges>", then one line per edge
"e <u> <v>" or "e <u> <v> <label>" with 1-based vertex ids. Lines starting
with "c" and blank lines are ignored. Either every edge carries a label or
none does. The header declares at most MAX_VERTICES vertices.

A document is read with one split of its text into tokens, the line breaks
kept as separator tokens. When it is a header line followed by edge lines
alone, all labeled or all unlabeled, its fields become int arrays and every
check runs on the arrays at once. Any other document (comments, blank
lines, a field that is not an int64, a failed check) goes through the line
loop, which reads it or raises the message of its first fault.
"""

from __future__ import annotations

import numpy as np

from .graphs import EdgeLabeling, Graph, label_array

_SEP = "\0"  # stands for each line break in the token stream

# The largest vertex count a header may declare. A graph of n vertices
# needs arrays of n + 1 entries, so a much larger count would exhaust
# memory, or overflow int64, before a single edge is read. Under the cap
# n * n fits int64, so _build keys every edge by one integer.
MAX_VERTICES = 1 << 20


class DocumentError(ValueError):
    """Malformed graph document; the message carries the 1-based line index."""


def parse_graph(text: str) -> tuple[Graph, EdgeLabeling | None]:
    fields = _split_document(text)
    parsed = None if fields is None else _build(*fields)
    if parsed is None:
        parsed = _build(*_read_lines(text))
    return parsed


def _split_document(text: str):
    """(n, u, v, labels or None) with 1-based endpoint arrays in document
    order, when the document is a header line followed by edge lines of
    one arity and every field is an int64; otherwise None."""
    if _SEP in text:
        return None
    tokens = f" {_SEP} ".join(text.splitlines()).split()
    if len(tokens) < 3 or tokens[0] != "p":
        return None
    try:
        n, m = int(tokens[1]), int(tokens[2])
    except ValueError:
        return None
    if not 1 <= n <= MAX_VERTICES or m < 0:
        return None
    del tokens[:3]  # the header; the edge lines remain
    width = len(tokens) // m if m else 4  # SEP e u v [label]
    if (width not in (4, 5) or len(tokens) != width * m
            or tokens[::width].count(_SEP) != m or tokens[1::width].count("e") != m):
        return None
    del tokens[::width]  # the separators
    del tokens[::width - 1]  # the "e" heads
    try:
        fields = np.array(tokens, dtype=np.int64).reshape(m, width - 2)
    except (ValueError, OverflowError):
        return None
    return n, fields[:, 0], fields[:, 1], fields[:, 2] if width == 5 else None


def _build(n: int, a: np.ndarray, b: np.ndarray, labels: np.ndarray | None):
    """The graph and labeling of 1-based endpoint arrays, edges sorted; None
    if an endpoint is out of range, an edge is a loop or a duplicate, or a
    label is below 1."""
    u, v = np.minimum(a, b), np.maximum(a, b)
    if len(u) and (u.min() < 1 or v.max() > n or np.count_nonzero(u == v)
                   or labels is not None and labels.min() < 1):
        return None
    keys = u * n + v - (n + 1)  # of the 0-based pair
    order = keys.argsort()
    keys = keys[order]
    if np.count_nonzero(keys[1:] == keys[:-1]):
        return None
    g = Graph._from_ends(n, *np.divmod(keys, n), keys)
    if labels is None:
        return g, None
    labels = labels[order]
    return g, EdgeLabeling._from_values(g, labels, int(labels.max()))


def _read_lines(text: str):
    """The document read line by line: (n, u, v, labels or None) as in
    _split_document, or DocumentError with the first fault's message."""
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
            e = (u, v) if u < v else (v, u)
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
            if not 1 <= n <= MAX_VERTICES or declared_edges < 0:
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
    ends = np.array(list(labels), dtype=np.int64).reshape(-1, 2)
    return (n, ends[:, 0], ends[:, 1],
            label_array(list(labels.values())) if n_labeled else None)


def emit_graph(g: Graph, labeling: EdgeLabeling | None = None) -> str:
    """The document of g (and its labels), edges in sorted order."""
    if labeling is not None and labeling.graph is not g and labeling.graph != g:
        raise ValueError("the labeling is not a labeling of this graph")
    ids = [str(v + 1) for v in range(g.n_vertices)]
    u, v = (end.tolist() for end in g.ends)
    lines = [f"p {g.n_vertices} {g.n_edges}"]
    if labeling is None:
        lines += [f"e {ids[a]} {ids[b]}" for a, b in zip(u, v)]
    else:
        values = labeling.values.tolist()
        names = {w: str(w) for w in set(values)}
        lines += [f"e {ids[a]} {ids[b]} {names[w]}" for a, b, w in zip(u, v, values)]
    return "\n".join(lines) + "\n"
