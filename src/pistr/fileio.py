"""Line-oriented graph documents.

Format: a header line "p <n_vertices> <n_edges>", then one line per edge
"e <u> <v>" or "e <u> <v> <label>" with 1-based vertex ids. Lines starting
with "c" and blank lines are ignored. Either every edge carries a label or
none does. The header declares at most MAX_VERTICES vertices.

A document of at least KERNEL_MIN_CHARS characters in the canonical form,
the one emit_graph writes, is read by one byte kernel over the text as a
uint8 array: a header "p n m", then m lines all "e u v" or all "e u v w",
each field ASCII digits (at most 18) after exactly one space, newline line
ends with the last one optional. The kernel counts the delimiters, checks
them and each line's "e" by position, and reads each field as a sum of its
digits times powers of ten. Every other document (a short one, comments,
blank lines, tabs, CRLF, a longer field, any fault) goes through the line
loop, the reference reader, which reads it or raises the message of its
first fault. The kernel's endpoint arrays then pass the range, loop,
duplicate and label checks at once, in _build; the line loop makes them
line by line.

emit_graph writes every document through byte tables: each vertex id and
each distinct label is spelled once, as one fixed-size item (numpy.void),
and the edge lines are the rows of one structured array, each field filled
by one flat gather from its table.
"""

from __future__ import annotations

import numpy as np

from .graphs import EdgeLabeling, Graph, label_array

# The largest vertex count a header may declare. A graph of n vertices
# needs arrays of n + 1 entries, so a much larger count would exhaust
# memory, or overflow int64, before a single edge is read. Under the cap
# n * n fits int64, so _build keys every edge by one integer.
MAX_VERTICES = 1 << 20

# Shorter documents go to the line loop. Its cost grows by about 1.4 us a
# line, the kernel's by far less, but the kernel and _build make some 45
# NumPy calls per document. Timed inside cli.main on the construct workload's
# documents (2 vCPUs, Python 3.11, NumPy 2.4), interleaved with the parent
# commit, the line loop took 16 us less than the kernel at 500-600
# characters, the same at 600-700 and 47 us more at 800-1000.
KERNEL_MIN_CHARS = 650

_DIGITS = 18  # the longest field the kernel reads: 10**18 - 1 fits int64
_POW10 = 10 ** np.arange(_DIGITS, dtype=np.int64)
_E, _SPACE, _NEWLINE, _ZERO = b"e \n0"  # byte values
# The delimiter bytes of an edge line, by their count: unlabeled, labeled.
_DELIMITERS = {3: np.array([_SPACE, _SPACE, _NEWLINE], np.uint8),
               4: np.array([_SPACE, _SPACE, _SPACE, _NEWLINE], np.uint8)}


class DocumentError(ValueError):
    """Malformed graph document; the message carries the 1-based line index."""


def parse_graph(text: str) -> tuple[Graph, EdgeLabeling | None]:
    fields = _split_document(text)
    parsed = None if fields is None else _build(*fields)
    return _read_lines(text) if parsed is None else parsed


def _split_document(text: str):
    """(n, u, v, labels or None) with 1-based endpoint arrays in document
    order, when the document has at least KERNEL_MIN_CHARS characters and
    the canonical form; otherwise None."""
    if len(text) < KERNEL_MIN_CHARS:
        return None
    if not text.endswith("\n"):
        text += "\n"
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    cut = data.index(b"\n")
    head = data[:cut].split(b" ")
    if (len(head) != 3 or head[0] != b"p"
            or not all(f.isdigit() and len(f) <= _DIGITS for f in head[1:])):
        return None
    n, m = int(head[1]), int(head[2])
    if not 1 <= n <= MAX_VERTICES:
        return None
    body = np.frombuffer(data, np.uint8)[cut + 1:]
    if not m:  # the header must be the whole document
        return None if len(body) else (n, *np.zeros((2, 0), np.int64), None)
    # Row i of grid: the delimiters of line i, its spaces then its "\n".
    # Each line must be "e", then fields of 1 to 18 digits, each after one
    # space: the delimiters are spaces and a line end in that order, each
    # "e" is the one byte between the previous line end and its line's
    # first space, and every other byte is a digit of some field.
    delims = np.flatnonzero(body <= _SPACE)  # also any control byte
    width, extra = divmod(len(delims), m)
    if extra or width not in _DELIMITERS:
        return None
    grid = delims.reshape(m, width)
    field_ends = grid[:, 1:]
    lengths = field_ends - grid[:, :-1] - 1  # digits per field
    longest = lengths.max()
    if (lengths.min() < 1 or longest > _DIGITS
            or np.count_nonzero(body[grid] != _DELIMITERS[width])
            or grid[0, 0] != 1 or np.count_nonzero(grid[1:, 0] - grid[:-1, -1] != 2)
            or np.count_nonzero(body[grid[:, 0] - 1] != _E)
            or np.count_nonzero(body - _ZERO < 10) != lengths.sum()):
        return None
    values = (body.take(field_ends - 1) - _ZERO).astype(np.int64)  # the units
    for place in range(1, longest):  # then the tens, hundreds, ...
        # a field shorter than this reaches back before its space, possibly
        # before the body; clip keeps the index valid, the mask drops it
        digit = body.take(field_ends - (place + 1), mode="clip") - _ZERO
        digit[lengths <= place] = 0
        values += digit * _POW10[place]
    return n, values[:, 0], values[:, 1], values[:, 2] if width == 4 else None


def _build(n: int, a: np.ndarray, b: np.ndarray, labels: np.ndarray | None):
    """The graph and labeling of 1-based endpoint arrays, edges sorted; None
    if an endpoint is out of range, an edge is a loop or a duplicate, or a
    label is below 1."""
    u, v = np.minimum(a, b), np.maximum(a, b)
    if len(u) and (u.min() < 1 or v.max() > n or np.count_nonzero(u == v)
                   or labels is not None and labels.min() < 1):
        return None
    keys = u * n + v - (n + 1)  # of the 0-based pair
    if labels is None:
        keys.sort()
    else:  # the labels follow their edges
        order = keys.argsort()
        keys, labels = keys[order], labels[order]
    if np.count_nonzero(keys[1:] == keys[:-1]):
        return None
    return _assemble(n, keys, labels)


def _assemble(n: int, keys: np.ndarray, labels: np.ndarray | None):
    """The graph of ascending distinct edge keys u * n + v (0-based, u < v)
    and its labeling, labels aligned with the keys."""
    g = Graph._from_ends(n, *np.divmod(keys, n), keys)
    if labels is None:
        return g, None
    return g, EdgeLabeling._from_values(g, labels, int(labels.max()))


def _read_lines(text: str) -> tuple[Graph, EdgeLabeling | None]:
    """The document read line by line, every check made on the line that
    fails it: the graph and labeling, or DocumentError with the first
    fault's message."""
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
            e = u * n + v - n1 if u < v else v * n + u - n1  # as in _build
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
            n1 = n + 1
        elif head[0] != "c":
            raise DocumentError(f"line {lineno}: unknown record {head!r}")
    if n is None:
        raise DocumentError("missing 'p' header line")
    if len(labels) != declared_edges:
        raise DocumentError(
            f"header declares {declared_edges} edges, found {len(labels)}")
    if 0 < n_labeled < len(labels):
        raise DocumentError("mixed labeled and unlabeled edges")
    keys = sorted(labels)
    return _assemble(n, np.array(keys, dtype=np.int64),
                     label_array([labels[e] for e in keys]) if n_labeled else None)


def emit_graph(g: Graph, labeling: EdgeLabeling | None = None) -> str:
    """The document of g (and its labels), edges in sorted order."""
    if labeling is not None and labeling.graph is not g and labeling.graph != g:
        raise ValueError("the labeling is not a labeling of this graph")
    header = f"p {g.n_vertices} {g.n_edges}\n"
    u, v = g.ends
    if not len(u):
        return header
    # Row k: "e", " u", " v", [" w"] and "\n" of edge k, each spelling one
    # fixed-size field padded with zero bytes, which the last step drops.
    ids = _spellings(g.n_vertices)[1:]
    fields = [(ids, u), (ids, v)]
    if labeling is not None:
        values = labeling.values
        top = values.max()
        if values.dtype != object and len(str(top)) in _NUMBERS:
            fields.append((_spellings(top), values))
        else:
            distinct, inverse = np.unique(values, return_inverse=True)
            fields.append((_spelled(distinct), inverse))
    spelled = [(f"f{k}", table.dtype) for k, (table, _) in enumerate(fields)]
    rows = np.empty(len(u), [("e", np.uint8), *spelled, ("end", np.uint8)])
    rows["e"], rows["end"] = _E, _NEWLINE
    for (name, _), (table, index) in zip(spelled, fields):
        rows[name] = table.take(index)
    return header + rows.tobytes().translate(None, b"\0").decode("ascii")


def _spelled(values: np.ndarray) -> np.ndarray:
    """Item i: a space, then the decimal digits of the nonnegative values[i],
    as ASCII bytes padded on the right with zero bytes, all one fixed-size
    item (numpy.void) so that a gather moves whole spellings."""
    if values.dtype == object:
        digits = np.array([str(w) for w in values.tolist()], dtype="S")
    else:
        digits = values.astype(f"S{len(str(values.max()))}")
    table = np.empty((len(values), digits.itemsize + 1), np.uint8)
    table[:, 0] = _SPACE
    table[:, 1:] = digits.view(np.uint8).reshape(len(values), -1)
    return table.view(f"V{table.shape[1]}").reshape(-1)


# _NUMBERS[d] spells 0 .. 10**d - 1 in d digit places: most ids and labels.
_NUMBERS = {d: _spelled(np.arange(10 ** d)) for d in range(1, 5)}


def _spellings(top: int) -> np.ndarray:
    """Items 0..top: item i spells i as _spelled does."""
    table = _NUMBERS.get(len(str(top)))
    return _spelled(np.arange(top + 1)) if table is None else table[:top + 1]
