"""Line-oriented graph documents.

Format: a header line "p <n_vertices> <n_edges>", then one line per edge
"e <u> <v>" or "e <u> <v> <label>" with 1-based vertex ids. Lines starting
with "c" and blank lines are ignored. Either every edge carries a label or
none does. The header declares at most MAX_VERTICES vertices.

A document of at least KERNEL_MIN_CHARS characters in the canonical form,
the one emit_graph writes, is read by one byte kernel over the text as a
uint8 array: a header "p n m", then m lines all "e u v" or all "e u v w",
each field ASCII digits (at most 18) after exactly one space, newline line
ends with the last one optional. The kernel finds the delimiters and works
on them as 1-D columns, the c-th delimiter of every line: it checks each
delimiter, each gap between two of them and each line's "e" by position,
then reads a column's fields as a sum of their digits times powers of ten,
one gather per digit place. Every other document (a short one, comments,
blank lines, tabs, CRLF, a longer field, any fault) goes through the line
loop, the reference reader, which reads it or raises the message of its
first fault. The kernel's endpoint arrays then pass the range, loop,
duplicate and label checks at once, in _build; the line loop makes them
line by line.

emit_graph writes every document through byte tables: each vertex id and
each distinct label is spelled once, as one fixed-size item (numpy.void),
and the edge lines are the rows of one structured array, each field filled
by one flat gather from its table. The line end is one more field, so the
same tables write a document as the body of a JSON string: each line end a
backslash and an "n", and nothing else to escape.
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
# documents of seeds 201-212 (2 vCPUs, Python 3.11, NumPy 2.4), best of 7,
# the line loop took 9 us less than the column kernel at 450-550
# characters, 2-3 us more at 600-700 and 16 us more at 800-850. The grid
# kernel before it crossed over at the same length (6-10 us less, 0-2 us
# more, 14 us more, timed interleaved with it).
KERNEL_MIN_CHARS = 650

_DIGITS = 18  # the longest field the kernel reads: 10**18 - 1 fits int64
_POW10 = 10 ** np.arange(_DIGITS, dtype=np.int64)
_E, _SPACE, _NEWLINE, _ZERO = b"e \n0"  # byte values


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
    # Each line must be "e", then fields of 1 to 18 digits, each after one
    # space. Column c, delims[c::width], holds the c-th delimiter of every
    # line: spaces in the first columns, "\n" in the last (with "\n" in the
    # last, m * (width - 1) spaces in the body fill the others). steps[i] is
    # one more than the bytes between delimiters i and i + 1: the digits of
    # a field within a line, and 2 across a line end, around the next "e".
    # Every byte that is neither a delimiter nor an "e" is a digit.
    delims = np.flatnonzero(body <= _SPACE)  # also any control byte
    width, extra = divmod(len(delims), m)
    if extra or width not in (3, 4):
        return None
    steps = np.diff(delims)
    if (delims[0] != 1 or steps.min() < 2 or steps.max() > _DIGITS + 1
            or np.count_nonzero(steps[width - 1::width] != 2)
            or np.count_nonzero(body.take(delims[width - 1::width]) != _NEWLINE)
            or np.count_nonzero(body == _SPACE) != m * (width - 1)
            or np.count_nonzero(body.take(delims[::width] - 1) != _E)
            or np.count_nonzero(body - _ZERO < 10) != len(body) - len(delims) - m):
        return None
    columns = []
    for c in range(1, width):  # field c - 1 ends at the delimiter of column c
        ends, step = delims[c::width], steps[c - 1::width]
        value = (body.take(ends - 1) & 15).astype(np.int64)  # the units
        for place in range(1, int(step.max()) - 1):  # the tens, hundreds, ...
            # byte & 15 is the value of a digit and 0 for the space before
            # a field. A field shorter than place reaches back further,
            # possibly before the body: clip keeps the index valid, and the
            # mask drops the byte.
            digit = body.take(ends - (place + 1), mode="clip") & 15
            if place >= step.min():  # some field is shorter than place
                digit[step <= place] = 0
            value += digit * _POW10[place]
        columns.append(value)
    return n, columns[0], columns[1], columns[2] if width == 4 else None


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
    g = Graph._from_ends(n, *np.divmod(keys, n))
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


def emit_graph(g: Graph, labeling: EdgeLabeling | None = None,
               line_end: str = "\n") -> str:
    """The document of g (and its labels), edges in sorted order, each line
    ended by line_end. A backslash and an "n" as line_end give the body of
    the document's JSON string."""
    if labeling is not None and labeling.graph is not g and labeling.graph != g:
        raise ValueError("the labeling is not a labeling of this graph")
    header = f"p {g.n_vertices} {g.n_edges}{line_end}"
    u, v = g.ends
    if not len(u):
        return header
    # Row k: "e", " u", " v", [" w"] and the line end of edge k, each
    # spelling one fixed-size field padded with zero bytes, which the last
    # step drops.
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
    end_fields = [(f"end{i}", np.uint8) for i in range(len(line_end))]
    rows = np.empty(len(u), [("e", np.uint8), *spelled, *end_fields])
    rows["e"] = _E
    for (name, _), byte in zip(end_fields, line_end.encode("ascii")):
        rows[name] = byte
    for (name, _), (table, index) in zip(spelled, fields):
        rows[name] = table.take(index)
    return header + rows.tobytes().replace(b"\0", b"").decode("ascii")


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
