"""Line-oriented graph documents.

Format: a header line "p <n_vertices> <n_edges>", then one line per edge
"e <u> <v>" or "e <u> <v> <label>" with 1-based vertex ids. Lines starting
with "c" and blank lines are ignored. Either every edge carries a label or
none does. The header declares at most MAX_VERTICES vertices.

A document of at least KERNEL_MIN_CHARS characters in the canonical form,
the one emit_graph writes, is read by one byte kernel: leading comment
lines of printable ASCII (construct's first line), a header "p n m", then
m lines all "e u v" or all "e u v w", each field ASCII digits (at most 18)
after exactly one space, newline line ends with the last one optional.
The kernel reads the lines in blocks of whole lines of about _BLOCK_CHARS
characters, each encoded as a uint8 array. In a block it finds the
delimiters and works on them as 1-D columns, the c-th delimiter of every
line: it checks each delimiter, each gap between two of them and each
line's "e" by position, then reads a column's fields as a sum of their
digits times powers of ten, one gather per digit place. Every line has the
width of the first; a block of another width, or a line total other than
m, leaves the document to the line loop. Each block's endpoints pass the
range and loop checks, and its labels the label check, and become edge
keys in an array of m entries made from the header before the next block
is read; _build sorts the keys and finds a duplicate. Every other
document (a short one, a comment after the header, blank lines,
tabs, CRLF, a longer field, any fault) goes through the line loop, the
reference reader, which reads it or raises the message of its first
fault; the line loop makes every check line by line.

emit_graph writes every document through byte tables: each vertex id and
each distinct label is spelled once, as one fixed-size item (numpy.void),
and the edge lines are the rows of a structured array, each field filled
by one flat gather from its table, _EMIT_EDGES rows at a time; the blocks'
text is joined once, after the header. The line end is one more field, so
the same tables write a document as the body of a JSON string: each line
end a backslash and an "n", and nothing else to escape.

On three K2000 joined by two cross edges (6.0M edges, 69.8 MB of text),
`pistr construct --json` in its own process peaks at 364 MB ru_maxrss,
592 MB before blocks (2 vCPUs, Python 3.11).
"""

from __future__ import annotations

import numpy as np

from .graphs import EdgeLabeling, Graph, label_array

# The largest vertex count a header may declare. A graph of n vertices
# needs arrays of n + 1 entries, so a much larger count would exhaust
# memory, or overflow int64, before a single edge is read. Under the cap
# n * n fits int64, so the kernel keys every edge by one integer.
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

# The kernel reads a document in blocks of whole lines of about
# _BLOCK_CHARS characters, and emit_graph writes _EMIT_EDGES edge lines at a
# time, so that their temporaries stay a block's size. Timed on the construct
# workload's documents of seed 201 (2 vCPUs, Python 3.11, NumPy 2.4), best
# of 9: the kernel over the 23 documents of at least KERNEL_MIN_CHARS (8.5M
# characters) took 48 ms at 2^17 characters a block, 55 ms at 2^16 and 2^18,
# 80-83 ms at 2^19 and more, and 73 ms before blocks; emit_graph's JSON
# bodies of all 103 answers took 17-19 ms at 2^13 to 2^16 edges a block and
# 21 ms in one block.
_BLOCK_CHARS = 1 << 17
_EMIT_EDGES = 1 << 14

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
    """(n, keys, labels or None): the 0-based edge keys u * n + v in
    document order, when the document has at least KERNEL_MIN_CHARS
    characters and the canonical form and its endpoints and labels are in
    range; otherwise None."""
    if len(text) < KERNEL_MIN_CHARS:
        return None
    top = 0
    while text.startswith("c", top):  # a leading comment line
        cut = text.find("\n", top)
        # str.splitlines, which the line loop reads by, ends a line at some
        # other characters too; no printable ASCII character is one of them
        if cut < 0 or not (text[top:cut].isascii() and text[top:cut].isprintable()):
            return None
        top = cut + 1
    cut = text.find("\n", top)
    if cut < 0:
        cut = len(text)
    head = text[top:cut].split(" ")
    if (len(head) != 3 or head[0] != "p"
            or not all(f.isascii() and f.isdigit() and len(f) <= _DIGITS for f in head[1:])):
        return None
    n, m = int(head[1]), int(head[2])
    # m lines "e u v" take at least 6 * m - 1 characters after the header's
    # line end (the last line's end is optional); the check also bounds the
    # arrays made for them
    if not 1 <= n <= MAX_VERTICES or 6 * m > len(text) - cut:
        return None
    if not m:  # the header must be the whole document
        return None if len(text) > cut + 1 else (n, np.zeros(0, np.int64), None)
    # the fields of the first edge line set the width of every line
    first = text.find("\n", cut + 1)
    width = text.count(" ", cut + 1, first if first >= 0 else len(text)) + 1
    if width not in (3, 4):
        return None
    keys = np.empty(m, np.int64)
    labels = np.empty(m, np.int64) if width == 4 else None
    start, filled = cut + 1, 0
    while start < len(text):
        # a block of whole lines: up to the first line end at or past
        # _BLOCK_CHARS characters, or to the end of the text
        end = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or len(text)
        try:
            block = text[start:end].encode("ascii")
        except UnicodeEncodeError:
            return None
        if not block.endswith(b"\n"):  # the last line's end is optional
            block += b"\n"
        fields = _read_block(np.frombuffer(block, np.uint8), width)
        if fields is None or filled + fields.shape[1] > m:
            return None
        a, b = fields[0], fields[1]
        if (min(a.min(), b.min()) < 1 or max(a.max(), b.max()) > n
                or np.count_nonzero(a == b) or width == 4 and fields[2].min() < 1):
            return None
        rows = slice(filled, filled + len(a))
        # the key u * n + v - (n + 1) of the 1-based pair u < v, with
        # u = min(a, b) and v = a + b - u: u * (n - 1) + a + b - (n + 1)
        key = np.minimum(a, b, out=keys[rows])
        key *= n - 1
        key += a
        key += b
        key -= n + 1
        if labels is not None:
            labels[rows] = fields[2]
        start, filled = end, rows.stop
    if filled != m:
        return None
    return n, keys, labels


def _read_block(body: np.ndarray, width: int) -> np.ndarray | None:
    """The fields of body, whole lines each ending in a newline, as width - 1
    rows of one column per line; None if a line is not "e" and width - 1
    fields."""
    # Each line must be "e", then fields of 1 to 18 digits, each after one
    # space. Column c, delims[c::width], holds the c-th delimiter of every
    # line: spaces in the first columns, "\n" in the last (with "\n" in the
    # last, lines * (width - 1) spaces in the body fill the others).
    # steps[i] is one more than the bytes between delimiters i and i + 1:
    # the digits of a field within a line, and 2 across a line end, around
    # the next "e". Every byte that is neither a delimiter nor an "e" is a
    # digit.
    delims = np.flatnonzero(body <= _SPACE)  # also any control byte
    lines, extra = divmod(len(delims), width)
    if extra:
        return None
    steps = np.diff(delims)
    if (delims[0] != 1 or steps.min() < 2 or steps.max() > _DIGITS + 1
            or np.count_nonzero(steps[width - 1::width] != 2)
            or np.count_nonzero(body.take(delims[width - 1::width]) != _NEWLINE)
            or np.count_nonzero(body == _SPACE) != lines * (width - 1)
            or np.count_nonzero(body.take(delims[::width] - 1) != _E)
            or np.count_nonzero(body - _ZERO < 10) != len(body) - len(delims) - lines):
        return None
    out = np.empty((width - 1, lines), np.int64)
    for c in range(1, width):  # field c - 1 ends at the delimiter of column c
        ends, step = delims[c::width], steps[c - 1::width]
        value = out[c - 1]
        value[:] = body.take(ends - 1) & 15  # the units
        for place in range(1, int(step.max()) - 1):  # the tens, hundreds, ...
            # byte & 15 is the value of a digit and 0 for the space before
            # a field. A field shorter than place reaches back further,
            # possibly before the body: clip keeps the index valid, and the
            # mask drops the byte.
            digit = body.take(ends - (place + 1), mode="clip") & 15
            if place >= step.min():  # some field is shorter than place
                digit[step <= place] = 0
            value += digit * _POW10[place]
    return out


def _build(n: int, keys: np.ndarray, labels: np.ndarray | None):
    """The graph and labeling of 0-based edge keys u * n + v (u < v) in
    document order, edges sorted; None if an edge repeats."""
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
            e = u * n + v - n1 if u < v else v * n + u - n1  # as in _split_document
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
    rows = np.empty(min(len(u), _EMIT_EDGES), [("e", np.uint8), *spelled, *end_fields])
    rows["e"] = _E
    for (name, _), byte in zip(end_fields, line_end.encode("ascii")):
        rows[name] = byte
    pieces = [header]
    for lo in range(0, len(u), len(rows)):  # a block of edges at a time
        block = rows[:len(u) - lo]
        for (name, _), (table, index) in zip(spelled, fields):
            block[name] = table.take(index[lo:lo + len(block)])
        pieces.append(block.tobytes().replace(b"\0", b"").decode("ascii"))
    return "".join(pieces)


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
