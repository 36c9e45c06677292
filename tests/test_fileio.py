import json
import random
import tracemalloc

import numpy as np
import pytest

from pistr import fileio
from pistr.cli import main
from pistr.fileio import MAX_VERTICES, DocumentError, emit_graph, parse_graph
from pistr.graphs import EdgeLabeling, Graph, add_cross_edge, complete_graph, disjoint_union
from pistr.verifier import ProductDegree, is_product_irregular

from conftest import random_graph_no_isolates, random_labeling


TRIANGLE_DOC = """p 3 3
e 1 2 1
e 1 3 2
e 2 3 3
"""


class TestParse:
    def test_labeled_triangle(self):
        g, labeling = parse_graph(TRIANGLE_DOC)
        assert g.n_vertices == 3 and g.n_edges == 3
        assert labeling.label(0, 1) == 1
        assert labeling.label(0, 2) == 2
        assert labeling.label(1, 2) == 3

    def test_unlabeled_document(self):
        g, labeling = parse_graph("p 3 2\ne 1 2\ne 2 3\n")
        assert labeling is None and g.n_edges == 2

    def test_header_at_vertex_cap(self):
        g, _ = parse_graph(f"p {MAX_VERTICES} 1\ne 1 {MAX_VERTICES}\n")
        assert g.n_vertices == MAX_VERTICES and g.edges == {(0, MAX_VERTICES - 1)}

    def test_edgeless_header_parses(self):
        g, labeling = parse_graph("p 2 0\n")
        assert g.n_vertices == 2 and g.n_edges == 0 and labeling is None

    def test_comments_and_blanks_ignored(self):
        g, _ = parse_graph("c a comment\n\np 2 1\nc another\ne 1 2\n")
        assert g.n_edges == 1

    @pytest.mark.parametrize("text,fragment", [
        ("e 1 2\np 3 1\n", "line 1"),
        ("p 3\ne 1 2\n", "line 1"),
        ("p 3 1\ne 1 4\n", "line 2"),
        ("p 3 1\ne 1 1\n", "loop"),
        ("p 3 2\ne 1 2\ne 2 1\n", "duplicate"),
        ("p 3 2\ne 1 2\n", "declares 2"),
        ("p 3 2\ne 1 2 1\ne 2 3\n", "mixed"),
        ("p 3 1\nq 1 2\n", "unknown record"),
        ("p 3 1\ne 1 2 0\n", "label"),
    ])
    def test_malformed_documents(self, text, fragment):
        with pytest.raises(DocumentError) as err:
            parse_graph(text)
        assert fragment in str(err.value)

    def test_missing_header(self):
        with pytest.raises(DocumentError):
            parse_graph("c nothing here\n")

    @pytest.mark.parametrize("text,message", [
        ("p 3 0\np 3 0\n", "line 2: duplicate header"),
        ("p 3\ne 1 2\n", "line 1: header must be 'p <n> <m>'"),
        ("p 3 1 1\n", "line 1: header must be 'p <n> <m>'"),
        ("p three 1\n", "line 1: non-integer header fields"),
        ("p 0 0\n", "line 1: header out of range"),
        ("p 3 -1\n", "line 1: header out of range"),
        (f"p {MAX_VERTICES + 1} 0\n", "line 1: header out of range"),
        (f"p {MAX_VERTICES + 1} 1\ne 1 2\n", "line 1: header out of range"),
        ("e 1 2\np 3 1\n", "line 1: edge before header"),
        ("p 3 1\ne 1\n", "line 2: edge must be 'e <u> <v> [label]'"),
        ("p 3 1\ne 1 2 3 4\n", "line 2: edge must be 'e <u> <v> [label]'"),
        ("p 3 1\ne 1 x\n", "line 2: non-integer edge fields"),
        ("p 3 1\ne 1 2 y\n", "line 2: non-integer edge fields"),
        ("p 3 1\ne 1 4\n", "line 2: vertex id outside 1..3"),
        ("p 3 1\ne 0 2\n", "line 2: vertex id outside 1..3"),
        ("p 3 1\ne 2 2\n", "line 2: loop at vertex 2"),
        ("p 3 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge 2 1"),
        ("p 3 2\ne 1 2 1\ne 2 1 0\n", "line 3: duplicate edge 2 1"),
        ("p 3 1\ne 1 2 0\n", "line 2: label must be >= 1"),
        ("p 3 1\nq 1 2\n", "line 2: unknown record 'q'"),
        ("c nothing here\n", "missing 'p' header line"),
        ("", "missing 'p' header line"),
        ("p 3 2\ne 1 2\n", "header declares 2 edges, found 1"),
        ("p 3 2\ne 1 2 1\ne 2 3\n", "mixed labeled and unlabeled edges"),
        ("p 3 2\ne 1 2\ne 2 3 1\n", "mixed labeled and unlabeled edges"),
        ("c head\n\n  \np 3 1\ne 1 9\n", "line 5: vertex id outside 1..3"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(DocumentError) as err:
            parse_graph(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", [
        "p\t3\t2\ne\t1\t2\t3\ne 2\t3 1\n",
        "p 3 2\r\ne 1 2 3\r\ne 2 3 1\r\n",
        "  c a comment\np 3 2\n\tc another\ncx 1 2\ne 1 2 3\ne 2 3 1\n",
        "   \np 3 2\n\t\ne 1 2 3\n \t \ne 2 3 1\n\n",
    ])
    def test_accepted_spacing(self, text):
        g, labeling = parse_graph(text)
        assert g.n_vertices == 3 and labeling.labels == {(0, 1): 3, (1, 2): 1}


class TestRoundtrip:
    def test_k5_k5_document(self):
        g = disjoint_union(complete_graph(5), complete_graph(5))
        doc = emit_graph(g)
        g2, labeling = parse_graph(doc)
        assert g2 == g and labeling is None
        assert emit_graph(g2) == doc

    def test_labeled_roundtrip(self, rng):
        for _ in range(10):
            g = random_graph_no_isolates(rng)
            labeling = EdgeLabeling.make(g, random_labeling(rng, g, s=5))
            doc = emit_graph(g, labeling)
            g2, labeling2 = parse_graph(doc)
            assert g2 == g and labeling2.labels == labeling.labels
            assert emit_graph(g2, labeling2) == doc

    @pytest.mark.parametrize("labeled", [False, True])
    def test_edges_in_sorted_order(self, rng, labeled):
        for _ in range(40):
            n = rng.randint(1, 30)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            labeling = (EdgeLabeling.make(g, random_labeling(rng, g, s=9))
                        if labeled else None)
            lines = emit_graph(g, labeling).splitlines()
            assert lines[0] == f"p {n} {g.n_edges}"
            expected = [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges)]
            if labeled:
                expected = [f"{line} {labeling.labels[e]}"
                            for line, e in zip(expected, sorted(g.edges))]
            assert lines[1:] == expected

    def test_whitespace_tolerance(self):
        g, labeling = parse_graph("  p 3 1  \n   e   1   2   3  \n")
        assert labeling.label(0, 1) == 3


def render(g: Graph, labeling: EdgeLabeling | None = None) -> str:
    """The document of g written one f-string per edge; emit_graph must
    write the same bytes."""
    lines = [f"p {g.n_vertices} {g.n_edges}"]
    for u, v in sorted(g.edges):
        label = "" if labeling is None else f" {labeling.labels[(u, v)]}"
        lines.append(f"e {u + 1} {v + 1}{label}")
    return "\n".join(lines) + "\n"


class TestEmit:
    @pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (9, 20), (10, 30), (40, 300),
                                     (150, 700), (1200, 900)])
    def test_matches_the_f_string_renderer(self, rng, n, m):
        pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)],
                           min(m, n * (n - 1) // 2))
        public = Graph.from_edges(n, pairs)
        for labels in (None, [1, 2, 3], [9999, 10**4, 1], [1, 10**6], [2**63 - 1, 5],
                       [2**70, 7, 1]):
            labeling = None if labels is None else EdgeLabeling.make(
                public, {e: rng.choice(labels) for e in public.edges})
            doc = emit_graph(public, labeling)
            assert doc == render(public, labeling)
            # with a backslash and "n" as line end: the JSON string's body
            assert emit_graph(public, labeling, "\\n") == json.dumps(doc)[1:-1]
            parsed, parsed_labeling = parse_graph(doc)  # array-backed
            assert emit_graph(parsed, parsed_labeling) == doc

    def test_both_sides_of_the_cutoff(self, rng):
        for n, m, below in [(8, 12, True), (150, 700, False)]:
            g = Graph.from_edges(n, rng.sample(
                [(u, v) for u in range(n) for v in range(u + 1, n)], m))
            labeling = EdgeLabeling.make(g, {e: rng.randint(1, 3) for e in g.edges})
            for lab in (None, labeling):
                doc = emit_graph(g, lab)
                assert (len(doc) < fileio.KERNEL_MIN_CHARS) == below
                assert doc == render(g, lab)
                assert (fileio._split_document(doc) is None) == below

    def test_labeling_of_another_graph_rejected(self):
        g, h = complete_graph(3), complete_graph(4)
        with pytest.raises(ValueError):
            emit_graph(g, EdgeLabeling.make(h, dict.fromkeys(h.edges, 1)))


def reference_parse(text: str):
    """The line-by-line reading of a document, building the graph and the
    labeling through their public constructors; the array parser must
    agree with it on every document."""
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
            e = (min(u, v) - 1, max(u, v) - 1)
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
        raise DocumentError(f"header declares {declared_edges} edges, found {len(labels)}")
    if 0 < n_labeled < len(labels):
        raise DocumentError("mixed labeled and unlabeled edges")
    g = Graph(n, frozenset(labels))
    return g, (EdgeLabeling.make(g, labels) if n_labeled else None)


def random_document(rng, labeled: bool, plain: bool) -> str:
    """A valid document with shuffled edge lines and random orientation;
    unless plain, also comments, blank lines, tabs, indentation and CRLF."""
    n = rng.randint(1, 14)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = rng.sample(pairs, rng.randint(0, len(pairs)))
    lines = [["e", *map(str, (e if rng.random() < 0.5 else e[::-1]))] for e in edges]
    if labeled:
        for line in lines:
            line.append(str(rng.choice([1, 2, 3, rng.randint(1, 10**6)])))
    lines.insert(0, ["p", str(n), str(len(edges))])
    if not plain:
        for _ in range(rng.randint(1, 4)):
            lines.insert(rng.randint(0, len(lines)),
                         rng.choice([["c", "e", "1", "2"], ["cx"], ["c"], [], ["\t"]]))
    text = []
    for fields in lines:
        sep = " " if plain else rng.choice([" ", "\t", "  ", " \t "])
        lead = "" if plain else rng.choice(["", "", " ", "\t"])
        text.append(lead + sep.join(fields))
    eol = "\n" if plain else rng.choice(["\n", "\r\n"])
    return eol.join(text) + (eol if rng.random() < 0.8 else "")


def corrupt(rng, text: str) -> str:
    """One random fault in a document, or a field spelling int() takes."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    fields = lines[i].split()
    kind = rng.randrange(13)
    if kind == 11 and i + 1 < len(lines):
        # two records on one line, a token between them
        lines[i:i + 2] = [f"{lines[i]} {rng.choice(['x', 'c', '7'])} {lines[i + 1]}"]
    elif kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(rng.randint(0, len(lines)), lines[i])
    elif kind == 2 and len(fields) >= 3:
        fields[rng.choice([1, 2])] = rng.choice(["0", "-1", "99", "x", "1.5", "+2",
                                                 "١", "1_0", str(10**30)])
    elif kind == 3 and len(fields) >= 3:
        fields[2] = fields[1]
    elif kind == 4 and len(fields) == 4:
        fields[3] = rng.choice(["0", "-3", "y", str(2**70), "+1"])
    elif kind == 5 and fields:
        fields.pop()
    elif kind == 6 and fields:
        fields.append("7")
    elif kind == 7:
        lines.insert(rng.randint(0, len(lines)), rng.choice(["q 1 2", "p 3 0", "e 1 2"]))
    elif kind == 8 and fields:
        fields[0] = rng.choice(["E", "x", "cc", "p"])
    elif kind == 9:
        lines.append("\x00")
    elif kind == 10 and len(fields) >= 3:
        fields[1], fields[2] = fields[2], fields[1]
    elif kind == 12:
        lines.insert(0, "e 1 2")
    if 2 <= kind <= 6 or kind in (8, 10):
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    try:
        return parse(text)
    except DocumentError as exc:
        return str(exc)


def assert_reads_as_the_reference(doc):
    """parse_graph reads doc as reference_parse does, and so does the byte
    kernel wherever it takes doc: the graph and labels of the line loop, or
    none that _build accepts where the line loop finds a fault (the
    fallback would otherwise hide a misread that _build rejects)."""
    fields = fileio._split_document(doc)
    if fields is not None:
        kernel = fileio._build(*fields)
        try:
            g, labeling = fileio._read_lines(doc)
        except DocumentError:
            assert kernel is None, doc
        else:
            assert kernel is not None and kernel[0] == g, doc
            assert (kernel[1] is None) == (labeling is None), doc
            if labeling is not None:
                assert np.array_equal(kernel[1].values, labeling.values), doc
                assert kernel[1].strength == labeling.strength, doc
    got, want = outcome(parse_graph, doc), outcome(reference_parse, doc)
    if isinstance(want, str):
        assert got == want, doc
        return False
    g, labeling = got
    assert g == want[0] and g.n_edges == want[0].n_edges, doc
    assert all(map(np.array_equal, g.ends, want[0].ends)), doc
    assert g.components == want[0].components, doc
    if want[1] is None:
        assert labeling is None, doc
    else:
        assert labeling.labels == want[1].labels, doc
        assert labeling.strength == want[1].strength, doc
    return True


def large_document(rng, labeled: bool) -> str:
    """A plain document on 150 vertices, longer than the kernel cutoff."""
    n = 150
    pairs = rng.sample([(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)], 700)
    lines = [f"e {u} {v}" if rng.random() < 0.5 else f"e {v} {u}" for u, v in pairs]
    if labeled:
        lines = [f"{line} {rng.choice([1, 2, 3, rng.randint(1, 10**17)])}" for line in lines]
    text = f"p {n} {len(lines)}\n" + "\n".join(lines) + "\n"
    assert len(text) >= fileio.KERNEL_MIN_CHARS
    return text


def _field_fault(spell):
    """A fault that respells one number of a line."""
    def fault(rng, line):
        fields = line.split(" ")
        k = rng.randrange(1, len(fields))
        fields[k] = spell(fields[k])
        return " ".join(fields)
    return fault


def _insert_e(rng, line):
    k = rng.randrange(2, len(line) + 1)
    return line[:k] + "e" + line[k:]


# Byte-level faults the kernel must leave to the line loop: each turns one
# line out of the canonical form.
LINE_FAULTS = {
    "double space": lambda rng, line: line.replace(" ", "  ", 1),
    "trailing space": lambda rng, line: line + " ",
    "tab": lambda rng, line: line.replace(" ", "\t", 1),
    "CR": lambda rng, line: line + "\r",
    "19-digit field": _field_fault(lambda f: f.zfill(19)),
    "arabic-indic digit": _field_fault(lambda f: f[:-1] + "\u0661"),
    "superscript digit": _field_fault(lambda f: f[:-1] + "\u00b2"),
    "e inside a line": _insert_e,
    "e doubled": lambda rng, line: "e" + line,
    "blank line": lambda rng, line: line + "\n",
}
# Faults on every edge line, which keep each line's separator count equal.
DOCUMENT_FAULTS = {
    "double space everywhere": lambda line: line.replace(" ", "  ", 1),
    "trailing space everywhere": lambda line: line + " ",
    "leading byte everywhere": lambda line: "0" + line,
}
# Spellings the kernel reads itself, as the line loop does.
CANONICAL_VARIANTS = {
    "leading zeros": lambda rng, text: "\n".join(
        _field_fault(lambda f: f.zfill(18))(rng, line) if line.startswith("e") else line
        for line in text.split("\n")),
    "no final newline": lambda rng, text: text[:-1],
}


class TestArrayParser:
    """parse_graph reads a document through int arrays; every document must
    read as the line-by-line reference reads it."""

    def test_agrees_with_the_reference(self, monkeypatch):
        monkeypatch.setattr(fileio, "KERNEL_MIN_CHARS", 0)
        rng = random.Random(6061)
        agreed = failed = 0
        for k in range(240):
            text = random_document(rng, labeled=k % 2 == 1, plain=k % 3 == 0)
            # with no cutoff the kernel reads every plain document
            assert (fileio._split_document(text) is not None) == (k % 3 == 0)
            for doc in (text, corrupt(rng, text), corrupt(rng, text)):
                if assert_reads_as_the_reference(doc):
                    agreed += 1
                else:
                    failed += 1
        assert agreed >= 240 and failed >= 300

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("fault", sorted(LINE_FAULTS))
    def test_large_document_faults(self, labeled, fault):
        rng = random.Random(f"{fault}/{labeled}")
        text = large_document(rng, labeled)
        assert assert_reads_as_the_reference(text)
        assert fileio._split_document(text) is not None
        lines = text.split("\n")  # the last one is empty
        # the header, the first and the last edge line, and one between
        for i in (0, 1, len(lines) - 2, rng.randrange(2, len(lines) - 2)):
            doc = "\n".join(lines[:i] + [LINE_FAULTS[fault](rng, lines[i])] + lines[i + 1:])
            assert fileio._split_document(doc) is None, doc[:200]
            assert_reads_as_the_reference(doc)

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("fault", sorted(DOCUMENT_FAULTS))
    def test_large_document_faults_on_every_line(self, labeled, fault):
        text = large_document(random.Random(fault), labeled)
        doc = "\n".join(DOCUMENT_FAULTS[fault](line) if line.startswith("e") else line
                        for line in text.split("\n"))
        assert fileio._split_document(doc) is None, doc[:200]
        assert_reads_as_the_reference(doc)

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("variant", sorted(CANONICAL_VARIANTS))
    def test_large_document_variants(self, labeled, variant):
        rng = random.Random(f"{variant}/{labeled}")
        text = CANONICAL_VARIANTS[variant](rng, large_document(rng, labeled))
        assert fileio._split_document(text) is not None
        assert assert_reads_as_the_reference(text)

    @pytest.mark.parametrize("labeled", [False, True])
    def test_large_document_duplicate_edge(self, labeled):
        # canonical in form, so the kernel reads it; its checks find the
        # duplicate, and the line loop names the line
        lines = large_document(random.Random(f"duplicate/{labeled}"), labeled).split("\n")
        u, v = lines[1].split(" ")[1:3]
        lines[-2] = " ".join(["e", v, u, *lines[-2].split(" ")[3:]])
        doc = "\n".join(lines)
        assert fileio._split_document(doc) is not None
        assert fileio._build(*fileio._split_document(doc)) is None
        with pytest.raises(DocumentError) as err:
            parse_graph(doc)
        assert str(err.value) == f"line {len(lines) - 1}: duplicate edge {v} {u}"
        assert str(err.value) == reference_parse_error(doc)

    def test_reads_constructs_output(self, capsys, tmp_path):
        # construct's answer starts with a comment line, which the kernel
        # skips; a comment after the header, or one that str.splitlines
        # would cut in two, leaves the document to the line loop
        path = tmp_path / "k12k14.txt"
        path.write_text(emit_graph(add_cross_edge(
            disjoint_union(complete_graph(12), complete_graph(14)), 0, 12)))
        assert main(["construct", str(path)]) == 0
        doc = capsys.readouterr().out
        assert doc.startswith("c strength 3 ") and len(doc) >= fileio.KERNEL_MIN_CHARS
        fields = fileio._split_document(doc)
        assert fields is not None
        g, labeling = fileio._build(*fields)
        want_g, want = fileio._read_lines(doc)
        assert g == want_g and labeling == want
        head, body = doc.split("\n", 1)
        assert fileio._split_document(f"{head}\nc\n{doc}") is not None
        for other in (f"{body}{head}\n", body.replace("\n", f"\n{head}\n", 1),
                      f"c caf\u00e9\n{body}", f"c\x0bp 26 0\n{body}", f" {doc}", f"\n{doc}"):
            assert fileio._split_document(other) is None, other[:80]
            assert_reads_as_the_reference(other)

    def test_label_beyond_int64(self):
        doc = f"p 3 3\ne 1 2 {2**70}\ne 2 3 3\ne 1 3 1\n"
        g, labeling = parse_graph(doc)
        _, want = reference_parse(doc)
        assert labeling.labels == want.labels and labeling.strength == 2**70
        report = is_product_irregular(labeling)
        assert report.degrees == (ProductDegree.from_value(2**70),
                                  ProductDegree.from_value(2**70 * 3),
                                  ProductDegree.from_value(3))
        assert report.ok == is_product_irregular(want).ok
        assert report.degrees == is_product_irregular(want).degrees
        assert emit_graph(g, labeling) == "p 3 3\ne 1 2 1180591620717411303424\ne 1 3 1\ne 2 3 3\n"
        assert parse_graph(emit_graph(g, labeling))[1].labels == labeling.labels

    def test_vertex_id_beyond_int64(self):
        doc = f"p 3 1\ne 1 {10**30}\n"
        with pytest.raises(DocumentError) as err:
            parse_graph(doc)
        assert str(err.value) == "line 2: vertex id outside 1..3" == reference_parse_error(doc)


def reference_parse_error(text: str) -> str:
    with pytest.raises(DocumentError) as err:
        reference_parse(text)
    return str(err.value)


def block_starts(text: str) -> list[int]:
    """The 0-based line index (the header is line 0) that starts each block
    the kernel reads: a block runs to the first line end at or past
    fileio._BLOCK_CHARS characters from its start."""
    starts, start = [], text.index("\n") + 1
    while start < len(text):
        starts.append(text.count("\n", 0, start))
        start = text.find("\n", start + fileio._BLOCK_CHARS - 1) + 1 or len(text)
    return starts


class TestArrayParserInBlocks(TestArrayParser):
    """The array parser's cases with blocks of a few lines, so that every
    large document spans many blocks; and the cases that hang on a block's
    edges."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK_CHARS", 200)

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("fault", sorted(LINE_FAULTS))
    def test_fault_on_a_blocks_first_and_last_line(self, labeled, fault):
        rng = random.Random(f"edges/{fault}/{labeled}")
        text = large_document(rng, labeled)
        starts = block_starts(text)
        assert len(starts) > 20
        lines = text.split("\n")
        k = rng.randrange(1, len(starts) - 1)
        for i in (starts[k], starts[k + 1] - 1):
            doc = "\n".join(lines[:i] + [LINE_FAULTS[fault](rng, lines[i])] + lines[i + 1:])
            # every fault keeps or lengthens its line, so the blocks before
            # and around it stay where they were
            assert block_starts(doc)[:k + 1] == starts[:k + 1]
            assert block_starts(doc)[k + 1] > i
            assert fileio._split_document(doc) is None, doc[:200]
            assert_reads_as_the_reference(doc)

    @pytest.mark.parametrize("labeled", [False, True])
    def test_duplicate_edge_in_the_next_block(self, labeled):
        lines = large_document(random.Random(f"next/{labeled}"), labeled).split("\n")
        starts = block_starts("\n".join(lines))
        i = starts[len(starts) // 2]  # the first line of a block
        u, v = lines[i - 1].split(" ")[1:3]  # the last line of the block before
        lines[i] = " ".join(["e", v, u, *lines[i].split(" ")[3:]])
        doc = "\n".join(lines)
        assert block_starts(doc) == starts
        assert fileio._split_document(doc) is not None
        assert fileio._build(*fileio._split_document(doc)) is None
        with pytest.raises(DocumentError) as err:
            parse_graph(doc)
        assert str(err.value) == f"line {i + 1}: duplicate edge {v} {u}"
        assert str(err.value) == reference_parse_error(doc)

    @pytest.mark.parametrize("labeled", [False, True])
    def test_blocks_of_another_width(self, labeled):
        # the lines from a block on lose their labels, or gain one
        lines = large_document(random.Random(f"width/{labeled}"), labeled).split("\n")
        i = block_starts("\n".join(lines))[5]
        lines[i:-1] = [" ".join(line.split(" ")[:3]) if labeled else f"{line} 2"
                       for line in lines[i:-1]]
        doc = "\n".join(lines)
        assert fileio._split_document(doc) is None
        with pytest.raises(DocumentError) as err:
            parse_graph(doc)
        assert str(err.value) == "mixed labeled and unlabeled edges" == reference_parse_error(doc)

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("off", [-1, 1])
    def test_header_one_edge_off(self, labeled, off):
        text = large_document(random.Random(f"header/{labeled}"), labeled)
        head, body = text.split("\n", 1)
        n, m = map(int, head.split(" ")[1:])
        doc = f"p {n} {m + off}\n{body}"
        assert fileio._split_document(doc) is None
        with pytest.raises(DocumentError) as err:
            parse_graph(doc)
        assert str(err.value) == f"header declares {m + off} edges, found {m}"
        assert str(err.value) == reference_parse_error(doc)


class TestEmitInBlocks:
    """emit_graph writes the same bytes whatever the number of edges in a
    block."""

    @pytest.mark.parametrize("line_end", ["\n", "\\n"])
    def test_same_bytes_at_every_block_size(self, rng, monkeypatch, line_end):
        g = Graph.from_edges(60, rng.sample(
            [(u, v) for u in range(60) for v in range(u + 1, 60)], 500))
        graphs = [
            (g, None),
            (g, EdgeLabeling.make(g, {e: rng.randint(1, 3) for e in g.edges})),
            (g, EdgeLabeling.make(g, {e: rng.choice([1, 10**5, 2**70]) for e in g.edges})),
            (Graph(4, frozenset()), None),
            (complete_graph(2), EdgeLabeling.make(complete_graph(2), {(0, 1): 2**64})),
        ]
        assert graphs[2][1].values.dtype == object
        docs = [emit_graph(h, lab, line_end) for h, lab in graphs]
        assert docs[0] == render(g, None).replace("\n", line_end)
        assert docs[3] == f"p 4 0{line_end}"
        for size in (1, 7):
            monkeypatch.setattr(fileio, "_EMIT_EDGES", size)
            assert [emit_graph(h, lab, line_end) for h, lab in graphs] == docs


def test_parse_holds_keys_not_endpoint_columns():
    # the kernel turns each block's endpoints into edge keys before it reads
    # the next block, so a parse holds 8 bytes an edge of keys and the 16 of
    # the graph's ends, not two whole endpoint columns besides (40 bytes)
    n = 500
    doc = f"p {n} {n * (n - 1) // 2}\n" + "".join(
        f"e {u} {v}\n" for u in range(1, n + 1) for v in range(u + 1, n + 1))
    tracemalloc.start()
    try:
        g, _ = parse_graph(doc)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g == complete_graph(n)
    assert kept < 17 * g.n_edges and peak < 28 * g.n_edges, (kept, peak)
