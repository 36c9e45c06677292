import pytest

from pistr.fileio import DocumentError, emit_graph, parse_graph
from pistr.graphs import EdgeLabeling, Graph, complete_graph, disjoint_union

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
