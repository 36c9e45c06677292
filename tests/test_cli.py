import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pistr import cli, engine
from pistr.cli import main
from pistr.fileio import emit_graph, parse_graph
from pistr.graphs import complete_graph

from conftest import deadline, permute_graph, planted_cover_graph


# gen output of the L<n> and LP<n> tokens, byte for byte: one K_2 or K_1
# block, a B_n block and the cross entry 3 joining their first vertices.
GEN_L_DOCUMENTS = {
    "L4": """\
p 6 8
e 1 2 1
e 1 3 3
e 3 4 2
e 3 5 2
e 3 6 2
e 4 5 2
e 4 6 3
e 5 6 1
""",
    "L7": """\
p 9 23
e 1 2 1
e 1 3 3
e 3 4 2
e 3 5 2
e 3 6 2
e 3 7 2
e 3 8 2
e 3 9 2
e 4 5 2
e 4 6 2
e 4 7 2
e 4 8 2
e 4 9 3
e 5 6 2
e 5 7 2
e 5 8 3
e 5 9 3
e 6 7 3
e 6 8 3
e 6 9 3
e 7 8 3
e 7 9 1
e 8 9 3
""",
    "LP4": """\
p 5 7
e 1 2 3
e 2 3 2
e 2 4 2
e 2 5 2
e 3 4 2
e 3 5 3
e 4 5 1
""",
    "LP7": """\
p 8 22
e 1 2 3
e 2 3 2
e 2 4 2
e 2 5 2
e 2 6 2
e 2 7 2
e 2 8 2
e 3 4 2
e 3 5 2
e 3 6 2
e 3 7 2
e 3 8 3
e 4 5 2
e 4 6 2
e 4 7 3
e 4 8 3
e 5 6 3
e 5 7 3
e 5 8 3
e 6 7 3
e 6 8 1
e 7 8 3
""",
}


_NONE = "e3b0c44298fc1c14"  # the digest of empty stdout

# gen argv -> (exit code, sha16 of stdout, stderr)
GEN_PINNED = [
    (["K3+K3", "--edge", "1,4"], 0, "194ee44c6554651d", ""),
    (["K3+K3", "--edge", "1,2"], 2, _NONE, "pistr: edge (1, 2) already present\n"),
    (["K3+K3", "--edge", "2,1"], 2, _NONE, "pistr: edge (1, 2) already present\n"),
    (["K3+K3", "--edge", "1,9"], 2, _NONE, "pistr: --edge 1,9: vertex 9 outside 1..6\n"),
    (["K3+K3", "--edge", "0,4"], 2, _NONE, "pistr: --edge 0,4: vertex 0 outside 1..6\n"),
    (["K3+K3", "--edge", "7,2"], 2, _NONE, "pistr: --edge 7,2: vertex 7 outside 1..6\n"),
    (["K3+K3", "--edge", "3,3"], 2, _NONE, "pistr: --edge 3,3: loop at vertex 3\n"),
    (["K3+K3", "--edge", "1,4", "--edge", "1,4"], 2, _NONE,
     "pistr: edge (1, 4) already present\n"),
    (["K3+K3", "--edge", "1-4"], 2, _NONE, "pistr: --edge expects 'u,v', got '1-4'\n"),
    (["A4+B9"], 0, "160ae3b6eb6d21e5", ""),
    (["T5+T5_TILDE"], 0, "c3c64eadabd96fc4", ""),
    (["tA5+tB5+tC5"], 0, "fcc468705c9c21e4", ""),
    (["L4"], 0, "070e841fa70cf728", ""),
    (["LP4"], 0, "f67fc0d6389786ad", ""),
    (["L7"], 0, "cafc63f77848e819", ""),
    (["LP7"], 0, "34076238398e2953", ""),
    (["T"], 0, "9833b00c3837dd4d", ""),
    (["K44_EDGE_8x8"], 0, "79c8ae26275933c0", ""),
    (["Q9"], 2, _NONE, "pistr: unknown token 'Q9' in expression\n"),
    (["k3"], 2, _NONE, "pistr: unknown token 'k3' in expression\n"),
    (["K3+A4"], 2, _NONE, "pistr: unknown token 'K3' in expression\n"),
    (["A4+K3"], 2, _NONE, "pistr: unknown token 'K3' in expression\n"),
    (["A4+B5", "--edge", "1,5"], 2, _NONE, "pistr: --edge applies only to K<n> expressions\n"),
    (["K3++K3"], 2, _NONE, "pistr: bad expression 'K3++K3'\n"),
    (["K1"], 0, "6b9289a3b57d843e", ""),
    (["K0"], 2, _NONE, "pistr: complete graph needs at least one vertex\n"),
    (["K3+K0"], 2, _NONE, "pistr: complete graph needs at least one vertex\n"),
    (["K3+K0", "--edge", "1,9"], 2, _NONE, "pistr: complete graph needs at least one vertex\n"),
    ([" K3 + K3 "], 0, "eb30ee83a41cdf9a", ""),
    (["K4+K4"], 0, "1a6c7f49e6913db4", ""),
    (["K4+K7", "--edge", "2,5"], 0, "c5918ba20fc88622", ""),
    (["K4+K4+K3", "--edge", "1,5", "--edge", "1,9"], 0, "6921c53e8047a028", ""),
    (["K5+K6+K8", "--edge", "1,6", "--edge", "6,12"], 0, "e64b6f52ea08fc9b", ""),
    (["K4+K5+K6", *(arg for edge in ["1,5", "2,6", "3,7", "5,10", "6,11", "1,10", "4,15"]
                    for arg in ("--edge", edge))], 0, "3f7706d2cae533fb", ""),
]


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def brute_cross_edges(doc: str, payload: dict) -> int:
    """The edges of the document joining two different parts of a cover
    --json payload, counted one by one."""
    part_of = {v: i for i, part in enumerate(payload["parts"]) for v in part}
    g, _ = parse_graph(doc)
    return sum(part_of[u + 1] != part_of[v + 1] for u, v in g.edges)


class TestGen:
    def test_clique_expression(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "K3+K3", "--edge", "1,4")
        assert code == 0
        g, labeling = parse_graph(out)
        assert g.n_vertices == 6 and g.n_edges == 7 and labeling is None

    @pytest.mark.parametrize("spec", ["1,2", "2,1"])
    def test_edge_already_present_named_from_one(self, capsys, spec):
        code, out, err = run_cli(capsys, "gen", "K3+K3", "--edge", spec)
        assert code == 2 and out == ""
        assert err == "pistr: edge (1, 2) already present\n"

    @pytest.mark.parametrize("spec,vertex", [("1,9", 9), ("0,4", 0), ("7,2", 7)])
    def test_edge_endpoint_out_of_range_named(self, capsys, spec, vertex):
        code, out, err = run_cli(capsys, "gen", "K3+K3", "--edge", spec)
        assert (code, out) == (2, "")
        assert err == f"pistr: --edge {spec}: vertex {vertex} outside 1..6\n"

    def test_edge_loop_named(self, capsys):
        code, out, err = run_cli(capsys, "gen", "K3+K3", "--edge", "3,3")
        assert (code, out) == (2, "")
        assert err == "pistr: --edge 3,3: loop at vertex 3\n"

    def test_matrix_expression(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "A4+B9")
        assert code == 0
        g, labeling = parse_graph(out)
        assert g.n_vertices == 13 and labeling is not None

    def test_fixed_and_tilde_tokens(self, capsys):
        for expr, order in [("T5+T5_TILDE", 10), ("tA5+tB5+tC5", 15),
                            ("L4", 6), ("LP4", 5), ("T", 3)]:
            code, out, _ = run_cli(capsys, "gen", expr)
            assert code == 0
            g, _ = parse_graph(out)
            assert g.n_vertices == order

    def test_l_tokens_pinned(self, capsys):
        for token, document in GEN_L_DOCUMENTS.items():
            assert run_cli(capsys, "gen", token) == (0, document, "")

    def test_bad_token(self, capsys):
        code, _, err = run_cli(capsys, "gen", "Q9")
        assert code == 2 and "unknown token" in err

    def test_edge_only_for_cliques(self, capsys):
        code, _, err = run_cli(capsys, "gen", "A4+B5", "--edge", "1,5")
        assert code == 2

    @pytest.mark.parametrize("argv,code,digest,err", GEN_PINNED)
    def test_pinned_output(self, capsys, argv, code, digest, err):
        """Exit code, the first 16 hex digits of stdout's sha256 and stderr,
        each taken from the builder-based gen that the direct sum replaced."""
        got_code, out, got_err = run_cli(capsys, "gen", *argv)
        assert (got_code, sha16(out), got_err) == (code, digest, err)

    def test_large_clique_union_is_fast(self, capsys):
        # the frozenset builders took over 4 s on this union, with the same bytes
        with deadline(2):
            code, out, err = run_cli(capsys, "gen", "K1000+K1000",
                                     "--edge", "1,1001", "--edge", "2,1002")
        assert (code, sha16(out), err) == (0, "890a66fa6fff4ef5", "")


class TestVerify:
    def test_good_labeling(self, capsys, tmp_path):
        _, doc, _ = run_cli(capsys, "gen", "A4+B9")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and "yes" in out

    def test_bad_labeling(self, capsys, tmp_path):
        _, doc, _ = run_cli(capsys, "gen", "A4+B4")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        code, out, _ = run_cli(capsys, "verify", str(path), "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["schema"] == 1 and payload["ok"] is False
        assert payload["witness"] is not None
        u, v = payload["witness"]
        value = payload["degrees"][u - 1]["value"]
        assert run_cli(capsys, "verify", str(path)) == (
            1, f"product-irregular: no (vertices {u} and {v} share product degree {value})\n",
            "")

    def test_isolated_vertex_named_from_one(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("p 4 2\ne 1 2 2\ne 2 3 3\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == "pistr: vertex 4 is isolated; product degree undefined\n"

    def test_mersenne_prime_label(self, capsys, tmp_path):
        # a 19-digit prime label is factorized without dividing up to its root
        path = tmp_path / "g.txt"
        path.write_text("p 3 3\ne 1 2 2305843009213693951\ne 2 3 3\ne 1 3 1\n")
        with deadline(2):
            code, out, err = run_cli(capsys, "verify", str(path), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["degrees"][0]["factors"] == [[2305843009213693951, 1]]

    def test_unlabeled_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("p 3 3\ne 1 2\ne 1 3\ne 2 3\n")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and "labeled" in err


class TestPs:
    def test_two_triangles_with_bridge(self, capsys, tmp_path):
        _, doc, _ = run_cli(capsys, "gen", "K3+K3", "--edge", "1,4")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        code, out, _ = run_cli(capsys, "ps", str(path), "--s-max", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 3
        assert payload["certificate"] is not None
        code, out, err = run_cli(capsys, "ps", str(path), "--s-max", "4")
        assert (code, err) == (0, "")
        head, document = out.split("\n", 1)
        assert head == f"ps = 3  (nodes explored: {payload['nodes_explored']})"
        assert document == payload["certificate"]

    def test_disjoint_cliques_solved_per_component(self, capsys, tmp_path):
        # ps_exact alone spends millions of nodes on K5+K5+K4 without an answer
        _, doc, _ = run_cli(capsys, "gen", "K5+K5+K4")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        with deadline(5):
            code, out, err = run_cli(capsys, "ps", str(path), "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["value"], payload["budget_exhausted"]) == (3, False)
        path.write_text(payload["certificate"])
        assert run_cli(capsys, "verify", str(path)) == (0, "product-irregular: yes\n", "")

    def test_k6_k3_searches_k6_against_k3(self, capsys, tmp_path):
        # K3 occurs once, so its multisets are collected as the first level
        # and K6 is searched in find mode against them: 113 nodes, where
        # collecting K6's multisets at s = 3 took 1,488,325.
        _, doc, _ = run_cli(capsys, "gen", "K6+K3")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        with deadline(1):
            code, out, err = run_cli(capsys, "ps", str(path), "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["value"], payload["nodes_explored"], payload["budget_exhausted"]) == (
            3, 113, False)
        path.write_text(payload["certificate"])
        assert run_cli(capsys, "verify", str(path)) == (0, "product-irregular: yes\n", "")

    def test_k9_answers_in_seconds(self, capsys, tmp_path, monkeypatch):
        # 15 nodes at s = 1, 1,664,904,926 at s = 2 and 86 at s = 3: the
        # refutation of s = 2 is counted by memo, so both runs end fast.
        monkeypatch.delenv("PISTR_BUDGET", raising=False)
        _, doc, _ = run_cli(capsys, "gen", "K9")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        with deadline(10):
            code, out, err = run_cli(capsys, "ps", str(path), "--budget", "2000000000")
        head, document = out.split("\n", 1)
        assert (code, head, err) == (0, "ps = 3  (nodes explored: 1664905027)", "")
        with deadline(5):
            code, out, err = run_cli(capsys, "ps", str(path))
        assert (code, out, err) == (2, "budget exhausted after 1000000001 nodes\n", "")
        path.write_text(document)
        assert run_cli(capsys, "verify", str(path)) == (0, "product-irregular: yes\n", "")

    def test_not_found_exit_code(self, capsys, tmp_path):
        _, doc, _ = run_cli(capsys, "gen", "K4+K4")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        code, out, _ = run_cli(capsys, "ps", str(path), "--s-max", "3")
        assert code == 1 and "> 3" in out

    def test_budget_exit_code(self, capsys, tmp_path, monkeypatch):
        _, doc, _ = run_cli(capsys, "gen", "K4+K4")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        monkeypatch.setenv("PISTR_BUDGET", "25")
        code, out, _ = run_cli(capsys, "ps", str(path), "--s-max", "3")
        assert code == 2 and "budget" in out

    def test_isolated_vertices_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("p 2 0\n")
        code, _, err = run_cli(capsys, "ps", str(path))
        assert code == 2

    def test_isolated_edges_rejected_before_the_split(self, capsys, tmp_path):
        # 8192 components: refused before each is cut out of the edge list
        n = 1 << 14
        path = tmp_path / "matching.txt"
        path.write_text(f"p {n} {n // 2}\n" + "".join(
            f"e {v} {v + 1}\n" for v in range(1, n, 2)))
        with deadline(2):
            code, out, err = run_cli(capsys, "ps", str(path))
        assert (code, out, err) == (
            2, "", "pistr: graph has an isolated vertex or isolated edge\n")


class TestCoverAndConstruct:
    def test_cover(self, capsys, tmp_path):
        _, doc, _ = run_cli(capsys, "gen", "K5+K6", "--edge", "1,6")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        code, out, _ = run_cli(capsys, "cover", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["sizes"] == [5, 6]

    def test_cover_json_pinned(self, capsys, tmp_path):
        # three cliques, 1-4, 5-9 and 10-15, and seven cross edges: five
        # more than a spanning tree over the parts needs
        cross = ["1,5", "2,6", "3,7", "5,10", "6,11", "1,10", "4,15"]
        _, doc, _ = run_cli(capsys, "gen", "K4+K5+K6",
                            *(arg for edge in cross for arg in ("--edge", edge)))
        path = tmp_path / "g.txt"
        path.write_text(doc)
        code, out, err = run_cli(capsys, "cover", str(path), "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["sizes"] == [4, 5, 6]
        assert payload["parts"] == [[1, 2, 3, 4], [5, 6, 7, 8, 9],
                                    [10, 11, 12, 13, 14, 15]]
        assert payload["n_cross_edges"] == brute_cross_edges(doc, payload) == 7

    def test_cover_json_cross_count_on_planted_covers(self, capsys, tmp_path, rng):
        for sizes, extra in [((3, 4), 5), ((4, 5, 6), 12), ((6, 7, 7), 30)]:
            g, _ = permute_graph(rng, planted_cover_graph(rng, sizes, extra))
            doc = emit_graph(g)
            path = tmp_path / "g.txt"
            path.write_text(doc)
            code, out, _ = run_cli(capsys, "cover", str(path), "--json")
            payload = json.loads(out)
            assert code == 0 and payload["sizes"] == sorted(sizes)
            parts = payload["parts"]
            assert sorted(v for part in parts for v in part) == list(range(1, g.n_vertices + 1))
            assert payload["n_cross_edges"] == brute_cross_edges(doc, payload)
            assert payload["n_cross_edges"] >= len(sizes) - 1 + extra

    @pytest.mark.parametrize("n_edges", [0, (1 << 20) - 1])
    def test_sparse_graph_at_the_vertex_cap(self, capsys, tmp_path, n_edges):
        # 2^20 vertices, edgeless or a path: far too few edges for three
        # cliques, refused before the 128 GiB of complement bitmasks
        n = 1 << 20
        path = tmp_path / "sparse.txt"
        path.write_text(f"p {n} {n_edges}\n"
                        + "".join(f"e {v} {v + 1}\n" for v in range(1, n_edges + 1)))
        with deadline(5):
            code, out, err = run_cli(capsys, "cover", str(path))
        assert (code, out, err) == (1, "no clique cover with at most 3 parts\n", "")

    @pytest.mark.parametrize("n_edges,want", [
        (0, (2, "", "pistr: graph has an isolated vertex or isolated edge\n")),
        ((1 << 20) - 1, (1, "unsupported: clique cover number exceeds 3\n", "")),
    ])
    def test_construct_refuses_fast_at_the_vertex_cap(self, tmp_path, n_edges, want):
        # 2^20 vertices, edgeless or a path through a shuffled numbering:
        # array passes over the edges refuse them, interpreter start included
        n = 1 << 20
        order = (np.random.default_rng(7).permutation(n) + 1).tolist()
        path = tmp_path / "sparse.txt"
        path.write_text(f"p {n} {n_edges}\n" + "".join(
            f"e {order[i]} {order[i + 1]}\n" for i in range(n_edges)))
        with deadline(1.5):
            proc = subprocess.run([sys.executable, "-m", "pistr.cli", "construct", str(path)],
                                  capture_output=True, text=True, env=src_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    def test_cover_not_found(self, capsys, tmp_path):
        path = tmp_path / "c5.txt"
        path.write_text("p 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
        code, _, _ = run_cli(capsys, "cover", str(path), "--k-max", "2")
        assert code == 1

    def test_construct_theorem_path(self, capsys, tmp_path):
        _, doc, _ = run_cli(capsys, "gen", "K5+K6+K8", "--edge", "1,6",
                            "--edge", "6,12")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        code, out, _ = run_cli(capsys, "construct", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["strength"] == 3 and payload["source"] == "theorem"
        assert payload["case"]["tree_edges"] == [[1, 6], [6, 12]]
        g, labeling = parse_graph(payload["document"])
        from pistr.verifier import is_product_irregular
        assert is_product_irregular(labeling).ok

    def test_construct_text_output_parses(self, capsys, tmp_path):
        _, doc, _ = run_cli(capsys, "gen", "K4+K7", "--edge", "2,5")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        code, out, _ = run_cli(capsys, "construct", str(path))
        assert code == 0
        g, labeling = parse_graph(out)  # leading "c ..." line is a comment
        assert labeling is not None

    def test_construct_seed_reproducible(self, capsys, tmp_path):
        _, doc, _ = run_cli(capsys, "gen", "K3+K3", "--edge", "1,4")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        _, out1, _ = run_cli(capsys, "construct", str(path))
        _, out2, _ = run_cli(capsys, "construct", str(path))
        assert out1 == out2

    def test_cover_number_four_reports_unsupported(self, capsys, tmp_path):
        path = tmp_path / "c7.txt"
        path.write_text("p 7 7\n" + "".join(
            f"e {i + 1} {(i + 1) % 7 + 1}\n" for i in range(7)))
        code, out, _ = run_cli(capsys, "construct", str(path))
        assert code == 1 and "unsupported" in out
        code, out, err = run_cli(capsys, "construct", str(path), "--json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {"schema": 1, "command": "construct", "found": False,
                                   "error": "clique cover number exceeds 3"}

    def test_cover_of_a_large_clique(self, capsys, tmp_path):
        n = 1200
        path = tmp_path / "k1200.txt"
        path.write_text(f"p {n} {n * (n - 1) // 2}\n" + "".join(
            f"e {u} {v}\n" for u in range(1, n + 1) for v in range(u + 1, n + 1)))
        code, out, err = run_cli(capsys, "cover", str(path), "--json")
        assert code == 0 and err == ""
        assert json.loads(out)["sizes"] == [n]


class TestMalformedInput:
    def test_exit_code_two(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p 3 1\ne 1 9\n")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and "line 2" in err

    def test_header_beyond_vertex_cap(self, capsys, tmp_path):
        # a header this large used to reach the graph arrays: an OverflowError
        # at 10**30 vertices, an allocation of about 80 GB at 10**10
        for n in (10**30, 10**10):
            path = tmp_path / "big.txt"
            path.write_text(f"p {n} 1\ne 1 2\n")
            for command in ("construct", "cover", "verify", "ps"):
                code, out, err = run_cli(capsys, command, str(path))
                assert (code, out) == (2, ""), command
                assert err == "pistr: line 1: header out of range\n", command

    def test_internal_error_exits_two_with_one_line(self, capsys, tmp_path, monkeypatch):
        def overflow(g, k_max):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "clique_cover", overflow)
        path = tmp_path / "k4.txt"
        path.write_text("p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
        code, out, err = run_cli(capsys, "cover", str(path))
        assert code == 2 and out == ""
        assert err == ("pistr: internal error: RecursionError: "
                       "maximum recursion depth exceeded\n")


def src_env(**extra) -> dict:
    """The environment with the package's source tree on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestBudget:
    """A budget that is not a nonnegative integer is a usage error: one
    stderr line and exit 2, from the flag or from the environment."""

    TRIANGLE = "p 3 3\ne 1 2\ne 1 3\ne 2 3\n"

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5", " "])
    def test_invalid_environment_value(self, capsys, tmp_path, monkeypatch, value):
        path = tmp_path / "k3.txt"
        path.write_text(self.TRIANGLE)
        monkeypatch.setenv("PISTR_BUDGET", value)
        for command in ("construct", "ps"):
            code, out, err = run_cli(capsys, command, str(path))
            assert (code, out) == (2, ""), command
            assert err == (f"pistr: invalid PISTR_BUDGET value {value!r}: "
                           "expected a nonnegative integer\n")

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5", ""])
    def test_invalid_flag_value(self, capsys, tmp_path, monkeypatch, value):
        path = tmp_path / "k3.txt"
        path.write_text(self.TRIANGLE)
        monkeypatch.delenv("PISTR_BUDGET", raising=False)
        for command in ("construct", "ps"):
            code, out, err = run_cli(capsys, command, str(path), f"--budget={value}")
            assert (code, out) == (2, ""), command
            assert err == (f"pistr: invalid --budget value {value!r}: "
                           "expected a nonnegative integer\n")

    def test_flag_wins_and_other_commands_ignore_it(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "k3.txt"
        path.write_text(self.TRIANGLE)
        monkeypatch.setenv("PISTR_BUDGET", "abc")
        assert run_cli(capsys, "construct", str(path), "--budget", "100")[0] == 0
        assert run_cli(capsys, "cover", str(path))[0] == 0
        assert run_cli(capsys, "gen", "K3")[0] == 0
        monkeypatch.setenv("PISTR_BUDGET", "")  # empty counts as unset
        assert run_cli(capsys, "construct", str(path))[0] == 0

    @pytest.mark.parametrize("expr,edges", [
        ("K3+K3", ["1,4"]),  # unpinned: the spanning graph is searched whole
        ("K3+K4+K4", ["1,4", "1,8"]),  # (3,4,4): one K4 pinned to a block
    ])
    def test_fallback_budget_exhausted(self, capsys, tmp_path, monkeypatch, expr, edges):
        _, doc, _ = run_cli(capsys, "gen", expr, *(f"--edge={e}" for e in edges))
        path = tmp_path / "g.txt"
        path.write_text(doc)
        monkeypatch.delenv("PISTR_BUDGET", raising=False)
        code, out, err = run_cli(capsys, "construct", str(path), "--budget", "0")
        assert (code, out) == (2, "")
        assert err.startswith("pistr: fallback budget exhausted after")

    def test_fallback_spends_exactly_the_command_budget(self, capsys, tmp_path, monkeypatch):
        # (3,4,4) with both tree edges at vertex 1 of a 4-part: one part is
        # pinned, and s = 3 is refuted for every block before s = 4 succeeds
        _, doc, _ = run_cli(capsys, "gen", "K4+K4+K3", "--edge", "1,5", "--edge", "1,9")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        monkeypatch.delenv("PISTR_BUDGET", raising=False)
        counts = []
        search = engine.search_labelings

        def counted(*args):
            sols, nodes = search(*args)
            counts.append(nodes)
            return sols, nodes

        monkeypatch.setattr(engine, "search_labelings", counted)
        code, unbounded, err = run_cli(capsys, "construct", str(path))
        assert (code, err) == (0, "")
        assert unbounded.startswith("c strength 4 source search-fallback "
                                    "case fallback:fixed(B4),s=4\n")
        assert len(counts) == 4
        total = sum(counts)
        assert run_cli(capsys, "construct", str(path), "--budget", str(total)) == (
            0, unbounded, "")
        assert run_cli(capsys, "construct", str(path), "--budget", str(total - 1)) == (
            2, "", f"pistr: fallback budget exhausted after {total} nodes\n")
        # run out inside the second search: the nodes of both are reported
        budget = counts[0] + counts[1] // 2
        assert run_cli(capsys, "construct", str(path), "--budget", str(budget)) == (
            2, "", f"pistr: fallback budget exhausted after {budget + 1} nodes\n")

    def test_process_exit_code(self, tmp_path):
        path = tmp_path / "k3.txt"
        path.write_text(self.TRIANGLE)
        proc = subprocess.run([sys.executable, "-m", "pistr.cli", "construct", str(path)],
                              capture_output=True, text=True,
                              env=src_env(PISTR_BUDGET="abc"))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("pistr: invalid PISTR_BUDGET value 'abc'")


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pistr.cli", "gen", "T"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("p 3 3")


def test_closed_stdout_exits_quietly(tmp_path):
    """A reader that stops early ends construct with exit 2 and nothing on
    stderr, also when the output is larger than the pipe buffer."""
    path = tmp_path / "k300.txt"
    path.write_text(emit_graph(complete_graph(300)))
    # Unbuffered, stdout's binary layer is the raw stream, whose short
    # writes the text layer would drop without an error.
    for unbuffered in (False, True):
        env = src_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "pistr.cli", "construct", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2, unbuffered
        assert proc.stderr.read() == b""
        proc.stderr.close()


def test_closed_stdout_in_process(monkeypatch, capsys):
    class ClosedPipe(io.StringIO):  # no file descriptor, like a test's capture
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["gen", "K3"]) == 2
    assert capsys.readouterr().err == ""


def test_one_parser_per_process(capsys, tmp_path):
    """Commands run one after another in one process, a usage error among
    them, print what each prints in a fresh process."""
    path = tmp_path / "g.txt"
    path.write_text("p 7 13\n" + "".join(
        f"e {u} {v}\n" for u, v in [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (4, 7),
                                    (5, 6), (5, 7), (6, 7), (3, 4), (1, 5), (2, 6),
                                    (3, 7)]))
    calls = [["construct", str(path), "--json"], ["cover", str(path)],
             ["cover", str(path), "--no-such-option"], ["construct", str(path), "--json"]]
    env = src_env()
    fresh = {}
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        key = tuple(argv)
        if key not in fresh:
            proc = subprocess.run([sys.executable, "-m", "pistr.cli", *argv],
                                  capture_output=True, text=True, env=env)
            fresh[key] = (proc.returncode, proc.stdout, proc.stderr)
        assert (code, captured.out, captured.err) == fresh[key]
        codes.append(code)
    assert codes == [0, 0, 2, 0]
    assert cli.build_parser() is cli.build_parser()
