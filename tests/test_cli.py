import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pistr import cli
from pistr.cli import main
from pistr.fileio import parse_graph


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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_clique_expression(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "K3+K3", "--edge", "1,4")
        assert code == 0
        g, labeling = parse_graph(out)
        assert g.n_vertices == 6 and g.n_edges == 7 and labeling is None

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


class TestCoverAndConstruct:
    def test_cover(self, capsys, tmp_path):
        _, doc, _ = run_cli(capsys, "gen", "K5+K6", "--edge", "1,6")
        path = tmp_path / "g.txt"
        path.write_text(doc)
        code, out, _ = run_cli(capsys, "cover", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["sizes"] == [5, 6]

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
