"""Command-line interface: generate catalog graphs/matrices, verify
labelings, compute exact strength, compute clique covers, and construct
strength-3 labelings.

Exit codes: 0 success / verdict true; 1 verdict false or nothing found;
2 usage, budget or internal errors. Vertex ids in documents and reports are
1-based. The search budget of ps and construct is --budget, else the
PISTR_BUDGET environment variable, else the default.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import matrices
from .engine import (FallbackBudgetError, UnsupportedCoverError,
                     catalog_matrix, construct_labeling)
from .fileio import DocumentError, emit_graph, parse_graph
from .graphs import (add_cross_edge, clique_cover, complete_graph,
                     disjoint_union, matrix_to_labeled_graph)
from .solver import DEFAULT_BUDGET, ps_exact
from .verifier import is_product_irregular

SCHEMA = 1


def _budget(flag: str | None) -> int:
    """The search budget: --budget, else PISTR_BUDGET when set and not
    empty, else the default; ValueError unless it is a nonnegative integer."""
    source, raw = "--budget", flag
    if raw is None:
        source, raw = "PISTR_BUDGET", os.environ.get("PISTR_BUDGET")
        if not raw:
            return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"invalid {source} value {raw!r}: "
                         "expected a nonnegative integer")
    return budget


def _matrix_token(token: str) -> np.ndarray | None:
    """Matrix for one expression token, or None if it is not a matrix name."""
    for name in matrices.fixed_matrix_names():
        if token.upper() == name.upper():
            return matrices.fixed_matrix(name)
    head, tail = token[:1], token[1:]
    if head in "ABC" and tail.isdigit():
        return matrices.named_family(int(tail), head)
    if head == "t" and token[1:2] in "ABC" and token[2:].isdigit():
        return matrices.tilde_matrix(int(token[2:]), token[1])
    if token.startswith("LP") and token[2:].isdigit():
        return catalog_matrix((1, int(token[2:])))
    if head == "L" and tail.isdigit():
        return catalog_matrix((2, int(tail)))
    return None


def _generate(expr: str, cross: list[tuple[int, int]]) -> str:
    tokens = [t.strip() for t in expr.split("+")]
    if not tokens or any(not t for t in tokens):
        raise DocumentError(f"bad expression {expr!r}")
    if all(t[:1] == "K" and t[1:].isdigit() for t in tokens):
        g = complete_graph(int(tokens[0][1:]))
        for t in tokens[1:]:
            g = disjoint_union(g, complete_graph(int(t[1:])))
        for u, v in cross:
            g = add_cross_edge(g, u - 1, v - 1)
        return emit_graph(g)
    if cross:
        raise DocumentError("--edge applies only to K<n> expressions")
    mats = []
    for t in tokens:
        m = _matrix_token(t)
        if m is None:
            raise DocumentError(f"unknown token {t!r} in expression")
        mats.append(m)
    g, labeling = matrix_to_labeled_graph(matrices.direct_sum(mats))
    return emit_graph(g, labeling)


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit_json(payload: dict):
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, indent=2))


def _degree_json(degrees) -> list[dict]:
    return [{"value": d.value, "factors": [list(f) for f in d.factors]}
            for d in degrees]


def _cmd_gen(args) -> int:
    cross = []
    for spec in args.edge or []:
        parts = spec.split(",")
        if len(parts) != 2 or not all(p.strip().isdigit() for p in parts):
            raise DocumentError(f"--edge expects 'u,v', got {spec!r}")
        cross.append((int(parts[0]), int(parts[1])))
    sys.stdout.write(_generate(args.expr, cross))
    return 0


def _cmd_verify(args) -> int:
    g, labeling = parse_graph(_read_document(args.input))
    if labeling is None:
        raise DocumentError("verify needs a labeled document")
    report = is_product_irregular(labeling)
    if args.json:
        _emit_json({
            "command": "verify",
            "ok": report.ok,
            "witness": None if report.witness is None
            else [report.witness[0] + 1, report.witness[1] + 1],
            "degrees": _degree_json(report.degrees),
        })
    elif report.ok:
        print("product-irregular: yes")
    else:
        u, v = report.witness
        print(f"product-irregular: no (vertices {u + 1} and {v + 1} share "
              f"product degree {report.degrees[u].value})")
    return 0 if report.ok else 1


def _cmd_ps(args) -> int:
    g, _ = parse_graph(_read_document(args.input))
    result = ps_exact(g, args.s_max, budget=args.budget)
    if args.json:
        _emit_json({
            "command": "ps",
            "value": result.value,
            "s_max": result.s_max,
            "budget_exhausted": result.budget_exhausted,
            "nodes_explored": result.nodes_explored,
            "certificate": None if result.certificate is None
            else emit_graph(g, result.certificate),
        })
    elif result.found:
        print(f"ps = {result.value}  (nodes explored: {result.nodes_explored})")
        sys.stdout.write(emit_graph(g, result.certificate))
    elif result.budget_exhausted:
        print(f"budget exhausted after {result.nodes_explored} nodes")
    else:
        print(f"ps > {args.s_max}  (nodes explored: {result.nodes_explored})")
    if result.budget_exhausted:
        return 2
    return 0 if result.found else 1


def _cmd_cover(args) -> int:
    g, _ = parse_graph(_read_document(args.input))
    cover = clique_cover(g, args.k_max)
    if args.json:
        _emit_json({
            "command": "cover",
            "found": cover is not None,
            "k_max": args.k_max,
            "sizes": None if cover is None else list(cover.sizes),
            "parts": None if cover is None
            else [[v + 1 for v in part] for part in cover.parts],
            "n_cross_edges": None if cover is None else len(cover.cross_edges),
        })
    elif cover is None:
        print(f"no clique cover with at most {args.k_max} parts")
    else:
        print(f"clique cover number: {cover.n_parts}")
        for i, part in enumerate(cover.parts):
            print(f"  part {i + 1} (size {cover.sizes[i]}): "
                  + " ".join(str(v + 1) for v in part))
    return 0 if cover is not None else 1


def _cmd_construct(args) -> int:
    g, _ = parse_graph(_read_document(args.input))
    try:
        outcome = construct_labeling(g, budget=args.budget)
    except UnsupportedCoverError as exc:
        if args.json:
            _emit_json({"command": "construct", "found": False, "error": str(exc)})
        else:
            print(f"unsupported: {exc}")
        return 1
    if args.json:
        _emit_json({
            "command": "construct",
            "found": True,
            "strength": outcome.strength,
            "source": outcome.source,
            "case": {
                "cover_sizes": list(outcome.case_trace.cover_sizes),
                "pattern": outcome.case_trace.pattern,
                "construction_id": outcome.case_trace.construction_id,
                "tree_edges": [[u + 1, v + 1] for u, v in outcome.case_trace.tree_edges],
            },
            "document": emit_graph(g, outcome.labeling),
        })
    else:
        print(f"c strength {outcome.strength} source {outcome.source} "
              f"case {outcome.case_trace.construction_id}")
        sys.stdout.write(emit_graph(g, outcome.labeling))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing leaves the parser unchanged, so every main() call in one process
    shares it; that spares in-process callers (tests, benchmarks, library
    use) about a millisecond per call. A one-shot pistr process builds it
    once either way.
    """
    parser = argparse.ArgumentParser(
        prog="pistr",
        description="Product irregularity strength: constructions, "
                    "verification, and exact search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a catalog graph or labeled matrix")
    p.add_argument("expr", help="e.g. K3+K3, A4+B9, T5+T5_TILDE, L4, LP4, tA5+tB5+tC5")
    p.add_argument("--edge", action="append", metavar="U,V",
                   help="add a cross edge (1-based, K expressions only)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check a labeled document")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ps", help="exact product irregularity strength")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--s-max", type=int, default=4)
    p.add_argument("--budget", metavar="NODES")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ps)

    p = sub.add_parser("cover", help="minimum clique cover")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("construct", help="strength-3 labeling via clique cover")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--budget", metavar="NODES")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "budget"):
            args.budget = _budget(args.budget)
        return args.func(args)
    except (DocumentError, ValueError) as exc:
        print(f"pistr: {exc}", file=sys.stderr)
        return 2
    except FallbackBudgetError as exc:
        print(f"pistr: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pistr: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "nothing found", never a crash
        detail = " ".join(str(exc).splitlines())
        print(f"pistr: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
