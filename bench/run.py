"""pistr benchmark: one process, one thread, closed loop with one client.

    python3 bench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):
  construct      unlabeled documents through `pistr construct - --json`, on stdin
  exact-cliques  ps_exact / ps_exact_disconnected on a fixed clique set
  exact-random   the same solvers on seeded random graphs of order 6 to 9

A run generates its inputs from --seed, then repeats passes over them while
the operations' own time stays within --seconds (at least two passes). Every
answer of the first pass is checked; later passes must reproduce it exactly.
With --trace 0 the last line reports the end-to-end metrics, all taken from
each item's median time, scaled to a reference host speed that speed.py
samples while the run goes on; with --trace 1 the run measures
half its time untraced and half with spans around every layer, and reports
per-layer metrics per pass plus the tracing overhead. Earlier lines print
every metric with its unit, the answer digest and the known-limit probes.
Exit code 0 on a finished run, 2 when the pistr sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads
from speed import REF_S, SpeedSampler
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 2  # per untraced run; each phase of a traced run needs one
SETUP_REPEATS = 5  # setup_s is the median import plus the median generation
SETUP_SAMPLES = 5  # reference kernel runs before and after each import
PROBE_CAP_S = 2.0
S_MAX = 4
CLIQUE_REPEAT_S = 0.25  # an exact-cliques item runs until it took this long in a pass

# Pinned exact strengths of the clique set. The 3s are certified by their
# labelings; the 4s are also refuted at s = 3 by the exhaustive oracle.
CLIQUE_VALUES = {"K5": 3, "K6": 3, "K7": 3, "K8": 3, "K3+K3+e": 3,
                 "K3+K4+e": 3, "K4+K4+e": 3, "K4+K5+e": 3, "K3+K3+K3 path": 4,
                 "K4+K4": 4, "K5+K5": 3, "K5+K5+K4": 3, "K4+K4 (ps_exact)": 4}
# DFS nodes of ps_exact(., s_max=4) and ps_exact_disconnected(., 4) at the
# first benchmarked version; reported against each run, not gated.
NODE_ANCHORS = {"K7": 483_757, "K8": 21_908_591, "K5+K5+K4": 67_260,
                "K4+K4 (ps_exact)": 83_541}


def load_pistr() -> argparse.Namespace:
    """Import pistr from this checkout's src/, or exit with code 2."""
    if not (SRC / "pistr" / "__init__.py").is_file():
        print(f"bench: no pistr sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pistr
    from pistr import cli, engine, fileio, graphs, solver, verifier
    if Path(pistr.__file__).resolve().parent != SRC / "pistr":
        print(f"bench: imported pistr from {pistr.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return argparse.Namespace(cli=cli, engine=engine, fileio=fileio, graphs=graphs,
                              solver=solver, verifier=verifier)


def import_seconds() -> float:
    """Time to import pistr in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import pistr; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)


class ConstructFailed(Exception):
    """`pistr construct` exited with a code other than 0."""


class Construct:
    """Documents through cli.main(["construct", "-", "--json"]), the document
    on stdin, so a run writes no files."""

    repeat_s = 0.0

    def __init__(self, p, seed: int, smoke: bool):
        self.p, self.seed, self.smoke = p, seed, smoke

    def setup(self):
        return workloads.construct_documents(random.Random(self.seed), self.smoke)

    def ident(self, item) -> str:
        return item.ident

    def run(self, item) -> str:
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(item.text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.p.cli.main(["construct", "-", "--json"])
        finally:
            sys.stdin = stdin
        if code != 0:
            raise ConstructFailed(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def fingerprint(self, item, answer) -> str:
        payload = json.loads(answer)
        doc_hash = hashlib.sha256(payload["document"].encode()).hexdigest()
        return (f"{item.ident}\t{payload['strength']}\t"
                f"{payload['case']['construction_id']}\t{doc_hash}")

    def check(self, item, answer) -> str | None:
        return checks.check_construct(self.p.fileio, self.p.graphs, self.p.verifier,
                                      item.text, answer)


class Exact:
    """ps_exact or ps_exact_disconnected, looked up on pistr.solver per call."""

    def __init__(self, p, seed: int, smoke: bool, name: str):
        self.p, self.seed, self.smoke, self.name = p, seed, smoke, name
        self.repeat_s = CLIQUE_REPEAT_S if name == "exact-cliques" and not smoke else 0.0

    def setup(self):
        if self.name == "exact-cliques":
            return workloads.clique_instances(self.p.graphs, self.smoke)
        return workloads.random_instances(random.Random(self.seed),
                                          self.p.graphs.Graph, self.smoke)

    def ident(self, item) -> str:
        return item.ident

    def run(self, item):
        return getattr(self.p.solver, item.solver)(item.graph, S_MAX)

    def fingerprint(self, item, answer) -> str:
        return f"{item.ident}\t{answer.value}"

    def check(self, item, answer) -> str | None:
        return checks.check_exact(item.graph, answer, CLIQUE_VALUES.get(item.ident))


class Measurement:
    """Latencies, pass times and check outcomes of one measured phase."""

    def __init__(self, n_items: int):
        # per item: (time without the speed sampler's, start, end) of each run
        self.samples: list[list[tuple[float, float, float]]] = [[] for _ in range(n_items)]
        self.pass_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []  # operations that raised
        self.wrong: list[str] = []  # answers that failed their check
        self.unchecked: list[str] = []  # answers too large for the oracle

    def item_times(self, speed: SpeedSampler | None = None) -> list[float]:
        """Each item's median time over the passes, every time scaled to
        the reference speed if ``speed`` is given. A burst of host load
        stalls a few operations at random; a pass's sum or a percentile over
        every sample takes those stalls in, an item's median ignores them."""
        return [statistics.median(dt * (speed.scale(t0, t1) if speed else 1.0)
                                  for dt, t0, t1 in runs)
                for runs in self.samples if runs]

    def pass_s(self, speed: SpeedSampler | None = None) -> float:
        """One pass over the instance set at each item's median time."""
        return sum(self.item_times(speed))


def measure(workload, items, seconds: float, min_passes: int, max_passes: int | None,
            reference: dict, speed: SpeedSampler, tracer: Tracer | None = None) -> Measurement:
    """Closed loop over the items, pass after pass, while the operations'
    time stays within ``seconds``. Untraced, an item runs again within a
    pass until it has taken ``workload.repeat_s``, so that a short item's
    median has samples enough; traced, once, so that per-pass counts are
    exact. An operation that raises is counted as failed and kept
    out of the pass time and the latencies. An operation's time leaves out
    what the ``speed`` sampler spent inside it. The first answer to each
    item is checked, outside the timed region; every later one must repeat
    it (``reference`` maps the item's position to its fingerprint and is
    shared between phases)."""
    m = Measurement(len(items))
    repeat_s = 0.0 if tracer else workload.repeat_s
    spent = 0.0
    while True:
        busy = 0.0
        for pos, item in enumerate(items):
            on_item = 0.0
            while on_item <= repeat_s:
                dt = run_once(workload, pos, item, m, reference, speed, tracer)
                if dt is None:
                    break
                on_item += dt
            busy += on_item
        m.pass_times.append(busy)
        spent += busy
        done = len(m.pass_times)
        if max_passes is not None and done >= max_passes:
            break
        if done >= min_passes and spent * (done + 1) / done > seconds:
            break
    return m


def run_once(workload, pos: int, item, m: Measurement, reference: dict,
             speed: SpeedSampler, tracer: Tracer | None) -> float | None:
    """One timed operation, recorded in ``m``; its time as measured, or
    None if it raised."""
    ident = workload.ident(item)
    m.attempted += 1
    if tracer is not None:
        tracer.begin(ident)
    t0, sampled = perf_counter(), speed.spent
    try:
        answer = workload.run(item)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted
        m.failures.append(f"{ident}: {type(exc).__name__}: {exc}")
        return None
    t1 = perf_counter()
    m.samples[pos].append((t1 - t0 - (speed.spent - sampled), t0, t1))
    fp = workload.fingerprint(item, answer)
    if pos not in reference:
        reference[pos] = fp
        try:
            problem = workload.check(item, answer)
        except checks.Unchecked as exc:
            m.unchecked.append(f"{ident}: {exc}")
            problem = None
        if problem:
            m.wrong.append(f"{ident}: {problem}")
    elif reference[pos] != fp:
        m.wrong.append(f"{ident}: answer changed between passes")
    return t1 - t0


def digest(items, reference: dict) -> str:
    """Answer digest over one pass: fingerprints in item order."""
    h = hashlib.sha256()
    for pos in range(len(items)):
        h.update(reference.get(pos, "").encode() + b"\n")
    return h.hexdigest()[:16]


class ProbeTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ProbeTimeout


def run_probes(p) -> list[tuple[str, str]]:
    """Cover the known-limit inputs under a fixed time cap each; returns
    (ident, outcome) pairs where outcome is "ok" or the failure."""
    expected = {"probe:K1000": (1000,), "probe:50-60-70": (50, 60, 70)}
    outcomes = []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for ident, n, edges in workloads.limit_probes():
            g = p.graphs.Graph.from_edges(n, edges)
            signal.setitimer(signal.ITIMER_REAL, PROBE_CAP_S)
            try:
                cover = p.graphs.clique_cover(g, 3)
                outcome = ("ok" if cover is not None and cover.sizes == expected[ident]
                           else f"wrong cover {cover and cover.sizes}")
            except ProbeTimeout:
                outcome = f"timeout after {PROBE_CAP_S} s"
            except RecursionError:
                outcome = "RecursionError"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcomes.append((ident, outcome))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return outcomes


def trace_targets(p):
    """(module, attribute, span name, count) for every layer boundary, at
    the module attribute where the caller looks the function up."""

    def parsed(span, args, result, exc):
        span.counts["bytes"] = len(args[0])

    def emitted(span, args, result, exc):
        if result is not None:
            span.counts["bytes"] = len(result)

    def verified(span, args, result, exc):
        span.counts["vertices"] = args[0].graph.n_vertices

    def searched(span, args, result, exc):
        if exc is None:
            span.counts["nodes"] = result[1]
        elif isinstance(exc, p.solver.BudgetExhausted):
            span.counts["nodes"] = exc.args[0] if exc.args else 0
            span.counts["budget_exhausted"] = 1

    def solved(span, args, result, exc):
        if result is not None:
            span.counts["nodes"] = result.nodes_explored
            span.counts["budget_exhausted"] = int(result.budget_exhausted)

    def constructed(span, args, result, exc):
        if result is not None:
            span.counts["strength"] = result.strength
            span.counts["fallback"] = int(
                result.case_trace.construction_id.startswith("fallback:"))

    cli, engine, solver = p.cli, p.engine, p.solver
    return [
        (cli, "main", "cli.main", None),
        (cli, "parse_graph", "fileio.parse_graph", parsed),
        (cli, "emit_graph", "fileio.emit_graph", emitted),
        (cli, "construct_labeling", "engine.construct_labeling", constructed),
        (engine, "clique_cover", "graphs.clique_cover", None),
        (engine, "is_connected", "graphs.is_connected", None),
        (engine, "has_isolated_vertex_or_edge", "graphs.has_isolated_vertex_or_edge", None),
        (engine, "named_family", "matrices.named_family", None),
        (engine, "fixed_matrix", "matrices.fixed_matrix", None),
        (engine, "tilde_matrix", "matrices.tilde_matrix", None),
        (engine, "is_product_irregular", "verifier.is_product_irregular", verified),
        (engine, "search_labelings", "solver.search_labelings", searched),
        (solver, "search_labelings", "solver.search_labelings", searched),
        (solver, "ps_exact", "solver.ps_exact", solved),
        (solver, "ps_exact_disconnected", "solver.ps_exact_disconnected", solved),
    ]


def layer_metrics(tracer: Tracer, ops: int, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass from the traced phase's spans."""
    spans = tracer.spans
    own = tracer.self_times()

    def dur(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(key, name=None):
        return sum(s.counts.get(key, 0) for s in spans if name in (None, s.name))

    def self_time(layer):
        return sum(t for s, t in zip(spans, own) if s.layer == layer)

    def per_op(x):
        return x / ops if ops else 0.0

    search = "solver.search_labelings"
    search_s = dur(search)
    nodes = count("nodes", search)
    child_nodes = [0] * len(spans)
    for s in spans:
        if s.name == search and s.parent is not None:
            child_nodes[s.parent] += s.counts.get("nodes", 0)
    combine = sum(s.counts.get("nodes", 0) - child_nodes[i] for i, s in enumerate(spans)
                  if s.name == "solver.ps_exact_disconnected")
    verify_s = dur("verifier.is_product_irregular")
    constructs = sum(1 for s in spans if s.name == "engine.construct_labeling"
                     and "strength" in s.counts)
    engine_searches = sum(1 for s in spans if s.name == search and s.parent is not None
                          and spans[s.parent].layer == "engine")
    builds = sum(1 for s in spans if s.layer == "matrices")
    covers = sum(1 for s in spans if s.name == "graphs.clique_cover")
    metrics = {
        "cli.self_s": (self_time("cli") / passes, "s"),
        "fileio.parse_s": (dur("fileio.parse_graph") / passes, "s"),
        "fileio.emit_s": (dur("fileio.emit_graph") / passes, "s"),
        "fileio.bytes": (count("bytes") / passes, "B"),
        "graphs.self_s": (self_time("graphs") / passes, "s"),
        "graphs.clique_cover_s": (dur("graphs.clique_cover") / passes, "s"),
        "graphs.clique_cover_calls": (covers / passes, "count"),
        "matrices.build_s": (self_time("matrices") / passes, "s"),
        "matrices.builds_per_op": (per_op(builds), "1/op"),
        "verifier.verify_s": (verify_s / passes, "s"),
        "verifier.vertices_per_s": (count("vertices") / verify_s if verify_s else 0.0, "1/s"),
        "engine.self_s": (self_time("engine") / passes, "s"),
        "engine.fallback_frac": (count("fallback") / constructs if constructs else 0.0, "frac"),
        "engine.strength4_frac": (
            sum(1 for s in spans if s.counts.get("strength") == 4) / constructs
            if constructs else 0.0, "frac"),
        "engine.fallback_searches_per_op": (per_op(engine_searches), "1/op"),
        "solver.search_s": (self_time("solver") / passes, "s"),
        "solver.nodes": (nodes / passes, "count"),
        "solver.nodes_per_s": (nodes / search_s if search_s else 0.0, "1/s"),
        "solver.combine_nodes": (combine / passes, "count"),
        "solver.budget_exhausted": (count("budget_exhausted") / passes, "count"),
    }
    return metrics


def quantile_ms(values: list[float], q: int) -> float:
    """q-th percentile in milliseconds by nearest rank: the smallest value
    with at least q% of the values at or below it."""
    ranked = sorted(values)
    if not ranked:
        return 0.0
    return ranked[max(0, math.ceil(q * len(ranked) / 100) - 1)] * 1e3


def end_to_end(m: Measurement, speed: SpeedSampler, setup_s: float,
               rss_mb: float) -> dict[str, tuple[float, str]]:
    """pass_s is one pass at the items' median times, graphs_per_s the
    items it completes per second; the percentiles are over the same
    median times. Every time is at the reference speed."""
    item_times = m.item_times(speed)
    pass_s = sum(item_times)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "graphs_per_s": (len(item_times) / pass_s if pass_s else 0.0, "1/s"),
        "p50_ms": (quantile_ms(item_times, 50), "ms"),
        "p95_ms": (quantile_ms(item_times, 95), "ms"),
        "pass_s": (pass_s, "s"),
    }


def twin_share(instances) -> float:
    """Share of the instances' vertices that have a twin."""
    twins = sum(workloads.twin_vertices(i.graph.n_vertices, i.graph.edges) for i in instances)
    return twins / sum(i.graph.n_vertices for i in instances)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["construct", "exact-cliques", "exact-random"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a handful of instances, one pass per phase, no probes")
    args = parser.parse_args(argv)

    p = load_pistr()
    if args.workload == "construct":
        workload = Construct(p, args.seed, args.smoke)
    else:
        workload = Exact(p, args.seed, args.smoke, args.workload)
    max_passes = 1 if args.smoke else None
    repeats = 1 if args.smoke else SETUP_REPEATS
    speed = SpeedSampler()
    reference: dict[int, str] = {}
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_passes = 1 if args.trace else MIN_PASSES
    with speed.running():
        # The sampler is idle while the import subprocesses run, so the
        # kernel runs around each of them as well.
        start, imports, setups = perf_counter(), [], []
        for _ in range(repeats):
            speed.sample(SETUP_SAMPLES)
            imports.append(import_seconds())
            speed.sample(SETUP_SAMPLES)
            t0, sampled = perf_counter(), speed.spent
            items = workload.setup()
            setups.append(perf_counter() - t0 - (speed.spent - sampled))
        setup_raw = statistics.median(imports) + statistics.median(setups)
        setup_s = setup_raw * speed.scale(start, perf_counter())
        plain = measure(workload, items, seconds, min_passes, max_passes, reference, speed)
        phases = [plain]
        tracer = None
        if args.trace:
            tracer = Tracer()
            with tracer.installed(trace_targets(p)):
                traced = measure(workload, items, seconds, min_passes, max_passes,
                                 reference, speed, tracer)
            phases.append(traced)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = [] if args.smoke or args.workload != "construct" else run_probes(p)

    attempted = sum(ph.attempted for ph in phases)
    failures = [f for ph in phases for f in ph.failures]
    wrong = [w for ph in phases for w in ph.wrong]
    unchecked = [u for ph in phases for u in ph.unchecked]
    failed = len(failures)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(items)} items per pass, passes {[len(ph.pass_times) for ph in phases]}, "
          f"attempted {attempted}, failed {failed}, wrong {len(wrong)}, "
          f"unchecked {len(unchecked)}")
    print(f"speed: {len(speed.times)} reference kernel runs, median "
          f"{statistics.median(speed.times) * 1e3:.4f} ms (reference {REF_S * 1e3:g} ms), "
          f"set-up {setup_raw:.4f} s and untraced pass {plain.pass_s():.4f} s as measured, "
          f"{setup_s:.4f} s and {plain.pass_s(speed):.4f} s at the reference speed")
    for problem in (failures + wrong + unchecked)[:20]:
        print(f"  problem: {problem}")
    print(f"digest {args.workload} {digest(items, reference)}")
    if args.workload == "exact-random":
        print(f"twin share {twin_share(items):.4f}")
    if args.workload == "exact-cliques":
        for pos in sorted(reference):
            print(f"  answer {reference[pos]}")
    if probes:
        bad = sum(1 for _, outcome in probes if outcome != "ok")
        print(f"known-limit probes: {len(probes)} attempted, {bad} failed, failed_frac "
              f"{(failed + bad) / (attempted + len(probes)):.5f} with the stream")
        for ident, outcome in probes:
            print(f"  {ident}: {outcome}")

    if args.trace:
        ops = traced.attempted
        metrics = layer_metrics(tracer, ops, len(traced.pass_times))
        metrics["graphs.cover_limit_failures"] = (
            float(sum(1 for _, o in probes if o != "ok")), "count")
        overhead = traced.pass_s(speed) / plain.pass_s(speed) - 1
        metrics["tracing.overhead_frac"] = (overhead, "frac")
        if args.workload == "exact-cliques":
            report_nodes(tracer)
    else:
        metrics = end_to_end(plain, speed, setup_s, rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def report_nodes(tracer: Tracer):
    """DFS nodes of each exact-cliques instance, from its first root span,
    against the anchors."""
    nodes: dict[str, int] = {}
    for s in tracer.spans:
        if s.parent is None and "nodes" in s.counts:
            nodes.setdefault(tracer.op_names[s.op], s.counts["nodes"])
    for ident, n in nodes.items():
        anchor = NODE_ANCHORS.get(ident)
        note = "" if anchor is None else (
            f"  anchor {anchor} {'matches' if n == anchor else 'DIFFERS'}")
        print(f"  nodes {ident}: {n}{note}")


if __name__ == "__main__":
    sys.exit(main())
