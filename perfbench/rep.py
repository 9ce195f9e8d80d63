"""One repetition of a benchmark workload, in a fresh interpreter.

Run by run.py with zforce's sources on PYTHONPATH.  Imports zforce, builds
the inputs from the seed, runs the workload's fixed batch and prints one
JSON line: the answers, per-query latencies, wall time, peak RSS and, when
traced, the per-layer span summary.  Checking the answers is left to the
parent process, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import sys
import time
from itertools import combinations

import zforce
from zforce import kernels

import workloads
from spans import Tracer


def fixed_panel():
    graphs = []
    for name, factors in workloads.FIXED_PANEL:
        parts = [zforce.family(fam, params) for fam, params in factors]
        g = parts[0] if len(parts) == 1 else zforce.cartesian_product(*parts)
        graphs.append((name, g))
    return graphs


def build_inputs(workload: str, seed: int):
    if workload in ("search-hard", "search-parallel"):
        seeded = workloads.search_seeded(seed)
        return fixed_panel() + [
            (name, zforce.Graph.from_edges(n, edges)) for name, n, edges in seeded
        ]
    if workload == "bounds-sweep":
        return [
            (name, zforce.Graph.from_edges(n, edges))
            for name, n, edges in workloads.sweep_graphs(seed)
        ]
    for module in ("zforce.cli", "zforce.reproduce"):  # reproduce drives the CLI
        importlib.import_module(module)
    return []


def _error(name: str, exc: Exception) -> dict:
    return {"name": name, "error": f"{type(exc).__name__}: {exc}"}


def run_search(graphs, workers: int):
    answers, latencies = [], []
    for name, g in graphs:
        t0 = time.perf_counter()
        try:
            found = [
                zforce.zero_forcing_number(g, rule, workers=workers)
                for rule in ("psd", "standard")
            ]
        except Exception as exc:  # a failed query is counted, not fatal
            answers.append(_error(name, exc))
            continue
        latencies.append(time.perf_counter() - t0)
        for res in found:
            answers.append({
                "name": name, "rule": res.rule, "value": res.value,
                "set": res.best.to_list(), "nodes": res.nodes_explored,
            })
    return answers, latencies


def sweep_answer(g) -> dict:
    rep = zforce.bounds_report(g)
    ans = {
        "z": rep.z, "zplus": rep.zplus, "p": rep.path_cover,
        "cc": rep.clique_cover, "delta": rep.delta, "os": None, "allmin": None,
    }
    if g.n <= workloads.SWEEP_OS_MAX_N:
        os_set = zforce.maximum_os_set(g)
        ans["os"] = [list(os_set.order), list(os_set.witnesses)]
    if g.n <= workloads.SWEEP_ALL_MIN_MAX_N:
        sets = zforce.all_minimum_zfs(g, "standard")
        log = zforce.derived_set(g, sets[0], "standard")
        ans["allmin"] = [s.to_list() for s in sets]
        ans["log"] = [[f.forcer, f.forced] for f in log.forces]
        ans["reversal"] = zforce.reversal(log).to_list()
    return ans


def run_sweep(graphs, workers: int):
    answers, latencies = [], []
    for name, g in graphs:
        t0 = time.perf_counter()
        try:
            ans = sweep_answer(g)
        except Exception as exc:  # a failed query is counted, not fatal
            answers.append(_error(name, exc))
            continue
        latencies.append(time.perf_counter() - t0)
        answers.append({"name": name, **ans})
    return answers, latencies


def run_reproduce(graphs, workers: int):
    from zforce import cli

    out = io.StringIO()
    crash = None
    try:
        with contextlib.redirect_stdout(out):
            cli.main(["reproduce"])
    except Exception as exc:  # counted as failed criteria, not fatal
        crash = _error("reproduce", exc)["error"]
    answers = []
    for line in out.getvalue().splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASS", "FAIL"):
            answers.append({"name": rest.split(":", 1)[0], "passed": status == "PASS"})
    if crash:
        done = {a["name"] for a in answers}
        answers += [{"name": name, "error": crash}
                    for name, _ in zforce.reproduce.CRITERIA if name not in done]
    return answers, None


RUNNERS = {
    "search-hard": run_search,
    "search-parallel": run_search,
    "bounds-sweep": run_sweep,
    "reproduce": run_reproduce,
}


# The small cases of benchmarks/bench_kernels.py.  When the compiled
# backend is active its pure twin must give the same value, mask and
# closure count on each.
def _sweep_closures(mod, g, psd: bool, k: int):
    clo = mod.closure_psd if psd else mod.closure_standard
    full = (1 << g.n) - 1
    hits = 0
    for s in combinations(range(g.n), k):
        mask = 0
        for v in s:
            mask |= 1 << v
        hits += clo(g.adj, g.n, mask) == full
    return [hits, None, math.comb(g.n, k)]


def _search_min(mod, g, psd: bool):
    explored = 0
    for k in range(1, g.n + 1):
        found, run = mod.first_forcing_lex(g.adj, g.n, k, psd)
        explored += run
        if found is not None:
            return [k, found, explored]
    return [g.n, (1 << g.n) - 1, explored]


def kernel_cases(mod) -> dict:
    pinwheel = zforce.family("pinwheel12")
    return {
        "pinwheel12 standard sweep k=4": _sweep_closures(mod, pinwheel, False, 4),
        "pinwheel12 psd sweep k=3": _sweep_closures(mod, pinwheel, True, 3),
        "Z(ML12) full search": _search_min(
            mod, zforce.family("mobius_ladder", [12]), False),
    }


def kernel_gate() -> dict:
    backend = kernels.backend_name()
    active = kernels._impl(1)
    gate = {"backend": backend, "cases": kernel_cases(active), "twin": None}
    if backend == "compiled":
        gate["twin"] = kernel_cases(kernels._py)
    return gate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--gate", action="store_true")
    ap.add_argument("--spans", default=None, help="write the raw spans here")
    args = ap.parse_args(argv)

    graphs = build_inputs(args.workload, args.seed)
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    tracer = Tracer()
    if args.trace:
        tracer.install()
    t0 = time.perf_counter()
    answers, latencies = RUNNERS[args.workload](graphs, args.workers)
    wall = time.perf_counter() - t0
    if latencies is None:  # the whole suite is the one query
        latencies = [wall]
    result = {
        "t_ready": t_ready,
        "wall_s": wall,
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": kernels.backend_name(max((g.n for _, g in graphs), default=1)),
        "answers": answers,
    }
    if args.trace:
        result["layers"] = tracer.summary()
        result["counters"] = {
            "closures": tracer.closures,
            "lex_closures": tracer.lex_closures,
            "lex_subsets": tracer.lex_subsets,
        }
        if args.spans:
            tracer.dump(args.spans)
    if args.gate:
        result["kernel_gate"] = kernel_gate()
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
