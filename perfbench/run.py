#!/usr/bin/env python3
"""The zforce benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a zforce checkout.  Builds the package in place once
(a no-op when no extension can be compiled), then repeats the workload's
fixed batch, each repetition in a fresh interpreter, until S seconds have
passed.  Every answer is checked outside the timed region: against the
golden file for the fixed inputs and the default seed, and against an
unpruned oracle for seeded inputs.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (trace 0) or the per-layer metrics (trace 1),
preceded by one line of run metadata.  Exit codes: 0 ok, 1 a check failed,
2 bad arguments or no zforce sources, 3 a time budget ran out or a
repetition crashed.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
STATE = ".bench_build/perfbench"  # build stamp and span dumps, under the root

RUN_BUDGET_S = 170  # the whole run after the build, so it exits within 180 s
BUILD_BUDGET_S = 600
REP_BUDGET_S = {  # one repetition; about five times its cost today
    "search-hard": 45,
    "search-parallel": 45,
    "bounds-sweep": 30,
    "reproduce": 45,
}
SETUP_PROBES = 5
MIN_REPS = 4  # a traced run makes at least two of each kind
PARALLEL_WORKERS = 2
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile

REPRODUCE_CRITERIA = (
    "pinwheel", "trees", "duality", "reversal", "intersection", "sandwich",
    "mobius", "books", "tree-clique", "product-bound", "h43",
)
LAYER_FUNCTIONS = (
    "kernels.first_forcing_lex", "kernels.all_forcing_lex", "kernels.closure",
    "search.zero_forcing_number", "search.all_minimum_zfs",
    "search.maximum_os_set", "graph.Graph", "graph.induced", "graph.components",
    "forcing.derived_set", "forcing.is_forcing_set",
    "bounds.path_cover_number", "bounds.clique_cover_number",
    "bounds.bounds_report",
)
WITNESS_SPANS = ("witness.build_tree_clique_witness", "witness.build_h43_witness")


class BenchError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def clamp_workers(requested: int, cpu_count: int | None) -> int:
    """Worker count for the parallel workload: at least 1, at most the CPUs."""
    if requested < 1:
        raise ValueError(f"workers must be at least 1, got {requested}")
    return min(requested, cpu_count or 1)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=PARALLEL_WORKERS,
                    help="pool size for search-parallel, capped at the CPU count")
    args = ap.parse_args(argv)
    try:
        workloads.validate_seed(args.seed)
        args.workers = clamp_workers(args.workers, os.cpu_count())
    except ValueError as exc:
        ap.error(str(exc))
    if not 1 <= args.seconds <= RUN_BUDGET_S // 2:
        ap.error(f"--seconds must lie in 1..{RUN_BUDGET_S // 2}")
    return args


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def build(root: Path) -> None:
    """Build the package in place once per checkout, as an install would."""
    state = root / STATE
    stamp = state / "built"
    if stamp.exists():
        return
    state.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
           "--build-temp", str(state / "build-temp")]
    proc = run_process(cmd, root, os.environ.copy(), BUILD_BUDGET_S)
    if proc[0] != 0:
        raise BenchError(3, f"in-place build failed:\n{proc[2]}")
    stamp.write_text("built\n")


def run_process(cmd, cwd: Path, env, timeout: float):
    """(returncode, stdout, stderr); the process group is killed on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(3, f"{' '.join(cmd[1:3])} exceeded its time budget "
                            f"of {timeout:.0f} s")
    return proc.returncode, out, err


class Runner:
    """Starts repetitions of one workload and keeps the run's deadline."""

    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = os.environ.copy()
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.workers = args.workers if args.workload == "search-parallel" else 1

    def rep(self, *flags) -> dict:
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload",
               self.args.workload, "--seed", str(self.args.seed),
               "--workers", str(self.workers), *flags]
        budget = min(REP_BUDGET_S[self.args.workload],
                     self.deadline - time.monotonic())
        if budget <= 0:
            raise BenchError(3, f"run exceeded its budget of {RUN_BUDGET_S} s")
        t_spawn = time.monotonic()
        code, out, err = run_process(cmd, self.root, self.env, budget)
        if code != 0:
            raise BenchError(3, f"repetition exited with {code}:\n{err}")
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(3, f"repetition printed no result:\n{out}\n{err}")
        result["setup_s"] = result["t_ready"] - t_spawn
        return result


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def answer_key(ans: dict):
    return (ans["name"], ans.get("rule"))


def expected_answers(workload: str, seed: int, workers: int, golden: dict):
    """[(key, check)] for one repetition, where check(answer) returns a list
    of problems.  Fixed inputs (the ROADMAP panel, the reproduce suite) and
    the default seed use the golden file."""
    recorded = {answer_key(a): a for a in golden["answers"][workload]}
    # Node counts depend on the chunking, so the pool's are recorded for the
    # default pool size only.
    skip = ("nodes",) if (workload == "search-parallel"
                          and workers != PARALLEL_WORKERS) else ()

    def from_golden(key):
        want = {k: v for k, v in recorded[key].items() if k not in skip}

        def check(ans):
            got = {k: v for k, v in ans.items() if k not in skip}
            return [] if got == want else [f"{key} differs from the golden {want}"]
        return check

    if workload == "reproduce" or seed == workloads.DEFAULT_SEED:
        return [(key, from_golden(key)) for key in recorded]
    if workload == "bounds-sweep":
        out = []
        for name, n, edges in workloads.sweep_graphs(seed):
            adj = oracle.adjacency(n, edges)
            out.append(((name, None), lambda ans, adj=adj, n=n, want=recorded[(name, None)]:
                        oracle.check_sweep_answer(adj, n, ans)
                        + invariant_problems(ans, want)))
        return out
    seeded = {name: (n, edges) for name, n, edges in workloads.search_seeded(seed)}
    out = []
    for key in recorded:
        name, rule = key
        if name not in seeded:
            out.append((key, from_golden(key)))
            continue
        n, edges = seeded[name]
        adj = oracle.adjacency(n, edges)
        out.append((key, lambda ans, adj=adj, n=n, rule=rule:
                    oracle.check_search_answer(adj, n, rule, ans["value"], ans["set"])))
    return out


def invariant_problems(ans: dict, recorded: dict) -> list[str]:
    """A seeded sweep graph relabels the golden graph of the same name, so
    its isomorphism invariants must match the golden answer's."""
    def invariants(a):
        return ([a.get(f) for f in ("z", "zplus", "p", "cc", "delta")]
                + [len(a[f]) if a.get(f) is not None else None
                   for f in ("os", "allmin")])

    if invariants(ans) != invariants(recorded):
        return [f"{ans['name']}: invariants {invariants(ans)} differ from the "
                f"golden {invariants(recorded)}"]
    return []


def check_reps(workload: str, seed: int, workers: int, reps, golden: dict):
    """(attempted, failed, problems) over every repetition's answers.  The
    first repetition is checked in full; later ones must repeat it exactly."""
    expected = expected_answers(workload, seed, workers, golden)
    first: dict = {}
    attempted = failed = 0
    problems: list[str] = []
    for i, rep in enumerate(reps):
        got = {answer_key(a): a for a in rep["answers"]}
        errors = {a["name"]: a["error"] for a in rep["answers"] if "error" in a}
        for key, check in expected:
            attempted += 1
            ans = got.get(key)
            if ans is None or "error" in ans:
                why = errors.get(key[0], "no answer")
                bad = [f"{key}: {why}"]
            elif i == 0:
                bad = check(ans)
                first[key] = (ans, bool(bad))
            else:
                ans0, bad0 = first.get(key, (None, True))
                bad = ([f"{key} changed between repetitions"] if ans != ans0
                       else ["repeats a failed answer"] if bad0 else [])
            if bad:
                failed += 1
                problems.extend(bad)
    return attempted, failed, problems


def check_kernel_gate(gate: dict, golden: dict) -> list[str]:
    problems = []
    if gate["cases"] != golden["kernel_cases"]:
        problems.append(f"kernel cases on {gate['backend']} differ from golden: "
                        f"{gate['cases']}")
    if gate["twin"] is not None and gate["twin"] != gate["cases"]:
        problems.append(f"compiled and pure kernels disagree: {gate['cases']} "
                        f"!= {gate['twin']}")
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reps, setups) -> dict:
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(r["wall_s"] for r in reps), "s"),
        "query_p50_ms": metric(statistics.median(
            statistics.median(r["latencies_s"]) * 1e3 for r in reps), "ms"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def p90_ms(reps):
    """Median over repetitions of the 90th-percentile query latency, where
    at least ten samples lie beyond it; otherwise None."""
    if min(len(r["latencies_s"]) for r in reps) < P90_MIN_SAMPLES:
        return None
    return statistics.median(
        statistics.quantiles(r["latencies_s"], n=10)[8] * 1e3 for r in reps)


def layer_values(rep: dict) -> dict:
    """Per-layer metric values of one traced repetition."""
    layers = rep["layers"]
    counters = rep["counters"]

    def row(name):
        return layers.get(name, [0, 0.0, 0.0])

    out = {}
    for name in LAYER_FUNCTIONS:
        calls, own, _ = row(name)
        out[f"{name}.calls"] = metric(calls, "count")
        out[f"{name}.self_s"] = metric(own, "s")
    lex_self = row("kernels.first_forcing_lex")[1]
    out["kernels.closures"] = metric(counters["closures"], "count")
    serial = rep["workload"] != "search-parallel"
    out["kernels.closures_per_s"] = metric(
        counters["lex_closures"] / lex_self if serial and lex_self else 0.0, "1/s")
    out["search.closures_per_subset"] = metric(
        counters["lex_closures"] / counters["lex_subsets"]
        if counters["lex_subsets"] else 0.0, "ratio")
    out["witness.self_s"] = metric(sum(row(n)[1] for n in WITNESS_SPANS), "s")
    for crit in REPRODUCE_CRITERIA:
        out[f"reproduce.{crit}.s"] = metric(row(f"reproduce.{crit}")[2], "s")
    out["reproduce.unspanned_s"] = metric(
        sum(row(f"reproduce.{crit}")[1] for crit in REPRODUCE_CRITERIA), "s")
    return out


def per_layer(traced, plain) -> dict:
    rows = [layer_values(r) for r in traced]
    out = {}
    for name, first in rows[0].items():
        # counts repeat exactly, so the median is one of them
        median = statistics.median_low if first["unit"] == "count" else statistics.median
        out[name] = metric(median(row[name]["value"] for row in rows), first["unit"])
    ratio = (statistics.median(r["wall_s"] for r in traced)
             / statistics.median(r["wall_s"] for r in plain))
    out["trace.overhead_ratio"] = metric(ratio, "ratio")
    return out


def git_sha(root: Path) -> str:
    """HEAD's commit from .git, read as files; 'unknown' outside a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------


def run(args) -> tuple[dict, int]:
    if not (ROOT / "src" / "zforce" / "__init__.py").is_file():
        raise BenchError(2, f"no zforce sources under {ROOT / 'src'}")
    golden = load_golden()
    build(ROOT)
    runner = Runner(ROOT, args)
    setups = [runner.rep("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]

    kinds = ((), ("--trace",)) if args.trace else ((),)
    min_reps = max(MIN_REPS, 2 * len(kinds))
    spans_path = ROOT / STATE / f"spans-{args.workload}.json"
    reps, durations = [], []
    start = time.monotonic()
    while True:
        flags = kinds[len(reps) % len(kinds)]
        if not reps:
            flags += ("--gate",)
        if "--trace" in flags:
            flags += ("--spans", str(spans_path))
        began = time.monotonic()
        result = runner.rep(*flags)
        durations.append(time.monotonic() - began)
        result["workload"] = args.workload
        result["traced"] = "--trace" in flags
        reps.append(result)
        # stop before a repetition that would end past the measuring time
        ends = time.monotonic() - start + statistics.median(durations)
        if len(reps) >= min_reps and ends > args.seconds:
            break

    attempted, failed, problems = check_reps(args.workload, args.seed, runner.workers,
                                             reps, golden)
    gate = check_kernel_gate(reps[0]["kernel_gate"], golden)
    attempted += len(golden["kernel_cases"])
    failed += len(gate)
    problems += gate

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    setups += [r["setup_s"] for r in reps]
    metrics = per_layer(traced, plain) if args.trace else end_to_end(plain, setups)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": reps[0]["backend"], "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(ROOT),
        "workers": runner.workers, "repetitions": len(plain),
        "traced_repetitions": len(traced), "setup_samples": len(setups),
        "queries_per_repetition": len(plain[0]["latencies_s"]),
        "query_p90_ms": p90_ms(plain), "failed_ratio": failed / attempted,
        "problems": problems[:20],
    }
    print(json.dumps({"meta": meta}))
    result = {"correct": not failed, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, code = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
