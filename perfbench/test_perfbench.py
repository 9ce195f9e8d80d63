"""Tests of the benchmark's own logic; none of them runs a workload.

    python3 -m pytest perfbench/test_perfbench.py
"""

import copy
import json
import re
import sys
import time
from itertools import combinations

import pytest

import oracle
import run
import spans
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def golden():
    return run.load_golden()


@pytest.fixture(scope="module")
def spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# self time


def test_self_times_subtract_direct_children_only():
    # root 0..10 holds a 2..6 holding 3..4, and b 7..9
    recorded = [
        ("root", 0.0, 10.0, -1),
        ("a", 2.0, 6.0, 0),
        ("a.inner", 3.0, 4.0, 1),
        ("b", 7.0, 9.0, 0),
    ]
    assert spans.self_times(recorded) == [4.0, 3.0, 1.0, 2.0]


def test_tracer_records_nesting_and_sums_self_time():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"] and parents == [-1, 0, 0]
    summary = tracer.summary()
    assert summary["inner"][0] == 2 and summary["outer"][0] == 1
    total_outer = summary["outer"][2]
    assert summary["outer"][1] == pytest.approx(total_outer - summary["inner"][2])


def test_tracer_records_a_span_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0][0] == "boom" and tracer._stack == []


@pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 1), (4, 4)])
def test_lex_rank_matches_enumeration_order(n, k):
    for i, combo in enumerate(combinations(range(n), k)):
        assert spans.lex_rank(n, combo) == i


def test_lex_counters_from_a_kernel_result():
    tracer = spans.Tracer()
    # the hit at {0, 2} is the 2nd 2-subset of 4, after {0, 1}
    tracer._first_forcing(([0] * 4, 4, 2, "standard"), {}, (0b101, 1))
    # a chunk of 3 subsets starting at {1, 2} with no hit
    tracer._first_forcing(([0] * 4, 4, 2, "standard", (1, 2), 3), {}, (None, 2))
    assert (tracer.closures, tracer.lex_closures, tracer.lex_subsets) == (3, 3, 5)


# ---------------------------------------------------------------------------
# metric names


def test_benchmark_json_names_and_units(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in workloads.WORKLOADS if w not in workloads.UNLISTED]


def _fake_rep(workload):
    return {
        "workload": workload, "wall_s": 1.0, "latencies_s": [0.1, 0.2],
        "peak_rss_mb": 30.0, "counters": {"closures": 7, "lex_closures": 5,
                                           "lex_subsets": 10},
        "layers": {"kernels.first_forcing_lex": [2, 0.5, 0.5]},
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reported_metrics_match_benchmark_json(spec, workload):
    rep = _fake_rep(workload)
    e2e = run.end_to_end([rep], [0.2])
    layers = run.per_layer([rep], [rep])
    for reported, listed in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert set(reported) == {m["name"] for m in listed}
        for m in listed:
            assert reported[m["name"]]["unit"] == m["unit"]


def test_closure_rate_is_left_out_where_the_pool_runs_the_kernels():
    assert run.layer_values(_fake_rep("search-hard"))[
        "kernels.closures_per_s"]["value"] == 10.0
    assert run.layer_values(_fake_rep("search-parallel"))[
        "kernels.closures_per_s"]["value"] == 0.0


# ---------------------------------------------------------------------------
# correctness gate


def test_oracle_rejects_wrong_search_answers():
    path5 = oracle.adjacency(5, [(i, i + 1) for i in range(4)])
    assert oracle.check_search_answer(path5, 5, "standard", 1, [0]) == []
    assert oracle.check_search_answer(path5, 5, "standard", 1, [2])  # no force
    assert oracle.check_search_answer(path5, 5, "standard", 2, [0, 1])  # not min
    c4 = oracle.adjacency(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert oracle.check_search_answer(c4, 4, "standard", 2, [0, 1]) == []
    assert oracle.check_search_answer(c4, 4, "standard", 2, [0, 3])  # not lex-first


def test_oracle_psd_rule_differs_from_standard_on_a_star():
    star = oracle.adjacency(4, [(0, 1), (0, 2), (0, 3)])
    assert oracle.forcing_number(star, 4, "psd") == 1
    assert oracle.forcing_number(star, 4, "standard") == 2


def _golden_reps(golden, workload):
    return [{"answers": copy.deepcopy(golden["answers"][workload])}]


def test_gate_passes_the_golden_answers(golden):
    for workload in ("search-hard", "bounds-sweep"):
        reps = _golden_reps(golden, workload)
        attempted, failed, problems = run.check_reps(
            workload, workloads.DEFAULT_SEED, 1, reps, golden)
        assert failed == 0 and attempted == len(reps[0]["answers"]), problems


def test_gate_catches_a_wrong_search_answer_at_the_default_seed(golden):
    reps = _golden_reps(golden, "search-hard")
    reps[0]["answers"][-1]["set"][-1] += 1
    _, failed, problems = run.check_reps(
        "search-hard", workloads.DEFAULT_SEED, 1, reps, golden)
    assert failed == 1 and "G18" in problems[0]


def test_gate_catches_a_changed_node_count_on_the_fixed_panel(golden):
    reps = _golden_reps(golden, "search-hard")
    reps[0]["answers"][0]["nodes"] += 1
    _, _, problems = run.check_reps("search-hard", 7, 1, reps, golden)
    assert any("pinwheel12" in p for p in problems)


def test_gate_checks_a_seeded_sweep_with_oracle_and_invariants(golden):
    reps = _golden_reps(golden, "bounds-sweep")  # answers for other labels
    attempted, failed, problems = run.check_reps("bounds-sweep", 7, 1, reps, golden)
    assert attempted == len(reps[0]["answers"]) and failed >= 1
    assert not any("invariants" in p for p in problems)


def test_gate_checks_later_repetitions_against_the_first(golden):
    reps = _golden_reps(golden, "search-hard") * 2
    reps[1] = copy.deepcopy(reps[1])
    reps[1]["answers"][0]["value"] += 1
    attempted, failed, _ = run.check_reps(
        "search-hard", workloads.DEFAULT_SEED, 1, reps, golden)
    assert attempted == 2 * len(reps[0]["answers"]) and failed == 1


def test_gate_counts_an_error_and_a_missing_answer(golden):
    reps = _golden_reps(golden, "search-hard")
    reps[0]["answers"][:2] = [{"name": "pinwheel12", "error": "boom"}]
    _, failed, problems = run.check_reps(
        "search-hard", workloads.DEFAULT_SEED, 1, reps, golden)
    assert failed == 2 and "boom" in problems[0]


def test_oracle_catches_a_wrong_sweep_answer(golden):
    ans = next(a for a in golden["answers"]["bounds-sweep"] if a["os"] is not None)
    name, n, edges = next(g for g in workloads.sweep_graphs(workloads.DEFAULT_SEED)
                          if g[0] == ans["name"])
    adj = oracle.adjacency(n, edges)
    assert oracle.check_sweep_answer(adj, n, ans) == []
    for field in ("z", "zplus"):
        wrong = dict(ans, **{field: ans[field] + 1})
        assert oracle.check_sweep_answer(adj, n, wrong), field
    for field in ("p", "cc"):  # only bounded by the oracle; exact by invariance
        wrong = dict(ans, **{field: ans[field] + 1})
        assert run.invariant_problems(wrong, ans), field
    wrong = dict(ans, os=[ans["os"][0], ans["os"][1][::-1]])
    if wrong["os"] != ans["os"]:
        assert oracle.check_sweep_answer(adj, n, wrong)
    wrong = dict(ans, allmin=ans["allmin"][1:] or [[0]])
    assert oracle.check_sweep_answer(adj, n, wrong)


def test_reproduce_gate_counts_failed_criteria(golden):
    reps = [{"answers": [{"name": c, "passed": c != "trees"}
                         for c in run.REPRODUCE_CRITERIA]}]
    attempted, failed, _ = run.check_reps("reproduce", 5, 1, reps, golden)
    assert (attempted, failed) == (11, 1)


def test_layer_names_cover_the_recorded_criteria(golden):
    recorded = tuple(a["name"] for a in golden["answers"]["reproduce"])
    assert recorded == run.REPRODUCE_CRITERIA


def test_kernel_gate_demands_agreement_of_the_twin(golden):
    cases = copy.deepcopy(golden["kernel_cases"])
    gate = {"backend": "compiled", "cases": cases, "twin": copy.deepcopy(cases)}
    assert run.check_kernel_gate(gate, golden) == []
    gate["twin"]["Z(ML12) full search"][2] += 1
    assert run.check_kernel_gate(gate, golden)


# ---------------------------------------------------------------------------
# inputs and their bounds


def test_clamp_workers_is_bounded_by_the_cpu_count():
    assert run.clamp_workers(2, 8) == 2
    assert run.clamp_workers(10_000, 2) == 2
    assert run.clamp_workers(3, None) == 1
    for bad in (0, -1):
        with pytest.raises(ValueError):
            run.clamp_workers(bad, 2)


@pytest.mark.parametrize("bad", [-1, 2**63, "3", 1.5, True])
def test_seed_validation(bad):
    with pytest.raises(ValueError):
        workloads.validate_seed(bad)


@pytest.mark.parametrize("argv", [
    ["--workload", "nope"],
    ["--workload", "reproduce", "--seed", "-4"],
    ["--workload", "reproduce", "--workers", "0"],
    ["--workload", "reproduce", "--seconds", "0"],
    ["--workload", "reproduce", "--trace", "2"],
])
def test_bad_arguments_exit_with_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        run.parse_args(argv)
    assert exc.value.code == 2


def test_inputs_are_a_function_of_the_seed():
    assert workloads.sweep_graphs(5) == workloads.sweep_graphs(5)
    assert workloads.sweep_graphs(5) != workloads.sweep_graphs(6)
    assert workloads.search_seeded(5) != workloads.search_seeded(6)
    for _, n, edges in workloads.sweep_graphs(5):
        assert workloads.SWEEP_ORDERS[0] <= n <= workloads.SWEEP_ORDERS[1]
        assert len(edges) <= workloads.SWEEP_MAX_EDGES
        assert workloads.connected(n, edges)


def test_relabelling_keeps_the_search_classes():
    for (name, n, base), (_, _, seeded) in zip(workloads.search_classes(),
                                              workloads.search_seeded(9)):
        degrees = sorted(oracle.adjacency(n, base)[v].bit_count() for v in range(n))
        assert degrees == sorted(
            oracle.adjacency(n, seeded)[v].bit_count() for v in range(n)), name
        assert len(base) == len(seeded)


def test_a_repetition_past_its_budget_is_killed_with_a_clean_error(tmp_path):
    cmd = [sys.executable, "-c", "import time; time.sleep(30)"]
    started = time.monotonic()
    with pytest.raises(run.BenchError) as exc:
        run.run_process(cmd, tmp_path, {}, 0.5)
    assert exc.value.code == 3 and time.monotonic() - started < 10
