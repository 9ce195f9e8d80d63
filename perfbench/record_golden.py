#!/usr/bin/env python3
"""Record perfbench/golden.json from the current code, at the default seed.

    python3 perfbench/record_golden.py

Runs one repetition of every workload, checks every answer with the
unpruned oracle (the fixed panel included), and writes the file only when
all checks pass.  Re-record only when the benchmark's inputs change: the
program's outputs are meant never to change.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import oracle
import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
import rep  # noqa: E402  (imports zforce from the checkout)


def main() -> int:
    answers, problems, gate = {}, [], None
    panel = {name: (g.n, g.edges()) for name, g in rep.fixed_panel()}
    panel.update({name: (n, e) for name, n, e in
                  workloads.search_seeded(workloads.DEFAULT_SEED)})
    sweep = {name: (n, e) for name, n, e in
             workloads.sweep_graphs(workloads.DEFAULT_SEED)}
    run.build(run.ROOT)
    for workload in workloads.WORKLOADS:
        args = SimpleNamespace(workload=workload, seed=workloads.DEFAULT_SEED,
                               workers=run.PARALLEL_WORKERS)
        result = run.Runner(run.ROOT, args).rep("--gate")
        gate = result["kernel_gate"]
        answers[workload] = result["answers"]
        for ans in answers[workload]:
            if "error" in ans:
                problems.append(f"{workload} {ans['name']}: {ans['error']}")
            elif workload == "reproduce":
                if not ans["passed"]:
                    problems.append(f"criterion {ans['name']} failed")
            elif workload == "bounds-sweep":
                n, edges = sweep[ans["name"]]
                problems += oracle.check_sweep_answer(
                    oracle.adjacency(n, edges), n, ans)
            else:
                n, edges = panel[ans["name"]]
                problems += oracle.check_search_answer(
                    oracle.adjacency(n, edges), n, ans["rule"], ans["value"],
                    ans["set"])
        print(f"{workload}: {len(answers[workload])} answers checked", flush=True)
    if gate["twin"] is not None and gate["twin"] != gate["cases"]:
        problems.append("compiled and pure kernels disagree")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(run.GOLDEN, "w") as fh:
        json.dump({"kernel_cases": gate["cases"], "answers": answers}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
