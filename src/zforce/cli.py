"""Command line front end.

Subcommands: param, bounds, os, witness, reproduce.  Vertices are printed
1-based to line up with the customary drawing labels; JSON output
additionally carries the 0-based ids.  Exit codes: 0 ok, 1 reproduction
failure, 2 bad input, 3 size-guard refusal, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os.path
import sys

from .bounds import bounds_report
from .forcing import certificate, derived_set
from .graph import (
    Graph,
    GraphError,
    InvariantViolation,
    ParseError,
    SizeLimitError,
    VertexSet,
    family,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from .search import (
    DEFAULT_ALL_MIN_LIMIT,
    DEFAULT_OS_LIMIT,
    DEFAULT_SEARCH_LIMIT,
    all_minimum_zfs,
    maximum_os_set,
    zero_forcing_number,
)
from .witness import (
    DegenerateParameters,
    WitnessError,
    build_h43_witness,
    build_tree_clique_witness,
    is_psd,
    numeric_rank,
    pattern_matches,
    rank_gap,
    singular_values,
    write_matrix,
)

EXIT_OK = 0
EXIT_REPRODUCE_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_SIZE_GUARD = 3
EXIT_INVARIANT = 4


def _add_input_args(p: argparse.ArgumentParser):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--g6", metavar="STR|FILE",
                     help="graph6 string, or a file whose first line is one")
    grp.add_argument("--edges", metavar="FILE",
                     help="edge list file, one 1-based 'u v' pair per line")
    grp.add_argument("--family", nargs="+", metavar=("NAME", "PARAM"),
                     help="family name plus integer parameters")


def _load_graph(args) -> Graph:
    if args.g6 is not None:
        text = args.g6
        if os.path.exists(text):
            with open(text) as fh:
                text = fh.readline()
        return parse_graph6(text)
    if args.edges is not None:
        with open(args.edges) as fh:
            return parse_edge_list(fh.read())
    name, *params = args.family
    return family(name, [int(p) for p in params])


def _one_based(vs: VertexSet) -> list[int]:
    return [v + 1 for v in vs]


def _set_text(vs: VertexSet) -> str:
    return "{" + ", ".join(str(v + 1) for v in vs) + "}"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="zforce")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("param", help="zero forcing number Z or Z+")
    _add_input_args(p)
    p.add_argument("--rule", choices=("standard", "psd"), default="standard")
    p.add_argument("--all-min", action="store_true",
                   help="enumerate all minimum forcing sets")
    p.add_argument("--certificate", action="store_true",
                   help="print the canonical force list of the optimum set")
    p.add_argument("--json", action="store_true")
    p.add_argument("--search-limit", type=int, default=None,
                   help=f"override the exact-search guard ({DEFAULT_SEARCH_LIMIT}; "
                        f"{DEFAULT_ALL_MIN_LIMIT} for --all-min)")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("bounds", help="path cover, clique cover, nullity bounds")
    _add_input_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--search-limit", type=int, default=DEFAULT_SEARCH_LIMIT)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("os", help="OS number and a maximum OS-set")
    _add_input_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--search-limit", type=int, default=DEFAULT_OS_LIMIT)

    p = sub.add_parser("witness", help="numeric matrix witnesses")
    wsub = p.add_subparsers(dest="witness_kind", required=True)
    tc = wsub.add_parser("tree-clique",
                         help="psd rank witness for (tree) x (complete graph)")
    tcg = tc.add_mutually_exclusive_group(required=True)
    tcg.add_argument("--tree", metavar="G6", help="tree as a graph6 string")
    tcg.add_argument("--tree-family", nargs="+", metavar=("NAME", "PARAM"))
    tc.add_argument("--r", type=int, required=True, help="clique size")
    tc.add_argument("--out", metavar="FILE", help="write the matrix here")
    tc.add_argument("--tol", type=float, default=1e-8)
    tc.add_argument("--json", action="store_true")
    h43 = wsub.add_parser("h43", help="complex rank-3 witness for the "
                                      "3-wheel with 4 hubs")
    h43.add_argument("--a15-6", type=complex, default=1.0)
    h43.add_argument("--a3-12", type=complex, default=1.0)
    h43.add_argument("--a3-14", type=complex, default=1.0)
    h43.add_argument("--root", default="omega",
                     help="omega, omega-bar, or real (rejected with a reason)")
    h43.add_argument("--out", metavar="FILE")
    h43.add_argument("--tol", type=float, default=1e-8)
    h43.add_argument("--json", action="store_true")

    p = sub.add_parser("reproduce", help="run the reproduction suite")
    p.add_argument("--only", action="append", metavar="NAME",
                   help="run only the named criteria (repeatable)")
    p.add_argument("--max-n", type=int, default=None,
                   help="cap the exhaustive sweeps at this order")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--list", action="store_true", help="list criterion names")
    return ap


def cmd_param(args) -> int:
    g = _load_graph(args)
    limit = args.search_limit if args.search_limit is not None else DEFAULT_SEARCH_LIMIT
    all_min_limit = (args.search_limit if args.search_limit is not None
                     else DEFAULT_ALL_MIN_LIMIT)
    res = zero_forcing_number(g, args.rule, limit=limit, workers=args.workers)
    sets = (all_minimum_zfs(g, args.rule, limit=all_min_limit)
            if args.all_min else list(res.sets))
    if args.json:
        payload = {
            "graph": g.name or write_graph6(g),
            "n": g.n,
            "rule": args.rule,
            "value": res.value,
            "sets": [_one_based(s) for s in sets],
            "sets_zero_based": [s.to_list() for s in sets],
            "nodes_explored": res.nodes_explored,
        }
        print(json.dumps(payload))
    else:
        label = "Z" if args.rule == "standard" else "Z+"
        print(f"{label} = {res.value}  (n = {g.n}, "
              f"{res.nodes_explored} closures)")
        for s in sets:
            print("  " + _set_text(s))
    if args.certificate:
        log = derived_set(g, sets[0], args.rule)
        print(certificate(log))
    return EXIT_OK


def cmd_bounds(args) -> int:
    g = _load_graph(args)
    report = bounds_report(g, search_limit=args.search_limit,
                           workers=args.workers)
    if args.json:
        print(json.dumps({"graph": g.name or write_graph6(g),
                          **report.to_dict()}))
    else:
        print(f"n = {report.n}")
        print(f"delta = {report.delta}")
        print(f"P (path cover) = {report.path_cover}")
        print(f"cc (edge clique cover) = {report.clique_cover}")
        print(f"Z = {report.z}")
        print(f"Z+ = {report.zplus}")
        print(f"OS = n - Z+ = {report.os}")
        print(f"n - cc = {report.lower_mplus} <= M+ <= {report.zplus}")
        for note in report.notes:
            print(f"note: {note}")
    return EXIT_OK


def cmd_os(args) -> int:
    g = _load_graph(args)
    best = maximum_os_set(g, limit=args.search_limit)
    value = len(best)
    if args.json:
        print(json.dumps({
            "graph": g.name or write_graph6(g),
            "n": g.n,
            "os": value,
            "order": [v + 1 for v in best.order],
            "witnesses": [w + 1 for w in best.witnesses],
            "order_zero_based": list(best.order),
        }))
    else:
        print(f"OS = {value}  (n = {g.n}, so Z+ = {g.n - value} by duality)")
        print("order:     " + " ".join(str(v + 1) for v in best.order))
        print("witnesses: " + " ".join(str(w + 1) for w in best.witnesses))
    return EXIT_OK


def cmd_witness(args) -> int:
    if args.witness_kind == "tree-clique":
        if args.tree is not None:
            t = parse_graph6(args.tree)
        else:
            name, *params = args.tree_family
            t = family(name, [int(p) for p in params])
        a = build_tree_clique_witness(t, args.r)
        from .graph import cartesian_product, complete_graph

        prod = cartesian_product(t, complete_graph(args.r))
        rank = numeric_rank(a, args.tol)
        stats = {
            "order": a.shape[0],
            "rank": rank,
            "nullity": a.shape[0] - rank,
            "psd": is_psd(a),
            "pattern_exact": bool(pattern_matches(a, prod)),
            "rank_gap": rank_gap(a, rank),
        }
    else:
        a = build_h43_witness(args.a15_6, args.a3_12, args.a3_14, args.root)
        s = singular_values(a)
        rank = numeric_rank(a, args.tol)
        stats = {
            "order": 8,
            "rank": rank,
            "nullity": 8 - rank,
            "rank_gap": rank_gap(a, rank),
            "sigma_max": float(s[0]),
        }
    if args.out:
        with open(args.out, "w") as fh:
            write_matrix(a, fh)
        stats["written_to"] = args.out
    if args.json:
        print(json.dumps(stats))
    else:
        for k, v in stats.items():
            print(f"{k}: {v}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    from .reproduce import CRITERIA, run_suite

    names = [name for name, _ in CRITERIA]
    if args.list:
        print("\n".join(names))
        return EXIT_OK
    if args.only:
        unknown = set(args.only) - set(names)
        if unknown:
            raise GraphError(f"unknown criteria: {sorted(unknown)}; "
                             f"known: {names}")
    results = run_suite(only=args.only, max_n=args.max_n,
                        workers=args.workers)
    for r in results:
        print(r.summary())
    failures = [r.name for r in results if not r.passed]
    if failures:
        print(f"FAILURES: {', '.join(failures)}")
        return EXIT_REPRODUCE_FAIL
    print(f"all {len(results)} criteria passed")
    return EXIT_OK


_COMMANDS = {
    "param": cmd_param,
    "bounds": cmd_bounds,
    "os": cmd_os,
    "witness": cmd_witness,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, DegenerateParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SizeLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (InvariantViolation, WitnessError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
