"""Reproduction suite: every headline value and theorem-level consequence
checked by this package, with expected numbers frozen inline.

Each criterion returns a CriterionResult; the CLI `zforce reproduce` and
tests/test_acceptance.py both drive this module.  Exhaustive sweeps over
small connected graphs and trees read the graph6 tables of _small_graphs
(every connected isomorphism class up to order 7, every tree up to order
10); parameters being isomorphism invariants, one representative per class
covers all graphs of that order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

from ._small_graphs import CONNECTED_ATLAS, TREES
from .bounds import bounds_report, path_cover_number
from .forcing import derived_set, is_forcing_set, reversal
from .graph import Graph, InvariantViolation, cartesian_product, family, parse_graph6
from .search import (all_minimum_zfs, maximum_os_set, min_zfs_intersection,
                     zero_forcing_number)
from .witness import (
    OMEGA,
    build_h43_witness,
    build_tree_clique_witness,
    is_psd,
    numeric_rank,
    rank_gap,
    rowspace_residual,
    singular_values,
    sticky_equation_residual,
)

RANDOM_SEED = 84520  # fixed so the sampled-graph criteria are reproducible


@dataclass
class CriterionResult:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = "; ".join(self.lines)
        return f"{status} {self.name}: {body}"


def _result(name: str, checks: list[tuple[bool, str]]) -> CriterionResult:
    passed = all(ok for ok, _ in checks)
    lines = [msg for ok, msg in checks if not ok] or [msg for _, msg in checks]
    return CriterionResult(name, passed, lines)


# ---------------------------------------------------------------------------
# graph enumeration helpers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _connected_atlas() -> tuple[Graph, ...]:
    """The connected graphs of the graph atlas (orders 1..7), in atlas order.

    Parsed on first use from the graph6 table CONNECTED_ATLAS, recorded from
    networkx 3.x's `graph_atlas_g`; test_tables_match_networkx in
    tests/test_reproduce.py re-derives it.
    """
    return tuple(map(parse_graph6, CONNECTED_ATLAS.split()))


def connected_graphs_upto(max_n: int) -> list[Graph]:
    """All connected graphs with 1 <= n <= max_n, one per isomorphism class."""
    if max_n > 7:
        raise ValueError("the atlas covers orders up to 7")
    return [g for g in _connected_atlas() if g.n <= max_n]


def all_trees_upto(max_n: int) -> list[Graph]:
    """All trees with 1 <= n <= max_n, one per isomorphism class.

    Orders 3..10 come from the graph6 table TREES, recorded from networkx
    3.x's `nonisomorphic_trees`; test_tables_match_networkx in
    tests/test_reproduce.py re-derives it.
    """
    if max_n > 10:
        raise ValueError("the tree table covers orders up to 10")
    out = [family("complete", [1]), family("path", [2])][:max(max_n, 0)]
    return out + [t for t in map(parse_graph6, TREES.split()) if t.n <= max_n]


def pruefer_trees(n: int) -> list[Graph]:
    """Every labeled tree on n >= 3 vertices, by exhausting Pruefer sequences."""
    return [
        family("tree_from_pruefer", seq)
        for seq in product(range(n), repeat=n - 2)
    ]


def random_connected_graphs(count: int, orders):
    rng = random.Random(RANDOM_SEED)
    out = []
    while len(out) < count:
        n = orders[len(out) % len(orders)]
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            out.append(g)
    return out


def _random_panel(max_n) -> list[Graph]:
    """200 random connected graphs, of orders 7 and 8 in turn, up to max_n."""
    orders = [n for n in (7, 8) if n <= max_n]
    return random_connected_graphs(200, orders) if orders else []


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_pinwheel(max_n=None) -> CriterionResult:
    r = bounds_report(family("pinwheel12"))
    checks = [
        (r.z == 4, f"Z expected 4, computed {r.z}"),
        (r.zplus == 3, f"Z+ expected 3, computed {r.zplus}"),
        (r.path_cover == 3, f"P expected 3, computed {r.path_cover}"),
        (r.clique_cover == 9, f"cc expected 9, computed {r.clique_cover}"),
    ]
    return _result("pinwheel", checks)


def criterion_trees(max_n=math.inf) -> CriterionResult:
    hi = min(max_n, 10)
    trees = all_trees_upto(hi)
    for n in range(3, min(hi, 6) + 1):  # labeled exhaustion where it is cheap
        trees.extend(pruefer_trees(n))
    bad_zp = bad_pz = 0
    for t in trees:
        if zero_forcing_number(t, "psd").value != 1:
            bad_zp += 1
        if path_cover_number(t).number != zero_forcing_number(t, "standard").value:
            bad_pz += 1
    checks = [
        (bad_zp == 0, f"Z+ = 1 on all {len(trees)} trees (n <= {hi}); "
                      f"{bad_zp} violations"),
        (bad_pz == 0, f"P = Z on all {len(trees)} trees; {bad_pz} violations"),
    ]
    return _result("trees", checks)


def criterion_duality(max_n=math.inf) -> CriterionResult:
    hi = min(max_n, 6)
    graphs = connected_graphs_upto(hi)
    exhaustive = len(graphs)
    graphs += _random_panel(max_n)
    sampled = len(graphs) - exhaustive
    bad = 0
    for g in graphs:
        if len(maximum_os_set(g)) + zero_forcing_number(g, "psd").value != g.n:
            bad += 1
    checks = [
        (bad == 0, f"OS + Z+ = n on {exhaustive} connected classes (n <= "
                   f"{hi}) and {sampled} random graphs; {bad} violations"),
    ]
    return _result("duality", checks)


def criterion_reversal(max_n=math.inf) -> CriterionResult:
    hi = min(max_n, 7)
    tested = bad = 0
    for g in connected_graphs_upto(hi):
        for s in all_minimum_zfs(g, "standard"):
            tested += 1
            log = derived_set(g, s, "standard")
            if not is_forcing_set(g, reversal(log), "standard"):
                bad += 1
    checks = [
        (bad == 0, f"reversal of {tested} minimum-set logs (n <= {hi}) is "
                   f"again forcing; {bad} failures"),
    ]
    return _result("reversal", checks)


def criterion_intersection(max_n=math.inf) -> CriterionResult:
    """min_zfs_intersection is empty, and minimum-set vertices keep an outside neighbor."""
    hi = min(max_n, 7)
    graphs = [g for g in connected_graphs_upto(hi) if g.n >= 2]
    bad_int = bad_nbr = 0
    for g in graphs:
        if min_zfs_intersection(g):
            bad_int += 1
        for s in all_minimum_zfs(g, "standard"):
            for z in s:
                if g.adj[z] & ~s.mask == 0:
                    bad_nbr += 1
    checks = [
        (bad_int == 0, f"empty minimum-set intersection on all "
                       f"{len(graphs)} connected classes, 2 <= n <= {hi}; "
                       f"{bad_int} violations"),
        (bad_nbr == 0, f"every minimum-set vertex keeps an outside neighbor; "
                       f"{bad_nbr} violations"),
    ]
    return _result("intersection", checks)


def criterion_sandwich(max_n=math.inf) -> CriterionResult:
    graphs = connected_graphs_upto(min(max_n, 7)) + _random_panel(max_n)
    bad = 0
    for g in graphs:
        try:  # checks the chain and the cover witnesses
            bounds_report(g)
        except InvariantViolation:
            bad += 1
    checks = [
        (bad == 0, f"delta <= Z+ <= Z, P <= Z, n - cc <= Z+ on "
                   f"{len(graphs)} graphs; {bad} violations"),
    ]
    return _result("sandwich", checks)


def criterion_mobius(max_n=None) -> CriterionResult:
    report = bounds_report(family("mobius_ladder", [8]))
    note = next((s for s in report.notes if "hM+" in s), "")
    checks = [
        (report.zplus == 4, f"Z+(ML8) expected 4, computed {report.zplus}"),
        ("hM+ = 3" in note and ">" in note,
         f"report records the literature gap Z+ > hM+ = 3: {note!r}"),
    ]
    return _result("mobius", checks)


def criterion_books(max_n=None) -> CriterionResult:
    bad = []
    for m in (2, 3, 4):
        for t in (3, 4, 5):
            zp = zero_forcing_number(family("book", [m, t]), "psd").value
            if zp != 2:
                bad.append((m, t, zp))
    checks = [
        (not bad, f"Z+ = 2 on all 9 generalized books (m in 2..4, t in 3..5); "
                  f"violations: {bad}"),
    ]
    return _result("books", checks)


TREE_CLIQUE_CASES = (
    ("path", [2], 2),
    ("path", [2], 3),
    ("path", [3], 2),
    ("star", [3], 2),
)


def criterion_tree_clique(max_n=None) -> CriterionResult:
    checks = []
    for name, params, r in TREE_CLIQUE_CASES:
        t = family(name, params)
        prod = cartesian_product(t, family("complete", [r]))
        zp = zero_forcing_number(prod, "psd").value
        a = build_tree_clique_witness(t, r)  # raises unless the support is T x K_r
        nullity = a.shape[0] - numeric_rank(a)
        gap = rank_gap(a, a.shape[0] - r)
        ok = (
            zp == r
            and (a == a.T).all()
            and is_psd(a)
            and nullity == r
            and gap >= 1e4
        )
        checks.append(
            (ok, f"{t.name} x K{r}: Z+ = {zp} (want {r}), nullity {nullity}, "
                 f"psd/pattern ok, gap {gap:.1e}")
        )
    return _result("tree-clique", checks)


PRODUCT_BOUND_FACTORS = (
    ("path", [2]), ("path", [3]), ("complete", [3]), ("cycle", [4]),
    ("cycle", [5]),
)


def criterion_product_bound(max_n=None) -> CriterionResult:
    bad = []
    tested = 0
    for (na, pa), (nb, pb) in combinations_with_replacement(
        PRODUCT_BOUND_FACTORS, 2
    ):
        g, h = family(na, pa), family(nb, pb)
        if g.n * h.n > 20:
            continue
        tested += 1
        prod = cartesian_product(g, h)
        zp = zero_forcing_number(prod, "psd").value
        bound = min(
            zero_forcing_number(g, "psd").value * h.n,
            zero_forcing_number(h, "psd").value * g.n,
        )
        if zp > bound:
            bad.append((g.name, h.name, zp, bound))
    checks = [
        (not bad, f"Z+(G x H) <= min(Z+(G)|H|, Z+(H)|G|) on {tested} products "
                  f"of order <= 20; violations: {bad}"),
    ]
    return _result("product-bound", checks)


def criterion_h43(max_n=None) -> CriterionResult:
    checks = []
    for root in ("omega", "omega-bar"):
        a = build_h43_witness(root=root)  # raises unless the support is H43_SUPPORT
        s = singular_values(a)
        small_ok = bool((s[3:] < 1e-8 * s[0]).all())
        large_ok = bool((s[:3] > 1e-4 * s[0]).all())
        resid = rowspace_residual(a, 3)
        checks.append(
            (small_ok and large_ok and resid < 1e-8,
             f"{root}: rank 3 (five svals < 1e-8*smax and three > 1e-4*smax: "
             f"{small_ok and large_ok}), pattern True, "
             f"rows 4-8 residual {resid:.2e}")
        )
    r_omega = abs(sticky_equation_residual(OMEGA))
    real_min = sticky_equation_residual(-0.5)
    checks.append((r_omega < 1e-12, f"residual at primitive root: {r_omega:.2e}"))
    checks.append(
        (real_min == 0.75, f"real minimum of 1 + x + x^2 is exactly {real_min}")
    )
    rejected = False
    try:
        build_h43_witness(root="real")
    except ValueError:
        rejected = True
    checks.append((rejected, "real root request rejected"))
    checks.append(
        (True, "note: the real rank-4 lower bound is a published result "
               "outside this suite's scope")
    )
    return _result("h43", checks)


CRITERIA = (
    ("pinwheel", criterion_pinwheel),
    ("trees", criterion_trees),
    ("duality", criterion_duality),
    ("reversal", criterion_reversal),
    ("intersection", criterion_intersection),
    ("sandwich", criterion_sandwich),
    ("mobius", criterion_mobius),
    ("books", criterion_books),
    ("tree-clique", criterion_tree_clique),
    ("product-bound", criterion_product_bound),
    ("h43", criterion_h43),
)


def run_suite(only=None, max_n=math.inf):
    """Run all (or the named) criteria; returns the list of results.

    max_n caps every exhaustive sweep at that order (at least 1); each sweep
    also stops at its own largest order.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    return [fn(max_n=max_n) for name, fn in CRITERIA if not only or name in only]
