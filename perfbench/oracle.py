"""Unpruned reference checks for the benchmark's answers.

Written without zforce, so that a defect shared by the program's kernels
and its search cannot hide here.  Every function works on a plain bitmask
adjacency list built from an edge list.
"""

from __future__ import annotations

from itertools import combinations


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _members(mask: int):
    v = 0
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


def _white_components(adj, white: int) -> list[int]:
    comps = []
    rest = white
    while rest:
        comp = rest & -rest
        grew = True
        while grew:
            reach = comp
            for v in _members(comp):
                reach |= adj[v] & white
            grew = reach != comp
            comp = reach
        comps.append(comp)
        rest &= ~comp
    return comps


def closure(adj, n: int, black: int, rule: str) -> int:
    """Derived set of `black`, applying every valid force in each round."""
    full = (1 << n) - 1
    while black != full:
        white = full & ~black
        parts = _white_components(adj, white) if rule == "psd" else [white]
        newly = 0
        for u in _members(black):
            for part in parts:
                t = adj[u] & part
                if t and t & (t - 1) == 0:
                    newly |= t
        if not newly:
            break
        black |= newly
    return black


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def forces(adj, n: int, vertices, rule: str) -> bool:
    return closure(adj, n, mask_of(vertices), rule) == (1 << n) - 1


def check_search_answer(adj, n: int, rule: str, value: int, vertices) -> list[str]:
    """Problems with the claim that `vertices` is the lexicographically first
    minimum forcing set and `value` the forcing number, by full enumeration."""
    chosen = tuple(sorted(vertices))
    if len(chosen) != value or len(set(chosen)) != value:
        return [f"set {list(chosen)} does not have the claimed size {value}"]
    if any(not 0 <= v < n for v in chosen):
        return [f"set {list(chosen)} has a vertex outside 0..{n - 1}"]
    if not forces(adj, n, chosen, rule):
        return [f"set {list(chosen)} does not force under the {rule} rule"]
    if value > 1:
        for c in combinations(range(n), value - 1):
            if forces(adj, n, c, rule):
                return [f"{list(c)} forces with {value - 1} vertices"]
    for c in combinations(range(n), value):
        if c == chosen:
            break
        if forces(adj, n, c, rule):
            return [f"{list(c)} forces and comes before {list(chosen)}"]
    return []


def forcing_number(adj, n: int, rule: str) -> int:
    for k in range(n + 1):
        if any(forces(adj, n, c, rule) for c in combinations(range(n), k)):
            return k
    raise AssertionError("V is always a forcing set")


def all_forcing_sets(adj, n: int, k: int, rule: str) -> list[list[int]]:
    return [list(c) for c in combinations(range(n), k) if forces(adj, n, c, rule)]


def canonical_log(adj, n: int, initial, rule: str = "standard") -> list[list[int]]:
    """Standard-rule forces one at a time: smallest forcer, its only white
    neighbour, until no force applies."""
    if rule != "standard":
        raise ValueError("only the standard rule log is checked")
    black = mask_of(initial)
    log = []
    while True:
        for u in _members(black):
            t = adj[u] & ~black & ((1 << n) - 1)
            if t and t & (t - 1) == 0:
                w = t.bit_length() - 1
                log.append([u, w])
                black |= t
                break
        else:
            return log


def chain_ends(initial, log) -> list[int]:
    step = {u: w for u, w in log}
    ends = []
    for z in initial:
        while z in step:
            z = step[z]
        ends.append(z)
    return sorted(ends)


def os_problem(adj, n: int, order, witnesses) -> str | None:
    """Why (order, witnesses) is not an OS-set, or None when it is one."""
    if len(order) != len(witnesses) or len(set(order)) != len(order):
        return "order and witnesses do not pair up distinct vertices"
    placed = 0
    for v, w in zip(order, witnesses):
        if not (0 <= v < n and 0 <= w < n):
            return "vertex outside the graph"
        placed |= 1 << v
        if placed >> w & 1 or not adj[w] >> v & 1:
            return f"witness {w} of {v} is placed or not adjacent"
        comp = next(c for c in _white_components(adj, placed) if c >> v & 1)
        if adj[w] & comp & ~(1 << v):
            return f"witness {w} sees more of the component of {v}"
    return None


def check_sweep_answer(adj, n: int, ans: dict) -> list[str]:
    """Unpruned checks of one bounds-sweep answer."""
    problems = []
    z, zp = ans["z"], ans["zplus"]
    for rule, value in (("standard", z), ("psd", zp)):
        if forcing_number(adj, n, rule) != value:
            problems.append(f"{rule} forcing number is not {value}")
    delta = min(a.bit_count() for a in adj)
    if ans["delta"] != delta:
        problems.append(f"delta {ans['delta']} differs from {delta}")
    if not (delta <= zp <= z and ans["p"] <= z and n - ans["cc"] <= zp):
        problems.append("bound chain delta <= Z+ <= Z, P <= Z, n - cc <= Z+ fails")
    if ans.get("os") is not None:
        order, wits = ans["os"]
        why = os_problem(adj, n, order, wits)
        if why:
            problems.append(f"OS-set invalid: {why}")
        if len(order) + zp != n:
            problems.append(f"OS + Z+ = {len(order) + zp} differs from n = {n}")
    if ans.get("allmin") is not None:
        if ans["allmin"] != all_forcing_sets(adj, n, z, "standard"):
            problems.append("minimum forcing sets differ from full enumeration")
        first = ans["allmin"][0] if ans["allmin"] else []
        log = canonical_log(adj, n, first)
        if ans["log"] != log:
            problems.append("force log differs from the canonical log")
        ends = chain_ends(first, log)
        if ans["reversal"] != ends or not forces(adj, n, ends, "standard"):
            problems.append("reversal differs from the chain ends or fails to force")
    return problems
