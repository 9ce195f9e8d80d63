"""Color change rules: derived sets, canonical force logs, chains, reversals.

Two rules are supported.  Under "psd", forcing is evaluated per connected
component of the white subgraph: u forces w when w is u's only white
neighbor inside W_i united with the black set, for the component W_i
containing w.  "standard" is the same rule with one component, the whole
white set: a black vertex u forces its unique white neighbor.

The derived set is a unique fixpoint independent of force order; the
logged order is made canonical (smallest forcer, then smallest target,
components recomputed after every single force) so logs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .graph import Graph, GraphError, VertexSet, _check_order, component_mask

RULES = ("standard", "psd")


def _check_rule(rule: str):
    if rule not in RULES:
        raise GraphError(f"unknown rule {rule!r}; expected one of {RULES}")


@dataclass(frozen=True)
class Force:
    """One application of the log's color change rule: forcer -> forced."""

    forcer: int
    forced: int
    component: VertexSet | None = None  # white component of `forced`, psd only


@dataclass(frozen=True)
class ForceLog:
    """Canonical forces from `initial`; a force's step is its 1-based position."""

    initial: VertexSet
    rule: str
    forces: tuple[Force, ...]
    derived: VertexSet

    def is_complete(self) -> bool:
        return self.derived.mask == (1 << self.derived.n) - 1


def derived_set(g: Graph, initial: VertexSet, rule: str = "standard") -> ForceLog:
    """Run the rule to its fixpoint, recording the canonical force list."""
    _check_rule(rule)
    _check_order(g, initial)
    black = initial.mask
    full = (1 << g.n) - 1
    forces = []
    while black != full:
        hit = _first_force(g, black, rule)
        if hit is None:
            break
        u, w, comp = hit
        forces.append(Force(u, w, VertexSet(g.n, comp) if rule == "psd" else None))
        black |= 1 << w
    return ForceLog(initial, rule, tuple(forces), VertexSet(g.n, black))


def _first_force(g: Graph, black: int, rule: str):
    """Smallest (forcer, target, target's component) valid force, or None
    at the fixpoint.  w is a valid target of u when it is the only bit of
    t = N(u) & white in its component, so trying t's bits in ascending
    order, one per component, meets u's smallest valid target first."""
    white = ((1 << g.n) - 1) & ~black
    psd = rule == "psd"
    m = black
    while m:
        u = (m & -m).bit_length() - 1
        m &= m - 1
        t = s = g.adj[u] & white
        while s:
            low = s & -s
            comp = component_mask(g.adj, white, low.bit_length() - 1) if psd else white
            if t & comp == low:
                return u, low.bit_length() - 1, comp
            s &= ~comp
    return None


def is_forcing_set(g: Graph, s: VertexSet, rule: str = "standard") -> bool:
    _check_rule(rule)
    _check_order(g, s)
    return kernels.closure(g.adj, g.n, s.mask, rule) == (1 << g.n) - 1


def chains(log: ForceLog) -> tuple[tuple[int, ...], ...]:
    """Maximal forcing chains of a complete standard-rule log, one tuple per
    initial vertex in ascending order, from that vertex to the chain's end.
    Together they partition the vertex set.

    The log is checked in one pass over its forces before any chain is
    walked.  Refused with GraphError: a psd or incomplete log, a vertex
    outside 0..n-1, a forcer that is not black at its step, a vertex that
    forces twice, a vertex that is initial or forced twice, and a vertex
    that is neither initial nor forced.
    """
    _forcers(log)
    succ = {f.forcer: f.forced for f in log.forces}
    out = []
    for z in sorted(log.initial):
        chain = [z]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        out.append(tuple(chain))
    return tuple(out)


def reversal(log: ForceLog) -> VertexSet:
    """Set of last vertices of the maximal chains; same size as the initial set.

    A chain ends at its one vertex that never forces, so the ends are the
    vertices outside the log's forcers, read off the same checking pass as
    `chains` and refused for the same faults.
    """
    return VertexSet(log.derived.n, log.derived.mask & ~_forcers(log))


def _forcers(log: ForceLog) -> int:
    """Mask of the forcers of a log that passes `chains`' checks.  In such a
    log each vertex turns black once and forces at most once, after it
    turned black, so the forces from the initial vertices reach every vertex
    once, without a cycle."""
    if log.rule != "standard":
        raise GraphError("forcing chains are defined for the standard rule only")
    if not log.is_complete():
        raise GraphError("forcing chains require a complete log (derived = V)")
    n = log.derived.n
    black, forcers = log.initial.mask, 0
    if black >> n:
        raise GraphError(f"corrupt log: initial vertex {black.bit_length() - 1} "
                         f"leaves 0..{n - 1}")
    for f in log.forces:
        u, w = f.forcer, f.forced
        if not (0 <= u < n and 0 <= w < n):
            raise GraphError(f"corrupt log: force {u} -> {w} leaves 0..{n - 1}")
        if not (black >> u) & 1:
            raise GraphError(f"corrupt log: vertex {u} forces before it is black")
        if (forcers >> u) & 1:
            raise GraphError("corrupt log: a vertex forces twice")
        if (black >> w) & 1:
            raise GraphError(f"corrupt log: vertex {w} is initial or forced twice")
        forcers |= 1 << u
        black |= 1 << w
    if black != log.derived.mask:
        missing = log.derived.mask & ~black
        missing = (missing & -missing).bit_length() - 1
        raise GraphError(f"corrupt log: vertex {missing} is neither initial nor forced")
    return forcers


def certificate(log: ForceLog) -> str:
    """Line-oriented text certificate: rule and initial set, then one line
    `step u -> w [component]` per force (component for the psd rule only).
    Vertices are 1-based, as the CLI prints them."""
    lines = [
        f"rule {log.rule}",
        "initial " + " ".join(str(v + 1) for v in sorted(log.initial)),
    ]
    for step, f in enumerate(log.forces, start=1):
        line = f"{step} {f.forcer + 1} -> {f.forced + 1}"
        if f.component is not None:
            line += " [" + " ".join(str(v + 1) for v in sorted(f.component)) + "]"
        lines.append(line)
    return "\n".join(lines)
