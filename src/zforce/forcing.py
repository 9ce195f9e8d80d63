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
    Together they partition the vertex set."""
    if log.rule != "standard":
        raise GraphError("forcing chains are defined for the standard rule only")
    if not log.is_complete():
        raise GraphError("forcing chains require a complete log (derived = V)")
    succ, forced = {}, set(log.initial)
    for f in log.forces:
        if f.forcer in succ:
            raise GraphError("corrupt log: a vertex forces twice")
        if f.forced in forced:
            raise GraphError(f"corrupt log: vertex {f.forced} is initial or forced twice")
        succ[f.forcer] = f.forced
        forced.add(f.forced)
    out = []
    for z in sorted(log.initial):
        chain = [z]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        out.append(tuple(chain))
    return tuple(out)


def reversal(log: ForceLog) -> VertexSet:
    """Set of last vertices of the maximal chains; same size as the initial set."""
    return VertexSet.of(log.initial.n, (c[-1] for c in chains(log)))


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
