"""Pure-Python forcing kernels over bitmask adjacency.

Reference implementation of the hot loops; works for any order because
masks are plain Python ints.  The compiled twin in _kernels.c mirrors
these semantics exactly for n <= 64, including the failed-closure cache
policy (the 64 most recent failed closures, oldest replaced first), so node
counts agree.  k-subsets are scanned in `itertools.combinations(range(n), k)`
order, which is lexicographic; the compiled twin relabels v -> n-1-v, under
which that order is descending numeric order of the masks, and walks it with
the complement of Gosper's successor.  One closure loop serves both rules: the
standard rule is the psd loop with one component, the whole white set.
"""

from __future__ import annotations

import operator
from collections import deque
from itertools import combinations, dropwhile, islice

from .graph import component_mask

_CACHE_CAP = 64  # failed closures kept by first_forcing_lex


def _check(adj, n: int, k: int = 1, black: int = 0) -> int:
    """The full mask, after refusing what the C twin's load_adj and to_mask
    refuse, in their order: k (the closures, which take no k, pass 1), the
    row count, each of the first n rows, then the black mask."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if len(adj) < n:
        raise ValueError("adj has fewer than n rows")
    full = (1 << n) - 1
    if any(m & ~full for m in (*adj[:n], black)):
        raise ValueError("mask does not fit in n bits")
    return full


def closure(adj, n: int, black: int, psd: bool) -> int:
    """Fixpoint of the psd rule if `psd`, else of the standard rule, from
    the given black mask.

    Forces are applied in batched rounds (components recomputed per round);
    the fixpoint is the same as for one-force-at-a-time application.
    """
    full = (1 << n) - 1
    while True:
        rem = full & ~black
        newly = 0
        while rem:
            comp = component_mask(adj, rem, (rem & -rem).bit_length() - 1) if psd else rem
            rem &= ~comp
            m = black
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                t = adj[u] & comp
                if t and t & (t - 1) == 0:
                    newly |= t
        if not newly:
            return black
        black |= newly


def closure_standard(adj, n: int, black: int) -> int:
    _check(adj, n, black=black)
    return closure(adj, n, black, False)


def closure_psd(adj, n: int, black: int) -> int:
    _check(adj, n, black=black)
    return closure(adj, n, black, True)


def first_forcing_lex(adj, n, k, psd, start=None, count=-1):
    """First k-subset (in lexicographic order) whose closure is all of V.

    Scans `count` combinations starting from `start`, k strictly increasing
    vertices in 0..n-1 (count < 0 means to the end).  Returns
    (mask_or_None, closures_run).
    The failed-closure cache skips candidates contained in a recorded
    non-forcing closed set; it never changes which subset is found first.
    """
    count = operator.index(count)
    full = _check(adj, n, k)
    # length, then every entry's type, then range and order, as in the C twin
    start = tuple(range(k) if start is None else start)
    if len(start) == k:
        start = tuple(map(operator.index, start))
    if (len(start) != k or start[0] < 0 or start[-1] >= n
            or any(a >= b for a, b in zip(start, start[1:]))):
        raise ValueError("start must be k strictly increasing vertices in 0..n-1")
    combs = dropwhile(start.__gt__, combinations(range(n), k))
    explored = 0
    failed = deque(maxlen=_CACHE_CAP)
    for c in islice(combs, None if count < 0 else count):
        mask = 0
        for i in c:
            mask |= 1 << i
        for d in failed:
            if mask & ~d == 0:
                break
        else:
            explored += 1
            d = closure(adj, n, mask, psd)
            if d == full:
                return mask, explored
            failed.append(d)  # d contains mask, which no entry contains, so d is new
    return None, explored


def all_forcing_lex(adj, n, k, psd):
    """All forcing k-subsets as masks, in lexicographic order."""
    full = _check(adj, n, k)
    out = []
    for c in combinations(range(n), k):
        mask = 0
        for i in c:
            mask |= 1 << i
        if closure(adj, n, mask, psd) == full:
            out.append(mask)
    return out
