"""Backend selection for the forcing kernels.

Prefers the compiled extension (_kernels.c) when it imported cleanly and the
graph fits in one machine word (n <= 64); larger graphs, and installs built
without a C compiler, use the pure-Python twin.  Both backends implement
identical semantics, so results never depend on which one ran.
"""

from __future__ import annotations

from . import _kernels_py as _py

try:
    from . import _kernels as _c
except ImportError:
    _c = None


def backend_name(n: int = 1) -> str:
    return "compiled" if _impl(n) is _c else "pure-python"


def _impl(n: int):
    return _c if (_c is not None and n <= 64) else _py


def closure(adj, n: int, black: int, rule: str) -> int:
    impl = _impl(n)
    if rule == "psd":
        return impl.closure_psd(adj, n, black)
    return impl.closure_standard(adj, n, black)


def first_forcing_lex(adj, n, k, rule, start=None, count=-1):
    return _impl(n).first_forcing_lex(adj, n, k, rule == "psd", start, count)


def all_forcing_lex(adj, n, k, rule):
    return _impl(n).all_forcing_lex(adj, n, k, rule == "psd")
