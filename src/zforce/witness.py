"""Numeric matrix certificates: rank, psd and pattern checks, and the two
constructive witnesses (tree x clique, and the 8x8 complex rank-3 matrix
for the 3-wheel with 4 hubs).

All checks are numeric with explicit tolerances; rank claims are made
against singular-value gaps of several orders of magnitude so the verdicts
are unambiguous.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graph import (MAX_VERTICES, Graph, SizeLimitError, cartesian_product, complete_graph,
                    four_hub_wheel)

RANK_TOL = 1e-8       # relative singular value threshold
PATTERN_TOL = 1e-9    # relative to the largest entry magnitude
PSD_TOL = 1e-9        # relative eigenvalue tolerance
HERMITIAN_TOL = 1e-12  # absolute symmetry tolerance


class WitnessError(RuntimeError):
    """A constructive witness could not be built as specified."""


class DegenerateParameters(WitnessError):
    """Free parameters that are zero or not finite, or that make a required
    entry zero, negligible or not finite."""


@dataclass(frozen=True)
class PatternCheck:
    first_mismatch: tuple[int, int] | None = None

    def __bool__(self):
        return self.first_mismatch is None


def numeric_rank(a: np.ndarray) -> int:
    """Number of singular values above RANK_TOL times the largest one."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    s = singular_values(a)
    if s.size == 0 or s[0] == 0:
        return 0
    return int((s > RANK_TOL * s[0]).sum())


def singular_values(a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(np.asarray(a), compute_uv=False)


def rank_gap(a: np.ndarray, rank: int) -> float:
    """Ratio of the rank-th singular value to the next one (inf if clean zero)."""
    s = singular_values(a)
    if rank <= 0 or rank > s.size:
        raise ValueError("rank out of range")
    if rank == s.size or s[rank] == 0:
        return float("inf")
    return float(s[rank - 1] / s[rank])


def pattern_matches(a: np.ndarray, g: Graph) -> PatternCheck:
    """Does the off-diagonal support of a square matrix equal E(G)?

    The diagonal is ignored.  Entries are compared against PATTERN_TOL times
    the largest magnitude in the matrix.
    """
    a = np.asarray(a)
    if a.shape != (g.n, g.n):
        raise ValueError(f"matrix shape {a.shape} does not match order {g.n}")
    thresh = PATTERN_TOL * max(np.abs(a).max(), 1e-300)
    pattern = np.array([[r >> j & 1 for j in range(g.n)] for r in g.adj], dtype=bool)
    np.fill_diagonal(pattern, np.abs(np.diag(a)) > thresh)  # so the diagonal matches
    return support_matches(a, pattern)


def support_matches(a: np.ndarray, pattern: np.ndarray) -> PatternCheck:
    """Does the (rectangular) zero-nonzero support equal the 0/1 pattern?"""
    a = np.asarray(a)
    pattern = np.asarray(pattern)
    if a.shape != pattern.shape:
        raise ValueError("matrix and pattern shapes differ")
    thresh = PATTERN_TOL * max(np.abs(a).max(), 1e-300)
    wrong = np.argwhere((np.abs(a) > thresh) != pattern.astype(bool))
    if len(wrong):
        i, j = wrong[0]  # row-major: the first mismatch in reading order
        return PatternCheck((int(i), int(j)))
    return PatternCheck()


def is_psd(a: np.ndarray) -> bool:
    """Positive semidefiniteness of a Hermitian matrix (numeric)."""
    a = np.asarray(a)
    if np.abs(a - a.conj().T).max() > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    ev = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.abs(ev).max()))
    return bool(ev.min() >= -PSD_TOL * scale)


# ---------------------------------------------------------------------------
# tree x clique witness
# ---------------------------------------------------------------------------


def build_tree_clique_witness(t: Graph, r: int) -> np.ndarray:
    """Real symmetric psd matrix with pattern T x K_r and rank (|T|-1) * r.

    Built edge by edge from the root-0 orientation of the tree: each tree
    edge contributes a psd rank-r block [[M, I], [I, M^-1]] with M = I + J,
    placed on the parent/child copies.  Vertex (i, j) of the product sits at
    index i*r + j.  The support is checked against the product pattern, and
    a mismatch raises WitnessError.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if t.n < 2:
        raise ValueError("need a tree of order at least 2")
    if t.num_edges() != t.n - 1 or not t.is_connected():
        raise ValueError("input graph is not a tree")
    if t.n * r > MAX_VERTICES:
        raise SizeLimitError(f"product order {t.n * r} exceeds {MAX_VERTICES}")
    m = np.eye(r) + np.ones((r, r))
    # (I + J)^-1 = I - J/(r+1); the closed form keeps the block exactly symmetric
    minv = np.eye(r) - np.ones((r, r)) / (r + 1)
    eye = np.eye(r)
    a = np.zeros((t.n * r, t.n * r))
    parent = {0: None}
    order = [0]
    for v in order:
        for w in sorted(t.neighbors(v)):
            if w not in parent:
                parent[w] = v
                order.append(w)
    for w in order[1:]:
        p = parent[w]
        ps, ws = slice(p * r, (p + 1) * r), slice(w * r, (w + 1) * r)
        a[ps, ps] += m
        a[ws, ws] += minv
        a[ps, ws] += eye
        a[ws, ps] += eye
    check = pattern_matches(a, cartesian_product(t, complete_graph(r)))
    if not check:
        raise WitnessError(
            f"support differs from T x K_r at entry {check.first_mismatch}"
        )
    return a


# ---------------------------------------------------------------------------
# the 4-hub 3-wheel witness
# ---------------------------------------------------------------------------

# Rows of the scaled 8x8 witness carry the odd drawing labels 1,3,...,15 and
# columns the even ones 2,4,...,16, under the customary labeling of the
# 3-wheel with 4 hubs (cycle 1..12 in order; hubs 13~{2,6,10}, 14~{1,5,9},
# 15~{4,8,12}, 16~{3,7,11}).
H43_ROW_VERTICES = tuple(range(1, 17, 2))
H43_COL_VERTICES = tuple(range(2, 17, 2))

# drawing label -> vertex index of family("four_hub_wheel", [3])
H43_LABEL_TO_INDEX = {**{m: m - 1 for m in range(1, 13)},
                       13: 13, 14: 12, 15: 15, 16: 14}

# Zero-nonzero support of the witness, derived from the graph: entry (i, j)
# is 0 exactly when its row and column vertices are adjacent, so the zeros
# are the 24 edges of the 3-wheel with 4 hubs.
_WHEEL = four_hub_wheel(3)
H43_SUPPORT = tuple(
    tuple(int(not _WHEEL.has_edge(H43_LABEL_TO_INDEX[r], H43_LABEL_TO_INDEX[c]))
          for c in H43_COL_VERTICES)
    for r in H43_ROW_VERTICES
)

OMEGA = cmath.exp(2j * math.pi / 3)

_ROOTS = {
    "omega": OMEGA,
    "omega-bar": OMEGA.conjugate(),
}


def sticky_equation_residual(x: complex) -> complex:
    """Residual of 1 + x + x^2; zero exactly at the primitive cube roots of 1.

    Over the reals the minimum is 3/4 (attained at x = -1/2), which is why
    the rank-3 completion below cannot be real.
    """
    return 1 + x + x * x


def build_h43_witness(
    a15_6: complex = 1.0,
    a3_12: complex = 1.0,
    a3_14: complex = 1.0,
    root: str = "omega",
) -> np.ndarray:
    """8x8 complex matrix with support H43_SUPPORT and numeric rank 3.

    The three free parameters must be finite and nonzero; every other entry
    is filled by the frozen assignment chain below (evaluated in dependency
    order), with the pivotal ratio a(7,4)/a(15,6) set to a primitive cube
    root of unity.  Requesting a real root is rejected: min over real x of
    1 + x + x^2 is 3/4 > 0.
    """
    if root in ("real", "1", "-1"):
        raise ValueError(
            "no real root exists: min over real x of 1 + x + x^2 is 3/4 at x = -1/2"
        )
    if root not in _ROOTS:
        raise ValueError(f"root must be one of {sorted(_ROOTS)}")
    for name, p in (("a15_6", a15_6), ("a3_12", a3_12), ("a3_14", a3_14)):
        if not cmath.isfinite(p):
            raise DegenerateParameters(f"free parameter {name} must be finite")
        if p == 0:
            raise DegenerateParameters(f"free parameter {name} must be nonzero")
    w = _ROOTS[root]
    a7_4 = w * a15_6

    # assignment chain in dependency order
    a3_10 = 1.0
    a11_6 = a7_4 + a15_6
    a3_8 = a3_10 * (a7_4 - a11_6) / a7_4
    a9_4 = (1 - a3_8) * a7_4
    a9_6 = a9_4
    a7_12 = -a3_12 * a11_6
    a7_10 = a7_4 - a3_10 * a7_4 - a9_4
    a11_4 = a7_4
    a11_8 = a3_8 * a11_6
    a11_14 = a3_14 * (a11_6 - a11_4)
    a7_14 = -a3_14 * a7_4
    a5_8 = (a3_8 - 1) * a7_4
    a5_10 = (a3_10 - 1) * a7_4 + a7_10
    a5_12 = a3_12 * a7_4 + a7_12
    a5_16 = -a7_4
    a9_16 = a9_4 - a7_4
    a9_12 = a3_12 * a7_4 + a7_12 - a3_12 * a9_4 + a3_12 * a9_6
    a13_16 = 1.0
    a13_14 = -a3_14
    a13_12 = -a3_12
    a13_8 = a11_6 / a7_4
    a15_16 = -a7_4
    a15_14 = a3_14 * a15_6
    a15_10 = -a11_6 + a15_6

    a = np.array(
        [
            [0, 1, 1, 1, 1, 0, 0, 1],
            [0, 0, 1, a3_8, a3_10, a3_12, a3_14, 0],
            [1, 0, 0, a5_8, a5_10, a5_12, 0, a5_16],
            [1, a7_4, 0, 0, a7_10, a7_12, a7_14, 0],
            [1, a9_4, a9_6, 0, 0, a9_12, 0, a9_16],
            [1, a11_4, a11_6, a11_8, 0, 0, a11_14, 0],
            [0, 1, 0, a13_8, 0, a13_12, a13_14, a13_16],
            [1, 0, a15_6, 0, a15_10, 0, a15_14, a15_16],
        ],
        dtype=complex,
    )
    nonfinite = np.argwhere(~np.isfinite(a))  # row-major: first in reading order
    first = (nonfinite[0] if len(nonfinite)
             else support_matches(a, H43_SUPPORT).first_mismatch)
    if first is not None:
        i, j = first
        fault = ("is not finite" if not cmath.isfinite(a[i, j])
                 else "degenerated to zero" if a[i, j] == 0
                 else f"is below {PATTERN_TOL:g} times the largest entry")
        raise DegenerateParameters(
            f"entry at row vertex {H43_ROW_VERTICES[i]}, column vertex "
            f"{H43_COL_VERTICES[j]} {fault}; pick different free parameters"
        )
    rank = numeric_rank(a)
    if rank != 3:
        raise WitnessError(f"constructed matrix has numeric rank {rank}, not 3")
    return a


def rowspace_residual(a: np.ndarray, k: int) -> float:
    """Largest least-squares residual of rows k.. projected onto rows 0..k-1."""
    a = np.asarray(a)
    basis = a[:k].T
    worst = 0.0
    for i in range(k, a.shape[0]):
        x, *_ = np.linalg.lstsq(basis, a[i], rcond=None)
        worst = max(worst, float(np.linalg.norm(basis @ x - a[i])))
    return worst


# ---------------------------------------------------------------------------
# plain-text dense matrix format
# ---------------------------------------------------------------------------


def _format_entry(x, is_complex: bool) -> str:
    if not is_complex:
        return repr(float(x.real if isinstance(x, complex) else x))
    x = complex(x)
    sign = "+" if x.imag >= 0 else "-"
    return f"{x.real!r}{sign}{abs(x.imag)!r}i"


def write_matrix(a: np.ndarray, fh) -> None:
    """Write header `rows cols R|C`, then one whitespace-separated row per line."""
    a = np.asarray(a)
    is_complex = np.iscomplexobj(a)
    fh.write(f"{a.shape[0]} {a.shape[1]} {'C' if is_complex else 'R'}\n")
    for row in a:
        fh.write(" ".join(_format_entry(x, is_complex) for x in row) + "\n")


def read_matrix(fh) -> np.ndarray:
    header = fh.readline().split()
    if len(header) != 3 or header[2] not in ("R", "C"):
        raise ValueError("matrix header must be 'rows cols R|C'")
    rows, cols = int(header[0]), int(header[1])
    is_complex = header[2] == "C"
    out = np.zeros((rows, cols), dtype=complex if is_complex else float)
    for i in range(rows):
        parts = fh.readline().split()
        if len(parts) != cols:
            raise ValueError(f"row {i} has {len(parts)} entries, expected {cols}")
        for j, tok in enumerate(parts):
            out[i, j] = _parse_entry(tok, is_complex)
    return out


def _parse_entry(tok: str, is_complex: bool):
    if not is_complex:
        return float(tok)
    return complex(tok[:-1] + "j") if tok.endswith("i") else complex(float(tok), 0.0)
