"""Numeric rank, pattern and psd checks, and the two constructive witnesses."""

import io

import numpy as np
import pytest

from zforce import (
    DegenerateParameters,
    Graph,
    build_h43_witness,
    build_tree_clique_witness,
    cartesian_product,
    family,
    is_psd,
    numeric_rank,
    pattern_matches,
    rank_gap,
    read_matrix,
    rowspace_residual,
    sticky_equation_residual,
    support_matches,
    write_matrix,
)
from zforce.witness import (
    H43_COL_VERTICES,
    H43_LABEL_TO_INDEX,
    H43_ROW_VERTICES,
    H43_SUPPORT,
    OMEGA,
    PATTERN_TOL,
)


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(7)) == 7

    def test_all_ones(self):
        assert numeric_rank(np.ones((6, 6))) == 1

    def test_outer_products(self):
        rng = np.random.default_rng(0)
        for r in (1, 2, 4):
            u = rng.normal(size=(9, r))
            assert numeric_rank(u @ u.T) == r

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((3, 3))) == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numeric_rank(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPatternChecks:
    def test_diagonal_matches_edgeless(self):
        g = family("complete", [3]).complement()
        assert pattern_matches(np.diag([1.0, 2.0, 3.0]), g)

    def test_i_plus_j_matches_complete(self):
        n = 5
        a = np.eye(n) + np.ones((n, n))
        assert pattern_matches(a, family("complete", [n]))

    def test_missing_entry_is_located(self):
        n = 4
        a = np.eye(n) + np.ones((n, n))
        a[1, 3] = a[3, 1] = 0.0
        check = pattern_matches(a, family("complete", [n]))
        assert not check and check.first_mismatch == (1, 3)

    def test_support_matches_rectangular(self):
        a = np.array([[1.0, 0.0, 2.0]])
        assert support_matches(a, np.array([[1, 0, 1]]))
        assert not support_matches(a, np.array([[1, 1, 1]]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            pattern_matches(np.eye(3), family("path", [4]))

    def test_pattern_matches_entrywise_definition(self):
        """First off-diagonal (i, j) in row-major order whose nonzero-ness
        differs from adjacency; the diagonal never counts."""
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            g = Graph.from_edges(
                n, [(i, j) for i in range(n) for j in range(i + 1, n)
                    if rng.random() < 0.5])
            a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.6)
            thresh = PATTERN_TOL * max(np.abs(a).max(), 1e-300)
            first = next(((i, j) for i in range(n) for j in range(n) if i != j
                          and (abs(a[i, j]) > thresh) != g.has_edge(i, j)), None)
            check = pattern_matches(a, g)
            assert (check.ok, check.first_mismatch) == (first is None, first)


class TestIsPsd:
    def test_positive(self):
        assert is_psd(np.eye(4) + np.ones((4, 4)))

    def test_indefinite(self):
        assert not is_psd(np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            is_psd(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_complex_hermitian(self):
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        assert is_psd(a)


TREE_CLIQUE_CASES = [
    ("path", [2], 3, 3),    # rank r, nullity r on P2 x K3
    ("path", [3], 2, 4),    # rank (n-1)r = 4
    ("star", [3], 2, 6),
]


class TestTreeCliqueWitness:
    @pytest.mark.parametrize("name,params,r,rank", TREE_CLIQUE_CASES)
    def test_rank_psd_pattern(self, name, params, r, rank):
        t = family(name, params)
        a = build_tree_clique_witness(t, r)
        assert np.abs(a - a.T).max() == 0
        assert is_psd(a)
        assert numeric_rank(a) == rank
        assert a.shape[0] - rank == r  # nullity r
        prod = cartesian_product(t, family("complete", [r]))
        assert pattern_matches(a, prod)
        assert rank_gap(a, rank) >= 1e4

    def test_bigger_random_trees(self):
        import random

        rng = random.Random(2)
        for _ in range(5):
            n = rng.randint(2, 6)
            t = family("tree_from_pruefer", [rng.randrange(n) for _ in range(n - 2)])
            r = rng.randint(2, 4)
            a = build_tree_clique_witness(t, r)
            assert numeric_rank(a) == (n - 1) * r
            assert is_psd(a)

    def test_custom_alpha_schedule(self):
        a = build_tree_clique_witness(family("path", [3]), 2,
                                      alpha_schedule=[0.25])
        assert numeric_rank(a) == 4

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError):
            build_tree_clique_witness(family("cycle", [4]), 2)
        with pytest.raises(ValueError):
            build_tree_clique_witness(family("path", [3]), 1)


class TestH43Witness:
    def test_default_rank_three_and_pattern(self):
        a = build_h43_witness()
        s = np.linalg.svd(a, compute_uv=False)
        assert (s[3:] < 1e-8 * s[0]).all()
        assert (s[:3] > 1e-4 * s[0]).all()
        assert support_matches(a, H43_SUPPORT)

    def test_conjugate_root(self):
        a = build_h43_witness(root="omega-bar")
        assert numeric_rank(a) == 3
        assert np.allclose(a, np.conj(build_h43_witness(root="omega")))

    def test_random_free_parameters(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            p = rng.uniform(0.5, 2.0, size=3)
            a = build_h43_witness(*p)
            assert numeric_rank(a) == 3

    def test_rows_lie_in_top_row_space(self):
        a = build_h43_witness()
        assert rowspace_residual(a, 3) < 1e-8
        # leading 3x3 block (rows/cols of vertices 1,3,5 x 2,4,6) is nonsingular
        assert numeric_rank(a[:3, :3]) == 3

    def test_real_root_rejected(self):
        with pytest.raises(ValueError, match="3/4"):
            build_h43_witness(root="real")

    def test_zero_free_parameter_rejected(self):
        with pytest.raises(DegenerateParameters):
            build_h43_witness(a15_6=0.0)

    def test_pivotal_ratio_is_primitive_root(self):
        a = build_h43_witness(a15_6=2.0)
        # a(7,4) sits at row vertex 7, column vertex 4; a(15,6) at 15, 6
        i74 = (H43_ROW_VERTICES.index(7), H43_COL_VERTICES.index(4))
        i156 = (H43_ROW_VERTICES.index(15), H43_COL_VERTICES.index(6))
        ratio = a[i74] / a[i156]
        assert abs(sticky_equation_residual(ratio)) < 1e-12

    def test_support_zeros_are_the_wheel_edges(self):
        g = family("four_hub_wheel", [3])
        zero_pairs = set()
        for i, rv in enumerate(H43_ROW_VERTICES):
            for j, cv in enumerate(H43_COL_VERTICES):
                if H43_SUPPORT[i, j] == 0:
                    zero_pairs.add(frozenset(
                        (H43_LABEL_TO_INDEX[rv], H43_LABEL_TO_INDEX[cv])
                    ))
        assert zero_pairs == {frozenset(e) for e in g.edges()}


class TestStickyEquation:
    def test_primitive_root_is_a_zero(self):
        assert abs(sticky_equation_residual(OMEGA)) < 1e-12
        assert abs(sticky_equation_residual(OMEGA.conjugate())) < 1e-12

    def test_at_one(self):
        assert sticky_equation_residual(1.0) == 3

    def test_real_minimum(self):
        assert sticky_equation_residual(-0.5) == 0.75


class TestMatrixIO:
    def test_real_roundtrip(self):
        a = np.array([[1.5, -2.0], [0.0, 3.25]])
        buf = io.StringIO()
        write_matrix(a, buf)
        buf.seek(0)
        assert buf.getvalue().splitlines()[0] == "2 2 R"
        assert np.array_equal(read_matrix(buf), a)

    def test_complex_roundtrip(self):
        a = build_h43_witness()
        buf = io.StringIO()
        write_matrix(a, buf)
        buf.seek(0)
        assert buf.getvalue().splitlines()[0] == "8 8 C"
        back = read_matrix(buf)
        assert np.array_equal(back, a)

    def test_entry_format(self):
        buf = io.StringIO()
        write_matrix(np.array([[1 - 2j]]), buf)
        assert buf.getvalue().splitlines()[1] == "1.0-2.0i"

    def test_bad_header(self):
        with pytest.raises(ValueError):
            read_matrix(io.StringIO("2 2 X\n"))

    def test_bad_row_width(self):
        with pytest.raises(ValueError):
            read_matrix(io.StringIO("1 2 R\n3.0\n"))
