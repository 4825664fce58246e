import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncadmm.numerics import DiagonalMatrix, SparseMatrix, spectral_norm

from _oracles import (
    check_psd, dense, sparse_from_dense, sparse_from_triples, sparse_identity, sparse_nnz,
)


def random_sparse(rng, rows, cols, density=0.3):
    mask = rng.random((rows, cols)) < density
    a = np.where(mask, rng.standard_normal((rows, cols)), 0.0)
    return sparse_from_dense(a), a


class TestSpmv:
    def test_identity(self):
        m = sparse_identity(2)
        assert np.array_equal(m.matvec(np.array([3.0, -1.0])), [3.0, -1.0])

    def test_hand_case(self):
        m = sparse_from_dense(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert np.array_equal(m.matvec(np.array([1.0, 1.0])), [3.0, 3.0])

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(0)
        m, a = random_sparse(rng, 50, 30)
        v = rng.standard_normal(30)
        assert np.abs(m.matvec(v) - a @ v).max() <= 1e-12
        r = rng.standard_normal(50)
        assert np.abs(m.rmatvec(r) - a.T @ r).max() <= 1e-12

    def test_dimension_mismatch(self):
        m = sparse_identity(3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            m.matvec(np.zeros(4))

    @pytest.mark.parametrize(
        "shape_for",
        [lambda rows: (rows, 2, 2), lambda rows: (7 - rows, 2), lambda rows: ()],
        ids=["3-D", "matrix-of-other-rows", "scalar"],
    )
    def test_operand_of_other_rows_or_axes_rejected(self, shape_for):
        m = sparse_from_dense(np.arange(12.0).reshape(4, 3))
        for product, rows in ((m.matvec, 3), (m.rmatvec, 4), (m.matmat, 3), (m.rmatmat, 4)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                product(np.zeros(shape_for(rows)))

    def test_one_product_pair_for_vectors_and_matrices(self):
        m, a = random_sparse(np.random.default_rng(6), 7, 5)
        x, y = np.random.default_rng(7).standard_normal((2, 35))
        x, y = x.reshape(5, 7), y.reshape(7, 5)
        assert SparseMatrix.__dict__["matmat"] is SparseMatrix.__dict__["matvec"]
        assert SparseMatrix.__dict__["rmatmat"] is SparseMatrix.__dict__["rmatvec"]
        assert np.array_equal(m.matvec(x), m.matmat(x))
        assert np.array_equal(m.rmatvec(y), m.rmatmat(y))
        assert np.abs(m.matvec(x) - a @ x).max() <= 1e-12

    def test_dense_round_trip_and_repr(self):
        m, a = random_sparse(np.random.default_rng(1), 50, 30)
        assert np.array_equal(dense(m), a)
        assert sparse_nnz(m) == np.count_nonzero(a)
        assert repr(m) == f"SparseMatrix(50x30, nnz={np.count_nonzero(a)})"

    def test_zero_rows_cols_allowed(self):
        m = SparseMatrix(3, 2, [0, 1, 1, 1], [1], [2.0])
        assert np.array_equal(m.matvec(np.array([5.0, 1.0])), [2.0, 0.0, 0.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_adjoint_identity(self, seed):
        rng = np.random.default_rng(seed)
        m, _ = random_sparse(rng, 12, 9)
        v = rng.standard_normal(9)
        w = rng.standard_normal(12)
        lhs = float(m.matvec(v) @ w)
        rhs = float(v @ m.rmatvec(w))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestSparseMatrixValidation:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix(2, 2, [0, 1, 1], [2], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SparseMatrix(2, 2, [0, 1, 1], [0], [np.nan])


class TestCsrBuild:
    def test_no_entries(self):
        m = SparseMatrix(3, 2, [0, 0, 0, 0], [], [])
        assert m.indptr.tolist() == [0, 0, 0, 0]
        assert np.array_equal(m.matvec(np.ones(2)), np.zeros(3))


class TestFromCsr:
    """The constructor on the CSR arrays of a matrix built through scipy."""

    def setup_method(self):
        rng = np.random.default_rng(6)
        self.m, _ = random_sparse(rng, 12, 9)
        self.csr = (self.m.indptr.astype(np.int64), self.m.indices.astype(np.int64),
                    self.m.data.copy())

    def test_round_trip_keeps_bits_and_int32_indices(self):
        got = SparseMatrix(12, 9, *self.csr)
        for name in ("indptr", "indices", "data"):
            g, w = getattr(got, name), getattr(self.m, name)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
            assert not g.flags.writeable

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p, i, d: (p[:-1], i, d), "rows \\+ 1 and nnz"),
            (lambda p, i, d: (p, i[:-1], d), "rows \\+ 1 and nnz"),
            (lambda p, i, d: (p + 1, i, d), "rise from 0 to nnz"),
            (lambda p, i, d: (np.r_[p[:-1], p[-1] - 1], i, d), "rise from 0 to nnz"),
            (lambda p, i, d: (np.r_[0, p[2], p[1], p[3:]], i, d), "rise from 0 to nnz"),
            (lambda p, i, d: (p, np.r_[i[:-1], 9], d), "col index out of range"),
            (lambda p, i, d: (p, np.r_[-1, i[1:]], d), "col index out of range"),
            (lambda p, i, d: (p, i, np.r_[d[:-1], np.nan]), "finite"),
        ],
        ids=["short-indptr", "short-indices", "indptr-from-1", "indptr-short-of-nnz",
             "indptr-falls", "col-past-end", "col-negative", "nan-value"],
    )
    def test_malformed_arrays_rejected(self, edit, match):
        with pytest.raises(ValueError, match=match):
            SparseMatrix(12, 9, *edit(*self.csr))


class TestSelectRows:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.m, self.a = random_sparse(rng, 40, 25)
        self.mask = rng.random(40) < 0.5

    def test_matches_rebuild_from_triples_bitwise(self):
        sub = self.m.select_rows(self.mask)
        r, c = np.nonzero(self.a[self.mask])
        ref = sparse_from_triples(int(self.mask.sum()), 25, r, c, self.a[self.mask][r, c])
        assert (sub.rows, sub.cols) == (ref.rows, ref.cols)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(sub, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert np.array_equal(dense(sub), self.a[self.mask])

    def test_data_stays_read_only(self):
        sub = self.m.select_rows(self.mask)
        assert not sub.data.flags.writeable
        with pytest.raises(ValueError):
            sub.data[0] = 1.0

    @pytest.mark.parametrize("name", ["indptr", "indices"])
    def test_index_arrays_stay_read_only(self, name):
        for m in (self.m, self.m.select_rows(self.mask)):
            arr = getattr(m, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize(
        "mask",
        [
            np.arange(3), np.ones(40, dtype=int), np.ones(39, dtype=bool),
            np.ones((40, 1), dtype=bool),
        ],
        ids=["row-indices", "int-ones", "one-entry-short", "column"],
    )
    def test_mask_other_than_one_bool_per_row_rejected(self, mask):
        with pytest.raises(ValueError, match=r"row mask must be boolean of shape \(40,\)"):
            self.m.select_rows(mask)

    def test_all_false_mask_gives_zero_rows(self):
        sub = self.m.select_rows(np.zeros(40, dtype=bool))
        assert sub.shape == (0, 25)
        assert sub.matvec(np.ones(25)).shape == (0,)
        assert np.array_equal(sub.rmatvec(np.zeros(0)), np.zeros(25))


class TestMatchesScipySparse:
    """The products, the sums and select_rows bit for bit against scipy.sparse
    on the same CSR arrays: every kernel is scipy's, called as scipy calls it."""

    @staticmethod
    def same(got, want):
        want = np.asarray(want)
        same_kind = got.dtype == want.dtype and got.shape == want.shape
        return same_kind and got.tobytes() == want.tobytes()

    def test_thirty_random_matrices_with_empty_rows_and_f_order_operands(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(11)
        for _ in range(30):
            rows, cols = rng.integers(1, 30, size=2)
            a = np.where(rng.random((rows, cols)) < rng.uniform(0.05, 0.6),
                         rng.standard_normal((rows, cols)), 0.0)
            a[rng.random(rows) < 0.25] = 0.0  # empty rows
            m = sparse_from_dense(a)
            ref = sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
            for k in (1, 3):
                x, y = rng.standard_normal((cols, k)), rng.standard_normal((rows, k))
                for v, w in ((x, y), (np.asfortranarray(x), np.asfortranarray(y))):
                    assert self.same(m.matmat(v), ref @ v)
                    assert self.same(m.rmatmat(w), ref.T @ w)
                assert self.same(m.matvec(x[:, 0]), ref @ x[:, 0])
                assert self.same(m.rmatvec(y[:, 0]), ref.T @ y[:, 0])
            assert self.same(m.row_sums(), np.asarray(ref.sum(axis=1)).ravel())
            assert self.same(m.col_sums(), np.asarray(ref.sum(axis=0)).ravel())
            mask = rng.random(rows) < 0.5
            sub, want = m.select_rows(mask), ref[mask]
            assert sub.shape == want.shape
            for name in ("indptr", "indices", "data"):
                assert self.same(getattr(sub, name), getattr(want, name)), name


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(dense(sparse_identity(5))) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        m = sparse_from_dense(np.diag([3.0, 1.0]))
        assert spectral_norm(dense(m)) == pytest.approx(3.0, rel=1e-9)

    def test_zero_matrix(self):
        assert spectral_norm(dense(sparse_from_triples(4, 4, [], [], []))) == 0.0

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(7)
        m, a = random_sparse(rng, 40, 20)
        exact = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(dense(m)) == pytest.approx(exact, rel=1e-6)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_lower_bound_witness(self, seed):
        rng = np.random.default_rng(seed)
        m, _ = random_sparse(rng, 15, 10)
        est = spectral_norm(dense(m))
        v = rng.standard_normal(10)
        witness = np.linalg.norm(m.matvec(v)) / np.linalg.norm(v)
        assert est >= witness * (1.0 - 1e-8)


class TestCheckPsd:
    def test_identity_true(self):
        assert check_psd(np.eye(3), 1e-8)

    def test_indefinite_false(self):
        assert not check_psd(np.diag([1.0, -0.5]), 1e-8)

    def test_asymmetric_raises(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_psd(np.array([[1.0, 2.0], [0.0, 1.0]]), 1e-8)

    def test_quantile_style_stepsize_matrix(self):
        # sigma*(gamma*I - Phi'Phi) with gamma just above ||Phi||^2
        rng = np.random.default_rng(11)
        phi = rng.standard_normal((20, 10))
        gamma = spectral_norm(phi) ** 2 * (1.0 + 1e-6)
        h = 0.5 * (gamma * np.eye(10) - phi.T @ phi)
        assert check_psd(h, 1e-8)
        exact_min = np.linalg.eigvalsh(h)[0]
        assert exact_min >= -1e-8


class TestDiagonalMatrix:
    def test_psd_variant_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiagonalMatrix([1.0, -1.0])

    def test_matvec_solve(self):
        d = DiagonalMatrix([2.0, 4.0])
        v = np.array([1.0, 1.0])
        assert np.array_equal(d.matvec(v), [2.0, 4.0])
        assert np.array_equal(d.solve(d.matvec(v)), v)

    def test_immutable(self):
        d = DiagonalMatrix([1.0])
        with pytest.raises(ValueError):
            d.diag[0] = 3.0

    def test_callers_array_stays_writeable(self):
        a = np.ones(3)
        DiagonalMatrix(a)
        a[0] = 2.0
        assert a.flags.writeable

    def test_diagonal_does_not_move_with_the_base_of_a_view(self):
        b = np.ones(3)
        d = DiagonalMatrix(b[:, None])
        b[0] = 5.0
        assert np.array_equal(d.diag, np.ones((3, 1)))

    def test_row_diagonal_weights_every_entry_of_its_row(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.5, 2.0, 4)
        v = rng.standard_normal((4, 3))
        d = DiagonalMatrix(w[:, None])
        # the same products as the diagonal repeated over the columns
        assert d.matvec(v).tobytes() == (np.repeat(w, 3) * v.ravel()).tobytes()
        assert d.solve(v).tobytes() == (v.ravel() / np.repeat(w, 3)).tobytes()

    def test_more_than_one_entry_per_row_rejected(self):
        with pytest.raises(ValueError, match="one entry per row"):
            DiagonalMatrix(np.ones((3, 2)))
        with pytest.raises(ValueError, match="one entry per row"):
            DiagonalMatrix(2.0)

    @pytest.mark.parametrize("method", ["matvec", "solve"])
    @pytest.mark.parametrize(
        "diag, operand",
        [
            (np.ones(1), np.ones(3)),  # would broadcast to (3,)
            (np.ones((3, 1)), np.ones(3)),  # would broadcast to (3, 3)
            (np.ones(3), np.ones((3, 3))),  # would weight columns, not rows
            (np.ones((1, 1)), np.ones((3, 2))),  # would broadcast to (3, 2)
        ],
        ids=["length-one", "row-on-vector", "vector-on-matrix", "one-row"],
    )
    def test_operand_rows_must_match_exactly(self, method, diag, operand):
        with pytest.raises(ValueError, match="dimension mismatch"):
            getattr(DiagonalMatrix(diag), method)(operand)
