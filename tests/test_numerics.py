import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncadmm.numerics import DiagonalMatrix, SparseMatrix, spectral_norm

from _oracles import check_psd, dense, sparse_from_dense, sparse_identity, sparse_nnz


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

    def test_dense_round_trip_and_repr(self):
        m, a = random_sparse(np.random.default_rng(1), 50, 30)
        assert np.array_equal(dense(m), a)
        assert sparse_nnz(m) == np.count_nonzero(a)
        assert repr(m) == f"SparseMatrix(50x30, nnz={np.count_nonzero(a)})"

    def test_zero_rows_cols_allowed(self):
        m = SparseMatrix(3, 2, [0], [1], [2.0])
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
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseMatrix(2, 2, [0, 0], [1, 1], [1.0, 2.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix(2, 2, [2], [0], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SparseMatrix(2, 2, [0], [0], [np.nan])

    def test_far_apart_duplicate_rejected(self):
        rng = np.random.default_rng(3)
        keys = rng.permutation(200 * 300)[:10_000]  # distinct and shuffled
        keys[-1] = keys[0]  # one duplicate pair, 9999 places apart
        rows, cols = np.divmod(keys, 300)
        with pytest.raises(ValueError, match=r"duplicate \(row, col\) entries"):
            SparseMatrix(200, 300, rows, cols, rng.standard_normal(keys.size))
        SparseMatrix(200, 300, rows[:-1], cols[:-1], np.ones(keys.size - 1))


class TestCsrBuild:
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_matches_scipy_coo_build_bitwise(self, shuffle):
        import scipy.sparse as sp

        rng = np.random.default_rng(5)
        keys = np.sort(rng.permutation(60 * 40)[:500])
        rows, cols = np.divmod(keys, 40)
        keys = keys[(rows % 7 != 3) & (rows < 55)]  # empty rows inside and at the end
        if shuffle:
            keys = rng.permutation(keys)
        r, c = np.divmod(keys, 40)
        v = rng.standard_normal(keys.size)
        got = SparseMatrix(60, 40, r, c, v)._csr
        want = sp.csr_matrix((v, (r, c)), shape=(60, 40))
        for name in ("indptr", "indices", "data"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
        assert v.flags.writeable  # the CSR froze its own copy

    def test_no_entries(self):
        m = SparseMatrix(3, 2, [], [], [])
        assert m._csr.indptr.tolist() == [0, 0, 0, 0]
        assert np.array_equal(m.matvec(np.ones(2)), np.zeros(3))


class TestSelectRows:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.m, self.a = random_sparse(rng, 40, 25)
        self.mask = rng.random(40) < 0.5

    def test_matches_rebuild_from_triples_bitwise(self):
        sub = self.m.select_rows(self.mask)
        r, c = np.nonzero(self.a[self.mask])
        ref = SparseMatrix(int(self.mask.sum()), 25, r, c, self.a[self.mask][r, c])
        assert (sub.rows, sub.cols) == (ref.rows, ref.cols)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(sub._csr, name), getattr(ref._csr, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert np.array_equal(dense(sub), self.a[self.mask])

    def test_data_stays_read_only(self):
        sub = self.m.select_rows(self.mask)
        assert not sub._csr.data.flags.writeable
        with pytest.raises(ValueError):
            sub._csr.data[0] = 1.0

    def test_all_false_mask_gives_zero_rows(self):
        sub = self.m.select_rows(np.zeros(40, dtype=bool))
        assert sub.shape == (0, 25)
        assert sub.matvec(np.ones(25)).shape == (0,)
        assert np.array_equal(sub.rmatvec(np.zeros(0)), np.zeros(25))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(dense(sparse_identity(5))) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        m = sparse_from_dense(np.diag([3.0, 1.0]))
        assert spectral_norm(dense(m)) == pytest.approx(3.0, rel=1e-9)

    def test_zero_matrix(self):
        assert spectral_norm(dense(SparseMatrix(4, 4, [], [], []))) == 0.0

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(7)
        m, a = random_sparse(rng, 40, 20)
        exact = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(dense(m), rel_tol=1e-12) == pytest.approx(exact, rel=1e-6)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_lower_bound_witness(self, seed):
        rng = np.random.default_rng(seed)
        m, _ = random_sparse(rng, 15, 10)
        est = spectral_norm(dense(m), rel_tol=1e-10)
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
        gamma = spectral_norm(phi, rel_tol=1e-12) ** 2 * (1.0 + 1e-6)
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
