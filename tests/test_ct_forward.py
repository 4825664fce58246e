import math

import numpy as np
import pytest

from ncadmm.ct import forward as F

from _oracles import (
    build_projector_loop,
    ct_hessian_blocks,
    dense,
    expected_counts,
    fd_gradient,
    ray_sample_lengths,
    save_phantom,
)


@pytest.fixture(scope="module")
def small_model():
    return F.build_spectral_model(n_energies=30)


@pytest.fixture(scope="module")
def tiny_setup(small_model):
    geom = F.CtGeometry(grid_nx=6, grid_ny=6, pixel_size=0.5, n_angles=8, n_detectors=8)
    projector = F.build_projector(geom)
    image = F.default_phantom(geom)
    counts = F.forward_counts(small_model, projector, image, seed=2)
    return geom, projector, image, counts


def straight_line_loss(model, y, counts):
    """The CT loss by scalar loops over windows, rays and energies."""
    total = 0.0
    for w in range(model.n_windows):
        for l in range(y.shape[0]):
            mean = 0.0
            for i in range(model.n_energies):
                t = -sum(model.mu[m, i] * y[l, m] for m in range(model.n_materials))
                q = math.exp(t) if t <= 0 else 1.0 + t + 0.5 * t * t
                mean += model.response[w, i] * q
            total += mean - counts[w, l] * math.log(mean)
    return total


def check_gradients_by_finite_differences(model, counts, seed):
    """grad_c and grad_d of the loss on the first 4 rays against central differences."""
    rng = np.random.default_rng(seed)
    sub_counts = counts[:, :4]
    for _ in range(20):
        y = rng.standard_normal((4, 3)) * 0.5
        parts = F.ct_loss_parts(model, y, sub_counts)

        def value_c(flat):
            return F.ct_loss_parts(model, flat.reshape(4, 3), sub_counts, want_grad=False).g_c

        def value_d(flat):
            return F.ct_loss_parts(model, flat.reshape(4, 3), sub_counts, want_grad=False).g_d

        ref_c = fd_gradient(value_c, y.ravel(), h=1e-6).reshape(4, 3)
        ref_d = fd_gradient(value_d, y.ravel(), h=1e-6).reshape(4, 3)
        assert np.linalg.norm(parts.grad_c - ref_c) <= 1e-5 * max(1.0, np.linalg.norm(ref_c))
        assert np.linalg.norm(parts.grad_d - ref_d) <= 1e-5 * max(1.0, np.linalg.norm(ref_d))


# Geometries on which the vectorized projector must equal the per-ray loop.
ORACLE_GEOMETRIES = {
    "paper": F.CtGeometry(),
    "1x1": F.CtGeometry(grid_nx=1, grid_ny=1, pixel_size=0.7, n_angles=3, n_detectors=4),
    "7x4": F.CtGeometry(grid_nx=7, grid_ny=4, pixel_size=0.3, n_angles=9, n_detectors=11),
    "7x5": F.CtGeometry(grid_nx=7, grid_ny=5, pixel_size=0.3, n_angles=9, n_detectors=11),
    # 0 is exactly axis-aligned; at 90 degrees cos(pi/2) is ~6e-17, not 0
    "axis-aligned": F.CtGeometry(grid_nx=4, grid_ny=4, pixel_size=0.5, n_angles=2,
                                 n_detectors=10),
    # odd detector count: the 45-degree view has a ray through the grid corners
    "corner-grazing": F.CtGeometry(grid_nx=6, grid_ny=6, pixel_size=0.5, n_angles=4,
                                   n_detectors=7),
    "wide-span": F.CtGeometry(grid_nx=5, grid_ny=3, pixel_size=0.4, n_angles=6,
                              n_detectors=9, detector_span=10.0),
    "narrow-span": F.CtGeometry(grid_nx=5, grid_ny=5, pixel_size=0.4, n_angles=7,
                                n_detectors=5, detector_span=0.1),
}


class TestProjector:
    def test_single_pixel_axis_ray(self):
        geom = F.CtGeometry(grid_nx=1, grid_ny=1, pixel_size=0.7, n_angles=1, n_detectors=1)
        p = F.build_projector(geom)
        mat = dense(p)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(0.7, rel=1e-12)

    def test_diagonal_ray_through_single_pixel(self):
        geom = F.CtGeometry(
            grid_nx=1, grid_ny=1, pixel_size=1.0, n_angles=4, n_detectors=1,
            detector_span=1e-9,
        )
        p = dense(F.build_projector(geom))
        # angle index 1 of 4 is 45 degrees through the center
        assert p[1, 0] == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_row_sums_equal_chord_and_match_sampling_oracle(self):
        geom = F.CtGeometry(grid_nx=7, grid_ny=5, pixel_size=0.3, n_angles=9, n_detectors=11)
        p = F.build_projector(geom)
        span = geom.span
        mat = dense(p)
        for a in range(geom.n_angles):
            theta = math.pi * a / geom.n_angles
            d = (math.cos(theta), math.sin(theta))
            e = (-math.sin(theta), math.cos(theta))
            for j in range(geom.n_detectors):
                s = (j + 0.5) * span / geom.n_detectors - span / 2
                lengths, chord = ray_sample_lengths(geom, (s * e[0], s * e[1]), d)
                ray = a * geom.n_detectors + j
                assert mat[ray].sum() == pytest.approx(chord, abs=1e-9)
                # the sampling oracle resolves to ~chord/1e5 per bin boundary:
                # relative check where it has resolution, absolute elsewhere
                spacing = chord / 1e5
                for k, ref in lengths.items():
                    if ref >= 0.05 * chord:
                        assert mat[ray, k] == pytest.approx(ref, rel=1e-3)
                    else:
                        assert mat[ray, k] == pytest.approx(ref, abs=3 * spacing)

    def test_rays_missing_grid_are_zero_rows(self):
        geom = F.CtGeometry(grid_nx=4, grid_ny=4, pixel_size=0.5, n_angles=2, n_detectors=10)
        p = F.build_projector(geom)
        sums = p.row_sums()
        # axis-aligned views with span = diagonal must have off-grid detectors
        assert (sums == 0).any()
        assert (sums > 0).any()

    @pytest.mark.parametrize("name", ORACLE_GEOMETRIES)
    def test_matches_per_ray_loop_bitwise(self, name):
        geom = ORACLE_GEOMETRIES[name]
        got, ref = F.build_projector(geom)._csr, build_projector_loop(geom)._csr
        assert got.shape == ref.shape
        assert got.has_canonical_format and ref.has_canonical_format
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(ref, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr

    def test_oracle_geometries_reach_the_edge_cases(self):
        def row_sums(name):
            return F.build_projector(ORACLE_GEOMETRIES[name]).row_sums()

        assert (row_sums("wide-span") == 0).any()
        assert (row_sums("narrow-span") > 0).all()
        # angle 1 of 4 is 45 degrees; detector 3 of 7 runs along the diagonal
        assert row_sums("corner-grazing")[1 * 7 + 3] == pytest.approx(
            6 * 0.5 * math.sqrt(2.0), rel=1e-12
        )

    @pytest.mark.parametrize("span", [math.inf, 0.0, -2.0, math.nan])
    def test_detector_span_must_be_positive_and_finite(self, span):
        with pytest.raises(ValueError, match="detector_span"):
            F.CtGeometry(detector_span=span)

    def test_geometry_whose_rays_all_miss_rejected(self):
        with pytest.raises(ValueError, match="no ray crosses the grid"):
            F.CtGeometry(grid_nx=5, grid_ny=5, n_detectors=4, detector_span=1e160)
        # the outer rays of each view miss, the inner ones cross
        geom = F.CtGeometry(grid_nx=5, grid_ny=5, pixel_size=0.4, n_detectors=4, detector_span=4.0)
        assert 0 < (F.build_projector(geom).row_sums() > 0).sum() < geom.n_rays

    def test_adjoint_identity(self, tiny_setup):
        _, projector, _, _ = tiny_setup
        rng = np.random.default_rng(1)
        x = rng.standard_normal(projector.cols)
        r = rng.standard_normal(projector.rows)
        lhs = float(projector.matvec(x) @ r)
        rhs = float(x @ projector.rmatvec(r))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestSpectralModel:
    def test_partition_sums_to_one_exactly(self, small_model):
        total = small_model.window_weights.sum(axis=0)
        assert np.array_equal(total, np.ones_like(total))

    def test_zero_blur_gives_crisp_indicators(self):
        model = F.build_spectral_model(n_energies=24, window_blur_kev=0.0)
        weights = model.window_weights
        assert set(np.unique(weights)) <= {0.0, 1.0}
        assert np.array_equal(weights.sum(axis=0), np.ones(24))

    def test_single_window_is_beam_density(self):
        model = F.build_spectral_model(n_energies=24, n_windows=1)
        assert np.array_equal(model.response[0], model.beam)

    def test_beam_normalized_to_total_photons(self, small_model):
        assert small_model.beam.sum() == pytest.approx(1e6, rel=1e-12)

    def test_gadolinium_k_edge_jump_in_table(self):
        energies, curves = F.load_attenuation_table()
        gad = curves["gadolinium"]
        near_edge = (energies >= 45) & (energies <= 55)
        idx = np.where(near_edge)[0]
        jumps = np.diff(gad[idx])
        assert jumps.max() > 0, "tabulated curve must jump upward near 50 keV"
        # and the jump dominates: larger than any local decrease magnitude
        assert jumps.max() > np.abs(jumps[jumps < 0]).max(initial=0.0)

    def test_unknown_material_rejected(self):
        with pytest.raises(ValueError, match="unknown material"):
            F.build_spectral_model(materials=("pmma", "unobtanium", "aluminum"))

    def test_nonincreasing_thresholds_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            F.build_spectral_model(window_thresholds=[60.0, 50.0])

    def test_threshold_count_must_match_windows(self):
        with pytest.raises(ValueError, match="does not match"):
            F.build_spectral_model(n_windows=3, window_thresholds=[55.0])

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            (dict(energy_min=120.0, energy_max=20.0), "energy_min and energy_max"),
            (dict(energy_min=-1.0), "energy_min and energy_max"),
            (dict(energy_max=math.inf), "energy_min and energy_max"),
            (dict(n_energies=0), "n_energies"),
            (dict(n_windows=0), "n_windows"),
            (dict(window_blur_kev=-1.0), "window_blur_kev"),
            (dict(window_blur_kev=math.inf), "window_blur_kev"),
            (dict(total_photons=0.0), "total_photons"),
            (dict(total_photons=math.inf), "total_photons"),
            (dict(total_photons=math.nan), "total_photons"),
        ],
    )
    def test_scalar_arguments_checked_before_tables(self, tmp_path, kwargs, named):
        # The table path does not exist: the argument check comes first.
        with pytest.raises(ValueError, match=named):
            F.build_spectral_model(attenuation_path=str(tmp_path / "missing.txt"), **kwargs)


class TestForwardCounts:
    def test_empty_image_means_are_full_beam(self, small_model):
        geom = F.CtGeometry(grid_nx=3, grid_ny=3, pixel_size=0.5, n_angles=3, n_detectors=3)
        projector = F.build_projector(geom)
        means = expected_counts(small_model, projector, np.zeros((9, 3)))
        per_window = small_model.response.sum(axis=1)
        assert np.allclose(means, per_window[:, None], rtol=1e-12)

    def test_single_material_single_energy_exponential(self):
        geom = F.CtGeometry(grid_nx=2, grid_ny=2, pixel_size=1.0, n_angles=2, n_detectors=2)
        projector = F.build_projector(geom)
        model = F.SpectralModel(
            energies=np.array([60.0]),
            mu=np.array([[1.0]]),
            window_weights=np.ones((1, 1)),
            beam=np.array([1000.0]),
            materials=("m",),
        )
        image = np.full((4, 1), 0.3)
        means = expected_counts(model, projector, image)
        proj = projector.matmat(image)[:, 0]
        assert np.allclose(means[0], 1000.0 * np.exp(-proj), rtol=1e-12)

    def test_poisson_moment(self):
        model = F.SpectralModel(
            energies=np.array([60.0]),
            mu=np.array([[0.0]]),
            window_weights=np.ones((1, 1)),
            beam=np.array([100.0]),
            materials=("m",),
        )
        geom = F.CtGeometry(grid_nx=1, grid_ny=1, pixel_size=1.0, n_angles=100, n_detectors=100)
        projector = F.build_projector(geom)
        counts = F.forward_counts(model, projector, np.zeros((1, 1)), seed=99)
        draws = counts.ravel().astype(float)
        # mean 100 each; 10^4 draws
        assert abs(draws.mean() - 100.0) <= 4.0 * math.sqrt(100.0 / draws.size)

    def test_seeded_reproducibility(self, small_model, tiny_setup):
        geom, projector, image, counts = tiny_setup
        again = F.forward_counts(small_model, projector, image, seed=2)
        assert np.array_equal(counts, again)
        assert counts.dtype.kind == "i"
        assert counts.min() >= 0

    def test_shape_mismatch_rejected(self, small_model, tiny_setup):
        _, projector, _, _ = tiny_setup
        with pytest.raises(ValueError, match="shape"):
            F.forward_counts(small_model, projector, np.zeros((5, 3)), seed=0)


class TestLossParts:
    def test_value_at_zero(self, small_model, tiny_setup):
        _, projector, _, counts = tiny_setup
        y0 = np.zeros((projector.rows, 3))
        parts = F.ct_loss_parts(small_model, y0, counts, want_grad=False)
        total_response = small_model.response.sum()
        assert parts.g_c == pytest.approx(projector.rows * total_response / 1.0, rel=1e-12)
        per_window = small_model.response.sum(axis=1)
        expected_gd = -(counts * np.log(per_window)[:, None]).sum()
        assert parts.g_d == pytest.approx(expected_gd, rel=1e-12)

    def test_gradients_match_finite_differences(self, small_model, tiny_setup):
        check_gradients_by_finite_differences(small_model, tiny_setup[3], seed=12)

    def test_per_ray_hessians_psd(self, small_model, tiny_setup):
        _, projector, _, _ = tiny_setup
        rng = np.random.default_rng(13)
        y = rng.standard_normal((projector.rows, 3))
        for block in ct_hessian_blocks(small_model, y):
            eigs = np.linalg.eigvalsh(0.5 * (block + block.T))
            assert eigs[0] >= -1e-8 * max(1.0, abs(eigs[-1]))

    def test_convexity_witness(self, small_model, tiny_setup):
        _, projector, _, counts = tiny_setup
        rng = np.random.default_rng(14)
        for _ in range(20):
            y1 = rng.standard_normal((projector.rows, 3))
            y2 = rng.standard_normal((projector.rows, 3))
            lam = rng.uniform(0.05, 0.95)
            mid = F.ct_loss_parts(small_model, lam * y1 + (1 - lam) * y2, counts, want_grad=False)
            f1 = F.ct_loss_parts(small_model, y1, counts, want_grad=False)
            f2 = F.ct_loss_parts(small_model, y2, counts, want_grad=False)
            bound = lam * f1.g_c + (1 - lam) * f2.g_c
            assert mid.g_c <= bound + 1e-10 * max(1.0, abs(bound))

    def test_matches_straight_line_loss_formula(self, small_model, tiny_setup):
        # The beam enters after the energy contraction; this pins it.
        _, projector, _, counts = tiny_setup
        rng = np.random.default_rng(15)
        y = rng.standard_normal((projector.rows, 3))
        # the second y is all negative, so every t = -mu.y > 0: qexp's Taylor branch
        for y in (y, -np.abs(y)):
            value_only = F.ct_loss_parts(small_model, y, counts, want_grad=False)
            full = F.ct_loss_parts(small_model, y, counts)
            assert value_only.value == pytest.approx(
                straight_line_loss(small_model, y, counts), rel=1e-10
            )
            assert (value_only.g_c, value_only.g_d) == (full.g_c, full.g_d)
        assert (y @ -small_model.mu > 0).all()

    def test_qexp_equals_exp_for_nonnegative_projections(self, small_model, tiny_setup):
        _, projector, image, counts = tiny_setup
        rng = np.random.default_rng(16)
        y = np.abs(rng.standard_normal((projector.rows, 3)))
        means_qexp = None
        # exact-exp means computed directly
        trans = np.exp(-(y @ small_model.mu))
        means_exp = small_model.response @ trans.T
        val, _, _ = __import__("ncadmm.prox", fromlist=["qexp"]).qexp(-(y @ small_model.mu))
        means_qexp = small_model.response @ val.T
        assert np.array_equal(means_exp, means_qexp)


class TestPhantomIO:
    def test_default_phantom_fractions(self):
        geom = F.CtGeometry()
        image = F.default_phantom(geom)
        assert image.shape == (625, 3)
        assert image.min() >= 0.0 and image.max() <= 1.0
        assert image.sum(axis=1).max() <= 1.0 + 1e-12
        assert (image[:, m].sum() > 0 for m in range(3))

    def test_round_trip(self, tmp_path):
        geom = F.CtGeometry(grid_nx=5, grid_ny=4, pixel_size=0.5, n_angles=3, n_detectors=3)
        rng = np.random.default_rng(3)
        image = rng.random((20, 3))
        path = tmp_path / "phantom.txt"
        save_phantom(path, image, geom)
        again = F.load_phantom(path, geom, 3)
        assert np.array_equal(image, again)
