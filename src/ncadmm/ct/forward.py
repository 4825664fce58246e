"""Spectral photon-counting CT forward model.

Parallel-beam 2-D geometry with an exact ray/pixel intersection-length
projector (Siddon's gridline-crossing walk, vectorized over the rays of each
view; a segment belongs to the pixel holding its midpoint), a beam spectrum
split into blurry energy windows, tabulated
attenuation curves per material, Poisson count sampling, and the
quadratically-tamed negative log-likelihood with its gradient.

Images are (n_pixels, n_materials) arrays of material fractions; projections
live in (n_rays, n_materials) arrays; counts in (n_windows, n_rays) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..numerics import SparseMatrix
# qexp stays importable from here because the benchmark's tracer patches
# forward.qexp by name; the loss forms the same values in its work arrays.
from ..prox import qexp

__all__ = [
    "CtGeometry",
    "SpectralModel",
    "LossParts",
    "CtLoss",
    "ray_blocks",
    "build_projector",
    "build_spectral_model",
    "bundled_data_path",
    "load_attenuation_table",
    "load_spectrum_table",
    "default_phantom",
    "make_phantom",
    "load_phantom",
    "forward_counts",
    "ct_loss_parts",
]

DEFAULT_MATERIALS = ("pmma", "aluminum", "gadolinium")


@dataclass(frozen=True)
class CtGeometry:
    """Parallel-beam scan geometry over a centered pixel grid.

    Angles are spaced evenly over [0, pi); detectors are spaced evenly across
    `detector_span` (default: the grid diagonal, so every view covers the
    whole object) centered on the grid.
    """

    grid_nx: int = 25
    grid_ny: int = 25
    pixel_size: float = 0.4  # cm
    n_angles: int = 50
    n_detectors: int = 50
    detector_span: float | None = None

    def __post_init__(self):
        if min(self.grid_nx, self.grid_ny, self.n_angles, self.n_detectors) <= 0:
            raise ValueError("grid_nx/grid_ny/n_angles/n_detectors must be positive")
        if not 0.0 < self.pixel_size < math.inf:
            raise ValueError(f"pixel_size must be positive and finite, got {self.pixel_size}")
        if not math.isfinite(self.width * self.width + self.height * self.height):
            raise ValueError(
                f"pixel_size {self.pixel_size} is too large: the squared grid extent overflows"
            )
        span = self.detector_span
        if span is not None and not 0.0 < span < math.inf:
            raise ValueError(f"detector_span must be positive and finite, got {span}")
        if not any(_view_chords(self, a)[-1].any() for a in range(self.n_angles)):
            raise ValueError(
                f"no ray crosses the grid: all n_detectors = {self.n_detectors} rays of "
                f"every view, spread over detector_span = {self.span}, miss it"
            )

    @property
    def n_pixels(self) -> int:
        return self.grid_nx * self.grid_ny

    @property
    def n_rays(self) -> int:
        return self.n_angles * self.n_detectors

    @property
    def width(self) -> float:
        return self.grid_nx * self.pixel_size

    @property
    def height(self) -> float:
        return self.grid_ny * self.pixel_size

    @property
    def span(self) -> float:
        if self.detector_span is not None:
            return self.detector_span
        return math.hypot(self.width, self.height)

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        xs = (np.arange(self.grid_nx) + 0.5) * self.pixel_size - self.width / 2
        ys = (np.arange(self.grid_ny) + 0.5) * self.pixel_size - self.height / 2
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return gx.ravel(), gy.ravel()


def _view_chords(geom: CtGeometry, a: int):
    """The parallel rays of view `a`, one per detector.

    Returns the direction, the origins (one array per axis), the entry and
    exit parameters t_lo, t_hi, the parameters of each ray's crossings of
    the interior gridlines (one array per axis the rays are not parallel
    to), and which rays cross the grid (t_hi > t_lo, or, along an axis the
    rays are parallel to, an origin within the grid's extent).
    """
    half_w, half_h, p = geom.width / 2, geom.height / 2, geom.pixel_size
    span, n_det = geom.span, geom.n_detectors
    s = (np.arange(n_det) + 0.5) * span / n_det - span / 2
    bounds = ((-half_w, half_w), (-half_h, half_h))
    gridlines = (
        -half_w + np.arange(1, geom.grid_nx) * p,
        -half_h + np.arange(1, geom.grid_ny) * p,
    )
    theta = math.pi * a / geom.n_angles
    direction = (math.cos(theta), math.sin(theta))
    origin = (s * -math.sin(theta), s * math.cos(theta))
    hit = np.ones(n_det, dtype=bool)
    t_lo, t_hi = np.full(n_det, -np.inf), np.full(n_det, np.inf)
    lines = []
    for o, d, (lo, hi), grid in zip(origin, direction, bounds, gridlines):
        if d == 0.0:
            hit &= (lo <= o) & (o <= hi)
        else:
            t0, t1 = (lo - o) / d, (hi - o) / d
            np.maximum(t_lo, np.minimum(t0, t1), out=t_lo)
            np.minimum(t_hi, np.maximum(t0, t1), out=t_hi)
            lines.append((grid - o[:, None]) / d)
    hit &= t_hi > t_lo
    return direction, origin, t_lo, t_hi, lines, hit


def build_projector(geom: CtGeometry) -> SparseMatrix:
    """Ray/pixel intersection-length matrix, (n_rays x n_pixels), in cm.

    Ray index is angle-major: ray = angle * n_detectors + detector. Rays
    missing the grid produce all-zero rows.

    The gridline-crossing walk of Siddon (1985), vectorized over the parallel
    rays of one view: row j of a (n_detectors, nx + ny) array holds ray j's
    entry and exit parameters and its crossings of the interior gridlines
    (those before the entry or after the exit replaced by the exit), sorted.
    Each segment between consecutive crossings goes to the pixel containing
    its midpoint, which
    makes pixel boundaries half-open (lower/left inclusive) without epsilon
    nudging; a crossing of two gridlines at once repeats a parameter and
    gives a zero-length segment, which is dropped, as are the segments of
    rays that miss the grid (rows set to zero). Corner-grazing roundoff
    can split one crossing into adjacent segments in the same pixel; those
    are summed in walk order. Each view's entries are summed and ordered on
    their own, and the CSR arrays are joined once at the end.
    """
    nx, ny, p = geom.grid_nx, geom.grid_ny, geom.pixel_size
    half_w, half_h = geom.width / 2, geom.height / 2
    n_det = geom.n_detectors
    counts, cols, lengths = [], [], []
    for a in range(geom.n_angles):
        direction, origin, t_lo, t_hi, lines, hit = _view_chords(geom, a)
        ts = np.concatenate([t_lo[:, None], t_hi[:, None], *lines], axis=1)
        inner = ts[:, 2:]
        outside = ~((inner > t_lo[:, None]) & (inner < t_hi[:, None]))
        np.copyto(inner, t_hi[:, None], where=outside)
        ts[~hit] = 0.0
        ts.sort(axis=1)

        seg = ts[:, 1:] - ts[:, :-1]
        ray, k = np.nonzero(seg > 0.0)
        seg = seg[ray, k]
        tm = 0.5 * (ts[ray, k] + ts[ray, k + 1])
        ix = np.floor((origin[0][ray] + tm * direction[0] + half_w) / p)
        iy = np.floor((origin[1][ray] + tm * direction[1] + half_h) / p)
        inside = (0 <= ix) & (ix < nx) & (0 <= iy) & (iy < ny)
        pixel = ix[inside].astype(np.int64) * ny + iy[inside].astype(np.int64)
        # The view's (ray, pixel) keys, each once and in order; bincount sums
        # a key's segments in walk order.
        keys, where = np.unique(ray[inside] * geom.n_pixels + pixel, return_inverse=True)
        lengths.append(np.bincount(where, weights=seg[inside]))
        counts.append(np.bincount(keys // geom.n_pixels, minlength=n_det))
        cols.append(keys % geom.n_pixels)

    indptr = np.append(0, np.cumsum(np.concatenate(counts)))
    return SparseMatrix(
        geom.n_rays, geom.n_pixels, indptr, np.concatenate(cols), np.concatenate(lengths)
    )


# ---------------------------------------------------------------------------
# Spectral model


@dataclass(frozen=True)
class SpectralModel:
    """Beam spectrum, energy windows, and attenuation curves on one energy grid.

    The per-(window, energy) response factors as
    window_weights[window, energy] * beam[energy], the same for every ray,
    with window weight columns summing to 1 exactly (the last window is
    the complement of the others) and beam summing to the total photon count.
    """

    energies: np.ndarray        # (n_i,) bin centers, keV
    mu: np.ndarray              # (n_m, n_i), 1/cm at unit material fraction
    window_weights: np.ndarray  # (n_w, n_i)
    beam: np.ndarray            # (n_i,) photons per bin
    materials: tuple

    @property
    def n_energies(self) -> int:
        return self.energies.size

    @property
    def n_materials(self) -> int:
        return self.mu.shape[0]

    @property
    def n_windows(self) -> int:
        return self.window_weights.shape[0]

    @property
    def response(self) -> np.ndarray:
        """(n_w, n_i) window response: window weight times beam density."""
        return self.window_weights * self.beam

    def restrict_rays(self, mask: np.ndarray) -> "SpectralModel":
        """The model itself, which holds nothing per ray. Kept only because
        the `ct-paper` workload in perfbench/workloads.py still calls it
        after dropping the rays that miss the grid."""
        return self


def bundled_data_path(name: str):
    return resources.files("ncadmm.ct") / "data" / name


def _read_table(path) -> tuple[list[str], np.ndarray]:
    names = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if names is None:
                names = line.split()
                continue
            rows.append([float(tok) for tok in line.split()])
    if names is None or not rows:
        raise ValueError(f"empty table file: {path}")
    return names, np.asarray(rows)


def load_attenuation_table(path=None) -> tuple[np.ndarray, dict]:
    """Parse 'energy_keV mu_<material>...' rows; returns (energies, {material: mu})."""
    if path is None:
        path = bundled_data_path("attenuation.txt")
    names, data = _read_table(path)
    if names[0] != "energy_keV" or not all(n.startswith("mu_") for n in names[1:]):
        raise ValueError("attenuation table header must be 'energy_keV mu_<material>...'")
    energies = data[:, 0]
    curves = {name[3:]: data[:, i + 1] for i, name in enumerate(names[1:])}
    return energies, curves


def load_spectrum_table(path=None) -> tuple[np.ndarray, np.ndarray]:
    """Parse 'energy_keV density' rows."""
    if path is None:
        path = bundled_data_path("spectrum.txt")
    names, data = _read_table(path)
    if names != ["energy_keV", "density"]:
        raise ValueError("spectrum header must be 'energy_keV density'")
    return data[:, 0], data[:, 1]


def _window_weights(energies, thresholds, blur_kev):
    """Blurry partition of the energy axis: telescoped logistic transitions.

    Each threshold contributes a rising transition; windows are differences of
    consecutive transitions, and the last window is the complement, so the
    weights sum to 1 exactly at every energy. blur_kev is the width of the
    transition (central slope 1/blur); 0 gives crisp indicators.
    """
    thresholds = list(thresholds)
    if any(t1 >= t2 for t1, t2 in zip(thresholds, thresholds[1:])):
        raise ValueError("window_thresholds must be strictly increasing")
    n_w = len(thresholds) + 1
    rising = np.empty((len(thresholds), energies.size))
    for k, thr in enumerate(thresholds):
        if blur_kev == 0.0:
            rising[k] = (energies >= thr).astype(float)
        else:
            rising[k] = 1.0 / (1.0 + np.exp(-(energies - thr) / (blur_kev / 4.0)))
    # Quantize transitions to a 2^-30 lattice: lattice differences and their
    # sums are exact in double precision, so the weights sum to 1.0 bitwise
    # in any summation order.
    rising = np.round(rising * 2.0**30) / 2.0**30
    weights = np.empty((n_w, energies.size))
    prev = np.ones(energies.size)
    for k in range(len(thresholds)):
        weights[k] = prev - rising[k]
        prev = rising[k]
    weights[n_w - 1] = prev
    if weights.min() < 0:
        raise ValueError("window weights must be nonnegative; check threshold spacing")
    return weights


def build_spectral_model(
    materials: tuple[str, ...] = DEFAULT_MATERIALS,
    energy_min: float = 20.0,
    energy_max: float = 120.0,
    n_energies: int = 100,
    n_windows: int = 3,
    window_thresholds: tuple[float, ...] | None = None,
    window_blur_kev: float = 4.0,
    total_photons: float = 1e6,
    attenuation_path: str | None = None,
    spectrum_path: str | None = None,
) -> SpectralModel:
    """Assemble the spectral model from the bundled (or supplied) tables.

    The energy grid is `n_energies` uniform bin centers on
    [energy_min, energy_max]; the beam is normalized to `total_photons`
    across the grid. Default thresholds split the beam into equal-count
    windows (quantiles of the beam distribution). The scalar arguments are
    checked before any table is read.
    """
    if not 0.0 <= energy_min < energy_max < math.inf:
        raise ValueError(
            f"energy_min and energy_max must satisfy 0 <= energy_min < energy_max < inf, "
            f"got {energy_min} and {energy_max}"
        )
    if n_energies < 1:
        raise ValueError("n_energies must be positive")
    if n_windows < 1:
        raise ValueError("n_windows must be positive")
    if not 0.0 <= window_blur_kev < math.inf:
        raise ValueError(f"window_blur_kev must be nonnegative and finite, got {window_blur_kev}")
    if not 0.0 < total_photons < math.inf:
        raise ValueError(f"total_photons must be positive and finite, got {total_photons}")
    edges = np.linspace(energy_min, energy_max, n_energies + 1)
    energies = 0.5 * (edges[:-1] + edges[1:])

    tab_e, tab_d = load_spectrum_table(spectrum_path)
    beam = np.maximum(np.interp(energies, tab_e, tab_d), 0.0)
    total = beam.sum()
    if total <= 0:
        raise ValueError("beam spectrum vanishes on the requested energy grid")
    beam = beam * (total_photons / total)

    att_e, curves = load_attenuation_table(attenuation_path)
    mu = np.empty((len(materials), energies.size))
    for m, name in enumerate(materials):
        if name not in curves:
            raise ValueError(f"unknown material {name!r}; table has {sorted(curves)}")
        mu[m] = np.interp(energies, att_e, curves[name])
    if mu.min() < 0:
        raise ValueError("attenuation coefficients must be nonnegative")

    if window_thresholds is None:
        cdf = np.cumsum(beam) / beam.sum()
        window_thresholds = [
            float(np.interp(k / n_windows, cdf, energies)) for k in range(1, n_windows)
        ]
    weights = _window_weights(energies, window_thresholds, window_blur_kev)
    if weights.shape[0] != n_windows:
        raise ValueError("window_thresholds count does not match n_windows - 1")

    return SpectralModel(
        energies=energies,
        mu=mu,
        window_weights=weights,
        beam=beam,
        materials=tuple(materials),
    )


# ---------------------------------------------------------------------------
# Phantom


def default_phantom(geom: CtGeometry, materials=DEFAULT_MATERIALS) -> np.ndarray:
    """Disk phantom: a PMMA body with an aluminum insert and two contrast vials.

    Returns an (n_pixels, n_materials) array of material fractions in [0, 1];
    inserts displace the body material so per-pixel fractions stay physical.
    """
    if len(materials) != 3:
        raise ValueError("the default phantom is defined for three materials")
    gx, gy = geom.pixel_centers()
    w = min(geom.width, geom.height)

    def disk(cx, cy, radius):
        return (gx - cx * w) ** 2 + (gy - cy * w) ** 2 <= (radius * w) ** 2

    body = disk(0.0, 0.0, 0.43)
    insert = disk(-0.16, 0.12, 0.13)
    vial_a = disk(0.17, 0.14, 0.09)
    vial_b = disk(0.09, -0.19, 0.09)

    image = np.zeros((geom.n_pixels, 3))
    image[body, 0] = 1.0
    image[insert, 0] = 0.0
    image[insert, 1] = 1.0
    for vial in (vial_a, vial_b):
        image[vial, 0] = 0.0
        image[vial, 1] = 0.0
        image[vial, 2] = 1.0
    return image


def make_phantom(
    geom: CtGeometry, materials: tuple[str, ...] = DEFAULT_MATERIALS, phantom: str = "default"
) -> np.ndarray:
    """`default_phantom` for `phantom` = "default", else the phantom file at path `phantom`."""
    if phantom == "default":
        return default_phantom(geom, materials)
    return load_phantom(phantom, geom, len(materials))


def load_phantom(path, geom: CtGeometry, n_materials: int) -> np.ndarray:
    """Text grids of material fractions, one row-major block per material.

    Blocks are separated by blank lines; lines starting with '#' are skipped.
    Raises ValueError unless there are `n_materials` blocks of the grid's
    shape, with every fraction finite and nonnegative.
    """
    blocks = []
    current: list = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                continue
            if not line:
                if current:
                    blocks.append(current)
                    current = []
                continue
            current.append([float(tok) for tok in line.split()])
    if current:
        blocks.append(current)
    grids = [np.asarray(b) for b in blocks]
    for g in grids:
        if g.shape != (geom.grid_nx, geom.grid_ny):
            raise ValueError("phantom block shape does not match the geometry")
    if len(grids) != n_materials:
        raise ValueError(f"phantom has {len(grids)} blocks for {n_materials} materials")
    image = np.stack([g.ravel() for g in grids], axis=1)
    if not np.all(np.isfinite(image) & (image >= 0.0)):
        raise ValueError("phantom fractions must be finite and nonnegative")
    return image


# ---------------------------------------------------------------------------
# Forward counts and the loss


def forward_counts(
    model: SpectralModel, projector: SparseMatrix, image: np.ndarray, seed: int
) -> np.ndarray:
    """Sample Poisson counts (n_windows x n_rays) for the given phantom.

    The mean of window w on ray l is sum_i response[w, i] exp(-mu_i . p_l),
    p_l the ray's material projections. Uses the exact exponential (not its
    quadratic splice): the phantom is nonnegative, so the attenuation
    exponent never goes positive.
    """
    image = np.asarray(image, dtype=float)
    if image.shape != (projector.cols, model.n_materials):
        raise ValueError("image shape does not match projector/model")
    proj = projector.matmat(image)                      # (n_rays, n_m)
    response, means = model.response, np.empty((model.n_windows, proj.shape[0]))
    for rays in ray_blocks(proj.shape[0], model.n_energies):
        trans = proj[rays] @ model.mu                   # (rays, n_i), one block
        np.exp(np.negative(trans, out=trans), out=trans)
        np.matmul(response, trans.T, out=means[:, rays])
    if means.min() < 0:
        raise ValueError("negative Poisson mean")
    rng = np.random.default_rng(seed)
    return rng.poisson(means).astype(np.int64)


@dataclass
class LossParts:
    g_c: float
    g_d: float
    grad_c: np.ndarray | None = None
    grad_d: np.ndarray | None = None

    @property
    def value(self) -> float:
        return self.g_c + self.g_d

    @property
    def grad(self) -> np.ndarray:
        return self.grad_c + self.grad_d


# The loss, the Newton steps and the forward counts run their per-ray chain
# of passes one block of rays at a time, so that each pass finds the block's
# (rays x energies) arrays in the per-core L2 cache, where the last pass left
# them. Whole arrays at the paper geometry (2264 rays x 100 energies) are 1.8
# MB each: three live at once are more than a 2 MB L2, so every pass streamed
# them from L3. A block is 25 600 doubles, 200 KB, and the loss's three
# scratch arrays, the only (rays x energies) arrays of a step, take 600 KB.
# On a 2-core Xeon with 2 MB of L2 per core, the paper CT step took 5.75,
# 5.54, 5.96, 6.72 and 6.92 ms in blocks of 128, 256, 512, 1024 and all 2264
# rays at 100 energies.
BLOCK_ELEMENTS = 25_600


def ray_blocks(n_rays: int, n_energies: int) -> list[slice]:
    """Consecutive slices of `n_rays` rays, each of at most BLOCK_ELEMENTS
    (rays x energies) elements and at least one ray."""
    step = max(1, BLOCK_ELEMENTS // n_energies)
    return [slice(s, min(s + step, n_rays)) for s in range(0, n_rays, step)]


class CtLoss:
    """The split loss of one CT problem, evaluated in work arrays allocated once.

    Owns three scratch arrays of one block of rays (`ray_blocks`) by the
    energies, and no larger (rays x energies) array: t, which ends up
    holding the slope d2, the slope d1, and w, which holds qexp's value and
    then the gradient's weights. Each evaluation runs its whole chain, from
    t = -mu.y to the per-ray rows, one block at a time. One object serves
    every loss evaluation of a run (the gradient of g_d at y_t, the value at
    P x_{t+1}, the gradient the alpha diagnostic takes at y_{t+1}) and lends
    t and d1 to the per-ray Newton solve. A `parts` evaluation with the
    gradient also contracts d2 into the (ray, entry) rows of the Hessian of
    g_c and holds on to its point: its parts and Hessian rows are handed out
    again for a y equal to that point, and for no other y. Any other
    evaluation, `gradient` included, and one that fails, holds no point.
    `newton_ray_steps` and
    `newton_capped` count the work of the Newton solves that used its
    arrays: rays updated, summed over steps, and rays still moving when the
    step cap ended a solve.
    """

    def __init__(self, model: SpectralModel, counts: np.ndarray):
        counts = np.asarray(counts, dtype=float)
        if counts.ndim != 2 or counts.shape[0] != model.n_windows:
            raise ValueError("counts must be (n_windows, n_rays)")
        n_rays = counts.shape[1]
        self.model = model
        self.counts = counts
        self.neg_mu = -model.mu
        # The beam weights every energy term of g_c, so it is folded into the
        # attenuation rows once: the gradient rows -mu * beam, and the Hessian
        # rows mu_i * (beam * mu_j) over the lower triangle, row by row.
        mu_b = model.mu * model.beam
        self.neg_mu_b = -mu_b
        n_m = model.n_materials
        self.mu_pairs = np.stack([model.mu[i] * mu_b[j] for i in range(n_m) for j in range(i + 1)])
        first = ray_blocks(n_rays, model.n_energies)[:1]  # the largest block
        self.t, self.d1, self.w = np.empty((3, first[0].stop if first else 0, model.n_energies))
        self._at = np.empty((n_rays, model.n_materials))
        self._parts = None  # the parts at _at, formed with the gradient
        self._hess = None  # the Hessian rows of g_c at _at
        self.newton_ray_steps = 0
        self.newton_capped = 0

    def held_rows(self, y):
        """(grad_c, Hessian rows of g_c) at y if the last evaluation took the
        gradient at this y, else None. The caller must not write to them."""
        if self._parts is None or not np.array_equal(y, self._at):
            return None
        return self._parts.grad_c, self._hess

    def parts(self, y: np.ndarray, want_grad: bool = True) -> LossParts:
        """Split loss at projections y (n_rays x n_m): convex part, concave part.

        g_c(y) sums response * qexp(-mu.y) over windows, rays, energies;
        g_d(y) is -sum counts * log(window mean). Gradients chain through the
        first derivative of the spliced exponential; with want_grad=False they
        are not formed, and the values have the same bits. A nonpositive
        window mean raises ValueError.
        """
        y = self._point(y)
        if want_grad and self.held_rows(y) is not None:
            return self._parts
        return self._evaluate(y, want_grad, hold=want_grad)

    def gradient(self, y: np.ndarray) -> np.ndarray:
        """The gradient of g at y, the bits of `parts(y).grad`, for a point no
        step comes back to: it forms no Hessian rows and holds no point."""
        return self._evaluate(self._point(y), want_grad=True, hold=False).grad

    def _point(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != self._at.shape:
            raise ValueError("y must be (n_rays, n_materials)")
        return y

    def _evaluate(self, y: np.ndarray, want_grad: bool, hold: bool) -> LossParts:
        """The parts at y, formed afresh; with `hold`, also the Hessian rows,
        and y becomes the held point."""
        model = self.model
        sb = model.response                              # (n_w, n_i)
        n_rays = y.shape[0]
        self._parts = self._hess = None
        means = np.empty((model.n_windows, n_rays))
        ray_c = np.empty(n_rays)  # each ray's term of g_c
        if want_grad:
            grad_c, grad_d = np.empty(y.shape), np.empty(y.shape)
        if hold:
            hess = np.empty((n_rays, len(self.mu_pairs)))
        for rays in ray_blocks(n_rays, model.n_energies):
            t = np.matmul(y[rays], self.neg_mu, out=self.t[: rays.stop - rays.start])
            # qexp_slopes, with d2 written over t, and then qexp's value
            # d1 + (tp tp) 0.5 from tp = max(t, 0) formed once. The bits are
            # qexp's d1 + tp (0.5 tp) wherever tp tp is finite: the factor 0.5
            # is exact, and d1 >= 1 absorbs any subnormal tail of tp tp.
            val = np.maximum(t, 0.0, out=self.w[: len(t)])
            d2 = np.exp(np.minimum(t, 0.0, out=t), out=t)
            d1 = np.add(val, d2, out=self.d1[: len(t)])
            val *= val
            val *= 0.5
            val += d1
            block_means = np.matmul(sb, val.T, out=means[:, rays])
            if block_means.min() <= 0:
                raise ValueError("nonpositive window mean; cannot take its log")
            # The beam enters through the energy contraction, so no
            # (rays x energies) weight array is formed.
            np.matmul(val, model.beam, out=ray_c[rays])
            if want_grad:
                np.matmul(d1, self.neg_mu_b.T, out=grad_c[rays])
                if hold:
                    np.matmul(d2, self.mu_pairs.T, out=hess[rays])
                ratio = self.counts[:, rays] / block_means
                weighted = np.matmul(ratio.T, sb, out=val)
                weighted *= d1
                np.matmul(weighted, model.mu.T, out=grad_d[rays])
        g_c = float(ray_c.sum())
        g_d = float(-(self.counts * np.log(means)).sum())
        if not want_grad:
            return LossParts(g_c=g_c, g_d=g_d)
        parts = LossParts(g_c=g_c, g_d=g_d, grad_c=grad_c, grad_d=grad_d)
        if hold:
            np.copyto(self._at, y)
            self._parts, self._hess = parts, hess
        return parts


def ct_loss_parts(
    model: SpectralModel,
    y: np.ndarray,
    counts: np.ndarray,
    want_grad: bool = True,
) -> LossParts:
    """`CtLoss.parts` of a fresh evaluator: the split loss at y, once."""
    return CtLoss(model, counts).parts(y, want_grad)
