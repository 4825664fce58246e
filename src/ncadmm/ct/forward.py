"""Spectral photon-counting CT forward model.

Parallel-beam 2-D geometry with an exact ray/pixel intersection-length
projector, a beam spectrum split into blurry energy windows, tabulated
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
from ..prox import qexp

__all__ = [
    "CtGeometry",
    "SpectralModel",
    "LossParts",
    "build_projector",
    "build_spectral_model",
    "bundled_data_path",
    "load_attenuation_table",
    "load_spectrum_table",
    "default_phantom",
    "save_phantom",
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
            raise ValueError("geometry counts must be positive")
        if self.pixel_size <= 0:
            raise ValueError("pixel_size must be positive")

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


def _ray_pixel_lengths(geom: CtGeometry, origin, direction):
    """Exact intersection lengths of one ray with every pixel it crosses.

    Walks the sorted gridline crossings; each segment is assigned to the
    pixel containing its midpoint, which makes boundaries half-open
    (lower/left inclusive) without epsilon nudging.
    """
    ox, oy = origin
    dx, dy = direction
    half_w, half_h = geom.width / 2, geom.height / 2
    p = geom.pixel_size

    t_lo, t_hi = -np.inf, np.inf
    for o, d, lo, hi in ((ox, dx, -half_w, half_w), (oy, dy, -half_h, half_h)):
        if d == 0.0:
            if not (lo <= o <= hi):
                return [], []
        else:
            t0, t1 = (lo - o) / d, (hi - o) / d
            if t0 > t1:
                t0, t1 = t1, t0
            t_lo, t_hi = max(t_lo, t0), min(t_hi, t1)
    if not t_hi > t_lo:
        return [], []

    crossings = [t_lo, t_hi]
    for o, d, lo, n in ((ox, dx, -half_w, geom.grid_nx), (oy, dy, -half_h, geom.grid_ny)):
        if d != 0.0:
            ts = (lo + np.arange(1, n) * p - o) / d
            crossings.extend(ts[(ts > t_lo) & (ts < t_hi)])
    ts = np.unique(np.asarray(crossings))

    # Accumulate per pixel: corner-grazing roundoff can split one crossing
    # into adjacent segments that land in the same pixel.
    acc: dict[int, float] = {}
    for t0, t1 in zip(ts[:-1], ts[1:]):
        seg = t1 - t0
        if seg <= 0.0:
            continue
        tm = 0.5 * (t0 + t1)
        ix = int(math.floor((ox + tm * dx + half_w) / p))
        iy = int(math.floor((oy + tm * dy + half_h) / p))
        if 0 <= ix < geom.grid_nx and 0 <= iy < geom.grid_ny:
            key = ix * geom.grid_ny + iy
            acc[key] = acc.get(key, 0.0) + seg
    return list(acc.keys()), list(acc.values())


def build_projector(geom: CtGeometry) -> SparseMatrix:
    """Ray/pixel intersection-length matrix, (n_rays x n_pixels), in cm.

    Ray index is angle-major: ray = angle * n_detectors + detector. Rays
    missing the grid produce all-zero rows.
    """
    rows, cols, vals = [], [], []
    span = geom.span
    for a in range(geom.n_angles):
        theta = math.pi * a / geom.n_angles
        d = (math.cos(theta), math.sin(theta))
        e = (-math.sin(theta), math.cos(theta))
        for j in range(geom.n_detectors):
            s = (j + 0.5) * span / geom.n_detectors - span / 2
            origin = (s * e[0], s * e[1])
            pix, lens = _ray_pixel_lengths(geom, origin, d)
            ray = a * geom.n_detectors + j
            rows.extend([ray] * len(pix))
            cols.extend(pix)
            vals.extend(lens)
    return SparseMatrix(geom.n_rays, geom.n_pixels, rows, cols, vals)


# ---------------------------------------------------------------------------
# Spectral model


@dataclass(frozen=True)
class SpectralModel:
    """Beam spectrum, energy windows, and attenuation curves on one energy grid.

    The per-(window, ray, energy) response factors as
    ray_scale[ray] * window_weights[window, energy] * beam[energy],
    with window weight columns summing to 1 exactly (the last window is
    the complement of the others) and beam summing to the total photon count.
    """

    energies: np.ndarray        # (n_i,) bin centers, keV
    mu: np.ndarray              # (n_m, n_i), 1/cm at unit material fraction
    window_weights: np.ndarray  # (n_w, n_i)
    beam: np.ndarray            # (n_i,) photons per bin
    materials: tuple
    ray_scale: np.ndarray | None = None  # (n_rays,), default all-ones

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

    def scales(self, n_rays: int) -> np.ndarray:
        if self.ray_scale is None:
            return np.ones(n_rays)
        if self.ray_scale.size != n_rays:
            raise ValueError("ray_scale length does not match the ray count")
        return self.ray_scale

    def restrict_rays(self, mask: np.ndarray) -> "SpectralModel":
        scale = None if self.ray_scale is None else self.ray_scale[mask]
        return SpectralModel(
            energies=self.energies,
            mu=self.mu,
            window_weights=self.window_weights,
            beam=self.beam,
            materials=self.materials,
            ray_scale=scale,
        )


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
        raise ValueError("window thresholds must be strictly increasing")
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
    materials=DEFAULT_MATERIALS,
    energy_min: float = 20.0,
    energy_max: float = 120.0,
    n_energies: int = 100,
    n_windows: int = 3,
    window_thresholds=None,
    window_blur_kev: float = 4.0,
    total_photons: float = 1e6,
    attenuation_path=None,
    spectrum_path=None,
    ray_scale=None,
) -> SpectralModel:
    """Assemble the spectral model from the bundled (or supplied) tables.

    The energy grid is `n_energies` uniform bin centers on
    [energy_min, energy_max]; the beam is normalized to `total_photons`
    across the grid. Default thresholds split the beam into equal-count
    windows (quantiles of the beam distribution).
    """
    if n_energies < 1:
        raise ValueError("n_energies must be positive")
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
        raise ValueError("threshold count does not match the window count")

    scale = None if ray_scale is None else np.asarray(ray_scale, dtype=float)
    return SpectralModel(
        energies=energies,
        mu=mu,
        window_weights=weights,
        beam=beam,
        materials=tuple(materials),
        ray_scale=scale,
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


def save_phantom(path, image: np.ndarray, geom: CtGeometry, materials=DEFAULT_MATERIALS) -> None:
    """Text grids of material fractions, one block per material, row-major."""
    image = np.asarray(image, dtype=float)
    with open(path, "w") as fh:
        for m, name in enumerate(materials):
            fh.write(f"# material {name}\n")
            grid = image[:, m].reshape(geom.grid_nx, geom.grid_ny)
            for row in grid:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
            fh.write("\n")


def load_phantom(path, geom: CtGeometry) -> np.ndarray:
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
    return np.stack([g.ravel() for g in grids], axis=1)


# ---------------------------------------------------------------------------
# Forward counts and the loss


def forward_counts(
    model: SpectralModel, projector: SparseMatrix, image: np.ndarray, seed: int
) -> np.ndarray:
    """Sample Poisson counts (n_windows x n_rays) for the given phantom.

    Uses the exact exponential (not its quadratic splice): the phantom is
    nonnegative, so the attenuation exponent never goes positive.
    """
    image = np.asarray(image, dtype=float)
    if image.shape != (projector.cols, model.n_materials):
        raise ValueError("image shape does not match projector/model")
    proj = projector.matmat(image)                      # (n_rays, n_m)
    trans = np.exp(-(proj @ model.mu))                  # (n_rays, n_i)
    scale = model.scales(projector.rows)
    means = scale[None, :] * (model.response @ trans.T)  # (n_w, n_rays)
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


def ct_loss_parts(
    model: SpectralModel,
    y: np.ndarray,
    counts: np.ndarray,
    want_grad: bool = True,
) -> LossParts:
    """Split loss at projections y (n_rays x n_m): convex part, concave part.

    g_c(y) sums response * qexp(-mu.y) over windows, rays, energies; g_d(y) is
    -sum counts * log(window mean). Gradients chain through the first
    derivative of the spliced exponential.
    """
    y = np.asarray(y, dtype=float)
    counts = np.asarray(counts, dtype=float)
    n_rays = y.shape[0]
    if y.shape != (n_rays, model.n_materials):
        raise ValueError("y must be (n_rays, n_materials)")
    if counts.shape != (model.n_windows, n_rays):
        raise ValueError("counts must be (n_windows, n_rays)")
    scale = model.scales(n_rays)

    exponent = -(y @ model.mu)                           # (n_rays, n_i)
    val, d1, _ = qexp(exponent)
    sb = model.response                                  # (n_w, n_i)
    means = scale[None, :] * (sb @ val.T)                # (n_w, n_rays)
    if means.min() <= 0:
        raise ValueError("nonpositive window mean; cannot take its log")

    beam_w = scale[:, None] * model.beam[None, :]        # (n_rays, n_i)
    g_c = float((val * beam_w).sum())
    g_d = float(-(counts * np.log(means)).sum())

    grad_c = grad_d = None
    if want_grad:
        grad_c = -(d1 * beam_w) @ model.mu.T
        ratio = counts / means                           # (n_w, n_rays)
        w_d = scale[:, None] * (ratio.T @ sb)            # (n_rays, n_i)
        grad_d = (d1 * w_d) @ model.mu.T
    return LossParts(g_c=g_c, g_d=g_d, grad_c=grad_c, grad_d=grad_d)
