"""Patch-manifold image inpainting.

Every pixel becomes a point in patch space (its p_x x p_y neighborhood,
mirror-reflected at the borders). Sampled pixels carry their intensity as
a label; interpolation on the patch graph predicts the rest. Weights use
the quartic self-tuning kernel truncated to k nearest neighbors.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .graph import InvalidParameterError, PointCloud, self_tuning_weights
from .solver import LabelAssignment, SolverConfig, gl_solve, il_solve, wnll_solve


@dataclass(frozen=True)
class Image:
    """Grayscale intensity grid with values in [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2 or px.size == 0:
            raise InvalidParameterError("image must be a nonempty 2-D array")
        if not np.all(np.isfinite(px)):
            raise InvalidParameterError("image intensities must be finite")
        object.__setattr__(self, "pixels", px)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.pixels.shape

    def clamped(self) -> "Image":
        return Image(np.clip(self.pixels, 0.0, 255.0))


@dataclass(frozen=True)
class SampleMask:
    """Boolean mask of pixels with known intensity."""

    known: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.known, dtype=bool)
        if m.ndim != 2:
            raise InvalidParameterError("mask must be 2-D")
        if not m.any():
            raise InvalidParameterError("mask must contain at least one sampled pixel")
        object.__setattr__(self, "known", m)

    @classmethod
    def random(cls, shape, density: float, seed: int = 0) -> "SampleMask":
        if not 0 < density <= 1:
            raise InvalidParameterError("density must be in (0, 1]")
        rng = np.random.default_rng(seed)
        total = shape[0] * shape[1]
        count = max(1, int(round(density * total)))
        flat = rng.choice(total, size=count, replace=False)
        m = np.zeros(total, dtype=bool)
        m[flat] = True
        return cls(m.reshape(shape))

    @classmethod
    def from_csv(cls, path, shape) -> "SampleMask":
        coords = np.loadtxt(path, delimiter=",", dtype=int, ndmin=2)
        m = np.zeros(shape, dtype=bool)
        m[coords[:, 0], coords[:, 1]] = True
        return cls(m)

    def to_csv(self, path):
        r, c = np.nonzero(self.known)
        np.savetxt(path, np.column_stack([r, c]), delimiter=",", fmt="%d")


@dataclass
class InpaintConfig:
    method: str = "il"  # gl | wnll | il
    alpha: float = 0.0
    patch_size: Tuple[int, int] = (11, 11)
    k: int = 50
    k_sigma: int = 20
    outer_iters: int = 8
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.method not in ("gl", "wnll", "il"):
            raise InvalidParameterError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class PatchSet:
    """One patch vector per pixel, row-major over the image grid."""

    vectors: np.ndarray
    patch_size: Tuple[int, int]
    image_shape: Tuple[int, int]


def extract_patches(img: Image, p_x: int, p_y: int) -> PatchSet:
    """Patch of size p_x x p_y centered at every pixel, with mirror
    reflection across the nearest edge for out-of-range coordinates
    (index -t maps to t, index m-1+t maps to m-1-t)."""
    if p_x % 2 == 0 or p_y % 2 == 0 or p_x < 1 or p_y < 1:
        raise InvalidParameterError("patch dimensions must be odd positive integers")
    m, n = img.shape
    hx, hy = p_x // 2, p_y // 2
    padded = _reflect_pad(img.pixels, hx, hy)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (p_x, p_y))
    vectors = windows.reshape(m * n, p_x * p_y).copy()
    return PatchSet(vectors, (p_x, p_y), (m, n))


def _reflect_pad(arr, hx, hy):
    m, n = arr.shape
    if (m > 1 and hx > m - 1) or (n > 1 and hy > n - 1):
        raise InvalidParameterError("patch exceeds reflectable image size")
    ri = np.abs(np.arange(-hx, m + hx))
    ri = np.where(ri > m - 1, 2 * (m - 1) - ri, ri) if m > 1 else np.zeros(m + 2 * hx, dtype=int)
    ci = np.abs(np.arange(-hy, n + hy))
    ci = np.where(ci > n - 1, 2 * (n - 1) - ci, ci) if n > 1 else np.zeros(n + 2 * hy, dtype=int)
    return arr[np.ix_(ri, ci)]


def psnr(f: Image, f_star: Image) -> float:
    """20 log10(255 / rms difference); +inf for identical images."""
    if f.shape != f_star.shape:
        raise InvalidParameterError("image dimensions must match")
    mse = float(np.mean((f.pixels - f_star.pixels) ** 2))
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / math.sqrt(mse))


_SOLVERS = {"gl": gl_solve, "wnll": wnll_solve}


def _solve_on_patches(patches: PatchSet, intensities, mask: SampleMask,
                      cfg: InpaintConfig):
    graph = self_tuning_weights(PointCloud(patches.vectors), cfg.k, cfg.k_sigma)
    labeled = np.nonzero(mask.known.ravel())[0]
    labels = LabelAssignment(labeled, intensities.ravel()[labeled])
    scfg = replace(cfg.solver, alpha=cfg.alpha)
    if cfg.method == "il":
        u, _ = il_solve(graph, labels, scfg)
    else:
        u = _SOLVERS[cfg.method](graph, labels, scfg)
    return u.reshape(patches.image_shape)


def _finalize(values, img_known: Image, mask: SampleMask) -> Image:
    out = np.clip(values, 0.0, 255.0)
    out[mask.known] = img_known.pixels[mask.known]
    return Image(out)


def inpaint(img_known: Image, mask: SampleMask, cfg: InpaintConfig) -> Image:
    """Blind pipeline: fill unknowns with random values, then alternate
    weight construction from the current image with a solve."""
    if img_known.shape != mask.known.shape:
        raise InvalidParameterError("image and mask dimensions must match")
    rng = np.random.default_rng(cfg.seed)
    current = img_known.pixels.copy()
    unknown = ~mask.known
    current[unknown] = rng.uniform(0.0, 255.0, size=int(unknown.sum()))
    p_x, p_y = cfg.patch_size
    for _ in range(cfg.outer_iters):
        patches = extract_patches(Image(current), p_x, p_y)
        values = _solve_on_patches(patches, current, mask, cfg)
        current = _finalize(values, img_known, mask).pixels
    return Image(current)


def oracle_weight_inpaint(img_clear: Image, mask: SampleMask,
                          cfg: InpaintConfig) -> Image:
    """Single solve with weights built from clear-image patches."""
    if img_clear.shape != mask.known.shape:
        raise InvalidParameterError("image and mask dimensions must match")
    p_x, p_y = cfg.patch_size
    patches = extract_patches(img_clear, p_x, p_y)
    values = _solve_on_patches(patches, img_clear.pixels, mask, cfg)
    return _finalize(values, img_clear, mask)


def read_pgm(path) -> Image:
    """P2 (ASCII) and P5 (binary, maxval <= 255) readers."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pgm_tokens(data)
    magic = next(tokens)
    if magic == b"P2":
        width, height, maxval = (int(next(tokens)) for _ in range(3))
        vals = np.array([int(next(tokens)) for _ in range(width * height)], dtype=float)
    elif magic == b"P5":
        width, height, maxval = (int(next(tokens)) for _ in range(3))
        offset = tokens.send("offset")
        raw = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=offset)
        vals = raw.astype(float)
    else:
        raise InvalidParameterError(f"unsupported PNM magic {magic!r}")
    if maxval <= 0 or maxval > 255:
        raise InvalidParameterError("only 8-bit PGM is supported")
    return Image(vals.reshape(height, width))


def _pgm_tokens(data):
    """Yield whitespace-separated header tokens, skipping # comments.
    Sending 'offset' returns the byte offset just past the last token's
    single trailing whitespace (start of P5 raster)."""
    i = 0
    while True:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i < len(data) and data[i:i + 1] == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i:i + 1].isspace():
            i += 1
        if start == i:
            return
        req = yield data[start:i]
        if req == "offset":
            yield i + 1
            return


def write_pgm(img: Image, path, binary: bool = True):
    """Write 8-bit PGM; P5 round-trips bit-exactly for integer images."""
    px = np.clip(np.rint(img.pixels), 0, 255).astype(np.uint8)
    h, w = px.shape
    if binary:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{w} {h}\n255\n".encode())
            fh.write(px.tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(f"P2\n{w} {h}\n255\n")
            for row in px:
                fh.write(" ".join(str(v) for v in row) + "\n")
