"""Patch-manifold image inpainting.

Every pixel becomes a point in patch space (its p_x x p_y neighborhood,
mirror-reflected at the borders). Sampled pixels carry their intensity as
a label; interpolation on the patch graph predicts the rest. Weights use
the quartic self-tuning kernel truncated to k nearest neighbors.
"""

import math
import re
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .graph import (InvalidParameterError, PointCloud, WeightGraph,
                    check_count, check_neighbors, check_real,
                    self_tuning_weights)
from .solver import LabelAssignment, SolverConfig, solve


@dataclass(frozen=True)
class Image:
    """Grayscale intensity grid with values in [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2 or px.size == 0:
            raise InvalidParameterError("image must be a nonempty 2-D array")
        if not np.all((px >= 0.0) & (px <= 255.0)):  # false for NaN too
            raise InvalidParameterError(
                "image intensities must be finite and in [0, 255]")
        object.__setattr__(self, "pixels", px)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.pixels.shape


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
        check_real("density", density)
        if density > 1:
            raise InvalidParameterError(f"density must be at most 1, not {density}")
        check_count("seed", seed, 0)
        if len(shape) != 2:
            raise InvalidParameterError(
                f"mask shape must be (rows, columns), not {shape!r}")
        check_count("mask rows", shape[0])
        check_count("mask columns", shape[1])
        rng = np.random.default_rng(seed)
        total = shape[0] * shape[1]
        count = max(1, int(round(density * total)))
        flat = rng.choice(total, size=count, replace=False)
        m = np.zeros(total, dtype=bool)
        m[flat] = True
        return cls(m.reshape(shape))

    @classmethod
    def from_csv(cls, path, shape) -> "SampleMask":
        """Mask from (row, col) lines; every pixel must lie in the image."""
        try:
            coords = np.loadtxt(path, delimiter=",", dtype=int, ndmin=2)
        except (ValueError, OSError) as exc:
            raise InvalidParameterError(f"{path}: {exc}") from exc
        if coords.shape[1:] != (2,) or np.any((coords < 0) | (coords >= shape)):
            raise InvalidParameterError(f"{path}: mask needs (row, col) lines "
                                        f"inside the {shape[0]}x{shape[1]} image")
        m = np.zeros(shape, dtype=bool)
        m[coords[:, 0], coords[:, 1]] = True
        return cls(m)

    def to_csv(self, path):
        r, c = np.nonzero(self.known)
        np.savetxt(path, np.column_stack([r, c]), delimiter=",", fmt="%d")


@dataclass(frozen=True)
class InpaintConfig:
    method: str = "il"  # gl | wnll | il
    patch_size: Tuple[int, int] = (11, 11)
    k: int = 50
    k_sigma: int = 20
    outer_iters: int = 8
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.method not in ("gl", "wnll", "il"):
            raise InvalidParameterError(f"unknown method {self.method!r}")
        try:  # a TypeError can only come from unpacking what is not a pair
            check_patch_size(*self.patch_size)
        except TypeError:
            raise InvalidParameterError("patch_size must be a pair of sides, "
                                        f"not {self.patch_size!r}") from None
        check_neighbors(self.k, self.k_sigma)
        check_count("outer_iters", self.outer_iters)
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class PatchSet:
    """One patch vector per pixel, row-major over the image grid."""

    vectors: np.ndarray


def extract_patches(img: Image, p_x: int, p_y: int) -> PatchSet:
    """Patch of size p_x x p_y centered at every pixel, with mirror
    reflection across the nearest edge for out-of-range coordinates
    (index -t maps to t, index m-1+t maps to m-1-t)."""
    check_patch_size(p_x, p_y)
    m, n = img.shape
    hx, hy = p_x // 2, p_y // 2
    if (m > 1 and hx > m - 1) or (n > 1 and hy > n - 1):
        raise InvalidParameterError("patch exceeds reflectable image size")
    padded = np.pad(img.pixels, ((hx, hx), (hy, hy)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (p_x, p_y))
    vectors = windows.reshape(m * n, p_x * p_y).copy()
    return PatchSet(vectors)


def check_patch_size(p_x, p_y):
    """The rule of patch sides: p_x and p_y, the patch_size, are odd."""
    for name, side in (("p_x", p_x), ("p_y", p_y)):
        check_count(f"patch_size {name}", side)
        if side % 2 == 0:
            raise InvalidParameterError(f"patch_size {name} must be odd, not {side}")


def psnr(f: Image, f_star: Image) -> float:
    """20 log10(255 / rms difference); +inf for identical images."""
    if f.shape != f_star.shape:
        raise InvalidParameterError("image dimensions must match")
    mse = float(np.mean((f.pixels - f_star.pixels) ** 2))
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / math.sqrt(mse))


def patch_graph(img: Image, cfg: InpaintConfig) -> WeightGraph:
    """The weight graph of img's pixels: quartic self-tuning weights on
    their cfg.patch_size patches, truncated to cfg.k nearest neighbors,
    sigma the distance to the cfg.k_sigma-th."""
    patches = extract_patches(img, *cfg.patch_size)
    return self_tuning_weights(PointCloud(patches.vectors), cfg.k, cfg.k_sigma)


def _inpaint_pass(graph: WeightGraph, img_known: Image, mask: SampleMask,
                  cfg: InpaintConfig):
    """One cfg.method solve on the patch graph of an image's pixels,
    labeled by img_known on the known pixels. Returns the values clipped
    to [0, 255] with the known pixels restored, and the solve's
    Diagnostics."""
    known = mask.known
    labeled = np.nonzero(known.ravel())[0]
    labels = LabelAssignment(labeled, img_known.pixels.ravel()[labeled])
    u, diag = solve(cfg.method, graph, labels, cfg.solver)
    out = np.clip(u.reshape(known.shape), 0.0, 255.0)
    out[known] = img_known.pixels[known]
    return Image(out), diag


def inpaint(img_known: Image, mask: SampleMask, cfg: InpaintConfig):
    """Blind pipeline: fill unknowns with random values, then alternate
    weight construction from the current image with a solve. Returns
    (Image, Diagnostics): the last solve's, every other folded in by
    Diagnostics.absorb."""
    if img_known.shape != mask.known.shape:
        raise InvalidParameterError("image and mask dimensions must match")
    rng = np.random.default_rng(cfg.seed)
    current = img_known.pixels.copy()
    unknown = ~mask.known
    current[unknown] = rng.uniform(0.0, 255.0, size=int(unknown.sum()))
    current, diag = Image(current), None
    for _ in range(cfg.outer_iters):
        current, last = _inpaint_pass(patch_graph(current, cfg), img_known,
                                      mask, cfg)
        diag = last if diag is None else last.absorb(diag)
    return current, diag


def oracle_weight_inpaint(img_clear: Image, mask: SampleMask,
                          cfg: InpaintConfig):
    """Single solve with weights built from clear-image patches. Returns
    (Image, Diagnostics of the solve)."""
    if img_clear.shape != mask.known.shape:
        raise InvalidParameterError("image and mask dimensions must match")
    return _inpaint_pass(patch_graph(img_clear, cfg), img_clear, mask, cfg)


# one PNM header token, after any whitespace and # comments
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]+)")


def read_pgm(path) -> Image:
    """P2 (ASCII) and P5 (binary, maxval <= 255) readers, scaled to 255."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from exc
    header, pos = [], 0
    while len(header) < 4 and (token := _PGM_TOKEN.match(data, pos)):
        header.append(token.group(1))
        pos = token.end()
    magic = header[0] if header else None
    if magic not in (b"P2", b"P5"):
        raise InvalidParameterError(f"unsupported PNM magic {magic!r}")
    width, height, maxval = _pgm_ints(header[1:], 3, "header")
    if min(width, height) < 1 or not 0 < maxval <= 255:
        raise InvalidParameterError("only 8-bit PGM of positive size is supported")
    size = width * height
    if magic == b"P2":
        vals = _pgm_ints(re.sub(rb"#[^\n]*", b"", data[pos:]).split(), size,
                         "raster")
    else:  # the raster starts after one whitespace byte
        vals = np.frombuffer(data[pos + 1:pos + 1 + size], dtype=np.uint8)
        if vals.size < size:
            raise InvalidParameterError(f"truncated P5 raster: {size} bytes expected")
    vals = np.asarray(vals, dtype=float).reshape(height, width)
    if vals.min() < 0 or vals.max() > maxval:
        raise InvalidParameterError(f"PGM raster outside [0, maxval {maxval}]")
    return Image(vals * 255 / maxval)  # v * (255 / maxval) can pass 255


def _pgm_ints(tokens, count, part):
    """The first count PGM tokens as integers."""
    if len(tokens) < count:
        raise InvalidParameterError(
            f"truncated PGM {part}: {len(tokens)} of {count} values")
    try:
        return [int(t) for t in tokens[:count]]
    except ValueError as exc:
        raise InvalidParameterError(f"malformed PGM {part}: {exc}") from exc


def write_pgm(img: Image, path):
    """Write 8-bit P5 PGM; it round-trips bit-exactly for integer images."""
    px = np.clip(np.rint(img.pixels), 0, 255).astype(np.uint8)
    h, w = px.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(px.tobytes())
