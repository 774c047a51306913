"""Deterministic density evolution u -> (1-eta)[u + beta(1-u)(k*u^2)].

A field is its values on the lattice of the kernel it is stepped with,
node (i, j) at (i/L, j/L): a torus, or a window that reads one clamp
number outside it.  The kernel convolution is evaluated either by
direct summation over the (finite) kernel support, which is bit-exactly
translation equivariant, or through FFTs for large supports (identical
to the direct path within 1e-12).  The FFT path keeps the kernel as the
transforms of its grid's distinct rows and builds its half spectrum one
band at a time, so a step holds two grids: the field and its own half
spectrum.
Both wrap a kernel wider than a periodic window around its torus, as
the lattice's parent draw does.  The 1D path evolves plane-wave
profiles under the same operator via the kernel's line marginal.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from . import chunks
from .kernel import DiscreteKernel, Kernel1D
from .mean_field import Params, mf_step

# direct summation above this support size costs more than FFTs
_FFT_SUPPORT_THRESHOLD = 400

# Inside an evolve call: a list holding the kernel's spectrum pair (see
# _spectrum) once the first step has computed it; None elsewhere.
# Every step of one call correlates the same kernel on the same grid,
# so later steps reuse it.
_evolve_spectrum: ContextVar[list | None] = ContextVar("evolve_spectrum",
                                                       default=None)


@dataclass
class Field2D:
    """Density values on the lattice of the kernel with index L: node
    (i, j) sits at (i/L, j/L).  clamp None wraps the window as a torus;
    a number is what the field reads outside the window."""

    L: int
    values: np.ndarray
    clamp: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or not self.values.size:
            raise ValueError("values must be a 2D grid with a node")
        if type(self.L) is not int or self.L < 1:  # a bool is no index
            raise ValueError(f"L must be a positive integer, got {self.L!r}")
        if self.clamp is not None and not math.isfinite(self.clamp):
            raise ValueError(f"clamp must be finite, got {self.clamp!r}")
        # written so that NaN, which fails every comparison, is rejected
        if not (self.values.min() >= -1e-12
                and self.values.max() <= 1.0 + 1e-12):
            raise ValueError("field values must lie in [0, 1]")

    def copy(self) -> "Field2D":
        return Field2D(self.L, self.values.copy(), self.clamp)

    def to_csv(self, path) -> None:
        boundary = "periodic" if self.clamp is None else "clamped"
        clamp = 0.0 if self.clamp is None else float(self.clamp)
        header = (f"# x0=0.0 y0=0.0 h={1.0 / self.L!r} "
                  f"boundary={boundary} clamp={clamp!r}")
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in self.values:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _padded(u: Field2D, radius: int) -> np.ndarray:
    """u's values padded by the kernel radius: wrapped on the torus, else
    with u's clamp."""
    if u.clamp is None:
        return np.pad(u.values, radius, mode="wrap")
    return np.pad(u.values, radius, constant_values=u.clamp)


def _padded_correlate_sq(u: Field2D, dk: DiscreteKernel) -> np.ndarray:
    """k * u^2 on u's grid, on its torus or clamped, summed directly over
    the offsets from the square of _padded, in a fixed order per node (so
    shifts commute with it bit for bit).  The kernel is even, so this
    correlation equals the convolution."""
    radius = dk.reach
    padded = _padded(u, radius)
    padded *= padded
    nx, ny = u.values.shape
    acc = np.zeros((nx, ny))
    for (di, dj), m in zip(dk.offsets, dk.masses):
        acc += m * padded[radius + di:radius + di + nx,
                          radius + dj:radius + dj + ny]
    return acc


def _spectrum(dk: DiscreteKernel, shape) -> tuple:
    """The kernel's transform on the torus of this shape, as the pair
    ``(rows, rowmap)``: ``rows`` holds the ``rfft`` of each distinct row
    of the kernel grid, and grid row i is the one at ``rowmap[i]``.
    Rows are compared by their bytes, and equal bytes have equal
    transforms, so _rfft2 builds any band of the half spectrum from the
    pair.  A discretised kernel has few distinct rows (9 of 1,600 for
    a uniform square at L = 400), so the pair is far smaller than a
    grid.  Inside an evolve call, the pair its first step computed.  The
    kernel grid lives only in here, so it is gone before a field's
    arrays exist."""
    memo = _evolve_spectrum.get()
    if memo:
        return memo[0]
    nx, ny = shape
    # offsets that wrap onto one node add up, as in the direct sum; a
    # node that gets one mass holds it exactly, since 0.0 + m is m
    nodes = dk.offsets[:, 0] % nx * ny + dk.offsets[:, 1] % ny
    kern = np.bincount(nodes, weights=dk.masses,
                       minlength=nx * ny).reshape(shape)
    first = {}     # a row's bytes -> the first row with them
    firsts, rowmap = np.unique([first.setdefault(row.tobytes(), i)
                                for i, row in enumerate(kern)],
                               return_inverse=True)
    spectrum = np.fft.rfft(kern[firsts], axis=1), rowmap
    if memo is not None:
        memo.append(spectrum)
    return spectrum


def _rfft2(a: np.ndarray, spectrum: tuple, p: Params, out=None,
           crop: int = 0) -> np.ndarray:
    """One operator step on the torus of a's shape, given the kernel's
    ``spectrum`` pair from _spectrum.  Three passes in bands across the
    cores (see chunks), with numpy's bits for the whole grid:

    1. bands of rows: ``rfft`` of the rows of a * a, into the half
       spectrum;
    2. bands of columns: ``fft``; the product with the kernel's half
       spectrum on the band, which is the ``fft`` of the band's columns
       of ``rows[rowmap]``; then ``ifft``;
    3. bands of rows: ``irfft``, which leaves the correlation
       ``irfft2(rfft2(a * a) * rfft2(kernel grid))``, cropped by
       ``crop`` nodes at every edge, then ``_image`` at the same nodes
       of a, written into ``out`` (a new grid if None).

    Pass 1 reads every row of a before pass 3 writes any, so out may be
    a itself.  The half spectrum is the one grid made beside a and out;
    the buffers made in the bands, the kernel's among them, are
    band-sized."""
    nx, ny = a.shape
    rows, rowmap = spectrum
    half = np.empty((nx, ny // 2 + 1), complex)

    def rows_in(i, j):
        band = a[i:j]
        np.fft.rfft(band * band, axis=1, out=half[i:j])

    def columns(i, j):
        band = half[:, i:j]
        np.fft.fft(band, axis=0, out=band)
        kernel = rows[rowmap, i:j]
        np.fft.fft(kernel, axis=0, out=kernel)
        # the product lands in the kernel's band: in the strided band
        # it would need a second buffer of the band's size
        np.multiply(band, kernel, out=kernel)
        np.fft.ifft(kernel, axis=0, out=band)

    def rows_out(i, j):
        band = slice(i + crop, j + crop)
        conv = np.fft.irfft(half[band], n=ny, axis=1)[:, crop:ny - crop]
        _image(a[band, crop:ny - crop], conv, p, out=out[i:j])

    chunks.run(rows_in, nx, ny)
    chunks.run(columns, half.shape[1], nx)
    if out is None:
        out = np.empty((nx - 2 * crop, ny - 2 * crop))
    chunks.run(rows_out, nx - 2 * crop, ny)
    return out


def apply_Q_2d(u: Field2D, dk: DiscreteKernel, p: Params,
               out=None) -> Field2D:
    """One operator step; output values stay in [0, 1 - eta] for beta <= 1.
    The values are written into ``out`` if given, which may be u.values.

    A support of more than _FFT_SUPPORT_THRESHOLD offsets goes through
    _rfft2's three banded passes, which square the field in the first
    and take the image in the last, so no full-grid temporary is made:
    on the torus of the window, or, clamped, on the window padded by
    the kernel radius with u's clamp, where a node of the window reads
    within the radius and so no read wraps around.  A smaller support
    goes through _padded_correlate_sq, then _image.  A field on another
    lattice than the kernel's is a ValueError."""
    if u.L != dk.L:
        raise ValueError(f"field lattice L = {u.L} is not the kernel's "
                         f"L = {dk.L}")
    if len(dk.offsets) <= _FFT_SUPPORT_THRESHOLD:
        conv = _padded_correlate_sq(u, dk)
        vals = _image(u.values, conv, p, out)
    else:
        crop = 0 if u.clamp is None else dk.reach
        a = u.values if crop == 0 else _padded(u, crop)
        vals = _rfft2(a, _spectrum(dk, a.shape), p, out, crop)
    return Field2D(u.L, vals, u.clamp)


def evolve(u: Field2D, dk: DiscreteKernel, p: Params, n: int, taps=None):
    """Iterate the operator n times, returning ``{t: field}`` at the
    times ``taps`` (default: just the final time), in increasing t.

    Every step of one call reuses the kernel spectrum of the first.  A
    step writes over the field before it when that field is neither u
    nor a returned tap, so u's values are never written, and a run
    holds u, the taps and one field in progress."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    taps = [n] if taps is None else sorted(set(int(t) for t in taps))
    if taps and (taps[0] < 0 or taps[-1] > n):
        raise ValueError(f"taps must lie in [0, {n}], got {taps}")
    out = {}
    cur = u
    token = _evolve_spectrum.set([])
    try:
        for t in range(n + 1):
            kept = t in taps
            if kept:
                out[t] = cur.copy() if cur is u else cur
            if t < n:
                cur = apply_Q_2d(cur, dk, p, out=None if kept or cur is u
                                 else cur.values)
    finally:
        _evolve_spectrum.reset(token)
    return out


@dataclass
class Profile1D:
    """Densities on the grid s0 + k*delta with constant extensions
    left_limit / right_limit beyond the grid."""

    s0: float
    delta: float
    values: np.ndarray
    left_limit: float
    right_limit: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not (math.isfinite(self.left_limit)
                and math.isfinite(self.right_limit)):
            raise ValueError("profile limits must be finite")
        if not math.isfinite(self.s0):
            raise ValueError("profile origin s0 must be finite")
        if not np.isfinite(self.values).all():
            raise ValueError("profile values must be finite")

    @property
    def grid(self) -> np.ndarray:
        return self.s0 + np.arange(len(self.values)) * self.delta

    def evaluate(self, t) -> np.ndarray:
        return np.interp(t, self.grid, self.values,
                         left=self.left_limit, right=self.right_limit)


def apply_Q_1d(f: Profile1D, k1: Kernel1D, p: Params) -> Profile1D:
    """The operator on plane waves: reads beyond the grid through the
    profile's constant limits, so the grid edges behave like the true
    half-lines."""
    if abs(f.delta - k1.delta) > 1e-12 * max(f.delta, k1.delta):
        raise ValueError(
            f"profile spacing {f.delta} != kernel spacing {k1.delta}")
    hw, n = k1.halfwidth, len(f.values)
    squares = np.empty(n + 2 * hw)
    squares[:hw] = f.left_limit * f.left_limit
    np.multiply(f.values, f.values, out=squares[hw:hw + n])
    squares[hw + n:] = f.right_limit * f.right_limit
    vals = _image(f.values, np.correlate(squares, k1.masses), p)
    return Profile1D(f.s0, f.delta, vals, left_limit=mf_step(p, f.left_limit),
                     right_limit=mf_step(p, f.right_limit))


def _image(values, conv, p: Params, out=None):
    """The operator's image (1 - eta) (f + beta (1 - f) conv) at the
    points ``values`` of f, with conv = k * f^2 there (in 1D, the
    correlation with the bitwise even masses), written into ``out`` if
    given, which may be ``values`` itself; conv is overwritten.
    Pointwise and in a fixed order of operations, so a slice of the
    inputs gives the bits of the full arrays."""
    # (1 - f) beta is formed in out, unless out holds f, read again below
    shared = out is None or np.may_share_memory(out, values)
    gain = np.subtract(1.0, values, out=None if shared else out)
    gain *= p.beta
    conv *= gain            # ((1 - f) beta) conv: IEEE products commute
    conv += values
    return np.multiply(conv, 1.0 - p.eta, out=conv if out is None else out)
