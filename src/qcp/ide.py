"""Deterministic density evolution u -> (1-eta)[u + beta(1-u)(k*u^2)].

Fields live on square grids with spacing h; the kernel convolution is
evaluated either by direct summation over the (finite) kernel support,
which is bit-exactly translation equivariant, or through FFTs for large
supports (identical to the direct path within 1e-12).  The 1D path
evolves plane-wave profiles under the same operator via the kernel's
line marginal.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernel import DiscreteKernel, Kernel1D
from .mean_field import Params, mf_step

BOUNDARIES = ("periodic", "clamped")

# direct summation above this support size costs more than FFTs
_FFT_SUPPORT_THRESHOLD = 400

# Inside an evolve call: a list holding the kernel spectrum once the
# first step has computed it; None elsewhere.  Every step of one call
# correlates the same kernel on the same grid, so later steps reuse it.
_evolve_spectrum: ContextVar[list | None] = ContextVar("evolve_spectrum",
                                                       default=None)


@dataclass
class Field2D:
    """Density grid: node (i, j) sits at (x0 + i*h, y0 + j*h).

    boundary 'periodic' wraps the window; 'clamped' reads clamp_value
    outside it.
    """

    x0: float
    y0: float
    h: float
    values: np.ndarray
    boundary: str = "periodic"
    clamp_value: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or not self.values.size:
            raise ValueError("values must be a 2D grid with a node")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if not 0.0 < self.h < math.inf:
            raise ValueError("grid spacing h must be positive and finite")
        if not all(map(math.isfinite, (self.x0, self.y0, self.clamp_value))):
            raise ValueError("x0, y0 and clamp_value must be finite")
        # written so that NaN, which fails every comparison, is rejected
        if not (self.values.min() >= -1e-12
                and self.values.max() <= 1.0 + 1e-12):
            raise ValueError("field values must lie in [0, 1]")

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "Field2D":
        return Field2D(self.x0, self.y0, self.h, self.values.copy(),
                       self.boundary, self.clamp_value)

    def to_csv(self, path) -> None:
        header = (f"# x0={float(self.x0)!r} y0={float(self.y0)!r} h={float(self.h)!r} "
                  f"boundary={self.boundary} clamp={float(self.clamp_value)!r}")
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in self.values:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _node_shifts(dk: DiscreteKernel, h: float) -> np.ndarray:
    """Kernel offsets as whole node steps; rejects incompatible grids."""
    ratio = 1.0 / (dk.L * h)
    r = round(ratio)
    if r < 1 or abs(ratio - r) > 1e-9:
        raise ValueError(
            f"kernel spacing 1/{dk.L} incompatible with grid spacing {h}")
    return dk.offsets * r


def convolve_sq(u: Field2D, dk: DiscreteKernel) -> np.ndarray:
    """k * u^2 on u's grid under u's boundary mode.

    The kernel is even, so the correlation computed here equals the
    convolution.  Supports up to _FFT_SUPPORT_THRESHOLD offsets are
    summed directly, in a fixed order per node (so shifts commute with
    it bit for bit); larger ones go through FFTs, within 1e-12 of that.
    """
    shifts = _node_shifts(dk, u.h)
    fft = len(shifts) > _FFT_SUPPORT_THRESHOLD
    usq = u.values * u.values
    if fft and u.boundary == "periodic":
        return periodic_correlate(usq, shifts, dk.masses)
    radius = int(np.max(np.abs(shifts))) if len(shifts) else 0
    if u.boundary == "periodic":
        padded = np.pad(usq, radius, mode="wrap")
    else:
        fill = u.clamp_value * u.clamp_value
        padded = np.pad(usq, radius, mode="constant", constant_values=fill)
    nx, ny = usq.shape
    if fft:
        # a node of the window reads the padded grid within the kernel
        # radius, which stays inside it: no read wraps around the torus
        return periodic_correlate(padded, shifts, dk.masses)[
            radius:radius + nx, radius:radius + ny]
    acc = np.zeros_like(usq)
    for (di, dj), m in zip(shifts, dk.masses):
        acc += m * padded[radius + di:radius + di + nx,
                          radius + dj:radius + dj + ny]
    return acc


def periodic_correlate(a: np.ndarray, shifts: np.ndarray,
                       masses: np.ndarray) -> np.ndarray:
    """sum_w masses(w) a(x + w) over the integer shifts w, on the torus
    of a's shape, by FFT (the kernel is even, so this is also the
    convolution).  Within one evolve call the kernel's spectrum is
    computed at the first step only."""
    nx, ny = a.shape
    radius = int(np.max(np.abs(shifts))) if len(shifts) else 0
    if 2 * radius + 1 > min(nx, ny):
        raise ValueError("kernel support exceeds periodic window")
    memo = _evolve_spectrum.get()
    if memo:
        spectrum = memo[0]
    else:
        kern = np.zeros_like(a)
        np.add.at(kern, (shifts[:, 0] % nx, shifts[:, 1] % ny), masses)
        spectrum = np.fft.rfft2(kern)
        if memo is not None:
            memo.append(spectrum)
    return np.fft.irfft2(np.fft.rfft2(a) * spectrum, s=a.shape)


def apply_Q_2d(u: Field2D, dk: DiscreteKernel, p: Params) -> Field2D:
    """One operator step; output values stay in [0, 1 - eta] for beta <= 1."""
    vals = _image(u.values, convolve_sq(u, dk), p)
    return Field2D(u.x0, u.y0, u.h, vals, u.boundary, u.clamp_value)


def evolve(u: Field2D, dk: DiscreteKernel, p: Params, n: int, taps=None):
    """Iterate the operator n times, returning the fields at ``taps``
    (default: just the final time)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    taps = [n] if taps is None else sorted(set(int(t) for t in taps))
    if taps and (taps[0] < 0 or taps[-1] > n):
        raise ValueError("taps must lie in [0, n]")
    out = []
    cur = u
    token = _evolve_spectrum.set([])
    try:
        for t in range(n + 1):
            if t in taps:
                out.append(cur.copy() if cur is u else cur)
            if t < n:
                cur = apply_Q_2d(cur, dk, p)
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
        return _grid(self.s0, self.delta, len(self.values))

    @property
    def s_max(self) -> float:
        return self.s0 + (len(self.values) - 1) * self.delta

    def evaluate(self, t) -> np.ndarray:
        return np.interp(t, self.grid, self.values,
                         left=self.left_limit, right=self.right_limit)


@lru_cache(maxsize=64)
def _grid(s0: float, delta: float, n: int) -> np.ndarray:
    grid = s0 + np.arange(n) * delta
    grid.flags.writeable = False    # every profile of this geometry reads it
    return grid


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
    given.  Pointwise and in a fixed order of operations, so a slice of
    the inputs gives the bits of the full arrays."""
    vals = np.subtract(1.0, values, out=out)
    vals *= p.beta
    vals *= conv
    vals += values
    vals *= 1.0 - p.eta
    return vals
