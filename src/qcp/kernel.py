"""Dispersal kernels: continuum specs, lattice discretisation, 1D marginals.

A kernel is a compactly supported probability density on the plane that
is invariant under reflection in either axis.  ``discretize`` turns a
spec into masses on the lattice with spacing 1/L by integrating the
density over the half-open cell around each lattice point; the result
is symmetrised exactly and renormalised, so the symmetry and total-mass
invariants hold bit for bit, not just approximately.  Its offsets are
the full reflection orbits of the cells that received mass, even where
binning broke a tie toward one side.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("uniform-square", "truncated-gaussian", "table")

# 1e-9: continuum normalisation check; 1e-12: discrete mass-sum invariant.
NORM_TOL = 1e-9
MASS_TOL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Continuum kernel description.

    families:
      uniform-square(radius)            density 1/(2r)^2 on [-r, r]^2
      truncated-gaussian(sigma, cutoff) radial gaussian restricted to the
                                        disk |x| <= cutoff, renormalised
      table(entries)                    explicit (dx, dy, mass) atoms
    """

    family: str
    params: dict = field(default_factory=dict)

    @staticmethod
    def from_json(text: str) -> "KernelSpec":
        data = json.loads(text)
        params = dict(data["params"])
        if "entries" in params:
            params["entries"] = [tuple(e) for e in params["entries"]]
        return build_kernel(KernelSpec(data["family"], params))


def build_kernel(spec: KernelSpec) -> KernelSpec:
    """Validate a spec: positive finite parameters, exact reflection
    symmetry, unit total mass within ``NORM_TOL``."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown kernel family {spec.family!r}")
    p = spec.params
    if spec.family == "uniform-square":
        r = p.get("radius")
        _require_positive("radius", r)
    elif spec.family == "truncated-gaussian":
        _require_positive("sigma", p.get("sigma"))
        _require_positive("cutoff", p.get("cutoff"))
    else:
        entries = p.get("entries")
        if not entries:
            raise ValueError("table kernel needs at least one entry")
        entries = [(float(dx), float(dy), float(m)) for dx, dy, m in entries]
        if not all(math.isfinite(v) for e in entries for v in e):
            raise ValueError("table offsets and masses must be finite")
        total = math.fsum(m for _, _, m in entries)
        if any(m < 0 for _, _, m in entries):
            raise ValueError("table masses must be nonnegative")
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"table masses sum to {total}, expected 1")
        atlas = {(dx, dy): m for dx, dy, m in entries}
        for (dx, dy), m in atlas.items():
            for ref in ((-dx, dy), (dx, -dy)):
                if abs(atlas.get(ref, 0.0) - m) > NORM_TOL:
                    raise ValueError(
                        f"table not reflection-symmetric at offset ({dx}, {dy})")
        p = dict(p, entries=sorted(entries))
    return KernelSpec(spec.family, p)


def _require_positive(name, value):
    if value is None or not math.isfinite(value) or value <= 0:
        raise ValueError(f"kernel parameter {name!r} must be positive and finite")


def density(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Continuum density (analytic families only)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.family == "uniform-square":
        r = spec.params["radius"]
        inside = (np.abs(x) <= r) & (np.abs(y) <= r)
        return inside / (4.0 * r * r)
    if spec.family == "truncated-gaussian":
        sig = spec.params["sigma"]
        cut = spec.params["cutoff"]
        # mass of the untruncated gaussian inside the cutoff disk
        inside_mass = 1.0 - math.exp(-cut * cut / (2.0 * sig * sig))
        norm = 1.0 / (2.0 * math.pi * sig * sig * inside_mass)
        r2 = x * x + y * y
        vals = norm * np.exp(-r2 / (2.0 * sig * sig))
        return np.where(r2 <= cut * cut, vals, 0.0)
    raise ValueError("table kernels have no continuum density")


@dataclass
class DiscreteKernel:
    """Probability masses on lattice offsets at spacing 1/L.

    offsets are integer multiples of 1/L, stored lexicographically so
    the sampling CDF has a canonical order.  support_diameter is the
    max pairwise distance between offsets of nonzero mass, which by the
    point symmetry of the support equals 2 max |w|.
    """

    L: int
    offsets: np.ndarray   # (n, 2) int64, lattice steps
    masses: np.ndarray    # (n,) float64, sums to 1 within MASS_TOL
    support_diameter: float

    def __post_init__(self):
        self._cdf = np.cumsum(self.masses)
        n = len(self._cdf)
        # bucket table of the inverse-CDF search: m is the smallest power
        # of two >= n, and guide[k] counts the entries with
        # floor(cdf * m) < k, so it is i for k in (bucket[i-1], bucket[i]].
        # Built by repeats and held as int32, it needs no int64 array of
        # m entries.
        m = 1 << max(n - 1, 0).bit_length()
        bucket = np.minimum(self._cdf * m, m).astype(np.int64)
        runs = np.diff(bucket, prepend=-1, append=m)
        self._guide = np.repeat(np.arange(n + 1, dtype=np.int32), runs)
        # most entries in one bucket, the entries at or above 1 included
        fill = int(np.diff(self._guide, append=n).max())
        self._steps = fill.bit_length()
        # the largest |coordinate| of an offset, in lattice steps
        self.reach = int(np.abs(self.offsets).max(initial=0))

    @property
    def cdf(self) -> np.ndarray:
        return self._cdf

    def sample_indices(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0,1) to rows of ``offsets`` by inverse CDF.

        The result is ``minimum(searchsorted(cdf, u, "right"), n - 1)``
        for every key, NaN and +-inf included, in u's shape.  A key
        starts at guide[k], k = floor(u * m) clamped to [0, m].  As m is
        a power of two, u * m is exact, so the entries counted in
        guide[k] all lie below u and those of later buckets all above
        it: the answer is at most one bucket's entries past guide[k],
        and ``_steps`` halvings find it.  A NaN key goes to bucket m and
        no entry compares above it, so it ends past the last row, as in
        the plain search.
        """
        u = np.asarray(u, dtype=np.float64)
        flat = u.ravel()
        m = len(self._guide) - 1
        c = np.fmin(flat, 1.0)          # NaN and keys above 1 to bucket m
        c *= m
        np.fmax(c, 0.0, out=c)          # keys below 0 to bucket 0
        hi = np.add(self._guide.take(c.astype(np.intp)),
                    (1 << self._steps) - 1, dtype=np.intp)
        probe = np.empty_like(hi)
        for j in reversed(range(self._steps)):
            s = 1 << j
            np.subtract(hi, s, out=probe)
            self._cdf.take(probe, mode="clip", out=c)
            hi -= s * (c > flat)
        np.minimum(hi, len(self.masses) - 1, out=hi)
        return hi.reshape(u.shape)


def _interval_overlap(lo1, hi1, lo2, hi2):
    return np.maximum(0.0, np.minimum(hi1, hi2) - np.maximum(lo1, lo2))


def _symmetrise(grid: np.ndarray, imax: int):
    """Offsets and masses, in lexicographic order, of the exact reflection
    average of a dense grid over offsets [-imax, imax]^2.

    Each offset gets fsum of its four reflections' masses over 4.  Where
    the four agree bit for bit that is the mass itself, since
    fsum(4x) / 4 == x, so only the other cells go through fsum.  The
    support is the union of the reflection orbits of positive cells.
    Both are reflection-invariant, so they are worked out on the quadrant
    i, j >= 0 and mirrored.
    """
    halves = (slice(imax, None), slice(imax, None, -1))
    views = [(rows, cols) for rows in halves for cols in halves]
    refl = [grid[v] for v in views]
    quad = refl[0].copy()
    odd = (quad != refl[1]) | (quad != refl[2]) | (quad != refl[3])
    rows = zip(*(r[odd].tolist() for r in refl))
    quad[odd] = np.fromiter(map(math.fsum, rows), float,
                            count=int(odd.sum())) / 4.0
    live = np.maximum.reduce(refl) > 0
    sym = np.empty_like(grid)
    keep = np.empty(grid.shape, dtype=bool)
    for v in views:
        sym[v] = quad
        keep[v] = live
    # nonzero() walks the grid in row-major order, which is the
    # lexicographic order of offsets
    ii, jj = np.nonzero(keep)
    offsets = np.stack([ii - imax, jj - imax], axis=1).astype(np.int64)
    return offsets, sym[ii, jj]


def discretize(spec: KernelSpec, L: int) -> DiscreteKernel:
    """Integrate the density over half-open cells [w - 1/2L, w + 1/2L)
    around each lattice point w (ties toward the cell whose lower edge
    the point sits on), then symmetrise and renormalise exactly: each
    offset gets ``math.fsum`` of its four reflections' masses over 4.

    Uniform squares use exact cell-overlap areas; the gaussian uses a
    4x4 midpoint rule per cell; tables bin their atoms to nearest cell.
    """
    spec = build_kernel(spec)
    if L < 1 or int(L) != L:
        raise ValueError("L must be a positive integer")
    L = int(L)
    h = 1.0 / L

    # each family fills a dense grid over offsets [-imax, imax]^2
    if spec.family == "uniform-square":
        r = spec.params["radius"]
        imax = int(math.floor(r * L + 0.5))
        centers = np.arange(-imax, imax + 1) * h
        ov = _interval_overlap(centers - h / 2, centers + h / 2, -r, r) / (2 * r)
        grid = np.outer(ov, ov)
    elif spec.family == "truncated-gaussian":
        cut = spec.params["cutoff"]
        imax = int(math.floor(cut * L + 0.5))
        idx = np.arange(-imax, imax + 1)
        # midpoint rule, 4x4 subcells
        sub = (np.arange(4) + 0.5) / 4.0 - 0.5
        xs = idx[:, None] * h + sub[None, :] * h
        pts = xs.reshape(-1)
        px, py = np.meshgrid(pts, pts, indexing="ij")
        vals = density(spec, px, py)
        n = len(idx)
        grid = vals.reshape(n, 4, n, 4).sum(axis=(1, 3)) * (h / 4.0) ** 2
    else:
        dx, dy, m = np.array(spec.params["entries"], dtype=float).T
        ii = np.floor(dx * L + 0.5).astype(np.int64)
        jj = np.floor(dy * L + 0.5).astype(np.int64)
        imax = int(max(np.abs(ii).max(), np.abs(jj).max()))
        grid = np.zeros((2 * imax + 1, 2 * imax + 1))
        np.add.at(grid, (ii + imax, jj + imax), m)

    offsets, masses = _symmetrise(grid, imax)
    masses = masses / masses.sum()

    norms = np.hypot(offsets[:, 0], offsets[:, 1]) * h
    diameter = 2.0 * float(norms.max()) if len(norms) else 0.0
    return DiscreteKernel(L=L, offsets=offsets, masses=masses,
                          support_diameter=diameter)


@dataclass
class Kernel1D:
    """Even probability masses on the 1D grid m * delta; ValueError unless
    they are finite, nonnegative, of odd length and bitwise palindromic."""

    delta: float
    masses: np.ndarray  # odd length, centered

    def __post_init__(self):
        m = self.masses = np.asarray(self.masses, dtype=float)
        if not (m.ndim == 1 and len(m) % 2 == 1 and np.isfinite(m).all()
                and (m >= 0.0).all() and m.tobytes() == m[::-1].tobytes()):
            raise ValueError("1D kernel masses must be finite, nonnegative, "
                             "of odd length and even")

    @property
    def halfwidth(self) -> int:
        return (len(self.masses) - 1) // 2


def unit_direction(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    n = float(np.hypot(xi[0], xi[1]))
    if not abs(n - 1.0) <= 1e-9:  # written so that NaN fails too
        raise ValueError(f"direction must be a unit vector, |xi| = {n}")
    return xi / n


def marginal_1d(dk: DiscreteKernel, xi, delta: float) -> Kernel1D:
    """Line marginal of dk along the unit direction xi, binned to the
    grid m*delta with half-open bins, then symmetrised exactly."""
    if not 0.0 < delta < math.inf:  # written so that NaN fails too
        raise ValueError(f"delta must be positive and finite, got {delta}")
    xi = unit_direction(xi)
    proj = (dk.offsets @ xi) / dk.L
    bins = np.floor(proj / delta + 0.5).astype(np.int64)
    hw = int(np.max(np.abs(bins))) if len(bins) else 0
    masses = np.zeros(2 * hw + 1)
    np.add.at(masses, bins + hw, dk.masses)
    masses = 0.5 * (masses + masses[::-1])   # exact evenness
    return Kernel1D(delta=float(delta), masses=masses)

