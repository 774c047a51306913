"""Directional spreading speeds via the monotone front recursion.

For a direction xi and trial speed c, iterate

    f_{n+1}(s) = max{ psi(s), Q1d[f_n](s + c) }

from a compactly based hump psi.  The iterates are nondecreasing in n,
nonincreasing in s and bounded by rho_s; if they climb to rho_s at the
far right of the probe interval the trial speed is below the spreading
speed c*(xi), and if they stall the trial speed is at or above it.
Bisection over c then brackets c*.  The same machinery builds the
recovery profile phi = min_i f_{n,i} over three directions, together
with the constants (alpha, m, M, l, c) the comparison process needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ide import Profile1D, _image, apply_Q_1d
from .kernel import DiscreteKernel, Kernel1D, marginal_1d, unit_direction
from .mean_field import Params, equilibria, mf_step

BELOW = "below_cstar"
AT_OR_ABOVE = "at_or_above"

# grid steps per kernel diameter
_STEPS_PER_DIAMETER = 64
# probe interval right end, in kernel diameters
_PROBE_DIAMETERS = 20.0
# build_phi: slack of the translation-domination check and of the
# plateau and tail read-offs, and the number of times n is raised by 2
# when the check fails
_PHI_TOL = 1e-6
_PHI_RETRIES = 5


class SpeedIndeterminate(RuntimeError):
    """A trial speed ran out of iterations without meeting either
    criterion, or the bracket endpoints were misclassified."""


def _hump(dk: DiscreteKernel, p: Params,
          s_max: float | None = None) -> Profile1D:
    """The start psi of every front recursion, on the grid of step
    d(k)/64 from -(7 d(k)) - 2 step up to s_max, by default the probe
    interval's right end: the plateau (rho_u + rho_s)/2 for
    s <= -5 d(k), linear down to 0 at s = 0, zero afterwards.  Raises
    ValueError unless d(k) > 0 and p is bistable."""
    d = dk.support_diameter
    if not d > 0.0:
        raise ValueError(f"the kernel diameter d(k) must be positive, got {d}")
    eq = equilibria(p)
    if eq.rho_u is None:
        raise ValueError("spreading speeds need bistable parameters")
    delta = d / _STEPS_PER_DIAMETER
    width = 5.0 * d
    s_min = -(width + 2.0 * d) - 2 * delta
    if s_max is None:
        s_max = _PROBE_DIAMETERS * d
    n = int(math.floor((s_max - s_min) / delta + 0.5)) + 1
    s = s_min + np.arange(n) * delta
    plateau = 0.5 * (eq.rho_u + eq.rho_s)
    vals = np.clip(-s / width, 0.0, 1.0) * plateau
    vals[s >= 0.0] = 0.0
    return Profile1D(s0=s_min, delta=delta, values=vals,
                     left_limit=plateau, right_limit=0.0)


def weinberger_step(f: Profile1D, c: float, k1: Kernel1D, p: Params,
                    psi: Profile1D) -> Profile1D:
    """One recursion step: max of psi with the Q image read at s + c
    (linear interpolation for off-grid shifts, which preserves
    monotonicity).  The reference for the probe loop, which runs the
    same step on bare arrays."""
    if (abs(f.s0 - psi.s0) > 1e-9 or len(f.values) != len(psi.values)
            or abs(f.delta - psi.delta) > 1e-12):
        raise ValueError("profile and psi must share one grid")
    g = apply_Q_1d(f, k1, p)
    shifted = g.evaluate(f.grid + c)
    vals = np.maximum(psi.values, shifted)
    return Profile1D(f.s0, f.delta, vals,
                     left_limit=max(psi.left_limit, g.left_limit),
                     right_limit=max(psi.right_limit, g.right_limit))


def _budget(dk: DiscreteKernel, tol: float) -> int:
    """Recursion steps a bisection probe may run before it raises.  A
    probe just below c* must still cross the probe interval at front
    speed ~ c* - c, with slack for the slow ramp-up near criticality,
    and a probe can land arbitrarily close to c*, where both criteria
    are slow: hence the factor 16."""
    s_span = (_PROBE_DIAMETERS + 2.0) * dk.support_diameter
    return 16 * max(20000, int(8.0 * s_span / max(tol, 1e-6)))


def _front_iterates(c, psi: Profile1D, k1: Kernel1D, p: Params):
    """The iterates f_1, f_2, ... of weinberger_step from psi at trial
    speed c, as (values, left_limit, right_limit, span, sup): f_n equals
    f_{n-1} bit for bit outside values[span], and sup = max |f_n - f_{n-1}|.

    Each step recomputes only the points whose inputs changed at the
    last step: the image Q[f] within the kernel half-width of a change
    of f, and f_{n+1} within the shift reach of a change of the image.
    A limit that changed puts the whole edge on its side in the window.
    Inside the window the arithmetic is that of weinberger_step on the
    same inputs, and outside it the inputs did not change, so every
    iterate is bit-identical to it.  A yielded array is never written to again.
    """
    grid = psi.grid
    n, hw = len(grid), k1.halfwidth
    shifted = grid + c
    # f_{n+1}(i) reads the image at most this many points from i, or the
    # image limit beyond the grid end; the image reads f within hw
    reach = hw + math.ceil(abs(c) / psi.delta) + 2
    squares = np.empty(n + 2 * hw)  # f^2, each limit hw times on its side
    g = np.empty(n)                 # the image Q[f] on the grid
    values, left, right = psi.values, psi.left_limit, psi.right_limit
    # f changed at the last step only at indices in [lo, hi); -1 and n
    # stand for its left and right limits
    lo, hi = -1, n + 1
    while lo < hi:
        if lo < 0:
            squares[:hw] = left * left
            g_left = mf_step(p, left)
        if hi > n:
            squares[n + hw:] = right * right
            g_right = mf_step(p, right)
        a, b = max(lo, 0), min(hi, n)
        np.multiply(values[a:b], values[a:b], out=squares[a + hw:b + hw])
        a, b = max(lo - hw, 0), min(hi + hw, n)
        if a < b:
            conv = np.correlate(squares[a:b + 2 * hw], k1.masses)
            _image(values[a:b], conv, p, out=g[a:b])

        a, b = max(lo - reach, 0), min(hi + reach, n)
        nxt = values.copy()
        seg, old = nxt[a:b], values[a:b]
        np.maximum(psi.values[a:b],
                   np.interp(shifted[a:b], grid, g, left=g_left,
                             right=g_right), out=seg)
        changed = (seg.view(np.int64) != old.view(np.int64)).nonzero()[0]
        lo, hi = (a + changed[0], a + changed[-1] + 1) if len(changed) \
            else (n, 0)
        # f is unchanged outside [lo, hi); argmax is cheaper than max
        step = np.abs(nxt[lo:hi] - values[lo:hi])
        sup = float(step[step.argmax()]) if len(step) else 0.0
        nxt_left = max(psi.left_limit, g_left)
        nxt_right = max(psi.right_limit, g_right)
        if nxt_left != left:
            lo, hi = -1, max(hi, 0)
        if nxt_right != right:
            lo, hi = min(lo, n), n + 1
        values, left, right = nxt, nxt_left, nxt_right
        yield values, left, right, slice(max(lo, 0), min(hi, n)), sup
    while True:  # nothing changed: a fixed point
        yield values, left, right, slice(0, 0), 0.0


def _classify(c, psi: Profile1D, k1: Kernel1D, p: Params, tol: float,
              budget: int):
    """(class, steps) of trial speed c: 'below_cstar' once the profile
    exceeds rho_s - tol one kernel diameter before the right end of
    psi's grid, 'at_or_above' once the sup change per step drops under
    tol/10 without that growth; SpeedIndeterminate after budget steps."""
    top, still = equilibria(p).rho_s - tol, tol / 10.0
    probe = len(psi.values) - 1 - _STEPS_PER_DIAMETER
    iterates = _front_iterates(c, psi, k1, p)
    for it, (values, _, _, _, sup) in zip(range(1, budget + 1), iterates):
        if values[probe] > top:
            return BELOW, it
        if sup < still:
            return AT_OR_ABOVE, it
    raise SpeedIndeterminate(
        f"no classification for c={c} after {budget} iterations")


@dataclass
class SpeedResult:
    xi: np.ndarray
    c_star: float
    bracket: tuple
    iterations: int
    trace: list = field(default_factory=list)


def estimate_cstar(xi, dk: DiscreteKernel, p: Params, tol: float = 0.01, *,
                   memo: dict | None = None) -> SpeedResult:
    """Bisect the trial-speed class over [-d(k)-1, d(k)+1] down to a
    bracket of width tol; c_star is reported as the bracket's upper end,
    so c_lo < c* <= c_star.

    The bisection sees xi only through its line marginal.  ``memo`` is
    a dict owned by the caller, shared only between calls that differ
    in xi alone: it maps the marginal's mass bytes to the bisection
    outcome, and a direction whose marginal is already in it gets that
    trace and bracket back with ``iterations`` 0, the recursion steps
    actually run.
    """
    # tol <= 0 or NaN would never meet the stall criterion, and the
    # bisection would never narrow to it
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    psi = _hump(dk, p)
    xi = unit_direction(xi)
    k1 = marginal_1d(dk, xi, psi.delta)
    key = k1.masses.tobytes()
    if memo is not None and key in memo:
        trace, (lo, hi) = memo[key]
        return SpeedResult(xi=xi, c_star=hi, bracket=(lo, hi),
                           iterations=0, trace=list(trace))
    budget, probe_tol = _budget(dk, tol), min(tol, 1e-2)
    lo, hi = -dk.support_diameter - 1.0, dk.support_diameter + 1.0
    trace, steps = [], []

    def probe(c):
        cls, its = _classify(c, psi, k1, p, probe_tol, budget)
        trace.append((c, cls))
        steps.append(its)
        return cls

    cls_lo, cls_hi = probe(lo), probe(hi)
    if cls_lo != BELOW or cls_hi != AT_OR_ABOVE:
        raise SpeedIndeterminate(
            f"bracket endpoints misclassified: {cls_lo} / {cls_hi}")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if probe(mid) == BELOW:
            lo = mid
        else:
            hi = mid
    if memo is not None:
        memo[key] = (tuple(trace), (lo, hi))
    return SpeedResult(xi=xi, c_star=hi, bracket=(lo, hi),
                       iterations=sum(steps), trace=trace)


def check_tracking(xi, steps: int) -> np.ndarray:
    """xi as a unit vector; ValueError unless front_speed_tracking can
    run on this direction and step count (_hump checks the kernel and
    the parameters).  It calls this before any work."""
    if steps < 3:  # the fit needs three positions, steps // 2 + 1 of them
        raise ValueError(f"steps must be at least 3, got {steps}")
    return unit_direction(xi)


def front_speed_tracking(xi, dk: DiscreteKernel, p: Params,
                         steps: int = 80) -> float:
    """Independent speed oracle: iterate plain Q on a half-plane-type
    profile and fit the displacement per step of the rho_s/2 level
    crossing by least squares over the last half of the run, on the
    grid step of the front recursion."""
    xi = check_tracking(xi, steps)
    delta = _hump(dk, p).delta
    eq = equilibria(p)
    level = 0.5 * eq.rho_s
    d = dk.support_diameter
    k1 = marginal_1d(dk, xi, delta)

    margin = steps * (0.5 * d + delta) + 5.0 * d
    n = 2 * int(margin / delta) + 1
    s0 = -margin
    vals = np.where(s0 + np.arange(n) * delta < 0.0, eq.rho_s, 0.0)
    f = Profile1D(s0, delta, vals, left_limit=eq.rho_s, right_limit=0.0)

    positions = np.empty(steps + 1)
    positions[0] = _level_crossing(f, level)
    for k in range(steps):
        f = apply_Q_1d(f, k1, p)
        positions[k + 1] = _level_crossing(f, level)
    tail = np.arange(steps // 2, steps + 1)
    slope = np.polyfit(tail.astype(float), positions[tail], 1)[0]
    return float(slope)


def _level_crossing(f: Profile1D, level: float) -> float:
    vals = f.values
    below = np.nonzero(vals < level)[0]
    if len(below) == 0 or below[0] == 0:
        raise RuntimeError("level crossing left the tracking grid")
    i = below[0]
    v0, v1 = vals[i - 1], vals[i]
    frac = (v0 - level) / (v0 - v1)
    return f.s0 + (i - 1 + frac) * f.delta


@dataclass
class PhiData:
    """Recovery profile and the constants derived from it."""

    phi: Profile1D
    m: float
    M: float
    directions: np.ndarray      # (3, 2) unit normals
    speeds: tuple               # measured c*(xi_i)
    kernels1d: list             # marginal per direction
    params: Params
    n_iter: int

    @property
    def alpha(self) -> float:
        return self.phi.left_limit

    @property
    def l(self) -> float:
        return self.M - self.m

    @property
    def c(self) -> float:
        return min(self.speeds) / 2.0


def default_directions() -> np.ndarray:
    """Outward normals 45, 165, 285 degrees: pairwise 120 apart."""
    ang = np.deg2rad([45.0, 165.0, 285.0])
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def validate_direction_triple(directions: np.ndarray) -> np.ndarray:
    dirs = np.array([unit_direction(x) for x in directions])
    if dirs.shape != (3, 2):
        raise ValueError("exactly three directions required")
    for i in range(3):
        for j in range(i + 1, 3):
            dot = float(dirs[i] @ dirs[j])
            if not -1.0 + 1e-9 < dot < -1e-9:
                raise ValueError(
                    "directions must be outward normals of an acute "
                    f"triangle (pairwise angles in (90, 180) deg); "
                    f"dot(xi_{i}, xi_{j}) = {dot}")
    return dirs


def build_phi(xi1, xi2, xi3, dk: DiscreteKernel, p: Params, n: int = 4,
              speed_tol: float = 0.02) -> PhiData:
    """phi = min_i f_{n,i} at the common speed c = min_i c*(xi_i)/2.

    Verifies the translation domination phi(s - c) <= Q_i[phi](s) + tol
    with tol = _PHI_TOL on the grid for every direction; if it fails, n
    is raised by 2 and the iteration rerun, at most _PHI_RETRIES times.
    alpha is the analytic left limit; m and M are read off with the same
    tolerance since exact threshold equality is measure zero on a grid.
    """
    dirs = validate_direction_triple([xi1, xi2, xi3])
    # directions with identical line marginals (reflections of one
    # another for the symmetric kernels) share one bisection
    memo = {}
    speeds = tuple(estimate_cstar(x, dk, p, tol=speed_tol, memo=memo).c_star
                   for x in dirs)
    if min(speeds) <= 0.0:
        raise ValueError(f"all three directions need positive speed, "
                         f"got {speeds}")
    c = min(speeds) / 2.0

    d = dk.support_diameter
    floor = 2.0 * equilibria(p).rho_u
    for n in range(n, n + 2 * _PHI_RETRIES + 1, 2):
        psi = _hump(dk, p, s_max=(n + 2) * 0.5 * d + 2.0 * d)
        k1s = [marginal_1d(dk, x, psi.delta) for x in dirs]
        fronts = []  # (values, left limit) of f_n per direction
        for k1 in k1s:
            iterates = _front_iterates(c, psi, k1, p)
            values, left = psi.values, psi.left_limit
            for _ in range(n):
                values, left, *_ = next(iterates)
            fronts.append((values, left))
        phi = Profile1D(psi.s0, psi.delta,
                        np.min([v for v, _ in fronts], axis=0),
                        left_limit=min(left for _, left in fronts),
                        right_limit=0.0)
        # below the unstable root the map contracts toward 0, so the
        # translate inequality is unattainable there at finite n (and
        # vacuous for the comparison thresholds, which sit above rho_u);
        # verify it where the profile carries persistent density
        ok, images = _check_domination(phi, k1s, p, c, floor)
        if ok:
            break
    else:
        raise RuntimeError(
            f"translation domination failed up to n={n}; profile has not "
            "converged far enough")

    alpha, grid = phi.left_limit, phi.grid
    m_vals, M_vals = [], []
    for g in images:
        at_plateau = np.nonzero(g.values >= alpha - _PHI_TOL)[0]
        near_zero = np.nonzero(g.values <= _PHI_TOL)[0]
        if len(at_plateau) == 0 or len(near_zero) == 0:
            raise RuntimeError("phi image misses its plateau or its tail; "
                               "widen the grid")
        m_vals.append(grid[at_plateau[-1]])
        M_vals.append(grid[near_zero[0]])
    return PhiData(phi=phi, m=min(m_vals), M=max(M_vals), directions=dirs,
                   speeds=speeds, kernels1d=k1s, params=p, n_iter=n)


def _check_domination(phi, k1s, p, c, floor):
    translated = phi.evaluate(phi.grid - c)
    images = [apply_Q_1d(phi, k1, p) for k1 in k1s]
    mask = translated >= floor
    ok = all(np.all(translated[mask] <= g.values[mask] + _PHI_TOL)
             for g in images)
    return ok, images
