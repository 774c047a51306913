"""Triangular vacant-region comparison process and the containment audit.

All regions share one triple of outward unit normals.  A region is
{x : xi_j . (x - y) <= h_j(t)} with per-edge support offsets h_j that
move at exactly rate -c (inward) or +b (outward); offsets are therefore
piecewise linear in time with breakpoints only at events, and the whole
evolution is event driven and exact.  A region's supports are its base,
the projections xi . y stored at its creation, plus its offsets h(t).

Writing lam for the positive coefficients with sum_j lam_j xi_j = 0 and
sum_j lam_j = 1, the inradius of a support vector g is lam . g
(independent of the centering), which gives closed forms for vanish
times, pairwise contact times and overlap formation.

Lattice errors spawn inward-shrinking triangles of inradius r; when
regions touch, the maximal collection with a common point spawns an
overlap region (their intersection) whose edges move outward at rate b
until each catches the outermost edge of the parents not yet vanished,
then turn inward.  The containment audit checks that every low-density
box lies inside the union of regions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .ide import Profile1D, apply_Q_1d
from .lattice import BoxStats, box_side_sites
from .mean_field import equilibria, mf_step
from .wavespeed import PhiData

_EPS = 1e-12
# slack of every touch, meet, containment and neighbourhood test
_SLACK = 1e-9
_EVENT_GUARD = 1_000_000
# this many contact events in a row, with no spawn, catch-up or vanish
# between them, is an overlap cascade (see RegionSet.evolve_to)
_CASCADE_RUN = 32
# the two support lines that meet at vertex k of a triangle
_VERTEX_LINES = np.array([[1, 2], [2, 0], [0, 1]])

# same-time event ordering: creations first, then interactions
_PRIO_SPAWN = 0
_PRIO_CONTACT = 1
_PRIO_CATCHUP = 2
_PRIO_VANISH = 3


def lambda_coeffs(directions: np.ndarray) -> np.ndarray:
    """Positive lam with lam @ directions = 0, normalised to sum 1."""
    d = np.asarray(directions, dtype=float)
    lam = np.array([
        d[1, 0] * d[2, 1] - d[1, 1] * d[2, 0],
        d[2, 0] * d[0, 1] - d[2, 1] * d[0, 0],
        d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0],
    ])
    if np.all(lam < 0):
        lam = -lam
    if not np.all(lam > 0):
        raise ValueError("normals must positively span the plane")
    return lam / lam.sum()


@dataclass(frozen=True)
class ComparisonConfig:
    """Geometry and thresholds tying the lattice to the region process."""

    alpha: float      # bad-box density threshold, in (rho_u, rho_s)
    c: float          # inward edge rate
    b: float          # outward (interaction) rate, 2 d(k)
    r: float          # inradius of spawned triangles
    delta1: float     # spontaneous-drop slack, in (0, Q(alpha) - alpha)
    delta2: float     # recovery-profile slack
    gamma: float
    L: int
    d_k: float
    directions: np.ndarray

    def __post_init__(self):
        for name in ("c", "b", "r", "delta1", "delta2", "d_k"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        box_side_sites(self.L, self.gamma)  # checks L and gamma
        lambda_coeffs(self.directions)  # rejects a non-spanning triple

    @property
    def lam(self) -> np.ndarray:
        return lambda_coeffs(self.directions)

    @property
    def box_side(self) -> int:
        """Sites per box side."""
        return box_side_sites(self.L, self.gamma)

    def error_rate_bound(self) -> float:
        """C L^(2 gamma - 2) with C from the two Chebyshev constants."""
        cmax = 1.0  # max{1, beta^2} with beta <= 1
        c1 = cmax / self.delta1 ** 2
        c2 = cmax / self.delta2 ** 2
        return max(c1, c2) * self.L ** (2.0 * self.gamma - 2.0)


def box_diameter(L: int, gamma: float) -> float:
    """d(B), the diameter of one box."""
    return math.sqrt(2.0) * box_side_sites(L, gamma) / L


def make_comparison_config(phi: PhiData, dk, L: int,
                           gamma: float) -> ComparisonConfig:
    """Derive all constants from the recovery profile: delta1 is half the
    one-step rise Q(alpha) - alpha, and r = ceil(l + d(B) + c + d(k))."""
    d_B = box_diameter(L, gamma)  # checks gamma before any work
    p = phi.params
    eq = equilibria(p)
    alpha = phi.alpha
    if not eq.rho_u < alpha < eq.rho_s:
        raise ValueError("alpha must lie strictly between the equilibria")
    margin = mf_step(p, alpha) - alpha
    if margin <= 0:
        raise ValueError("alpha has no one-step rise; rebuild phi with "
                         "fewer iterations")
    delta1 = margin / 2.0

    # smallest strict bound on Q_i[phi] - phi over s < 0
    neg = phi.phi.grid < 0.0
    gap = 0.0
    for k1 in phi.kernels1d:
        img = apply_Q_1d(phi.phi, k1, p)
        gap = max(gap, float(np.max(img.values[neg] - phi.phi.values[neg])))
    delta2 = max(gap, 1e-9) * (1.0 + 1e-9)

    d_k = dk.support_diameter
    if d_k <= 0:
        raise ValueError("point-mass kernels give interaction rate 0")
    c = phi.c
    r = float(math.ceil(phi.l + d_B + c + d_k))
    return ComparisonConfig(alpha=alpha, c=c, b=2.0 * d_k, r=r,
                            delta1=delta1, delta2=delta2, gamma=gamma, L=L,
                            d_k=d_k, directions=phi.directions)


@dataclass(frozen=True)
class ErrorPoint:
    """One lattice error: a point uniform in the erroring box with a
    time uniform in [n-1, n)."""

    location: tuple
    t: float
    type: str        # 'I' | 'II'
    box: tuple       # (bi, bj)
    step: int


class VacantRegion:
    """Triangle whose three edges start on one linear piece of floats,
    start = (created_at, h0, rate), edge offset h0 + rate (t - t0) on a
    piece (t0, h0, rate); pieces[j] is the piece edge j is on now.  An
    outward edge (rate > 0) turns inward once, at its catch-up; an
    inward edge never turns; base (see the module docstring) is set by
    RegionSet._add."""

    def __init__(self, rid: int, created_at: float, created_step: int,
                 center, h0: float, rate: float, parents=()):
        self.id = rid
        self.created_step = int(created_step)
        self.center = np.asarray(center, dtype=float)
        self.parents = tuple(parents)
        self.vanished_at = None
        self.start = (float(created_at), float(h0), float(rate))
        self.pieces = [self.start] * 3

    @property
    def created_at(self) -> float:
        return self.start[0]

    def alive_at(self, t: float) -> bool:
        return (self.created_at <= t + _EPS
                and (self.vanished_at is None or t <= self.vanished_at + _EPS))

    def offset(self, j: int, t: float) -> float:
        t0, h0, rate = self.pieces[j]
        if t < t0:
            t0, h0, rate = self.start
        return h0 + rate * (t - t0)

    def offsets_at(self, t: float) -> np.ndarray:
        return np.array([self.offset(j, t) for j in range(3)])

    def supports_at(self, t: float) -> np.ndarray:
        return self.base + self.offsets_at(t)

    def rates(self) -> np.ndarray:
        return np.array([piece[2] for piece in self.pieces])


def _vertices(normals: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(..., 3, 2) vertices of the triangles with supports g (..., 3):
    vertex k meets the two support lines other than line k.  One stacked
    solve runs LAPACK's gesv on each 2 x 2 system, as a solve per vertex
    would."""
    g = np.asarray(g, dtype=float)
    return np.linalg.solve(normals[_VERTEX_LINES],
                           g[..., _VERTEX_LINES, None])[..., 0]


class RegionSet:
    """All regions of one trajectory plus the evolution clock."""

    def __init__(self, cfg: ComparisonConfig):
        self.cfg = cfg
        self.normals = np.asarray(cfg.directions, dtype=float)
        self.lam = np.asarray(cfg.lam, dtype=float)
        self.regions: dict[int, VacantRegion] = {}
        self.horizon = 0.0
        self.contacts: set[frozenset] = set()
        # supports_at(t) per (region id, t), within one pass of the
        # event loop of evolve_to
        self._supports: dict = {}

    # -- queries ---------------------------------------------------------

    def alive(self, t: float) -> list:
        return [R for R in self.regions.values() if R.alive_at(t)]

    def snapshot(self, t: float):
        """Regions alive at t, their supports (K, 3), each base plus
        offsets, and vertices (K, 3, 2), computed on every call."""
        regs = self.alive(t)
        g = np.array([R.supports_at(t) for R in regs]).reshape(-1, 3)
        return regs, g, _vertices(self.normals, g)

    # -- evolution -------------------------------------------------------

    def _add(self, *args, **kwargs) -> VacantRegion:
        """Store VacantRegion(id, *args, **kwargs) under the next id."""
        reg = VacantRegion(len(self.regions), *args, **kwargs)
        reg.base = self.normals @ reg.center
        self.regions[reg.id] = reg
        return reg

    def insert_spawn(self, e: ErrorPoint) -> VacantRegion:
        """An inward-shrinking triangle of inradius r centered at the
        error."""
        return self._add(e.t, e.step, e.location, h0=self.cfg.r,
                         rate=-self.cfg.c)

    def evolve_to(self, t1: float, spawns=()) -> None:
        """Process every event up to t1 and move the clock there.

        RuntimeError on an overlap cascade: _CASCADE_RUN contact events
        in a row with no spawn, catch-up or vanish between them.  Every
        overlap region grows until it catches its parents' edges, so in
        a run that ends, contacts interleave with catch-ups.  In a
        cascade each new overlap touches another region before any
        catch-up, and the regions pile up at shrinking intervals.  Runs
        that end have shown at most 11 contacts in a row.
        """
        if t1 < self.horizon:
            raise ValueError(f"region set is at t={self.horizon}; "
                             f"cannot evolve back to {t1}")
        spawn_queue = sorted(spawns, key=lambda e: (e.t, e.type, e.box))
        if spawn_queue and spawn_queue[-1].t > t1 + _EPS:
            raise ValueError("spawn scheduled beyond the target time")
        if spawn_queue and spawn_queue[0].t < self.horizon - _EPS:
            raise ValueError("spawn scheduled before the clock")
        contacts_in_a_row = 0
        for _ in range(_EVENT_GUARD):
            self._supports.clear()
            event = self._next_event(self.horizon, t1, spawn_queue)
            if event is None:
                break
            t, prio, payload = event
            self.horizon = t
            contacts_in_a_row = (contacts_in_a_row + 1
                                 if prio == _PRIO_CONTACT else 0)
            if contacts_in_a_row >= _CASCADE_RUN:
                raise RuntimeError(
                    f"overlap cascade: {contacts_in_a_row} contact events "
                    f"in a row by t={t:.12g}, with no catch-up between "
                    f"them; {len(self.regions)} regions so far")
            if prio == _PRIO_SPAWN:
                spawn_queue.pop(0)
                self.insert_spawn(payload)
            elif prio == _PRIO_CONTACT:
                self._form_overlap(payload, t)
            elif prio == _PRIO_CATCHUP:
                self._do_catchup(payload, t)
            else:
                self.regions[payload].vanished_at = float(t)
                self.contacts = {pair for pair in self.contacts
                                 if payload not in pair}
        else:
            raise RuntimeError("event guard exceeded; runaway geometry")
        self.horizon = t1

    def _supports_at(self, R: VacantRegion, t: float) -> np.ndarray:
        key = (R.id, t)
        g = self._supports.get(key)
        if g is None:
            g = self._supports[key] = R.supports_at(t)
        return g

    def _pair_inradius(self, A, B, t: float) -> float:
        ga = self._supports_at(A, t)
        gb = self._supports_at(B, t)
        return float(self.lam @ np.minimum(ga, gb))

    def _next_event(self, now: float, t1: float, spawn_queue):
        best = None

        def consider(t, prio, payload):
            nonlocal best
            if t is None or t > t1 + _EPS:
                return
            t = max(t, now)
            if best is None or (t, prio) < best[:2]:
                best = (t, prio, payload)

        if spawn_queue:
            consider(spawn_queue[0].t, _PRIO_SPAWN, spawn_queue[0])

        # event sources: regions created and not yet vanished (a region
        # stays a member of the vacant set at its vanish instant, but
        # generates no further events)
        alive = [R for R in self.alive(now) if R.vanished_at is None]
        for R in alive:
            rho = float(self.lam @ R.offsets_at(now))
            slope = float(self.lam @ R.rates())
            if slope < -_EPS and rho > -_EPS:
                consider(now + max(rho, 0.0) / (-slope), _PRIO_VANISH, R.id)
            for j, piece in enumerate(R.pieces):
                if piece[2] > 0:  # outward
                    consider(self._catchup_time(R, j, now), _PRIO_CATCHUP,
                             (R.id, j))

        for A, B in itertools.combinations(alive, 2):
            pair = frozenset((A.id, B.id))
            # a pair that has come apart since it touched is re-armed
            if (pair in self.contacts
                    and self._pair_inradius(A, B, now) < -_SLACK):
                self.contacts.remove(pair)
            if pair not in self.contacts:
                consider(self._contact_time(A, B, now, t1), _PRIO_CONTACT,
                         (A.id, B.id))
        return best

    def _targets(self, R: VacantRegion) -> list:
        """The parents not yet vanished: an outward edge's targets."""
        return [self.regions[i] for i in R.parents
                if self.regions[i].vanished_at is None]

    def _catchup_time(self, R: VacantRegion, j: int, now: float):
        g_self = float(self._supports_at(R, now)[j])
        rate = R.pieces[j][2]
        t_best = now
        for P in self._targets(R):
            g_p = float(self._supports_at(P, now)[j])
            rate_p = P.pieces[j][2]
            if g_self >= g_p - _EPS:
                continue
            if rate <= rate_p + _EPS:
                return None   # cannot close the gap in this regime
            t_best = max(t_best, now + (g_p - g_self) / (rate - rate_p))
        return t_best

    def _contact_time(self, A, B, now: float, t1: float):
        if self._pair_inradius(A, B, now) >= -_SLACK:
            return now
        ga = self._supports_at(A, now)
        gb = self._supports_at(B, now)
        ra, rb = A.rates(), B.rates()
        # kinks where the per-edge min switches branch
        kinks = [now]
        for j in range(3):
            dr = ra[j] - rb[j]
            if abs(dr) > _EPS:
                tk = now + (gb[j] - ga[j]) / dr
                if now < tk < t1:
                    kinks.append(tk)
        kinks.append(t1)
        kinks = sorted(set(kinks))
        for lo, hi in zip(kinks[:-1], kinks[1:]):
            v_lo = self._pair_inradius(A, B, lo)
            v_hi = self._pair_inradius(A, B, hi)
            if v_lo >= -_SLACK:
                return lo
            if v_hi >= -_SLACK:
                # linear on [lo, hi]
                frac = (0.0 - v_lo) / (v_hi - v_lo)
                return lo + frac * (hi - lo)
        return None

    def _form_overlap(self, pair, t: float):
        seed = [self.regions[i] for i in pair]
        alive = self.alive(t)
        chosen = list(seed)
        common = np.minimum(*(self._supports_at(R, t) for R in seed))
        if float(self.lam @ common) < -_SLACK:
            # separated again before processing; drop silently
            self.contacts.add(frozenset(pair))
            return
        for R in alive:
            if R in chosen:
                continue
            trial = np.minimum(common, self._supports_at(R, t))
            if float(self.lam @ trial) >= -_SLACK:
                chosen.append(R)
                common = trial
        # incenter: equal margin to the three support lines
        A = np.column_stack([self.normals, np.ones(3)])
        sol = np.linalg.solve(A, common)
        center, rho = sol[:2], max(sol[2], 0.0)
        step = int(math.ceil(t - 1e-9))
        ids = [R.id for R in chosen]
        reg = self._add(t, step, center, h0=rho, rate=self.cfg.b,
                        parents=ids)
        self.contacts.update(frozenset(pair) for pair in
                             itertools.combinations(ids + [reg.id], 2))

    def _do_catchup(self, payload, t: float):
        rid, j = payload
        R = self.regions[rid]
        live = self._targets(R)
        if live:
            # land exactly on the outermost live parent edge
            g_target = max(float(self._supports_at(P, t)[j]) for P in live)
            h_new = g_target - float(R.base[j])
        else:
            h_new = R.offset(j, t)
        R.pieces[j] = (float(t), float(h_new), -float(self.cfg.c))


# -- recovery profile field ----------------------------------------------

class ProfileCache:
    """Iterated recovery profiles per (direction, age), each age computed
    once, when first asked for.

    apply_Q_1d reads past the right end of the grid as the right limit.
    So an age whose last kernel half-width hw of points equals its limit
    bit for bit gives the next age on the same grid; otherwise the grid
    first grows by hw points of the limit.  phi's right limit is 0, which
    the operator and mf_step both keep, so every age equals its limit
    past its grid.  So on the points they share, the ladder equals one
    built on a grid widened in advance by hw per age, bit for bit.
    Underflow ends the front's spread after a few widenings.
    """

    def __init__(self, phi: PhiData):
        self.phi = phi
        self.tables = [[phi.phi] for _ in phi.kernels1d]

    def _build(self, cap: int):
        """Grow every direction's ladder to age cap."""
        for k1, ladder in zip(self.phi.kernels1d, self.tables):
            hw = k1.halfwidth
            while len(ladder) <= cap:
                prof = ladder[-1]
                if hw and np.any(prof.values[-hw:] != prof.right_limit):
                    prof = Profile1D(
                        prof.s0, prof.delta,
                        np.concatenate([prof.values,
                                        np.full(hw, prof.right_limit)]),
                        prof.left_limit, prof.right_limit)
                ladder.append(apply_Q_1d(prof, k1, self.phi.params))

    def profile(self, j: int, age: int) -> Profile1D:
        if age < 0:
            raise ValueError("age must be nonnegative")
        if age >= len(self.tables[j]):   # every ladder has one length
            self._build(age)
        return self.tables[j][age]


def _project(v, normals: np.ndarray) -> np.ndarray:
    """(..., 3) projections xi_j . v of (..., 2) vectors, as one (P, 2) @
    (2, 3) product.  For P >= 2 it rounds like normals[j] @ v; for one
    vector it rounds like normals @ v, which often differs from that in
    the last bit."""
    v = np.asarray(v, dtype=float)
    return (v.reshape(-1, 2) @ normals.T).reshape(v.shape[:-1] + (3,))


def _edge_coords(points, regions, normals: np.ndarray) -> np.ndarray:
    """(P, K, 3) signed edge coordinates xi_j . (x_p - center_k)."""
    points = np.asarray(points, dtype=float).reshape(-1, 1, 2)
    centers = np.array([R.center for R in regions]).reshape(1, -1, 2)
    return _project(points - centers, normals)


def _recovery_demand(points, regions, mask, normals: np.ndarray,
                     cache: ProfileCache, n: int) -> np.ndarray:
    """h_n at each point: max over directions j of the minimum, over the
    regions R with mask[p, R], of the profile of direction j and age
    n - R.created_step at the edge coordinate; 0 if mask[p] is empty."""
    s = _edge_coords(points, regions, normals)
    vals = np.full(s.shape, np.inf)
    for k, R in enumerate(regions):
        rows = mask[:, k]
        if rows.any():
            for j in range(3):
                prof = cache.profile(j, n - R.created_step)
                vals[rows, k, j] = prof.evaluate(s[rows, k, j])
    h = vals.min(axis=1, initial=np.inf).max(axis=1)
    return np.where(mask.any(axis=1), h, 0.0)


# -- geometric predicates for boxes ---------------------------------------

def _corner_coords(rects, normals: np.ndarray) -> np.ndarray:
    """(..., 4, 3) projections xi_j . corner of the four corners of
    (..., 4) rectangles (x0, y0, x1, y1)."""
    r = np.asarray(rects, dtype=float)
    return _project(np.stack([r[..., [0, 2, 0, 2]], r[..., [1, 1, 3, 3]]],
                             axis=-1), normals)


@functools.lru_cache(maxsize=16)
def _box_grid(L: int, b: int, nb: int, normals: tuple):
    """Read-only rectangles (x0, y0, x1, y1), (nb, nb, 4), of the boxes
    of b sites at spacing 1/L, box (bi, bj) from (bi b/L, bj b/L), and
    their least corner projections on the normals (nb, nb, 3)."""
    x0 = np.arange(nb) * b / L
    x1 = x0 + b / L
    rects = np.stack(np.broadcast_arrays(x0[:, None], x0[None, :],
                                         x1[:, None], x1[None, :]), axis=-1)
    lo = _corner_coords(rects, np.array(normals).reshape(3, 2)).min(axis=-2)
    rects.flags.writeable = lo.flags.writeable = False
    return rects, lo


def _boxes(rs: RegionSet, *stats: BoxStats):
    """_box_grid of stats, which must have the L and box side of rs.cfg
    and one window side."""
    cfg = rs.cfg
    for st in stats:
        if (st.L, st.b) != (cfg.L, cfg.box_side):
            raise ValueError(
                f"box statistics at L={st.L} with boxes of b={st.b} sites "
                f"do not match the comparison config (L={cfg.L}, "
                f"b={cfg.box_side})")
    if len({st.side for st in stats}) > 1:
        raise ValueError("box statistics come from windows of different "
                         "sides: " + ", ".join(str(st.side) for st in stats))
    return _box_grid(cfg.L, cfg.box_side, stats[0].nb,
                     tuple(rs.normals.ravel().tolist()))


def _rects_meet(rects, lo, g: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """(..., K): the rectangle, with least corner projections lo, meets
    region k (supports g[k], vertices verts[k]); separating axes are the
    edge normals and the x, y axes."""
    apart = np.any(lo[..., None, :] > g + _SLACK, axis=-1)
    r = np.asarray(rects, dtype=float)[..., None, :]
    apart |= np.any((verts.max(axis=1) < r[..., :2] - _SLACK)
                    | (verts.min(axis=1) > r[..., 2:] + _SLACK), axis=-1)
    return ~apart


def _rect_in_union(rect, g, verts, normals, depth: int = 6) -> bool:
    proj = _corner_coords(rect, normals)
    if np.all(proj[None] <= g[:, None, :] + _SLACK, axis=(-2, -1)).any():
        return True
    touching = _rects_meet(rect, proj.min(axis=-2), g, verts)
    if not touching.any() or depth == 0:
        return False
    x0, y0, x1, y1 = rect
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    quads = [(x0, y0, xm, ym), (xm, y0, x1, ym),
             (x0, ym, xm, y1), (xm, ym, x1, y1)]
    return all(_rect_in_union(q, g[touching], verts[touching], normals,
                              depth - 1) for q in quads)


# -- error detection and containment --------------------------------------

def detect_errors(prev: BoxStats, cur: BoxStats, rs: RegionSet,
                  cache: ProfileCache, rng: _rng.LatticeRng) -> list:
    """Compare two consecutive box statistics against the region set.

    Type I: a box whose d(k)-surroundings were region-free at n-1 and
    whose density fell to alpha or below at n.  Type II: a box meeting
    the region union at n whose density fell below the recovery demand
    h_n at the box center, read off the profiles in cache.  One
    uniformly placed point per erroring box.  ValueError unless prev
    and cur are one step apart, come from one window and have the L and
    box side of rs.cfg.
    """
    cfg, n = rs.cfg, cur.time
    if prev.time != n - 1:
        raise ValueError("box statistics must be one step apart")
    rects, lo = _boxes(rs, prev, cur)
    dens_prev = prev.density()
    dens_cur = cur.density()
    # all geometry is queried at n-1: the audit-time shrink is what the
    # +c term in the spawn inradius pays for
    regs, g, verts = rs.snapshot(n - 1)
    meets = _rects_meet(rects, lo, g, verts)             # (nb, nb, K)
    touched = meets.any(axis=-1)

    # Type I: no box within d(k) of the dropped box meets a region
    bad = np.argwhere((dens_cur <= cfg.alpha) & (dens_prev > cfg.alpha))
    a = rects[bad[:, 0], bad[:, 1], None, None, :]     # (B, 1, 1, 4)
    dx = np.maximum(0.0, np.maximum(a[..., 0] - rects[..., 2],
                                    rects[..., 0] - a[..., 2]))
    dy = np.maximum(0.0, np.maximum(a[..., 1] - rects[..., 3],
                                    rects[..., 1] - a[..., 3]))
    near = np.hypot(dx, dy) <= cfg.d_k + _SLACK        # (B, nb, nb)
    clear = ~np.any(near & touched, axis=(1, 2))
    errors = [("I", int(bi), int(bj)) for bi, bj in bad[clear]]

    # Type II: a box meeting a region fell below h_n at its center
    bi, bj = np.nonzero(touched)
    if len(bi):
        centers = 0.5 * (rects[bi, bj, :2] + rects[bi, bj, 2:])
        h = _recovery_demand(centers, regs, meets[bi, bj], rs.normals,
                             cache, n)
        low = dens_cur[bi, bj] < h
        errors += [("II", int(i), int(j)) for i, j in zip(bi[low], bj[low])]

    # uniform placements, drawn in canonical error order
    errors.sort()
    if not errors:
        return []
    u = rng.stream(n, _rng.PHASE_ERROR_POINT).random((len(errors), 3))
    out = []
    w = cur.b / cur.L
    for (etype, bi, bj), (ux, uy, ut) in zip(errors, u):
        x0, y0 = rects[bi, bj, :2]
        out.append(ErrorPoint(location=(x0 + ux * w, y0 + uy * w),
                              t=n - 1 + ut, type=etype, box=(bi, bj),
                              step=n))
    return out


@dataclass
class ContainmentReport:
    time: int
    bad_boxes: list
    violations: list = field(default_factory=list)

    @property
    def n_bad(self) -> int:
        return len(self.bad_boxes)


def check_containment(stats: BoxStats, rs: RegionSet) -> ContainmentReport:
    """Verify every bad box (density <= alpha) sits inside the union of
    regions at the time of stats.  Violations are data, not exceptions;
    box statistics without the L and box side of rs.cfg are a
    ValueError."""
    rects, _ = _boxes(rs, stats)
    bad = [(int(bi), int(bj))
           for bi, bj in np.argwhere(stats.density() <= rs.cfg.alpha)]
    _, g, verts = rs.snapshot(stats.time)
    violations = [b for b in bad
                  if not _rect_in_union(rects[b], g, verts, rs.normals)]
    return ContainmentReport(time=stats.time, bad_boxes=bad,
                             violations=violations)

