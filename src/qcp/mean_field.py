"""Spatially constant density recursion and its equilibria.

One step takes v to (1 - eta) * [v + beta * (1 - v) * v^2]: attempted
births need a parent pair (the v^2), land on vacant sites (the 1 - v),
then every particle survives the cull with probability 1 - eta.  The
nonzero fixed points solve v(1 - v) = eta / (beta (1 - eta)) and exist
when beta (1 - eta) > 4 eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# snap tolerance for the tangent (double-root) case
_DISC_EPS = 1e-13


@dataclass(frozen=True)
class Params:
    """Per-step birth attempt probability beta and death probability eta."""

    beta: float
    eta: float

    def __post_init__(self):
        for name, v in (("beta", self.beta), ("eta", self.eta)):
            if isinstance(v, bool) or not (isinstance(v, (int, float))
                                           and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def mf_step(p: Params, v):
    """One application of the density map; accepts scalars or arrays."""
    return (1.0 - p.eta) * (v + p.beta * (1.0 - v) * v * v)


@dataclass(frozen=True)
class Equilibria:
    roots: tuple                # floats, in increasing order
    rho_u: float | None = None  # None below threshold
    rho_s: float | None = None


def equilibria(p: Params) -> Equilibria:
    """Fixed points of the map in [0, 1], in increasing order.

    0 is always a root.  Above threshold the interior roots are
    (1 -+ sqrt(1 - 4 eta / (beta (1 - eta)))) / 2; the minus root is
    computed in the cancellation-free form x / (2 (1 + sqrt(1 - x))).
    """
    roots = [0.0]
    rho_u = rho_s = None
    if p.beta > 0.0 and p.eta < 1.0:
        x = 4.0 * p.eta / (p.beta * (1.0 - p.eta))
        disc = 1.0 - x
        if abs(disc) <= _DISC_EPS:
            roots.append(0.5)
        elif disc > 0.0:
            s = math.sqrt(disc)
            rho_u = x / (2.0 * (1.0 + s))
            rho_s = (1.0 + s) / 2.0
            # at eta = 0 the unstable root collapses onto the root at 0
            if rho_u > 0.0:
                roots.append(rho_u)
            roots.append(rho_s)
    return Equilibria(tuple(roots), rho_u=rho_u, rho_s=rho_s)


def check_trace(v0: float, n: int) -> None:
    """ValueError unless mean_field_trace can run n steps from v0."""
    if not 0.0 <= v0 <= 1.0:
        raise ValueError("v0 must be a density in [0, 1]")
    if n < 0:
        raise ValueError("n must be nonnegative")


def mean_field_trace(p: Params, v0: float, n: int) -> np.ndarray:
    """Values v_0 .. v_n."""
    check_trace(v0, n)
    out = np.empty(n + 1)
    out[0] = v0
    for k in range(n):
        out[k + 1] = mf_step(p, out[k])
    return out
