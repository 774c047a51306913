"""NaN and inf fuzzing of the validated constructors: a non-finite
number in any numeric slot is a ValueError when the object is built,
and finite draws either build or raise ValueError, never another
error."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcp.comparison import ComparisonConfig
from qcp.ide import Field2D, Profile1D
from qcp.kernel import KernelSpec, build_kernel, marginal_1d
from qcp.mean_field import Params
from qcp.wavespeed import default_directions


NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(-10.0, 10.0)
EXAMPLES = settings(max_examples=100, deadline=None)


def build_or_value_error(make):
    try:
        make()
    except ValueError:
        pass


@EXAMPLES
@given(args=st.lists(FINITE, min_size=2, max_size=2),
       slot=st.integers(0, 1), bad=NONFINITE)
def test_params(args, slot, bad):
    build_or_value_error(lambda: Params(*args))
    args[slot] = bad
    with pytest.raises(ValueError):
        Params(*args)


# each family's numeric slots, as (name, finite draws)
KERNEL_SLOTS = {
    "uniform-square": ["radius"],
    "truncated-gaussian": ["sigma", "cutoff"],
}


@EXAMPLES
@given(family=st.sampled_from(sorted(KERNEL_SLOTS)),
       values=st.lists(st.floats(0.1, 3.0), min_size=2, max_size=2),
       slot=st.integers(0, 1), bad=NONFINITE)
def test_analytic_kernel_spec(family, values, slot, bad):
    names = KERNEL_SLOTS[family]
    params = dict(zip(names, values))
    build_kernel(KernelSpec(family, params))
    params[names[slot % len(names)]] = bad
    with pytest.raises(ValueError):
        build_kernel(KernelSpec(family, params))


@EXAMPLES
@given(dx=st.floats(0.0, 2.0), dy=st.floats(0.0, 2.0),
       atom=st.integers(0, 3), slot=st.integers(0, 2), bad=NONFINITE)
def test_table_kernel_spec(dx, dy, atom, slot, bad):
    # four mirror atoms of mass 1/4: a valid symmetric table
    entries = [[sx * dx, sy * dy, 0.25] for sx in (1, -1) for sy in (1, -1)]
    build_or_value_error(
        lambda: build_kernel(KernelSpec("table", {"entries": entries})))
    entries[atom][slot] = bad
    with pytest.raises(ValueError):
        build_kernel(KernelSpec("table", {"entries": entries}))


@EXAMPLES
@given(geometry=st.lists(FINITE, min_size=4, max_size=4),
       h=st.floats(1e-3, 10.0), fill=st.floats(0.0, 1.0),
       slot=st.integers(0, 4), bad=NONFINITE)
def test_field2d(geometry, h, fill, slot, bad):
    x0, y0, clamp, _ = geometry
    args = [x0, y0, h, np.full((3, 4), fill), "clamped", clamp]
    Field2D(*args)
    if slot == 3:  # one grid value
        args[3][1, 2] = bad
    else:
        args[(0, 1, 2, None, 5)[slot]] = bad
    with pytest.raises(ValueError):
        Field2D(*args)


@EXAMPLES
@given(s0=FINITE, delta=st.floats(1e-3, 10.0),
       values=st.lists(FINITE, min_size=1, max_size=6),
       limits=st.lists(FINITE, min_size=2, max_size=2),
       slot=st.integers(0, 4), bad=NONFINITE, at=st.integers(0, 5))
def test_profile1d(s0, delta, values, limits, slot, bad, at):
    args = [s0, delta, np.array(values), *limits]
    Profile1D(*args)
    if slot == 2:  # one grid value
        args[2][at % len(values)] = bad
    else:
        args[slot] = bad
    with pytest.raises(ValueError):
        Profile1D(*args)


# the float slots of ComparisonConfig
CONFIG_SLOTS = ("alpha", "c", "b", "r", "delta1", "delta2", "gamma", "d_k")


@EXAMPLES
@given(values=st.lists(FINITE, min_size=len(CONFIG_SLOTS),
                       max_size=len(CONFIG_SLOTS)),
       L=st.integers(-3, 500), slot=st.integers(0, len(CONFIG_SLOTS)),
       bad=NONFINITE)
def test_comparison_config(values, L, slot, bad):
    args = dict(zip(CONFIG_SLOTS, values), L=L,
                directions=default_directions())
    build_or_value_error(lambda: ComparisonConfig(**args))
    args[(*CONFIG_SLOTS, "L")[slot]] = bad
    with pytest.raises(ValueError):
        ComparisonConfig(**args)


# every function that takes a profile grid step; each must reject a bad
# one before any work (the speed layer derives its step, d(k)/64, from
# the kernel)
GRID_STEP_USERS = {
    "marginal_1d": lambda dk, p, delta: marginal_1d(dk, (1.0, 0.0), delta),
}


@pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(GRID_STEP_USERS))
def test_grid_step_delta(dk8, p_main, name, delta):
    with pytest.raises(ValueError, match="delta"):
        GRID_STEP_USERS[name](dk8, p_main, delta)
