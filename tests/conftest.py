import numpy as np
import pytest

from qcp import KernelSpec, Params, build_kernel, discretize, wavespeed
from qcp.wavespeed import build_phi, default_directions


@pytest.fixture(scope="session")
def p_main():
    return Params(1.0, 0.05)


@pytest.fixture(scope="session")
def square_spec():
    return build_kernel(KernelSpec("uniform-square", {"radius": 1.0}))


@pytest.fixture(scope="session")
def dk8(square_spec):
    return discretize(square_spec, 8)


@pytest.fixture(scope="session")
def dk1(square_spec):
    return discretize(square_spec, 1)


@pytest.fixture(scope="session")
def point_mass_spec():
    return build_kernel(KernelSpec("table", {"entries": [(0.0, 0.0, 1.0)]}))


@pytest.fixture(scope="session")
def phi_main_speeds(dk8, p_main):
    """Recovery profile at the reference parameters, built once, and the
    SpeedResult of each of its three estimate_cstar calls."""
    results = []
    original = wavespeed.estimate_cstar

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    dirs = default_directions()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavespeed, "estimate_cstar", spy)
        phi = build_phi(dirs[0], dirs[1], dirs[2], dk8, p_main, n=4,
                        speed_tol=0.02)
    return phi, results


@pytest.fixture(scope="session")
def phi_main(phi_main_speeds):
    """Recovery profile at the reference parameters; built once."""
    return phi_main_speeds[0]


def seeded(seed):
    return np.random.Generator(np.random.Philox(key=np.array(
        [seed, 0], dtype=np.uint64)))
