import numpy as np
import pytest

from finitebath.bath import BathSpec, CouplingSpec, EnergyWindow, build_spectrum, sample_coupling
from finitebath.emme import ConditionedState, SystemSpec

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def two_band_windows(v0=400, v1=600, delta=0.5, kind="regular", seed=None):
    spec = BathSpec(
        [EnergyWindow(0.0, delta, v0), EnergyWindow(1.0, delta, v1)],
        kind,
        seed=seed,
    )
    return spec, build_spectrum(spec)


def two_band_realization(v0=400, v1=600, delta=0.5, kind="regular",
                         lam=3e-3, a2=1.0, b=0.0, seed=11):
    _, wins = two_band_windows(v0, v1, delta, kind, seed=seed)
    coup = CouplingSpec(lam=lam, block_mean=b, variance=a2, seed=seed + 1000)
    return sample_coupling(coup, wins)


@pytest.fixture
def spin_system():
    return SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X]])


@pytest.fixture
def excited_in_lowest_window():
    block = np.zeros((2, 2), dtype=complex)
    block[1, 1] = 1.0
    return ConditionedState({(0,): block})
