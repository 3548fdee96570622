import dataclasses

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


def scaled(table, factor):
    """The rate table with every rate and dispersive coefficient multiplied by factor."""
    a = table.a_coeff
    return dataclasses.replace(
        table, gamma=factor * table.gamma,
        a_coeff=None if a is None else (lambda omega: factor * a(omega)),
    )


def unshifted(table):
    """The rate table without its dispersive part, so the generator carries no Lamb shift."""
    return dataclasses.replace(table, a_coeff=None)


def population_column(traj, k, key):
    """Population series of the joint state (level k, bath windows key)."""
    return traj.populations[:, traj.joint_index.index((k, key))]


def clausius_holds(cl, tol=1e-9):
    """lhs1 >= lhs2 >= Delta S_obs >= 0 at every time of a Clausius chain, up to tol."""
    a, b, c = cl.lhs1, cl.lhs2, cl.delta_s_obs
    return bool(np.all(a >= b - tol) and np.all(b >= c - tol) and np.all(c >= -tol))


@pytest.fixture
def spin_system():
    return SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X]])


@pytest.fixture
def excited_in_lowest_window():
    block = np.zeros((2, 2), dtype=complex)
    block[1, 1] = 1.0
    return ConditionedState({(0,): block})
