"""Standard weak-coupling comparison equation with a fixed Gibbs reference bath.

The reduced system alone evolves under a secular dissipator whose up/down
rates obey the Gibbs ratio at a fixed reference temperature; the stationary
state is the canonical one at that temperature regardless of how the actual
finite bath evolves.  Used as the baseline the conditioned-state solvers are
benchmarked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .emme import SystemSpec, _integrate_segments, s_omega_decomposition
from .errors import ConfigurationError
from .rates import RateTable
from .thermo import effective_temperature
from .trajectory import Trajectory

# integrator tolerances of the comparison equation
RTOL = 1e-10
ATOL = 1e-12


@dataclass
class BmsRates:
    """Reference temperature and per-frequency downward rates.

    The upward rate at frequency omega > 0 is down * exp(-omega / T_can), so
    detailed balance with respect to Gibbs(T_can) holds by construction.
    T_can = 0.0 is the zero-temperature marker (no upward jumps) and
    math.inf the infinite-temperature one (symmetric jumps).
    """

    t_can: float
    down: dict[float, float] = field(default_factory=dict)

    def up(self, omega: float) -> float:
        d = self.down.get(omega, 0.0)
        if self.t_can == 0.0:
            return 0.0
        if math.isinf(self.t_can):
            return d
        return d * math.exp(-omega / self.t_can)


def choose_reference_temperature(
    bath_populations: np.ndarray,
    centers: np.ndarray,
    volumes: np.ndarray,
) -> float:
    """Default T_can: effective temperature of the initial bath marginal.

    The comparison equation needs a reference temperature the underlying
    theory does not fix; matching the initial bath energy is the declared
    default and can be overridden in the scenario configuration.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.size < 2:
        raise ConfigurationError(
            "a single bath band has no energy scale; set the reference "
            "temperature explicitly"
        )
    u_b = float(np.sum(centers * np.asarray(bath_populations)))
    return effective_temperature(centers, volumes, u_b).temperature


def bms_rates_from_table(
    table: RateTable,
    initial_window: int,
    levels: np.ndarray,
    t_can: float,
) -> BmsRates:
    """Set the downward rate scale from the rate table at the initial shell.

    For each positive system gap omega the downward rate is
    gamma(E0, E0+omega) / V_{E0+omega}; the magnitude only affects
    transients, never the (Gibbs) fixed point.
    """
    levels = np.asarray(levels, dtype=float)
    down = {}
    gaps = sorted({round(float(a - b), 12) for a in levels for b in levels if a > b})
    for omega in gaps:
        j_up = table.target_window(initial_window, omega)
        if j_up is None:
            continue
        g = table.gamma[j_up, initial_window, 0, 0].real
        down[omega] = g / table.volumes[j_up]
    return BmsRates(t_can, down)


def bms_generator(
    rho: np.ndarray,
    rates: BmsRates,
    s_omega: dict[float, np.ndarray],
    h_system: np.ndarray,
) -> np.ndarray:
    """Secular dissipator on the reduced state with Gibbs-ratio rates."""
    d_rho = -1j * (h_system @ rho - rho @ h_system)
    for omega, s_op in s_omega.items():
        if omega > 0:
            for rate, op in ((rates.down.get(omega, 0.0), s_op),
                             (rates.up(omega), s_op.conj().T)):
                if rate == 0.0:
                    continue
                opd = op.conj().T
                d_rho += rate * (op @ rho @ opd - 0.5 * (opd @ op @ rho + rho @ opd @ op))
        elif omega == 0.0:
            rate = rates.down.get(0.0, 0.0)
            if rate:
                d_rho += rate * (
                    s_op @ rho @ s_op.conj().T
                    - 0.5 * (s_op.conj().T @ s_op @ rho + rho @ s_op.conj().T @ s_op)
                )
    return d_rho


def evolve_bms(
    rho0: np.ndarray,
    system: SystemSpec,
    rates: BmsRates,
    t_grid: np.ndarray,
) -> Trajectory:
    """Reduced-state trajectory under the comparison equation.

    Emits the shared trajectory contract with no bath bookkeeping (empty
    window keys); only reduced populations are meaningful downstream.
    """
    d = system.dim
    s_op = system.couplings[0][0]

    def segment_rhs(seg):
        h_seg = np.diag(seg.levels).astype(complex)
        s_om = s_omega_decomposition(s_op, seg.levels)
        return lambda t, y: bms_generator(y.reshape(d, d), rates, s_om, h_seg).ravel()

    times, states, levels = _integrate_segments(
        system, np.asarray(t_grid, dtype=float), np.asarray(rho0, dtype=complex).ravel(),
        segment_rhs, RTOL, ATOL,
    )
    return Trajectory(
        solver="bms",
        times=times,
        joint_index=[(k, ()) for k in range(d)],
        populations=states[:, :: d + 1].real.copy(),
        level_energies=levels,
        bath_centers=[],
        bath_volumes=[],
        meta={"t_can": rates.t_can, "down_rates": dict(rates.down)},
    )
