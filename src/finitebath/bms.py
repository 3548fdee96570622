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

from .emme import ATOL, RTOL, SystemSpec, _integrate_segments, s_omega_decomposition
from .errors import ConfigurationError
from .rates import RateTable
from .thermo import effective_temperature
from .trajectory import Trajectory


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
    table: RateTable, initial_window: int, system: SystemSpec, t_can: float
) -> BmsRates:
    """Set the downward rate scale from the rate table at the initial shell.

    For each positive gap omega of any protocol segment the downward rate is
    gamma(E0, E0+omega) / V_{E0+omega}; the magnitude only affects
    transients, never the (Gibbs) fixed point.
    """
    down = {}
    gaps = {round(float(a - b), 12) for seg in system.protocol for a in seg.levels
            for b in seg.levels if a > b}
    for omega in sorted(gaps):
        j_up = table.target_window(initial_window, omega)
        if j_up is None:
            continue
        g = table.gamma[j_up, initial_window, 0, 0].real
        down[omega] = g / table.volumes[j_up]
    return BmsRates(t_can, down)


def bms_generator(rates: BmsRates, s_omega: dict[float, np.ndarray], h_system: np.ndarray):
    """Secular dissipator with Gibbs-ratio rates as a d^2 x d^2 superoperator.

    It acts on the row-major ravel of rho, the convention of the EMME
    generator: vec(A X B) = (A kron B^T) vec(X).  A positive frequency adds
    D[S_omega] at the downward rate and D[S_omega^dag] at the upward one,
    the zero frequency D[S_0] at ``rates.down[0.0]`` if set.
    """
    eye = np.eye(len(h_system))
    gen = -1j * (np.kron(h_system, eye) - np.kron(eye, h_system.T))
    for omega, s_op in s_omega.items():
        if omega > 0:
            jumps = ((rates.down.get(omega, 0.0), s_op), (rates.up(omega), s_op.conj().T))
        elif omega == 0.0:
            jumps = ((rates.down.get(0.0, 0.0), s_op),)
        else:
            continue
        for rate, op in jumps:
            if rate:
                loss = op.conj().T @ op
                gen += rate * (np.kron(op, op.conj())
                               - 0.5 * (np.kron(loss, eye) + np.kron(eye, loss.T)))
    return gen


def evolve_bms(
    rho0: np.ndarray,
    system: SystemSpec,
    rates: BmsRates,
    t_grid: np.ndarray,
) -> Trajectory:
    """Reduced-state trajectory under the comparison equation.

    One superoperator per protocol segment (see :func:`bms_generator`),
    integrated with the tolerances of the conditioned-state equation.  Only
    the first coupling operator of the first bath enters.  Emits the shared
    trajectory contract with no bath bookkeeping (empty window keys); only
    reduced populations are meaningful downstream.
    """
    d = system.dim
    s_op = system.couplings[0][0]

    def segment_rhs(n, seg):
        gen = bms_generator(rates, s_omega_decomposition(s_op, seg.levels), np.diag(seg.levels))
        return lambda t, y: gen @ y

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
