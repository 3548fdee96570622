"""Standard weak-coupling comparison equation with a fixed Gibbs reference bath.

The reduced system alone evolves under a secular dissipator whose up/down
rates obey the Gibbs ratio at a fixed reference temperature; the stationary
state is the canonical one at that temperature regardless of how the actual
finite bath evolves.  Used as the baseline the conditioned-state solvers are
benchmarked against.  The generator is constant on each protocol segment, so
the state is stepped from grid point to grid point by matrix exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy

from .emme import SystemSpec, _walk_segments, s_omega_decomposition
from .errors import ConfigurationError
from .rates import RateTable, frequency
from .thermo import effective_temperature
from .trajectory import Trajectory

# steps that agree in their leading bits share one matrix exponential; the
# rest, at most 2^-36 of the step, covers the rounding noise of grid times
STEP_BITS = 36


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
    gaps = {frequency(b, a) for seg in system.protocol for a in seg.levels
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


def _step_solver(gen: np.ndarray, counters: dict):
    """solve(t0, y, times) of y' = gen y, stepped as y_k = E(h_k) y_{k-1}.

    See ``emme._walk_segments`` for the solve contract.  Each step h is
    rounded to its leading STEP_BITS bits, c; E(c) = expm(gen c) is computed
    once per distinct c and counted in ``counters["expm_calls"]``, and the
    rest of the step is taken to first order, y_k = (1 + gen (h - c)) E(c)
    y_{k-1}, which is exact to O((|gen| (h - c))^2).  So the rounding noise
    of a uniform grid like ``np.arange(0, t_max, 0.1)`` costs no extra
    ``expm`` (one or two per segment), while a grid of irregular steps
    costs one per step.
    """
    steps: dict[float, np.ndarray] = {}

    def solve(t0, y, times):
        h = np.diff(times, prepend=t0)
        mantissa, exponent = np.frexp(h)
        c = np.ldexp(np.round(np.ldexp(mantissa, STEP_BITS)), exponent - STEP_BITS)
        out = np.empty((times.size, y.size), dtype=complex)
        # h - c is exact: c is within a factor 2 of h
        for k, (ck, rest) in enumerate(zip(c.tolist(), (h - c).tolist())):
            step = steps.get(ck)
            if step is None:
                step = steps[ck] = scipy.linalg.expm(gen * ck)
                counters["expm_calls"] += 1
            y = step @ y
            if rest:
                y = y + rest * (gen @ y)
            out[k] = y
        return out

    return solve


def evolve_bms(
    rho0: np.ndarray,
    system: SystemSpec,
    rates: BmsRates,
    t_grid: np.ndarray,
) -> Trajectory:
    """Reduced-state trajectory under the comparison equation.

    One superoperator per protocol segment (see :func:`bms_generator`),
    applied through its exponential over each step between grid points (see
    :func:`_step_solver`); any levels, coherences and T_can, 0 and infinity
    included, take this one route.  Only the first coupling operator of the
    first bath enters.  Emits the shared trajectory contract with no bath
    bookkeeping (empty window keys); only reduced populations are meaningful
    downstream.  ``meta`` records the route and the ``expm_calls``.
    """
    d = system.dim
    s_op = system.couplings[0][0]
    counters = {"expm_calls": 0}

    def segment_solver(n, seg):
        gen = bms_generator(rates, s_omega_decomposition(s_op, seg.levels), np.diag(seg.levels))
        return _step_solver(gen, counters)

    times, states, levels = _walk_segments(
        system, np.asarray(t_grid, dtype=float), np.asarray(rho0, dtype=complex).ravel(),
        segment_solver,
    )
    return Trajectory(
        solver="bms",
        times=times,
        keys=[()],
        populations=states[:, :: d + 1].real.copy(),
        level_energies=levels,
        bath_centers=[],
        bath_volumes=[],
        meta={"t_can": rates.t_can, "down_rates": dict(rates.down), "route": "expm", **counters},
    )
