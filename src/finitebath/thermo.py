"""Nonequilibrium thermodynamic ledger over solver trajectories.

Energies, work and heat for piecewise-constant driving, observational
entropy and its system/bath marginals, entropy production rate, effective
bath temperatures, the Clausius chain of inequalities, and coarse-grained
mutual information.  All quantities are classical functionals of the joint
populations p(eps_k, E) and the window volumes.  The entropy functions act
on the last axis, so one call evaluates a whole (T, N) population series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .trajectory import Trajectory

P_FLOOR = 1e-300
BETA_MAX = 50.0  # effective temperatures are searched in (-BETA_MAX, BETA_MAX)
# grid on that range whose canonical energies bracket each root
BRACKET_POINTS = 129
# cap on the Newton-or-bisection evaluations per root: 64 halvings of the
# whole range would end at adjacent floats, so no root needs more
BISECTIONS = 64


# ---------------------------------------------------------------------------
# entropies on plain arrays (last axis = coarse-grained states)


def observational_entropy(p: np.ndarray, log_volumes) -> np.ndarray:
    """S_obs = sum_i p_i (-log p_i + log V_i) with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    occupied = p > 0
    log_ratio = np.where(occupied, log_volumes - np.log(np.where(occupied, p, 1.0)), 0.0)
    return np.sum(p * log_ratio, axis=-1)


def shannon_entropy(p: np.ndarray) -> np.ndarray:
    return observational_entropy(p, 0.0)


def relative_entropy_cg(p: np.ndarray, q: np.ndarray) -> float:
    """Coarse-grained relative entropy sum p log(p/q) >= 0.

    Raises, naming the offending index, if q vanishes where p does not.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    bad = np.nonzero((p > 0) & (q <= 0))[0]
    if bad.size:
        raise ConfigurationError(
            f"support violation: q[{int(bad[0])}] = 0 where p > 0"
        )
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def mutual_information_cg(
    p_joint: np.ndarray, p_sys: np.ndarray, p_bath: np.ndarray, pair_index
) -> np.ndarray:
    """I_cg = sum p(k,E) log[p(k,E) / (p(k) p(E))] >= 0.

    ``pair_index`` maps each joint entry to its (system, bath) marginal
    slots.
    """
    p = np.asarray(p_joint, dtype=float)
    k_of, b_of = np.asarray(pair_index).T
    product = np.asarray(p_sys)[..., k_of] * np.asarray(p_bath)[..., b_of]
    occupied = p > 0
    ratio = np.where(occupied, p / np.where(occupied, product, 1.0), 1.0)
    return np.sum(p * np.log(ratio), axis=-1)


def gibbs_joint(
    levels: np.ndarray,
    centers: np.ndarray,
    volumes: np.ndarray,
    temperature: float,
) -> tuple[np.ndarray, float, float]:
    """Joint Gibbs distribution p_T(eps_k, E) = V_E e^{-(eps_k+E)/T} / (Z_S Z_B).

    Returns (p over the (k, j) grid flattened with j outer, log Z_S, log Z_B).
    """
    beta = 1.0 / temperature
    log_zs = float(np.log(np.sum(np.exp(-beta * np.asarray(levels)))))
    wb = np.log(volumes) - beta * np.asarray(centers)
    log_zb = float(np.log(np.sum(np.exp(wb - wb.max()))) + wb.max())
    p = np.empty(len(levels) * len(centers))
    n = 0
    for j in range(len(centers)):
        for k in range(len(levels)):
            p[n] = math.exp(
                math.log(volumes[j]) - beta * (levels[k] + centers[j]) - log_zs - log_zb
            )
            n += 1
    return p, log_zs, log_zb


# ---------------------------------------------------------------------------
# effective temperature


@dataclass
class EffectiveTemperature:
    """Inverse temperature of the fictitious canonical bath with the same energy.

    ``beta`` is finite on the interior of the attainable energy band, 0 at
    the volume-weighted mean energy (infinite temperature), +inf when the
    energy sits at the bottom of the spectrum (T -> 0+) and -inf at the top
    (T -> 0-).  Negative beta means a population-inverted effective state.
    ``beta`` is a scalar or an array, shaped like the bath energies solved.
    """

    beta: float | np.ndarray

    @property
    def temperature(self) -> float | np.ndarray:
        with np.errstate(divide="ignore"):
            return np.divide(1.0, self.beta)


def _band(centers, volumes) -> tuple[np.ndarray, np.ndarray]:
    """Centers and log volumes of the windows that hold states."""
    centers = np.asarray(centers, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    keep = volumes > 0
    return centers[keep], np.log(volumes[keep])


def _canonical_weights(beta, centers, log_v) -> tuple[np.ndarray, np.ndarray]:
    """Weights V_E e^{-beta E} scaled by their maximum, and that log maximum."""
    w = log_v - np.asarray(beta)[..., None] * centers
    top = w.max(axis=-1, keepdims=True)
    return np.exp(w - top), top[..., 0]


def _canonical_energy(beta, centers, log_v) -> np.ndarray:
    p, _ = _canonical_weights(beta, centers, log_v)
    return np.sum(centers * p, axis=-1) / np.sum(p, axis=-1)


def effective_temperature(centers: np.ndarray, volumes: np.ndarray, u_b) -> EffectiveTemperature:
    """Solve sum_E E V_E e^{-E/T} / Z_B = U_B for T, for one or many U_B.

    The canonical energy U(beta) is strictly decreasing, with dU/dbeta =
    -Var_beta(E), so the root is unique.  Each U_B is bracketed between two
    neighbours of a BRACKET_POINTS grid on [-BETA_MAX, BETA_MAX], started
    by linear interpolation there, and refined by Newton steps; a step that
    leaves the bracket, which every evaluation narrows, is replaced by a
    bisection step.  An entry stops once |U - U_B| <= 8 eps max(1, max|E|),
    keeping that last Newton step, or once its step leaves beta unchanged,
    and after at most BISECTIONS evaluations; stopped entries are frozen,
    so each entry of an array answer equals the scalar answer.  The edge
    markers are returned beyond the grid.  Raises if a U_B lies outside
    the spectrum.
    """
    centers, log_v = _band(centers, volumes)
    if centers.size < 2:
        raise ConfigurationError(
            "at least two windows with volume are needed for an effective temperature"
        )
    u = np.asarray(u_b, dtype=float)
    e_min, e_max = centers.min(), centers.max()
    scale = max(abs(e_min), abs(e_max), 1.0)
    outside = (u < e_min - 1e-9 * scale) | (u > e_max + 1e-9 * scale)
    if np.any(outside):
        raise ConfigurationError(
            f"bath energy {u[outside].flat[0]} outside the attainable range [{e_min}, {e_max}]"
        )
    # spaced evenly in asinh(beta W), W the band width: U(beta) turns from
    # the top of the band to its bottom over a beta range of about 1 / W;
    # below W = 1 / BETA_MAX the grid is close to uniform anyway
    width = max(e_max - e_min, 1.0 / BETA_MAX)
    reach = math.asinh(BETA_MAX * width)
    grid = np.sinh(np.linspace(-reach, reach, BRACKET_POINTS)) / width
    grid[0], grid[-1] = -BETA_MAX, BETA_MAX
    table = _canonical_energy(grid, centers, log_v)
    # U(+-BETA_MAX) can round past the band edge, so the edges themselves are markers too
    top = min(e_max, table[0])
    bottom = max(e_min, table[-1])
    # U along the reversed grid, made ascending: the running maximum only
    # irons out rounding where U is flat to double precision
    rising = np.maximum.accumulate(table[::-1])
    flat = u.reshape(-1)
    beta = np.where(flat <= bottom, math.inf, np.where(flat >= top, -math.inf, 0.0))
    todo = np.flatnonzero((flat > bottom) & (flat < top))
    target = flat[todo]
    # rising[j - 1] < U_B <= rising[j]: the bracket is grid[i], grid[i + 1]
    j = np.searchsorted(rising, target)
    i = BRACKET_POINTS - 1 - j
    lo, hi = grid[i], grid[i + 1]
    b = lo + (rising[j] - target) / (rising[j] - rising[j - 1]) * (hi - lo)
    tol = 8 * np.finfo(float).eps * scale
    for _ in range(BISECTIONS):
        if not todo.size:
            break
        p, _ = _canonical_weights(b, centers, log_v)
        z = np.sum(p, axis=-1)
        mean = np.sum(centers * p, axis=-1) / z
        var = np.sum((centers - mean[:, None]) ** 2 * p, axis=-1) / z
        gap = mean - target
        too_hot = gap > 0
        lo = np.where(too_hot, b, lo)
        hi = np.where(too_hot, hi, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = b + gap / var
        inside = (newton > lo) & (newton < hi)
        step = np.where(inside, newton, 0.5 * (lo + hi))
        # a stopped entry keeps its last Newton step, which costs no evaluation
        close = np.abs(gap) <= tol
        done = close | (step == b)
        beta[todo[done]] = np.where(close & inside, newton, b)[done]
        keep = ~done
        todo, target, b, lo, hi = todo[keep], target[keep], step[keep], lo[keep], hi[keep]
    beta[todo] = b
    # snap to the infinite-temperature marker at the weighted-mean energy
    beta = np.where(np.abs(beta) < 1e-12, 0.0, beta)
    return EffectiveTemperature(beta.reshape(u.shape)[()])


def gibbs_bath_entropy(centers: np.ndarray, volumes: np.ndarray, beta) -> np.ndarray:
    """Observational entropy of the canonical bath marginal at inverse temperature beta.

    S = beta U(beta) + log Z(beta); the edge markers beta = +-inf give the
    lowest/highest band entropy log V.  ``beta`` may be an array.
    """
    centers, log_v = _band(centers, volumes)
    beta = np.asarray(beta, dtype=float)
    finite = np.isfinite(beta)
    b = np.where(finite, beta, 0.0)
    p, top = _canonical_weights(b, centers, log_v)
    z = np.sum(p, axis=-1)
    u = np.sum(centers * p, axis=-1) / z
    edge = np.where(beta > 0, log_v[np.argmin(centers)], log_v[np.argmax(centers)])
    return np.where(finite, b * u + (top + np.log(z)), edge)


# ---------------------------------------------------------------------------
# ledger over a trajectory


@dataclass
class ClausiusResult:
    """The chain lhs1 >= lhs2 >= Delta S_obs >= 0 along the trajectory.

    Flags record assumption violations (initial correlations, edge effective
    temperatures) that the chain's derivation formally requires; the numbers
    are reported regardless.
    """

    lhs1: np.ndarray
    lhs2: np.ndarray
    delta_s_obs: np.ndarray
    flags: list[str] = field(default_factory=list)


@dataclass
class ThermoLedger:
    """One column per quantity, one row per trajectory time.

    Per-bath columns (``u_b``, ``q``, ``beta_star``, ``t_star``) are shaped
    (T, n_baths), the others (T,).
    """

    t: np.ndarray
    u: np.ndarray
    u_s: np.ndarray
    u_b: np.ndarray
    w: np.ndarray
    q: np.ndarray
    s_obs: np.ndarray
    s_obs_s: np.ndarray
    s_obs_b: np.ndarray
    i_cg: np.ndarray
    beta_star: np.ndarray
    entropy_production_rate: np.ndarray
    first_law_residual: np.ndarray
    clausius: ClausiusResult
    flags: list[str]

    @property
    def t_star(self) -> np.ndarray:
        return EffectiveTemperature(self.beta_star).temperature

    def array(self, name: str) -> np.ndarray:
        return getattr(self, name)


def _grid_arrays(traj: Trajectory):
    """Each bath's window energy and the joint log volume, per key of ``traj.keys``."""
    windows = np.array(traj.keys, dtype=int)
    e_key = [centers[windows[:, nu]] for nu, centers in enumerate(traj.bath_centers)]
    log_v_key = np.zeros(len(traj.keys))
    for nu, volumes in enumerate(traj.bath_volumes):
        log_v_key += np.log(volumes[windows[:, nu]])
    return e_key, log_v_key


def energies_and_first_law(traj: Trajectory):
    """Per-step energies, work, heat and the first-law residual.

    Work is lumped at protocol quench instants (the piecewise-constant limit
    of the continuous driving power) and is constant within segments; heat
    per bath is the negative change of that bath's coarse-grained energy.
    Returns (U, U_S, U_B, W, Q, residual) with U_B and Q of shape
    (T, n_baths) and residual = Delta U_S - W - sum_nu Q_nu.
    """
    if not traj.bath_centers:
        raise ConfigurationError("trajectory carries no bath bookkeeping")
    pops = traj.populations
    eps_t = traj.level_energies
    d = traj.n_levels
    e_key, _ = _grid_arrays(traj)

    u_s = np.sum(np.tile(eps_t, len(traj.keys)) * pops, axis=1)
    u_b = np.stack([np.sum(np.repeat(e, d) * pops, axis=1) for e in e_key], axis=1)
    u = u_s + u_b.sum(axis=1)
    p_k = pops.reshape(len(pops), -1, d).sum(axis=1)
    jumps = np.sum(np.diff(eps_t, axis=0) * p_k[1:], axis=1)
    w = np.concatenate([[0.0], np.cumsum(jumps)])
    q = -(u_b - u_b[0])
    residual = (u_s - u_s[0]) - w - q.sum(axis=1)
    return u, u_s, u_b, w, q, residual


def build_ledger(traj: Trajectory) -> ThermoLedger:
    """Compute the full thermodynamic ledger along a trajectory.

    Work accumulates as discrete jumps at protocol quenches, heat as the
    negative change of each bath's coarse-grained energy, so the first law
    Delta U_S = W + sum_nu Q_nu closes to the accuracy of shell
    conservation.  The entropy production rate uses the analytic rate
    equation when the trajectory carries one, finite differences otherwise.
    """
    if not traj.bath_centers:
        raise ConfigurationError(
            "thermodynamic ledger requires a trajectory with bath bookkeeping"
        )
    times = traj.times
    pops = traj.populations
    d = traj.n_levels
    _, log_v_key = _grid_arrays(traj)
    log_v = np.repeat(log_v_key, d)

    u, u_s, u_b, w, q, first_law = energies_and_first_law(traj)

    # the trajectory layout: axis 1 the keys, axis 2 the levels
    grid = pops.reshape(len(times), -1, d)
    p_sys = grid.sum(axis=1)
    p_key = grid.sum(axis=2)
    s_obs = observational_entropy(pops, log_v)
    s_obs_s = shannon_entropy(p_sys)
    s_obs_b = observational_entropy(p_key, log_v_key)
    column = np.arange(pops.shape[1])
    i_cg = mutual_information_cg(pops, p_sys, p_key, np.stack([column % d, column // d], axis=1))
    betas = np.stack([
        effective_temperature(centers, volumes, u).beta
        for centers, volumes, u in zip(traj.bath_centers, traj.bath_volumes, u_b.T)
    ], axis=1)

    # entropy production rate dS_obs/dt, from the rate equation when available
    if traj.pop_rate is not None:
        dp_dt = traj.pop_rate(times, pops)
    else:
        dp_dt = np.gradient(pops, times, axis=0)
    sigma = np.sum(dp_dt * (log_v - np.log(np.maximum(pops, P_FLOOR))), axis=1)

    flags: list[str] = []
    if i_cg[0] > 1e-10:
        flags.append("initial state carries system-bath correlations")
    if np.any(np.isinf(betas[0])):
        flags.append(
            "initial bath state sits at an edge effective temperature (T*=0); "
            "the thermal-initial-state assumption behind the entropy-flow "
            "inequality holds only in the coarse-grained sense"
        )

    clausius = clausius_chain(
        traj, betas, s_obs_s - s_obs_s[0], s_obs_b - s_obs_b[0], s_obs - s_obs[0], flags,
    )
    return ThermoLedger(
        t=times, u=u, u_s=u_s, u_b=u_b, w=w, q=q,
        s_obs=s_obs, s_obs_s=s_obs_s, s_obs_b=s_obs_b, i_cg=i_cg,
        beta_star=betas, entropy_production_rate=sigma, first_law_residual=first_law,
        clausius=clausius, flags=flags,
    )


def clausius_chain(
    traj: Trajectory,
    betas: np.ndarray,
    d_s_obs_s: np.ndarray,
    d_s_obs_b: np.ndarray,
    d_s_obs: np.ndarray,
    flags: list[str],
) -> ClausiusResult:
    """Assemble lhs1 = dS^S - int sum_nu Qdot_nu / T*_nu and lhs2 = dS^S + dS^B.

    The heat integral is evaluated in closed form through the differential
    relation dU_B = T* dS along the matched-energy canonical family, i.e.
    -int_0^t Qdot_nu / T*_nu dt' = S_Gibbs(beta_nu(t)) - S_Gibbs(beta_nu(0))
    for each bath.  This is the same integral a time quadrature would
    approximate, but it stays exact at edge effective temperatures (where
    the integrand diverges integrably) and on saturated two-band baths
    (where quadrature noise would mask the equality lhs1 = lhs2).
    """
    integral = np.zeros(len(betas))
    for centers, volumes, beta in zip(traj.bath_centers, traj.bath_volumes, betas.T):
        s = gibbs_bath_entropy(centers, volumes, beta)
        integral -= s - s[0]  # int Qdot/T* = -(Delta S along the Gibbs family)
    lhs1 = d_s_obs_s - integral
    lhs2 = d_s_obs_s + d_s_obs_b
    return ClausiusResult(lhs1, lhs2, d_s_obs, flags)
