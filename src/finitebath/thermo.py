"""Nonequilibrium thermodynamic ledger over solver trajectories.

Energies, work and heat for piecewise-constant driving, observational
entropy and its system/bath marginals, entropy production rate, effective
bath temperatures, the Clausius chain of inequalities, and coarse-grained
mutual information.  All quantities are classical functionals of the joint
populations p(eps_k, E) and the window volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigurationError
from .trajectory import Trajectory

P_FLOOR = 1e-300
DEFAULT_BETA_MAX = 50.0


# ---------------------------------------------------------------------------
# entropies on plain arrays


def observational_entropy(p: np.ndarray, log_volumes: np.ndarray) -> float:
    """S_obs = sum_i p_i (-log p_i + log V_i) with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    mask = p > 0
    return float(np.sum(p[mask] * (-np.log(p[mask]) + np.asarray(log_volumes)[mask])))


def shannon_entropy(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    mask = p > 0
    return float(-np.sum(p[mask] * np.log(p[mask])))


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
) -> float:
    """I_cg = sum p(k,E) log[p(k,E) / (p(k) p(E))] >= 0.

    ``pair_index`` maps each joint entry to its (system, bath) marginal
    slots.
    """
    total = 0.0
    for n, (ks, bs) in enumerate(pair_index):
        p = p_joint[n]
        if p <= 0:
            continue
        total += p * math.log(p / (p_sys[ks] * p_bath[bs]))
    return total


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
    """

    beta: float

    @property
    def temperature(self) -> float:
        if self.beta == 0.0:
            return math.inf
        if math.isinf(self.beta):
            return math.copysign(0.0, self.beta)
        return 1.0 / self.beta

    @property
    def is_marker(self) -> bool:
        return math.isinf(self.beta)


def _canonical_energy(beta: float, centers: np.ndarray, log_v: np.ndarray) -> float:
    w = log_v - beta * centers
    w = w - w.max()
    p = np.exp(w)
    return float(np.sum(centers * p) / np.sum(p))


def effective_temperature(
    centers: np.ndarray,
    volumes: np.ndarray,
    u_b: float,
    beta_max: float = DEFAULT_BETA_MAX,
) -> EffectiveTemperature:
    """Solve sum_E E V_E e^{-E/T} / Z_B = U_B for T.

    The canonical energy is strictly decreasing in beta, so the root is
    unique; the search brackets beta in (-beta_max, beta_max) and returns
    the edge markers beyond it.  Raises if U_B lies outside the spectrum.
    """
    centers = np.asarray(centers, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    keep = volumes > 0
    centers, volumes = centers[keep], volumes[keep]
    if centers.size < 2:
        raise ConfigurationError(
            "at least two windows with volume are needed for an effective temperature"
        )
    e_min, e_max = centers.min(), centers.max()
    scale = max(abs(e_min), abs(e_max), 1.0)
    if u_b < e_min - 1e-9 * scale or u_b > e_max + 1e-9 * scale:
        raise ConfigurationError(
            f"bath energy {u_b} outside the attainable range [{e_min}, {e_max}]"
        )
    log_v = np.log(volumes)
    f = lambda beta: _canonical_energy(beta, centers, log_v) - u_b
    f_hi = f(beta_max)   # lowest attainable canonical energy
    f_lo = f(-beta_max)  # highest
    if f_hi >= 0:
        return EffectiveTemperature(math.inf)
    if f_lo <= 0:
        return EffectiveTemperature(-math.inf)
    beta = brentq(f, -beta_max, beta_max, xtol=1e-14, rtol=1e-14)
    if abs(beta) < 1e-12:
        # snap to the infinite-temperature marker at the weighted-mean energy
        beta = 0.0
    return EffectiveTemperature(float(beta))


# ---------------------------------------------------------------------------
# ledger over a trajectory


@dataclass
class ThermoRecord:
    t: float
    u: float
    u_s: float
    u_b: tuple[float, ...]
    w: float
    q: tuple[float, ...]
    s_obs: float
    s_obs_s: float
    s_obs_b: float
    i_cg: float
    t_star: tuple[float, ...]
    beta_star: tuple[float, ...]
    entropy_production_rate: float
    first_law_residual: float


@dataclass
class ClausiusResult:
    """The chain lhs1 >= lhs2 >= Delta S_obs >= 0 along the trajectory.

    Flags record assumption violations (initial correlations, edge effective
    temperatures) that the chain's derivation formally requires; the numbers
    are reported regardless.  ``start_index`` is 0 unless no effective
    temperature exists at all.
    """

    lhs1: np.ndarray
    lhs2: np.ndarray
    delta_s_obs: np.ndarray
    start_index: int
    flags: list[str] = field(default_factory=list)

    def holds_pointwise(self, tol: float = 1e-9) -> bool:
        sl = slice(self.start_index, None)
        a, b, c = self.lhs1[sl], self.lhs2[sl], self.delta_s_obs[sl]
        return bool(
            np.all(a >= b - tol) and np.all(b >= c - tol) and np.all(c >= -tol)
        )


@dataclass
class ThermoLedger:
    records: list[ThermoRecord]
    clausius: ClausiusResult | None
    flags: list[str]

    def array(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def _grid_arrays(traj: Trajectory):
    """Index machinery for the joint populations of a trajectory."""
    n_baths = len(traj.bath_centers)
    k_of = np.array([k for (k, _) in traj.joint_index])
    win_of = [
        np.array([key[nu] for (_, key) in traj.joint_index]) for nu in range(n_baths)
    ]
    e_b = [traj.bath_centers[nu][win_of[nu]] for nu in range(n_baths)]
    log_v = np.zeros(len(traj.joint_index))
    for nu in range(n_baths):
        log_v += np.log(traj.bath_volumes[nu][win_of[nu]])
    # joint-bath key ids for the bath marginal over all baths at once
    keys = sorted({key for (_, key) in traj.joint_index})
    key_id = {key: n for n, key in enumerate(keys)}
    bs = np.array([key_id[key] for (_, key) in traj.joint_index])
    log_v_key = np.zeros(len(keys))
    for key, n in key_id.items():
        log_v_key[n] = sum(
            math.log(traj.bath_volumes[nu][j]) for nu, j in enumerate(key)
        )
    return k_of, win_of, e_b, log_v, bs, len(keys), log_v_key


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
    times = traj.times
    pops = traj.populations
    k_of, _, e_b, *_ = _grid_arrays(traj)
    n_baths = len(traj.bath_centers)
    d_s = traj.n_levels
    n_t = len(times)
    eps_t = traj.level_energies

    u_s = np.array([np.sum(eps_t[n][k_of] * pops[n]) for n in range(n_t)])
    u_b = np.stack(
        [np.array([np.sum(e_b[nu] * pops[n]) for nu in range(n_baths)]) for n in range(n_t)]
    )
    u = u_s + u_b.sum(axis=1)

    w = np.zeros(n_t)
    acc = 0.0
    for n in range(1, n_t):
        if not np.array_equal(eps_t[n], eps_t[n - 1]):
            p_k = np.zeros(d_s)
            np.add.at(p_k, k_of, pops[n])
            acc += float(np.sum((eps_t[n] - eps_t[n - 1]) * p_k))
        w[n] = acc
    q = -(u_b - u_b[0])
    residual = (u_s - u_s[0]) - w - q.sum(axis=1)
    return u, u_s, u_b, w, q, residual


def build_ledger(
    traj: Trajectory,
    beta_max: float = DEFAULT_BETA_MAX,
    include_clausius: bool = True,
) -> ThermoLedger:
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
    k_of, _, e_b, log_v, bs, n_keys, log_v_key = _grid_arrays(traj)
    n_baths = len(traj.bath_centers)
    d_s = traj.n_levels
    n_t = len(times)
    pair_index = list(zip(k_of, bs))

    u, u_s, u_b, w, q, first_law = energies_and_first_law(traj)

    s_obs = np.array([observational_entropy(pops[n], log_v) for n in range(n_t)])
    s_obs_s = np.zeros(n_t)
    s_obs_b = np.zeros(n_t)
    i_cg = np.zeros(n_t)
    betas = np.zeros((n_t, n_baths))
    for n in range(n_t):
        p_sys = np.zeros(d_s)
        np.add.at(p_sys, k_of, pops[n])
        p_key = np.zeros(n_keys)
        np.add.at(p_key, bs, pops[n])
        s_obs_s[n] = shannon_entropy(p_sys)
        s_obs_b[n] = observational_entropy(p_key, log_v_key)
        i_cg[n] = mutual_information_cg(pops[n], p_sys, p_key, pair_index)
        for nu in range(n_baths):
            betas[n, nu] = effective_temperature(
                traj.bath_centers[nu], traj.bath_volumes[nu], u_b[n, nu], beta_max
            ).beta

    # entropy production rate from dS_obs/dt via the rate equation
    sigma = np.zeros(n_t)
    if traj.pop_rate is not None:
        for n in range(n_t):
            dp = traj.pop_rate(times[n], pops[n])
            sigma[n] = float(
                np.sum(dp * (log_v - np.log(np.maximum(pops[n], P_FLOOR))))
            )
    else:
        dp_dt = np.gradient(pops, times, axis=0)
        for n in range(n_t):
            sigma[n] = float(
                np.sum(dp_dt[n] * (log_v - np.log(np.maximum(pops[n], P_FLOOR))))
            )

    flags: list[str] = []
    if i_cg[0] > 1e-10:
        flags.append("initial state carries system-bath correlations")
    if any(math.isinf(b) for b in betas[0]):
        flags.append(
            "initial bath state sits at an edge effective temperature (T*=0); "
            "the thermal-initial-state assumption behind the entropy-flow "
            "inequality holds only in the coarse-grained sense"
        )

    clausius = None
    if include_clausius:
        clausius = clausius_chain(
            times, s_obs_s - s_obs_s[0], s_obs_b - s_obs_b[0],
            s_obs - s_obs[0], traj, betas, e_b, flags,
        )

    records = []
    for n in range(n_t):
        t_stars = tuple(EffectiveTemperature(b).temperature for b in betas[n])
        records.append(
            ThermoRecord(
                t=float(times[n]),
                u=float(u[n]),
                u_s=float(u_s[n]),
                u_b=tuple(u_b[n]),
                w=float(w[n]),
                q=tuple(q[n]),
                s_obs=float(s_obs[n]),
                s_obs_s=float(s_obs_s[n]),
                s_obs_b=float(s_obs_b[n]),
                i_cg=float(i_cg[n]),
                t_star=t_stars,
                beta_star=tuple(betas[n]),
                entropy_production_rate=float(sigma[n]),
                first_law_residual=float(first_law[n]),
            )
        )
    return ThermoLedger(records, clausius, flags)


def entropy_production_rate(
    traj: Trajectory, n: int, log_volumes: np.ndarray | None = None
) -> float:
    """dS_obs/dt at grid point n, from the rate equation when available."""
    if log_volumes is None:
        _, _, _, log_volumes, *_ = _grid_arrays(traj)
    p = traj.populations[n]
    if traj.pop_rate is not None:
        dp = traj.pop_rate(traj.times[n], p)
    else:
        dp = np.gradient(traj.populations, traj.times, axis=0)[n]
    return float(np.sum(dp * (log_volumes - np.log(np.maximum(p, P_FLOOR)))))


def gibbs_bath_entropy(centers: np.ndarray, volumes: np.ndarray, beta: float) -> float:
    """Observational entropy of the canonical bath marginal at inverse temperature beta.

    S = beta U(beta) + log Z(beta); the edge markers beta = +-inf give the
    lowest/highest band entropy log V.
    """
    centers = np.asarray(centers, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    keep = volumes > 0
    centers, volumes = centers[keep], volumes[keep]
    if math.isinf(beta):
        idx = int(np.argmin(centers)) if beta > 0 else int(np.argmax(centers))
        return float(np.log(volumes[idx]))
    w = np.log(volumes) - beta * centers
    m = w.max()
    z = np.sum(np.exp(w - m))
    log_z = m + math.log(z)
    u = float(np.sum(centers * np.exp(w - m)) / z)
    return beta * u + log_z


def clausius_chain(
    times: np.ndarray,
    d_s_obs_s: np.ndarray,
    d_s_obs_b: np.ndarray,
    d_s_obs: np.ndarray,
    traj: Trajectory,
    betas: np.ndarray,
    e_b: list[np.ndarray],
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
    n_t = len(times)
    n_baths = betas.shape[1]
    integral = np.zeros(n_t)
    for nu in range(n_baths):
        s0 = gibbs_bath_entropy(traj.bath_centers[nu], traj.bath_volumes[nu], betas[0, nu])
        for n in range(n_t):
            s_n = gibbs_bath_entropy(
                traj.bath_centers[nu], traj.bath_volumes[nu], betas[n, nu]
            )
            integral[n] -= s_n - s0  # int Qdot/T* = -(Delta S along the Gibbs family)
    lhs1 = d_s_obs_s - integral
    lhs2 = d_s_obs_s + d_s_obs_b
    return ClausiusResult(lhs1, lhs2, d_s_obs, 0, flags)
