"""Microcanonical bath correlation functions and dissipation rates.

Three routes to the same rate table are provided:

* exact quadrature of the microcanonical correlation function of a sampled
  coupling matrix (one-sided Fourier transform, truncated and tapered),
* the heuristic trace formula (2 pi lam^2 / delta) tr[B'+ Pi_E B Pi_E'],
* the random-matrix ensemble closed form
  (2 pi lam^2 / delta) V_E V_E' (|b(E,E')|^2 + a^2).

The finite-time envelope zeta(t), its running integral Xi(t), and the
closed-form one-sided transform of the sinc^2 kernel (``breve_h``) live here
as well, since they control both the finite-time variant of the master
equation and the off-resonance structure of the rates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from scipy.integrate import simpson
from scipy.special import sici

from .bath import BathRealization, EnergyWindow, window_slices
from .errors import ConfigurationError, NumericalFailure

EULER_GAMMA = float(np.euler_gamma)


def rate_prefactor(lam: float, delta: float) -> float:
    """Common factor 2 pi lam^2 / delta of all dissipation rates."""
    return 2.0 * np.pi * lam**2 / delta


# ---------------------------------------------------------------------------
# correlation functions


@dataclass
class CorrelationFunction:
    """Samples of C_B(E,E';-tau) for one window pair and operator pair.

    C_B(E,E';-tau) = (lam^2/V_E') sum_{i in E, j in E'} conj(B'_ij) B_ij
    exp(i (E_i - E_j) tau).  ``tau_b`` is the estimated decay time: the first
    tau at which |C| falls below 5% of |C(0)| (inf if that never happens).
    """

    tau: np.ndarray
    values: np.ndarray
    pair: tuple[int, int]
    ops: tuple[int, int]
    volume_right: int
    delta: float
    lam: float
    tau_b: float = field(init=False)

    def __post_init__(self):
        c0 = abs(self.values[0])
        below = np.nonzero(np.abs(self.values) < 0.05 * c0)[0]
        self.tau_b = float(self.tau[below[0]]) if below.size else np.inf

    @property
    def decay_diagnostic(self) -> float:
        """delta * tau_B, small when the Markov approximation is safe."""
        return self.delta * self.tau_b


def correlation_functions(
    realization: BathRealization,
    keys: list[tuple[int, int, int, int]],
    tau_grid: np.ndarray,
) -> dict[tuple[int, int, int, int], CorrelationFunction]:
    """Direct double sums over microlevels for many keys in one pass over tau.

    A key (i, j, alpha, alpha') selects the window pair (i, j) and the
    sampled coupling matrices of the operator pair (alpha, alpha').  The tau
    grid is walked in chunks; per chunk, each window's phase table
    exp(i E_p tau) is built once and shared by every key that uses the
    window, and exp(-i E_p tau) is its conjugate.
    """
    n_win = len(realization.windows)
    for i, j, _, _ in keys:
        if not (0 <= i < n_win and 0 <= j < n_win):
            raise ConfigurationError(f"unknown window pair {(i, j)}")
    tau_grid = np.asarray(tau_grid, dtype=float)
    slices = window_slices(realization.windows)
    used = {w for key in keys for w in key[:2]}
    values = {key: np.empty(tau_grid.size, dtype=complex) for key in keys}
    chunk = 256
    for lo in range(0, tau_grid.size, chunk):
        t = tau_grid[lo : lo + chunk]
        phase = {
            w: np.exp(1j * np.outer(t, realization.windows[w].microlevels))
            for w in used
        }
        for (i, j, a, ap), out in values.items():
            b_a = realization.matrices[a][slices[i], slices[j]]
            b_ap = realization.matrices[ap][slices[i], slices[j]]
            weights = b_ap.conj() * b_a
            out[lo : lo + chunk] = np.sum(
                (phase[i] @ weights) * phase[j].conj(), axis=1
            )
    lam = realization.lam
    corrs = {}
    for (i, j, a, ap), vals in values.items():
        v_right = realization.windows[j].volume
        vals *= lam**2 / v_right
        corrs[(i, j, a, ap)] = CorrelationFunction(
            tau_grid, vals, (i, j), (a, ap), v_right, realization.delta, lam
        )
    return corrs


def correlation_exact(
    realization: BathRealization,
    pair: tuple[int, int],
    tau_grid: np.ndarray,
    ops: tuple[int, int] = (0, 0),
) -> CorrelationFunction:
    """``correlation_functions`` for one window pair and one operator pair.

    The (alpha, alpha') = ``ops`` pair selects which sampled coupling
    matrices enter; (0, 0) is the single-operator case.
    """
    key = (*pair, *ops)
    return correlation_functions(realization, [key], tau_grid)[key]


# ---------------------------------------------------------------------------
# closed-form kernels


def breve_h(xi):
    """One-sided transform of the sinc^2 kernel, (1/pi) int_0^inf sin^2 x / x^2 e^{-2 i xi x} dx.

    Closed form: the real part is max(0, (1-|xi|)/2); the imaginary part is
    odd in xi and equals (1/2pi)(2|xi| log|xi| - (1+|xi|) log(1+|xi|)
    + (1-|xi|) log|1-|xi||) for xi > 0, with the xi = 0 and |xi| = 1 limits
    taken continuously.  Accepts scalars or arrays.
    """
    xi = np.asarray(xi, dtype=float)
    a = np.abs(xi)
    re = np.maximum(0.0, (1.0 - a) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = np.where(a > 0, 2.0 * a * np.log(np.where(a > 0, a, 1.0)), 0.0)
        term3 = np.where(
            np.abs(1.0 - a) > 0,
            (1.0 - a) * np.log(np.abs(np.where(np.abs(1.0 - a) > 0, 1.0 - a, 1.0))),
            0.0,
        )
    im = np.sign(xi) / (2.0 * np.pi) * (term1 - (1.0 + a) * np.log1p(a) + term3)
    out = re + 1j * im
    return complex(out) if out.ndim == 0 else out


def zeta(t, delta: float):
    """Finite-time envelope of the dissipation rates.

    zeta(t) = (delta/pi) int_0^t sin^2(delta tau / 2) / (delta tau / 2)^2 dtau,
    evaluated through the sine integral: zeta = (2/pi) [Si(delta t)
    - sin^2(delta t / 2) / (delta t / 2)].  Monotone, zeta(0) = 0 and
    zeta(t -> inf) = 1.
    """
    t = np.asarray(t, dtype=float)
    x = delta * t
    si, _ = sici(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc_term = np.where(x > 0, np.sin(x / 2.0) ** 2 / np.where(x > 0, x / 2.0, 1.0), 0.0)
    out = (2.0 / np.pi) * (si - sinc_term)
    return float(out) if out.ndim == 0 else out


def xi_integral(t, delta: float):
    """Running integral Xi(t) = int_0^t zeta(t') dt'.

    Closed form via Si and Ci:
    Xi(t) = (2/(pi delta)) [x Si(x) + cos x - 1 - euler_gamma - log x + Ci(x)]
    with x = delta t.  Xi(0) = 0 and Xi(t) ~ t at long times (the difference
    grows only logarithmically).
    """
    t = np.asarray(t, dtype=float)
    x = delta * t
    pos = x > 0
    xp = np.where(pos, x, 1.0)
    si, ci = sici(xp)
    vals = (2.0 / (np.pi * delta)) * (
        xp * si + np.cos(xp) - 1.0 - EULER_GAMMA - np.log(xp) + ci
    )
    out = np.where(pos, vals, 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the three rate constructions


def gamma_heuristic(
    realization: BathRealization,
    pair: tuple[int, int],
    ops: tuple[int, int] = (0, 0),
) -> complex:
    """(2 pi lam^2 / delta) tr[B'^dag Pi_E B Pi_E'] from a sampled realization."""
    i, j = pair
    sl_i = realization.window_slice(i)
    sl_j = realization.window_slice(j)
    b_a = realization.matrices[ops[0]][sl_i, sl_j]
    b_ap = realization.matrices[ops[1]][sl_i, sl_j]
    tr = np.sum(b_ap.conj() * b_a)
    val = rate_prefactor(realization.lam, realization.delta) * tr
    return val.real if ops[0] == ops[1] else complex(val)


def gamma_rmt(
    couplings,
    windows: list[EnergyWindow],
    pair: tuple[int, int],
    ops: tuple[int, int] = (0, 0),
) -> complex:
    """Ensemble closed form: (2 pi lam^2 / delta) V_E V_E' (b'* b + a^2 [a=a'])."""
    specs = couplings if isinstance(couplings, (list, tuple)) else [couplings]
    i, j = pair
    c_a, c_ap = specs[ops[0]], specs[ops[1]]
    b = np.conj(c_ap.block_mean_value(i, j)) * c_a.block_mean_value(i, j)
    if ops[0] == ops[1]:
        b = b.real + c_a.variance
    # multiply volumes in canonical order so the window-exchange symmetry
    # holds with identical floats
    lo, hi = min(pair), max(pair)
    val = (
        rate_prefactor(c_a.lam, windows[i].width)
        * windows[lo].volume
        * windows[hi].volume
        * b
    )
    return val.real if ops[0] == ops[1] else complex(val)


@dataclass
class QuadratureResult:
    gamma_full: complex  # Gamma(E,E';omega), one-sided transform
    gamma: float  # 2 Re Gamma
    lamb: float  # Im Gamma


def _taper_window(tau: np.ndarray, tau_max: float, frac: float = 0.1) -> np.ndarray:
    w = np.ones_like(tau)
    t0 = (1.0 - frac) * tau_max
    ramp = tau > t0
    w[ramp] = 0.5 * (1.0 + np.cos(np.pi * (tau[ramp] - t0) / (tau_max - t0)))
    w[tau > tau_max] = 0.0
    return w


def first_recurrence(corr: CorrelationFunction) -> float | None:
    """First tau at which |C| climbs back above half its initial value."""
    c0 = abs(corr.values[0])
    mag = np.abs(corr.values)
    below = np.nonzero(mag < 0.05 * c0)[0]
    if below.size == 0:
        return None
    later = mag[below[0] :] > 0.5 * c0
    idx = np.nonzero(later)[0]
    if idx.size == 0:
        return None
    return float(corr.tau[below[0] + idx[0]])


def gamma_quadrature(corr: CorrelationFunction, omega: float) -> QuadratureResult:
    """One-sided Fourier transform Gamma(E,E';omega) = V_E' int_0^inf C e^{i omega tau}.

    The integral is truncated at tau_max = min(5 * 2 pi / delta, first
    recurrence) and smoothly tapered over the final 10% so that neither the
    non-decayed tail nor finite-size recurrences pollute the rates.  Refuses
    a correlation function that never decays (the Markov approximation is
    then invalid, e.g. single-level windows).
    """
    c0 = abs(corr.values[0])
    if c0 == 0.0:
        return QuadratureResult(0.0 + 0.0j, 0.0, 0.0)
    if np.min(np.abs(corr.values)) > 0.5 * c0:
        raise NumericalFailure(
            f"correlation function of window pair {corr.pair}, operator pair "
            f"{corr.ops} never decays (pure phase, e.g. V=1 windows); "
            "the Markov approximation is invalid for this pair"
        )
    if np.min(np.abs(corr.values)) > 0.05 * c0:
        warnings.warn(
            "correlation function has not decayed below 5% of |C(0)| on the "
            "sampled grid; quadrature may be inaccurate",
            stacklevel=2,
        )
    tau_max = 5.0 * (2.0 * np.pi / corr.delta)
    rec = first_recurrence(corr)
    if rec is not None:
        tau_max = min(tau_max, rec)
    mask = corr.tau <= tau_max
    tau = corr.tau[mask]
    vals = corr.values[mask] * _taper_window(tau, tau_max)
    integrand = vals * np.exp(1j * omega * tau)
    g = corr.volume_right * (
        simpson(integrand.real, x=tau) + 1j * simpson(integrand.imag, x=tau)
    )
    return QuadratureResult(complex(g), 2.0 * g.real, float(g.imag))


def default_tau_grid(delta: float, n: int = 2000) -> np.ndarray:
    return np.linspace(0.0, 5.0 * (2.0 * np.pi / delta), n)


# ---------------------------------------------------------------------------
# rate tables


@dataclass
class RateTable:
    """Dissipation data for one bath: gamma matrices per ordered window pair.

    ``gamma[(i, j)]`` is the (n_ops, n_ops) matrix gamma^{alpha alpha'}(E_i,
    E_j); it is Hermitian in the operator indices and symmetric under window
    exchange entry by entry.  ``a_coeff`` (optional) supplies the dispersive
    coefficients A(E_i, E_j; omega) used for the energy shift; it is absent
    for constructions that only determine the real part.

    A transition (E, E', omega) is admitted iff |E' - E - omega| <=
    ``resonance_tol``; every table construction sets delta/2, which makes the
    target window unique.
    """

    centers: np.ndarray
    volumes: np.ndarray
    delta: float
    gamma: dict[tuple[int, int], np.ndarray]
    method: str
    resonance_tol: float
    n_ops: int = 1
    a_coeff: Callable[[int, int, float], np.ndarray] | None = None
    diagnostics: dict = field(default_factory=dict)

    def target_window(self, j: int, omega: float) -> int | None:
        """Index of the window at E_j + omega under the resonance rule.

        The lowest i with |E_i - x| <= tol, x = E_j + omega.  Centers
        increase and rounding is monotone, so E_i - x is non-decreasing in
        i and the hits are contiguous: a bisection finds the first i with
        E_i - x >= -tol, and the steps after it absorb the rounding by which
        E_i >= x - tol can differ from that predicate.
        """
        c, tol = self.centers, self.resonance_tol
        x = c[j] + omega
        i = int(np.searchsorted(c, x - tol))
        while i > 0 and c[i - 1] - x >= -tol:
            i -= 1
        while i < c.size and c[i] - x < -tol:
            i += 1
        return i if i < c.size and abs(c[i] - x) <= tol else None

    @cached_property
    def gamma_max(self) -> float:
        """Largest |gamma| entry over all window pairs; a table is not changed once built."""
        return max((np.max(np.abs(g)) for g in self.gamma.values()), default=0.0)

    def gamma_entry(self, i: int, j: int) -> np.ndarray:
        g = self.gamma.get((i, j))
        if g is None:
            return np.zeros((self.n_ops, self.n_ops), dtype=complex)
        return g

    def scale(self, factor: float) -> "RateTable":
        scaled = {k: factor * v for k, v in self.gamma.items()}
        a = self.a_coeff
        a_scaled = None if a is None else (lambda i, j, w: factor * a(i, j, w))
        return RateTable(
            self.centers, self.volumes, self.delta, scaled, self.method,
            self.resonance_tol, self.n_ops, a_scaled, dict(self.diagnostics),
        )


def _hermitian_pair_matrix(fill, n_ops: int) -> np.ndarray:
    """Assemble an operator-pair matrix from its upper triangle, exactly Hermitian."""
    g = np.zeros((n_ops, n_ops), dtype=complex)
    for a in range(n_ops):
        for ap in range(a, n_ops):
            val = fill(a, ap)
            g[a, ap] = val
            if ap != a:
                g[ap, a] = np.conj(val)
    return g


def rate_table_rmt(couplings, windows: list[EnergyWindow]) -> RateTable:
    """Ensemble-exact rate table; also carries the closed-form dispersive part."""
    specs = couplings if isinstance(couplings, (list, tuple)) else [couplings]
    n_ops = len(specs)
    delta = windows[0].width
    centers = np.array([w.center for w in windows])
    volumes = np.array([w.volume for w in windows], dtype=float)
    gamma: dict[tuple[int, int], np.ndarray] = {}
    for i in range(len(windows)):
        for j in range(i + 1, len(windows)):
            g = _hermitian_pair_matrix(
                lambda a, ap: gamma_rmt(specs, windows, (i, j), (a, ap)), n_ops
            )
            gamma[(i, j)] = g
            gamma[(j, i)] = g.conj()  # |b|^2 symmetric, cross terms conjugate

    @lru_cache(maxsize=None)
    def shift_kernel(omega: float) -> np.ndarray:
        # Im breve_h at xi = (E_j - E_i - omega)/delta for every pair (i, j),
        # memoized and read-only: lamb_shift asks once per window pair
        kernel = breve_h((centers[None, :] - centers[:, None] - omega) / delta).imag
        kernel.flags.writeable = False
        return kernel

    def a_coeff(i: int, j: int, omega: float) -> np.ndarray:
        # Im of gamma^{aa'}(E_i, E_j) * breve_h(xi)
        return gamma.get((i, j), np.zeros((n_ops, n_ops))) * shift_kernel(omega)[i, j]

    return RateTable(centers, volumes, delta, gamma, "rmt", delta / 2.0, n_ops, a_coeff)


def rate_table_heuristic(realization: BathRealization) -> RateTable:
    """Single-realization table from the trace formula; no dispersive part."""
    windows = realization.windows
    n_ops = len(realization.matrices)
    delta = realization.delta
    gamma: dict[tuple[int, int], np.ndarray] = {}
    for i in range(len(windows)):
        for j in range(i + 1, len(windows)):
            g = _hermitian_pair_matrix(
                lambda a, ap: gamma_heuristic(realization, (i, j), (a, ap)), n_ops
            )
            gamma[(i, j)] = g
            gamma[(j, i)] = g.conj()
    return RateTable(
        realization.centers, realization.volumes, delta, gamma, "heuristic", delta / 2.0, n_ops,
    )


def rate_table_quadrature(
    realization: BathRealization,
    tau_grid: np.ndarray | None = None,
) -> RateTable:
    """Table from one-sided quadrature at resonance, omega = E_j - E_i.

    Entries are symmetrized over window exchange (the two estimates differ
    only by quadrature noise) so that downstream detailed-balance identities
    hold exactly.  The dispersive coefficients come from the imaginary part
    of the transform evaluated at the requested frequency.
    """
    windows = realization.windows
    n_ops = len(realization.matrices)
    delta = realization.delta
    centers = realization.centers
    if tau_grid is None:
        tau_grid = default_tau_grid(delta)
    n_win = len(windows)
    keys = [(i, j, a, ap) for i in range(n_win) for j in range(n_win) if i != j
            for a in range(n_ops) for ap in range(n_ops)]
    corrs = correlation_functions(realization, keys, tau_grid)

    @lru_cache(maxsize=None)
    def big_gamma(i: int, j: int, omega: float) -> np.ndarray:
        # Gamma^{aa'}(E_i, E_j; omega), memoized and read-only: the table and
        # every lamb_shift call share one transform per (i, j, omega)
        g = _hermitian_pair_matrix(
            lambda a, ap: gamma_quadrature(corrs[(i, j, a, ap)], omega).gamma_full,
            n_ops,
        )
        g.flags.writeable = False
        return g

    gamma: dict[tuple[int, int], np.ndarray] = {}
    diagnostics = {}
    for i in range(n_win):
        for j in range(i + 1, n_win):
            omega_ij = centers[j] - centers[i]
            g_fwd = big_gamma(i, j, omega_ij)
            g_bwd = big_gamma(j, i, -omega_ij)
            # gamma^{aa'} = Gamma + Gamma^dagger (operator-pair Hermitian part)
            g1 = g_fwd + g_fwd.conj().T
            g2 = g_bwd + g_bwd.conj().T
            g = 0.5 * (g1 + g2.conj())
            if n_ops == 1:
                g = g.real.astype(complex)
            gamma[(i, j)] = g
            gamma[(j, i)] = g.conj()
            diagnostics[(i, j)] = {
                "delta_tau_b": corrs[(i, j, 0, 0)].decay_diagnostic,
            }

    def a_coeff(i: int, j: int, omega: float) -> np.ndarray:
        g = big_gamma(i, j, omega)
        return (g - g.conj().T) / 2j

    return RateTable(
        centers, realization.volumes, delta, gamma, "exact-quadrature", delta / 2.0,
        n_ops, a_coeff, diagnostics,
    )


# ---------------------------------------------------------------------------
# Lamb shift and transition rates


def lamb_shift(
    table: RateTable,
    s_omega: dict[float, list[np.ndarray]],
    h_system: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Energy-dependent shift Hamiltonians per window.

    H_LS(E) = - sum_{E', omega, a, a'} A^{aa'}(E', E; -omega) / V_E
    S^{a'}_omega^dag S^a_omega, and H'_S(E) = H_S + H_LS(E).  Both commute
    with H_S.  ``s_omega`` maps each frequency to the list of per-operator
    jump components.
    """
    n_win = len(table.centers)
    d_s = h_system.shape[0]
    h_ls = [np.zeros((d_s, d_s), dtype=complex) for _ in range(n_win)]
    if table.a_coeff is not None:
        for j in range(n_win):
            acc = np.zeros((d_s, d_s), dtype=complex)
            for jp in range(n_win):
                if jp == j:
                    continue
                for omega, ops in s_omega.items():
                    a_mat = table.a_coeff(jp, j, -omega)
                    for a in range(table.n_ops):
                        for ap in range(table.n_ops):
                            if a_mat[a, ap] == 0.0:
                                continue
                            acc += (
                                a_mat[a, ap]
                                * (ops[ap].conj().T @ ops[a])
                            )
            h_ls[j] = -acc / table.volumes[j]
    h_prime = [h_system.astype(complex) + h for h in h_ls]
    return h_ls, h_prime


def transition_rates(
    table: RateTable,
    s_ops: list[np.ndarray],
    levels: np.ndarray,
) -> dict[tuple[int, int, int, int], float]:
    """Classical transition rates W_{kq}(E_i, E_j) on the joint index.

    W_{kq}(E,E') = sum_{aa'} <q|S^{a'dag}|k> <k|S^a|q> gamma^{aa'}(E,E').
    The key (k, q, i, j) describes the jump (eps_q, E_j) -> (eps_k, E_i);
    the bath absorbs what the system loses, so the admitted window pairs
    satisfy |E_i - E_j - (eps_q - eps_k)| <= tol.  The symmetry
    W_{kq}(E_i,E_j) = W_{qk}(E_j,E_i) holds with identical floats because
    each unordered pair is computed once.  Raises if a rate is negative
    beyond roundoff.
    """
    d_s = len(levels)
    out: dict[tuple[int, int, int, int], float] = {}
    for k in range(d_s):
        for q in range(d_s):
            s_kq = np.array([s[k, q] for s in s_ops])
            if not np.any(s_kq):
                continue
            omega_bath = levels[q] - levels[k]  # energy released to the bath
            for j in range(len(table.centers)):
                i = table.target_window(j, omega_bath)
                if i is None:
                    continue
                key = (k, q, i, j)
                if (q, k, j, i) in out:
                    out[key] = out[(q, k, j, i)]
                    continue
                g = table.gamma_entry(i, j)
                w = complex(s_kq.conj() @ g.T @ s_kq)
                if w.real < -1e-12 * max(table.gamma_max, 1.0):
                    raise NumericalFailure(
                        f"negative transition rate W[{key}] = {w.real:g}"
                    )
                out[key] = max(w.real, 0.0)
    return out
