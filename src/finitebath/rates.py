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
from functools import lru_cache
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
# quadrature of one correlation function


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


def gamma_quadrature(corr: CorrelationFunction, omega: float) -> complex:
    """One-sided Fourier transform Gamma(E,E';omega) = V_E' int_0^inf C e^{i omega tau}.

    The integral is truncated at tau_max = min(5 * 2 pi / delta, first
    recurrence) and smoothly tapered over the final 10% so that neither the
    non-decayed tail nor finite-size recurrences pollute the rates.  Refuses
    a correlation function that never decays (the Markov approximation is
    then invalid, e.g. single-level windows).
    """
    c0 = abs(corr.values[0])
    if c0 == 0.0:
        return 0.0 + 0.0j
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
    return complex(g)


def default_tau_grid(delta: float, n: int = 2000) -> np.ndarray:
    return np.linspace(0.0, 5.0 * (2.0 * np.pi / delta), n)


# ---------------------------------------------------------------------------
# rate tables


@dataclass
class RateTable:
    """Dissipation data for one bath as arrays over window pairs.

    ``gamma[i, j]`` is the (n_ops, n_ops) matrix gamma^{alpha alpha'}(E_i,
    E_j); it is Hermitian in the operator indices, ``gamma[j, i]`` is
    ``gamma[i, j].conj()`` entry by entry, and the window diagonal is zero.
    ``a_coeff(omega)`` (optional) returns the dispersive coefficients
    A(E_i, E_j; omega) used for the energy shift as an array of the same
    shape, also zero on the window diagonal; it is absent for constructions
    that only determine the real part.

    A transition (E, E', omega) is admitted iff |E' - E - omega| <=
    ``resonance_tol`` = delta/2, which makes the target window unique.
    """

    centers: np.ndarray
    volumes: np.ndarray
    delta: float
    gamma: np.ndarray
    a_coeff: Callable[[float], np.ndarray] | None = None

    @property
    def resonance_tol(self) -> float:
        return self.delta / 2.0

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


def _mirror_upper(g: np.ndarray) -> np.ndarray:
    """Set the lower operator triangle (last two axes) to the conjugate of the upper one."""
    below = np.tril_indices(g.shape[-1], -1)
    g[..., below[0], below[1]] = g[..., below[1], below[0]].conj()
    return g


def rate_table_rmt(couplings, windows: list[EnergyWindow]) -> RateTable:
    """Ensemble closed form (2 pi lam^2 / delta) V_E V_E' (b'* b + a^2 [a=a']).

    Each upper-triangle entry is prefactor * V_lo * V_hi * b and the lower
    triangle is its conjugate, so the window-exchange symmetry holds with
    identical floats.  The table also carries the closed-form dispersive
    part.
    """
    specs = couplings if isinstance(couplings, (list, tuple)) else [couplings]
    n_win, n_ops = len(windows), len(specs)
    delta = windows[0].width
    centers = np.array([w.center for w in windows])
    volumes = np.array([w.volume for w in windows], dtype=float)
    lo, hi = np.triu_indices(n_win, 1)
    means = np.array(
        [[c.block_mean_value(i, j) for c in specs] for i, j in zip(lo, hi)], dtype=complex
    ).reshape(lo.size, n_ops)
    # b^{aa'} = conj(b^{a'}) b^a in real arithmetic, rounded like the scalar
    # complex product (numpy's vectorized complex multiply may fuse the
    # multiply-adds)
    c, m = np.conj(means)[:, None, :], means[:, :, None]
    b_re = c.real * m.real - c.imag * m.imag
    b_im = c.real * m.imag + c.imag * m.real
    ops = np.arange(n_ops)
    b_re[:, ops, ops] += [spec.variance for spec in specs]
    pref = np.array([[rate_prefactor(spec.lam, w.width) for spec in specs] for w in windows])
    scale = pref[lo][:, :, None] * volumes[lo, None, None] * volumes[hi, None, None]
    upper = np.empty((lo.size, n_ops, n_ops), dtype=complex)
    upper.real, upper.imag = scale * b_re, scale * b_im
    gamma = np.zeros((n_win, n_win, n_ops, n_ops), dtype=complex)
    gamma[lo, hi] = _mirror_upper(upper)
    gamma[hi, lo] = gamma[lo, hi].conj()

    def a_coeff(omega: float) -> np.ndarray:
        # Im of gamma^{aa'}(E_i, E_j) * breve_h(xi), xi = (E_j - E_i - omega)/delta
        kernel = breve_h((centers[None, :] - centers[:, None] - omega) / delta).imag
        return gamma * kernel[:, :, None, None]

    return RateTable(centers, volumes, delta, gamma, a_coeff)


def rate_table_heuristic(realization: BathRealization) -> RateTable:
    """Single-realization table from the trace formula (2 pi lam^2 / delta) tr[B'^dag Pi_E B Pi_E'].

    One (n_ops, n_ops) block per window pair; there is no dispersive part.
    """
    n_win, n_ops = len(realization.windows), len(realization.matrices)
    pref = rate_prefactor(realization.lam, realization.delta)
    slices = window_slices(realization.windows)
    gamma = np.zeros((n_win, n_win, n_ops, n_ops), dtype=complex)
    for i in range(n_win):
        for j in range(i + 1, n_win):
            b = [mat[slices[i], slices[j]] for mat in realization.matrices]
            g = gamma[i, j]
            for a, ap in zip(*np.triu_indices(n_ops)):
                val = pref * np.sum(b[ap].conj() * b[a])
                # the operator diagonal is real up to the round-off of the
                # vectorized complex product, which is dropped
                g[a, ap] = val.real if a == ap else val
            _mirror_upper(g)
            gamma[j, i] = g.conj()
    return RateTable(realization.centers, realization.volumes, realization.delta, gamma)


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
    pairs = [(i, j) for i in range(n_win) for j in range(n_win) if i != j]
    keys = [(i, j, a, ap) for i, j in pairs for a in range(n_ops) for ap in range(n_ops)]
    corrs = correlation_functions(realization, keys, tau_grid)

    @lru_cache(maxsize=None)
    def big_gamma(i: int, j: int, omega: float) -> np.ndarray:
        # Gamma^{aa'}(E_i, E_j; omega), memoized and read-only: the table and
        # every a_coeff call share one transform per (i, j, omega).  Every
        # operator pair is evaluated: Gamma = gamma/2 + i S with gamma and S
        # Hermitian, so Gamma itself is not
        g = np.array([
            [gamma_quadrature(corrs[(i, j, a, ap)], omega) for ap in range(n_ops)]
            for a in range(n_ops)
        ])
        g.flags.writeable = False
        return g

    gamma = np.zeros((n_win, n_win, n_ops, n_ops), dtype=complex)
    for i in range(n_win):
        for j in range(i + 1, n_win):
            omega_ij = centers[j] - centers[i]
            g_fwd = big_gamma(i, j, omega_ij)
            g_bwd = big_gamma(j, i, -omega_ij)
            # gamma^{aa'} = Gamma + Gamma^dagger (operator-pair Hermitian part)
            g1 = g_fwd + g_fwd.conj().T
            g2 = g_bwd + g_bwd.conj().T
            g = 0.5 * (g1 + g2.conj())
            gamma[i, j] = g.real if n_ops == 1 else g
            gamma[j, i] = gamma[i, j].conj()

    def a_coeff(omega: float) -> np.ndarray:
        out = np.zeros_like(gamma)
        for i, j in pairs:
            g = big_gamma(i, j, omega)
            out[i, j] = (g - g.conj().T) / 2j
        return out

    return RateTable(centers, realization.volumes, delta, gamma, a_coeff)


# ---------------------------------------------------------------------------
# Lamb shift and transition rates


def lamb_shift(
    table: RateTable,
    s_omega: dict[float, list[np.ndarray]],
    h_system: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Energy-dependent shift Hamiltonians per window, stacked along the first axis.

    H_LS(E_j) = -(1/V_j) sum_{omega, a, a'} [sum_{j'} A^{aa'}(E_j', E_j;
    -omega)] S^{a'}_omega^dag S^a_omega, one sum over j' and one contraction
    per frequency, and H'_S(E) = H_S + H_LS(E).  Both commute with H_S.
    ``s_omega`` maps each frequency to the list of per-operator jump
    components.
    """
    d_s = h_system.shape[0]
    acc = np.zeros((len(table.centers), d_s, d_s), dtype=complex)
    if table.a_coeff is not None:
        for omega, ops in s_omega.items():
            a_sum = table.a_coeff(-omega).sum(axis=0)  # [j, a, a']
            products = np.array([[s_ap.conj().T @ s_a for s_ap in ops] for s_a in ops])
            acc += np.einsum("jab,abxy->jxy", a_sum, products)
    h_ls = -acc / table.volumes[:, None, None]
    return h_ls, h_system.astype(complex) + h_ls


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
    beyond roundoff of the largest table entry.
    """
    d_s = len(levels)
    floor = -1e-12 * max(np.max(np.abs(table.gamma), initial=0.0), 1.0)
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
                w = complex(s_kq.conj() @ table.gamma[i, j].T @ s_kq)
                if w.real < floor:
                    raise NumericalFailure(
                        f"negative transition rate W[{key}] = {w.real:g}"
                    )
                out[key] = max(w.real, 0.0)
    return out
