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
import scipy

from .bath import BathRealization, EnergyWindow, window_slices
from .errors import ConfigurationError, NumericalFailure

EULER_GAMMA = float(np.euler_gamma)
FREQUENCY_DIGITS = 12


def frequency(e_from: float, e_to: float) -> float:
    """e_to - e_from rounded to FREQUENCY_DIGITS decimals: the one rounding of every frequency."""
    return round(float(e_to - e_from), FREQUENCY_DIGITS)


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


def _cos_sin_table(tau: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """cos(E_p tau) stacked over sin(E_p tau): shape (2 len(tau), len(levels))."""
    x = np.multiply.outer(tau, levels)
    table = np.empty((2 * tau.size, levels.size))
    np.cos(x, out=table[: tau.size])
    np.sin(x, out=table[tau.size :])
    return table


# the Chebyshev tail of e^{i beta x} that the phase interpolation may drop
NODE_TAIL = 1e-17


def _node_count(beta: float, limit: int) -> int:
    """Smallest r < limit whose tail sum_{k >= r} 2 (beta/2)^k / k! is <= NODE_TAIL, else limit.

    The k-th term bounds the k-th Chebyshev coefficient 2 |J_k(beta)| of
    e^{i beta x} on [-1, 1].  The tail is taken as its upper bound
    term_r / (1 - rho), valid once the term ratio rho = beta / (2 (r + 1))
    is below one and at most 1 / (1 - rho) above the sum itself; it is
    formed in logs so that a large beta cannot overflow.
    """
    k = np.arange(1, limit)
    rho = 0.5 * beta / (k + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_tail = np.log(2.0) + np.cumsum(np.log(0.5 * beta / k)) - np.log1p(-rho)
    ok = (rho < 1.0) & (log_tail <= np.log(NODE_TAIL))
    return int(k[ok][0]) if ok.any() else limit


def _phase_nodes(levels: np.ndarray, tau_max: float):
    """Frequencies whose phases e^{i nu tau} reproduce every e^{i E_p tau}, |tau| <= tau_max.

    On the span [m - h, m + h] of the levels, e^{i E tau} is an entire
    function of x = (E - m)/h of bandwidth beta = h tau_max, so its
    interpolant at r Chebyshev points of the first kind nu_k = m + h t_k
    gives e^{i E_p tau} = sum_k L[k, p] e^{i nu_k tau} to within
    NODE_TAIL (1 + Lambda_r), Lambda_r <= (2/pi) log r + 1, with L the real
    (r, V) barycentric Lagrange basis at x_p.  Returns (nodes, L), or
    (levels, None) for the identity when r would not be below V (or h = 0).
    """
    lo, hi = (float(levels.min()), float(levels.max())) if levels.size else (0.0, 0.0)
    m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    r = _node_count(h * tau_max, levels.size) if h > 0 else levels.size
    if r >= levels.size:
        return levels, None
    # the sine form makes the nodes exactly symmetric, with t = 0 for odd r
    t = np.sin(0.5 * np.pi * np.arange(r - 1, -r, -2) / r)
    w = np.sin(0.5 * np.pi * np.arange(1, 2 * r, 2) / r) * (-1.0) ** np.arange(r)
    d = (levels - m)[None, :] / h - t[:, None]
    hit = d == 0.0
    d[hit] = 1.0
    basis = w[:, None] / d
    basis /= basis.sum(axis=0)
    on_node = hit.any(axis=0)  # a level exactly on a node: l_k(t_k) = 1
    basis[:, on_node] = hit[:, on_node]
    return m + h * t, basis


def _phase_sum(left: np.ndarray, right: np.ndarray, m: np.ndarray):
    """Real and imaginary parts of sum_pq m_pq exp(i (E_p - E_q) tau) for real m.

    ``left`` and ``right`` are the cos/sin tables of the row and column
    windows.  One real GEMM gives sum_p m_pq cos(E_p tau) and sum_p m_pq
    sin(E_p tau); four row-wise dot products with cos(E_q tau) and
    sin(E_q tau) finish the double sum.
    """
    n = left.shape[0] // 2
    p = left @ m
    pc, ps, c, s = p[:n], p[n:], right[:n], right[n:]
    re = np.einsum("tq,tq->t", pc, c) + np.einsum("tq,tq->t", ps, s)
    im = np.einsum("tq,tq->t", ps, c) - np.einsum("tq,tq->t", pc, s)
    return re, im


def correlation_functions(
    realization: BathRealization,
    keys: list[tuple[int, int, int, int]],
    tau_grid: np.ndarray,
) -> dict[tuple[int, int, int, int], CorrelationFunction]:
    """Double sums over microlevels for many keys in one pass over tau.

    A key (i, j, alpha, alpha') selects the window pair (i, j) and the
    sampled coupling matrices of the operator pair (alpha, alpha'); the
    result is C = lam^2 S_ij / V_j with S_ij(tau) = sum_{p in i, q in j}
    w_pq exp(i (E_p - E_q) tau) and w = conj(B^alpha') * B^alpha on the
    block (i, j).  Because every B is Hermitian, only the keys with i < j
    and alpha <= alpha' need a sum:

    * window exchange: the weights of (j, i) are the conjugate transpose of
      those of (i, j), so S_ji = conj(S_ij);
    * operator exchange: w^{alpha' alpha} = conj(w^{alpha alpha'}); with
      w = X + iY (X, Y real), S^{alpha alpha'} = S[X] + i S[Y] and
      S^{alpha' alpha} = S[X] - i S[Y], and Y = 0 for alpha = alpha'.

    The sums run over each window's phase nodes (:func:`_phase_nodes`):
    the smallest r whose Chebyshev tail bound sum_{k >= r} 2 (beta/2)^k / k!
    is <= 1e-17, beta = h_w max|tau| with h_w the half-span of the window's
    levels (r = 48 on ``default_tau_grid``), so that
    e^{i E_p tau} = sum_k L_w[k, p] e^{i nu_k tau} to within
    1e-17 (1 + Lambda_r), Lambda_r <= (2/pi) log r + 1.  S[M] is then the
    same sum on the nodes with M replaced by L_i M L_j^T, formed once per
    representative key; a window with no more levels than nodes keeps its
    levels (L = identity).  Each S[M] of a real M is one real GEMM of the
    row window's stacked cos/sin table with M, contracted against the
    column window's table: 2 T r_i r_j multiply-adds over T tau points,
    r_w = min(V_w, r), instead of 2 T V_i V_j.  The tau grid is walked in
    chunks, each window's table built once per chunk.  Each key's values
    depend only on its own window and operator pair, not on which other
    keys were requested.  Diagonal keys (i == j) are exact zeros, the
    block-diagonal part of every coupling matrix being zero.  A tau grid
    that is empty, not one-dimensional or not finite is refused.
    """
    n_win, n_ops = len(realization.windows), len(realization.matrices)
    for i, j, a, ap in keys:
        if not (0 <= i < n_win and 0 <= j < n_win):
            raise ConfigurationError(f"unknown window pair {(i, j)}")
        if not (0 <= a < n_ops and 0 <= ap < n_ops):
            raise ConfigurationError(f"unknown operator pair {(a, ap)}")
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or tau_grid.size == 0:
        raise ConfigurationError("tau grid must be a non-empty, one-dimensional list")
    if not np.all(np.isfinite(tau_grid)):
        raise ConfigurationError("tau grid must be finite")
    slices = window_slices(realization.windows)
    values = {key: np.zeros(tau_grid.size, dtype=complex) for key in keys}
    # requested keys grouped by their representative (i < j, a <= a')
    groups: dict[tuple[int, int, int, int], list] = {}
    for (i, j, a, ap), out in values.items():
        if i != j:
            rep = (min(i, j), max(i, j), min(a, ap), max(a, ap))
            groups.setdefault(rep, []).append(((i, j, a, ap), out))
    tau_max = float(np.max(np.abs(tau_grid)))
    used = sorted({w for rep in groups for w in rep[:2]})
    nodes = {w: _phase_nodes(realization.windows[w].microlevels, tau_max) for w in used}
    # each representative's real weights X (and Y), carried onto the nodes
    # as L_i X L_j^T
    compressed = {}
    for i, j, a, ap in groups:
        weights = realization.matrices[ap][slices[i], slices[j]].conj()
        weights *= realization.matrices[a][slices[i], slices[j]]
        parts = [weights.real] if a == ap else [weights.real, weights.imag]
        (_, left), (_, right) = nodes[i], nodes[j]
        if left is not None:
            parts = [left @ m for m in parts]
        if right is not None:
            parts = [m @ right.T for m in parts]
        compressed[(i, j, a, ap)] = [np.ascontiguousarray(m) for m in parts]
    chunk = 256
    for lo in range(0, tau_grid.size, chunk):
        t = tau_grid[lo : lo + chunk]
        tables = {w: _cos_sin_table(t, freqs) for w, (freqs, _) in nodes.items()}
        for (i, j, a, ap), members in groups.items():
            sums = [_phase_sum(tables[i], tables[j], m) for m in compressed[(i, j, a, ap)]]
            x_re, x_im = sums[0]
            for (ki, kj, ka, _), out in members:
                part = out[lo : lo + chunk]
                if a == ap:
                    part.real, part.imag = x_re, x_im
                else:
                    y_re, y_im = sums[1]
                    sign = 1.0 if ka == a else -1.0  # S[X] + sign * i S[Y]
                    part.real, part.imag = x_re - sign * y_im, x_im + sign * y_re
                if ki > kj:
                    np.conjugate(part, out=part)
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
    si, _ = scipy.special.sici(x)
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
    si, ci = scipy.special.sici(xp)
    vals = (2.0 / (np.pi * delta)) * (
        xp * si + np.cos(xp) - 1.0 - EULER_GAMMA - np.log(xp) + ci
    )
    out = np.where(pos, vals, 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# quadrature of one correlation function


def _taper_window(tau: np.ndarray, tau_max: float) -> np.ndarray:
    """1 up to 0.9 tau_max, then a raised-cosine ramp down to 0 at tau_max."""
    w = np.ones_like(tau)
    t0 = 0.9 * tau_max
    ramp = tau > t0
    w[ramp] = 0.5 * (1.0 + np.cos(np.pi * (tau[ramp] - t0) / (tau_max - t0)))
    w[tau > tau_max] = 0.0
    return w


def gamma_quadrature(corr: CorrelationFunction, omega: float) -> complex:
    """One-sided Fourier transform Gamma(E,E';omega) = V_E' int_0^inf C e^{i omega tau}.

    The integral is truncated at tau_max = min(5 * 2 pi / delta, first
    recurrence) and smoothly tapered over the final 10% so that neither the
    non-decayed tail nor finite-size recurrences pollute the rates.  Refuses
    a correlation function that never decays (the Markov approximation is
    then invalid, e.g. single-level windows).

    The quadrature is one fixed Simpson rule (see :func:`_simpson_weights`),
    whatever scipy is installed.  That is the rule of scipy >= 1.11; before
    1.11 ``scipy.integrate.simpson`` defaulted to ``even="avg"``, which
    differs on an even number of samples (the default tau grid has 2000).
    Rates from finitebath releases that called ``simpson`` under scipy 1.10
    therefore differ from these in the last interval; that difference has
    not been checked against a scipy 1.10 install.
    """
    mag = np.abs(corr.values)
    c0 = mag[0]
    if c0 == 0.0:
        return 0.0 + 0.0j
    if mag.min() > 0.5 * c0:
        raise NumericalFailure(
            f"correlation function of window pair {corr.pair}, operator pair "
            f"{corr.ops} never decays (pure phase, e.g. V=1 windows); "
            "the Markov approximation is invalid for this pair"
        )
    if mag.min() > 0.05 * c0:
        warnings.warn(
            "correlation function has not decayed below 5% of |C(0)| on the "
            "sampled grid; quadrature may be inaccurate",
            stacklevel=2,
        )
    tau_max = 5.0 * (2.0 * np.pi / corr.delta)
    # the first recurrence: |C| back above half its initial value after tau_b
    rec = np.flatnonzero((corr.tau > corr.tau_b) & (mag > 0.5 * c0))
    if rec.size:
        tau_max = min(tau_max, float(corr.tau[rec[0]]))
    mask = corr.tau <= tau_max
    tau = corr.tau[mask]
    vals = corr.values[mask] * _taper_window(tau, tau_max)
    integrand = vals * np.exp(1j * omega * tau)
    return complex(corr.volume_right * (_simpson_weights(tau) @ integrand))


def _simpson_weights(x: np.ndarray) -> np.ndarray:
    """Weights w of composite Simpson's rule on the increasing samples x: int y dx ~ w @ y.

    The rule of ``scipy.integrate.simpson(y, x=x)`` from scipy 1.11 on:
    Simpson on consecutive interval pairs with the irregular-spacing
    coefficients, and for an even number of samples the last interval by
    Cartwright's correction.  One sample gives 0 and two the trapezoid.
    """
    n = x.size
    w = np.zeros(n)
    h = np.diff(x)
    if n == 2:
        w[:] = 0.5 * h[0]
    if n < 3:
        return w
    m = n if n % 2 else n - 1  # samples the pairs cover
    h0, h1 = h[0 : m - 2 : 2], h[1 : m - 1 : 2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    c = hsum / 6.0
    w[0 : m - 2 : 2] += c * (2.0 - 1.0 / h0divh1)
    w[1 : m - 1 : 2] += c * (hsum * (hsum / (h0 * h1)))
    w[2:m:2] += c * (2.0 - h0divh1)
    if m < n:
        a, b = h[-2], h[-1]
        w[-1] += (2 * b**2 + 3 * a * b) / (6 * (b + a))
        w[-2] += (b**2 + 3.0 * a * b) / (6 * a)
        w[-3] -= b**3 / (6 * a * (a + b))
    return w


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

    A transition (E, E', omega) is admitted iff |(E' - E) - omega| <
    ``resonance_tol`` = delta/2, which makes the target window unique for
    windows at least delta apart (see :meth:`target_window`).
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
        """Index of the window at E_j + omega under the resonance rule, or None.

        The lowest i with |(E_i - E_j) - omega| < tol.  The rule is strict
        and written as a difference of centers, so it holds for (j, omega)
        exactly when it holds for (i, -omega): every jump comes with its
        reverse, as local detailed balance needs.  A point exactly between
        two windows delta apart is a resonance of neither, in both
        directions.  Centers increase and rounding is monotone, so
        (E_i - E_j) - omega is non-decreasing in i and the hits are
        contiguous: a bisection finds the first i with E_i > x - tol, and
        the steps after it absorb the rounding by which that predicate can
        differ from the difference form.
        """
        c, tol = self.centers, self.resonance_tol
        i = int(np.searchsorted(c, c[j] + omega - tol, side="right"))
        while i > 0 and (c[i - 1] - c[j]) - omega > -tol:
            i -= 1
        while i < c.size and not (c[i] - c[j]) - omega > -tol:
            i += 1
        return i if i < c.size and (c[i] - c[j]) - omega < tol else None


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
    means = np.stack([spec.block_means(lo, hi) for spec in specs], axis=1)
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
    """Table from one-sided quadrature at resonance, omega_ij = E_j - E_i.

    gamma(E_i, E_j) = Gamma + Gamma^dagger (operator-pair Hermitian part)
    with Gamma = Gamma(E_i, E_j; omega_ij).  Each unordered window pair
    i < j is transformed once: B is Hermitian, so the correlation of (j, i)
    is the conjugate of that of (i, j) and the window-exchange identity
    Gamma(E_j, E_i; -omega) = Gamma(E_i, E_j; omega)^* holds entry by entry.
    It gives gamma[j, i] = gamma[i, j].conj() exactly, which downstream
    detailed-balance identities need.  The dispersive coefficients
    A = (Gamma - Gamma^dagger) / 2i come from the transform at the
    requested frequency, the (j, i) entries through the same identity.
    """
    windows = realization.windows
    n_ops = len(realization.matrices)
    delta = realization.delta
    centers = realization.centers
    if tau_grid is None:
        tau_grid = default_tau_grid(delta)
    n_win = len(windows)
    pairs = [(i, j) for i in range(n_win) for j in range(i + 1, n_win)]
    keys = [(i, j, a, ap) for i, j in pairs for a in range(n_ops) for ap in range(n_ops)]
    corrs = correlation_functions(realization, keys, tau_grid)

    @lru_cache(maxsize=None)
    def big_gamma(i: int, j: int, omega: float) -> np.ndarray:
        # Gamma^{aa'}(E_i, E_j; omega), i < j, memoized and read-only: the
        # table and every a_coeff call share one transform per (i, j, omega).
        # Every operator pair is evaluated: Gamma = gamma/2 + i S with gamma
        # and S Hermitian, so Gamma itself is not
        g = np.array([
            [gamma_quadrature(corrs[(i, j, a, ap)], omega) for ap in range(n_ops)]
            for a in range(n_ops)
        ])
        g.flags.writeable = False
        return g

    gamma = np.zeros((n_win, n_win, n_ops, n_ops), dtype=complex)
    for i, j in pairs:
        g = big_gamma(i, j, centers[j] - centers[i])
        gamma[i, j] = g + g.conj().T
        gamma[j, i] = gamma[i, j].conj()

    def a_coeff(omega: float) -> np.ndarray:
        out = np.zeros_like(gamma)
        for i, j in pairs:
            fwd, bwd = big_gamma(i, j, omega), big_gamma(i, j, -omega).conj()
            out[i, j] = (fwd - fwd.conj().T) / 2j
            out[j, i] = (bwd - bwd.conj().T) / 2j
        return out

    return RateTable(centers, realization.volumes, delta, gamma, a_coeff)


# ---------------------------------------------------------------------------
# Lamb shift and transition rates


def lamb_shift(table: RateTable, s_omega: dict[float, list[np.ndarray]]) -> np.ndarray:
    """Energy-dependent shift Hamiltonians per window, stacked along the first axis.

    H_LS(E_j) = -(1/V_j) sum_{omega, a, a'} [sum_{j'} A^{aa'}(E_j', E_j;
    -omega)] S^{a'}_omega^dag S^a_omega, one sum over j' and one contraction
    per frequency; the shifted Hamiltonian H_S + H_LS(E) commutes with H_S.
    ``s_omega`` maps each frequency to the list of per-operator jump
    components.  The stack has shape (n_windows, d_s, d_s), or (n_windows,
    1, 1) zeros when the table has no dispersive part or ``s_omega`` is
    empty; either broadcasts against H_S.
    """
    acc = np.zeros((len(table.centers), 1, 1), dtype=complex)
    if table.a_coeff is not None:
        for omega, ops in s_omega.items():
            a_sum = table.a_coeff(-omega).sum(axis=0)  # [j, a, a']
            products = np.array([[s_ap.conj().T @ s_a for s_ap in ops] for s_a in ops])
            acc = acc + np.einsum("jab,abxy->jxy", a_sum, products)
    return -acc / table.volumes[:, None, None]


def transition_rates(
    table: RateTable,
    s_ops: list[np.ndarray],
    levels: np.ndarray,
) -> dict[tuple[int, int, int, int], float]:
    """Classical transition rates W_{kq}(E_i, E_j) on the joint index.

    W_{kq}(E,E') = sum_{aa'} <q|S^{a'dag}|k> <k|S^a|q> gamma^{aa'}(E,E').
    The key (k, q, i, j) describes the jump (eps_q, E_j) -> (eps_k, E_i);
    the bath absorbs what the system loses, so the admitted window pairs
    satisfy |(E_i - E_j) - (eps_q - eps_k)| < tol.  The symmetry
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
            # energy released to the bath
            omega_bath = frequency(levels[k], levels[q])
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
