import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, quad, simpson

# the oscillatory quadrature oracle for the closed-form kernel reports
# harmless roundoff near its 1e4 cutoff
pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")

from finitebath.bath import (
    BathSpec,
    CouplingSpec,
    EnergyWindow,
    build_spectrum,
    sample_coupling,
    window_slices,
)
from finitebath.emme import s_omega_decomposition
from finitebath.errors import ConfigurationError, NumericalFailure
from finitebath.rates import (
    RateTable,
    _phase_nodes,
    _simpson_weights,
    breve_h,
    correlation_exact,
    correlation_functions,
    default_tau_grid,
    gamma_quadrature,
    lamb_shift,
    rate_table_heuristic,
    rate_table_quadrature,
    rate_table_rmt,
    transition_rates,
    xi_integral,
    zeta,
)

from conftest import SIGMA_X, two_band_realization

GAMMA_FIG2 = 2 * np.pi * (3e-3) ** 2 / 0.5 * 400 * 600  # = 27.1434 for a^2 = 1


# ---------------------------------------------------------------------------
# correlation function


def test_correlation_at_zero_matches_brute_force_trace():
    real = two_band_realization(v0=7, v1=9, seed=3)
    corr = correlation_exact(real, (0, 1), np.array([0.0, 0.1, 0.3]))
    b = real.matrices[0]
    sl0, sl1 = window_slices(real.windows)[:2]
    e0, e1 = real.windows[0].microlevels, real.windows[1].microlevels
    # independent scalar double loop
    for n, tau in enumerate([0.0, 0.1, 0.3]):
        acc = 0.0
        for a in range(7):
            for c in range(9):
                acc += abs(b[sl0, sl1][a, c]) ** 2 * np.exp(1j * (e0[a] - e1[c]) * tau)
        acc *= real.lam**2 / 9
        assert corr.values[n] == pytest.approx(acc, rel=1e-12)
    assert corr.values[0].imag == pytest.approx(0.0, abs=1e-18)
    assert corr.values[0].real >= 0


def test_correlation_single_level_windows_never_decays():
    spec = BathSpec([EnergyWindow(0.0, 0.5, 1), EnergyWindow(1.0, 0.5, 1)])
    wins = build_spectrum(spec)
    real = sample_coupling(CouplingSpec(lam=1.0, block_mean=1.0, variance=0.0), wins)
    corr = correlation_exact(real, (0, 1), np.linspace(0, 50, 400))
    assert np.allclose(np.abs(corr.values), np.abs(corr.values[0]))
    assert corr.tau_b == np.inf


def _three_window_two_operator_bath(volumes=(11, 17, 23)):
    spec = BathSpec(
        [EnergyWindow(float(c), 0.5, v) for c, v in enumerate(volumes)],
        "random-uniform",
        seed=5,
    )
    wins = build_spectrum(spec)
    coups = [
        CouplingSpec(lam=2e-3, block_mean=0.5, variance=1.0, seed=51),
        CouplingSpec(lam=2e-3, block_mean=0.5j, variance=1.0, seed=52),
    ]
    return sample_coupling(coups, wins)


ALL_KEYS = [(i, j, a, ap) for i in range(3) for j in range(3) for a in range(2) for ap in range(2)]


def test_correlation_functions_equal_single_key_calls_across_chunks():
    real = _three_window_two_operator_bath()
    tau = np.linspace(0.0, 60.0, 600)  # three tau chunks, the last one partial
    corrs = correlation_functions(real, ALL_KEYS, tau)
    assert list(corrs) == ALL_KEYS
    for (i, j, a, ap), corr in corrs.items():
        single = correlation_exact(real, (i, j), tau, (a, ap))
        assert np.array_equal(corr.values, single.values)
        assert (corr.pair, corr.ops, corr.volume_right) == ((i, j), (a, ap), real.windows[j].volume)


def test_correlation_functions_match_einsum_double_sum():
    real = _three_window_two_operator_bath()
    tau = np.linspace(0.0, 60.0, 600)
    corrs = correlation_functions(real, ALL_KEYS, tau)
    slices = window_slices(real.windows)
    for (i, j, a, ap), corr in corrs.items():
        sl_i, sl_j = slices[i], slices[j]
        b_a, b_ap = real.matrices[a][sl_i, sl_j], real.matrices[ap][sl_i, sl_j]
        gap = np.subtract.outer(real.windows[i].microlevels, real.windows[j].microlevels)
        # independent oracle: sum_{p,q} conj(B'_pq) B_pq e^{i (E_p - E_q) tau}
        ref = np.einsum("pq,pq,tpq->t", b_ap.conj(), b_a, np.exp(1j * tau[:, None, None] * gap))
        ref *= real.lam**2 / real.windows[j].volume
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(corr.values - ref)) <= 1e-12 * max(scale, 1e-300)
        if i == j:  # block-diagonal couplings vanish
            assert scale == 0.0


def test_correlation_functions_unknown_window_pair():
    real = _three_window_two_operator_bath()
    with pytest.raises(ConfigurationError):
        correlation_functions(real, [(0, 1, 0, 0), (0, 3, 0, 0)], np.linspace(0.0, 1.0, 5))


def test_correlation_functions_unknown_operator_pair():
    real = _three_window_two_operator_bath()
    tau = np.linspace(0.0, 1.0, 5)
    for ops in [(-1, 0), (0, -1), (2, 0), (0, 2)]:
        with pytest.raises(ConfigurationError, match="operator pair"):
            correlation_functions(real, [(0, 1, 0, 0), (0, 1, *ops)], tau)


@pytest.mark.parametrize("tau", [[], [[0.0, 1.0]], [0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]])
def test_tau_grid_that_is_empty_or_not_one_dimensional_is_refused(tau):
    real = _three_window_two_operator_bath()
    with pytest.raises(ConfigurationError, match="tau grid"):
        correlation_functions(real, [(0, 1, 0, 0)], np.array(tau))
    with pytest.raises(ConfigurationError, match="tau grid"):
        rate_table_quadrature(real, np.array(tau))


def double_sum_oracle(real, key, tau):
    """lam^2/V_j sum_pq conj(B^a'_pq) B^a_pq e^{i E_p tau} e^{-i E_q tau} from the exact phase of every level."""
    i, j, a, ap = key
    slices = window_slices(real.windows)
    w = real.matrices[ap][slices[i], slices[j]].conj() * real.matrices[a][slices[i], slices[j]]
    p_i, p_j = (np.exp(1j * np.multiply.outer(tau, real.windows[k].microlevels)) for k in (i, j))
    return np.einsum("tq,tq->t", p_i @ w, p_j.conj()) * real.lam**2 / real.windows[j].volume


def assert_matches_oracle(real, tau, keys):
    corrs = correlation_functions(real, keys, tau)
    for key, corr in corrs.items():
        ref = double_sum_oracle(real, key, tau)
        assert np.max(np.abs(corr.values - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1e-300)


def chebyshev_node_count(beta):
    """Smallest r with sum_{k >= r} 2 (beta/2)^k / k! <= 1e-17, summed term by term."""
    def tail(r):
        return sum(2.0 * math.exp(k * math.log(beta / 2) - math.lgamma(k + 1))
                   for k in range(r, r + 400))
    r = 1
    while tail(r) > 1e-17:
        r += 1
    return r


def table_widths(monkeypatch):
    """Record the column count of every cos/sin table the kernel builds."""
    import finitebath.rates as rates_mod

    widths, original = [], rates_mod._cos_sin_table

    def recording(tau, levels):
        widths.append(levels.size)
        return original(tau, levels)

    monkeypatch.setattr(rates_mod, "_cos_sin_table", recording)
    return widths


def test_compressed_kernel_matches_double_sum_on_the_default_grid(monkeypatch):
    # on default_tau_grid the bandwidth is below 5 pi, so every window of
    # 60 or more levels is summed on at most 48 Chebyshev nodes
    real = _three_window_two_operator_bath((60, 100, 150))
    widths = table_widths(monkeypatch)
    assert_matches_oracle(real, default_tau_grid(0.5), ALL_KEYS)
    assert set(widths) <= set(range(40, 49))


def test_kernel_mixes_a_compressed_and_a_direct_window(monkeypatch):
    real = _three_window_two_operator_bath((30, 120, 10))
    widths = table_widths(monkeypatch)
    keys = [(0, 1, a, ap) for a in range(2) for ap in range(2)]
    assert_matches_oracle(real, default_tau_grid(0.5), keys + [(1, 0, 1, 0)])
    assert 30 in widths and max(widths) < 120


def test_level_on_the_middle_node_takes_the_exact_hit_branch():
    # a regular window of odd volume has a level on the midpoint of its span,
    # which is the middle node x = 0 of an odd node count
    wins = build_spectrum(BathSpec([EnergyWindow(0.0, 0.5, 61), EnergyWindow(1.0, 0.5, 75)]))
    real = sample_coupling(CouplingSpec(lam=2e-3, block_mean=0.5, variance=1.0, seed=8), wins)
    tau = default_tau_grid(0.5)
    for win in wins:
        _, basis = _phase_nodes(win.microlevels, tau[-1])
        r = basis.shape[0]
        assert r % 2 == 1 and r < win.volume
        assert np.array_equal(basis[:, win.volume // 2], np.eye(r)[r // 2])
    assert_matches_oracle(real, tau, [(0, 1, 0, 0), (1, 0, 0, 0)])


def test_levels_outside_the_nominal_window_are_interpolated_on_their_own_span(monkeypatch):
    # a hand-built realization whose levels spread well beyond [lo, hi); nodes
    # on the nominal window would extrapolate the phases there
    rng = np.random.default_rng(4)
    windows = [
        EnergyWindow(0.0, 0.5, 120, np.sort(rng.uniform(-1.0, 0.8, 120))),
        EnergyWindow(1.0, 0.5, 90, np.sort(rng.uniform(0.6, 2.5, 90))),
    ]
    coups = [CouplingSpec(lam=2e-3, block_mean=0.5, variance=1.0, seed=s) for s in (3, 4)]
    real = sample_coupling(coups, windows)
    widths = table_widths(monkeypatch)
    keys = [(i, j, a, ap) for i, j in [(0, 1), (1, 0)] for a in range(2) for ap in range(2)]
    assert_matches_oracle(real, np.linspace(0.0, 20.0, 700), keys)
    assert max(widths) < 90


def test_kernel_tables_have_min_of_volume_and_node_count_columns(monkeypatch):
    real = _three_window_two_operator_bath((30, 60, 150))
    widths = table_widths(monkeypatch)
    tau = default_tau_grid(0.5)
    correlation_functions(real, ALL_KEYS, tau)
    want = []
    for win in real.windows:
        half_span = 0.5 * (win.microlevels.max() - win.microlevels.min())
        want.append(min(win.volume, chebyshev_node_count(half_span * tau[-1])))
    assert want[0] == 30 and max(want) <= 48
    # one table per window and tau chunk
    assert sorted(widths) == sorted(want * 8)
    assert chebyshev_node_count(5 * np.pi) == 48


COMPLEX = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def sampled_baths(draw):
    """A sampled realization with a tau grid symmetric about zero.

    2-4 windows of 1-120 levels on a regular or random-uniform spectrum,
    1-3 operators whose block means are one complex constant or a dict over
    some window pairs, and a grid of 258-600 points (more than one tau
    chunk) made of a nonnegative half and its exact negative.
    """
    n = draw(st.integers(2, 4))
    volumes = draw(st.lists(st.integers(1, 120), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["regular", "random-uniform"]))
    windows = [EnergyWindow(float(c), 0.5, v) for c, v in enumerate(volumes)]
    spec = BathSpec(windows, kind, seed=draw(st.integers(0, 2**32 - 1)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    couplings = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            mean = draw(COMPLEX)
        else:
            chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
            mean = {pair: draw(COMPLEX) for pair in chosen}
        couplings.append(CouplingSpec(lam=2e-3, block_mean=mean,
                                      variance=draw(st.floats(0.0, 2.0)),
                                      seed=draw(st.integers(0, 2**32 - 1))))
    half = np.linspace(0.0, draw(st.floats(1.0, 200.0)), draw(st.integers(129, 300)))
    tau = np.concatenate([-half[::-1], half])
    return sample_coupling(couplings, build_spectrum(spec)), tau


@settings(max_examples=60, deadline=None)
@given(sampled_baths(), st.data())
def test_correlation_kernel_matches_oracle_and_exchange_identities(bath, data):
    real, tau = bath
    n, n_ops = len(real.windows), len(real.matrices)
    keys = [(i, j, a, ap) for i in range(n) for j in range(n)
            for a in range(n_ops) for ap in range(n_ops)]
    corrs = correlation_functions(real, keys, tau)
    vol = [w.volume for w in real.windows]
    for i in range(n):
        for j in range(n):
            for a in range(n_ops):
                for ap in range(n_ops):
                    ref = double_sum_oracle(real, (i, j, a, ap), tau)
                    got = corrs[(i, j, a, ap)].values
                    scale = max(np.max(np.abs(ref)), np.finfo(float).tiny)
                    assert np.max(np.abs(got - ref)) <= 1e-12 * scale
                    if i == j:
                        assert not np.any(got)
                    # window exchange: V_i C_ji = conj(V_j C_ij)
                    swapped = vol[i] * corrs[(j, i, a, ap)].values
                    assert np.max(np.abs(swapped - np.conj(vol[j] * got))) <= 1e-12 * vol[j] * scale
                    # operator exchange: C^{a'a}(tau) = conj(C^{aa'}(-tau))
                    mirrored = corrs[(i, j, ap, a)].values
                    assert np.max(np.abs(mirrored - np.conj(got[::-1]))) <= 1e-12 * scale
    subset = data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    for key, corr in correlation_functions(real, subset, tau).items():
        assert np.array_equal(corr.values, correlation_exact(real, key[:2], tau, key[2:]).values)
        assert np.array_equal(corr.values, corrs[key].values)


def test_rate_table_quadrature_evaluates_each_transform_once(monkeypatch):
    import finitebath.rates as rates_mod

    seen = []
    original = rates_mod.gamma_quadrature

    def counting(corr, omega):
        seen.append((corr.pair, corr.ops, float(omega)))
        return original(corr, omega)

    monkeypatch.setattr(rates_mod, "gamma_quadrature", counting)
    real = _three_window_two_operator_bath((60, 80, 100))
    table = rate_table_quadrature(real, default_tau_grid(0.5, 400))
    n_table = len(seen)
    assert n_table == 3 * 4  # unordered window pairs x operator pairs
    for omega in (-1.0, 0.75):
        first = table.a_coeff(omega)
        again = table.a_coeff(omega)
        assert np.array_equal(first, again)
    # a_coeff(omega) transforms the three unordered window pairs at omega and
    # at -omega, four transforms each, and evaluates each transform once: at
    # -1.0 the pairs (0, 1) and (1, 2) at +1.0 are the table's own resonant
    # entries and cost none
    assert len(seen) == n_table + (6 - 2) * 4 + 6 * 4
    assert len(set(seen)) == len(seen)


def test_rate_table_quadrature_uses_every_operator_pair_directly():
    # Gamma = gamma/2 + i S with gamma and S Hermitian, so the lower operator
    # triangle of Gamma is not the conjugate of the upper one
    real = _three_window_two_operator_bath((100, 140, 180))
    tau = default_tau_grid(0.5, 400)
    table = rate_table_quadrature(real, tau)

    def direct(i, j, omega):
        return np.array([
            [gamma_quadrature(correlation_exact(real, (i, j), tau, (a, ap)), omega)
             for ap in range(2)]
            for a in range(2)
        ])

    for omega in (0.3, -1.0):
        a_coeff = table.a_coeff(omega)
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            g = direct(i, j, omega)
            assert np.array_equal(a_coeff[i, j], (g - g.conj().T) / 2j)
            # the reverse order through the window-exchange identity
            # Gamma(E_j, E_i; omega) = Gamma(E_i, E_j; -omega)^*, which the
            # kernel meets to roundoff
            g = direct(i, j, -omega).conj()
            assert np.array_equal(a_coeff[j, i], (g - g.conj().T) / 2j)
            reverse = direct(j, i, omega)
            assert np.max(np.abs(reverse - g)) <= 1e-13 * np.max(np.abs(g))
    assert abs(table.a_coeff(0.3)[0, 1, 0, 1]) > 1e-3  # the cross shift S^{01}
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        fwd = direct(i, j, table.centers[j] - table.centers[i])
        assert np.array_equal(table.gamma[i, j], fwd + fwd.conj().T)
        assert np.array_equal(table.gamma[j, i], table.gamma[i, j].conj())


def test_correlation_envelope_matches_sinc_squared():
    real = two_band_realization(seed=13)
    tau = np.linspace(0.0, 40.0, 600)
    corr = correlation_exact(real, (0, 1), tau)
    envelope = np.sinc(0.5 * tau / (2 * np.pi)) ** 2  # sin^2(x)/x^2, x = delta tau/2
    ratio = np.abs(corr.values) / np.abs(corr.values[0])
    assert np.max(np.abs(ratio - envelope)) < 0.03


# ---------------------------------------------------------------------------
# rate constructions


def test_gamma_heuristic_zero_coupling():
    spec = BathSpec([EnergyWindow(0.0, 0.5, 3), EnergyWindow(1.0, 0.5, 4)])
    wins = build_spectrum(spec)
    real = sample_coupling(CouplingSpec(lam=1.0, block_mean=0.0, variance=0.0), wins)
    assert np.all(rate_table_heuristic(real).gamma == 0.0)


def test_gamma_heuristic_coarse_block_mean():
    b0 = 0.3 + 0.4j
    real = two_band_realization(v0=12, v1=20, a2=0.0, b=b0, seed=1)
    expect = 2 * np.pi * real.lam**2 / 0.5 * 12 * 20 * abs(b0) ** 2
    assert rate_table_heuristic(real).gamma[0, 1, 0, 0] == pytest.approx(expect, rel=1e-12)


def test_gamma_heuristic_single_realization_near_ensemble_value():
    real = two_band_realization(seed=5)
    g = rate_table_heuristic(real).gamma[0, 1, 0, 0].real
    assert abs(g - GAMMA_FIG2) / GAMMA_FIG2 < 0.05


def test_gamma_rmt_reference_value():
    spec, wins = _fig2_bath()
    g = rate_table_rmt(spec, wins).gamma[0, 1, 0, 0]
    assert g == pytest.approx(2 * np.pi * 4.32, rel=1e-12)
    assert g == pytest.approx(27.1434, abs=5e-5)


def _fig2_bath():
    bath = BathSpec([EnergyWindow(0.0, 0.5, 400), EnergyWindow(1.0, 0.5, 600)])
    wins = build_spectrum(bath)
    return CouplingSpec(lam=3e-3, block_mean=0.0, variance=1.0, seed=0), wins


def test_gamma_rmt_zero_coupling_strength():
    spec, wins = _fig2_bath()
    spec = CouplingSpec(lam=0.0, block_mean=0.0, variance=1.0, seed=0)
    assert np.all(rate_table_rmt(spec, wins).gamma == 0.0)


def test_gamma_rmt_symmetric_under_window_exchange():
    spec, wins = _fig2_bath()
    table = rate_table_rmt(spec, wins)
    assert table.gamma[0, 1, 0, 0] == table.gamma[1, 0, 0, 0]


# ---------------------------------------------------------------------------
# quadrature route


def test_gamma_quadrature_resonant_and_suppressed():
    real = two_band_realization(seed=17)
    corr = correlation_exact(real, (0, 1), default_tau_grid(0.5))
    g = 2 * gamma_quadrature(corr, omega=1.0).real  # omega = E' - E
    assert abs(g - GAMMA_FIG2) / GAMMA_FIG2 < 0.05
    for omega_off in (1.0 - 2 * 0.5, 1.0 + 2 * 0.5, -1.0):
        off = 2 * gamma_quadrature(corr, omega=omega_off).real
        assert abs(off) < 1e-3 * g


def test_gamma_quadrature_zero_correlation():
    spec = BathSpec([EnergyWindow(0.0, 0.5, 3), EnergyWindow(1.0, 0.5, 4)])
    wins = build_spectrum(spec)
    real = sample_coupling(CouplingSpec(lam=1.0, block_mean=0.0, variance=0.0), wins)
    corr = correlation_exact(real, (0, 1), default_tau_grid(0.5, 100))
    assert gamma_quadrature(corr, omega=1.0) == 0.0


def test_gamma_quadrature_refuses_pure_phase():
    spec = BathSpec([EnergyWindow(0.0, 0.5, 1), EnergyWindow(1.0, 0.5, 1)])
    wins = build_spectrum(spec)
    real = sample_coupling(CouplingSpec(lam=1.0, block_mean=1.0, variance=0.0), wins)
    corr = correlation_exact(real, (0, 1), np.linspace(0, 60, 500))
    with pytest.raises(NumericalFailure, match=r"window pair \(0, 1\), operator pair \(0, 0\)"):
        gamma_quadrature(corr, omega=1.0)


def test_rate_constructions_agree_across_seeds():
    spec, wins = _fig2_bath()
    g_rmt = rate_table_rmt(spec, wins).gamma[0, 1, 0, 0].real
    for seed in range(3):
        real = two_band_realization(seed=seed)
        g_heu = rate_table_heuristic(real).gamma[0, 1, 0, 0].real
        assert abs(g_heu - g_rmt) / g_rmt < 0.05
        corr = correlation_exact(real, (0, 1), default_tau_grid(0.5))
        g_quad = 2 * gamma_quadrature(corr, omega=1.0).real
        assert abs(g_quad - g_rmt) / g_rmt < 0.05
        assert abs(g_quad - g_heu) / g_heu < 0.05


# ---------------------------------------------------------------------------
# closed-form kernel


BREVE_POINTS = (0.0, 0.25, 0.5, 0.99, 1.5, 3.0)


def _breve_quadrature(xi, upper=1e4):
    # independent oracle: oscillatory quadrature of (1/pi) sin^2 x / x^2 e^{-2 i xi x}
    def f(x):
        return 1.0 / np.pi if x == 0.0 else np.sin(x) ** 2 / x**2 / np.pi

    with np.errstate(all="ignore"):
        re, _ = quad(f, 0, upper, weight="cos", wvar=2 * xi, limit=5000)
        im, _ = quad(f, 0, upper, weight="sin", wvar=2 * xi, limit=5000)
    return re - 1j * im


@pytest.mark.parametrize("xi", BREVE_POINTS)
def test_breve_h_matches_direct_quadrature(xi):
    assert abs(breve_h(xi) - _breve_quadrature(xi)) <= 1e-4


def test_breve_h_special_points():
    assert breve_h(0.0) == 0.5 + 0.0j
    val = breve_h(2.0)
    assert val.real == 0.0
    assert val.imag == pytest.approx((4 * np.log(2) - 3 * np.log(3)) / (2 * np.pi), rel=1e-12)
    assert val.imag == pytest.approx(-0.08327, abs=1e-5)  # quoted value is truncated
    assert breve_h(1.5).real == 0.0 and breve_h(3.0).real == 0.0


def test_breve_h_symmetry_and_decay():
    xs = np.array([0.1, 0.7, 1.3, 4.0])
    vals_p, vals_m = breve_h(xs), breve_h(-xs)
    assert np.allclose(vals_p.real, vals_m.real)
    assert np.allclose(vals_p.imag, -vals_m.imag)
    assert abs(breve_h(1e6)) < 1e-5


# ---------------------------------------------------------------------------
# envelope


def test_zeta_limits_and_monotonicity():
    delta = 0.5
    assert zeta(0.0, delta) == 0.0
    assert xi_integral(0.0, delta) == 0.0
    assert abs(zeta(1e4, delta) - 1.0) < 1e-3
    t = np.linspace(0.0, 200.0, 4000)
    z = zeta(t, delta)
    assert np.all(np.diff(z) >= -1e-12)
    assert np.max(z) <= 1.0 + 1e-9


def test_xi_integral_matches_quadrature_of_zeta():
    delta = 0.5
    t = np.linspace(0.0, 60.0, 60001)
    z = zeta(t, delta)
    xi_ref = cumulative_trapezoid(z, t, initial=0.0)
    xi = xi_integral(t, delta)
    assert np.max(np.abs(xi - xi_ref)) < 1e-6
    # convex: zeta nondecreasing means second differences of Xi are >= 0
    second = np.diff(xi_integral(np.linspace(0, 100, 1001), delta), 2)
    assert np.min(second) > -1e-10


def test_xi_integral_long_time_behavior():
    # Xi(t) - t grows only logarithmically: the closed form approaches
    # -(2/(pi delta)) (1 + euler_gamma + log(delta t))
    delta = 0.5
    for t in (1e3, 1e4):
        expect = -(2.0 / (np.pi * delta)) * (1.0 + np.euler_gamma + np.log(delta * t))
        assert xi_integral(t, delta) - t == pytest.approx(expect, abs=1e-5)


def test_rmt_table_from_spec_windows_matches_scalar_kernel():
    # the rmt route reads centers and volumes only: no microlevels are built
    windows = [EnergyWindow(float(c), 0.5, v) for c, v in enumerate([40, 90, 150, 260])]
    specs = [
        CouplingSpec(lam=3e-3, block_mean=0.4 + 0.2j, variance=1.0, seed=1),
        CouplingSpec(lam=3e-3, block_mean=-0.3, variance=0.5, seed=2),
    ]
    table = rate_table_rmt(specs, windows)
    assert table.volumes.dtype == np.float64
    assert np.array_equal(table.volumes, [40.0, 90.0, 150.0, 260.0])
    for omega in (-2.0, -1.0, 0.0, 1.0, 0.7):
        a = table.a_coeff(omega)
        for i in range(4):
            for j in range(4):
                xi = (table.centers[j] - table.centers[i] - omega) / table.delta
                assert np.array_equal(a[i, j], table.gamma[i, j] * breve_h(xi).imag)


def test_rmt_table_constant_block_mean_equals_the_same_value_per_pair():
    # a constant block mean fills the upper pairs as one array; the dict form
    # naming the same value for every pair is looked up pair by pair
    windows = [EnergyWindow(float(c), 0.5, v) for c, v in enumerate([40, 90, 150, 260, 7])]
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for b in (0.4 + 0.2j, -0.3, 0.0):
        const = [CouplingSpec(lam=3e-3, block_mean=b, variance=0.7, seed=1),
                 CouplingSpec(lam=3e-3, block_mean={(1, 3): 0.5j}, variance=0.5, seed=2)]
        per_pair = [CouplingSpec(lam=3e-3, block_mean={p: b for p in pairs}, variance=0.7, seed=1),
                    const[1]]
        assert np.array_equal(rate_table_rmt(const, windows).gamma,
                              rate_table_rmt(per_pair, windows).gamma)


@st.composite
def resonance_layouts(draw):
    """(centers, tol, j, omega): strictly increasing centers and a jump from window j.

    Half the draws space the windows exactly delta apart with omega on a
    multiple of delta/2 and tol = delta/2, so that x = E_j + omega falls on
    window centers and on the midpoints between them.
    """
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        delta = draw(st.sampled_from([0.1, 0.3, 0.5, 1.0, 0.7]))
        centers = draw(st.integers(-20, 20)) * delta + delta * np.arange(n)
        tol = delta / 2.0
        omega = draw(st.integers(-2 * n - 2, 2 * n + 2)) * delta / 2.0
    else:
        gaps = draw(st.lists(st.floats(1e-9, 3.0), min_size=n - 1, max_size=n - 1))
        centers = draw(st.floats(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
        tol = draw(st.floats(0.0, 4.0))
        omega = draw(st.floats(-30.0, 30.0))
    centers = np.unique(centers)  # cumulative sums can round onto one value
    j = draw(st.integers(0, centers.size - 1))
    return centers, tol, j, omega


@settings(max_examples=400, deadline=None)
@given(resonance_layouts())
@example((np.array([0.0, 1.0, 2.0]), 0.5, 0, 0.5))
@example((np.array([0.0, 1.0, 2.0]), 0.5, 2, -1.5))
def test_target_window_is_first_brute_force_hit(layout):
    centers, tol, j, omega = layout
    n = centers.size
    table = RateTable(centers, np.ones(n), 2.0 * tol, np.zeros((n, n, 1, 1), dtype=complex))
    assert table.resonance_tol == tol
    hits = [i for i in range(centers.size) if abs((centers[i] - centers[j]) - omega) < tol]
    target = table.target_window(j, omega)
    assert target == (hits[0] if hits else None)
    # windows at least delta apart: the jump and its reverse exist together
    if target is not None and np.all(np.diff(centers) >= 2.0 * tol):
        assert table.target_window(target, -omega) == j


# ---------------------------------------------------------------------------
# Lamb shift and transition rates


def test_lamb_shift_absent_dispersive_part_returns_bare_hamiltonian():
    real = two_band_realization(v0=30, v1=40, seed=6)
    table = rate_table_heuristic(real)  # no dispersive data
    levels = np.array([0.0, 1.0])
    s_om = {1.0: [np.array([[0, 1], [0, 0]], dtype=complex)],
            -1.0: [np.array([[0, 0], [1, 0]], dtype=complex)]}
    h_s = np.diag(levels).astype(complex)
    h_ls = lamb_shift(table, s_om)
    for h in h_ls:
        assert np.max(np.abs(h)) == 0
    for h in h_s + h_ls:
        assert np.array_equal(h, h_s)


def test_lamb_shift_rmt_is_diagonal_and_commutes():
    spec, wins = _fig2_bath()
    table = rate_table_rmt(spec, wins)
    levels = np.array([0.0, 1.0])
    s_om = {1.0: [np.array([[0, 1], [0, 0]], dtype=complex)],
            -1.0: [np.array([[0, 0], [1, 0]], dtype=complex)]}
    h_s = np.diag(levels).astype(complex)
    h_ls = lamb_shift(table, s_om)
    some_shift = False
    for h in h_s + h_ls:
        assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-15
        assert np.max(np.abs(h @ h_s - h_s @ h)) < 1e-12
    for h in h_ls:
        if np.max(np.abs(h)) > 0:
            some_shift = True
    assert some_shift  # off-resonant dispersive parts do not all vanish


def test_transition_rates_spin_reduce_to_gamma():
    spec, wins = _fig2_bath()
    table = rate_table_rmt(spec, wins)
    levels = np.array([0.0, 1.0])
    w = transition_rates(table, [SIGMA_X], levels)
    g = table.gamma[0, 1, 0, 0].real
    # decay (eps_1, E_1) is unreachable here; the one resolvable pair is
    # excitation (eps_0, E_1) -> (eps_1, E_0) and its mirror
    assert w[(1, 0, 0, 1)] == pytest.approx(g, rel=1e-14)
    assert w[(0, 1, 1, 0)] == w[(1, 0, 0, 1)]


def test_transition_rates_zero_matrix_element():
    spec, wins = _fig2_bath()
    table = rate_table_rmt(spec, wins)
    s_diag = np.diag([1.0, -1.0]).astype(complex)
    w = transition_rates(table, [s_diag], np.array([0.0, 1.0]))
    assert all(k == q for (k, q, _, _) in w)  # only dephasing-like entries


def test_transition_rates_refuse_negative_rates_beyond_table_roundoff():
    def table(gamma):
        g = np.zeros((3, 3, 1, 1), dtype=complex)
        for (i, j), val in gamma.items():
            g[i, j] = g[j, i] = val
        return RateTable(np.array([0.0, 1.0, 2.0]), np.ones(3), 0.5, g)

    # -1e-11 is roundoff next to a 100 entry elsewhere in the table: clipped to 0
    w = transition_rates(table({(0, 1): -1e-11, (0, 2): 100.0}), [SIGMA_X], np.array([0.0, 1.0]))
    assert w == {(0, 1, 1, 0): 0.0, (0, 1, 2, 1): 0.0, (1, 0, 0, 1): 0.0, (1, 0, 1, 2): 0.0}
    with pytest.raises(NumericalFailure, match=r"negative transition rate W\[\(0, 1, 1, 0\)\]"):
        transition_rates(table({(0, 1): -1e-11}), [SIGMA_X], np.array([0.0, 1.0]))


def test_transition_rates_exact_symmetry_all_entries():
    real = two_band_realization(v0=50, v1=80, seed=23)
    table = rate_table_heuristic(real)
    w = transition_rates(table, [SIGMA_X], np.array([0.0, 1.0]))
    for (k, q, i, j), val in w.items():
        assert w[(q, k, j, i)] == val  # identical floats


def test_gamma_matrix_positive_semidefinite_bochner():
    # two coupling operators: the operator-pair matrix must be PSD
    spec = BathSpec([EnergyWindow(0.0, 0.5, 60), EnergyWindow(1.0, 0.5, 90)])
    wins = build_spectrum(spec)
    coups = [
        CouplingSpec(lam=2e-3, block_mean=0.1, variance=1.0, seed=31),
        CouplingSpec(lam=2e-3, block_mean=0.2j, variance=1.0, seed=32),
    ]
    real = sample_coupling(coups, wins)
    rng = np.random.default_rng(0)
    for table in (rate_table_heuristic(real), rate_table_rmt(coups, wins)):
        for g in table.gamma.reshape(-1, 2, 2):
            norm = np.linalg.norm(g)
            for _ in range(100):
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                assert np.real(v.conj() @ g @ v) >= -1e-12 * norm


def test_rate_table_quadrature_full_pipeline():
    real = two_band_realization(v0=100, v1=150, seed=41)
    table = rate_table_quadrature(real)
    g_rmt = 2 * np.pi * real.lam**2 / 0.5 * 100 * 150
    assert table.gamma[0, 1, 0, 0].real == pytest.approx(g_rmt, rel=0.08)
    assert table.gamma[0, 1, 0, 0] == table.gamma[1, 0, 0, 0].conjugate()


# ---------------------------------------------------------------------------
# array tables: closed form, exact symmetries, and the per-window Lamb shift


def lamb_shift_loop(table, s_omega, d_s):
    """Reference H_LS per window: the loop over j' != j, omega, a and a'."""
    n_win, n_ops = len(table.centers), table.gamma.shape[-1]
    coeffs = {omega: table.a_coeff(-omega) for omega in s_omega}
    out = np.zeros((n_win, d_s, d_s), dtype=complex)
    for j in range(n_win):
        acc = np.zeros((d_s, d_s), dtype=complex)
        for jp in range(n_win):
            if jp == j:
                continue
            for omega, ops in s_omega.items():
                a_mat = coeffs[omega][jp, j]
                for a in range(n_ops):
                    for ap in range(n_ops):
                        if a_mat[a, ap] == 0.0:
                            continue
                        acc += a_mat[a, ap] * (ops[ap].conj().T @ ops[a])
        out[j] = -acc / table.volumes[j]
    return out


def jump_components(s_ops, levels):
    """Per-frequency lists of the operators' jump components, zero where absent."""
    d = len(levels)
    pieces = [s_omega_decomposition(s, levels) for s in s_ops]
    omegas = sorted({w for p in pieces for w in p})
    return {w: [p.get(w, np.zeros((d, d), dtype=complex)) for p in pieces] for w in omegas}


def assert_lamb_shift_matches_loop(table, s_ops, levels):
    d = len(levels)
    s_om = jump_components(s_ops, levels)
    h_ls = lamb_shift(table, s_om)
    ref = lamb_shift_loop(table, s_om, d)
    assert h_ls.shape == (len(table.centers), d, d)
    # a relative bound means nothing below the normal range
    scale = max(np.max(np.abs(ref)), np.finfo(float).tiny)
    assert np.max(np.abs(h_ls - ref)) <= 1e-13 * scale


@st.composite
def rmt_baths(draw):
    """Coupling specs, windows and a system for the rmt closed form.

    2-12 windows whose centers increase in steps of 1-3 widths, volumes from
    1 to 1e12, 1-2 operators with a shared lambda, and block means that are
    either one complex constant or a dict over some window pairs (given in
    either order).  The system has 2-3 levels on the window grid and random
    Hermitian coupling operators.
    """
    n = draw(st.integers(2, 12))
    delta = draw(st.sampled_from([0.25, 0.5, 1.0]))
    steps = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
    centers = delta * np.concatenate([[0], np.cumsum(steps)])
    volumes = draw(st.lists(st.floats(1.0, 1e12), min_size=n, max_size=n))
    windows = [EnergyWindow(float(c), delta, v) for c, v in zip(centers, volumes)]
    lam = draw(st.floats(1e-4, 1e-2))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    specs = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            mean = draw(COMPLEX)
        else:
            chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
            mean = {}
            for i, j in chosen:
                b = draw(COMPLEX)
                if draw(st.booleans()):
                    mean[(i, j)] = b
                else:
                    mean[(j, i)] = np.conj(b)
        specs.append(CouplingSpec(lam=lam, block_mean=mean, variance=draw(st.floats(0.0, 2.0))))
    d = draw(st.integers(2, 3))
    levels = delta * np.array(sorted(draw(st.lists(st.integers(0, 4), min_size=d, max_size=d,
                                                   unique=True))), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s_ops = []
    for _ in specs:
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        s_ops.append(raw + raw.conj().T)
    return specs, windows, levels, s_ops


def _subnormal_variance_bath():
    # every H_LS entry is subnormal: a relative bound without a floor would
    # demand bit equality between two summation orders
    windows = [EnergyWindow(c, 0.25, v)
               for c, v in zip((0.0, 0.25, 0.5, 0.75), (1, 1, 1630, 19883))]
    spec = CouplingSpec(lam=0.0078125, block_mean={}, variance=5e-324)
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return [spec], windows, np.array([0.0, 0.25]), [raw + raw.conj().T]


@settings(max_examples=150, deadline=None)
@given(rmt_baths())
@example(_subnormal_variance_bath())
def test_rmt_array_matches_closed_form_and_symmetries(bath):
    specs, windows, levels, s_ops = bath
    table = rate_table_rmt(specs, windows)
    g = table.gamma
    n, n_ops = len(windows), len(specs)
    assert g.shape == (n, n, n_ops, n_ops)
    for i in range(n):
        for j in range(n):
            for a in range(n_ops):
                for ap in range(n_ops):
                    if i == j:
                        expect = 0.0
                    else:
                        # the coupling's lower blocks are the conjugates of
                        # the upper ones, whatever block_mean says for (j, i)
                        lo, hi = min(i, j), max(i, j)
                        b = (np.conj(specs[ap].block_mean_value(lo, hi))
                             * specs[a].block_mean_value(lo, hi))
                        if a == ap:
                            b += specs[a].variance
                        expect = (2 * np.pi * specs[a].lam**2 / windows[i].width
                                  * windows[i].volume * windows[j].volume * b)
                        expect = expect if i < j else np.conj(expect)
                    assert abs(g[i, j, a, ap] - expect) <= 1e-14 * abs(expect)
    assert np.array_equal(g.transpose(1, 0, 2, 3), g.conj())
    assert np.array_equal(g, g.conj().swapaxes(-1, -2))
    assert not np.any(g[np.arange(n), np.arange(n)])
    assert_lamb_shift_matches_loop(table, s_ops, levels)
    w = transition_rates(table, s_ops, levels)
    for (k, q, i, j), val in w.items():
        assert w[(q, k, j, i)] == val  # identical floats


def test_quadrature_lamb_shift_matches_loop():
    real = _three_window_two_operator_bath((60, 80, 100))
    table = rate_table_quadrature(real, default_tau_grid(0.5, 400))
    assert not np.any(table.a_coeff(1.0)[np.arange(3), np.arange(3)])
    s_ops = [SIGMA_X, np.array([[0.5, 1.0], [1.0, -0.5]], dtype=complex)]
    assert_lamb_shift_matches_loop(table, s_ops, np.array([0.0, 1.0]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(1, 60), st.sampled_from([1999, 2000])), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_simpson_weights_match_scipy_simpson(n, uniform, seed):
    # scipy's rule on both parities, uniform and irregular grids; rounding
    # in either sum scales with the integral of |y|, which bounds the error
    rng = np.random.default_rng(seed)
    if uniform:
        x = np.linspace(-1.0, rng.uniform(0.0, 50.0), n)
    else:
        x = np.cumsum(np.exp(rng.uniform(-3.0, 3.0, n)))
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = _simpson_weights(x)
    got = w @ y
    want = simpson(y.real, x=x) + 1j * simpson(y.imag, x=x)
    assert abs(got - want) <= 1e-14 * (np.abs(w) @ np.abs(y))
    if n == 1:
        assert got == 0.0
    if n == 2:
        assert got == pytest.approx(0.5 * (x[1] - x[0]) * (y[0] + y[1]), rel=1e-15)
