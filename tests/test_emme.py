import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitebath.bath import BathSpec, CouplingSpec, EnergyWindow, build_spectrum
from finitebath.bms import BmsRates, evolve_bms
from finitebath.emme import (
    ConditionedState,
    EmmeGenerator,
    PopulationRateModel,
    ProtocolSegment,
    SystemSpec,
    analytic_spin_solution,
    evolve,
    reachable_keys,
    s_omega_decomposition,
    spin_oracle_trajectory,
    stationary_populations,
)
from finitebath.errors import ConfigurationError, NumericalFailure
from finitebath.exact import prepare_initial, run_exact
from finitebath.rates import (
    RateTable,
    lamb_shift,
    rate_table_rmt,
    transition_rates,
    xi_integral,
    zeta,
)

from conftest import SIGMA_X, scaled, two_band_realization, unshifted

DELTA = 0.5


def make_bath(volumes, centers=None):
    if centers is None:
        centers = list(range(len(volumes)))
    spec = BathSpec(
        [EnergyWindow(float(c), DELTA, v) for c, v in zip(centers, volumes)]
    )
    wins = build_spectrum(spec)
    coup = CouplingSpec(lam=3e-3, block_mean=0.0, variance=1.0, seed=0)
    return rate_table_rmt(coup, wins)


def spin(levels=(0.0, 1.0)):
    return SystemSpec(np.array(levels), [[SIGMA_X]])


def excited_block():
    b = np.zeros((2, 2), dtype=complex)
    b[1, 1] = 1.0
    return b


def state_keys(populated, system, tables, levels):
    omegas = [
        {w for s in ops for w in s_omega_decomposition(s, levels)} for ops in system.couplings
    ]
    return reachable_keys(set(populated), tables, omegas)


def generator_derivs(state, system, tables, t=None, levels=None):
    """d/dt of every reachable block: Markov generator, or the finite-time one at t."""
    lv = system.levels if levels is None else np.asarray(levels, dtype=float)
    keys = state_keys(state.blocks, system, tables, lv)
    gen = EmmeGenerator(lv, system.couplings, tables, keys)
    zero = np.zeros((system.dim, system.dim), dtype=complex)
    factors = None if t is None else [zeta(t, table.delta) for table in tables]
    derivs = gen.derivative_blocks([state.blocks.get(k, zero) for k in keys], factors)
    return dict(zip(keys, derivs))


def closed_form_rates(levels, couplings, tables, keys):
    """Per bath, the dense population rate matrix W/V on the joint index, from transition_rates.

    Column (q, key) loses and row (k, key') gains W_kq(E_i, E_j) / V_j for
    every jump of the bath's window from j to i that stays among the keys.
    """
    pos = {(k, key): n for n, (k, key) in enumerate(
        (k, key) for key in keys for k in range(len(levels)))}
    mats = []
    for nu, (table, s_ops) in enumerate(zip(tables, couplings)):
        mat = np.zeros((len(pos), len(pos)))
        for (k, q, i, j), w in transition_rates(table, s_ops, levels).items():
            for key in keys:
                row = pos.get((k, key[:nu] + (i,) + key[nu + 1 :]))
                if key[nu] == j and row is not None:
                    mat[row, pos[(q, key)]] += w / table.volumes[j]
                    mat[pos[(q, key)], pos[(q, key)]] -= w / table.volumes[j]
        mats.append(mat)
    return mats


def rate_equation(pops, system, tables):
    """dp/dt of the joint populations under the closed-form rate equation."""
    keys = state_keys({key for (_, key) in pops}, system, tables, system.levels)
    joint_index = [(k, key) for key in keys for k in range(system.dim)]
    p = np.array([pops.get(s, 0.0) for s in joint_index])
    rates = sum(closed_form_rates(system.levels, system.couplings, tables, keys))
    return dict(zip(joint_index, rates @ p))


# ---------------------------------------------------------------------------
# frequency decomposition


def test_s_omega_spin_pieces():
    pieces = s_omega_decomposition(SIGMA_X, np.array([0.0, 1.0]))
    # omega = eps_q - eps_k: the system hands +1 to the bath through |0><1|
    assert set(pieces) == {1.0, -1.0}
    assert np.array_equal(pieces[1.0], np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(pieces[-1.0], np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.array_equal(pieces[1.0], pieces[-1.0].conj().T)


def test_s_omega_diagonal_operator_single_zero_frequency():
    s = np.diag([1.0, -1.0]).astype(complex)
    pieces = s_omega_decomposition(s, np.array([0.0, 1.0]))
    assert set(pieces) == {0.0}
    assert np.array_equal(pieces[0.0], s)


def test_s_omega_reconstructs_operator():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    levels = np.array([0.0, 1.0, 3.0])
    pieces = s_omega_decomposition(s, levels)
    assert np.allclose(sum(pieces.values()), s)


# ---------------------------------------------------------------------------
# generator structure


def test_zero_rates_leave_populations_constant():
    table = make_bath([10, 20])
    zeroed = scaled(table, 0.0)
    state = ConditionedState({(0,): excited_block()})
    deriv = generator_derivs(state, spin(), [unshifted(zeroed)])
    for block in deriv.values():
        assert np.max(np.abs(np.diag(block))) == 0


def test_generator_matches_two_band_explicit_form():
    table = make_bath([400, 600])
    system = spin()
    rng = np.random.default_rng(5)
    blocks = {}
    for key in ((0,), (1,)):
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = raw @ raw.conj().T
        blocks[key] = rho / (2 * np.trace(rho).real)
    state = ConditionedState({k: v.copy() for k, v in blocks.items()})
    deriv = generator_derivs(state, system, [unshifted(table)])

    g = table.gamma[0, 1, 0, 0].real
    v0, v1 = 400, 600
    sp = np.array([[0, 0], [1, 0]], dtype=complex)  # sigma_+
    sm = sp.conj().T
    p1 = np.diag([0.0, 1.0]).astype(complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    h = np.diag([0.0, 1.0]).astype(complex)

    def expl(rho_e, rho_up, rho_dn, v_e, v_up, v_dn, g_up, g_dn):
        out = -1j * (h @ rho_e - rho_e @ h)
        if g_up:
            out += g_up * (sp @ rho_up @ sm / v_up - 0.5 * (rho_e @ p1 + p1 @ rho_e) / v_e)
        if g_dn:
            out += g_dn * (sm @ rho_dn @ sp / v_dn - 0.5 * (rho_e @ p0 + p0 @ rho_e) / v_e)
        return out

    want0 = expl(blocks[(0,)], blocks[(1,)], None, v0, v1, None, g, 0.0)
    want1 = expl(blocks[(1,)], None, blocks[(0,)], v1, None, v0, 0.0, g)
    assert np.max(np.abs(deriv[(0,)] - want0)) < 1e-14
    assert np.max(np.abs(deriv[(1,)] - want1)) < 1e-14


def test_generator_diagonal_equals_rate_equation():
    table = make_bath([100, 200, 400])
    system = spin()
    rng = np.random.default_rng(11)
    blocks = {}
    for j in range(3):
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = raw @ raw.conj().T
        blocks[(j,)] = rho / (3 * np.trace(rho).real)
    state = ConditionedState(blocks)
    deriv = generator_derivs(state, system, [table])
    pops = state.populations()
    dp = rate_equation(pops, system, [table])
    scale = max(abs(v) for v in dp.values())
    for (k, key), val in dp.items():
        assert abs(deriv[key][k, k].real - val) <= 1e-12 * max(scale, 1.0)


def test_rate_equation_trivial_for_single_level_and_window():
    spec = BathSpec([EnergyWindow(0.0, DELTA, 7)])
    wins = build_spectrum(spec)
    table = rate_table_rmt(CouplingSpec(lam=1e-2, block_mean=0.0, variance=1.0, seed=0), wins)
    system = SystemSpec(np.array([0.0]), [[np.array([[1.0]], dtype=complex)]])
    dp = rate_equation({(0, (0,)): 1.0}, system, [table])
    assert dp[(0, (0,))] == 0.0


def test_equilibrium_is_generator_fixed_point():
    table = make_bath([400, 600])
    system = spin()
    p_eq = stationary_populations({(1, (0,)): 1.0}, system, [table])
    blocks = {}
    for (k, key), p in p_eq.items():
        blocks.setdefault(key, np.zeros((2, 2), dtype=complex))[k, k] = p
    state = ConditionedState(blocks)
    deriv = generator_derivs(state, system, [unshifted(table)])
    g = table.gamma[0, 1, 0, 0].real
    for block in deriv.values():
        assert np.max(np.abs(np.diag(block))) <= 1e-12 * g


def test_gain_convention_conserves_shells():
    # each gain is fed by the block whose bath energy is lower by the emitted
    # quantum, so no probability leaks between total-energy shells
    table = make_bath([100, 200, 400])
    system = spin()
    state = ConditionedState({(1,): excited_block()})
    levels = system.levels
    deriv = generator_derivs(state, system, [unshifted(table)])
    dp = {(k, key): block[k, k].real for key, block in deriv.items() for k in range(2)}
    d_shell = {}
    for (k, key), v in dp.items():
        e_tot = round(levels[k] + table.centers[key[0]], 9)
        d_shell[e_tot] = d_shell.get(e_tot, 0.0) + v
    assert max(abs(v) for v in d_shell.values()) <= 1e-15


def test_redfield_generator_limits():
    table = make_bath([400, 600])
    system = spin()
    state = ConditionedState({(0,): excited_block()})
    at_zero = generator_derivs(state, system, [unshifted(table)], t=0.0)
    for block in at_zero.values():
        assert np.max(np.abs(np.diag(block))) == 0.0  # dissipator off at t = 0
    late = generator_derivs(state, system, [unshifted(table)], t=500.0)
    markov = generator_derivs(state, system, [unshifted(table)])
    z = zeta(500.0, DELTA)
    for key in markov:
        assert np.max(np.abs(late[key] - markov[key])) <= (1 - z) * np.max(
            np.abs(markov[key])
        ) + 1e-12


def test_redfield_generator_is_commutator_plus_scaled_dissipator():
    # the finite-time equation keeps the commutator untouched and multiplies
    # only the dissipation rates by the envelope
    table = make_bath([400, 600])
    system = spin()
    rng = np.random.default_rng(17)
    blocks = {}
    for key in ((0,), (1,)):
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = raw @ raw.conj().T
        blocks[key] = rho / (2 * np.trace(rho).real)
    state = ConditionedState(blocks)
    t_probe = 3.7
    z = zeta(t_probe, DELTA)
    rf = generator_derivs(state, system, [unshifted(table)], t=t_probe)
    mk = generator_derivs(state, system, [unshifted(table)])
    comm = generator_derivs(state, system, [unshifted(scaled(table, 0.0))])
    for key in mk:
        want = comm[key] + z * (mk[key] - comm[key])
        assert np.max(np.abs(rf[key] - want)) < 1e-13
    # the dispersive (level-shift) part is not a dissipation rate and is not
    # modulated by the envelope
    rf_s = generator_derivs(state, system, [table], t=t_probe)
    mk_s = generator_derivs(state, system, [table])
    for key in mk:
        assert np.max(np.abs((rf_s[key] - rf[key]) - (mk_s[key] - mk[key]))) < 1e-13


# ---------------------------------------------------------------------------
# evolution against the closed form


def test_evolution_matches_closed_form_both_variants():
    table = make_bath([400, 600])
    system = spin()
    state = ConditionedState({(0,): excited_block()})
    t = np.linspace(0.0, 100.0, 101)
    for variant in ("markov", "redfield"):
        traj = evolve(state, system, [table], t, variant=variant)
        oracle = spin_oracle_trajectory(state, system, table, t, variant=variant)
        pos = {s: n for n, s in enumerate(traj.joint_index)}
        err = max(
            np.max(np.abs(traj.populations[:, pos[s]] - oracle.populations[:, m]))
            for m, s in enumerate(oracle.joint_index)
        )
        assert err <= 1e-6
        drift = np.abs(traj.populations.sum(axis=1) - 1.0)
        assert np.max(drift) <= 1e-8


def test_analytic_solution_structure():
    g = 2 * np.pi * (3e-3) ** 2 / DELTA * 400 * 600
    p = analytic_spin_solution(400, 600, g, (1.0, 0.0), np.array([0.0]))
    assert np.allclose(p[0], [1.0, 0.0])
    p_inf = analytic_spin_solution(400, 600, g, (1.0, 0.0), np.array([1e4]))
    assert p_inf[0, 0] / p_inf[0, 1] == pytest.approx(400 / 600, rel=1e-9)
    # relaxation exponent of the two-band scenario
    assert g * (1 / 400 + 1 / 600) == pytest.approx(0.1131, abs=5e-5)


def test_analytic_solution_with_envelope_integral():
    g = 2 * np.pi * (3e-3) ** 2 / DELTA * 400 * 600
    t = np.array([0.0, 5.0, 20.0])
    xi = xi_integral(t, DELTA)
    p = analytic_spin_solution(400, 600, g, (1.0, 0.0), t, xi)
    expect = 0.4 + 0.6 * np.exp(-g * (1 / 400 + 1 / 600) * xi)
    assert np.allclose(p[:, 0], expect, atol=1e-14)


def test_constant_trajectory_for_zero_generator():
    table = scaled(make_bath([50, 80]), 0.0)
    system = spin()
    state = ConditionedState({(0,): excited_block()})
    t = np.linspace(0.0, 10.0, 11)
    traj = evolve(state, system, [unshifted(table)], t)
    assert np.allclose(traj.populations, traj.populations[0], atol=1e-12)


# ---------------------------------------------------------------------------
# stationary states, detailed balance


def test_stationary_populations_volume_ratios():
    system = spin()
    p0 = {(1, (0,)): 1.0}
    p = stationary_populations(p0, system, [make_bath([400, 600])])
    assert p[(1, (0,))] == pytest.approx(0.4)
    assert p[(0, (1,))] == pytest.approx(0.6)
    p_inv = stationary_populations(p0, system, [make_bath([600, 400])])
    assert p_inv[(1, (0,))] == pytest.approx(0.6)  # population inversion
    p_eq = stationary_populations(p0, system, [make_bath([300, 300])])
    assert p_eq[(1, (0,))] == pytest.approx(0.5)


def test_local_detailed_balance_exact_ratio():
    table = make_bath([100, 200, 400])
    w = transition_rates(table, [SIGMA_X], np.array([0.0, 1.0]))
    for (k, q, i, j), val in w.items():
        if val == 0.0 or k == q:
            continue
        fwd = val / table.volumes[j]
        bwd = w[(q, k, j, i)] / table.volumes[i]
        assert fwd / bwd == table.volumes[i] / table.volumes[j]


# ---------------------------------------------------------------------------
# protocols and multiple baths


def test_quench_must_align_with_grid():
    table = make_bath([100, 200, 400])
    system = SystemSpec(
        np.array([0.0, 1.0]),
        [[SIGMA_X]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(3.3, [0.0, 2.0])],
    )
    state = ConditionedState({(0,): excited_block()})
    t = np.linspace(0.0, 10.0, 11)
    with pytest.raises(ConfigurationError, match="align"):
        evolve(state, system, [table], t)
    with pytest.raises(ConfigurationError, match="align"):
        evolve_bms(excited_block(), system, BmsRates(1.0, {1.0: 0.1}), t)
    # the exact solver walks the same segments, so its quenches sit on the grid too
    real = two_band_realization(v0=3, v1=4, seed=2)
    ens = prepare_initial("basis-ensemble", real.windows, 0, 1, 2)
    with pytest.raises(ConfigurationError, match="align"):
        run_exact(system, real, ens, t)


def test_quench_carries_state_continuously():
    table = make_bath([100, 200, 400])
    system = SystemSpec(
        np.array([0.0, 1.0]),
        [[SIGMA_X]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(5.0, [0.0, 2.0])],
    )
    state = ConditionedState({(0,): excited_block()})
    t = np.linspace(0.0, 10.0, 21)
    traj = evolve(state, system, [table], t)
    drift = np.abs(traj.populations.sum(axis=1) - 1.0)
    assert np.max(drift) <= 1e-8
    n_q = int(np.argmin(np.abs(t - 5.0)))
    assert np.allclose(traj.level_energies[n_q], [0.0, 2.0])
    jump = np.abs(traj.populations[n_q] - traj.populations[n_q - 1])
    assert np.max(jump) < 0.05  # populations are continuous across the quench


def test_two_bath_generator_is_additive():
    t1 = make_bath([40, 60], centers=[0.0, 1.0])
    t2 = make_bath([30, 50], centers=[0.0, 1.0])
    system_two = SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X], [SIGMA_X]])
    system_one = SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X]])
    blocks2 = {(0, 0): excited_block()}
    state2 = ConditionedState(blocks2)
    deriv2 = generator_derivs(state2, system_two, [unshifted(t1), unshifted(scaled(t2, 0.0))])
    state1 = ConditionedState({(0,): excited_block()})
    deriv1 = generator_derivs(state1, system_one, [unshifted(t1)])
    for key1, block in deriv1.items():
        assert np.max(np.abs(deriv2[(key1[0], 0)] - block)) == 0.0


def test_two_bath_unequal_widths_pop_rate_matches_generator_diagonal():
    # window widths 0.5 and 0.8 give the two baths different envelopes
    # zeta_nu(t); the rate equation must scale each bath by its own
    t1 = make_bath([40, 60, 90])
    wins2 = build_spectrum(
        BathSpec([EnergyWindow(float(c), 0.8, v) for c, v in enumerate([30, 50, 70])])
    )
    t2 = rate_table_rmt(CouplingSpec(lam=3e-3, block_mean=0.0, variance=1.0, seed=1), wins2)
    system = SystemSpec(
        np.array([0.0, 1.0]),
        [[SIGMA_X], [SIGMA_X]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(5.0, [0.0, 2.0])],
    )
    state = ConditionedState({(0, 0): excited_block()})
    t = np.linspace(0.0, 10.0, 21)
    traj = evolve(state, system, [t1, t2], t, variant="redfield")
    pos = {s: n for n, s in enumerate(traj.joint_index)}
    for m in (3, 9, 10, 16, 20):  # both segments, the quench point included
        blocks = ConditionedState({key: series[m] for key, series in traj.blocks.items()})
        deriv = generator_derivs(blocks, system, [t1, t2], t=t[m], levels=traj.level_energies[m])
        dp = traj.pop_rate(t[m], traj.populations[m])
        for key, block in deriv.items():
            for k in range(2):
                assert abs(block[k, k].real - dp[pos[(k, key)]]) <= 1e-12


def test_pop_rate_follows_a_segment_that_starts_on_the_last_point():
    table = make_bath([40, 60, 90])
    system = SystemSpec(
        np.array([0.0, 1.0]),
        [[SIGMA_X]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(10.0, [0.0, 2.0])],
    )
    t = np.linspace(0.0, 10.0, 11)
    traj = evolve(ConditionedState({(0,): excited_block()}), system, [table], t)
    assert np.array_equal(traj.level_energies[-1], [0.0, 2.0])
    blocks = ConditionedState({key: series[-1] for key, series in traj.blocks.items()})
    deriv = generator_derivs(blocks, system, [table], levels=[0.0, 2.0])
    dp = traj.pop_rate(t[-1], traj.populations[-1])
    pos = {s: n for n, s in enumerate(traj.joint_index)}
    for key, block in deriv.items():
        for k in range(2):
            assert abs(block[k, k].real - dp[pos[(k, key)]]) <= 1e-12


def test_two_bath_stationary_matches_volume_products():
    t1 = make_bath([40, 60], centers=[0.0, 1.0])
    t2 = make_bath([30, 50], centers=[0.0, 1.0])
    system = SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X], [SIGMA_X]])
    p0 = {(1, (0, 0)): 1.0}
    p_eq = stationary_populations(p0, system, [t1, t2])
    v = {(1, (0, 0)): 40 * 30, (0, (1, 0)): 60 * 30, (0, (0, 1)): 40 * 50}
    total = sum(v.values())
    for s, vol in v.items():
        assert p_eq[s] == pytest.approx(vol / total, rel=1e-12)
    # per-bath detailed-balance ratios
    assert p_eq[(1, (0, 0))] / p_eq[(0, (1, 0))] == pytest.approx(40 / 60)
    assert p_eq[(1, (0, 0))] / p_eq[(0, (0, 1))] == pytest.approx(30 / 50)


def test_three_bath_stationary_volume_products_do_not_overflow():
    # V^3 = 1e21 > 2**63: integer volume products would wrap around
    tables = [
        rate_table_rmt(
            CouplingSpec(lam=1e-9, variance=1.0, seed=nu),
            [EnergyWindow(0.0, DELTA, 10**7), EnergyWindow(1.0, DELTA, 3 * 10**7)],
        )
        for nu in range(3)
    ]
    system = SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X]] * 3)
    p_eq = stationary_populations({(1, (0, 0, 0)): 1.0}, system, tables)
    # weights 1e21 for the excited state and 3e21 for each de-excited one
    assert p_eq[(1, (0, 0, 0))] == pytest.approx(0.1, rel=1e-12)
    for key in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert p_eq[(0, key)] == pytest.approx(0.3, rel=1e-12)


def dense_generator(levels, couplings, tables, keys):
    """Coherent part and per-bath dissipators as dense matrices, built with np.kron.

    Block n of the packed vector is the row-major ravel of rho_n; gains are
    accumulated per (block, source) in frequency order, then the loss
    anticommutator is subtracted from the diagonal block.
    """
    d = len(levels)
    d2, eye = d * d, np.eye(d)
    index = {k: n for n, k in enumerate(keys)}

    def block(mat, n, m):
        return mat[n * d2 : (n + 1) * d2, m * d2 : (m + 1) * d2]

    h = [np.diag(levels).astype(complex) for _ in keys]
    dissipators = []
    for nu, (table, s_ops) in enumerate(zip(tables, couplings)):
        pieces = [s_omega_decomposition(s, levels) for s in s_ops]
        s_omega = {
            w: [p.get(w, np.zeros((d, d), dtype=complex)) for p in pieces]
            for w in sorted({w for p in pieces for w in p})
        }
        h_ls = lamb_shift(table, s_omega, np.zeros((d, d)))[0]
        mat = np.zeros((len(keys) * d2,) * 2, dtype=complex)
        for n, key in enumerate(keys):
            j = key[nu]
            h[n] += h_ls[j]
            loss = np.zeros((d, d), dtype=complex)
            for omega, ops in s_omega.items():
                j_up = table.target_window(j, omega)
                if j_up is not None:
                    g = table.gamma[j_up, j] / table.volumes[j]
                    for a, ap in zip(*np.nonzero(g)):
                        loss += g[a, ap] * (ops[ap].conj().T @ ops[a])
                j_dn = table.target_window(j, -omega)
                src = None if j_dn is None else index.get(key[:nu] + (j_dn,) + key[nu + 1 :])
                if src is not None:
                    g = table.gamma[j, j_dn] / table.volumes[j_dn]
                    for a, ap in zip(*np.nonzero(g)):
                        block(mat, n, src)[...] += g[a, ap] * np.kron(ops[a], ops[ap].conj())
            block(mat, n, n)[...] = block(mat, n, n) - 0.5 * (
                np.kron(loss, eye) + np.kron(eye, loss.T)
            )
        dissipators.append(mat)
    coherent = np.zeros((len(keys) * d2,) * 2, dtype=complex)
    for n, hn in enumerate(h):
        block(coherent, n, n)[...] = -1j * (np.kron(hn, eye) - np.kron(eye, hn.T))
    return coherent, dissipators


def test_generator_equals_dense_kron_reference():
    # 3 levels, 2 operators, 2 baths; the diagonal of s2 and the 0.2 gap
    # resolve to the window itself, and the gaps 1.0 and 1.2 to the same one
    levels = np.array([0.0, 1.0, 1.2])
    s1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    s2 = np.array([[0.5, 0, 1j], [0, -0.5, 0.3], [-1j, 0.3, 0]], dtype=complex)
    tables = [
        rate_table_rmt(
            [CouplingSpec(lam=3e-3, block_mean=b, variance=1.0, seed=0),
             CouplingSpec(lam=3e-3, block_mean=0.2j, variance=0.5, seed=1, operator_label=1)],
            [EnergyWindow(float(c), DELTA, v) for c, v in enumerate(volumes)],
        )
        for b, volumes in ((0.4, [30, 50, 80, 120]), (-0.1 + 0.3j, [20, 45, 70]))
    ]
    couplings = [[s1, s2], [s2, s1]]
    keys = state_keys({(0, 0)}, SystemSpec(levels, couplings), tables, levels)
    gen = EmmeGenerator(levels, couplings, tables, keys)
    coherent, dissipators = dense_generator(levels, couplings, tables, keys)
    assert len(keys) == 12
    assert np.array_equal(gen.coherent.toarray(), coherent)
    for op, ref in zip(gen.dissipators, dissipators):
        assert np.array_equal(op.toarray(), ref)


def test_evolve_refuses_a_block_that_is_not_positive():
    table = make_bath([10, 20])
    state = ConditionedState({(0,): np.diag([1.2, -0.2]).astype(complex)})
    with pytest.raises(NumericalFailure, match=r"block \(0,\) lost positivity at t=0 "):
        evolve(state, spin(), [table], np.linspace(0.0, 1.0, 3))


def test_reachable_keys_closure():
    table = make_bath([100, 200, 400])
    keys = reachable_keys({(0,)}, [table], [{1.0, -1.0}])
    assert keys == [(0,), (1,), (2,)]
    # a gap that resolves nowhere keeps the initial key only
    keys = reachable_keys({(0,)}, [table], [{7.7}])
    assert keys == [(0,)]


def test_protocol_starting_after_the_grid_is_a_configuration_error():
    # no levels are defined before the first segment, so every solver must refuse
    system = SystemSpec(
        np.array([0.0, 1.0]), [[SIGMA_X]], [ProtocolSegment(5.0, [0.0, 1.0])]
    )
    t = np.linspace(0.0, 10.0, 11)
    block = np.zeros((2, 2), dtype=complex)
    block[1, 1] = 1.0
    with pytest.raises(ConfigurationError, match="protocol starts"):
        evolve(ConditionedState({(0,): block}), system, [make_bath([40, 60])], t)
    with pytest.raises(ConfigurationError, match="protocol starts"):
        evolve_bms(block, system, BmsRates(1.0, {1.0: 0.1}), t)
    real = two_band_realization(v0=3, v1=4, seed=2)
    ens = prepare_initial("basis-ensemble", real.windows, 0, 1, 2)
    with pytest.raises(ConfigurationError, match="protocol starts"):
        run_exact(system, real, ens, t)


@pytest.mark.parametrize("t_grid", [[0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 2.0]])
def test_time_grid_that_is_not_strictly_increasing_is_refused(t_grid):
    # every solver splits its grid with the same segment walker, which refuses it
    t = np.array(t_grid)
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        evolve_bms(excited_block(), spin(), BmsRates(1.0, {1.0: 0.1}), t)
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        evolve(ConditionedState({(0,): excited_block()}), spin(), [make_bath([40, 60])], t)
    real = two_band_realization(v0=3, v1=4, seed=2)
    ens = prepare_initial("basis-ensemble", real.windows, 0, 1, 2)
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        run_exact(spin(), real, ens, t)


def test_population_rates_refuse_negative_rates_beyond_table_roundoff():
    def generator(gamma):
        g = np.zeros((3, 3, 1, 1), dtype=complex)
        for (i, j), val in gamma.items():
            g[i, j] = g[j, i] = val
        table = RateTable(np.array([0.0, 1.0, 2.0]), np.array([2.0, 3.0, 4.0]), 0.5, g)
        return EmmeGenerator(np.array([0.0, 1.0]), [[SIGMA_X]], [table], [(0,), (1,), (2,)])

    # -1e-11 is roundoff next to a 100 entry elsewhere in the table
    generator({(0, 1): -1e-11, (0, 2): 100.0})
    with pytest.raises(NumericalFailure, match=r"negative transition rate W = -1e-11 in bath 0"):
        generator({(0, 1): -1e-11})


@st.composite
def rate_scenarios(draw):
    """Small scenarios for the population block of the generator.

    2-3 integer levels (repeats allowed), 1-2 baths of 2-5 windows of width
    0.5 at integer centers 1-2 apart with volumes 1..1e6, 1-2 random
    Hermitian operators per bath, ensemble-closed-form rates with complex
    block means and a^2 >= 0.1 (so W is never a near-cancellation of its
    terms), an initial key, a variant and a time.
    """
    d = draw(st.integers(2, 3))
    levels = np.array(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    couplings, tables, initial = [], [], []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(2, 5))
        steps = draw(st.lists(st.integers(1, 2), min_size=n - 1, max_size=n - 1))
        volumes = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
        windows = [EnergyWindow(float(c), DELTA, v)
                   for c, v in zip(np.concatenate([[0], np.cumsum(steps)]), volumes)]
        n_ops = draw(st.integers(1, 2))
        specs = [
            CouplingSpec(lam=1e-3, block_mean=complex(*rng.uniform(-1.0, 1.0, 2)),
                         variance=float(rng.uniform(0.1, 2.0)), operator_label=a)
            for a in range(n_ops)
        ]
        tables.append(rate_table_rmt(specs, windows))
        raw = rng.standard_normal((n_ops, d, d)) + 1j * rng.standard_normal((n_ops, d, d))
        couplings.append(list(raw + raw.conj().swapaxes(-1, -2)))
        initial.append(draw(st.integers(0, n - 1)))
    variant = draw(st.sampled_from(["markov", "redfield"]))
    return levels, couplings, tables, tuple(initial), variant, draw(st.floats(0.0, 50.0))


@settings(max_examples=100, deadline=None)
@given(rate_scenarios())
def test_population_block_equals_closed_form_rates(scenario):
    levels, couplings, tables, initial, variant, t = scenario
    system = SystemSpec(levels, couplings)
    keys = state_keys({initial}, system, tables, levels)
    gen = EmmeGenerator(levels, couplings, tables, keys)
    model = PopulationRateModel([(0.0, gen)], tables, variant=variant)
    assert model.joint_index == [(k, key) for key in keys for k in range(len(levels))]
    factors = [1.0 if variant == "markov" else zeta(t, tb.delta) for tb in tables]
    want = sum(f * m for f, m in zip(factors, closed_form_rates(levels, couplings, tables, keys)))
    got = model.matrix(t).toarray()
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    p = np.random.default_rng(0).uniform(size=len(model.joint_index))
    # products below the smallest normal double (zeta at t ~ 1e-300) keep no relative precision
    tol = 1e-12 * np.abs(got) @ p + np.finfo(float).tiny
    assert np.all(np.abs(model.dpdt(t, p) - got @ p) <= tol)

    # the volume-product state is the fixed point of the Markov rates
    p0 = {(k, initial): 1.0 / len(levels) for k in range(len(levels))}
    p_eq = stationary_populations(p0, system, tables)
    v = np.array([p_eq[s] for s in model.joint_index])
    markov = sum(gen.population_rates).toarray()
    assert np.all(np.abs(markov @ v) <= 1e-12 * (np.abs(markov) @ v))
