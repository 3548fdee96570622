import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitebath.bath import BathSpec, CouplingSpec, EnergyWindow, build_spectrum
from finitebath.bms import BmsRates, evolve_bms
from finitebath.cli import ScenarioRun, build_scenario
from finitebath.emme import (
    ATOL,
    RTOL,
    ConditionedState,
    EmmeGenerator,
    PopulationRateModel,
    ProtocolSegment,
    SystemSpec,
    analytic_spin_solution,
    check_time_grid,
    connected_components,
    dissipator_envelope,
    evolve,
    population_rates,
    reachable_keys,
    s_omega_decomposition,
    spin_oracle_trajectory,
    stationary_populations,
    _walk_segments,
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
from finitebath.thermo import P_FLOOR, build_ledger

from conftest import SIGMA_X, load_perfbench, scaled, two_band_realization, unshifted

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
        # both are closed forms of one shell, so they agree to round-off
        assert traj.meta["route"] == "populations"
        assert err <= 1e-12
        # one occupied shell of two states, relaxing at 2 gammabar = gamma (1/V_0 + 1/V_1)
        assert (traj.meta["eigh_calls"], traj.meta["largest_component"]) == (1, 2)
        two_gbar = table.gamma[0, 1, 0, 0].real * (1 / 400 + 1 / 600)
        assert traj.meta["relaxation_rates"] == [[pytest.approx(two_gbar, rel=1e-12)]]
        drift = np.abs(traj.populations.sum(axis=1) - 1.0)
        assert np.max(drift) <= 1e-12


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
    p = analytic_spin_solution(400, 600, g, (1.0, 0.0), xi)
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
    ens = prepare_initial(real.windows, 0, 1, 2)
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


def test_pop_rate_of_a_time_array_equals_its_calls_point_by_point():
    # two baths of unequal width in the finite-time form, across a quench
    t1 = make_bath([40, 60, 90])
    t2 = rate_table_rmt(CouplingSpec(lam=3e-3, block_mean=0.0, variance=1.0, seed=1),
                        [EnergyWindow(float(c), 0.8, v) for c, v in enumerate([30, 50, 70])])
    system = SystemSpec(
        np.array([0.0, 1.0]),
        [[SIGMA_X], [SIGMA_X]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(5.0, [0.0, 2.0])],
    )
    t = np.linspace(0.0, 10.0, 21)
    for variant in ("markov", "redfield"):
        traj = evolve(ConditionedState({(0, 0): excited_block()}), system, [t1, t2], t, variant)
        each = np.stack([traj.pop_rate(tm, p) for tm, p in zip(t, traj.populations)])
        assert np.array_equal(traj.pop_rate(t, traj.populations), each)


def test_degenerate_levels_leave_the_entropy_production_to_finite_differences():
    # the two upper levels share every frequency, so coherences feed the
    # populations and the rate equation's W p is not dp/dt
    system = SystemSpec(np.array([0.0, 1.0, 1.0]), [[three_level_coupling()]])
    tables = [make_bath([40, 60, 90, 130])]
    t = np.linspace(0.0, 200.0, 401)
    traj = evolve(ConditionedState({(0,): np.diag([0.0, 0.0, 1.0]).astype(complex)}),
                  system, tables, t)
    assert traj.meta["route"] == "integrator" and traj.pop_rate is None
    keys = list(traj.blocks)
    gen = EmmeGenerator(system.levels, system.couplings, tables, keys)
    y = np.stack([traj.blocks[key] for key in keys], axis=1).reshape(t.size, -1)
    d = system.dim
    dp_dt = np.diagonal((gen.markov @ y.T).T.reshape(t.size, len(keys), d, d),
                        axis1=2, axis2=3).real.reshape(t.size, -1)
    log_v = np.log([tables[0].volumes[key[0]] for _, key in traj.joint_index])
    sigma = np.sum(dp_dt * (log_v - np.log(np.maximum(traj.populations, P_FLOOR))), axis=1)
    ledger = build_ledger(traj).entropy_production_rate
    assert np.all(np.abs(ledger - sigma)[1:-1] <= 1e-4 * np.abs(sigma[1:-1]))


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
        h_ls = lamb_shift(table, s_omega)
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
             CouplingSpec(lam=3e-3, block_mean=0.2j, variance=0.5, seed=1)],
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
    # a population is checked as it is; tolerances play no part on that route
    with pytest.raises(NumericalFailure,
                       match=r"block \(0,\) lost positivity at t=0 \(population -2\.000e-01\)$"):
        evolve(state, spin(), [table], np.linspace(0.0, 1.0, 3))
    state = ConditionedState({(0,): np.array([[0.5, 0.8], [0.8, 0.5]], dtype=complex)})
    with pytest.raises(NumericalFailure, match=r"block \(0,\) lost positivity at t=0 "
                       r"\(min eigenvalue -3\.000e-01\)$"):
        evolve(state, spin(), [table], np.linspace(0.0, 1.0, 3))


def test_reachable_keys_closure():
    table = make_bath([100, 200, 400])
    keys = reachable_keys({(0,)}, [table], [{1.0, -1.0}])
    assert keys == [(0,), (1,), (2,)]
    # a gap that resolves nowhere keeps the initial key only
    keys = reachable_keys({(0,)}, [table], [{7.7}])
    assert keys == [(0,)]


def per_key_closure(initial, tables, omega_sets):
    """The closure resolving every move afresh from each key it reaches (the oracle)."""
    seen = set(initial)
    frontier = list(initial)
    while frontier:
        key = frontier.pop()
        for nu, table in enumerate(tables):
            for omega in omega_sets[nu]:
                for sign in (+1.0, -1.0):
                    j = table.target_window(key[nu], sign * omega)
                    if j is None:
                        continue
                    nxt = key[:nu] + (j,) + key[nu + 1 :]
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
    return sorted(seen)


def test_reachable_keys_on_emme_grid_resolves_each_window_shift_once(monkeypatch):
    run = ScenarioRun(build_scenario(load_perfbench("workloads").emme_grid(1), "emme-grid"))
    system, tables = run.scenario.system, run.tables
    omegas = [{w for s in ops for w in s_omega_decomposition(s, system.levels)}
              for ops in system.couplings]
    initial = set(run.initial_state().blocks)
    want = per_key_closure(initial, tables, omegas)
    assert len(want) == 64

    calls = []
    target_window = RateTable.target_window
    monkeypatch.setattr(RateTable, "target_window",
                        lambda self, j, omega: calls.append(j) or target_window(self, j, omega))
    assert reachable_keys(initial, tables, omegas) == want
    # 2 baths x 8 windows x the shifts +-1
    assert len(calls) == 32


@st.composite
def window_layouts(draw):
    """1-2 baths of 1-6 windows at increasing centers, frequencies and initial keys."""
    tables, omega_sets = [], []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 6))
        steps = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=n - 1,
                              max_size=n - 1))
        centers = np.concatenate([[0.0], np.cumsum(steps)])
        tables.append(make_bath([1] * n, centers))
        omega_sets.append(set(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, -1.0, 1.5, 2.0, 0.7]),
                                            max_size=3))))
    keys = st.tuples(*[st.integers(0, tb.centers.size - 1) for tb in tables])
    initial = draw(st.sets(keys, min_size=1, max_size=3))
    return initial, tables, omega_sets


@settings(max_examples=200, deadline=None)
@given(window_layouts())
def test_reachable_keys_equals_the_per_key_walk(layout):
    initial, tables, omega_sets = layout
    assert reachable_keys(initial, tables, omega_sets) == per_key_closure(initial, tables,
                                                                         omega_sets)


def test_system_spec_refuses_levels_the_protocol_contradicts():
    # the first segment decides the levels; a stored copy may not disagree
    with pytest.raises(ConfigurationError, match="differ from the first protocol segment"):
        SystemSpec(np.array([0.0, 1.4]), [[SIGMA_X]], [ProtocolSegment(0.0, [0.0, 1.0])])
    with pytest.raises(ConfigurationError, match="has 3 levels, the system 2"):
        SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X]],
                   [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(5.0, [0.0, 1.0, 2.0])])


def test_an_empty_protocol_is_a_static_system():
    system = SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X]], [])
    assert [seg.t_start for seg in system.protocol] == [-np.inf]


def test_segment_index_puts_a_quench_point_in_the_segment_that_starts_there():
    system = SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X]],
                        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(5.0, [0.0, 2.0])])
    t = [-1.0, 0.0, 5.0 - 1e-9, 5.0 - 1e-13, 5.0, 9.0]
    assert [system.segment_index(x) for x in t] == [0, 0, 0, 1, 1, 1]
    assert system.segment_index(np.array(t)).tolist() == [0, 0, 0, 1, 1, 1]  # one call per grid
    assert spin().segment_index(-1e300) == 0  # a static system holds one segment from -inf
    pieces = system.grid_segments(np.linspace(0.0, 10.0, 11))
    assert [(n, t0, t1, grid.tolist()) for n, _, t0, t1, grid in pieces] == [
        (0, 0.0, 5.0, [0.0, 1.0, 2.0, 3.0, 4.0]), (1, 5.0, 10.0, [5.0, 6.0, 7.0, 8.0, 9.0, 10.0])]


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
    ens = prepare_initial(real.windows, 0, 1, 2)
    with pytest.raises(ConfigurationError, match="protocol starts"):
        run_exact(system, real, ens, t)


@pytest.mark.parametrize("t_grid", [[0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 2.0],
                                    [0.0, np.nan, 2.0], [], [[0.0, 1.0]]])
def test_time_grid_that_is_not_strictly_increasing_is_refused(t_grid):
    # every solver refuses it by the one rule the CLI checks too
    t = np.array(t_grid)
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        check_time_grid(t)
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        evolve_bms(excited_block(), spin(), BmsRates(1.0, {1.0: 0.1}), t)
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        evolve(ConditionedState({(0,): excited_block()}), spin(), [make_bath([40, 60])], t)
    real = two_band_realization(v0=3, v1=4, seed=2)
    ens = prepare_initial(real.windows, 0, 1, 2)
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        run_exact(spin(), real, ens, t)


def test_population_rates_refuse_negative_rates_beyond_table_roundoff():
    def rates(gamma):
        g = np.zeros((3, 3, 1, 1), dtype=complex)
        for (i, j), val in gamma.items():
            g[i, j] = g[j, i] = val
        table = RateTable(np.array([0.0, 1.0, 2.0]), np.array([2.0, 3.0, 4.0]), 0.5, g)
        return population_rates(np.array([0.0, 1.0]), [[SIGMA_X]], [table], [(0,), (1,), (2,)])

    # -1e-11 is roundoff next to a 100 entry elsewhere in the table: it is clipped to no jump
    assert rates({(0, 1): -1e-11, (0, 2): 100.0})[3].size == 0
    with pytest.raises(NumericalFailure,
                       match=r"negative transition rate W\[\(0, 1, 1, 0\)\] = -1e-11$"):
        rates({(0, 1): -1e-11})


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
                         variance=float(rng.uniform(0.1, 2.0)))
            for _ in range(n_ops)
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
    d, n = len(levels), len(keys) * len(levels)
    model = PopulationRateModel(system, tables, keys, dissipator_envelope(tables, variant))
    bath, rows, cols, w = model.rates[0]
    rates = np.zeros((len(tables), n, n))
    np.add.at(rates, (bath, rows, cols), w)
    # the population-to-population block of each bath's dense np.kron dissipator
    pops = (np.arange(len(keys))[:, None] * d * d + np.arange(d) * (d + 1)).ravel()
    blocks = [m[np.ix_(pops, pops)].real for m in dense_generator(levels, couplings, tables, keys)[1]]
    factors = [1.0 if variant == "markov" else zeta(t, tb.delta) for tb in tables]
    want = sum(f * m for f, m in zip(factors, blocks))
    got = sum(f * m for f, m in zip(factors, rates))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    joint_index = [(k, key) for key in keys for k in range(len(levels))]
    p = np.random.default_rng(0).uniform(size=len(joint_index))
    # products below the smallest normal double (zeta at t ~ 1e-300) keep no relative precision
    tol = 1e-12 * np.abs(got) @ p + np.finfo(float).tiny
    assert np.all(np.abs(model.dpdt(t, p) - got @ p) <= tol)

    # the volume-product state is the fixed point of the Markov rates
    p0 = {(k, initial): 1.0 / len(levels) for k in range(len(levels))}
    p_eq = stationary_populations(p0, system, tables)
    v = np.array([p_eq[s] for s in joint_index])
    markov = sum(blocks)
    assert np.all(np.abs(markov @ v) <= 1e-12 * (np.abs(markov) @ v))


def test_population_route_and_stationary_state_build_no_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the population route built the conditioned-state generator")

    monkeypatch.setattr(EmmeGenerator, "__init__", refuse)
    system = SystemSpec(
        np.array([0.0, 1.0]),
        [[SIGMA_X], [SIGMA_X]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(5.0, [0.0, 2.0])],
    )
    tables = [make_bath([40, 60, 90]), make_bath([30, 50, 70])]
    state = ConditionedState({(0, 0): excited_block()})
    t = np.linspace(0.0, 10.0, 21)
    for variant in ("markov", "redfield"):
        traj = evolve(state, system, tables, t, variant)
        assert traj.meta["route"] == "populations"
        traj.pop_rate(t, traj.populations)
    stationary_populations({(1, (0, 0)): 1.0}, system, tables)


def test_a_gap_on_the_resonance_edge_resolves_as_the_reachable_keys_round_it():
    # the gap 0.25 + 1 ulp would sit just past the edge (tol = 0.25) of window 0 and
    # resolve to window 1; rounded to 12 digits, as the reachable keys round it, it
    # stays in window 0, where the window diagonal of the table gives no jump
    levels = np.array([0.0, 0.25000000000000006])
    table = make_bath([10, 20, 30], centers=[0.0, 0.5, 1.0])
    assert (0, 1, 1, 0) not in transition_rates(table, [SIGMA_X], levels)
    system = SystemSpec(levels, [[SIGMA_X]])
    traj = evolve(ConditionedState({(0,): excited_block()}), system, [table],
                  np.linspace(0.0, 5.0, 6))
    assert traj.joint_index == [(0, (0,)), (1, (0,))]
    assert np.array_equal(traj.populations, np.tile([0.0, 1.0], (6, 1)))
    assert stationary_populations({(1, (0,)): 1.0}, system, [table]) == {
        (0, (0,)): 0.0, (1, (0,)): 1.0}


def test_a_resonance_tie_is_a_jump_in_neither_direction(monkeypatch):
    # windows of width 0.5 at 0, 0.5 and 1 and the gap 0.25: E_j -+ 0.25 falls exactly
    # between two windows, which is a resonance of neither, from either side
    spec = BathSpec([EnergyWindow(c, DELTA, v) for c, v in ((0.0, 10), (0.5, 20), (1.0, 30))])
    table = rate_table_rmt(CouplingSpec(lam=0.03, block_mean=0.0, variance=1.0, seed=0),
                           build_spectrum(spec))
    levels = np.array([0.0, 0.25])
    assert table.target_window(1, -0.25) is None and table.target_window(0, 0.25) is None
    assert transition_rates(table, [SIGMA_X], levels) == {}
    ground = np.diag([1.0, 0.0]).astype(complex)
    t_grid = np.linspace(0.0, 2000.0, 5)
    traj = evolve(ConditionedState({(1,): ground}), spin(levels), [table], t_grid)
    assert np.array_equal(traj.populations, np.tile([1.0, 0.0], (5, 1)))

    def lowest_hit(self, j, omega):
        # the former rule: the lowest window within tol, so the tie resolves downwards
        # from either side and the jump 1 -> 0 has no reverse
        hits = np.flatnonzero(np.abs(self.centers - (self.centers[j] + omega)) <= self.resonance_tol)
        return int(hits[0]) if hits.size else None

    monkeypatch.setattr(RateTable, "target_window", lowest_hit)
    assert (1, 0, 0, 1) in transition_rates(table, [SIGMA_X], levels)
    # without detailed balance the closed form cannot keep the trace, and says so
    with pytest.raises(NumericalFailure, match="populations sum to .* at t=500, not 1$"):
        evolve(ConditionedState({(1,): ground}), spin(levels), [table], t_grid)


# ---------------------------------------------------------------------------
# population route against the integrator


def packed_initial(state, system, tables):
    """The keys every segment reaches and the initial blocks on them, as evolve packs them."""
    omegas = [set() for _ in tables]
    for seg in system.protocol:
        for nu, ops in enumerate(system.couplings):
            omegas[nu] |= {w for s in ops for w in s_omega_decomposition(s, seg.levels)}
    keys = reachable_keys(set(state.blocks), tables, omegas)
    y0 = np.zeros((len(keys), system.dim, system.dim), dtype=complex)
    for n, key in enumerate(keys):
        if key in state.blocks:
            y0[n] = state.blocks[key]
    return keys, y0


def integrator_populations(state, system, tables, t_grid, variant, rtol, atol):
    """Populations from DOP853 on the packed blocks, by the same calls as evolve's integrator route."""
    keys, y0 = packed_initial(state, system, tables)
    envelope = dissipator_envelope(tables, variant, t_grid[0])

    def segment_solver(n, seg):
        gen = EmmeGenerator(seg.levels, system.couplings, tables, keys)

        def solve(t0, y, times):
            sol = scipy.integrate.solve_ivp(
                lambda t, y: gen.derivative(y, envelope(t)), (t0, times[-1]), y,
                method="DOP853", t_eval=times, rtol=rtol, atol=atol)
            assert sol.success, sol.message
            return sol.y.T

        return solve

    _, states, _ = _walk_segments(system, t_grid, y0.ravel(), segment_solver)
    blocks = states.reshape(-1, len(keys), system.dim, system.dim)
    return np.diagonal(blocks, axis1=2, axis2=3).real.reshape(len(blocks), -1)


def expm_populations(state, system, tables, t_grid, variant):
    """Populations from scipy.linalg.expm of the population block of dense_generator.

    For the population route's scenarios (one envelope, quenches on grid
    points): from each grid point to the next, p <- expm(W x) p, with W the
    population block of the segment in force and x the elapsed clock, t or
    Xi(t).
    """
    keys, y0 = packed_initial(state, system, tables)
    d = system.dim
    pops = (np.arange(len(keys))[:, None] * d * d + np.arange(d) * (d + 1)).ravel()
    rates = []
    for seg in system.protocol:
        dissipators = dense_generator(seg.levels, system.couplings, tables, keys)[1]
        rates.append(sum(dissipators)[np.ix_(pops, pops)])
    clock = t_grid if variant == "markov" else xi_integral(t_grid - t_grid[0], tables[0].delta)
    owner = system.segment_index(t_grid)
    out = [y0.ravel()[pops]]
    for m in range(1, t_grid.size):
        out.append(scipy.linalg.expm(rates[owner[m - 1]] * (clock[m] - clock[m - 1])) @ out[-1])
    return np.array(out).real


@st.composite
def population_route_scenarios(draw):
    """Small scenarios the population route takes.

    2-3 distinct integer levels per segment, 1-2 segments (a quench at
    t = 2), 1-2 baths of width 0.5 with 2-5 windows at integer centers 1-2
    apart and volumes up to 2^66 (half of the draws above 2^63), 1-2 random
    Hermitian operators per bath, lambda scaled by 1/sqrt of the bath's
    largest volume, a diagonal initial block of random populations in one
    key, and a variant.
    """
    d = draw(st.integers(2, 3))
    distinct = st.lists(st.integers(0, 4), min_size=d, max_size=d, unique=True)
    protocol = [ProtocolSegment(0.0, draw(distinct))]
    if draw(st.booleans()):
        protocol.append(ProtocolSegment(2.0, draw(distinct)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    couplings, tables, key = [], [], []
    volume = st.one_of(st.integers(1, 10**6), st.integers(2**63, 2**66))
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(2, 5))
        steps = draw(st.lists(st.integers(1, 2), min_size=n - 1, max_size=n - 1))
        volumes = draw(st.lists(volume, min_size=n, max_size=n))
        windows = [EnergyWindow(float(c), DELTA, v)
                   for c, v in zip(np.concatenate([[0], np.cumsum(steps)]), volumes)]
        n_ops = draw(st.integers(1, 2))
        specs = [
            CouplingSpec(lam=0.1 / np.sqrt(float(max(volumes))),
                         block_mean=complex(*rng.uniform(-1.0, 1.0, 2)),
                         variance=float(rng.uniform(0.1, 2.0)))
            for _ in range(n_ops)
        ]
        tables.append(rate_table_rmt(specs, windows))
        raw = rng.standard_normal((n_ops, d, d)) + 1j * rng.standard_normal((n_ops, d, d))
        couplings.append(list(raw + raw.conj().swapaxes(-1, -2)))
        key.append(draw(st.integers(0, n - 1)))
    p = rng.uniform(size=d)
    state = ConditionedState({tuple(key): np.diag(p / p.sum()).astype(complex)})
    system = SystemSpec(protocol[0].levels, couplings, protocol)
    return state, system, tables, draw(st.sampled_from(["markov", "redfield"]))


def stiff_scenario():
    """Two baths of two unit-volume windows and operator entries up to 5: a stiff draw.

    DOP853 at rtol 1e-13 is 4.4e-9 off scipy.linalg.expm here, while the
    closed form agrees with it to round-off.
    """
    rng = np.random.default_rng(249)
    couplings, tables = [], []
    for _ in range(2):
        spec = CouplingSpec(lam=0.1, block_mean=complex(*rng.uniform(-1.0, 1.0, 2)),
                            variance=float(rng.uniform(0.1, 2.0)))
        windows = [EnergyWindow(0.0, DELTA, 1), EnergyWindow(1.0, DELTA, 1)]
        tables.append(rate_table_rmt(spec, windows))
        raw = rng.uniform(-2.5, 2.5, (2, 2)) + 1j * rng.uniform(-2.5, 2.5, (2, 2))
        couplings.append([raw + raw.conj().T])
    p = rng.uniform(size=2)
    state = ConditionedState({(0, 0): np.diag(p / p.sum()).astype(complex)})
    return state, SystemSpec(np.array([0.0, 1.0]), couplings), tables, "markov"


@settings(max_examples=40, deadline=None)
@given(population_route_scenarios())
@example(stiff_scenario())
def test_population_route_matches_expm_and_conserves_shells(scenario):
    state, system, tables, variant = scenario
    t = np.linspace(0.0, 4.0, 9)
    traj = evolve(state, system, tables, t, variant=variant)
    assert traj.meta["route"] == "populations"
    ref = expm_populations(state, system, tables, t, variant)
    assert np.max(np.abs(traj.populations - ref)) <= 1e-9

    # no dissipator (nor the coherent part) feeds a coherence from a population
    d = system.dim
    keys = list(dict.fromkeys(key for _, key in traj.joint_index))
    diag = np.eye(d, dtype=bool).ravel()
    pops = (np.arange(len(keys))[:, None] * d * d + np.flatnonzero(diag)).ravel()
    cohs = (np.arange(len(keys))[:, None] * d * d + np.flatnonzero(~diag)).ravel()
    for seg in system.protocol:
        gen = EmmeGenerator(seg.levels, system.couplings, tables, keys)
        for op in gen.dissipators + [gen.coherent]:
            assert op[cohs][:, pops].count_nonzero() == 0

    # the trace, and each total-energy shell within a segment
    total = traj.populations.sum(axis=1)
    assert np.max(np.abs(total - total[0])) <= 1e-12
    quench = np.flatnonzero(np.any(np.diff(traj.level_energies, axis=0) != 0, axis=1)) + 1
    for rows in np.split(np.arange(t.size), quench):
        levels = traj.level_energies[rows[0]]
        energy = np.array([levels[k] + sum(tb.centers[j] for tb, j in zip(tables, key))
                           for k, key in traj.joint_index])
        for e in np.unique(energy):
            shell = traj.populations[rows][:, energy == e].sum(axis=1)
            assert np.max(np.abs(shell - shell[0])) <= 1e-12


def three_level_coupling():
    return np.array([[0, 1, 0.5], [1, 0, 1], [0.5, 1, 0]], dtype=complex)


ROUTE_CASES = {
    # the two baths' envelopes differ, so the populations see no one clock
    "unequal-widths": lambda: (
        ConditionedState({(0, 0): excited_block()}),
        SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X], [SIGMA_X]]),
        [make_bath([40, 60, 90]),
         rate_table_rmt(CouplingSpec(lam=3e-3, block_mean=0.0, variance=1.0, seed=1),
                        [EnergyWindow(float(c), 0.8, v) for c, v in enumerate([30, 50, 70])])],
        "redfield"),
    # the two upper levels share every frequency, so their coherence is fed
    "degenerate-levels": lambda: (
        ConditionedState({(0,): np.diag([0.0, 0.5, 0.5]).astype(complex)}),
        SystemSpec(np.array([0.0, 1.0, 1.0]), [[three_level_coupling()]]),
        [make_bath([40, 60, 90])], "markov"),
    "coherent-block": lambda: (
        ConditionedState({(0,): np.array([[0.5, 0.3j], [-0.3j, 0.5]])}),
        spin(), [make_bath([40, 60, 90])], "markov"),
}


@pytest.mark.parametrize("variant", ["markov", "redfield"])
def test_population_route_agrees_with_the_integrator(variant):
    # a fixed, non-stiff case across a quench pins the two routes to each other
    system = SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X], [SIGMA_X]],
                        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(100.0, [0.0, 2.0])])
    tables = [make_bath([40, 60, 90]), make_bath([30, 50, 70])]
    state = ConditionedState({(0, 0): excited_block()})
    t = np.linspace(0.0, 200.0, 41)
    traj = evolve(state, system, tables, t, variant)
    assert traj.meta["route"] == "populations"
    ref = integrator_populations(state, system, tables, t, variant, 1e-13, 1e-15)
    assert np.max(np.abs(traj.populations - ref)) <= 1e-9


@pytest.mark.parametrize("case", list(ROUTE_CASES))
def test_integrator_route_is_kept_where_populations_do_not_close(case):
    state, system, tables, variant = ROUTE_CASES[case]()
    t = np.linspace(0.0, 10.0, 21)
    traj = evolve(state, system, tables, t, variant=variant)
    assert traj.meta["route"] == "integrator"
    ref = integrator_populations(state, system, tables, t, variant, RTOL, ATOL)
    assert np.array_equal(traj.populations, ref)


def test_integrator_route_refuses_a_trace_drift(monkeypatch):
    state, system, tables, variant = ROUTE_CASES["coherent-block"]()
    derivative = EmmeGenerator.derivative
    # a decay of every block keeps them positive and leaks the trace
    monkeypatch.setattr(EmmeGenerator, "derivative",
                        lambda self, y, factors=None: derivative(self, y, factors) - 1e-3 * y)
    with pytest.raises(NumericalFailure, match=r"populations sum to 0\.9995 at t=0\.5, not 1$"):
        evolve(state, system, tables, np.linspace(0.0, 10.0, 21), variant)


@st.composite
def adjacencies(draw):
    """Directed, asymmetric adjacency with self-loops; sparse draws leave nodes isolated."""
    n = draw(st.integers(1, 14))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((n, n)) < density


@settings(max_examples=300, deadline=None)
@given(adjacencies())
def test_connected_components_equal_csgraph(links):
    n_comp, labels = connected_components(len(links), *np.nonzero(links))
    want_n, want = scipy.sparse.csgraph.connected_components(links, directed=False)
    assert n_comp == want_n
    assert np.array_equal(labels, want)


def test_connected_components_of_a_scrambled_long_path_equal_csgraph():
    # two paths of 10^4 nodes each in random node order: union-find depth
    # is not bounded by the diameter
    n = 20_000
    order = np.random.default_rng(3).permutation(n)
    rows, cols = order[:-1], order[1:]
    keep = np.arange(n - 1) != n // 2
    rows, cols = rows[keep], cols[keep]
    n_comp, labels = connected_components(n, rows, cols)
    graph = scipy.sparse.coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    want_n, want = scipy.sparse.csgraph.connected_components(graph, directed=False)
    assert n_comp == want_n == 2
    assert np.array_equal(labels, want)
