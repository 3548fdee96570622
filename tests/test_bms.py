import math

import numpy as np
import pytest
import scipy.linalg

from finitebath.bath import BathSpec, CouplingSpec, EnergyWindow, build_spectrum
from finitebath.cli import ScenarioRun, build_scenario
from finitebath.bms import BmsRates, bms_generator, bms_rates_from_table, choose_reference_temperature, evolve_bms
from finitebath.emme import ProtocolSegment, SystemSpec, s_omega_decomposition
from finitebath.errors import ConfigurationError
from finitebath.presets import preset
from finitebath.rates import rate_table_rmt

from conftest import SIGMA_X


def spin_system():
    return SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X]])


def fig2_table(volumes=(400, 600)):
    spec = BathSpec(
        [EnergyWindow(0.0, 0.5, volumes[0]), EnergyWindow(1.0, 0.5, volumes[1])]
    )
    wins = build_spectrum(spec)
    return rate_table_rmt(CouplingSpec(lam=3e-3, block_mean=0.0, variance=1.0, seed=0), wins)


def stationary_populations(t_can, t_max=4000.0):
    rates = BmsRates(t_can, {1.0: 0.05})
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    traj = evolve_bms(rho0, spin_system(), rates, np.linspace(0.0, t_max, 9))
    return traj.populations[-1]


def test_gibbs_ratio_invariant_of_rates():
    rates = BmsRates(0.8, {1.0: 0.3})
    assert rates.up(1.0) / rates.down[1.0] == pytest.approx(math.exp(-1.0 / 0.8))
    assert BmsRates(0.0, {1.0: 0.3}).up(1.0) == 0.0
    assert BmsRates(math.inf, {1.0: 0.3}).up(1.0) == 0.3


def test_stationary_state_is_gibbs_at_reference_temperature():
    for t_can in (0.5, 1.0, 3.0):
        p = stationary_populations(t_can)
        assert p[1] / p[0] == pytest.approx(math.exp(-1.0 / t_can), abs=1e-9)


def test_zero_and_infinite_temperature_fixed_points():
    p_cold = stationary_populations(0.0, t_max=2000.0)
    assert p_cold[0] == pytest.approx(1.0, abs=1e-9)
    p_hot = stationary_populations(math.inf)
    assert p_hot[0] == pytest.approx(0.5, abs=1e-9)


def test_no_population_inversion_for_positive_reference():
    # contrast case: the conditioned-state equation with inverted volumes
    # reaches p1 = 0.6, the fixed-reference equation cannot for T_can > 0
    for t_can in (0.3, 1.0, 10.0):
        p = stationary_populations(t_can)
        assert p[1] < p[0] + 1e-12


def matrix_product_form(rho, rates, s_omega, h_system):
    """Reference d rho/dt: the secular dissipator as products of d x d matrices."""
    d_rho = -1j * (h_system @ rho - rho @ h_system)
    for omega, s_op in s_omega.items():
        if omega > 0:
            for rate, op in ((rates.down.get(omega, 0.0), s_op),
                             (rates.up(omega), s_op.conj().T)):
                opd = op.conj().T
                d_rho += rate * (op @ rho @ opd - 0.5 * (opd @ op @ rho + rho @ opd @ op))
        elif omega == 0.0:
            rate, opd = rates.down.get(0.0, 0.0), s_op.conj().T
            d_rho += rate * (s_op @ rho @ opd - 0.5 * (opd @ s_op @ rho + rho @ opd @ s_op))
    return d_rho


GENERATOR_CASES = [
    ([0.0, 1.0], SIGMA_X, BmsRates(1.0, {1.0: 0.2})),
    ([0.0, 2.0], SIGMA_X, BmsRates(0.0, {2.0: 0.3})),
    ([0.0, 1.0], SIGMA_X, BmsRates(math.inf, {1.0: 0.1})),
    # three levels with two gaps and a diagonal part at omega = 0
    ([0.0, 0.5, 1.5], np.array([[0.3, 1.0, 0.4j], [1.0, -0.2, 0.7], [-0.4j, 0.7, 0.0]]),
     BmsRates(0.7, {0.0: 0.05, 0.5: 0.2, 1.0: 0.15, 1.5: 0.1})),
    # a degenerate upper level: S_omega^dag S_omega has complex off-diagonal elements
    ([0.0, 1.0, 1.0], np.array([[0.0, 1.0, 0.5j], [1.0, 0.0, 0.0], [-0.5j, 0.0, 0.0]]),
     BmsRates(0.7, {1.0: 0.2})),
]


def test_generator_conserves_trace_and_hermiticity():
    # the superoperator is the matrix-product form, applied to the row-major ravel of rho
    rng = np.random.default_rng(1)
    for levels, s_op, rates in GENERATOR_CASES:
        levels = np.array(levels)
        d = len(levels)
        s_om = s_omega_decomposition(s_op, levels)
        h = np.diag(levels).astype(complex)
        gen = bms_generator(rates, s_om, h)
        assert gen.shape == (d * d, d * d)
        for _ in range(5):
            raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = raw @ raw.conj().T
            rho /= np.trace(rho).real
            d_rho = (gen @ rho.ravel()).reshape(d, d)
            assert np.max(np.abs(d_rho - matrix_product_form(rho, rates, s_om, h))) <= 1e-14
            assert abs(np.trace(d_rho)) < 1e-14
            assert np.max(np.abs(d_rho - d_rho.conj().T)) < 1e-14


def test_choose_reference_temperature_markers():
    table = fig2_table()
    assert choose_reference_temperature(
        np.array([1.0, 0.0]), table.centers, table.volumes
    ) == 0.0
    assert choose_reference_temperature(
        np.array([0.4, 0.6]), table.centers, table.volumes
    ) == math.inf
    mid = choose_reference_temperature(
        np.array([0.7, 0.3]), table.centers, table.volumes
    )
    assert 0 < mid < math.inf
    with pytest.raises(ConfigurationError):
        choose_reference_temperature(np.array([1.0]), np.array([0.0]), np.array([10.0]))


def test_rates_from_table_use_initial_shell_scale():
    table = fig2_table()
    rates = bms_rates_from_table(table, 0, spin_system(), t_can=1.0)
    g = table.gamma[0, 1, 0, 0].real
    assert rates.down[1.0] == pytest.approx(g / 600.0)


def test_rates_from_table_cover_every_segment_gap():
    spec = BathSpec([EnergyWindow(float(c), 0.5, v) for c, v in enumerate([100, 200, 400])])
    table = rate_table_rmt(CouplingSpec(lam=3e-3, block_mean=0.0, variance=1.0, seed=0),
                           build_spectrum(spec))
    rates = bms_rates_from_table(table, 0, quench_system(120.0), t_can=1.0)
    assert rates.down == {1.0: table.gamma[1, 0, 0, 0].real / 200.0,
                          2.0: table.gamma[2, 0, 0, 0].real / 400.0}


def test_trajectory_contract_reduced_only():
    rates = BmsRates(1.0, {1.0: 0.1})
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    t = np.linspace(0.0, 10.0, 21)
    traj = evolve_bms(rho0, spin_system(), rates, t)
    assert traj.joint_index == [(0, ()), (1, ())]
    assert traj.bath_centers == []
    assert np.allclose(traj.populations.sum(axis=1), 1.0, atol=1e-10)
    assert np.array_equal(traj.times, t)


def quench_system(t_quench):
    return SystemSpec(
        np.array([0.0, 1.0]),
        [[SIGMA_X]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(t_quench, [0.0, 2.0])],
    )


def test_segment_starting_on_last_grid_point_is_recorded():
    rates = BmsRates(1.0, {1.0: 0.1, 2.0: 0.1})
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    t = np.linspace(0.0, 10.0, 11)
    traj = evolve_bms(rho0, quench_system(10.0), rates, t)
    assert np.array_equal(traj.times, t)
    assert np.array_equal(traj.level_energies[-1], [0.0, 2.0])
    assert np.array_equal(traj.level_energies[-2], [0.0, 1.0])


def test_quench_off_the_grid_is_a_configuration_error():
    rates = BmsRates(1.0, {1.0: 0.1, 2.0: 0.1})
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ConfigurationError, match="align"):
        evolve_bms(rho0, quench_system(3.3), rates, np.linspace(0.0, 10.0, 11))


def per_point_expm(rho0, system, rates, t_grid):
    """Reference populations: expm(gen (t - t0)) on the state at each segment's start t0."""
    y = np.asarray(rho0, dtype=complex).ravel()
    s_op = system.couplings[0][0]
    out = []
    for _, seg, t0, t1, grid in system.grid_segments(t_grid):
        gen = bms_generator(rates, s_omega_decomposition(s_op, seg.levels), np.diag(seg.levels))
        out += [scipy.linalg.expm(gen * (t - t0)) @ y for t in grid]
        y = scipy.linalg.expm(gen * (t1 - t0)) @ y
    d = len(rho0)
    return np.array(out)[:, :: d + 1].real


def random_state(d, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def quench_ci_case():
    cfg = preset("quench-ci")
    cfg["solvers"] = ["bms"]
    scenario = build_scenario(cfg)
    meta = ScenarioRun(scenario).run_solver("bms").meta
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[scenario.initial_level, scenario.initial_level] = 1.0
    return rho0, scenario.system, BmsRates(meta["t_can"], meta["down_rates"]), scenario.t_grid


def generator_case(n, t_grid, seed=0):
    levels, s_op, rates = GENERATOR_CASES[n]
    system = SystemSpec(np.array(levels), [[np.asarray(s_op, dtype=complex)]])
    return random_state(len(levels), seed), system, rates, t_grid


STEPPER_CASES = {
    "quench-ci": quench_ci_case,
    "degenerate-levels": lambda: generator_case(4, np.linspace(0.0, 60.0, 241)),
    "t-can-zero": lambda: generator_case(1, np.linspace(0.0, 40.0, 81)),
    "t-can-infinite": lambda: generator_case(2, np.linspace(0.0, 40.0, 81)),
    "non-uniform-grid": lambda: generator_case(
        3, np.cumsum(np.random.default_rng(5).uniform(0.01, 2.0, 60)) - 0.01),
    # steps of 0.1 that differ in their last bits; the quench at 120 is on the grid
    "arange-grid": lambda: (*quench_ci_case()[:3], np.arange(0.0, 240.05, 0.1)),
}


@pytest.mark.parametrize("case", list(STEPPER_CASES))
def test_cached_steps_match_expm_from_each_segment_start(case):
    rho0, system, rates, t_grid = STEPPER_CASES[case]()
    traj = evolve_bms(rho0, system, rates, t_grid)
    assert np.array_equal(traj.times, t_grid)
    assert np.max(np.abs(traj.populations - per_point_expm(rho0, system, rates, t_grid))) <= 1e-13


def test_long_time_populations_are_gibbs_at_reference_temperature():
    # three distinct levels, three gaps and dephasing, from a state with coherences
    rho0, system, rates, _ = generator_case(3, None, seed=2)
    p = evolve_bms(rho0, system, rates, np.array([0.0, 2000.0])).populations[-1]
    gibbs = np.exp(-system.levels / rates.t_can)
    assert np.max(np.abs(p - gibbs / gibbs.sum())) <= 1e-12


def test_meta_counts_one_expm_per_distinct_step():
    rates = BmsRates(1.0, {1.0: 0.1, 2.0: 0.1})
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    # steps 0.5, 0.5, 1, 1, 1 before the quench at 4 and 0.5, 0.5, 1 after it
    t = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 4.5, 5.0, 6.0])
    traj = evolve_bms(rho0, quench_system(4.0), rates, t)
    assert traj.meta["route"] == "expm"
    assert traj.meta["expm_calls"] == 4


def test_rounding_noise_of_a_uniform_grid_costs_no_extra_expm():
    rho0, system, rates, _ = quench_ci_case()
    t = np.arange(0.0, 240.05, 0.1)
    assert np.unique(np.diff(t)).size > 2
    assert evolve_bms(rho0, system, rates, t).meta["expm_calls"] == 2
