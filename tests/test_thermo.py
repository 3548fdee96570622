import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finitebath.bath import BathSpec, CouplingSpec, EnergyWindow, build_spectrum
from finitebath.emme import (
    ConditionedState,
    ProtocolSegment,
    SystemSpec,
    evolve,
    stationary_populations,
)
from finitebath.errors import ConfigurationError
from finitebath.rates import rate_table_rmt
from finitebath.thermo import (
    build_ledger,
    effective_temperature,
    energies_and_first_law,
    gibbs_joint,
    mutual_information_cg,
    observational_entropy,
    relative_entropy_cg,
    shannon_entropy,
)

from conftest import SIGMA_X, clausius_holds, scaled, unshifted


def make_table(volumes, centers=None):
    if centers is None:
        centers = list(range(len(volumes)))
    spec = BathSpec([EnergyWindow(float(c), 0.5, v) for c, v in zip(centers, volumes)])
    wins = build_spectrum(spec)
    return rate_table_rmt(CouplingSpec(lam=3e-3, block_mean=0.0, variance=1.0, seed=0), wins)


def fig2_trajectory(variant="markov", volumes=(400, 600), t_max=100.0, n=101):
    table = make_table(volumes)
    system = SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X]])
    block = np.zeros((2, 2), dtype=complex)
    block[1, 1] = 1.0
    state = ConditionedState({(0,): block})
    t = np.linspace(0.0, t_max, n)
    return evolve(state, system, [table], t, variant=variant), table, system


# ---------------------------------------------------------------------------
# entropies


def test_observational_entropy_point_mass():
    p = np.array([1.0, 0.0, 0.0])
    log_v = np.log(np.array([600.0, 400.0, 1.0]))
    assert observational_entropy(p, log_v) == pytest.approx(np.log(600.0))


def test_observational_entropy_of_equilibrium_shell():
    system = SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X]])
    p_eq = stationary_populations({(1, (0,)): 1.0}, system, [make_table([400, 600])])
    p = np.array([p_eq[(1, (0,))], p_eq[(0, (1,))]])
    log_v = np.log(np.array([400.0, 600.0]))
    assert observational_entropy(p, log_v) == pytest.approx(np.log(1000.0), rel=1e-12)


def test_relative_entropy_properties():
    p = np.array([0.3, 0.7])
    assert relative_entropy_cg(p, p) == 0.0
    q = np.array([0.5, 0.5])
    assert relative_entropy_cg(p, q) > 0.0
    with pytest.raises(ConfigurationError, match="q\\[1\\]"):
        relative_entropy_cg(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_gibbs_identity_relating_relative_and_observational_entropy():
    # D(p || p_T) = -S_obs(p) + U(p)/T + log Z_S + log Z_B on random p
    rng = np.random.default_rng(42)
    levels = np.array([0.0, 1.0])
    centers = np.array([0.0, 1.0, 2.0])
    volumes = np.array([100.0, 200.0, 400.0])
    log_v = np.concatenate([[np.log(v)] * 2 for v in volumes])
    energies = np.array([lv + c for c in centers for lv in levels])
    for temperature in (1.0, 0.35, 2.7):
        p_t, log_zs, log_zb = gibbs_joint(levels, centers, volumes, temperature)
        for _ in range(20):
            p = rng.random(6)
            p /= p.sum()
            lhs = relative_entropy_cg(p, p_t)
            u = float(np.sum(energies * p))
            rhs = -observational_entropy(p, log_v) + u / temperature + log_zs + log_zb
            assert abs(lhs - rhs) <= 1e-10


def test_entropy_balance_identity_for_product_initial_states():
    # Delta S^S + Delta S^B - Delta S_obs - I_cg = 0 when I_cg(0) = 0
    rng = np.random.default_rng(7)
    d_s, n_w = 2, 3
    log_v_key = np.log(np.array([100.0, 200.0, 400.0]))
    pair_index = [(k, j) for j in range(n_w) for k in range(d_s)]
    log_v = np.array([log_v_key[j] for (_, j) in pair_index])

    def stats(p):
        p_sys = np.zeros(d_s)
        p_bath = np.zeros(n_w)
        for n, (k, j) in enumerate(pair_index):
            p_sys[k] += p[n]
            p_bath[j] += p[n]
        s_obs = observational_entropy(p, log_v)
        s_s = shannon_entropy(p_sys)
        s_b = observational_entropy(p_bath, log_v_key)
        i_cg = mutual_information_cg(p, p_sys, p_bath, pair_index)
        return s_obs, s_s, s_b, i_cg

    for _ in range(30):
        ps = rng.random(d_s)
        ps /= ps.sum()
        pb = rng.random(n_w)
        pb /= pb.sum()
        p0 = np.array([ps[k] * pb[j] for (k, j) in pair_index])
        p1 = rng.random(d_s * n_w)
        p1 /= p1.sum()
        s0, ss0, sb0, i0 = stats(p0)
        s1, ss1, sb1, i1 = stats(p1)
        assert abs(i0) <= 1e-12
        residual = (ss1 - ss0) + (sb1 - sb0) - (s1 - s0) - i1
        assert abs(residual) <= 1e-10


def test_mutual_information_cg_limits():
    pair_index = [(0, 0), (0, 1), (1, 0), (1, 1)]
    p_prod = np.array([0.06, 0.24, 0.14, 0.56])  # (0.3,0.7) x (0.2,0.8)
    assert mutual_information_cg(
        p_prod, np.array([0.3, 0.7]), np.array([0.2, 0.8]), pair_index
    ) == pytest.approx(0.0, abs=1e-12)
    p_corr = np.array([0.5, 0.0, 0.0, 0.5])
    assert mutual_information_cg(
        p_corr, np.array([0.5, 0.5]), np.array([0.5, 0.5]), pair_index
    ) == pytest.approx(np.log(2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# effective temperature


def test_effective_temperature_markers_and_sign():
    centers = np.array([0.0, 1.0])
    volumes = np.array([400.0, 600.0])
    bottom = effective_temperature(centers, volumes, 0.0)
    assert bottom.beta == math.inf and bottom.temperature == 0.0
    infinite = effective_temperature(centers, volumes, 0.6)
    assert infinite.beta == pytest.approx(0.0, abs=1e-12)
    assert infinite.temperature == math.inf
    negative = effective_temperature(centers, volumes, 0.75)
    assert negative.beta < 0 and negative.temperature < 0
    positive = effective_temperature(centers, volumes, 0.25)
    assert positive.beta > 0 and positive.temperature > 0
    with pytest.raises(ConfigurationError):
        effective_temperature(centers, volumes, 1.5)


def test_effective_temperature_round_trip():
    centers = np.array([0.0, 1.0, 2.0])
    volumes = np.array([100.0, 200.0, 400.0])
    log_v = np.log(volumes)
    for beta in (-3.0, -0.4, 0.0, 0.7, 5.0):
        w = log_v - beta * centers
        w -= w.max()
        p = np.exp(w) / np.sum(np.exp(w))
        u = float(np.sum(centers * p))
        est = effective_temperature(centers, volumes, u)
        assert est.beta == pytest.approx(beta, abs=1e-9)


@st.composite
def canonical_baths(draw):
    """Window centers and volumes, and the canonical energies at drawn betas."""
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    centers = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    volumes = np.array(draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n)), float)
    betas = np.array(draw(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=8)))
    w = np.log(volumes) - betas[:, None] * centers
    p = np.exp(w - w.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    u = p @ centers
    var = p @ centers**2 - u**2
    # beta is resolvable only where U(beta) is not flat to double precision;
    # saturated energies are the edge markers' business, checked separately
    keep = var >= 1e-5 * max(1.0, np.abs(centers).max())
    assume(keep.any())
    return centers, volumes, betas[keep], u[keep]


# at beta = BETA_MAX this bath's canonical energy rounds below its lowest center
EDGE_CENTERS, EDGE_VOLUMES = np.array([1.75, 2.59765625]), np.array([62.0, 20088.0])


@settings(max_examples=200, deadline=None)
@given(canonical_baths())
@example((EDGE_CENTERS, EDGE_VOLUMES, np.array([0.0]),
          np.array([np.average(EDGE_CENTERS, weights=EDGE_VOLUMES)])))
def test_effective_temperature_array_solves_every_energy(bath):
    centers, volumes, betas, u = bath
    est = effective_temperature(centers, volumes, u).beta
    assert np.max(np.abs(est - betas)) <= 1e-9
    scalar = [effective_temperature(centers, volumes, x).beta for x in u]
    assert np.array_equal(est, scalar)
    edges = effective_temperature(centers, volumes, [centers[0], centers[-1]]).beta
    assert list(edges) == [math.inf, -math.inf]


# ---------------------------------------------------------------------------
# ledger on trajectories


def test_first_law_static_protocol():
    traj, table, system = fig2_trajectory()
    u, u_s, u_b, w, q, residual = energies_and_first_law(traj)
    assert np.max(np.abs(w)) == 0.0
    assert np.max(np.abs((u_s - u_s[0]) - q.sum(axis=1))) <= 1e-8
    assert np.max(np.abs(u - u[0])) <= 1e-8  # total energy only changes via work


def test_quench_work_is_population_times_gap():
    table = make_table([100, 200, 400])
    system = SystemSpec(
        np.array([0.0, 1.0]),
        [[SIGMA_X]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(10.0, [0.0, 2.0])],
    )
    block = np.zeros((2, 2), dtype=complex)
    block[1, 1] = 1.0
    state = ConditionedState({(0,): block})
    t = np.linspace(0.0, 20.0, 41)
    traj = evolve(state, system, [table], t)
    u, u_s, u_b, w, q, residual = energies_and_first_law(traj)
    n_q = int(np.argmin(np.abs(t - 10.0)))
    p1_at_quench = traj.populations[n_q][
        [s == (1, (0,)) for s in traj.joint_index].index(True)
    ]
    assert w[n_q] == pytest.approx(p1_at_quench * 1.0, rel=1e-12)
    assert np.max(np.abs(residual)) <= 1e-8


def test_entropy_production_nonnegative_and_zero_cases():
    traj, table, system = fig2_trajectory()
    ledger = build_ledger(traj)
    sigma = ledger.array("entropy_production_rate")
    assert np.min(sigma) >= -1e-10
    # observational entropy increases monotonically from the start
    s_obs = ledger.array("s_obs")
    assert np.all(s_obs >= s_obs[0] - 1e-12)

    # frozen dynamics
    table0 = scaled(table, 0.0)
    block = np.zeros((2, 2), dtype=complex)
    block[1, 1] = 1.0
    state = ConditionedState({(0,): block})
    frozen = evolve(state, system, [unshifted(table0)], np.linspace(0, 10, 11))
    sigma_frozen = build_ledger(frozen).array("entropy_production_rate")
    assert np.max(np.abs(sigma_frozen)) == 0.0


def test_entropy_production_vanishes_at_equilibrium():
    table = make_table([400, 600])
    system = SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X]])
    p_eq = stationary_populations({(1, (0,)): 1.0}, system, [table])
    blocks = {}
    for (k, key), p in p_eq.items():
        blocks.setdefault(key, np.zeros((2, 2), dtype=complex))[k, k] = p
    state = ConditionedState(blocks)
    traj = evolve(state, system, [table], np.linspace(0, 20, 21))
    g = table.gamma[0, 1, 0, 0].real
    ledger = build_ledger(traj)
    sigma = ledger.array("entropy_production_rate")
    assert np.max(np.abs(sigma)) <= 1e-12 * g
    # at a stationary state every term of the entropy-flow chain is constant
    cl = ledger.clausius
    for series in (cl.lhs1, cl.lhs2, cl.delta_s_obs):
        assert np.max(np.abs(series - series[0])) <= 1e-10


def test_ledger_effective_temperature_series_and_flags():
    traj, table, system = fig2_trajectory()
    ledger = build_ledger(traj)
    t_star = ledger.t_star[:, 0]
    assert t_star[0] == 0.0  # all probability in the lowest band
    assert np.all(t_star[1:] > 0)
    assert any("edge effective temperature" in f for f in ledger.flags)


def test_clausius_chain_on_relaxation():
    traj, _, _ = fig2_trajectory(n=201)
    ledger = build_ledger(traj)
    cl = ledger.clausius
    assert clausius_holds(cl, tol=1e-9)
    # a two-band bath marginal with matched energy is exactly canonical, so
    # the first inequality saturates
    assert np.max(np.abs(cl.lhs1 - cl.lhs2)) <= 1e-9
    assert np.all(np.diff(cl.delta_s_obs) >= -1e-10)


def test_heat_integral_closed_form_matches_fine_trapezoid():
    # away from the singular start the closed-form evaluation must agree
    # with direct quadrature of beta Qdot
    traj, table, system = fig2_trajectory(n=2001)
    ledger = build_ledger(traj)
    cl = ledger.clausius
    times = traj.times
    betas = ledger.beta_star[:, 0]
    e_b = np.array([table.centers[key[0]] for (_, key) in traj.joint_index])
    qdot = np.array(
        [-np.sum(e_b * traj.pop_rate(times[n], traj.populations[n])) for n in range(len(times))]
    )
    d_s_s = ledger.s_obs_s - ledger.s_obs_s[0]
    closed_integral = d_s_s - cl.lhs1  # the integral as evaluated in the chain
    n0 = 200  # skip the region where beta blows up logarithmically
    f = betas * qdot
    ref = np.concatenate(
        [[0.0], np.cumsum(0.5 * (f[n0 + 1 :] + f[n0:-1]) * np.diff(times[n0:]))]
    )
    rel = closed_integral[n0:] - closed_integral[n0]
    assert np.max(np.abs(rel - ref)) < 5e-4


def test_ledger_u_decomposition():
    traj, *_ = fig2_trajectory(n=41)
    ledger = build_ledger(traj)
    assert np.max(np.abs(ledger.u - (ledger.u_s + ledger.u_b.sum(axis=1)))) <= 1e-10
    assert np.all(ledger.s_obs >= 0)
