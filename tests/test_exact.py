import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitebath.bath import BathSpec, CouplingSpec, EnergyWindow, build_spectrum, sample_coupling
from finitebath import exact
from finitebath.cli import ScenarioRun, build_scenario
from finitebath.emme import ProtocolSegment, SystemSpec
from finitebath.errors import ConfigurationError, DimensionCapExceeded, NumericalFailure
from finitebath.exact import (
    assemble,
    coarse_grain,
    prepare_initial,
    quantum_mutual_information,
    run_exact,
    sector_components,
)
from finitebath.presets import preset, scale_volumes
from finitebath.thermo import build_ledger, mutual_information_cg

from conftest import SIGMA_X, two_band_realization


def tiny_realization(b=0.6, v0=1, v1=1):
    spec = BathSpec([EnergyWindow(0.0, 0.5, v0), EnergyWindow(1.0, 0.5, v1)])
    wins = build_spectrum(spec)
    coup = CouplingSpec(lam=0.05, block_mean=b, variance=0.0, seed=1)
    return sample_coupling(coup, wins)


def spin():
    return SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X]])


def test_assemble_uncoupled_spectrum_is_sum_of_levels():
    real = two_band_realization(v0=3, v1=4, lam=0.0, seed=2)
    model = assemble(np.array([0.0, 1.0]), [SIGMA_X], real)
    # the sectors partition the basis
    covered = np.sort(np.concatenate([index for index, _ in model]))
    assert np.array_equal(covered, np.arange(2 * 7))
    evals = np.sort(np.concatenate([np.linalg.eigvalsh(h) for _, h in model]))
    micro = real.microlevels()
    expect = np.sort(np.concatenate([micro + 0.0, micro + 1.0]))
    assert np.allclose(evals, expect, atol=1e-12)


def test_assemble_hermitian_and_capped():
    real = two_band_realization(v0=5, v1=6, seed=3)
    model = assemble(np.array([0.0, 1.0]), [SIGMA_X], real)
    for _, h in model:
        assert np.max(np.abs(h - h.conj().T)) == 0.0
    with pytest.raises(DimensionCapExceeded):
        assemble(np.array([0.0, 1.0]), [SIGMA_X], real, dim_cap=10)


def test_assemble_single_level_windows_coupling_block():
    real = tiny_realization(b=0.6)
    model = assemble(np.array([0.0, 1.0]), [SIGMA_X], real)
    # basis ordering: (k, i) -> k * d_b + i; resonant pair (1, E0) <-> (0, E1)
    idx_1e0 = 1 * 2 + 0
    idx_0e1 = 0 * 2 + 1
    index, h = next(sec for sec in model if idx_1e0 in sec[0])
    assert list(index) == [idx_0e1, idx_1e0]
    assert h[1, 0] == pytest.approx(0.05 * 0.6)
    assert h[1, 1] == pytest.approx(1.0 - 0.25)
    assert h[0, 0] == pytest.approx(0.75)


def test_prepare_initial_basis_full_and_half():
    spec = BathSpec([EnergyWindow(0.0, 0.5, 8)])
    wins = build_spectrum(spec)
    full = prepare_initial(wins, 0, 1, 2)
    assert full.members().shape == (2 * 8, 8)
    assert np.allclose(full.weights, 1 / 8)
    assert full.subspace_entropy == pytest.approx(np.log(8))
    half = prepare_initial(wins, 0, 1, 2, fill="half")
    assert half.members().shape[1] == 4
    # occupied levels are the lowest half
    occupied = np.nonzero(np.abs(half.members()).sum(axis=1) > 0)[0]
    assert set(occupied) == {8 + i for i in range(4)}  # k=1 block, first 4 levels


@pytest.mark.parametrize("level", [-1, 2])
def test_prepare_initial_refuses_a_level_outside_the_system(level):
    wins = build_spectrum(BathSpec([EnergyWindow(0.0, 0.5, 8)]))
    with pytest.raises(ConfigurationError, match=f"unknown system level {level}$"):
        prepare_initial(wins, 0, level, 2)


def test_propagate_identity_at_origin_and_frozen_when_uncoupled():
    real = two_band_realization(v0=4, v1=5, lam=0.0, seed=4)
    ens = prepare_initial(real.windows, 0, 1, 2)
    t_grid = np.linspace(0.0, 8.0, 5)
    pops = run_exact(spin(), real, ens, t_grid).populations
    p0, _ = coarse_grain(ens.members(), ens.weights, 2, real.windows)
    assert np.allclose(pops[0], p0.T.ravel(), atol=1e-12)
    assert np.allclose(pops[0], pops[-1], atol=1e-12)
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        run_exact(spin(), real, ens, t_grid[::-1])


def test_propagate_rabi_oscillation_against_two_level_oracle():
    real = tiny_realization(b=0.6)
    lam, b = 0.05, 0.6
    ens = prepare_initial(real.windows, 0, 1, 2)
    t_grid = np.linspace(0.0, 40.0, 81)
    traj = run_exact(spin(), real, ens, t_grid)
    # column 1: level 1 of window 0
    for t, p in zip(t_grid, traj.populations[:, 1]):
        assert p == pytest.approx(np.cos(lam * b * t) ** 2, abs=1e-10)


def test_propagate_conserves_norm_and_energy():
    real = two_band_realization(v0=30, v1=40, seed=5)
    model = assemble(np.array([0.0, 1.0]), [SIGMA_X], real)
    assert len(model) == 2
    rng = np.random.default_rng(8)
    for index, h in model:
        # members with amplitudes only inside the sector
        members = random_members(rng, 1, index.size, 3)
        prop = exact._SegmentPropagator(index, h, 2 * 70)
        e0 = None
        for psi in prop.states(prop.prepare(members), np.linspace(0.0, 50.0, 6)):
            assert not np.any(np.delete(psi, index, axis=0))
            assert np.max(np.abs(np.linalg.norm(psi, axis=0) - 1.0)) < 1e-12
            energy = np.real(np.sum(psi[index].conj() * (h @ psi[index]), axis=0))
            if e0 is None:
                e0 = energy
            assert np.max(np.abs(energy - e0) / np.abs(e0)) < 1e-8


def test_coarse_grain_initial_state_and_normalization():
    real = two_band_realization(v0=10, v1=15, seed=6)
    ens = prepare_initial(real.windows, 0, 1, 2)
    p, blocks = coarse_grain(ens.members(), ens.weights, 2, real.windows)
    assert p[1, 0] == pytest.approx(1.0)
    assert p.sum() == pytest.approx(1.0)
    assert np.trace(blocks[0]).real == pytest.approx(1.0)


def test_mutual_information_zero_for_product_and_bounded():
    real = two_band_realization(v0=12, v1=18, seed=7)
    ens = prepare_initial(real.windows, 0, 1, 2)
    d_b = sum(w.volume for w in real.windows)
    mi0 = quantum_mutual_information(ens.members(), ens.weights, 2, d_b, ens.subspace_entropy)
    assert abs(mi0) < 1e-10
    traj = run_exact(spin(), real, ens, np.array([0.0, 30.0, 80.0]), mi_stride=1)
    assert traj.meta["mi_samples"] == 3
    for mi in traj.mi:
        assert -1e-10 <= mi <= 2 * np.log(2) + 1e-10


def von_neumann(rho):
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-300]
    return float(-np.sum(w * np.log(w)))


def dense_mutual_information(psi, weights, d_s, d_b):
    """Reference (I, S(rho)) from the full density matrix and explicit partial traces."""
    rho = (psi * weights) @ psi.conj().T
    rho4 = rho.reshape(d_s, d_b, d_s, d_b)
    rho_s = np.einsum("aibi->ab", rho4)
    rho_b = np.einsum("aiaj->ij", rho4)
    s_rho = von_neumann(rho)
    return von_neumann(rho_s) + von_neumann(rho_b) - s_rho, s_rho


def random_members(rng, d_s, d_b, m):
    psi = rng.standard_normal((d_s * d_b, m)) + 1j * rng.standard_normal((d_s * d_b, m))
    return psi / np.linalg.norm(psi, axis=0)


@pytest.mark.parametrize("d_s, d_b, m", [
    (2, 30, 5),   # Gram matrix 10 x 10 against d_b = 30
    (2, 10, 5),   # d_s m = d_b
    (2, 12, 9),   # rho_B 12 x 12 against d_s m = 18
    (3, 20, 4),
    (3, 7, 6),
])
def test_mutual_information_matches_dense_partial_traces(d_s, d_b, m):
    rng = np.random.default_rng(d_s * 1000 + d_b * 10 + m)
    psi = random_members(rng, d_s, d_b, m).reshape(d_s, d_b, m)
    psi[1:, :, 0] = 0.0          # member 0 lives on system level 0 only
    psi[:, : d_b // 2, 1] = 0.0  # member 1 misses the lower half of the bath
    psi = psi.reshape(d_s * d_b, m)
    psi /= np.linalg.norm(psi, axis=0)
    weights = rng.random(m) ** 2
    weights[-1] = 0.0
    weights /= weights.sum()
    ref, s_rho = dense_mutual_information(psi, weights, d_s, d_b)
    mi = quantum_mutual_information(psi, weights, d_s, d_b, s_rho)
    assert abs(mi - ref) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    d_s=st.integers(2, 4),
    d_b=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 1e-3),
)
def test_mutual_information_gram_route_matches_dense_reference(d_s, d_b, seed, weights):
    weights = np.array(weights) / np.sum(weights)
    psi = random_members(np.random.default_rng(seed), d_s, d_b, weights.size)
    ref, s_rho = dense_mutual_information(psi, weights, d_s, d_b)
    mi = quantum_mutual_information(psi, weights, d_s, d_b, s_rho)
    assert abs(mi - ref) <= 1e-12
    assert -1e-12 <= mi <= 2 * np.log(min(d_s, d_b)) + 1e-12


def test_quantum_mi_upper_bounds_coarse_grained_mi():
    real = two_band_realization(v0=20, v1=30, seed=9)
    system = spin()
    ens = prepare_initial(real.windows, 0, 1, 2)
    traj = run_exact(system, real, ens, np.linspace(0.0, 120.0, 25), mi_stride=1)
    # 20 members of a 2-level system against d_b = 50: the Gram matrix is 40 x 40
    assert traj.meta["mi_samples"] == 25
    assert traj.meta["mi_gram_dim"] == 40
    k_of = np.array([k for (k, _) in traj.joint_index])
    b_of = np.array([key[0] for (_, key) in traj.joint_index])
    pair_index = list(zip(k_of, b_of))
    for n in range(len(traj.times)):
        p = traj.populations[n]
        p_sys = np.zeros(2)
        np.add.at(p_sys, k_of, p)
        p_bath = np.zeros(2)
        np.add.at(p_bath, b_of, p)
        i_cg = mutual_information_cg(p, p_sys, p_bath, pair_index)
        assert traj.mi[n] >= i_cg - 1e-9


def test_run_exact_quench_protocol_continuity():
    real = two_band_realization(v0=15, v1=25, seed=12)
    system = SystemSpec(
        np.array([0.0, 1.0]),
        [[SIGMA_X]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(10.0, [0.0, 2.0])],
    )
    ens = prepare_initial(real.windows, 0, 1, 2)
    traj = run_exact(system, real, ens, np.linspace(0.0, 20.0, 41))
    assert traj.meta["mi_samples"] == 0 and traj.meta["mi_gram_dim"] == 0
    assert np.allclose(traj.populations.sum(axis=1), 1.0, atol=1e-10)
    n_q = int(np.argmin(np.abs(traj.times - 10.0)))
    assert np.allclose(traj.level_energies[n_q], [0.0, 2.0])
    jump = np.max(np.abs(traj.populations[n_q] - traj.populations[n_q - 1]))
    assert jump < 0.05


def test_run_exact_rejects_multiple_baths():
    real = two_band_realization(v0=5, v1=5, seed=13)
    system = SystemSpec(np.array([0.0, 1.0]), [[SIGMA_X], [SIGMA_X]])
    ens = prepare_initial(real.windows, 0, 1, 2)
    with pytest.raises(ConfigurationError):
        run_exact(system, real, ens, np.linspace(0.0, 1.0, 3))


# -- sector split against the dense Hamiltonian --------------------------------


def dense_hamiltonian(levels, s_ops, realization):
    """Reference H = H_S (x) 1 + lam sum_a S^a (x) B^a + 1 (x) H_B, assembled densely."""
    d_b = realization.matrices[0].shape[0]
    h = np.kron(np.diag(levels), np.eye(d_b)).astype(complex)
    h += np.kron(np.eye(len(levels)), np.diag(realization.microlevels()))
    for s_op, b_op in zip(s_ops, realization.matrices):
        h += realization.lam * np.kron(s_op, b_op)
    return h


def dense_reference_states(system, realization, ensemble, t_grid):
    """Member matrices on the grid from one dense eigh of H per protocol segment."""
    segs = system.protocol
    ends = [seg.t_start for seg in segs[1:]] + [np.inf]
    psi, states = ensemble.members(), []
    for seg, t_end in zip(segs, ends):
        evals, evecs = np.linalg.eigh(dense_hamiltonian(seg.levels, system.couplings[0], realization))
        phi = evecs.conj().T @ psi

        def evolve(dt, evals=evals, evecs=evecs, phi=phi):
            return evecs @ (np.exp(-1j * evals * dt)[:, None] * phi)

        for t in t_grid[(t_grid >= seg.t_start - 1e-12) & (t_grid < t_end - 1e-12)]:
            states.append(evolve(t - seg.t_start))
        if np.isfinite(t_end):
            psi = evolve(t_end - seg.t_start)
    return states


def three_window_realization():
    # the (0, 2) block has zero mean and zero variance: windows 0 and 2 never couple
    spec = BathSpec([EnergyWindow(0.0, 0.5, 10), EnergyWindow(1.0, 0.5, 14),
                     EnergyWindow(2.0, 0.5, 18)])
    coup = CouplingSpec(lam=0.05, block_mean={(0, 1): 0.4, (1, 2): 0.3 + 0.1j},
                        variance=0.0, seed=5)
    return sample_coupling(coup, build_spectrum(spec))


SECTOR_CASES = {
    # sigma_x between two windows: (1,E0)+(0,E1) and (0,E0)+(1,E1)
    "two-window-split": (lambda: two_band_realization(v0=20, v1=30, seed=21),
                         SIGMA_X, [50, 50]),
    # (1,E0)+(0,E1)+(1,E2) and (0,E0)+(1,E1)+(0,E2)
    "uncoupled-window-pair": (three_window_realization, SIGMA_X, [42, 42]),
    # the diagonal element links (k,E0) to (k,E1): one component
    "diagonal-element-merges": (lambda: two_band_realization(v0=20, v1=30, seed=22),
                                np.array([[0.5, 1.0], [1.0, -0.5]], dtype=complex), [100]),
}


@pytest.mark.parametrize("case", list(SECTOR_CASES))
def test_sector_blocks_are_the_dense_hamiltonian(case):
    make_realization, s_op, dims = SECTOR_CASES[case]
    real = make_realization()
    levels = np.array([0.0, 1.0])
    model = assemble(levels, [s_op], real)
    dense = dense_hamiltonian(levels, [s_op], real)
    assert [index.size for index, _ in model] == dims
    outside = np.ones(dense.shape, dtype=bool)
    for index, h in model:
        assert np.array_equal(h, dense[np.ix_(index, index)])
        outside[np.ix_(index, index)] = False
    assert not np.any(dense[outside])


@pytest.mark.parametrize("case", list(SECTOR_CASES))
def test_run_exact_matches_dense_reference_through_quench(case):
    make_realization, s_op, dims = SECTOR_CASES[case]
    real = make_realization()
    system = SystemSpec(
        np.array([0.0, 1.0]),
        [[s_op]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(15.0, [0.0, 1.3])],
    )
    ens = prepare_initial(real.windows, 0, 1, 2)
    t_grid = np.linspace(0.0, 40.0, 41)
    traj = run_exact(system, real, ens, t_grid, mi_stride=4)
    assert traj.meta["sector_dims"] == dims
    assert traj.meta["dimension"] == sum(dims)
    d_b = real.matrices[0].shape[0]
    for n, psi in enumerate(dense_reference_states(system, real, ens, t_grid)):
        pops, _ = coarse_grain(psi, ens.weights, 2, real.windows)
        assert np.max(np.abs(traj.populations[n] - pops.T.ravel())) <= 1e-10
        if n % 4 == 0:
            mi = quantum_mutual_information(psi, ens.weights, 2, d_b, ens.subspace_entropy)
            assert abs(traj.mi[n // 4] - mi) <= 1e-10


def test_run_exact_never_diagonalizes_an_unoccupied_sector(monkeypatch):
    real = two_band_realization(v0=20, v1=30, seed=21)
    system = SystemSpec(
        np.array([0.0, 1.0]),
        [[SIGMA_X]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(5.0, [0.0, 1.3])],
    )
    ens = prepare_initial(real.windows, 0, 1, 2)
    occupied, unoccupied = sector_components([SIGMA_X], real)[::-1]
    assert np.any(ens.members()[occupied]) and not np.any(ens.members()[unoccupied])
    diagonalized = []
    eigh = exact._eigh

    def recording_eigh(h):
        # a copy, in case the solver ever overwrites its input
        diagonalized.append(h.copy())
        return eigh(h)

    monkeypatch.setattr(exact, "_eigh", recording_eigh)
    traj = run_exact(system, real, ens, np.linspace(0.0, 10.0, 11))
    # one block per segment, each the occupied component's
    assert len(diagonalized) == 2
    for h, levels in zip(diagonalized, ([0.0, 1.0], [0.0, 1.3])):
        (index, block), = assemble(np.array(levels), [SIGMA_X], real, components=[occupied])
        assert np.array_equal(h, block)
    assert traj.meta["diag_dims"] == [occupied.size, occupied.size]
    assert traj.meta["sector_dims"] == [unoccupied.size, occupied.size]


def test_no_hamiltonian_block_outlives_its_diagonalization(monkeypatch):
    # a d x d block held through the propagation would raise the peak memory
    real, system, ens = quench_walker_case("subset")
    received, alive = [], []
    eigh, blocks = exact._eigh, exact._SegmentPropagator.blocks

    def recording_eigh(h):
        received.append(weakref.ref(h))
        return eigh(h)

    def checking_blocks(self, *args):
        alive.append([ref() is not None for ref in received])
        return blocks(self, *args)

    monkeypatch.setattr(exact, "_eigh", recording_eigh)
    monkeypatch.setattr(exact._SegmentPropagator, "blocks", checking_blocks)
    run_exact(system, real, ens, np.linspace(0.0, 16.0, 17))
    assert alive == [[False], [False, False]]


# -- batched propagation -------------------------------------------------------


def batch_of(monkeypatch, points, members, occupied_dim):
    """Set the batch byte budget so that a batch holds ``points`` grid points."""
    monkeypatch.setattr(exact, "BATCH_BYTES", points * 16 * members * occupied_dim)


WALKER_CASES = {
    # sigma_x between two windows: the members fill (1, E0) + (0, E1), half the basis,
    # gathered and scattered by index
    "subset": (lambda: two_band_realization(v0=20, v1=30, seed=21), SIGMA_X, 1),
    # one sector covering the whole basis
    "whole": (lambda: two_band_realization(v0=20, v1=30, seed=22),
              np.array([[0.5, 1.0], [1.0, -0.5]], dtype=complex), 1),
}


def occupied_sector(s_op, real, ens):
    """The one component of sector_components that holds the members."""
    (sector,) = [c for c in sector_components([s_op], real) if np.any(ens.members()[c])]
    return sector


@pytest.mark.parametrize("case", list(WALKER_CASES))
def test_batched_walker_matches_dense_reference_at_every_point(monkeypatch, case):
    make_realization, s_op, level = WALKER_CASES[case]
    real = make_realization()
    system = SystemSpec(
        np.array([0.0, 1.0]),
        [[s_op]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(7.0, [0.0, 1.3])],
    )
    ens = prepare_initial(real.windows, 0, level, 2)
    sector = occupied_sector(s_op, real, ens)
    assert (sector.size == ens.members().shape[0]) == (case == "whole")
    batch_of(monkeypatch, 3, ens.members().shape[1], sector.size)
    # 7 points before the quench and 10 after: neither a multiple of the batch
    t_grid = np.linspace(0.0, 16.0, 17)
    traj = run_exact(system, real, ens, t_grid, mi_stride=1)
    assert np.array_equal(traj.mi_times, t_grid)
    d_b = real.matrices[0].shape[0]
    for t, mi, ref in zip(t_grid, traj.mi, dense_reference_states(system, real, ens, t_grid)):
        assert abs(mi - dense_mutual_information(ref, ens.weights, 2, d_b)[0]) <= 1e-12, t
    # each segment's start point is the carried members themselves; then
    # batches of 3 + 3 and 3 + 3 + 3 points, and the carry across the quench
    assert traj.meta["propagate_products"] == 2 + 3 + 1


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("case", list(WALKER_CASES))
def test_gather_is_the_product_with_the_initial_members(case, level):
    make_realization, s_op, _ = WALKER_CASES[case]
    real = make_realization()
    ens = prepare_initial(real.windows, 0, level, 2)
    psi = ens.members()
    sector = occupied_sector(s_op, real, ens)
    (index, h), = assemble(np.array([0.0, 1.0]), [s_op], real, components=[sector])
    prop = exact._SegmentPropagator(index, h, psi.shape[0])
    assert np.array_equal(np.flatnonzero(np.any(psi != 0, axis=1)), ens.rows)
    gathered = prop.gather(ens)
    assert gathered.flags.c_contiguous
    # one nonzero amplitude 1 per member: the product only copies rows of conj(V)
    assert np.array_equal(gathered, prop.prepare(psi[index]))


def quench_walker_case(case):
    """A WALKER_CASES realization, operator and ensemble, with a quench at t = 7."""
    make_realization, s_op, level = WALKER_CASES[case]
    real = make_realization()
    system = SystemSpec(
        np.array([0.0, 1.0]),
        [[s_op]],
        [ProtocolSegment(0.0, [0.0, 1.0]), ProtocolSegment(7.0, [0.0, 1.3])],
    )
    return real, system, prepare_initial(real.windows, 0, level, 2)


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("case", list(WALKER_CASES))
def test_run_exact_blocks_match_the_dense_reference_at_every_point(monkeypatch, case, small):
    real, system, ens = quench_walker_case(case)
    if small:
        # column chunks of 7 columns and batches of 2 or 3 points
        monkeypatch.setattr(exact, "FORM_BYTES", 7 * 16 * ens.members().shape[0] // 2)
        monkeypatch.setattr(exact, "PHASE_BYTES", 2 * 16 * ens.members().shape[0])
    t_grid = np.linspace(0.0, 16.0, 17)
    traj = run_exact(system, real, ens, t_grid)
    # "whole": cells (0, 0), (0, 1), (1, 1) of each window; "subset": (1, 1) of
    # window 0 and (0, 0) of window 1
    assert traj.meta["qf_cells"] == (6 if case == "whole" else 2)
    # the quench carry is the only member matrix built
    assert traj.meta["propagate_products"] == 1
    for n, psi in enumerate(dense_reference_states(system, real, ens, t_grid)):
        pops, blocks = coarse_grain(psi, ens.weights, 2, real.windows)
        assert np.max(np.abs(traj.populations[n] - pops.T.ravel())) <= 1e-12
        for j in range(2):
            assert np.max(np.abs(traj.blocks[(j,)][n] - blocks[j])) <= 1e-12
    if case == "whole":
        # the coherences are not trivially zero
        assert np.max(np.abs(traj.blocks[(0,)][:, 0, 1])) > 1e-4


def test_three_level_run_matches_the_dense_reference_at_every_point():
    # every pair of levels coupled: the coherence cells k < l of one sector
    s_op = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]], dtype=complex)
    real = two_band_realization(v0=12, v1=18, lam=0.05, seed=23)
    system = SystemSpec(
        np.array([0.0, 1.0, 2.0]),
        [[s_op]],
        [ProtocolSegment(0.0, [0.0, 1.0, 2.0]), ProtocolSegment(7.0, [0.0, 1.2, 2.1])],
    )
    ens = prepare_initial(real.windows, 0, 2, 3)
    t_grid = np.linspace(0.0, 16.0, 17)
    traj = run_exact(system, real, ens, t_grid)
    assert traj.meta["diag_dims"] == [3 * 30, 3 * 30]
    # (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2) of each window
    assert traj.meta["qf_cells"] == 12
    for n, psi in enumerate(dense_reference_states(system, real, ens, t_grid)):
        pops, blocks = coarse_grain(psi, ens.weights, 3, real.windows)
        assert np.max(np.abs(traj.populations[n] - pops.T.ravel())) <= 1e-12
        for j in range(2):
            assert np.max(np.abs(traj.blocks[(j,)][n] - blocks[j])) <= 1e-12
    for k, l in [(0, 1), (0, 2), (1, 2)]:
        assert np.max(np.abs(traj.blocks[(0,)][:, k, l])) > 1e-4


def test_mutual_information_samples_leave_the_populations_as_they_are():
    real, system, ens = quench_walker_case("subset")
    t_grid = np.linspace(0.0, 16.0, 17)
    plain = run_exact(system, real, ens, t_grid)
    sampled = run_exact(system, real, ens, t_grid, mi_stride=3)
    assert sampled.meta["mi_samples"] == 6
    assert np.array_equal(sampled.populations, plain.populations)
    for key, series in plain.blocks.items():
        assert np.array_equal(sampled.blocks[key], series)


def test_run_exact_calls_the_traced_functions_per_level_set_segment_start_and_sample(
        monkeypatch):
    # perfbench/trace.py times these three through their module attributes
    real, system, ens = quench_walker_case("subset")
    calls = dict.fromkeys(["assemble", "coarse_grain", "quantum_mutual_information"], 0)
    for name in calls:
        def counted(*args, _name=name, _call=getattr(exact, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(exact, name, counted)
    traj = run_exact(system, real, ens, np.linspace(0.0, 16.0, 17), mi_stride=3)
    # two level sets, two segment starts (t = 0 and the quench at t = 7)
    assert calls == {"assemble": 2, "coarse_grain": 2,
                     "quantum_mutual_information": traj.meta["mi_samples"]}


def test_eigenvectors_off_unitary_are_refused(monkeypatch):
    real, system, ens = quench_walker_case("whole")
    eigh = exact._eigh
    monkeypatch.setattr(exact, "_eigh", lambda h: (eigh(h)[0], eigh(h)[1] * (1 + 1e-6)))
    with pytest.raises(NumericalFailure, match=r"eigenvectors off unitary by 2\.0\de-06 "
                                               r"in the segment from t=0$"):
        run_exact(system, real, ens, np.linspace(0.0, 16.0, 17))


def test_a_block_trace_off_the_member_norms_is_refused(monkeypatch):
    real, system, ens = quench_walker_case("whole")
    blocks = exact._SegmentPropagator.blocks

    def inflated(self, phi0, weights, dts, cells, out):
        deviation = blocks(self, phi0, weights, dts, cells, out)
        out[dts >= 3.0] *= 1 + 1e-6
        return deviation

    monkeypatch.setattr(exact._SegmentPropagator, "blocks", inflated)
    with pytest.raises(NumericalFailure, match=r"block trace off the member norms by "
                                               r"1\.0\de-06 at t=3$"):
        run_exact(system, real, ens, np.linspace(0.0, 16.0, 17))


def test_norm_drift_names_the_first_bad_point_of_a_batch(monkeypatch):
    real = two_band_realization(v0=20, v1=30, seed=21)
    ens = prepare_initial(real.windows, 0, 1, 2)
    eigh = exact._eigh

    def leaky_eigh(h):
        # every block trace grows as exp(1.5e-9 t): its drift first passes 1e-8 at t = 7
        evals, evecs = eigh(h)
        return evals + 0.75e-9j, evecs

    monkeypatch.setattr(exact, "_eigh", leaky_eigh)
    # the blocks of the 50 occupied amplitudes in batches 1-4, 5-8, 9-12:
    # t = 7 sits inside the batch 5, 6, 7, 8
    monkeypatch.setattr(exact, "PHASE_BYTES", 4 * 16 * 50)
    with pytest.raises(NumericalFailure, match=r"block trace off the member norms by "
                                               r"1\.05e-08 at t=7$"):
        run_exact(spin(), real, ens, np.linspace(0.0, 12.0, 13))


def test_check_norms_refuses_a_nan_member(monkeypatch):
    real = two_band_realization(v0=4, v1=5, seed=4)
    ens = prepare_initial(real.windows, 0, 1, 2)
    t_grid = np.linspace(0.0, 3.0, 4)
    run_exact(spin(), real, ens, t_grid)
    # a zero amplitude of member 1, in the occupied window
    members = ens.members()
    members[9, 1] = np.nan
    monkeypatch.setattr(ens, "members", lambda: members)
    with pytest.raises(NumericalFailure, match="member norm drifted by nan at t=0$"):
        run_exact(spin(), real, ens, t_grid)


def quench_ci_exact():
    """The exact solver's trajectory of preset quench-ci (no MI) and its ledger's sigma(0)."""
    cfg = preset("quench-ci")
    cfg["solvers"], cfg["mi_stride"] = ["exact"], 0
    runner = ScenarioRun(build_scenario(cfg))
    traj = runner.run_solver("exact")
    return runner.scenario, traj, build_ledger(traj).entropy_production_rate[0]


def test_exact_first_point_is_the_initial_ensemble_itself(monkeypatch):
    scenario, traj, sigma0 = quench_ci_exact()
    outside = [n for n, (_, key) in enumerate(traj.joint_index)
               if key != scenario.initial_windows]
    assert np.all(traj.populations[0, outside] == 0.0)
    # so sigma(0) does not depend on how the grid points are batched, and
    # another eigensolver moves it only by the round-off of the next points
    monkeypatch.setattr(exact, "BATCH_BYTES", 1)
    assert quench_ci_exact()[2] == sigma0
    monkeypatch.setattr(exact, "_eigh", np.linalg.eigh)
    assert quench_ci_exact()[2] == pytest.approx(sigma0, rel=1e-9)


def test_mutual_information_of_the_preset_initial_state_starts_at_zero():
    # fig2-row1-col1 at volumes / 4 (d = 500), sampled at t = 0, 25, ..., 100
    cfg = scale_volumes(preset("fig2-row1-col1"), 4)
    cfg["solvers"], cfg["mi_stride"] = ["exact"], 50
    traj = ScenarioRun(build_scenario(cfg)).run_solver("exact")
    assert traj.meta["mi_samples"] == 5 and traj.mi_times[0] == 0.0
    assert abs(traj.mi[0]) <= 1e-10
    assert np.all(traj.mi >= -1e-10)
