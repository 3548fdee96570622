import numpy as np
import pytest

from finitebath.bath import (
    BathSpec,
    CouplingSpec,
    EnergyWindow,
    build_spectrum,
    sample_coupling,
    window_slices,
)
from finitebath.errors import ConfigurationError

from conftest import two_band_realization


def test_regular_grid_matches_arithmetic_formula():
    spec = BathSpec([EnergyWindow(1.0, 0.5, 4)], "regular")
    (win,) = build_spectrum(spec)
    assert np.allclose(win.microlevels, [0.75, 0.875, 1.0, 1.125])


def test_regular_single_level_sits_at_lower_edge():
    spec = BathSpec([EnergyWindow(2.0, 0.5, 1)], "regular")
    (win,) = build_spectrum(spec)
    assert np.allclose(win.microlevels, [1.75])


def test_random_uniform_mean_and_containment():
    delta, volume = 0.5, 1000
    spec = BathSpec([EnergyWindow(1.0, delta, volume)], "random-uniform", seed=5)
    (win,) = build_spectrum(spec)
    # empirical mean of V i.i.d. uniforms; tolerance 3 delta / (2 sqrt(12 V))
    assert abs(np.mean(win.microlevels) - 1.0) <= 3 * delta / (2 * np.sqrt(12 * volume))
    assert np.all(win.microlevels >= win.lo) and np.all(win.microlevels < win.hi)
    assert np.all(np.diff(win.microlevels) >= 0)


def test_random_uniform_deterministic_given_seed():
    spec = BathSpec([EnergyWindow(0.0, 0.5, 50)], "random-uniform", seed=3)
    a = build_spectrum(spec)[0].microlevels
    b = build_spectrum(spec)[0].microlevels
    assert np.array_equal(a, b)


def test_random_uniform_requires_seed():
    with pytest.raises(ConfigurationError):
        BathSpec([EnergyWindow(0.0, 0.5, 5)], "random-uniform")


def test_window_invariants_over_seeds():
    for seed in range(6):
        spec = BathSpec(
            [EnergyWindow(0.0, 0.5, 40), EnergyWindow(1.0, 0.5, 60), EnergyWindow(2.0, 0.5, 10)],
            "random-uniform",
            seed=seed,
        )
        wins = build_spectrum(spec)
        for w in wins:
            assert len(w.microlevels) == w.volume
            assert np.all((w.microlevels >= w.lo) & (w.microlevels < w.hi))
        for w1, w2 in zip(wins, wins[1:]):
            assert w1.hi <= w2.lo + 1e-15


def test_overlapping_windows_rejected():
    with pytest.raises(ConfigurationError):
        BathSpec([EnergyWindow(0.0, 1.0, 4), EnergyWindow(0.5, 1.0, 4)])


def test_volume_below_one_rejected():
    with pytest.raises(ConfigurationError):
        BathSpec([EnergyWindow(0.0, 0.5, 0)])


def test_realization_volumes_are_float():
    real = two_band_realization(v0=3, v1=4, seed=2)
    assert real.volumes.dtype == np.float64
    assert np.array_equal(real.volumes, [3.0, 4.0])


def test_zero_variance_coupling_is_the_block_mean():
    spec = BathSpec([EnergyWindow(0.0, 0.5, 3), EnergyWindow(1.0, 0.5, 4)])
    wins = build_spectrum(spec)
    b0 = 0.7 - 0.2j
    real = sample_coupling(CouplingSpec(lam=1.0, block_mean=b0, variance=0.0), wins)
    mat = real.matrices[0]
    sl0, sl1 = window_slices(wins)
    assert np.all(mat[sl0, sl1] == b0)
    assert np.all(mat[sl1, sl0] == np.conj(b0))


def test_block_mean_value_is_the_sampled_block_in_both_orders():
    # a constant mean b sits in the upper blocks and conj(b) in the lower ones
    spec = BathSpec([EnergyWindow(float(c), 0.5, v) for c, v in enumerate([2, 3, 4])])
    wins = build_spectrum(spec)
    coup = CouplingSpec(lam=1.0, block_mean=0.3 + 0.4j, variance=0.0)
    mat = sample_coupling(coup, wins).matrices[0]
    slices = window_slices(wins)
    assert coup.block_mean_value(2, 0) == 0.3 - 0.4j
    for i in range(3):
        for j in range(3):
            if i != j:
                assert np.all(mat[slices[i], slices[j]] == coup.block_mean_value(i, j))


def test_sampled_entry_second_moment():
    real = two_band_realization(seed=21)
    sl0, sl1 = window_slices(real.windows)[:2]
    block = real.matrices[0][sl0, sl1]
    n = block.size
    # |c|^2 has unit mean and unit variance for a^2 = 1
    assert abs(np.mean(np.abs(block) ** 2) - 1.0) <= 3.0 / np.sqrt(n)


def test_coupling_hermitian_with_zero_diagonal_blocks():
    real = two_band_realization(v0=40, v1=60, seed=4)
    mat = real.matrices[0]
    assert np.array_equal(mat, mat.conj().T)
    for sl in window_slices(real.windows):
        assert np.all(mat[sl, sl] == 0)


def test_coupling_deterministic_given_seed():
    a = two_band_realization(v0=30, v1=40, seed=9).matrices[0]
    b = two_band_realization(v0=30, v1=40, seed=9).matrices[0]
    assert np.array_equal(a, b)
