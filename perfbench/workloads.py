"""Seeded scenario configurations for the four benchmark workloads.

Each generator maps a workload seed to a plain configuration dict in the
schema ``finitebath.cli.run`` reads.  The seed becomes the scenario's master
seed; the library never sees anything else from the benchmark.  Problem
sizes (dimensions, window counts, volumes up to a small jitter, grids) are
fixed per workload so that the work done, and hence the timings, do not
depend on the seed.
"""

from __future__ import annotations

import copy

import numpy as np

# Volume of the initial window and the coupling of the ``twobath`` preset;
# ``emme-grid`` rescales lambda so that its rates out of the initial window
# match that preset.
TWOBATH_VOLUME = 50.0
TWOBATH_LAMBDA = 3.0e-3


def fig2_exact(seed: int, presets) -> dict:
    """``fig2-row1-col1`` at desk volume (d = 2000), all five solvers, no MI."""
    cfg = presets.preset("fig2-row1-col1")
    cfg["seed"] = int(seed)
    cfg["solvers"] = ["exact", "emme-markov", "emme-redfield", "bms", "analytic"]
    cfg["mi_stride"] = 0
    return cfg


def quench_exact(seed: int, presets) -> dict:
    """``quench-ci`` (d = 350, basis ensemble, two segments, MI every 4th point).

    The output grid is sampled at dt = 0.5 instead of the preset's 0.25: the
    same protocol and times with half the points (481, 121 MI samples), so
    that one run is short and many fit in one invocation.
    """
    cfg = presets.preset("quench-ci")
    cfg["seed"] = int(seed)
    cfg["t_grid"]["dt"] = 0.5
    cfg["solvers"] = ["exact", "emme-markov"]
    return cfg


def emme_grid(seed: int, presets=None) -> dict:
    """Two baths x 8 windows (64 conditioned blocks) with volumes up to ~1e6.

    Volumes grow geometrically with energy; the top volume of each bath is
    jittered by the seed within +-3%.  lambda is scaled by 1/sqrt(V_0 / 50),
    V_0 the initial window's volume, so that the rates out of the initial
    window equal those of ``twobath``.  Rates are the ensemble closed form,
    which needs only window centers and volumes.
    """
    rng = np.random.default_rng(seed)
    baths = []
    for growth in (1.30, 1.32):
        v_top = 1.2e6 * rng.uniform(0.97, 1.03)
        volumes = [int(round(v_top * growth ** (j - 7))) for j in range(8)]
        lam = TWOBATH_LAMBDA / np.sqrt(volumes[0] / TWOBATH_VOLUME)
        baths.append({
            "windows": [
                {"center": float(j), "width": 0.5, "volume": v}
                for j, v in enumerate(volumes)
            ],
            "spectrum": "regular",
            "coupling": {"lambda": float(lam), "variance": 1.0, "block_mean": 0.0},
        })
    return {
        "seed": int(seed),
        "t_grid": {"t_max": 24.0, "dt": 1.0},
        "system": {"levels": [0.0, 1.0], "coupling": "sigma_x"},
        "baths": baths,
        "initial": {"system_level": 1, "bath_windows": [0, 0], "fill": "full"},
        "solvers": ["emme-markov", "emme-redfield"],
        "rates_method": "rmt",
    }


def rates_quadrature(seed: int, presets=None) -> dict:
    """One bath, 4 windows, random-uniform spectrum, two real coupling operators.

    Rates come from quadrature of the sampled microcanonical correlation
    functions: 12 ordered window pairs x 4 operator pairs = 48 correlations.
    The volumes are kept small enough that one run takes about 2 s, so
    that many runs fit in one invocation.
    """
    volumes = [100, 140, 180, 225]
    return {
        "seed": int(seed),
        "t_grid": {"t_max": 100.0, "dt": 0.5},
        "system": {
            "levels": [0.0, 1.0],
            "coupling": [
                [[0.0, 1.0], [1.0, 0.0]],
                [[0.5, 1.0], [1.0, -0.5]],
            ],
        },
        "baths": [{
            "windows": [
                {"center": float(j), "width": 0.5, "volume": v}
                for j, v in enumerate(volumes)
            ],
            "spectrum": "random-uniform",
            # a nonzero block mean makes the cross-operator correlations
            # decay like the diagonal ones; with zero mean they are pure
            # sampling noise and quadrature refuses some of them
            "coupling": {"lambda": 3.0e-3, "variance": 1.0, "block_mean": 0.5},
        }],
        "initial": {"system_level": 1, "bath_windows": [0], "fill": "full"},
        "solvers": ["emme-markov", "emme-redfield", "bms"],
        "rates_method": "quadrature",
    }


# acceptance-suite scale of the exact workloads, which sets the EMME-vs-exact
# tolerance of the correctness gate
EXACT_SCALE = {"fig2-exact": "desk", "quench-exact": "ci"}

WORKLOADS = {
    "fig2-exact": fig2_exact,
    "quench-exact": quench_exact,
    "emme-grid": emme_grid,
    "rates-quadrature": rates_quadrature,
}


def make_config(workload: str, seed: int, presets) -> dict:
    """The configuration of ``workload`` for ``seed`` (a fresh deep copy)."""
    return copy.deepcopy(WORKLOADS[workload](seed, presets))
