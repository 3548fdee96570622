"""Named scenario configurations.

Every preset is a plain dict in the schema the CLI reads from JSON files
(``cli.SCHEMA``, whose defaults fill the keys a preset leaves out), so a
preset can be dumped, edited, and re-run.  Energies are in units of the
system splitting, times in its inverse.
"""

from __future__ import annotations

import copy

from .errors import ConfigurationError

_FIG2_BASE = {
    "seed": 20201117,
    "t_grid": {"t_max": 100.0, "dt": 0.5},
    "system": {"levels": [0.0, 1.0]},
    "baths": [
        {
            "windows": [
                {"center": 0.0, "width": 0.5, "volume": 400},
                {"center": 1.0, "width": 0.5, "volume": 600},
            ],
            "coupling": {"lambda": 3.0e-3, "variance": 1.0, "block_mean": 0.0},
        }
    ],
    "initial": {"system_level": 1, "bath_windows": [0], "fill": "full"},
    "solvers": ["exact", "emme-markov", "emme-redfield", "bms", "analytic"],
}


def _fig2(volumes, spectrum, fill, seed_shift=0):
    cfg = copy.deepcopy(_FIG2_BASE)
    cfg["seed"] += seed_shift
    for volume, win in zip(volumes, cfg["baths"][0]["windows"]):
        win["volume"] = volume
    cfg["baths"][0]["spectrum"] = spectrum
    cfg["initial"]["fill"] = fill
    return cfg


def _quench():
    return {
        "seed": 20201118,
        "t_grid": {"t_max": 240.0, "dt": 0.25},
        "system": {
            "levels": [0.0, 1.0],
            "protocol": [
                {"t_start": 0.0, "levels": [0.0, 1.0]},
                {"t_start": 120.0, "levels": [0.0, 2.0]},
            ],
        },
        "baths": [
            {
                "windows": [
                    {"center": 0.0, "width": 0.5, "volume": 100},
                    {"center": 1.0, "width": 0.5, "volume": 200},
                    {"center": 2.0, "width": 0.5, "volume": 400},
                ],
                # the published quench scenario leaves lambda unstated; the
                # baseline value 3e-3 is our documented choice
                "coupling": {"lambda": 3.0e-3, "variance": 1.0, "block_mean": 0.0},
            }
        ],
        "initial": {"system_level": 1, "bath_windows": [0], "fill": "full"},
        "solvers": ["exact", "emme-markov"],
        "mi_stride": 4,
    }


def _appf(lam):
    cfg = _fig2((20, 40), "regular", "full", seed_shift=7)
    cfg["baths"][0]["coupling"]["lambda"] = lam
    cfg["solvers"] = ["exact", "emme-markov", "emme-redfield"]
    return cfg


def _twobath():
    return {
        "seed": 20201119,
        "t_grid": {"t_max": 3200.0, "dt": 8.0},
        "system": {"levels": [0.0, 1.0]},
        "baths": [
            {
                "windows": [
                    {"center": 0.0, "width": 0.5, "volume": 40},
                    {"center": 1.0, "width": 0.5, "volume": 60},
                ],
                "coupling": {"lambda": 3.0e-3, "variance": 1.0, "block_mean": 0.0},
            },
            {
                "windows": [
                    {"center": 0.0, "width": 0.5, "volume": 30},
                    {"center": 1.0, "width": 0.5, "volume": 50},
                ],
                "coupling": {"lambda": 3.0e-3, "variance": 1.0, "block_mean": 0.0},
            },
        ],
        "initial": {"system_level": 1, "bath_windows": [0, 0], "fill": "full"},
        "solvers": ["emme-markov"],
    }


def scale_volumes(cfg: dict, factor: float) -> dict:
    """Divide every window volume by ``factor`` (at least one level remains)."""
    out = copy.deepcopy(cfg)
    for bath in out["baths"]:
        for win in bath["windows"]:
            win["volume"] = max(1, int(round(win["volume"] / factor)))
    return out


def presets() -> dict[str, dict]:
    """All named scenarios, including CI-scaled variants (volumes / 4)."""
    table: dict[str, dict] = {}
    for row, volumes in (("row1", (400, 600)), ("row2", (600, 400))):
        for col, (spectrum, fill) in (
            ("col1", ("regular", "full")),
            ("col2", ("random-uniform", "full")),
            ("col3", ("random-uniform", "half")),
        ):
            table[f"fig2-{row}-{col}"] = _fig2(volumes, spectrum, fill)
    table["quench"] = _quench()
    table["appf-weak"] = _appf(5.0e-4)
    table["appf-base"] = _appf(3.0e-3)
    table["appf-strong"] = _appf(1.0e-2)
    table["twobath"] = _twobath()

    for name in [n for n in table if n.startswith("fig2")] + ["quench"]:
        table[f"{name}-ci"] = scale_volumes(table[name], 4.0)
    return table


def preset(name: str) -> dict:
    table = presets()
    if name not in table:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(table))}"
        )
    return copy.deepcopy(table[name])
