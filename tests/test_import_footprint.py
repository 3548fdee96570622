"""scipy submodules load only on the routes that call into them.

Each module imports the bare ``scipy`` package and calls its functions by
qualified name, so scipy's lazy submodule loading defers ``scipy.linalg``,
``scipy.sparse``, ``scipy.integrate`` and ``scipy.special`` to a route's
first call.  ``scipy.integrate`` (which loads ``scipy.optimize``) and
``scipy.sparse`` (the conditioned-state generator) serve only the EMME
integrator route, and ``scipy.sparse.csgraph`` (which loads
``scipy.linalg``) no route at all.  The checks run in a fresh interpreter,
where no other test can have loaded a submodule already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import degenerate_config

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = ("scipy.linalg", "scipy.sparse", "scipy.integrate", "scipy.special",
              "scipy.optimize", "scipy.sparse.csgraph")


def loaded_after(script: str, tmp_path) -> list[str]:
    """The scipy submodules of SUBMODULES loaded once ``script`` has run in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    tail = f"import sys, json; print(json.dumps([m for m in {SUBMODULES!r} if m in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", f"{script}\n{tail}"], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_listing_and_a_refused_config_load_no_scipy_submodule(tmp_path):
    modules = sorted(p.stem for p in (SRC / "finitebath").glob("*.py") if p.stem != "__init__")
    script = f"""
import importlib, json
for name in {modules!r}:
    importlib.import_module("finitebath." + name)
from finitebath import cli, presets
assert cli.main(["list-presets"]) == 0
cfg = presets.preset("fig2-row1-col1-ci")
cfg["solvers"] = ["emme-markov", "magic"]
with open("bad.json", "w") as fh:
    json.dump(cfg, fh)
assert cli.main(["run", "bad.json", "--out", "o"]) == 2
cfg = presets.preset("fig2-row1-col1-ci")
cfg["t_grd"] = cfg.pop("t_grid")
with open("typo.json", "w") as fh:
    json.dump(cfg, fh)
assert cli.main(["run", "typo.json", "--out", "o"]) == 2
"""
    assert loaded_after(script, tmp_path) == []


def test_exact_and_population_route_load_neither_integrate_nor_special(tmp_path):
    script = """
from finitebath import cli, presets
cfg = presets.preset("quench-ci")
cfg["t_grid"]["dt"] = 8.0
cfg["solvers"] = ["exact", "emme-markov"]
assert cli.run(cfg, "out", name="quench") == 0
"""
    loaded = loaded_after(script, tmp_path)
    assert not {"scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse"} & set(loaded)
    # the guard has teeth only if the run reached the route that does load scipy
    assert "scipy.linalg" in loaded


def test_quadrature_rates_and_bms_load_neither_integrate_nor_csgraph(tmp_path):
    # four windows of a sampled bath, two coupling operators, quadrature rates
    script = """
from finitebath import cli
windows = [{"center": float(j), "width": 0.5, "volume": v}
           for j, v in enumerate([60, 80, 100, 120])]
cfg = {
    "seed": 3,
    "t_grid": {"t_max": 20.0, "dt": 1.0},
    "system": {"levels": [0.0, 1.0],
               "coupling": [[[0.0, 1.0], [1.0, 0.0]], [[0.5, 1.0], [1.0, -0.5]]]},
    "baths": [{"windows": windows, "spectrum": "random-uniform",
               "coupling": {"lambda": 3.0e-3, "variance": 1.0, "block_mean": 0.5}}],
    "initial": {"system_level": 1, "bath_windows": [0], "fill": "full"},
    "solvers": ["emme-markov", "emme-redfield", "bms"],
    "rates_method": "quadrature",
}
assert cli.run(cfg, "out", name="quadrature") == 0
"""
    loaded = loaded_after(script, tmp_path)
    assert not {"scipy.integrate", "scipy.optimize", "scipy.sparse"} & set(loaded)
    # the guard has teeth only if the run reached the routes that do load scipy
    # (the finite-time envelope and the BMS step exponentials)
    assert {"scipy.special", "scipy.linalg"} <= set(loaded)


def test_population_route_loads_neither_linalg_nor_csgraph(tmp_path):
    script = """
from finitebath import cli, presets
cfg = presets.preset("twobath")
cfg["solvers"] = ["emme-markov"]
runner = cli.ScenarioRun(cli.build_scenario(cfg))
assert runner.run_solver("emme-markov").meta["route"] == "populations"
"""
    assert loaded_after(script, tmp_path) == []


def test_integrator_route_loads_integrate_and_sparse(tmp_path):
    script = f"""
from finitebath import cli
runner = cli.ScenarioRun(cli.build_scenario({degenerate_config()!r}))
assert runner.run_solver("emme-markov").meta["route"] == "integrator"
"""
    assert {"scipy.integrate", "scipy.sparse"} <= set(loaded_after(script, tmp_path))
