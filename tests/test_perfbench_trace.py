"""The benchmark must find every library attribute it wraps or reads.

``perfbench/trace.py`` replaces module and class attributes by name and
``perfbench/checks.py`` reads the ledger and the mutual-information helper;
a change in ``src/`` would otherwise surface only when a benchmark run
fails.
"""

from finitebath import bms, cli, emme, exact, presets, rates, thermo

from conftest import load_perfbench


def test_every_wrap_target_exists():
    fb = {"cli": cli, "rates": rates, "emme": emme, "exact": exact, "bms": bms,
          "thermo": thermo, "presets": presets}
    for owner, attr, name in load_perfbench("trace").wrap_targets(fb):
        if isinstance(owner, type):
            # the tracer reads class attributes from __dict__, not inherited ones
            assert attr in owner.__dict__, f"{owner.__name__}.{attr} for span {name}"
        else:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} for span {name}"


def test_benchmark_gate_passes_on_a_mini_run(tmp_path, monkeypatch):
    runs = []
    run_all = cli.ScenarioRun.run_all

    def capture(runner):
        runs.append(runner)
        return run_all(runner)

    monkeypatch.setattr(cli.ScenarioRun, "run_all", capture)
    cfg = presets.preset("fig2-row1-col1-ci")
    cfg["solvers"] = ["exact", "emme-markov", "emme-redfield", "analytic"]
    cfg["mi_stride"] = 40
    cli.run(cfg, tmp_path, name="mini")
    gate, _ = load_perfbench("checks").run_checks(runs[0], tmp_path, "ci", thermo)
    names = {r["check"] for r in gate.results}
    assert {"exact.mi_above_cg", "emme-markov.first_law", "emme-redfield.vs_exact"} <= names
    assert [r for r in gate.results if not r["ok"]] == []
