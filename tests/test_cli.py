import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitebath import cli, presets as preset_module
from finitebath.bms import bms_rates_from_table
from finitebath.cli import build_scenario, main, resolve_config, run
from finitebath.emme import evolve, spin_oracle_trajectory
from finitebath.errors import ConfigurationError
from finitebath.presets import preset, presets, scale_volumes

from conftest import degenerate_config, load_perfbench


def mini_config(**overrides):
    cfg = {
        "seed": 99,
        "t_grid": {"t_max": 10.0, "dt": 1.0},
        "system": {"levels": [0.0, 1.0], "coupling": "sigma_x"},
        "baths": [
            {
                "windows": [
                    {"center": 0.0, "width": 0.5, "volume": 25},
                    {"center": 1.0, "width": 0.5, "volume": 35},
                ],
                "spectrum": "regular",
                "coupling": {"lambda": 3e-3, "variance": 1.0},
            }
        ],
        "initial": {"system_level": 1, "bath_windows": [0]},
        "solvers": ["exact", "emme-markov", "emme-redfield", "bms", "analytic"],
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# configuration validation


def test_empty_solver_list_rejected():
    with pytest.raises(ConfigurationError):
        build_scenario(mini_config(solvers=[]))


def test_unknown_solver_rejected():
    with pytest.raises(ConfigurationError):
        build_scenario(mini_config(solvers=["exact", "magic"]))


@pytest.mark.parametrize("solvers", [["analytic"], ["emme-markov"], ["exact", "bms"]])
@pytest.mark.parametrize("t_grid", [{"points": [0, 2, 1, 3]}, {"points": [0, 1, 1, 2]},
                                    {"points": []}, {"t_max": 10.0, "dt": 0.0},
                                    {"points": [0, float("nan"), 2]},
                                    {"t_max": float("inf"), "dt": 1.0},
                                    {"t_max": float("nan"), "dt": 1.0}])
def test_time_grid_not_strictly_increasing_exits_2(tmp_path, solvers, t_grid):
    # the analytic oracle never walks the protocol segments, so the grid is
    # checked once for every solver set before anything runs or is written
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(mini_config(solvers=solvers, t_grid=t_grid)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def edited(*path, value=None):
    """mini_config with the entry at ``path`` set to ``value``, or removed when value is None."""
    cfg = mini_config()
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    if value is None:
        del node[last]
    else:
        node[last] = value
    return cfg


def spin_with_protocol(levels, protocol_levels):
    return {"levels": levels, "coupling": "sigma_x",
            "protocol": [{"t_start": 5.0 * n, "levels": lv}
                         for n, lv in enumerate(protocol_levels)]}


BAD_CONFIGS = {
    "window-without-volume": lambda: edited("baths", 0, "windows", 1, "volume"),
    "grid-without-t_max": lambda: edited("t_grid", "t_max"),
    "grid-without-dt": lambda: edited("t_grid", "dt"),
    "system-level-out-of-range": lambda: edited("initial", "system_level", value=2),
    "negative-system-level": lambda: edited("initial", "system_level", value=-1),
    "bath-window-out-of-range": lambda: edited("initial", "bath_windows", value=[2]),
    "negative-bath-window": lambda: edited("initial", "bath_windows", value=[-1]),
    "no-baths": lambda: mini_config(baths=[], initial={"system_level": 1, "bath_windows": []},
                                    solvers=["emme-markov"]),
    "mixed-window-widths": lambda: edited("baths", 0, "windows", 1, "width", value=0.8),
    # levels that contradict the protocol's first segment, and a segment with another level count
    "levels-contradict-protocol": lambda: mini_config(
        system=spin_with_protocol([0.0, 1.4], [[0.0, 1.0]]),
        solvers=["emme-markov", "bms", "analytic"]),
    "segment-level-count": lambda: mini_config(
        system=spin_with_protocol([0.0, 1.0], [[0.0, 1.0], [0.0, 1.0, 2.0]])),
}


def with_coupling(**entries):
    """mini_config with entries added to (or replacing those of) the bath's coupling."""
    cfg = mini_config()
    cfg["baths"][0]["coupling"].update(entries)
    return cfg


# keys and values the schema refuses, each with the path its message names
MALFORMED = {
    "misspelled-top-level-key": (lambda: mini_config(t_grd={"t_max": 5.0, "dt": 1.0}), "t_grd"),
    "misspelled-nested-key": (lambda: with_coupling(lamda=1e-2), "baths[0].coupling.lamda"),
    "lambda-not-a-number": (lambda: with_coupling(**{"lambda": "x"}), "baths[0].coupling.lambda"),
    "volume-not-a-number": (lambda: edited("baths", 0, "windows", 1, "volume", value="many"),
                            "baths[0].windows[1].volume"),
    "levels-not-a-list": (lambda: edited("system", "levels", value=5), "system.levels"),
    "baths-not-a-list": (lambda: mini_config(baths=mini_config()["baths"][0]), "baths"),
    "t_can-not-a-number": (lambda: mini_config(bms={"t_can": "hot"}), "bms.t_can"),
    "solvers-not-a-list": (lambda: mini_config(solvers="bms"), "solvers"),
    "negative-mi_stride": (lambda: mini_config(mi_stride=-1), "mi_stride"),
    # JSON integers beyond the float range (json.dump writes them out in full)
    "lambda-beyond-float": (lambda: with_coupling(**{"lambda": 10**400}),
                            "baths[0].coupling.lambda"),
    "t_max-beyond-float": (lambda: edited("t_grid", "t_max", value=10**400), "t_grid.t_max"),
    # 1e13 points: refused from the count, before np.arange would build them
    "grid-beyond-max-points": (lambda: edited("t_grid", "dt", value=1e-12), "t_grid.dt"),
    # the integrator tolerances are fixed; the section that set them is gone
    "emme-tolerances": (lambda: mini_config(emme={"rtol": 1e-3}), "emme"),
}
BAD_CONFIGS.update({case: make for case, (make, _) in MALFORMED.items()})


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_inconsistent_configuration_exits_2_with_one_line(tmp_path, capsys, case):
    cfg = BAD_CONFIGS[case]()
    with pytest.raises(ConfigurationError):
        build_scenario(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    if case in MALFORMED:
        assert MALFORMED[case][1] in err
    assert not (tmp_path / "o").exists()


def test_unknown_keys_report_the_first_in_sorted_order():
    cfg = mini_config(zz=1, aa=2)
    cfg["baths"][0]["coupling"]["lamda"] = 1.0
    with pytest.raises(ConfigurationError, match=r"^unknown configuration key aa$"):
        build_scenario(cfg)


@pytest.mark.parametrize("cfg, value", [
    # the exact solver's initial state is fixed; the section that chose it is gone
    (mini_config(ensemble={"kind": "basis-ensemble"}), "unknown configuration key ensemble"),
    (mini_config(rates_method="quadratur", solvers=["bms", "analytic"]),
     "rates method 'quadratur'"),
    # fill is read only by the exact solver, which does not run here
    (mini_config(initial={"system_level": 1, "bath_windows": [0], "fill": "hlf"},
                 solvers=["emme-markov", "bms"]), "initial fill 'hlf' at initial.fill"),
    (mini_config(solvers=["emme-markov", "magic"]), "solver 'magic' at solvers[1]"),
    (edited("baths", 0, "spectrum", value="regualr"), "bath spectrum 'regualr' at baths[0].spectrum"),
])
def test_unknown_choice_exits_2_and_names_the_value(tmp_path, capsys, cfg, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert value in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def entries(node, path=()):
    """(path, value) of every key of a mapping and every item of a list in node, nested."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from entries(value, path + (key,))


LEAVES = st.one_of(st.text(max_size=6), st.lists(st.integers(-3, 3), max_size=3),
                   st.dictionaries(st.text(max_size=4), st.integers(), max_size=2), st.none())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_config_resolves_or_is_refused(data):
    # delete or rename a key, or swap a value for a string, list, mapping or null,
    # one to three times; no solver runs
    cfg = mini_config()
    for _ in range(data.draw(st.integers(1, 3))):
        paths = [path for path, _ in entries(cfg)]
        if not paths:
            break
        *parents, last = data.draw(st.sampled_from(paths))
        node = cfg
        for key in parents:
            node = node[key]
        action = data.draw(st.sampled_from(["delete", "rename", "swap"]))
        if action == "delete":
            del node[last]
        elif action == "rename" and isinstance(node, dict):
            node[data.draw(st.text(max_size=8))] = node.pop(last)
        else:  # a list item has no key to rename
            node[last] = data.draw(LEAVES)
    before = copy.deepcopy(cfg)
    try:
        scenario = build_scenario(cfg)
    except ConfigurationError:
        scenario = None
    assert scenario is None or isinstance(scenario, cli.Scenario)
    assert cfg == before


def every_config():
    """Every preset and the configuration of every benchmark workload at two seeds."""
    workloads = load_perfbench("workloads")
    configs = {name: preset(name) for name in presets()}
    for workload in workloads.WORKLOADS:
        for seed in (1, 7):
            configs[f"{workload}@{seed}"] = workloads.make_config(workload, seed, preset_module)
    return configs


def test_every_preset_and_workload_resolves_once_for_all():
    for name, cfg in every_config().items():
        before = copy.deepcopy(cfg)
        scenario = build_scenario(cfg, name)
        assert cfg == before, name  # the argument is left as it is
        resolved = scenario.config
        assert resolve_config(resolved) == resolved, name
        assert json.loads(json.dumps(resolved)) == resolved, name


def test_context_defaults_are_written_back():
    cfg = mini_config(solvers=["emme-markov"])
    del cfg["seed"], cfg["initial"], cfg["t_grid"]
    cfg["baths"][0]["coupling"].update(variance=0.0, block_mean=[0.5, 0.0])
    resolved = build_scenario(cfg).config
    assert resolved["seed"] == 0  # deterministic
    assert resolved["initial"] == {"system_level": 1, "bath_windows": [0], "fill": "full"}
    assert resolved["t_grid"] == {"t_max": 100.0, "dt": 0.5}
    assert resolved["bms"] == {"t_can": None} and "protocol" not in resolved["system"]


@pytest.mark.parametrize("name", ["twobath", "quench-ci", "fig2-row1-col1-ci"])
def test_metadata_parameters_rerun_to_the_same_files(tmp_path, name):
    assert run(preset(name), tmp_path / "a", name=name) == 0
    meta = json.loads((tmp_path / "a" / "metadata.json").read_text())
    assert "tolerances" not in meta
    assert run(meta["parameters"], tmp_path / "b", name=name) == 0
    files = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert files == sorted(f.name for f in (tmp_path / "b").iterdir())
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes(), f


@pytest.mark.parametrize("method", ["heuristic", "quadrature"])
def test_comparison_equation_and_oracle_read_the_runs_rate_table(method):
    runner = cli.ScenarioRun(build_scenario(
        mini_config(rates_method=method, solvers=["bms", "analytic"])))
    sc, table = runner.scenario, runner.tables[0]
    bms = runner.run_solver("bms")
    assert bms.meta["down_rates"] == bms_rates_from_table(
        table, sc.initial_windows[0], sc.system, bms.meta["t_can"]).down
    oracle = spin_oracle_trajectory(runner.initial_state(), sc.system, table, sc.t_grid,
                                    variant="redfield")
    assert np.array_equal(runner.run_solver("analytic").populations, oracle.populations)


def test_quench_ci_comparison_equation_relaxes_after_the_quench():
    cfg = preset("quench-ci")
    cfg["solvers"] = ["bms"]
    traj = cli.ScenarioRun(build_scenario(cfg)).run_solver("bms")
    assert traj.meta["t_can"] == 0.0  # the initial window is the lowest: relax to the ground state
    after = traj.times >= 120.0
    p_up = traj.populations[after, 1]
    assert np.all(np.diff(p_up) < 0)
    # p_1 decays at the downward rate of the new gap 2 alone
    expected = p_up[0] * np.exp(-traj.meta["down_rates"][2.0] * (traj.times[after] - 120.0))
    assert np.max(np.abs(p_up - expected)) <= 1e-8


def test_seed_mandatory_for_stochastic_scenarios():
    cfg = mini_config()
    del cfg["seed"]
    with pytest.raises(ConfigurationError, match="seed"):
        build_scenario(cfg)


def test_seed_optional_when_fully_deterministic():
    cfg = mini_config(solvers=["emme-markov"])
    cfg["baths"][0]["coupling"]["variance"] = 0.0
    cfg["baths"][0]["coupling"]["block_mean"] = [0.5, 0.0]
    del cfg["seed"]
    build_scenario(cfg)


def test_component_seeds_derived_and_deterministic():
    a = build_scenario(mini_config())
    b = build_scenario(mini_config())
    assert a.bath_specs[0].seed == b.bath_specs[0].seed
    assert a.couplings[0][0].seed == b.couplings[0][0].seed
    assert a.bath_specs[0].seed != a.couplings[0][0].seed


def test_multi_operator_couplings_get_distinct_seeds():
    cfg = mini_config(solvers=["emme-markov"])
    cfg["system"]["coupling"] = [
        [[0.0, 1.0], [1.0, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ]
    sc = build_scenario(cfg)
    assert len(sc.couplings[0]) == 2
    assert sc.couplings[0][0].seed != sc.couplings[0][1].seed
    assert sc.couplings[0][1].operator_label == 1


# ---------------------------------------------------------------------------
# presets


def test_fig2_presets_volumes_and_spectra():
    table = presets()
    assert [w["volume"] for w in table["fig2-row1-col1"]["baths"][0]["windows"]] == [400, 600]
    assert [w["volume"] for w in table["fig2-row2-col1"]["baths"][0]["windows"]] == [600, 400]
    assert table["fig2-row1-col2"]["baths"][0]["spectrum"] == "random-uniform"
    assert table["fig2-row1-col3"]["initial"]["fill"] == "half"


def test_appf_presets_volumes_and_lambdas():
    table = presets()
    for name, lam in (("appf-weak", 5e-4), ("appf-base", 3e-3), ("appf-strong", 1e-2)):
        cfg = table[name]
        assert [w["volume"] for w in cfg["baths"][0]["windows"]] == [20, 40]
        assert cfg["baths"][0]["coupling"]["lambda"] == lam


def test_quench_preset_windows_and_protocol():
    cfg = presets()["quench"]
    assert [w["volume"] for w in cfg["baths"][0]["windows"]] == [100, 200, 400]
    assert [w["center"] for w in cfg["baths"][0]["windows"]] == [0.0, 1.0, 2.0]
    starts = [seg["t_start"] for seg in cfg["system"]["protocol"]]
    assert starts == [0.0, 120.0]
    assert cfg["t_grid"]["t_max"] == 240.0  # one full period


def test_ci_presets_scale_volumes_by_four():
    table = presets()
    assert [w["volume"] for w in table["fig2-row1-col1-ci"]["baths"][0]["windows"]] == [100, 150]
    assert [w["volume"] for w in table["quench-ci"]["baths"][0]["windows"]] == [25, 50, 100]


def test_scale_volumes_never_drops_below_one():
    cfg = scale_volumes(preset("appf-weak"), 100.0)
    assert all(w["volume"] >= 1 for w in cfg["baths"][0]["windows"])


def test_unknown_preset_raises():
    with pytest.raises(ConfigurationError):
        preset("fig9")


# ---------------------------------------------------------------------------
# end-to-end runs


def test_run_writes_all_outputs(tmp_path):
    code = run(mini_config(), tmp_path, name="mini")
    assert code == 0
    for fname in (
        "exact.csv", "emme-markov.csv", "emme-redfield.csv", "bms.csv",
        "analytic.csv", "joined.csv", "thermo_emme-markov.csv", "metadata.json",
    ):
        assert (tmp_path / fname).exists(), fname
    header = (tmp_path / "emme-markov.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "t"
    assert "p_k1_E0" in header and "p_k0_E1" in header
    joined_header = (tmp_path / "joined.csv").read_text().splitlines()[0]
    assert "exact:p_k1_E0" in joined_header
    assert "bms:p_k1" in joined_header
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["seed"] == 99
    assert any("volume" in w for w in meta["regime_warnings"])  # 25 < 100
    assert meta["diagnostics"]["delta_tau_b"] > 0


def test_outputs_bit_identical_for_same_seed(tmp_path):
    run(mini_config(), tmp_path / "a", name="mini")
    run(mini_config(), tmp_path / "b", name="mini")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name


def test_solvers_share_the_time_grid(tmp_path):
    run(mini_config(), tmp_path, name="mini")
    lines = (tmp_path / "joined.csv").read_text().splitlines()
    t_joined = [float(l.split(",")[0]) for l in lines[1:]]
    assert t_joined == list(np.arange(0.0, 10.5, 1.0))


def unequal_widths_twobath():
    cfg = preset("twobath")
    for window in cfg["baths"][1]["windows"]:
        window["width"] = 0.8
    cfg["solvers"] = ["emme-redfield"]
    return cfg


@pytest.mark.parametrize("make_config", [unequal_widths_twobath, degenerate_config])
def test_inputs_without_a_closed_population_equation_run_on_the_integrator(
        tmp_path, monkeypatch, make_config):
    # two envelopes, or coherences that feed the populations
    routes = []

    def recording(*args, **kwargs):
        traj = evolve(*args, **kwargs)
        routes.append(traj.meta["route"])
        return traj

    monkeypatch.setattr(cli, "evolve", recording)
    cfg = make_config()
    assert run(cfg, tmp_path, name="integrator") == 0
    assert routes == ["integrator"]
    thermo = np.loadtxt(tmp_path / f"thermo_{cfg['solvers'][0]}.csv", delimiter=",", skiprows=1)
    assert np.isfinite(thermo).all()


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(mini_config(solvers=[])))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    late = mini_config(solvers=["emme-markov"])
    late["system"]["protocol"] = [{"t_start": 5.0, "levels": [0.0, 1.0]}]
    cfg_path.write_text(json.dumps(late))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o1")]) == 2

    big = mini_config(solvers=["exact"], dim_cap=10)
    cfg_path.write_text(json.dumps(big))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o2")]) == 4

    ok = mini_config(solvers=["emme-markov"])
    cfg_path.write_text(json.dumps(ok))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o3")]) == 0

    assert main(["run", str(tmp_path / "missing.json"), "--out", "x"]) == 2


def test_main_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "fig2-row1-col1" in out and "quench" in out


def test_main_preset_with_overrides(tmp_path):
    code = main([
        "preset", "fig2-row1-col1", "--out", str(tmp_path),
        "--seed", "7", "--solvers", "emme-markov,analytic",
        "--scale-volumes", "20",
    ])
    assert code == 0
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["seed"] == 7
    assert meta["solvers"] == ["emme-markov", "analytic"]
    vols = [w["volume"] for w in meta["parameters"]["baths"][0]["windows"]]
    assert vols == [20, 30]


def test_mi_file_written_when_sampled(tmp_path):
    cfg = mini_config(solvers=["exact"], mi_stride=2)
    run(cfg, tmp_path, name="mini")
    lines = (tmp_path / "exact_mi.csv").read_text().splitlines()
    assert lines[0] == "t,mutual_information"
    assert len(lines) == 1 + 6  # 11 grid points sampled every 2nd


CSV_SPECIALS = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-300, 1e300, 3.0, -42.0, 2.0**60,
                0.1, 1.0 / 3.0, -5e-324]


@pytest.mark.parametrize("rows, chunk_cells", [
    (1, 2**16),  # one row
    (9, 45),  # 3 rows of 15 cells per chunk, 3 chunks
    (10, 45),  # 3 rows per chunk and a last chunk of 1
    (4, 2),  # fewer cells per chunk than columns: one row each
])
def test_write_csv_is_byte_for_byte_savetxt(tmp_path, monkeypatch, rows, chunk_cells):
    monkeypatch.setattr(cli, "CSV_CHUNK_CELLS", chunk_cells)
    t = np.arange(rows) * 0.25
    specials = np.array([np.roll(CSV_SPECIALS, r) for r in range(rows)])
    columns = [t, specials, np.random.default_rng(rows).normal(size=rows)]
    header = ["t"] + [f"x{n}" for n in range(len(CSV_SPECIALS))] + ["y"]
    cli._write_csv(tmp_path / "fast.csv", header, columns)
    np.savetxt(tmp_path / "ref.csv", np.column_stack(columns), fmt="%.12g", delimiter=",",
               header=",".join(header), comments="")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_window_labels_keep_the_csv_precision(tmp_path):
    # six significant digits would label both windows E1e+06
    cfg = rmt_config([[50, 60]], solvers=["emme-markov"])
    for window, center in zip(cfg["baths"][0]["windows"], (1e6, 1e6 + 1)):
        window["center"] = center
    assert run(cfg, tmp_path, name="far") == 0
    header = (tmp_path / "emme-markov.csv").read_text().splitlines()[0].split(",")
    assert header == ["t", "p_k0_E1000000", "p_k1_E1000000", "p_k0_E1000001", "p_k1_E1000001"]


@pytest.mark.parametrize("name", ["fig2-row1-col1-ci", "quench-ci", "twobath", "degenerate"])
def test_every_solver_emits_the_trajectory_layout(name):
    cfg = degenerate_config() if name == "degenerate" else preset(name)
    runner = cli.ScenarioRun(build_scenario(cfg))
    for solver in cfg["solvers"]:
        traj = runner.run_solver(solver)
        d = traj.n_levels
        assert all(a < b for a, b in zip(traj.keys, traj.keys[1:])), solver
        assert traj.joint_index == [(k, key) for key in traj.keys for k in range(d)], solver
        assert traj.populations.shape == (traj.times.size, len(traj.keys) * d), solver
        for n, key in enumerate(traj.keys if traj.blocks else []):
            diagonal = np.diagonal(traj.blocks[key], axis1=1, axis2=2).real
            assert np.array_equal(traj.populations[:, n * d : (n + 1) * d], diagonal), solver


def test_thermo_csv_columns(tmp_path):
    run(mini_config(solvers=["emme-markov"]), tmp_path, name="mini")
    header = (tmp_path / "thermo_emme-markov.csv").read_text().splitlines()[0].split(",")
    for col in ("t", "u", "u_s", "u_b0", "w", "q0", "s_obs", "s_obs_s", "s_obs_b",
                "i_cg", "t_star0", "entropy_production_rate", "first_law_residual",
                "clausius_lhs1", "clausius_lhs2", "clausius_delta_s_obs"):
        assert col in header


# ---------------------------------------------------------------------------
# what each route builds of the bath


def rmt_config(volumes_per_bath, solvers=("emme-markov", "emme-redfield")):
    """EMME on ensemble rates; lambda scaled so the rates out of window 0 stay O(1e-3)."""
    baths = []
    for volumes in volumes_per_bath:
        baths.append({
            "windows": [
                {"center": float(j), "width": 0.5, "volume": v} for j, v in enumerate(volumes)
            ],
            "spectrum": "regular",
            "coupling": {"lambda": 3e-3 / np.sqrt(volumes[0] / 50.0), "variance": 1.0},
        })
    return {
        "seed": 5,
        "t_grid": {"t_max": 8.0, "dt": 1.0},
        "system": {"levels": [0.0, 1.0], "coupling": "sigma_x"},
        "baths": baths,
        "initial": {"system_level": 1, "bath_windows": [0] * len(baths)},
        "solvers": list(solvers),
        "rates_method": "rmt",
    }


def test_rmt_route_builds_no_spectrum_at_any_volume(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "build_spectrum", lambda spec: calls.append(spec))
    volumes = [[int(1.8e9 * 1.3 ** (j - 3)) for j in range(4)] for _ in range(2)]
    assert 9e9 < sum(map(sum, volumes)) < 1.1e10
    tracemalloc.start()
    try:
        assert run(rmt_config(volumes), tmp_path, name="huge") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 50e6
    lines = (tmp_path / "emme-markov.csv").read_text().splitlines()
    assert np.isfinite(np.array([l.split(",") for l in lines[1:]], dtype=float)).all()


def test_volume_beyond_int64_runs(tmp_path):
    # 2**63 < 1.2e20: volumes are floats, so logs and products stay finite
    cfg = rmt_config([[120_000_000_000_000_000_000, 180_000_000_000_000_000_000]],
                     solvers=["emme-markov", "bms"])
    assert run(cfg, tmp_path, name="macro") == 0
    thermo = np.loadtxt(tmp_path / "thermo_emme-markov.csv", delimiter=",", skiprows=1)
    assert np.isfinite(thermo).all()


def test_volume_zero_window_exits_2_on_rmt_route(tmp_path, capsys):
    cfg = rmt_config([[60, 0]])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "volume < 1" in capsys.readouterr().err


def test_exact_dim_cap_checked_before_sampling(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "sample_coupling", lambda *a: calls.append(a))
    monkeypatch.setattr(cli, "prepare_initial", lambda *a, **k: calls.append(a))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(mini_config(solvers=["exact"], dim_cap=119)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 4
    assert calls == []
