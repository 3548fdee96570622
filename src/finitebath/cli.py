"""Reproducible scenario runner.

Parses a structured JSON configuration (or a named preset), derives all
component seeds from one master seed, dispatches the requested solvers on a
shared time grid, runs the thermodynamic ledger, and writes tabular output:
one CSV per solver, a joined comparison table, a thermo table per solver
with bath bookkeeping, and a metadata file recording every parameter.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 dimension cap exceeded.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bath import (
    SPECTRUM_KINDS,
    BathSpec,
    CouplingSpec,
    EnergyWindow,
    build_spectrum,
    sample_coupling,
)
from .bms import bms_rates_from_table, choose_reference_temperature, evolve_bms
from .emme import ConditionedState, ProtocolSegment, SystemSpec, evolve, spin_oracle_trajectory
from .errors import ConfigurationError, DimensionCapExceeded, FiniteBathError, NumericalFailure
from .exact import (
    DEFAULT_DIM_CAP,
    FILLS,
    check_dimension,
    prepare_initial,
    run_exact,
)
from .presets import preset as get_preset
from .presets import presets, scale_volumes
from .rates import correlation_exact, default_tau_grid, rate_table_heuristic, rate_table_quadrature, rate_table_rmt
from .thermo import ThermoLedger, build_ledger
from .trajectory import Trajectory

SMALL_VOLUME_LIMIT = 100  # below this the master equation is known to degrade
# most points of a t_max/dt grid: every solver stores arrays per point, so a
# larger grid is refused before np.arange builds it
MAX_GRID_POINTS = 10**6
# cells per formatted CSV chunk, which bounds the text held in memory at once
CSV_CHUNK_CELLS = 2**16

REQUIRED = object()  # no default: the key must be given
OPTIONAL = object()  # no default: a key left out stays out


def _default_seed(cfg: dict) -> int:
    """0 for a deterministic scenario; a stochastic one must name its seed."""
    if any(b["spectrum"] == "random-uniform" or b["coupling"]["variance"] > 0
           for b in cfg["baths"]):
        raise ConfigurationError("a seed is mandatory when the scenario has stochastic elements")
    return 0


# The configuration schema: each key's path, type, default and allowed values.
# "[]" in a path stands for each item of a list.  A type is a type, [type]
# for a list of them, or a tuple of alternatives (None for null).  A callable
# default is computed from the rest of the resolved configuration.  Allowed
# values are a tuple of strings or the smallest integer.
SCHEMA = {
    "seed": (int, _default_seed, 0),
    "t_grid": (dict, {"t_max": 100.0, "dt": 0.5}, None),  # its points, or t_max and dt
    "t_grid.points": ([float], OPTIONAL, None),
    "t_grid.t_max": (float, OPTIONAL, None),
    "t_grid.dt": (float, OPTIONAL, None),
    "system": (dict, REQUIRED, None),
    "system.levels": ([float], REQUIRED, None),
    "system.coupling": ((str, list), "sigma_x", ("sigma_x",)),  # or a matrix, or a list of them
    "system.protocol": ([dict], OPTIONAL, None),
    "system.protocol[].t_start": (float, REQUIRED, None),
    "system.protocol[].levels": ([float], REQUIRED, None),
    "baths": ([dict], REQUIRED, None),
    "baths[].windows": ([dict], REQUIRED, None),
    "baths[].windows[].center": (float, REQUIRED, None),
    "baths[].windows[].width": (float, REQUIRED, None),
    "baths[].windows[].volume": (int, REQUIRED, None),
    "baths[].spectrum": (str, SPECTRUM_KINDS[0], SPECTRUM_KINDS),
    "baths[].coupling": (dict, REQUIRED, None),
    "baths[].coupling.lambda": (float, REQUIRED, None),
    "baths[].coupling.variance": (float, 1.0, None),
    "baths[].coupling.block_mean": ((float, [float]), 0.0, None),  # or [re, im]
    "initial": (dict, {}, None),
    "initial.system_level": (int, lambda cfg: len(cfg["system"]["levels"]) - 1, None),
    "initial.bath_windows": ([int], lambda cfg: [0] * len(cfg["baths"]), None),
    "initial.fill": (str, FILLS[0], FILLS),
    "solvers": ([str], REQUIRED, ("exact", "emme-markov", "emme-redfield", "bms", "analytic")),
    "rates_method": (str, "rmt", ("rmt", "heuristic", "quadrature")),
    "bms": (dict, {}, None),
    "bms.t_can": ((float, None), None, None),  # None: from the initial bath marginal
    "mi_stride": (int, 0, 0),
    "dim_cap": (int, DEFAULT_DIM_CAP, None),
}
_FIELDS: dict[str, list[str]] = {}  # the keys of the mapping at each path ("" the top)
for _path in SCHEMA:
    _FIELDS.setdefault(_path.rpartition(".")[0], []).append(_path.rpartition(".")[2])
_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", list: "a list",
               dict: "a mapping", None: "null"}


def resolve_config(cfg: dict) -> dict:
    """``cfg`` checked against SCHEMA with every default filled in (``cfg`` is left as it is).

    An unknown key (the first in sorted order), a missing required key, a
    value of the wrong type and a value that is not allowed raise
    ConfigurationError naming the key's path, e.g. ``baths[0].coupling.lamda``.
    """
    later: list = []
    out = _resolve(cfg, dict, None, "", "", later)
    for node, key, default in later:
        node[key] = default(out)
    return out


def _resolve(value, kind, allowed, pattern: str, path: str, later: list):
    """``value`` as the SCHEMA type ``kind``; a mapping's keys are those under ``pattern``."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for t in kinds:
        if t is list and isinstance(value, (list, tuple)):
            return copy.deepcopy(list(value))
        if isinstance(t, list) and isinstance(value, (list, tuple)):
            return [_resolve(v, t[0], allowed, f"{pattern}[]", f"{path}[{n}]", later)
                    for n, v in enumerate(value)]
        if t is dict and isinstance(value, dict):
            unknown = sorted(set(value) - set(_FIELDS[pattern]), key=str)
            if unknown:
                where = f"{path}.{unknown[0]}".lstrip(".")
                raise ConfigurationError(f"unknown configuration key {where}")
            out = {}
            for key in _FIELDS[pattern]:
                sub, where = f"{pattern}.{key}".lstrip("."), f"{path}.{key}".lstrip(".")
                default = SCHEMA[sub][1]
                if key not in value and default is REQUIRED:
                    raise ConfigurationError(f"missing configuration key {where}")
                if key not in value and callable(default):
                    later.append((out, key, default))
                elif key in value or default is not OPTIONAL:
                    out[key] = _resolve(value[key] if key in value else default,
                                        SCHEMA[sub][0], SCHEMA[sub][2], sub, where, later)
            return out
        if t is None and value is None:
            return None
        if t is str and isinstance(value, str):
            if value not in allowed:
                noun = " ".join(w[:-3].removesuffix("s") if w.endswith("[]") else w
                                for w in pattern.split(".")).replace("_", " ")
                raise ConfigurationError(f"unknown {noun} {value!r} at {path}; "
                                         f"allowed: {', '.join(allowed)}")
            return value
        if isinstance(value, bool) or t not in (int, float) or not isinstance(value, (int, float)):
            continue
        if t is float:
            try:
                return float(value)
            except OverflowError:
                raise ConfigurationError(f"{path} is an integer beyond the float range") from None
        if isinstance(value, int) or value.is_integer():
            if allowed is not None and value < allowed:
                raise ConfigurationError(f"{path} must be at least {allowed}, not {value!r}")
            return int(value)
    expected = " or ".join("a list" if isinstance(t, list) else _TYPE_NAMES[t] for t in kinds)
    shown = _TYPE_NAMES[type(value)] if type(value) in (dict, list) else repr(value)
    raise ConfigurationError(f"{path or 'a configuration'} must be {expected}, not {shown}")


@dataclass
class Scenario:
    """Validated, fully seeded scenario; ``config`` is the resolved configuration."""

    name: str
    seed: int
    t_grid: np.ndarray
    system: SystemSpec
    bath_specs: list[BathSpec]
    couplings: list[list[CouplingSpec]]
    initial_level: int
    initial_windows: tuple[int, ...]
    solvers: list[str]
    mi_stride: int
    config: dict = field(repr=False, default_factory=dict)


def _coupling_matrices(spec, d_s: int) -> list[np.ndarray]:
    if spec == "sigma_x":
        if d_s != 2:
            raise ConfigurationError("sigma_x coupling needs a two-level system")
        return [np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)]
    try:
        arr = np.asarray(spec, dtype=complex)
    except (TypeError, ValueError):
        arr = np.empty(0)
    if arr.ndim not in (2, 3) or arr.shape[-2:] != (d_s, d_s):
        raise ConfigurationError(f"system.coupling must be 'sigma_x', a {d_s}x{d_s} matrix, "
                                 "or a list of them")
    return [arr] if arr.ndim == 2 else list(arr)


def build_scenario(cfg: dict, name: str = "scenario") -> Scenario:
    """Resolve a configuration (see :func:`resolve_config`) and derive component seeds."""
    cfg = resolve_config(cfg)
    system_cfg, baths_cfg, tg, initial = cfg["system"], cfg["baths"], cfg["t_grid"], cfg["initial"]
    if not baths_cfg:
        raise ConfigurationError("no baths")
    if not cfg["solvers"]:
        raise ConfigurationError("empty solver list")
    if set(tg) == {"points"}:
        t_grid = np.asarray(tg["points"], dtype=float)
    elif set(tg) == {"t_max", "dt"}:
        # a step that is not positive, or an end that is not finite, gives no grid, refused below
        t_max, dt = tg["t_max"], tg["dt"]
        t_grid = np.empty(0)
        if dt > 0 and t_max < np.inf:
            # np.arange makes ceil(t_max / dt + 1/2) points; count them before it runs
            if t_max / dt + 0.5 > MAX_GRID_POINTS:
                raise ConfigurationError(f"t_grid.dt {dt:g} gives more than {MAX_GRID_POINTS} "
                                         f"points up to t_max {t_max:g}")
            t_grid = np.arange(0.0, t_max + 0.5 * dt, dt)
    else:
        raise ConfigurationError("t_grid takes points, or t_max and dt")

    levels = system_cfg["levels"]
    ops = _coupling_matrices(system_cfg["coupling"], len(levels))
    children = np.random.SeedSequence(cfg["seed"]).spawn((1 + len(ops)) * len(baths_cfg))
    seeds = iter([int(child.generate_state(1)[0]) for child in children])
    bath_specs, couplings = [], []
    for nu, b in enumerate(baths_cfg):
        windows = [EnergyWindow(w["center"], w["width"], w["volume"]) for w in b["windows"]]
        if len({w.width for w in windows}) > 1:
            raise ConfigurationError("the windows of one bath must share one width")
        bath_specs.append(BathSpec(windows, b["spectrum"], seed=next(seeds)))
        c, bm = b["coupling"], b["coupling"]["block_mean"]
        if isinstance(bm, list) and len(bm) != 2:
            raise ConfigurationError(f"baths[{nu}].coupling.block_mean must be a number "
                                     "or [re, im]")
        bm = complex(*bm) if isinstance(bm, list) else bm
        couplings.append([CouplingSpec(lam=c["lambda"], block_mean=bm, variance=c["variance"],
                                       seed=next(seeds), operator_label=alpha)
                          for alpha in range(len(ops))])

    protocol = [ProtocolSegment(seg["t_start"], seg["levels"])
                for seg in system_cfg["protocol"]] if "protocol" in system_cfg else None
    system = SystemSpec(levels, [ops for _ in baths_cfg], protocol)
    # the grid and the protocol, refused before anything runs or is written
    system.grid_segments(t_grid)

    init_level, init_windows = initial["system_level"], tuple(initial["bath_windows"])
    if not 0 <= init_level < len(levels):
        raise ConfigurationError(f"initial.system_level {init_level} is not a level index")
    if len(init_windows) != len(baths_cfg) or not all(
        0 <= j < len(spec.windows) for j, spec in zip(init_windows, bath_specs)
    ):
        raise ConfigurationError("initial.bath_windows must name one window of each bath")
    return Scenario(name=name, seed=cfg["seed"], t_grid=t_grid, system=system,
                    bath_specs=bath_specs, couplings=couplings, initial_level=init_level,
                    initial_windows=init_windows, solvers=cfg["solvers"],
                    mi_stride=cfg["mi_stride"], config=cfg)


# ---------------------------------------------------------------------------
# solver dispatch


class ScenarioRun:
    """Shared state for one scenario: windows, realizations, rate tables.

    ``windows`` are the coarse-grained spec windows (centers, widths,
    volumes) and carry no microlevels.  The microscopic spectrum is built
    only with a sampled realization, which the ``exact`` solver and the
    ``heuristic`` and ``quadrature`` rate routes need; an ``rmt`` run
    costs the same at any bath volume.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.windows = [spec.windows for spec in scenario.bath_specs]
        self._realizations = None
        self._tables = None
        self.trajectories: dict[str, Trajectory] = {}
        self.ledgers: dict[str, ThermoLedger] = {}
        self.warnings: list[str] = []

    @property
    def realizations(self):
        if self._realizations is None:
            self._realizations = [
                sample_coupling(couplings, build_spectrum(spec))
                for spec, couplings in zip(self.scenario.bath_specs, self.scenario.couplings)
            ]
        return self._realizations

    @property
    def tables(self):
        if self._tables is None:
            method = self.scenario.config["rates_method"]
            if method == "rmt":
                self._tables = [rate_table_rmt(c, w)
                                for c, w in zip(self.scenario.couplings, self.windows)]
            else:
                build = rate_table_heuristic if method == "heuristic" else rate_table_quadrature
                self._tables = [build(r) for r in self.realizations]
        return self._tables

    def initial_state(self) -> ConditionedState:
        d = self.scenario.system.dim
        block = np.zeros((d, d), dtype=complex)
        block[self.scenario.initial_level, self.scenario.initial_level] = 1.0
        return ConditionedState({self.scenario.initial_windows: block})

    def run_solver(self, solver: str) -> Trajectory:
        sc, cfg = self.scenario, self.scenario.config
        if solver in ("emme-markov", "emme-redfield"):
            variant = solver.split("-")[1]
            traj = evolve(self.initial_state(), sc.system, self.tables, sc.t_grid, variant=variant)
        elif solver == "exact":
            if len(self.windows) != 1:
                raise ConfigurationError("the exact benchmark supports a single bath")
            check_dimension(sc.system.dim, self.windows[0], cfg["dim_cap"])
            ens = prepare_initial(self.windows[0], sc.initial_windows[0], sc.initial_level,
                                  sc.system.dim, fill=cfg["initial"]["fill"])
            traj = run_exact(sc.system, self.realizations[0], ens, sc.t_grid,
                             mi_stride=sc.mi_stride, dim_cap=cfg["dim_cap"])
        elif solver == "bms":
            if len(self.windows) != 1:
                raise ConfigurationError("the comparison equation supports a single bath")
            table, (j0,) = self.tables[0], sc.initial_windows
            t_can = cfg["bms"]["t_can"]
            if t_can is None:  # the effective temperature of the initial bath window
                t_can = choose_reference_temperature(
                    np.eye(1, len(table.centers), j0)[0], table.centers, table.volumes)
            rates = bms_rates_from_table(table, j0, sc.system, t_can)
            rho0 = self.initial_state().blocks[sc.initial_windows]  # the initial level
            traj = evolve_bms(rho0, sc.system, rates, sc.t_grid)
        else:  # analytic
            traj = spin_oracle_trajectory(self.initial_state(), sc.system, self.tables[0],
                                          sc.t_grid, variant="redfield")
        self.trajectories[solver] = traj
        return traj

    def run_all(self):
        for solver in self.scenario.solvers:
            traj = self.run_solver(solver)
            if traj.bath_centers:
                self.ledgers[solver] = build_ledger(traj)
        self._collect_warnings()

    def _collect_warnings(self):
        min_v = min(int(min(w.volume for w in wins)) for wins in self.windows)
        if min_v < SMALL_VOLUME_LIMIT:
            self.warnings.append(
                f"regime warning: smallest window volume {min_v} < "
                f"{SMALL_VOLUME_LIMIT}; recurrences and level-resolution effects "
                "can spoil the master-equation accuracy in this regime"
            )

    def diagnostics(self) -> dict:
        out: dict = {"version": __version__}
        if self._realizations is not None and len(self.windows[0]) > 1:
            corr = correlation_exact(
                self.realizations[0], (0, 1),
                default_tau_grid(self.windows[0][0].width, 600),
            )
            out["delta_tau_b"] = corr.decay_diagnostic
        return out


# ---------------------------------------------------------------------------
# output files


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """One row per time; 2-D columns contribute one CSV column per array column.

    The bytes of ``np.savetxt(fmt="%.12g", delimiter=",")``, formatted from
    Python floats by one template per chunk of at most CSV_CHUNK_CELLS cells.
    """
    table = np.column_stack(columns)
    n_cols = table.shape[1]
    row = ",".join(["%.12g"] * n_cols) + "\n"
    step = max(1, CSV_CHUNK_CELLS // n_cols)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), step):
            chunk = table[start : start + step]
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def write_trajectory_csv(path: Path, traj: Trajectory):
    _write_csv(path, ["t"] + traj.column_names(), [traj.times, traj.populations])


def write_joined_csv(path: Path, trajs: dict[str, Trajectory]):
    base = None
    for traj in trajs.values():
        if base is None:
            base = traj.times
        elif len(base) != len(traj.times) or np.max(np.abs(base - traj.times)) > 1e-9:
            raise ConfigurationError("solvers disagree on the time grid; refusing to join")
    header = ["t"] + [
        f"{solver}:{name}" for solver, traj in trajs.items() for name in traj.column_names()
    ]
    _write_csv(path, header, [base] + [traj.populations for traj in trajs.values()])


def write_thermo_csv(path: Path, ledger: ThermoLedger):
    baths = range(ledger.u_b.shape[1])
    header = ["t", "u", "u_s"]
    header += [f"u_b{nu}" for nu in baths]
    header += ["w"] + [f"q{nu}" for nu in baths]
    header += ["s_obs", "s_obs_s", "s_obs_b", "i_cg"]
    header += [f"t_star{nu}" for nu in baths]
    header += ["entropy_production_rate", "first_law_residual"]
    header += ["clausius_lhs1", "clausius_lhs2", "clausius_delta_s_obs"]
    cl = ledger.clausius
    _write_csv(path, header, [
        ledger.t, ledger.u, ledger.u_s, ledger.u_b, ledger.w, ledger.q,
        ledger.s_obs, ledger.s_obs_s, ledger.s_obs_b, ledger.i_cg, ledger.t_star,
        ledger.entropy_production_rate, ledger.first_law_residual,
        cl.lhs1, cl.lhs2, cl.delta_s_obs,
    ])


def write_mi_csv(path: Path, traj: Trajectory):
    _write_csv(path, ["t", "mutual_information"], [traj.mi_times, traj.mi])


def run(cfg: dict, out_dir: str | Path, name: str = "scenario") -> int:
    """Run a scenario configuration and write all output files."""
    scenario = build_scenario(cfg, name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = ScenarioRun(scenario)
    runner.run_all()

    for solver, traj in runner.trajectories.items():
        write_trajectory_csv(out / f"{solver}.csv", traj)
        if traj.mi is not None:
            write_mi_csv(out / f"{solver}_mi.csv", traj)
    write_joined_csv(out / "joined.csv", runner.trajectories)
    for solver, ledger in runner.ledgers.items():
        write_thermo_csv(out / f"thermo_{solver}.csv", ledger)

    meta = {
        "name": scenario.name,
        "version": __version__,
        "seed": scenario.seed,
        "solvers": scenario.solvers,
        "parameters": scenario.config,
        "conventions": {"units": "energies in system-splitting units, hbar = k_B = 1"},
        "regime_warnings": runner.warnings,
        "ledger_flags": {s: led.flags for s, led in runner.ledgers.items()},
        "diagnostics": runner.diagnostics(),
    }
    with open(out / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="finitebath",
        description="Simulate open systems coupled to finite, evolving baths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a JSON config file")
    p_run.add_argument("config", help="path to the configuration file")
    p_run.add_argument("--out", default="out", help="output directory")

    p_pre = sub.add_parser("preset", help="run a named preset")
    p_pre.add_argument("name")
    p_pre.add_argument("--out", default=None, help="output directory (default runs/<name>)")
    p_pre.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_pre.add_argument("--solvers", default=None, help="comma-separated solver list")
    p_pre.add_argument("--scale-volumes", type=float, default=None,
                       help="divide all window volumes by this factor")

    sub.add_parser("list-presets", help="list the available presets")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-presets":
            for name in sorted(presets()):
                print(name)
            return 0
        if args.command == "run":
            with open(args.config) as fh:
                cfg = json.load(fh)
            return run(cfg, args.out, name=Path(args.config).stem)
        if args.command == "preset":
            cfg = get_preset(args.name)
            if args.scale_volumes:
                cfg = scale_volumes(cfg, args.scale_volumes)
            if args.seed is not None:
                cfg["seed"] = args.seed
            if args.solvers:
                cfg["solvers"] = args.solvers.split(",")
            out = args.out or f"runs/{args.name}"
            return run(cfg, out, name=args.name)
    except (ConfigurationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DimensionCapExceeded as exc:
        print(f"dimension cap exceeded: {exc}", file=sys.stderr)
        return 4
    except (NumericalFailure, FiniteBathError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
