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
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bath import (
    BathSpec,
    CouplingSpec,
    EnergyWindow,
    build_spectrum,
    sample_coupling,
)
from .bms import bms_rates_from_table, choose_reference_temperature, evolve_bms
from .emme import ConditionedState, ProtocolSegment, SystemSpec, evolve, spin_oracle_trajectory
from .errors import ConfigurationError, DimensionCapExceeded, FiniteBathError, NumericalFailure
from .exact import check_dimension, prepare_initial, run_exact
from .presets import preset as get_preset
from .presets import presets, scale_volumes
from .rates import correlation_exact, default_tau_grid, rate_table_heuristic, rate_table_quadrature, rate_table_rmt
from .thermo import ThermoLedger, build_ledger
from .trajectory import Trajectory

KNOWN_SOLVERS = ("exact", "emme-markov", "emme-redfield", "bms", "analytic")
ENSEMBLE_KINDS = ("typicality", "basis-ensemble")
RATES_METHODS = ("rmt", "heuristic", "quadrature")
SMALL_VOLUME_LIMIT = 100  # below this the master equation is known to degrade


@dataclass
class Scenario:
    """Validated, fully seeded scenario ready to run."""

    name: str
    seed: int
    t_grid: np.ndarray
    system: SystemSpec
    bath_specs: list[BathSpec]
    couplings: list[list[CouplingSpec]]
    initial_level: int
    initial_windows: tuple[int, ...]
    fill: str
    solvers: list[str]
    ensemble_kind: str
    ensemble_members: int
    ensemble_seed: int
    rates_method: str
    t_can: float | None
    mi_stride: int
    dim_cap: int
    emme_rtol: float
    emme_atol: float
    raw: dict = field(repr=False, default_factory=dict)


def _coupling_matrices(spec, d_s: int) -> list[np.ndarray]:
    if spec == "sigma_x":
        if d_s != 2:
            raise ConfigurationError("sigma_x coupling needs a two-level system")
        return [np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)]
    arr = np.asarray(spec, dtype=complex)
    if arr.ndim == 2:
        return [arr]
    if arr.ndim == 3:
        return [a for a in arr]
    raise ConfigurationError("coupling must be 'sigma_x', a matrix, or a list of matrices")


def build_scenario(cfg: dict, name: str = "scenario") -> Scenario:
    """Validate a raw configuration dict and derive component seeds."""
    try:
        return _build_scenario(cfg, name)
    except KeyError as exc:
        raise ConfigurationError(f"missing configuration key: {exc}") from exc


def _build_scenario(cfg: dict, name: str) -> Scenario:
    levels = np.asarray(cfg["system"]["levels"], dtype=float)
    baths_cfg = cfg["baths"]
    solvers = list(cfg["solvers"])
    if not baths_cfg:
        raise ConfigurationError("no baths")
    if not solvers:
        raise ConfigurationError("empty solver list")
    for s in solvers:
        if s not in KNOWN_SOLVERS:
            raise ConfigurationError(f"unknown solver {s!r}")

    tg = cfg.get("t_grid", {"t_max": 100.0, "dt": 0.5})
    if "points" in tg:
        t_grid = np.asarray(tg["points"], dtype=float)
    else:
        t_max, dt = float(tg["t_max"]), float(tg["dt"])
        # a step that is not positive gives no grid, refused below
        t_grid = np.arange(0.0, t_max + 0.5 * dt, dt) if dt > 0 else np.empty(0)

    ensemble = cfg.get("ensemble", {"kind": "typicality", "members": 20})
    kind = ensemble.get("kind", "typicality")
    if kind not in ENSEMBLE_KINDS:
        raise ConfigurationError(f"unknown ensemble kind {kind!r}")
    members = int(ensemble.get("members", 20))
    rates_method = cfg.get("rates_method", "rmt")
    if rates_method not in RATES_METHODS:
        raise ConfigurationError(f"unknown rates method {rates_method!r}")

    stochastic = kind == "typicality"
    for b in baths_cfg:
        if b.get("spectrum", "regular") == "random-uniform":
            stochastic = True
        if b["coupling"].get("variance", 1.0) > 0:
            stochastic = True
    seed = cfg.get("seed")
    if seed is None:
        if stochastic:
            raise ConfigurationError("a seed is mandatory when the scenario has stochastic elements")
        seed = 0
    seed = int(seed)

    d_s = len(levels)
    ops = _coupling_matrices(cfg["system"].get("coupling", "sigma_x"), d_s)
    ss = np.random.SeedSequence(seed)
    children = iter(ss.spawn((1 + len(ops)) * len(baths_cfg) + 1))

    def take() -> int:
        return int(next(children).generate_state(1)[0])

    bath_specs, couplings = [], []
    for b in baths_cfg:
        windows = [
            EnergyWindow(float(w["center"]), float(w["width"]), int(w["volume"]))
            for w in b["windows"]
        ]
        if len({w.width for w in windows}) > 1:
            raise ConfigurationError("the windows of one bath must share one width")
        bath_specs.append(
            BathSpec(windows, b.get("spectrum", "regular"), seed=take())
        )
        c = b["coupling"]
        bm = c.get("block_mean", 0.0)
        if isinstance(bm, (list, tuple)):
            bm = complex(bm[0], bm[1])
        couplings.append(
            [
                CouplingSpec(
                    lam=float(c["lambda"]),
                    block_mean=bm,
                    variance=float(c.get("variance", 1.0)),
                    seed=take(),
                    operator_label=alpha,
                )
                for alpha in range(len(ops))
            ]
        )

    protocol = None
    if "protocol" in cfg["system"]:
        protocol = [
            ProtocolSegment(float(seg["t_start"]), np.asarray(seg["levels"], dtype=float))
            for seg in cfg["system"]["protocol"]
        ]
    system = SystemSpec(levels, [ops for _ in baths_cfg], protocol)
    # the grid and the protocol, refused before anything runs or is written
    system.grid_segments(t_grid)

    initial = cfg.get("initial", {"system_level": d_s - 1, "bath_windows": [0] * len(baths_cfg)})
    init_level = int(initial.get("system_level", d_s - 1))
    init_windows = tuple(int(j) for j in initial.get("bath_windows", [0] * len(baths_cfg)))
    if not 0 <= init_level < d_s:
        raise ConfigurationError(f"initial.system_level {init_level} is not a level index")
    if len(init_windows) != len(baths_cfg) or not all(
        0 <= j < len(spec.windows) for j, spec in zip(init_windows, bath_specs)
    ):
        raise ConfigurationError("initial.bath_windows must name one window of each bath")

    emme_cfg = cfg.get("emme", {})
    return Scenario(
        name=name,
        seed=seed,
        t_grid=t_grid,
        system=system,
        bath_specs=bath_specs,
        couplings=couplings,
        initial_level=init_level,
        initial_windows=init_windows,
        fill=initial.get("fill", "full"),
        solvers=solvers,
        ensemble_kind=kind,
        ensemble_members=members,
        ensemble_seed=take(),
        rates_method=rates_method,
        t_can=cfg.get("bms", {}).get("t_can"),
        mi_stride=int(cfg.get("mi_stride", 0)),
        dim_cap=int(cfg.get("dim_cap", 5000)),
        emme_rtol=float(emme_cfg.get("rtol", 1e-11)),
        emme_atol=float(emme_cfg.get("atol", 1e-13)),
        raw=cfg,
    )


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
            method = self.scenario.rates_method
            if method == "rmt":
                self._tables = [
                    rate_table_rmt(self.scenario.couplings[nu], self.windows[nu])
                    for nu in range(len(self.windows))
                ]
            elif method == "heuristic":
                self._tables = [rate_table_heuristic(r) for r in self.realizations]
            elif method == "quadrature":
                self._tables = [rate_table_quadrature(r) for r in self.realizations]
            else:
                raise ConfigurationError(f"unknown rates method {method!r}")
        return self._tables

    def initial_state(self) -> ConditionedState:
        d = self.scenario.system.dim
        block = np.zeros((d, d), dtype=complex)
        block[self.scenario.initial_level, self.scenario.initial_level] = 1.0
        return ConditionedState({self.scenario.initial_windows: block})

    def run_solver(self, solver: str) -> Trajectory:
        sc = self.scenario
        if solver in ("emme-markov", "emme-redfield"):
            variant = solver.split("-")[1]
            traj = evolve(
                self.initial_state(), sc.system, self.tables, sc.t_grid,
                variant=variant, rtol=sc.emme_rtol, atol=sc.emme_atol,
            )
        elif solver == "exact":
            if len(self.windows) != 1:
                raise ConfigurationError("the exact benchmark supports a single bath")
            check_dimension(sc.system.dim, self.windows[0], sc.dim_cap)
            ens = prepare_initial(
                sc.ensemble_kind, self.windows[0], sc.initial_windows[0],
                sc.initial_level, sc.system.dim,
                members=sc.ensemble_members, seed=sc.ensemble_seed, fill=sc.fill,
            )
            traj = run_exact(
                sc.system, self.realizations[0], ens, sc.t_grid,
                mi_stride=sc.mi_stride, dim_cap=sc.dim_cap,
            )
        elif solver == "bms":
            if len(self.windows) != 1:
                raise ConfigurationError("the comparison equation supports a single bath")
            table = rate_table_rmt(sc.couplings[0], self.windows[0])
            t_can = sc.t_can
            if t_can is None:
                p_win = np.zeros(len(self.windows[0]))
                p_win[sc.initial_windows[0]] = 1.0
                t_can = choose_reference_temperature(
                    p_win, table.centers, table.volumes
                )
            rates = bms_rates_from_table(
                table, sc.initial_windows[0], sc.system, t_can
            )
            d = sc.system.dim
            rho0 = np.zeros((d, d), dtype=complex)
            rho0[sc.initial_level, sc.initial_level] = 1.0
            traj = evolve_bms(rho0, sc.system, rates, sc.t_grid)
        elif solver == "analytic":
            table = rate_table_rmt(sc.couplings[0], self.windows[0])
            traj = spin_oracle_trajectory(
                self.initial_state(), sc.system, table, sc.t_grid, variant="redfield"
            )
        else:
            raise ConfigurationError(f"unknown solver {solver!r}")
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
    """One row per time; 2-D columns contribute one CSV column per array column."""
    np.savetxt(path, np.column_stack(columns), fmt="%.12g", delimiter=",",
               header=",".join(header), comments="")


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
        "parameters": scenario.raw,
        "tolerances": {"emme_rtol": scenario.emme_rtol, "emme_atol": scenario.emme_atol},
        "conventions": {
            "gain_convention": "conserving",
            "units": "energies in system-splitting units, hbar = k_B = 1",
        },
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
