"""Correctness gate applied to every scenario run of the benchmark.

Each check is one operation of the benchmark: it passes or fails, and a
failure counts in ``failed``.  Tolerances are those of the acceptance suite
(``tests/test_acceptance.py``), restated here because the benchmark does
not import the tests:

* criterion 4: trace and shell drift <= 1e-8, block eigenvalues >= -1e-10;
* criterion 7: first-law residual <= 1e-8, entropy production >= -1e-10,
  quantum MI >= coarse-grained MI - 1e-9;
* criterion 3: numerical vs closed-form populations <= 1e-6;
* criterion 2: finite-time EMME vs exact <= 0.05 at desk scale, 0.08 at
  the volume-scaled (``-ci``) scale, and the constant-rate variant back
  within that tolerance after 5 * 2 pi / delta.

The first-law residual of ``exact`` is not gated: there it is the
interaction energy, which the coarse-grained ledger does not book.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

DRIFT_TOL = 1e-8
POSITIVITY_TOL = 1e-10
FIRST_LAW_TOL = 1e-8
SIGMA_TOL = 1e-10
MI_BOUND_TOL = 1e-9
ORACLE_TOL = 1e-6
DYN_TOL = {"desk": 0.05, "ci": 0.08}
CSV_TOL = 1e-11  # outputs are written with 12 significant digits


class Gate:
    """Collects check outcomes: name, pass flag, measured value, limit."""

    def __init__(self):
        self.results: list[dict] = []

    def check(self, name: str, ok: bool, value=None, limit=None):
        self.results.append({
            "check": name,
            "ok": bool(ok),
            "value": None if value is None else float(value),
            "limit": limit,
        })


def populations_digest(trajectories: dict) -> str:
    """sha256 over every solver's times and population array, in solver order."""
    h = hashlib.sha256()
    for solver, traj in trajectories.items():
        h.update(solver.encode())
        h.update(np.ascontiguousarray(traj.times, dtype=float).tobytes())
        h.update(np.ascontiguousarray(traj.populations, dtype=float).tobytes())
    return h.hexdigest()


def _segment_bounds(traj) -> list[int]:
    levels = traj.level_energies
    cuts = [n for n in range(1, len(traj.times)) if not np.array_equal(levels[n], levels[n - 1])]
    return [0] + cuts + [len(traj.times)]


def shell_drift(traj) -> float:
    """Largest change of any total-energy shell's occupation within a segment."""
    worst = 0.0
    bounds = _segment_bounds(traj)
    for lo, hi in zip(bounds, bounds[1:]):
        shells: dict[float, list[int]] = {}
        for m, (k, key) in enumerate(traj.joint_index):
            e_tot = round(
                float(traj.level_energies[lo][k])
                + sum(traj.bath_centers[nu][j] for nu, j in enumerate(key)), 9,
            )
            shells.setdefault(e_tot, []).append(m)
        for cols in shells.values():
            series = traj.populations[lo:hi, cols].sum(axis=1)
            worst = max(worst, float(np.max(np.abs(series - series[0]))))
    return worst


def min_block_eigenvalue(traj) -> float:
    stacked = np.concatenate(list(traj.blocks.values()))
    herm = 0.5 * (stacked + np.conj(np.swapaxes(stacked, 1, 2)))
    return float(np.linalg.eigvalsh(herm).min())


def max_deviation(a, b) -> tuple[float, np.ndarray]:
    """max |a - b| over the shared joint states, and its time series."""
    pos = {s: n for n, s in enumerate(b.joint_index)}
    shared = [(m, pos[s]) for m, s in enumerate(a.joint_index) if s in pos]
    if not shared:
        raise ValueError(f"{a.solver} and {b.solver} share no joint state")
    ia, ib = (list(x) for x in zip(*shared))
    series = np.max(np.abs(a.populations[:, ia] - b.populations[:, ib]), axis=1)
    return float(series.max()), series


def check_trajectories(gate: Gate, runner):
    for solver, traj in runner.trajectories.items():
        if solver.startswith("emme"):
            trace = float(np.max(np.abs(traj.populations.sum(axis=1) - 1.0)))
            gate.check(f"{solver}.trace_drift", trace <= DRIFT_TOL, trace, DRIFT_TOL)
            shell = shell_drift(traj)
            gate.check(f"{solver}.shell_drift", shell <= DRIFT_TOL, shell, DRIFT_TOL)
            eig = min_block_eigenvalue(traj)
            gate.check(f"{solver}.min_block_eigenvalue", eig >= -POSITIVITY_TOL, eig,
                       -POSITIVITY_TOL)
    for solver, ledger in runner.ledgers.items():
        if solver == "exact":
            continue
        residual = float(np.max(np.abs(ledger.array("first_law_residual"))))
        gate.check(f"{solver}.first_law", residual <= FIRST_LAW_TOL, residual, FIRST_LAW_TOL)
        if solver.startswith("emme"):
            sigma = float(np.min(ledger.array("entropy_production_rate")))
            gate.check(f"{solver}.entropy_production", sigma >= -SIGMA_TOL, sigma, -SIGMA_TOL)


def check_oracle(gate: Gate, runner):
    trajs = runner.trajectories
    if "analytic" in trajs and "emme-redfield" in trajs:
        dev, _ = max_deviation(trajs["emme-redfield"], trajs["analytic"])
        gate.check("emme-redfield.vs_analytic", dev <= ORACLE_TOL, dev, ORACLE_TOL)


def check_exact_agreement(gate: Gate, runner, scale: str) -> float | None:
    """Gate EMME against exact as criterion 2 does; return exact_emme_maxdev."""
    trajs = runner.trajectories
    if "exact" not in trajs or "emme-markov" not in trajs:
        return None
    tol = DYN_TOL[scale]
    exact = trajs["exact"]
    maxdev, series = max_deviation(trajs["emme-markov"], exact)
    if "emme-redfield" in trajs:
        dev_rf, _ = max_deviation(trajs["emme-redfield"], exact)
        gate.check("emme-redfield.vs_exact", dev_rf <= tol, dev_rf, tol)
        delta = float(runner.scenario.bath_specs[0].windows[0].width)
        horizon = 5.0 * 2.0 * math.pi / delta
        above = np.nonzero(series > tol)[0]
        last = float(exact.times[above[-1]]) if above.size else 0.0
        gate.check("emme-markov.vs_exact_window", last <= horizon, last, horizon)
    else:
        gate.check("emme-markov.vs_exact", maxdev <= tol, maxdev, tol)
    return maxdev


def check_mutual_information(gate: Gate, runner, thermo):
    traj = runner.trajectories.get("exact")
    if traj is None or traj.mi is None:
        return
    stride = runner.scenario.mi_stride
    expected = len(range(0, len(traj.times), stride))
    gate.check("exact.mi_samples", len(traj.mi) == expected, len(traj.mi), expected)
    k_of = np.array([k for (k, _) in traj.joint_index])
    b_of = np.array([key[0] for (_, key) in traj.joint_index])
    pair_index = list(zip(k_of, b_of))
    worst = math.inf
    for m in range(len(traj.mi)):
        p = traj.populations[m * stride]
        p_sys = np.bincount(k_of, weights=p, minlength=traj.n_levels)
        p_bath = np.bincount(b_of, weights=p, minlength=len(traj.bath_centers[0]))
        i_cg = thermo.mutual_information_cg(p, p_sys, p_bath, pair_index)
        worst = min(worst, float(traj.mi[m] - i_cg))
    gate.check("exact.mi_above_cg", worst >= -MI_BOUND_TOL, worst, -MI_BOUND_TOL)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_outputs(gate: Gate, runner, out_dir: Path):
    """The files ``cli.run`` wrote hold what the solvers computed."""
    trajs = runner.trajectories
    for solver, traj in trajs.items():
        header, data = _read_csv(out_dir / f"{solver}.csv")
        ok = header == ["t"] + traj.column_names() and data.shape == (
            len(traj.times), 1 + traj.populations.shape[1])
        err = float(np.max(np.abs(data[:, 1:] - traj.populations))) if ok else math.inf
        gate.check(f"{solver}.csv", ok and err <= CSV_TOL, err, CSV_TOL)
    header, data = _read_csv(out_dir / "joined.csv")
    width = 1 + sum(t.populations.shape[1] for t in trajs.values())
    gate.check("joined.csv", len(header) == width and data.shape[1] == width,
               data.shape[1], width)
    for solver in runner.ledgers:
        header, data = _read_csv(out_dir / f"thermo_{solver}.csv")
        gate.check(f"thermo_{solver}.csv", data.shape[0] == len(trajs[solver].times),
                   data.shape[0], len(trajs[solver].times))
    with open(out_dir / "metadata.json") as fh:
        meta = json.load(fh)
    gate.check("metadata.json", meta.get("seed") == runner.scenario.seed
               and meta.get("solvers") == runner.scenario.solvers)


def run_checks(runner, out_dir: Path, scale: str, thermo) -> tuple[Gate, float | None]:
    gate = Gate()
    check_trajectories(gate, runner)
    check_oracle(gate, runner)
    maxdev = check_exact_agreement(gate, runner, scale)
    check_mutual_information(gate, runner, thermo)
    check_outputs(gate, runner, out_dir)
    return gate, maxdev
