"""One workload process of the benchmark (started by ``run.py``).

``--setup`` times one fresh-process set-up: import ``finitebath.cli``,
``build_scenario`` and ``ScenarioRun`` construction, and prints a JSON line.

Otherwise the process runs the workload as a closed loop, one scenario at a
time, through ``finitebath.cli.run`` on the generated configuration.  With
``--trace 0`` it repeats untraced runs while one more run of the same
length still fits in ``--seconds``.  With ``--trace 1`` it alternates two
untraced and two traced runs; the exactly repeating counts must agree between
all of them.  Every run goes through the correctness gate; its last stdout
line is a JSON result.

BLAS/OpenMP threads are pinned to 1 before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# counts that must repeat exactly for one configuration and code version
REPEATING = ("emme.rhs_calls", "emme.blocks", "exact.dim", "exact.members",
             "exact.mi_samples", "exact.mi_gflop", "exact.propagate_gflop",
             "bath.microlevels", "bath.coupling_bytes", "cli.output_bytes")


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_finitebath():
    """Import the package from the checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import finitebath
    from finitebath import bms, cli, emme, exact, presets, rates, thermo

    if Path(finitebath.__file__).resolve().parent != SRC / "finitebath":
        raise ImportError(f"finitebath was imported from {finitebath.__file__}, not {SRC}")
    return {"cli": cli, "rates": rates, "emme": emme, "exact": exact, "bms": bms,
            "thermo": thermo, "presets": presets}


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def code_digest() -> str:
    """sha256 of the package sources and of the workload generators."""
    h = hashlib.sha256()
    for path in [*sorted((SRC / "finitebath").glob("*.py")), HERE / "workloads.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup_probe(workload: str, seed: int) -> dict:
    start = time.perf_counter()
    fb = import_finitebath()
    import workloads

    cfg = workloads.make_config(workload, seed, fb["presets"])
    scenario = fb["cli"].build_scenario(cfg, workload)
    fb["cli"].ScenarioRun(scenario)
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "config_sha256": config_digest(cfg)}


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():  # not a repository enclosing the tree
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_commit": commit,
        "code_sha256": code_digest(),
        "seed": seed,
    }


class RunCapture:
    """Keeps the ScenarioRun of the latest ``cli.run`` call for the checks."""

    def __init__(self, cli):
        self.runner = None
        original = cli.ScenarioRun.run_all
        capture = self

        def run_all(runner_self):
            capture.runner = runner_self
            return original(runner_self)

        cli.ScenarioRun.run_all = run_all


def layer_metrics(runs: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics from the traced runs (times averaged over them)."""
    def mean(values):
        return statistics.fmean(values)

    def tot(name):
        return mean([r["trace"]["total"].get(name, 0.0) for r in runs])

    def own(name):
        return mean([r["trace"]["self"].get(name, 0.0) for r in runs])

    def calls(name):
        return runs[-1]["trace"]["calls"].get(name, 0)

    c = runs[-1]["counts"]
    traced_wall = mean([r["wall_s"] for r in runs])
    layer_self = {layer: mean([r["trace"]["layer_self"][layer] for r in runs])
                  for layer in runs[-1]["trace"]["layer_self"]}
    m = {
        "exact.diag_s": tot("exact.diag"),
        "exact.diag_calls": calls("exact.diag"),
        "exact.assemble_s": tot("exact.assemble"),
        "exact.dim": c["exact.dim"],
        "exact.members": c["exact.members"],
        "exact.mi_s": tot("exact.mi"),
        "exact.mi_samples": c["exact.mi_samples"],
        "exact.mi_gflop": c["exact.mi_gflop"],
        "exact.propagate_s": own("exact.run"),
        "exact.propagate_gflop": c["exact.propagate_gflop"],
        "exact.coarse_grain_s": tot("exact.coarse_grain"),
        "exact.coarse_grain_calls": calls("exact.coarse_grain"),
        "emme.rhs_s": tot("emme.rhs"),
        "emme.rhs_calls": c["emme.rhs_calls"],
        "emme.blocks": c["emme.blocks"],
        "emme.generator_build_s": tot("emme.generator_build"),
        "emme.evolve_s": tot("emme.evolve"),
        "emme.evolve_self_s": own("emme.evolve"),
        "emme.rate_model_s": tot("emme.rate_model"),
        "emme.pop_rate_calls": calls("emme.pop_rate"),
        "emme.pop_rate_s": tot("emme.pop_rate"),
        "thermo.ledger_s": tot("thermo.ledger"),
        "thermo.ledger_self_s": own("thermo.ledger"),
        "thermo.eff_temp_calls": calls("thermo.eff_temp"),
        "thermo.eff_temp_s": tot("thermo.eff_temp"),
        "thermo.clausius_s": tot("thermo.clausius"),
        "rates.correlation_s": tot("rates.correlation"),
        "rates.correlation_calls": calls("rates.correlation"),
        "rates.quadrature_calls": calls("rates.quadrature"),
        "rates.table_s": tot("rates.table"),
        "rates.lamb_shift_s": tot("rates.lamb_shift"),
        "rates.transition_rates_calls": calls("rates.transition_rates"),
        "rates.transition_rates_s": tot("rates.transition_rates"),
        "bath.build_spectrum_s": tot("bath.build_spectrum"),
        "bath.microlevels": c["bath.microlevels"],
        "bath.sample_coupling_s": tot("bath.sample_coupling"),
        "bath.coupling_bytes": c["bath.coupling_bytes"],
        "bms.evolve_s": tot("bms.evolve"),
        "bms.rhs_calls": calls("bms.rhs"),
        "cli.build_scenario_s": tot("cli.build_scenario"),
        "cli.write_s": tot("cli.write"),
        "cli.output_bytes": c["cli.output_bytes"],
        "cli.diagnostics_s": tot("cli.diagnostics"),
    }
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    m["trace.wall_s"] = traced_wall
    m["trace.self_sum_frac"] = sum(layer_self.values()) / traced_wall
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m


def counts(runner, out_dir: Path, trace_summary: dict | None) -> dict:
    """Counts that repeat exactly for one configuration and code version."""
    trajs = runner.trajectories
    emme_blocks = [len(t.blocks) for s, t in trajs.items() if s.startswith("emme")]
    c = {
        "emme.blocks": max(emme_blocks, default=0),
        "exact.dim": 0, "exact.members": 0, "exact.mi_samples": 0,
        "exact.mi_gflop": 0.0, "exact.propagate_gflop": 0.0,
        "bath.microlevels": sum(w.volume for wins in runner.windows for w in wins),
        "bath.coupling_bytes": 0,
        "cli.output_bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
    }
    if runner._realizations is not None:  # read without triggering the lazy sampling
        c["bath.coupling_bytes"] = sum(
            len(r.matrices) * r.matrices[0].shape[0] ** 2 * 16 for r in runner._realizations)
    exact = trajs.get("exact")
    if exact is not None:
        dim, members = exact.meta["dimension"], exact.meta["members"]
        d_s = exact.n_levels
        d_b = dim // d_s
        quenches = sum(
            1 for n in range(1, len(exact.times))
            if (exact.level_energies[n] != exact.level_energies[n - 1]).any())
        n_mi = 0 if exact.mi is None else len(exact.mi)
        # complex multiply-add = 8 flops; rho_B and rho_S contractions per MI
        # sample, one (dim x dim) @ (dim x members) product per grid point,
        # per quench carry and per segment start
        c.update({
            "exact.dim": dim,
            "exact.members": members,
            "exact.mi_samples": n_mi,
            "exact.mi_gflop": n_mi * 8 * members * (d_s * d_b**2 + d_s**2 * d_b) / 1e9,
            "exact.propagate_gflop":
                (len(exact.times) + 2 * quenches + 1) * 8 * dim**2 * members / 1e9,
        })
    if trace_summary is not None:
        c["emme.rhs_calls"] = trace_summary["calls"].get("emme.rhs", 0)
    return c


def workload_process(args) -> dict:
    fb = import_finitebath()
    import checks
    import trace
    import workloads

    cli = fb["cli"]
    cfg = workloads.make_config(args.workload, args.seed, fb["presets"])
    out_root = Path(args.out)
    out_dir = out_root / f"{args.workload}-out"
    capture = RunCapture(cli)
    tracer = trace.Tracer()
    scale = workloads.EXACT_SCALE.get(args.workload, "desk")

    runs: list[dict] = []
    gate_results: list[dict] = []
    failed_runs = 0

    def one_run(traced: bool) -> bool:
        nonlocal failed_runs
        shutil.rmtree(out_dir, ignore_errors=True)
        capture.runner = None
        if traced:
            tracer.run_id += 1
        start = time.perf_counter()
        try:
            cli.run(cfg, out_dir, name=args.workload)
        except Exception:  # a failed scenario run is a counted failure, not a crash
            wall = time.perf_counter() - start
            failed_runs += 1
            traceback.print_exc(file=sys.stderr)
            runs.append({"wall_s": wall, "ok": False, "traced": traced})
            return False
        wall = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gate, maxdev = checks.run_checks(capture.runner, out_dir, scale, fb["thermo"])
        summary = tracer.summary(tracer.run_id) if traced else None
        runs.append({
            "wall_s": wall, "ok": True, "traced": traced, "maxdev": maxdev,
            "peak_rss_mb": rss_mb,
            "populations_sha256": checks.populations_digest(capture.runner.trajectories),
            "counts": counts(capture.runner, out_dir, summary),
            "trace": summary,
        })
        gate_results.extend(gate.results)
        return True

    if args.trace:
        # untraced and traced runs alternate so that drift of the machine's
        # speed cancels in trace.overhead_frac
        targets = trace.wrap_targets(fb)
        for _ in range(2):
            if not one_run(False):
                break
            tracer.install(targets)
            try:
                traced_ok = one_run(True)
            finally:
                tracer.uninstall()
            if not traced_ok:
                break
    else:
        # stop before a run that would likely end past the time budget
        measured = 0.0
        while one_run(False):
            measured += runs[-1]["wall_s"]
            if measured + runs[-1]["wall_s"] > args.seconds:
                break

    good = [r for r in runs if r["ok"]]
    digests = {r["populations_sha256"] for r in good}
    extra = checks.Gate()
    if len(good) > 1:
        extra.check("determinism.populations_across_runs", len(digests) == 1, len(digests), 1)
        shared = [k for k in REPEATING if all(k in r["counts"] for r in good)]
        same = all(r["counts"][k] == good[0]["counts"][k] for r in good for k in shared)
        extra.check("determinism.counts_across_runs", same)

    env = environment(args.seed)
    record = {
        "code_sha256": env["code_sha256"],
        "config_sha256": config_digest(cfg),
        "populations_sha256": next(iter(digests)) if len(digests) == 1 else None,
    }
    previous = out_root / f"{args.workload}-seed{args.seed}.json"
    if previous.is_file():
        old = json.loads(previous.read_text())
        if old.get("code_sha256") == record["code_sha256"]:
            extra.check("determinism.config_vs_previous_process",
                        old.get("config_sha256") == record["config_sha256"])
            if old.get("populations_sha256") and record["populations_sha256"]:
                extra.check("determinism.populations_vs_previous_process",
                            old["populations_sha256"] == record["populations_sha256"])
    if record["populations_sha256"]:
        previous.write_text(json.dumps(record, indent=1))
    gate_results.extend(extra.results)

    untraced = [r["wall_s"] for r in good if not r["traced"]]
    result = {
        "workload": args.workload,
        "environment": env,
        "config_sha256": record["config_sha256"],
        "populations_sha256": record["populations_sha256"],
        "runs": [{k: v for k, v in r.items() if k != "trace"} for r in runs],
        "checks": gate_results,
        "attempted": len(runs) + len(gate_results),
        "failed": failed_runs + sum(1 for g in gate_results if not g["ok"]),
        "wall_s": untraced,
        "exact_emme_maxdev": next((r["maxdev"] for r in good if r["maxdev"] is not None),
                                  None),
        # later runs add allocator fragmentation, not memory the program needs
        "peak_rss_mb": good[0]["peak_rss_mb"] if good else None,
    }
    traced = [r for r in good if r["traced"]]
    if args.trace and len(traced) == 2 and untraced:
        result["layers"] = layer_metrics(traced, statistics.fmean(untraced))
        out_root.joinpath(f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "run_id"],
                        "spans": tracer.spans}))
    return result


def main(argv=None) -> int:
    pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out"))
    parser.add_argument("--setup", action="store_true", help="time one set-up and exit")
    args = parser.parse_args(argv)
    if args.setup:
        result = setup_probe(args.workload, args.seed)
    else:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        result = workload_process(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
