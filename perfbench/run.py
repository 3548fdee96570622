"""finitebath benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a finitebath source tree.  It times five fresh-process
set-ups, then runs the workload in one fresh worker process (``worker.py``,
which pins BLAS/OpenMP to one thread), checks every output,
prints a human-readable summary and, as its last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer metrics.  Full
results, spans and outputs go to ``.perfbench_out/`` in the tree.

Exit codes: 0 result printed, 1 the worker failed, 2 no source tree here.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0


def worker_env() -> dict:
    """Fixed string hashing; the package comes from the tree, not PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run the worker to completion (killed at the deadline); parse its last line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], env=worker_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def summary_lines(res: dict, setup: list[float], trace: bool) -> list[str]:
    n_ok = len(res["wall_s"])
    lines = [f"workload {res['workload']}  seed {res['environment']['seed']}  "
             f"trace {int(trace)}  code {res['environment']['code_sha256'][:12]}"]
    if res["wall_s"]:
        walls = ", ".join(f"{w:.3f}" for w in res["wall_s"])
        lines.append(f"  wall_s             {statistics.median(res['wall_s']):.4f} s  "
                     f"(median of {n_ok} untraced runs: {walls})")
    lines.append(f"  setup_s            {statistics.median(setup):.4f} s  "
                 f"(median of {len(setup)} fresh processes)")
    if res["peak_rss_mb"] is not None:
        lines.append(f"  peak_rss_mb        {res['peak_rss_mb']:.1f} MB")
    if res["exact_emme_maxdev"] is not None:
        lines.append(f"  exact_emme_maxdev  {res['exact_emme_maxdev']:.5f} (probability; "
                     "larger is worse)")
    lines.append(f"  failed_frac        {res['failed'] / res['attempted']:.4f} "
                 f"({res['failed']} of {res['attempted']} operations)")
    for check in res["checks"]:
        if not check["ok"]:
            lines.append(f"  FAILED {check['check']}: {check['value']} (limit {check['limit']})")
    return lines


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="finitebath benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "finitebath" / "cli.py").is_file():
        print(f"no finitebath source tree under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(OUT)]
    try:
        probes = [run_worker([*common, "--setup"], deadline) for _ in range(SETUP_PROBES)]
        res = run_worker([*common, "--seconds", str(args.seconds),
                          "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    setup = [p["setup_s"] for p in probes]
    # the configuration must hash identically in every fresh process
    config_ok = [p["config_sha256"] == res["config_sha256"] for p in probes]
    res["checks"] += [{"check": "determinism.config_across_processes", "ok": ok,
                       "value": None, "limit": None} for ok in config_ok]
    res["attempted"] += len(config_ok)
    res["failed"] += config_ok.count(False)
    if not res["wall_s"] or (args.trace and "layers" not in res):
        print("benchmark failed: no successful scenario run", file=sys.stderr)
        print("\n".join(summary_lines(res, setup, bool(args.trace))), file=sys.stderr)
        return 1

    if args.trace:
        values, declared = res["layers"], bench["per_layer"]
    else:
        values = {"wall_s": statistics.median(res["wall_s"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": res["peak_rss_mb"]}
        declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    res["setup_s"] = setup
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-result.json").write_text(
        json.dumps(res, indent=1))
    for line in summary_lines(res, setup, bool(args.trace)):
        print(line)
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
