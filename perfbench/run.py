"""cmcgeo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up time is the median over several fresh
interpreters, each importing cmcgeo and parsing and building the workload's
first model.  The workload itself runs in one more fresh interpreter
(``perfbench/child.py``) with BLAS/OpenMP threads capped through its
environment.  With ``--trace 0`` the last line of standard output is a JSON
object carrying every end-to-end metric named in BENCHMARK.json; with
``--trace 1`` it carries every per-layer metric instead.
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

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PROBES = 11
THREAD_CAP = 1  # no more than nproc; the workloads are single-threaded Python
RUN_BUDGET_S = 170  # every subprocess must end by then

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import WORKLOADS  # noqa: E402


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREAD_CAP)
    return env


def _run(argv: list[str], deadline: float) -> str:
    """Run a subprocess to completion; on timeout it is killed and reaped."""
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:4])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup_seconds(model: str, deadline: float) -> list[float]:
    """One untimed probe first, so that bytecode caches exist, then the
    timed probes."""
    probe = [sys.executable, "-m", "perfbench.setup_probe", model]
    _run(probe, deadline)
    return [float(_run(probe, deadline).split()[-1]) for _ in range(SETUP_PROBES)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "cmcgeo" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from the repository root ({SRC / 'cmcgeo'} and "
              f"{spec_path} are needed)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        setup = [] if args.trace else setup_seconds(
            workload.first_model(workload.make_jobs(args.seed)), deadline)
        child = json.loads(_run(
            [sys.executable, "-m", "perfbench.child", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            deadline).splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = child["layers"]
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(child["pass_seconds"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": child["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    for problem in child["problems"][:20]:
        print(f"problem: {problem}")
    share = child["failed"] / child["attempted"]
    residual = child["residual_budget_frac"]
    print(f"workload {args.workload} seed {args.seed}: {len(child['pass_seconds'])} "
          f"untraced pass(es) {['%.3f' % s for s in child['pass_seconds']]} s, "
          f"thread cap {THREAD_CAP}")
    print(f"failed_share {share:.4f} ({child['failed']}/{child['attempted']}, "
          f"by job {child['failed_jobs']}); residual_budget_frac "
          f"{'n/a' if residual is None else f'{residual:.6g}'}")
    if args.trace:
        print(f"traced passes {['%.3f' % s for s in child['traced_pass_seconds']]} s; "
              f"call counts repeat across traced passes: {child['layer_counts_repeat']}")
    print(json.dumps({
        "correct": not child["problems"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
