"""Runs one workload in a fresh interpreter and prints its measurements as
one JSON line.

    python3 -m perfbench.child --workload NAME --seed N --seconds S --trace 0|1

Started by ``run.py`` from the repository root with ``src`` on PYTHONPATH.
The job list is repeated in passes until the next pass would end after
``--seconds``; there is always at least one pass.  With ``--trace 1`` each
round is an untraced pass followed by a traced one, and the spans of the
first traced pass are written to ``.perfbench_out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from cmcgeo import catalog, cli, geometry, maxprinciple

from .oracle import IDENTITY_BUDGET, Oracle, Outcome
from .tracing import Tracer, layer_metrics
from .workloads import OY_COUNT, OY_GRID, WORKLOADS, Job

OUT_DIR = Path(".perfbench_out")


def _run_oy(spec: str) -> dict:
    chart = catalog.build_chart(catalog.parse_model(spec))
    fld = geometry.scalar_field("phi_norm2")
    witness = maxprinciple.weak_oy_search(chart, fld, OY_GRID, OY_COUNT)
    weak = maxprinciple.verify_oy_points(chart, fld, witness, mode="weak")
    full = maxprinciple.verify_oy_points(chart, fld, witness, mode="full")
    return {"sup_estimate": witness.sup_estimate, "weak": weak, "full": full,
            "values": [r.value for r in witness.records]}


def _log_square(t: float) -> float:
    return 1.0 + t * t * math.log(t + 2.0) ** 2


def _run_decay() -> dict:
    reports = [maxprinciple.decay_admissible(lambda t: 1.0, 10.0, 128),
               maxprinciple.decay_admissible(lambda t: (1.0 + t) ** 4, 10.0, 128),
               maxprinciple.decay_admissible(_log_square, 50.0, 128)]
    return {"verdicts": [r.verdict for r in reports],
            "ratios": [r.increment_ratio for r in reports]}


def run_job(job: Job, scratch: Path) -> Outcome:
    out = Outcome(job)
    argv = [str(scratch / job.out_name) if a == "{out}" else a for a in job.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if job.kind == "cli":
                out.exit_code = cli.main(argv)
            elif job.kind == "oy":
                out.value = _run_oy(argv[0])
            else:
                out.value = _run_decay()
    except Exception:  # a job that raises is recorded as failed, the run goes on
        out.error = traceback.format_exc(limit=4)
    out.seconds = time.perf_counter() - start
    out.stdout = stdout.getvalue()
    if job.out_name:
        path = scratch / job.out_name
        if path.exists():
            out.out_bytes = path.read_bytes()
            path.unlink()
        elif out.error is None:
            out.error = f"{job.out_name} was not written; stderr: {stderr.getvalue()}"
    return out


def run_pass(jobs: list[Job], scratch: Path, tracer=None, first_job_id: int = 0) -> list[Outcome]:
    outcomes = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_job_id + i
            with tracer:
                outcomes.append(run_job(job, scratch))
        else:
            outcomes.append(run_job(job, scratch))
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    jobs = workload.make_jobs(args.seed)
    scratch = OUT_DIR / f"scratch-{args.workload}-{args.seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    oracle = Oracle()
    summary = {"attempted": 0, "failed": 0, "problems": [], "residual_max": None,
               "pass_seconds": [], "traced_pass_seconds": [], "job_seconds": {},
               "failed_jobs": Counter(), "layers": []}

    def account(outcomes: list[Outcome]) -> None:
        for out in outcomes:
            finding = oracle.check(out)
            summary["attempted"] += 1
            summary["job_seconds"].setdefault(out.job.label, []).append(out.seconds)
            if finding.failed:
                summary["failed"] += 1
                summary["failed_jobs"][out.job.label] += 1
            summary["problems"] += [f"{out.job.label}: {p}" for p in finding.problems]
            if finding.residual is not None:
                summary["residual_max"] = max(summary["residual_max"] or 0.0, finding.residual)

    try:
        # Warm-up: one small request of the first model, untimed and unchecked.
        run_job(Job("warm-up", "cli", ("model", workload.first_model(jobs), "--grid", "1")),
                scratch)
        begin = time.perf_counter()
        rounds = 0
        while True:
            outcomes = run_pass(jobs, scratch)
            summary["pass_seconds"].append(sum(o.seconds for o in outcomes))
            account(outcomes)
            if args.trace:
                tracer = Tracer()
                outcomes = run_pass(jobs, scratch, tracer, first_job_id=rounds * len(jobs))
                summary["traced_pass_seconds"].append(sum(o.seconds for o in outcomes))
                account(outcomes)
                summary["layers"].append(layer_metrics(tracer))
                if rounds == 0:
                    tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
            rounds += 1
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary["rounds"] = rounds
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["residual_budget_frac"] = (None if summary["residual_max"] is None
                                       else summary["residual_max"] / IDENTITY_BUDGET)
    if summary["layers"]:
        passes = summary["layers"]
        summary["layer_counts_repeat"] = all(
            m[k] == passes[0][k] for m in passes for k in m if k.endswith(".calls"))
        summary["layers"] = {k: statistics.median(m[k] for m in passes) for k in passes[0]}
        summary["layers"]["trace.overhead_frac"] = (
            statistics.median(summary["traced_pass_seconds"])
            / statistics.median(summary["pass_seconds"]) - 1.0)
    else:
        summary["layers"] = {}
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
