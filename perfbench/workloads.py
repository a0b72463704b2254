"""Workload definitions: the job list each workload runs, generated from the
benchmark seed.

Every workload is a closed loop: one process runs each job only after the
previous one has returned.  Jobs are plain data, so this module imports
nothing from cmcgeo; ``child.py`` executes them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Grid sizes: n=3 charts at 5 per axis (125 points); the unduloids at 16 per
# axis (256 points), the grid on which B=0.75 shows its false failure.
VERIFY_GRID_N3 = 5
VERIFY_GRID_UNDULOID = 16
PROFILE_SAMPLES = 512
SOLVE_SAMPLES = 256
PROFILE_STRATA = 16
B_MAX = 0.98
H_MIN, H_MAX = 0.8, 1.25
OY_GRID = (256, 4)
OY_COUNT = 10
OKUMURA_TRIALS = 20_000


@dataclass(frozen=True)
class Job:
    """One closed-loop request.

    ``kind`` is "cli" (``argv`` goes to ``cmcgeo.cli.main``), "oy" (maximum
    principle search and verification on the unduloid chart ``argv[0]``) or
    "decay" (the decay checker on its three calibration profiles).
    ``out_name`` is the file a ``report`` job writes, relative to the run's
    scratch directory; ``argv`` refers to it through the ``{out}`` marker.
    """

    label: str
    kind: str
    argv: tuple[str, ...] = ()
    out_name: str = ""


# The unduloid neck at B=0.75 exceeds the 1e-5 identity budget (simons_max
# about 7e-5): the identity is true, so this FAIL is wrong.  The job stays in
# the workload and counts as failed; the oracle still checks that its verdict
# is consistent with its own checks.
KNOWN_FALSE_FAILURES = frozenset({
    f"verify unduloid:H=1,B=0.75 --grid {VERIFY_GRID_UNDULOID}",
})


def _cli(*argv: str, out_name: str = "") -> Job:
    shown = [a for a in argv if a not in ("--out", "{out}")]
    return Job(label=" ".join(shown), kind="cli", argv=tuple(argv),
               out_name=out_name)


def _num(x: float) -> str:
    return f"{x:.4f}"


def verify_dense(seed: int) -> list[Job]:
    rng = random.Random(seed)
    specs = [
        f"euclidean-product:n=3,k={rng.choice((1, 2))},r={_num(rng.uniform(0.5, 2.0))}",
        f"sphere-product:n=3,r={_num(rng.uniform(0.4, 0.9))}",
        f"hyperbolic-cylinder:n=3,k=2,r={_num(rng.uniform(0.6, 1.5))}",
    ]
    jobs = [_cli("verify", s, "--grid", str(VERIFY_GRID_N3)) for s in specs]
    jobs += [_cli("verify", s, "--grid", str(VERIFY_GRID_UNDULOID))
             for s in ("unduloid:H=1,B=0.5", "unduloid:H=1,B=0.75")]
    return jobs


def catalog_sweep(seed: int) -> list[Job]:
    jobs = [_cli("report", "--format", fmt, "--seed", str(seed), "--out",
                 "{out}", out_name=f"report.{fmt}")
            for fmt in ("csv", "json")]
    jobs += [_cli("okumura", "--n", str(n), "--trials", str(OKUMURA_TRIALS),
                  "--seed", str(seed)) for n in (3, 4, 5)]
    return jobs


def _stratum(rng: random.Random, lo: float, hi: float, i: int, count: int) -> float:
    """A draw from the i-th of ``count`` equal slices of [lo, hi]."""
    return lo + (hi - lo) * (i + rng.random()) / count


def _signs(rng: random.Random, count: int) -> list[float]:
    """+1 and -1 in equal numbers, in random order within each pair: the
    quadrature cost of a negative H is up to twice that of a positive one."""
    signs = []
    for _ in range(count // 2):
        first = rng.choice((-1.0, 1.0))
        signs += [first, -first]
    return signs


def _unduloid_params(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """(H, B) pairs as a Latin hypercube: one B from each slice of
    (0, B_MAX] and one |H| from each slice of [H_MIN, H_MAX], paired at
    random, with the signs of neighbouring slices of B opposite.  The
    quadrature cost per sample grows with B and depends on the sign of H, so
    this keeps the work of a job list nearly the same for every seed."""
    h_slices = list(range(count))
    rng.shuffle(h_slices)
    pairs = []
    for i, (j, sign) in enumerate(zip(h_slices, _signs(rng, count))):
        b = max(_stratum(rng, 0.0, B_MAX, i, count), 1e-3)
        h = sign * _stratum(rng, H_MIN, H_MAX, j, count)
        pairs.append((float(_num(h)), float(_num(b))))
    return pairs


def unduloid_profile(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for i, (h, b) in enumerate(_unduloid_params(rng, PROFILE_STRATA)):
        argv = ["unduloid", "--H", _num(h), "--B", _num(b),
                "--samples", str(PROFILE_SAMPLES)]
        if i % 2:
            argv.append("--csv")
        jobs.append(_cli(*argv))
    for i, eps in enumerate((_stratum(rng, 0.5, 4.0, 0, 1), _stratum(rng, 4.0, 20.0, 0, 1))):
        h = _stratum(rng, H_MIN, H_MAX, i, 2)
        jobs.append(_cli("unduloid", "--H", _num(h), "--solve-eps", _num(eps),
                         "--samples", str(SOLVE_SAMPLES)))
    return jobs


def maxprinciple(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for i, sign in enumerate(_signs(rng, 2)):
        h = sign * _stratum(rng, H_MIN, H_MAX, i, 2)
        b = _stratum(rng, 0.3, 0.6, 0, 1)
        spec = f"unduloid:H={_num(h)},B={_num(b)}"
        jobs.append(Job(label=f"oy {spec}", kind="oy", argv=(spec,)))
    jobs.append(Job(label="decay calibration", kind="decay"))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_jobs: Callable[[int], list[Job]]
    # Model whose parse and chart build set-up time covers.
    first_model: Callable[[list[Job]], str]


def _first_verify_model(jobs: list[Job]) -> str:
    return jobs[0].argv[1]


def _first_unduloid(jobs: list[Job]) -> str:
    argv = jobs[0].argv
    return f"unduloid:H={argv[2]},B={argv[4]}"


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "verify-dense",
            "cmc verify on n=3 charts for c=0,1,-1 and two n=2 unduloids: "
            "the per-point jets, shape data, FD stencil and residual loop",
            verify_dense, _first_verify_model),
        Workload(
            "catalog-sweep",
            "cmc report over all 30 catalog models in CSV and JSON, plus okumura: "
            "many small charts with n=2..5, per-chart setup, classify and output",
            catalog_sweep, lambda jobs: "euclidean-product:n=3,k=1,r=1.0"),
        Workload(
            "unduloid-profile",
            "cmc unduloid tables with B across (0, 0.98] and --solve-eps: "
            "adaptive quadrature and output formatting, no shape evaluations",
            unduloid_profile, _first_unduloid),
        Workload(
            "maxprinciple",
            "weak_oy_search, verify_oy_points and decay_admissible through the "
            "library: one shape evaluation per grid point, general FD Laplacians",
            maxprinciple, lambda jobs: jobs[0].argv[0]),
    )
}
