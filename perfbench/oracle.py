"""Output oracle: checks every job's output against closed forms that are
written out here, independently of the package's own catalog formulas.

``Oracle.check`` returns a ``Finding``.  A job *fails* (it counts in the
failed share) when it raised, exited with another code than expected, or
produced a wrong output.  A wrong output is a *problem* and makes the whole
run incorrect, with one exception: a ``verify`` FAIL whose verdict agrees
with its own checks, on a job listed in ``KNOWN_FALSE_FAILURES``, still
fails but is not a problem.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .workloads import KNOWN_FALSE_FAILURES, Job

IDENTITY_BUDGET = 1e-5
REPORT_COLUMNS = ["family", "n", "c", "params", "abs_H", "phi_norm", "alpha_H",
                  "scalar_curvature", "scalar_bound", "branch", "inf_K"]
VERIFY_CHECKS = ["simons_max", "scalar_vs_curvature_contraction",
                 "ricci_vs_contraction", "trace_phi", "phi_norm2_vs_kappas",
                 "point_on_space_form", "mean_curvature_vs_closed_form",
                 "phi_norm_vs_closed_form", "kappas_vs_closed_form"]
VERIFY_CHECKS_N2 = ["intrinsic_gauss_consistency", "gauss_upper_bound_violation"]
DECAY_VERDICTS = ["likely-divergent", "likely-convergent", "likely-divergent"]
CLASS_TOL = 1e-7  # the classifier's own tolerance on |Phi| - alpha_H


@dataclass
class Outcome:
    """What one job produced."""

    job: Job
    exit_code: int | None = None
    stdout: str = ""
    out_bytes: bytes | None = None
    value: dict | None = None
    error: str | None = None
    seconds: float = 0.0


@dataclass
class Finding:
    failed: bool = False
    problems: list[str] = field(default_factory=list)
    residual: float | None = None  # worst identity residual in the output


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def parse_params(text: str) -> dict[str, float]:
    out = {}
    for item in text.split(","):
        key, _, val = item.partition("=")
        out[key.strip()] = float(val)
    return out


@dataclass(frozen=True)
class Closed:
    n: int
    c: int
    abs_H: float
    phi_norm: float  # sup |Phi| for the unduloid

    @property
    def elliptic(self) -> bool:
        return self.abs_H ** 2 + self.c > 0

    @property
    def alpha(self) -> float | None:
        """Positive root of x^2 + n(n-2)/sqrt(n(n-1)) H x - n(c+H^2)."""
        if not self.elliptic:
            return None
        n = self.n
        b = n * (n - 2) / math.sqrt(n * (n - 1)) * self.abs_H
        return 0.5 * (-b + math.sqrt(b * b + 4.0 * n * (self.c + self.abs_H ** 2)))

    @property
    def branch(self) -> str:
        if not self.elliptic:
            return "non-elliptic"
        if self.phi_norm <= CLASS_TOL:
            return "umbilical"
        if abs(self.phi_norm - self.alpha) <= CLASS_TOL:
            return "equality"
        return "strict"


def closed_form(family: str, p: dict[str, float]) -> Closed:
    """H and |Phi| from the principal curvatures of each family."""
    if family == "unduloid":
        h, b = abs(p["H"]), p["B"]
        return Closed(2, 0, h, math.sqrt(2.0) * h * (1.0 + b) / (1.0 - b))
    n = int(p["n"])
    if family == "euclidean-product":
        k, r = int(p["k"]), p["r"]
        c, kap = 0, [0.0] * (n - k) + [1.0 / r] * k
    elif family == "sphere-product":
        r = p["r"]
        rho = math.sqrt(1.0 - r * r)
        c, kap = 1, [-rho / r] * (n - 1) + [r / rho]
    elif family == "clifford":
        k = int(p["k"])
        c, kap = 1, [-math.sqrt(k / (n - k))] * (n - k) + [math.sqrt((n - k) / k)] * k
    elif family == "hyperbolic-cylinder":
        k, r = int(p["k"]), p["r"]
        rho = math.sqrt(1.0 + r * r)
        c, kap = -1, [r / rho] * (n - k) + [rho / r] * k
    elif family == "umbilical-sphere":
        c, r = int(p["c"]), p["r"]
        kap = [math.sqrt(1.0 - c * r * r) / r] * n
    else:
        raise ValueError(f"unknown family {family!r}")
    mean = sum(kap) / n
    return Closed(n, c, abs(mean), math.sqrt(sum((k - mean) ** 2 for k in kap)))


def unduloid_K(h: float, b: float, s: float) -> float:
    """Gauss curvature -y''/y of the profile y = sqrt(q)/(2|H|)."""
    sn = math.sin(2.0 * h * s)
    q = 1.0 + b * b + 2.0 * b * sn
    return 4.0 * h * h * b * (b + sn) * (1.0 + b * sn) / (q * q)


def unduloid_x(h: float, b: float, s: float, nodes: int = 200_001) -> float:
    """Axial coordinate: composite Simpson of x'(t) on a fixed grid."""
    t = np.linspace(0.0, s, nodes)
    sn = np.sin(2.0 * h * t)
    f = (1.0 + b * sn) / np.sqrt(1.0 + b * b + 2.0 * b * sn)
    return float((f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
                 * (s / (nodes - 1)) / 3.0)


def _option(argv: tuple[str, ...], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _check_verify(job: Job, out: Outcome, f: Finding) -> None:
    spec = job.argv[1]
    tol = float(_option(job.argv, "--tol") or 1e-5)
    family, _, params = spec.partition(":")
    closed = closed_form(family, parse_params(params))
    rec = json.loads(out.stdout)
    got_family, _, got_params = rec["model"].partition(":")
    if got_family != family or parse_params(got_params) != parse_params(params):
        f.problems.append(f"model echoed as {rec['model']!r}")
    expected = VERIFY_CHECKS + (VERIFY_CHECKS_N2 if closed.n == 2 else [])
    checks = rec["checks"]
    if sorted(checks) != sorted(expected):
        f.problems.append(f"checks {sorted(checks)}")
        return
    if any(v is None or not v >= 0.0 for v in checks.values()):
        f.problems.append("a check is negative or not finite")
        return
    worst = max(checks.values())
    f.residual = checks["simons_max"]
    passed = worst <= tol
    if rec["max_residual"] != worst or rec["pass"] is not passed:
        f.problems.append("pass flag or max_residual disagrees with the checks")
    if out.exit_code != (0 if passed else 1):
        f.problems.append(f"exit code {out.exit_code} for pass={passed}")
    if rec["branch"] != closed.branch:
        f.problems.append(f"branch {rec['branch']} != closed form {closed.branch}")
    if not passed:
        f.failed = True
        if job.label not in KNOWN_FALSE_FAILURES:
            bad = [k for k, v in checks.items() if v > tol]
            f.problems.append(f"identity reported violated ({', '.join(bad)}) "
                              f"on a catalog model")


def _check_report_row(row: dict, closed: Closed, prediction: str | None,
                      f: Finding, where: str) -> None:
    def num(key):
        v = row[key]
        return None if v in ("", None) else float(v)

    alpha = closed.alpha
    if int(num("n")) != closed.n or int(num("c")) != closed.c:
        f.problems.append(f"{where}: n/c")
    if not _close(num("abs_H"), closed.abs_H):
        f.problems.append(f"{where}: abs_H {num('abs_H')} != {closed.abs_H}")
    if not _close(num("phi_norm"), closed.phi_norm):
        f.problems.append(f"{where}: phi_norm {num('phi_norm')} != {closed.phi_norm}")
    expected_branch = prediction if prediction is not None else "non-elliptic"
    if row["branch"] != expected_branch or row["branch"] != closed.branch:
        f.problems.append(f"{where}: branch {row['branch']} (prediction "
                          f"{expected_branch}, closed form {closed.branch})")
    scale = closed.n * (closed.n - 1) * (closed.c + closed.abs_H ** 2)
    if not _close(num("scalar_curvature"), scale - closed.phi_norm ** 2):
        f.problems.append(f"{where}: scalar_curvature")
    if alpha is None:
        if num("alpha_H") is not None or num("scalar_bound") is not None:
            f.problems.append(f"{where}: bounds reported for a non-elliptic model")
    else:
        a, sb = num("alpha_H"), num("scalar_bound")
        if a is None or sb is None or not _close(a, alpha):
            f.problems.append(f"{where}: alpha_H {a} != {alpha}")
        elif not _close(scale - a * a - sb, 0.0):  # the bound identity
            f.problems.append(f"{where}: bound identity residual {scale - a * a - sb:.3e}")
    inf_k = num("inf_K")
    if row["family"] == "unduloid":
        p = parse_params(row["params"])
        expect = -4.0 * p["H"] ** 2 * p["B"] / (1.0 - p["B"]) ** 2
        if inf_k is None or not _close(inf_k, expect):
            f.problems.append(f"{where}: inf_K {inf_k} != {expect}")
    elif inf_k is not None:
        f.problems.append(f"{where}: inf_K set on a non-unduloid row")


def _check_report(job: Job, out: Outcome, f: Finding) -> None:
    from cmcgeo import catalog

    models = catalog.default_model_grid()
    text = out.out_bytes.decode()
    if _option(job.argv, "--format") == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        if text.splitlines()[0].split(",") != REPORT_COLUMNS:
            f.problems.append("CSV header")
    else:
        rows = json.loads(text)
        f.residual = max(r["residual_max"] for r in rows)
        if any(not r.get("timestamp") for r in rows):
            f.problems.append("JSON record without a timestamp")
    if len(rows) != len(models):
        f.problems.append(f"{len(rows)} rows for {len(models)} models")
        return
    for i, (row, model) in enumerate(zip(rows, models)):
        where = f"row {i} {row['family']}:{row['params']}"
        if row["family"] != model.family or row["params"] != model.params_text():
            f.problems.append(f"{where}: expected {model.family}:{model.params_text()}")
            continue
        prediction = catalog.closed_form_invariants(model).branch_prediction
        _check_report_row(row, closed_form(row["family"], parse_params(row["params"])),
                          prediction, f, where)


def _check_unduloid(job: Job, out: Outcome, f: Finding) -> None:
    argv = job.argv
    h = float(_option(argv, "--H"))
    samples = int(_option(argv, "--samples"))
    eps = _option(argv, "--solve-eps")
    if "--csv" in argv:
        b = float(_option(argv, "--B"))
        lines = list(csv.reader(io.StringIO(out.stdout)))
        if lines[0] != ["s", "x", "y", "y_prime", "y_second", "K", "phi_norm"]:
            f.problems.append("CSV header")
            return
        rows = [dict(zip(lines[0], map(float, line))) for line in lines[1:]]
    else:
        rec = json.loads(out.stdout)
        b = rec["B"]
        rows = rec["samples"]
        if rec["H"] != h or not 0.0 < b < 1.0:
            f.problems.append(f"echoed H={rec['H']}, B={b}")
            return
        if eps is None:
            if b != float(_option(argv, "--B")) or rec["solved_from_eps"] is not None:
                f.problems.append("B or solved_from_eps echoed wrong")
        elif rec["solved_from_eps"] != float(eps) or not _close(rec["inf_K"], -float(eps)):
            f.problems.append(f"solve-eps round trip: inf_K {rec['inf_K']} for eps {eps}")
        inf_k = -4.0 * h * h * b / (1.0 - b) ** 2
        if not _close(rec["inf_K"], inf_k):
            f.problems.append(f"inf_K {rec['inf_K']} != {inf_k}")
        if not _close(rec["sup_phi"], math.sqrt(2.0) * abs(h) * (1 + b) / (1 - b)):
            f.problems.append("sup_phi")
        if not _close(rec["alpha_H"], math.sqrt(2.0) * abs(h)):
            f.problems.append("alpha_H")

    if len(rows) != samples:
        f.problems.append(f"{len(rows)} rows for {samples} samples")
        return
    sup_phi = math.sqrt(2.0) * abs(h) * (1.0 + b) / (1.0 - b)
    inf_k = -4.0 * h * h * b / (1.0 - b) ** 2
    period = math.pi / abs(h)
    for i, row in enumerate(rows):
        s = row["s"]
        k = unduloid_K(h, b, s)
        if not _close(s, period * i / samples, 1e-12):
            f.problems.append(f"row {i}: s={s}")
        elif not _close(row["K"], k) or row["K"] < inf_k * (1.0 + 1e-12) - 1e-12:
            f.problems.append(f"row {i}: K={row['K']}, closed form {k}")
        elif not _close(row["phi_norm"], math.sqrt(2.0 * (h * h - k))):
            f.problems.append(f"row {i}: phi_norm")
        elif row["phi_norm"] > sup_phi * (1.0 + 1e-12):
            f.problems.append(f"row {i}: phi_norm {row['phi_norm']} above sup {sup_phi}")
        elif i and not row["x"] > rows[i - 1]["x"]:
            f.problems.append(f"row {i}: x(s) not increasing")
        if len(f.problems) > 5:
            return
    last = rows[-1]
    if rows[0]["x"] != 0.0 or abs(last["x"] - unduloid_x(h, b, last["s"])) > 1e-8:
        f.problems.append(f"x(s) at s={last['s']}: {last['x']} vs Simpson "
                          f"{unduloid_x(h, b, last['s'])}")


def _check_okumura(job: Job, out: Outcome, f: Finding) -> None:
    rec = json.loads(out.stdout)
    if rec["n"] != int(_option(job.argv, "--n")) or rec["trials"] != int(_option(job.argv, "--trials")):
        f.problems.append("n or trials echoed wrong")
    if not (rec["pass"] and rec["equality_sides_ok"] and rec["min_slack"] >= -1e-12):
        f.problems.append(f"cubic bound trials: {rec}")


def _check_oy(job: Job, out: Outcome, f: Finding) -> None:
    v = out.value
    p = parse_params(job.argv[0].partition(":")[2])
    h, b = p["H"], p["B"]
    sup2 = 2.0 * h * h * ((1.0 + b) / (1.0 - b)) ** 2  # sup |Phi|^2
    if len(v["weak"]) != 10 or not all(v["weak"]) or not all(v["full"]):
        f.problems.append(f"witness fails verify_oy_points: weak {v['weak']}, full {v['full']}")
    if not sup2 * (1.0 - 1e-2) <= v["sup_estimate"] <= sup2 * (1.0 + 1e-9):
        f.problems.append(f"sup estimate {v['sup_estimate']} vs sup |Phi|^2 {sup2}")
    for k, val in enumerate(v["values"], start=1):
        if not val > v["sup_estimate"] - 1.0 / k:
            f.problems.append(f"witness point {k}: value {val}")


def _check_decay(job: Job, out: Outcome, f: Finding) -> None:
    if out.value["verdicts"] != DECAY_VERDICTS:
        f.problems.append(f"decay verdicts {out.value['verdicts']} != {DECAY_VERDICTS}")


_CLI_CHECKS = {"verify": _check_verify, "report": _check_report,
               "unduloid": _check_unduloid, "okumura": _check_okumura}


class Oracle:
    """Checks outputs; remembers each job's first output so that repeated
    passes must reproduce it byte for byte (JSON reports up to timestamps)."""

    def __init__(self):
        self._first: dict[str, str] = {}

    def check(self, out: Outcome) -> Finding:
        job = out.job
        f = Finding()
        if out.error is not None:
            f.failed = True
            f.problems.append(f"raised: {out.error}")
            return f
        try:
            if job.kind == "cli":
                _CLI_CHECKS[job.argv[0]](job, out, f)
                if job.argv[0] != "verify" and out.exit_code != 0:
                    f.problems.append(f"exit code {out.exit_code}")
            elif job.kind == "oy":
                _check_oy(job, out, f)
            else:
                _check_decay(job, out, f)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            f.problems.append(f"malformed output: {exc!r}")
        stable = self._stable_text(out)
        first = self._first.setdefault(job.label, stable)
        if stable != first:
            f.problems.append("output differs from the first pass")
        if f.problems:
            f.failed = True
        return f

    @staticmethod
    def _stable_text(out: Outcome) -> str:
        if out.value is not None:
            return json.dumps(out.value, sort_keys=True)
        if out.out_bytes is None:
            return out.stdout
        return _TIMESTAMP.sub('"timestamp": ""', out.out_bytes.decode())


_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
