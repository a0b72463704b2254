"""Command-line interface.

Subcommands: ``model`` (closed-form record for one model), ``verify``
(residual suite over a sample grid), ``okumura`` (random trace-free
inequality trials), ``unduloid`` (profile/curvature table and the inverse
problem for a prescribed curvature infimum) and ``report`` (CSV/JSON sweep
over the whole catalog).  Every number in any output is reproducible by
calling the underlying library function with the same inputs; the CLI is a
thin shell.

Exit codes: 0 ok, 1 residual above tolerance, 2 parse/usage error,
3 invalid model parameters, 4 I/O failure, 5 any other package error
(``CmcError``), such as a finite-difference stencil leaving the chart
domain.  The environment variable ``CMC_FD_STEP`` overrides the
finite-difference step; when set and non-empty it must be a finite positive
number whose square does not underflow (the second-difference quotients
divide by it), otherwise the command exits 2.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _jstr  # what json.dumps(str) returns

import numpy as np

from . import bounds, catalog, geometry
from .errors import CmcError, InvalidParameters, NonElliptic, ParseError
from .spaceform import bilinear_form

_CSV_COLUMNS = ["family", "n", "c", "params", "abs_H", "phi_norm", "alpha_H",
                "scalar_curvature", "scalar_bound", "branch", "inf_K"]

_TABLE_COLUMNS = ("s", "x", "y", "y_prime", "y_second", "K", "phi_norm")

_EXIT_OK = 0
_EXIT_RESIDUAL = 1
_EXIT_PARSE = 2
_EXIT_PARAMS = 3
_EXIT_IO = 4
_EXIT_NUMERIC = 5


class _UsageError(Exception):
    """A command-line option or environment value is unusable (exit 2)."""


def _fd_step() -> float | None:
    """Explicit step from CMC_FD_STEP, or None to use per-operation defaults."""
    raw = os.environ.get("CMC_FD_STEP")
    if not raw:
        return None
    try:
        h = float(raw)
        geometry._check_step(h)
    except ValueError as exc:
        raise _UsageError(f"CMC_FD_STEP {raw!r}: {exc}") from None
    return h


def _residual(chart, u, h: float | None) -> float:
    return geometry.simons_residual(chart, u, geometry.DEFAULT_SIMONS_STEP if h is None else h)


# --------------------------------------------------------------------------
# JSON with 17-significant-digit floats (round-trip safe, byte-stable)
# --------------------------------------------------------------------------

def _jfmt(obj) -> str:
    if type(obj) is float:  # the bulk of every record
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return format(x, ".17g") if math.isfinite(x) else "null"
    if isinstance(obj, str):
        return _jstr(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_jstr(str(k))}: {_jfmt(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_jfmt(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(obj) -> None:
    sys.stdout.write(_jfmt(obj) + "\n")


# --------------------------------------------------------------------------
# shared record assembly
# --------------------------------------------------------------------------

def _residual_points(chart, per_axis: int, cap: int, seed: int):
    pts = list(geometry.sample_points(chart, per_axis))
    if len(pts) > cap:
        rng = np.random.default_rng(seed)
        idx = sorted(rng.choice(len(pts), size=cap, replace=False))
        pts = [pts[i] for i in idx]
    return pts


def _model_record(model, *, residual_axis: int, residual_cap: int,
                  seed: int, h: float | None) -> dict:
    inv = catalog.closed_form_invariants(model)
    space = model.space
    n, c = space.n, space.c
    try:
        verdict = bounds.classify(model, inv)
        branch = verdict.branch
        alpha = verdict.gap_threshold
        sbound = verdict.scalar_bound
    except NonElliptic:
        branch = "non-elliptic"
        alpha = None
        sbound = None
    chart = catalog.build_chart(model)
    residual_max = 0.0
    for u in _residual_points(chart, residual_axis, residual_cap, seed):
        residual_max = max(residual_max, abs(_residual(chart, u, h)))
    return {
        "family": model.family,
        "n": n,
        "c": c,
        "params": model.params_text(),
        "H_signed": inv.H_signed,
        "abs_H": inv.abs_H,
        "phi_norm": inv.phi_norm,
        "alpha_H": alpha,
        "scalar_curvature": n * (n - 1) * (c + inv.abs_H**2) - inv.phi_norm**2,
        "scalar_bound": sbound,
        "branch": branch,
        "residual_max": residual_max,
        "inf_K": inv.inf_gauss,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_model(args) -> int:
    model = catalog.parse_model(args.spec)
    record = _model_record(model, residual_axis=args.grid, residual_cap=32,
                           seed=args.seed, h=_fd_step())
    _emit(record)
    return _EXIT_OK


def _cmd_verify(args) -> int:
    model = catalog.parse_model(args.spec)
    h = _fd_step()
    chart = catalog.build_chart(model)
    inv = catalog.closed_form_invariants(model)
    space = model.space
    n, c = space.n, space.c
    rng = np.random.default_rng(12345)

    checks: dict[str, float] = {
        "simons_max": 0.0,
        "scalar_vs_curvature_contraction": 0.0,
        "ricci_vs_contraction": 0.0,
        "trace_phi": 0.0,
        "phi_norm2_vs_kappas": 0.0,
        "point_on_space_form": 0.0,
        "mean_curvature_vs_closed_form": 0.0,
        "phi_norm_vs_closed_form": 0.0,
        "kappas_vs_closed_form": 0.0,
    }
    if n == 2:
        checks["intrinsic_gauss_consistency"] = 0.0
        checks["gauss_upper_bound_violation"] = 0.0

    def bump(key: str, value: float) -> None:
        checks[key] = max(checks[key], float(abs(value)))

    for u in geometry.sample_points(chart, args.grid, max_points=512):
        sd = geometry.shape_data_at(chart, u)
        bump("simons_max", _residual(chart, u, h))
        bump("scalar_vs_curvature_contraction",
             geometry.scalar_from_curvature(sd) - sd.scalar_curvature)
        for _ in range(2):
            x = rng.uniform(-1.0, 1.0, n)
            y = rng.uniform(-1.0, 1.0, n)
            bump("ricci_vs_contraction",
                 geometry.ricci_from_curvature(sd, x, y) - geometry.ricci(sd, x, y))
        bump("trace_phi", float(np.trace(sd.traceless_shape)))
        kap = sd.principal_curvatures
        bump("phi_norm2_vs_kappas",
             sd.traceless_norm2 - (float(np.dot(kap, kap)) - n * sd.mean_curvature**2))
        if c != 0:
            target = 1.0 if c == 1 else -1.0
            bump("point_on_space_form", bilinear_form(space, sd.position, sd.position) - target)
        bump("mean_curvature_vs_closed_form", sd.mean_curvature - inv.abs_H)
        closed_phi, closed_kap = catalog.closed_form_at(model, inv, u)
        bump("phi_norm_vs_closed_form", math.sqrt(sd.traceless_norm2) - closed_phi)
        mismatch = min(float(np.max(np.abs(kap - closed_kap))),
                       float(np.max(np.abs(kap + closed_kap[::-1]))))
        bump("kappas_vs_closed_form", mismatch)
        if n == 2:
            kint = geometry.intrinsic_gauss_n2(chart, u, geometry.DEFAULT_FD_STEP if h is None else h)
            bump("intrinsic_gauss_consistency",
                 kint - ((c + sd.mean_curvature**2) - sd.traceless_norm2 / 2.0))
            checks["gauss_upper_bound_violation"] = max(
                checks["gauss_upper_bound_violation"],
                float(kint - (sd.mean_curvature**2 + c)))

    try:
        branch = bounds.classify(model, inv).branch
    except NonElliptic:
        branch = "non-elliptic"
    worst = max(checks.values())
    summary = {
        "model": catalog.model_to_text(model),
        "grid": args.grid,
        "tol": args.tol,
        "branch": branch,
        "checks": checks,
        "max_residual": worst,
        "pass": bool(worst <= args.tol),
    }
    _emit(summary)
    return _EXIT_OK if worst <= args.tol else _EXIT_RESIDUAL


def _cmd_okumura(args) -> int:
    n, trials = args.n, args.trials
    if n < 2:
        raise InvalidParameters("n must be >= 2")
    rng = np.random.default_rng(args.seed)
    draws = rng.uniform(-1.0, 1.0, size=(trials, n))
    draws -= draws.mean(axis=1, keepdims=True)
    s2 = np.sum(draws * draws, axis=1)
    s3 = np.sum(draws**3, axis=1)
    bound = (n - 2) / math.sqrt(n * (n - 1)) * s2**1.5
    min_slack = float(np.min(bound - np.abs(s3)))

    sides_ok = True
    for t in (0.5, 1.0, 2.0):
        upper = np.r_[np.full(n - 1, -t), [(n - 1) * t]]
        lower = -upper
        rep_u = bounds.okumura_check(upper, tol=1e-12)
        rep_l = bounds.okumura_check(lower, tol=1e-12)
        sides_ok &= rep_u.equality_side in ("upper", "both")
        sides_ok &= rep_l.equality_side in ("lower", "both")
        sides_ok &= abs(rep_u.sum_cubes - rep_u.upper_bound) <= 1e-9 * max(1.0, abs(rep_u.upper_bound))
        sides_ok &= abs(rep_l.sum_cubes - rep_l.lower_bound) <= 1e-9 * max(1.0, abs(rep_l.lower_bound))

    ok = min_slack >= -1e-12 and sides_ok
    _emit({
        "n": n,
        "trials": trials,
        "seed": args.seed,
        "min_slack": min_slack,
        "equality_sides_ok": bool(sides_ok),
        "pass": bool(ok),
    })
    return _EXIT_OK if ok else _EXIT_RESIDUAL


def _cmd_unduloid(args) -> int:
    if args.samples < 1:
        raise _UsageError("--samples must be at least 1")
    if args.solve_eps is not None:
        b = catalog.solve_B_for_inf_gauss(args.H, args.solve_eps)
    else:
        b = args.B
    model = catalog.Unduloid(args.H, b)
    h, b = model.H, model.B
    period = math.pi / abs(h)
    s_grid = np.linspace(0.0, period, args.samples, endpoint=False)
    p = catalog.unduloid_profile(h, b, s_grid)
    columns = [s_grid, p.x, p.y, p.y_prime, p.y_second, p.K, catalog.unduloid_phi_norm(h, p.K)]
    values = list(zip(*(col.tolist() for col in columns)))
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_TABLE_COLUMNS)
        writer.writerows([format(v, ".17g") for v in row] for row in values)
    else:
        _emit({
            "H": h,
            "B": b,
            "solved_from_eps": args.solve_eps,
            "inf_K": catalog.unduloid_inf_gauss(h, b),
            "sup_phi": catalog.unduloid_sup_phi(h, b),
            "alpha_H": math.sqrt(2.0) * abs(h),
            "samples": [dict(zip(_TABLE_COLUMNS, row)) for row in values],
        })
    return _EXIT_OK


def _cmd_report(args) -> int:
    known = sorted({m.family for m in catalog.default_model_grid()})
    families = args.families.split(",") if args.families else known
    for fam in families:
        if fam not in known:
            raise ParseError(f"unknown family {fam!r}; known: {', '.join(known)}")
    models = [m for m in catalog.default_model_grid() if m.family in families]
    h = _fd_step()
    records = [
        _model_record(m, residual_axis=2, residual_cap=4, seed=args.seed, h=h)
        for m in models
    ]
    out = args.out or f"cmc_report.{args.format}"
    try:
        with open(out, "w", newline="") as fh:
            if args.format == "csv":
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(_CSV_COLUMNS)
                for rec in records:
                    writer.writerow([_csv_cell(rec[col]) for col in _CSV_COLUMNS])
            else:
                fh.write(_jfmt(records) + "\n")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return _EXIT_IO
    print(f"wrote {len(records)} records to {out}")
    return _EXIT_OK


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# --------------------------------------------------------------------------
# parser / entry
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmc",
        description="Constant-mean-curvature hypersurface geometry: evaluate "
                    "catalog models, verify curvature identities, emit reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="closed-form record for one model")
    p_model.add_argument("spec", help="model text, e.g. unduloid:H=1.0,B=0.5")
    p_model.add_argument("--grid", type=int, default=3,
                         help="per-axis sampling for the residual check")
    p_model.add_argument("--seed", type=int, default=0)
    p_model.set_defaults(fn=_cmd_model)

    p_verify = sub.add_parser("verify", help="run the identity suite on a grid")
    p_verify.add_argument("spec")
    p_verify.add_argument("--grid", type=int, default=8)
    p_verify.add_argument("--tol", type=float, default=1e-5)
    p_verify.set_defaults(fn=_cmd_verify)

    p_oku = sub.add_parser("okumura", help="random trace-free inequality trials")
    p_oku.add_argument("--n", type=int, required=True)
    p_oku.add_argument("--trials", type=int, default=100_000)
    p_oku.add_argument("--seed", type=int, default=0)
    p_oku.set_defaults(fn=_cmd_okumura)

    p_und = sub.add_parser("unduloid", help="profile and curvature table")
    p_und.add_argument("--H", type=float, required=True)
    group = p_und.add_mutually_exclusive_group(required=True)
    group.add_argument("--B", type=float)
    group.add_argument("--solve-eps", type=float, dest="solve_eps",
                       help="choose B so that inf K equals minus this value")
    p_und.add_argument("--samples", type=int, default=64)
    p_und.add_argument("--csv", action="store_true")
    p_und.set_defaults(fn=_cmd_unduloid)

    p_rep = sub.add_parser("report", help="sweep the catalog into a file")
    p_rep.add_argument("--families", default="",
                       help="comma-separated family names (default: all)")
    p_rep.add_argument("--out", default="")
    p_rep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify" and args.grid < 4:
            raise _UsageError("--grid must be at least 4")
        return args.fn(args)
    except (_UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARAMS
    except CmcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
