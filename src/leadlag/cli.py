"""Command-line interface: simulate, estimate, gain, mc, model-check.

Exit codes: 0 success, 1 usage error, 2 bad data or configuration,
3 numerical failure, or an ``mc`` summary marked invalid (more than 5% of
its replications failed; the summary is still written). All file outputs
are written atomically (temp file in the target directory, then rename),
so failures leave no partial files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import DataError, LeadLagError, NumericError, UsageError
from .estimator import LagGrid, check_levels_fit, estimate_levels
from .filters import FAMILIES, base_filter, cascade, empirical_gain, level_gain
from .ingest import align_to_grid, read_csv
from .model import check_lags_in_grid, cross_spectral_density, load_model
from .montecarlo import load_mc_config, run_mc, write_summary_csv
from .simulate import circulant_embed_sample

REPORT_SCHEMA_VERSION = 1
THREADS_ENV_VAR = "LEADLAG_THREADS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def check_writable(path) -> None:
    """Fail fast on an unusable output path, before any computation."""
    if path in (None, "-"):
        return
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise DataError(f"output directory does not exist: {directory}")
    if not os.access(directory, os.W_OK):
        raise DataError(f"output directory is not writable: {directory}")


@contextlib.contextmanager
def atomic_output(path):
    """Yield a text handle whose content reaches ``path`` only on success."""
    if path in (None, "-"):
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".leadlag-", suffix=".tmp")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    try:
        with io.open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def build_parser() -> _Parser:
    parser = _Parser(
        prog="leadlag",
        description=(
            "Scale-by-scale lead-lag estimation between two high-frequency "
            "price series via wavelet cross-covariance, with a matching "
            "simulator and Monte Carlo harness."
        ),
    )
    parser.add_argument("--version", action="version", version=f"leadlag {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser(
        "gain",
        help="tabulate the level-j squared gain function",
        description=(
            "Emit CSV columns (lambda, H_jL, empirical_gain) on a uniform "
            "frequency grid over [0, pi] radians per sample: the closed-form "
            "squared gain and the |DFT|^2 of the cascade filter."
        ),
    )
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--level", type=int, default=1, help="cascade level j >= 1")
    p.add_argument("--points", type=int, default=1024, help="number of frequencies")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")

    p = sub.add_parser(
        "simulate",
        help="draw one synthetic path from a model file",
        description=(
            "Simulate bivariate increments with the model's cross-covariance "
            "and Bernoulli missingness. Output CSV columns: k, r1, r2, miss1, "
            "miss2, where miss flags refer to grid point k+1 (point 0 is "
            "always observed). Optional tick outputs list only observed grid "
            "points as (timestamp, price=exp(level)) with timestamps in "
            "seconds (k times the model's grid spacing)."
        ),
    )
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV for increments")
    p.add_argument("--ticks1", default=None, help="optional tick CSV, series 1")
    p.add_argument("--ticks2", default=None, help="optional tick CSV, series 2")

    p = sub.add_parser(
        "estimate",
        help="estimate per-scale lead-lag times from two tick CSVs",
        description=(
            "Align two tick series (header: timestamp,price; timestamps in "
            "seconds) onto a grid of spacing --tau seconds by previous-tick "
            "interpolation, then estimate the lead-lag time at each level. "
            "Estimated lags are reported in grid steps and in seconds; "
            "negative values mean the second series leads."
        ),
    )
    p.add_argument("--in1", required=True, help="tick CSV for series 1")
    p.add_argument("--in2", required=True, help="tick CSV for series 2")
    p.add_argument("--family", default="la20", choices=FAMILIES)
    p.add_argument("--levels", type=int, default=8, help="number of levels j=1..J")
    p.add_argument("--maxlag", type=int, default=300, help="grid half-width, in steps")
    p.add_argument("--tau", type=float, default=1.0, help="grid spacing in seconds")
    p.add_argument("--t0", type=float, default=None, help="grid origin (seconds)")
    p.add_argument("--n", type=int, default=None, help="number of grid steps")
    p.add_argument(
        "--scale",
        default="raw_price",
        choices=("raw_price", "log_price"),
        help="whether input prices need a log transform",
    )
    p.add_argument("--out", required=True, help="output report JSON")

    p = sub.add_parser(
        "mc",
        help="run a replicated simulation experiment",
        description=(
            "Replicate simulate -> previous-tick -> estimate and tabulate the "
            "lower median and MAD of the estimated lags (in grid steps) per "
            "family and level, plus the single-scale baseline row."
        ),
    )
    p.add_argument("--config", required=True, help="experiment JSON file")
    p.add_argument("--reps", type=int, default=None, help="override replication count")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help=(
            f"worker processes (default: the config's threads key, else all "
            f"cores; env {THREADS_ENV_VAR} overrides)"
        ),
    )
    p.add_argument("--out", required=True, help="output summary CSV")

    p = sub.add_parser(
        "model-check",
        help="validate a model file",
        description=(
            "Check admissibility of a model file: band correlations within "
            "[-1, 1], missing probabilities in [0, 1), hermitian symmetry and "
            "boundedness of the implied cross-spectral density."
        ),
    )
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--l-max", type=int, default=None, help="grid half-width to check lags against")

    return parser


def _cmd_gain(args) -> int:
    if args.level < 1:
        raise UsageError(f"--level must be >= 1, got {args.level}")
    if args.level > 12:
        raise UsageError(
            f"--level {args.level}: cascade filters beyond level 12 are too "
            "large to tabulate"
        )
    if args.points < 2:
        raise UsageError(f"--points must be >= 2, got {args.points}")
    check_writable(args.out)
    base = base_filter(args.family)
    filt = cascade(base, args.level)
    try:
        lams = np.linspace(0.0, math.pi, args.points)
    except (MemoryError, ValueError):
        raise DataError(f"--points {args.points} is too large to allocate") from None
    theory = level_gain(args.level, base.length, lams)
    empirical = empirical_gain(filt.coefficients, lams)
    with atomic_output(args.out) as fh:
        fh.write("# leadlag-gain schema_version=1\n")
        fh.write("lambda,H_jL,empirical_gain\n")
        for lam, t, e in zip(lams, theory, empirical):
            fh.write(f"{float(lam)!r},{float(t)!r},{float(e)!r}\n")
    return 0


def _cmd_simulate(args) -> int:
    for path in (args.out, args.ticks1, args.ticks2):
        check_writable(path)
    model, scheme = load_model(args.model)
    sample = circulant_embed_sample(model, scheme, args.seed)
    with atomic_output(args.out) as fh:
        fh.write("# leadlag-path schema_version=1\n")
        fh.write("k,r1,r2,miss1,miss2\n")
        for k in range(scheme.n):
            fh.write(
                f"{k},{float(sample.returns1[k])!r},{float(sample.returns2[k])!r},"
                f"{int(sample.mask1[k + 1])},{int(sample.mask2[k + 1])}\n"
            )
    for path, returns, mask in (
        (args.ticks1, sample.returns1, sample.mask1),
        (args.ticks2, sample.returns2, sample.mask2),
    ):
        if path is None:
            continue
        levels = np.concatenate(([0.0], np.cumsum(returns)))
        with atomic_output(path) as fh:
            fh.write("timestamp,price\n")
            for k in range(scheme.n + 1):
                if not mask[k]:
                    fh.write(f"{float(k * scheme.tau)!r},{math.exp(levels[k])!r}\n")
    return 0


def _cmd_estimate(args) -> int:
    if args.levels < 1:
        raise UsageError(f"--levels must be >= 1, got {args.levels}")
    if args.maxlag < 0:
        raise UsageError(f"--maxlag must be >= 0, got {args.maxlag}")
    if not (math.isfinite(args.tau) and args.tau > 0):
        raise UsageError(f"--tau must be finite and positive, got {args.tau}")
    if args.t0 is not None and not math.isfinite(args.t0):
        raise UsageError(f"--t0 must be finite, got {args.t0}")
    if args.n is not None:
        # feasibility is checkable before touching any data
        try:
            check_levels_fit(args.family, args.levels, args.maxlag, args.n)
        except DataError as exc:
            raise UsageError(f"--levels/--maxlag too large for --n: {exc}") from None
    check_writable(args.out)
    ticks1 = read_csv(args.in1, scale=args.scale)
    ticks2 = read_csv(args.in2, scale=args.scale)
    t0 = args.t0
    if t0 is None:
        t0 = max(ticks1.timestamps[0], ticks2.timestamps[0])
    n = args.n
    if n is None:
        horizon = min(ticks1.timestamps[-1], ticks2.timestamps[-1]) - t0
        steps = float(horizon) / args.tau
        if not math.isfinite(steps):
            raise DataError(
                f"series overlap of {horizon} s holds too many grid steps of {args.tau} s"
            )
        n = int(math.floor(steps))
        if n <= 0:
            raise DataError(
                f"series overlap of {horizon} s leaves no full grid step of {args.tau} s"
            )
    ret1 = align_to_grid(ticks1, t0, args.tau, n)
    ret2 = align_to_grid(ticks2, t0, args.tau, n)
    check_levels_fit(args.family, args.levels, args.maxlag, n)  # before the grid is allocated
    grid = LagGrid.symmetric(args.maxlag)
    results = estimate_levels(ret1, ret2, args.family, args.levels, grid)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "family": args.family,
        "tau": args.tau,
        "t0": t0,
        "n": n,
        "levels": [
            {
                "j": est.level,
                "theta_hat_steps": est.lag,
                "theta_hat_seconds": est.theta_seconds,
                "peak": est.peak_value,
                "runner_up_gap": est.runner_up_gap,
                "tied": est.tied,
                "degenerate": est.degenerate,
                "curve": [
                    {"l": l, "rho": r, "rho_norm": rn}
                    for l, r, rn in zip(
                        curve.lags.tolist(), curve.rho.tolist(), curve.rho_normalized.tolist()
                    )
                ],
            }
            for curve, est in results
        ],
    }
    with atomic_output(args.out) as fh:
        fh.write(render_report(report))
    return 0


def render_report(report: dict) -> str:
    """``json.dumps(report, indent=2) + "\\n"``, byte for byte, for an
    ``estimate`` report.

    json's indenting encoder runs in pure Python, and nearly all of a
    report is curve points. So json writes the report with each level's
    curve emptied, and the curve text, one template fill per point, then
    replaces that level's ``"curve": []``.
    """
    levels = report["levels"]
    shell = dict(report, levels=[dict(level, curve=[]) for level in levels])
    curves = iter([level["curve"] for level in levels])
    text = _EMPTY_CURVE.sub(
        lambda m: m[1] + '"curve": ' + _curve_text(next(curves), m[1]),
        json.dumps(shell, indent=2),
    )
    return text + "\n"


# json escapes every quote and newline inside a string, and only a key is
# followed by ": ", so a line that starts with this is a level's curve.
_EMPTY_CURVE = re.compile(r'^( *)"curve": \[\]', re.MULTILINE)


def _curve_text(points, pad: str) -> str:
    """The JSON array of curve points ``{l, rho, rho_norm}`` after ``pad``."""
    if not points:
        return "[]"
    item = pad + "  "
    point = (
        item + "{\n"
        + item + '  "l": %d,\n'
        + item + '  "rho": %s,\n'
        + item + '  "rho_norm": %s\n'
        + item + "}"
    )
    body = ",\n".join(
        point % (p["l"], _json_float(p["rho"]), _json_float(p["rho_norm"])) for p in points
    )
    return "[\n" + body + "\n" + pad + "]"


def _json_float(x: float) -> str:
    """A float as json writes it: its repr, or NaN, Infinity, -Infinity."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _cmd_mc(args) -> int:
    threads = args.threads
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            threads = int(env)
        except ValueError:
            raise UsageError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}")
    check_writable(args.out)
    config = load_mc_config(
        args.config, replications=args.reps, master_seed=args.seed, threads=threads
    )
    summary = run_mc(config)
    with atomic_output(args.out) as fh:
        write_summary_csv(summary, fh)
    if not summary.valid:
        print(
            f"warning: {summary.failures} of {summary.replications} replications "
            "failed; summary marked invalid",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_model_check(args) -> int:
    model, scheme = load_model(args.model)
    rng = np.random.default_rng(0)
    lams = rng.uniform(0.0, 2.0 ** (model.finest_level + 1) * math.pi, size=512)
    f_pos = cross_spectral_density(model, lams)
    f_neg = cross_spectral_density(model, -lams)
    hermitian_residual = float(np.max(np.abs(np.conj(f_pos) - f_neg)))
    max_modulus = float(np.max(np.abs(f_pos)))
    if hermitian_residual > 1e-12:
        raise NumericError(
            f"cross-spectral density violates hermitian symmetry by {hermitian_residual:.3e}"
        )
    if args.l_max is not None:
        check_lags_in_grid(model, args.l_max)
    active = model.active_levels()
    print(f"model ok: J={model.finest_level}, tau={scheme.tau!r}, n={scheme.n}")
    print(f"active levels: {active or 'none'}")
    print(f"missing probabilities: pi1={scheme.pi1}, pi2={scheme.pi2}")
    print(f"max |density| over sampled frequencies: {max_modulus:.6f} (admissible <= 1)")
    print(f"hermitian symmetry residual: {hermitian_residual:.2e}")
    return 0


_COMMANDS = {
    "gain": _cmd_gain,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "mc": _cmd_mc,
    "model-check": _cmd_model_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except LeadLagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
