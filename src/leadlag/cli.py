"""Command-line interface: simulate, estimate, gain, mc, model-check.

A run that fails prints ``label: message`` of its ``LeadLagError`` on
stderr and exits with the error class's ``exit_code`` (``errors``): 1 for
a usage error, 2 for bad data or configuration, 3 for a numerical failure.
``mc`` also exits 3, after a warning, when its summary is invalid (more
than 5% of its replications failed; the summary is still written). Each
command opens its outputs with ``atomic_outputs`` before it reads any
input, so a bad output path, such as an existing directory, FIFO or
hard-linked file, or one that names the file of an input, is exit 2
before the work. An output is a hidden temp file beside its target (a
symlink's target) until the command succeeds, so failures leave no
partial files. ``estimate`` and ``gain`` load only the estimate path;
``simulate``, ``model-check`` and ``mc`` import the model, the simulator
and the Monte Carlo harness when they run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import shutil
import sys
from collections.abc import Iterator

import numpy as np

from . import __version__
from .errors import DataError, LeadLagError, NumericError, UsageError
from .estimator import LagGrid, check_levels_fit, estimate_levels, modwt
from .filters import FAMILIES, base_filter, cascade, empirical_gain, level_gain
from .ingest import PRICE_SCALES, align_to_grid, read_csv

REPORT_SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


@contextlib.contextmanager
def atomic_output(path):
    """Yield a text handle whose content reaches ``path`` only on success,
    or stdout for None or "-". The one output check: raises DataError,
    naming the path, where no file can be made at ``path``. The file lands
    as ``open(path, "w")`` would leave it: a symlink's target is written,
    a new file takes the umask and a replaced one keeps its mode. A file
    with other hard links is refused: the rename would split its names."""
    if path in (None, "-"):
        yield sys.stdout
        return
    if not path or path.endswith((os.sep, os.altsep or os.sep)):
        raise DataError(f"output path {path!r} names no file")
    target = os.path.realpath(path)
    if os.path.lexists(target):
        if not os.path.isfile(target):
            raise DataError(f"output path {path!r} is not a regular file")
        if os.stat(target).st_nlink > 1:
            raise DataError(f"output path {path!r} has other hard links")
    directory = os.path.dirname(target)
    tmp = os.path.join(directory, f".leadlag-{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"output directory {directory} of {path!r}: {exc.strerror}") from exc
    try:
        with fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):  # a new file keeps open()'s mode
            shutil.copymode(target, tmp)
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise DataError(f"cannot write {path!r}: {exc.strerror}") from exc
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def atomic_outputs(outputs, inputs):
    """Yield ``{flag: handle}`` for ``outputs``, a map from flag to path
    whose paths of None are left out, each opened with ``atomic_output``
    in one stack: a failure anywhere discards every output's temp file.
    Then an output on the file of an input in ``inputs``, also a map from
    flag to path, or of an earlier output is refused (``_refuse_shared_files``)."""
    with contextlib.ExitStack() as stack:
        opened = [(flag, path) for flag, path in outputs.items() if path is not None]
        handles = {flag: stack.enter_context(atomic_output(path)) for flag, path in opened}
        _refuse_shared_files(opened, inputs.items())
        yield handles


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
    p.set_defaults(run=_cmd_gain)

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
    p.set_defaults(run=_cmd_simulate)

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
        choices=PRICE_SCALES,
        help="whether input prices need a log transform",
    )
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(run=_cmd_estimate)

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
        help="worker processes (default: all cores)",
    )
    p.add_argument("--out", required=True, help="output summary CSV")
    p.set_defaults(run=_cmd_mc)

    p = sub.add_parser(
        "model-check",
        help="validate a model file",
        description=(
            "Check a model file: band correlations within [-1, 1], missing "
            "probabilities in [0, 1), and the circulant embedding that simulate "
            "and mc build for the file's n (1 by default), reported as its size, "
            "smallest eigenvalue over tau and clipped count; exits 3 where the "
            "embedding's eigenvalue guard fails or where tau^2 is not a normal "
            "float (about 1.49e-154 <= tau <= 1.34e154)."
        ),
    )
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--l-max", type=int, default=None, help="grid half-width to check lags against")
    p.set_defaults(run=_cmd_model_check)

    return parser


def _cascade_taps(level_filter) -> np.ndarray:
    """The level-j cascade's L_j taps: the pyramid's unit-impulse response."""
    impulse = np.zeros(2 * level_filter.length - 1)
    impulse[level_filter.length - 1] = 1.0
    return modwt(impulse, level_filter).values


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
    with atomic_output(args.out) as fh:
        base = base_filter(args.family)
        filt = cascade(base, args.level)
        try:
            lams = np.linspace(0.0, math.pi, args.points)
            empirical = empirical_gain(_cascade_taps(filt), args.points)
        except (MemoryError, ValueError):
            raise DataError(f"--points {args.points} is too large to allocate") from None
        theory = level_gain(args.level, base.length, lams)
        fh.write("# leadlag-gain schema_version=1\n")
        fh.write("lambda,H_jL,empirical_gain\n")
        for lam, t, e in zip(lams, theory, empirical):
            fh.write(f"{float(lam)!r},{float(t)!r},{float(e)!r}\n")
    return 0


def _tick_lines(series: int, returns, mask, tau: float) -> Iterator[str]:
    """A simulated tick CSV's lines: one tick per observed grid point k,
    priced at exp of the returns summed to k. Raises NumericError on a
    price that is not a finite float of at least the smallest normal one."""
    levels = np.concatenate(([0.0], np.cumsum(returns)))
    yield "timestamp,price\n"
    for k in np.flatnonzero(~mask).tolist():
        try:
            price = math.exp(levels[k])
        except OverflowError:
            price = math.inf
        if not sys.float_info.min <= price < math.inf:
            raise NumericError(
                f"series {series}: tick price exp({float(levels[k])!r}) at grid "
                f"point {k} is outside the normal float range"
            )
        yield f"{float(k * tau)!r},{price!r}\n"


def _refuse_shared_files(outputs, inputs) -> None:
    """Raise DataError where an output would be renamed onto an input's file,
    replacing it, or onto an earlier output's, keeping only the last. Both
    hold (flag, path) pairs. Outputs of "-" share stdout, which is no input's file."""
    seen = {os.path.realpath(path): flag for flag, path in inputs}
    for flag, path in outputs:
        other = seen.setdefault(path if path == "-" else os.path.realpath(path), flag)
        if other != flag:
            raise DataError(f"output path {path!r} of {flag} is also the file of {other}")


def _cmd_simulate(args) -> int:
    from .model import load_model
    from .simulate import build_embedding, circulant_embed_sample

    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    outputs = {"--out": args.out, "--ticks1": args.ticks1, "--ticks2": args.ticks2}
    with atomic_outputs(outputs, {"--model": args.model}) as handles:
        fh = handles.pop("--out")  # the rest are tick files
        model, scheme = load_model(args.model)
        sample = circulant_embed_sample(build_embedding(model, scheme), args.seed)
        fh.write("# leadlag-path schema_version=1\n")
        fh.write("k,r1,r2,miss1,miss2\n")
        for k in range(scheme.n):
            fh.write(
                f"{k},{float(sample.returns1[k])!r},{float(sample.returns2[k])!r},"
                f"{int(sample.mask1[k + 1])},{int(sample.mask2[k + 1])}\n"
            )
        series_data = {"--ticks1": (1, sample.returns1, sample.mask1),
                       "--ticks2": (2, sample.returns2, sample.mask2)}
        for flag, tick_fh in handles.items():
            tick_fh.writelines(_tick_lines(*series_data[flag], scheme.tau))
    return 0


def _cmd_estimate(args) -> int:
    if args.levels < 1:
        raise UsageError(f"--levels must be >= 1, got {args.levels}")
    if args.maxlag < 0:
        raise UsageError(f"--maxlag must be >= 0, got {args.maxlag}")
    if args.n is not None and args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
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
    with atomic_outputs({"--out": args.out}, {"--in1": args.in1, "--in2": args.in2}) as handles:
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
            check_levels_fit(args.family, args.levels, args.maxlag, n)  # before allocating the grid
        ret1 = align_to_grid(ticks1, t0, args.tau, n)
        ret2 = align_to_grid(ticks2, t0, args.tau, n)
        for flag, path, ticks, ret in (
            ("--in1", args.in1, ticks1, ret1),
            ("--in2", args.in2, ticks2, ret2),
        ):
            if not ret.observed[1:].any():  # every return would be 0
                raise DataError(
                    f"{flag} {path!r} has no tick inside the grid ({t0}, {t0 + n * args.tau}]; "
                    f"its last tick is at {ticks.timestamps[-1]}"
                )
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
                    "curve": curve,
                }
                for curve, est in results
            ],
        }
        handles["--out"].write(render_report(report))
    return 0


def render_report(report: dict) -> str:
    """``json.dumps(report, indent=2) + "\\n"``, byte for byte, for an
    ``estimate`` report.

    A level's ``curve`` is a ``CrossCovCurve``, written as the list of
    points ``{l, rho, rho_norm}`` from its ``lags``, ``rho`` and
    ``rho_normalized`` arrays.

    json's indenting encoder runs in pure Python, and nearly all of a
    report is curve points. So json writes the report with each level's
    curve emptied, and the curve text, one template fill per point, then
    replaces that level's ``"curve": []``. json's C encoder writes the
    curve's floats too (``_json_floats``), as the indenting one would.
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


def _curve_text(curve, pad: str) -> str:
    """The JSON array of a ``CrossCovCurve``'s points ``{l, rho, rho_norm}``
    after ``pad``."""
    lags, rho, rho_norm = curve.lags.tolist(), curve.rho, curve.rho_normalized
    if not lags:
        return "[]"
    item = pad + "  "
    point = (
        item + "{\n"
        + item + '  "l": %d,\n'
        + item + '  "rho": %s,\n'
        + item + '  "rho_norm": %s\n'
        + item + "}"
    )
    body = ",\n".join(map(point.__mod__, zip(lags, _json_floats(rho), _json_floats(rho_norm))))
    return "[\n" + body + "\n" + pad + "]"


def _json_floats(values) -> list[str]:
    """Floats as json writes them: their reprs, or NaN, Infinity, -Infinity."""
    return json.dumps(values.tolist())[1:-1].split(", ")


def _cmd_mc(args) -> int:
    from .model import json_object
    from .montecarlo import load_mc_config, run_mc, write_summary_csv

    with atomic_outputs({"--out": args.out}, {"--config": args.config}) as handles:
        raw = json_object(args.config, "MC config")
        model_path = raw.get("model_path")
        if isinstance(model_path, (str, os.PathLike)):
            _refuse_shared_files([("--out", args.out)], [("MC config key 'model_path'", model_path)])
        config = load_mc_config(raw, replications=args.reps, master_seed=args.seed, threads=args.threads)
        summary = run_mc(config)
        write_summary_csv(summary, handles["--out"])
    if summary.valid:
        return 0
    print(
        f"warning: {summary.failures} of {summary.replications} replications "
        "failed; summary marked invalid",
        file=sys.stderr,
    )
    return 3


def _cmd_model_check(args) -> int:
    from .model import check_lags_in_grid, load_model
    from .simulate import build_embedding

    if args.l_max is not None and args.l_max < 0:
        raise UsageError(f"--l-max must be >= 0, got {args.l_max}")
    model, scheme = load_model(args.model)
    if args.l_max is not None:
        check_lags_in_grid(model, args.l_max)
    embedding = build_embedding(model, scheme)
    max_corr = max((abs(c.corr) for c in model.components), default=0.0)
    print(f"model ok: J={model.finest_level}, tau={scheme.tau!r}, n={scheme.n}")
    print(f"active levels: {model.active_levels() or 'none'}")
    print(f"missing probabilities: pi1={scheme.pi1}, pi2={scheme.pi2}")
    print(f"band correlations: max |R| = {max_corr:.6f} (admissible <= 1)")
    print(
        f"circulant embedding: {embedding.size} points, smallest eigenvalue "
        f"{embedding.min_eigenvalue / scheme.tau:.6g} tau, {embedding.clipped} clipped"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        return args.run(args)
    except LeadLagError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
