"""Tick ingestion and previous-tick alignment onto a regular grid.

Raw ticks, and the observed grid points of simulated paths taken as ticks,
become grid-aligned return series through one function, ``align_to_grid``:
the value at grid point k is the last observation at or before it, so
intervals without a fresh observation contribute a zero return and the next
observed point aggregates the gap.
A tick CSV's body is scanned as bytes. ``TickSeries`` and ``AlignedReturns``
hold read-only arrays that own their data, copying any other input.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError

PRICE_SCALES = ("raw_price", "log_price")


def _frozen(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array that owns its data: such an array is
    kept, any other (which a caller could write) is copied."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TickSeries:
    """Irregular observations: nondecreasing timestamps, matching prices."""

    timestamps: np.ndarray
    prices: np.ndarray
    scale: str = "raw_price"

    def __post_init__(self):
        ts = _frozen(self.timestamps)
        px = _frozen(self.prices)
        if ts.shape != px.shape or ts.ndim != 1:
            raise DataError(
                f"timestamps and prices must be equal-length vectors, "
                f"got {ts.shape} and {px.shape}"
            )
        if len(ts) == 0:
            raise DataError("no ticks")
        for name, values in (("timestamp", ts), ("price", px)):
            if not np.all(np.isfinite(values)):
                row = int(np.argmin(np.isfinite(values))) + 1
                raise DataError(f"non-finite {name} at row {row}")
        if np.any(np.diff(ts) < 0):
            row = int(np.argmax(np.diff(ts) < 0)) + 2
            raise DataError(f"timestamps decrease at row {row}")
        if self.scale not in PRICE_SCALES:
            raise DataError(f"unknown price scale {self.scale!r}")
        if self.scale == "raw_price" and np.any(px <= 0):
            row = int(np.argmax(px <= 0)) + 1
            raise DataError(f"non-positive price at row {row}")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)

    def __len__(self) -> int:
        return len(self.timestamps)

    def log_values(self) -> np.ndarray:
        if self.scale == "log_price":
            return self.prices
        return np.log(self.prices)


@dataclass(frozen=True)
class AlignedReturns:
    """Grid-aligned returns with per-point observation flags.

    ``returns`` has n entries (return k spans grid points k to k+1) and
    ``observed`` has n+1 entries; observed[0] is always True. Returns over
    intervals whose right endpoint was not observed are exactly zero.
    """

    tau: float
    returns: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        r = _frozen(self.returns)
        o = _frozen(self.observed, bool)
        if len(o) != len(r) + 1:
            raise DataError(f"need {len(r) + 1} flags for {len(r)} returns, got {len(o)}")
        if not o[0]:
            raise DataError("grid origin must be observed")
        object.__setattr__(self, "returns", r)
        object.__setattr__(self, "observed", o)


# Characters that send the rows after the header to the row parser: it
# skips a row whose first field starts with '#' and reads '"' as quoting,
# and float() rejects \x1c-\x1f around a number where np.loadtxt strips them.
_ROW_PARSER_CHARS = b'#"\x1c\x1d\x1e\x1f'

# np.loadtxt opens a path through numpy's DataSource, which decompresses a
# file by these suffixes; such a file goes to the row parser.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")

# The line ends of a text file opened with newline="", which the csv module
# reads and counts in ``line_num``.
_LINE_END = re.compile(rb"\r\n?|\n")


def read_csv(path, scale: str = "raw_price") -> TickSeries:
    """Parse a tick CSV with header columns ``timestamp`` and ``price``.

    Leading '#' comment lines are skipped; data rows are numbered from 1 in
    error messages. A well-formed file (plain numeric rows after the
    header) is parsed by one vectorised ``np.loadtxt`` call; any other
    file, and any file that call fails on, is parsed row by row. Both give
    the same values and the same error messages. A path that is not a
    regular file, such as a pipe or a process substitution, is read once,
    by the row parser.
    """
    try:
        # absolute, so that DataSource cannot read the name as a URL
        name = os.path.abspath(os.fsdecode(path))
        # np.loadtxt reads the file again by name; a pipe reads only once
        regular = os.path.isfile(name) and not name.endswith(_COMPRESSED_SUFFIXES)
        plain = regular and _plain_layout(name, path)
    except (OSError, UnicodeDecodeError, csv.Error, DataError):
        return _read_rows(path, scale)
    if not plain:
        return _read_rows(path, scale)
    t_col, p_col, skip = plain
    try:
        values = np.loadtxt(
            name, delimiter=",", usecols=(t_col, p_col), skiprows=skip, comments=None,
            ndmin=2, encoding="utf-8",
        )
    except Exception:
        # the row parser is the reference; it raises its own messages
        return _read_rows(path, scale)
    return _tick_series(path, values[:, 0], values[:, 1], scale)


def _plain_layout(name: str, path) -> tuple[int, int, int] | None:
    """The timestamp and price columns and the header's line count, or
    None when the rows after the header must go to the row parser.

    The file is read once as bytes, and only the header lines are decoded;
    the body is scanned as bytes. The file's bytes are freed on return,
    before np.loadtxt reads it.
    """
    with open(name, "rb") as fh:
        data = fh.read()
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    t_col, p_col = _header_columns(reader, path)
    skip = reader.line_num
    ends = [end.end() for end in itertools.islice(_LINE_END.finditer(data), skip)]
    body = data[ends[-1] :] if len(ends) == skip else b""
    return None if _needs_row_parser(body) else (t_col, p_col, skip)


def _needs_row_parser(body: bytes) -> bool:
    """Whether the bytes after the header are blank (other whitespace fails
    in np.loadtxt) or hold what the row parser reads differently from it:
    one of ``_ROW_PARSER_CHARS``, which UTF-8 never puts inside a multibyte
    character, or a field that may be longer than the csv module's field
    size limit, which the row parser enforces and np.loadtxt does not.

    Such a field, over the limit in bytes if in characters, covers a whole
    aligned block of half the limit, so a separator in every block rules
    it out: a few ``find`` calls.
    """
    if not body or body.isspace() or any(c in body for c in _ROW_PARSER_CHARS):
        return True
    block = max(1, csv.field_size_limit() // 2)
    return any(
        all(body.find(sep, start, start + block) < 0 for sep in b",\n\r")
        for start in range(0, len(body) - block + 1, block)
    )


def _header_columns(reader, path) -> tuple[int, int]:
    """Consume rows up to the header; return the timestamp and price columns."""
    for row in reader:
        if not row or row[0].lstrip().startswith("#"):
            continue
        header = [c.strip().lower() for c in row]
        break
    else:
        raise DataError(f"no ticks in {path}")
    try:
        return header.index("timestamp"), header.index("price")
    except ValueError:
        raise DataError(
            f"{path}: header must name 'timestamp' and 'price' columns, "
            f"got {header}"
        )


def _read_rows(path, scale: str = "raw_price") -> TickSeries:
    """The row parser behind ``read_csv``: one ``float()`` per field, so
    an error names the data row it found."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    times, prices = [], []
    try:
        with fh:
            reader = csv.reader(fh)
            t_col, p_col = _header_columns(reader, path)
            for row in reader:
                if not row or row[0].lstrip().startswith("#"):
                    continue
                try:
                    times.append(float(row[t_col]))
                    prices.append(float(row[p_col]))
                except (ValueError, IndexError):
                    raise DataError(f"{path}: malformed row {len(prices) + 1}: {row!r}")
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: malformed row {len(prices) + 1}: {exc}") from None
    if not times:
        raise DataError(f"no ticks in {path}")
    return _tick_series(path, np.array(times), np.array(prices), scale)


def _tick_series(path, times, prices, scale) -> TickSeries:
    try:
        return TickSeries(times, prices, scale=scale)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def align_to_grid(ticks: TickSeries, t0: float, tau: float, n: int) -> AlignedReturns:
    """Previous-tick interpolation of a tick series onto grid t0 + k*tau.

    Grid point k takes the log of the last price at time <= t0 + k*tau
    (ties: the last tick wins); it counts as observed when at least one tick
    fell in (t0 + (k-1)*tau, t0 + k*tau]. Returns are first differences of
    the grid values. The grid points, the floats t0 + k*tau, must be finite
    and distinct (tau above the float spacing near t0), else a DataError.

    Each tick is indexed into the grid, in time linear in the ticks and
    the grid: its point is guessed as ceil((t - t0)/tau), checked against
    the grid, and only a missed guess is searched for.
    """
    if n <= 0:
        raise DataError(f"need a positive number of grid steps, got {n}")
    if not (np.isfinite(t0) and np.isfinite(tau)):
        raise DataError(f"grid origin and spacing must be finite, got t0={t0}, tau={tau}")
    if tau <= 0:
        raise DataError(f"grid spacing must be positive, got {tau}")
    try:
        # the grid between -inf and +inf: grid[k] is ext[k + 1]
        with np.errstate(over="ignore"):
            ext = t0 + np.arange(-1, n + 2) * tau
    except (MemoryError, ValueError):
        raise DataError(f"a grid of n={n:.3g} steps of tau={tau} is too large to allocate") from None
    ext[0], ext[-1] = -np.inf, np.inf
    grid = ext[1:-1]
    if not np.isfinite(grid[-1]):  # the points only grow, so the last is the largest
        raise DataError(f"grid overflows: t0 + n*tau is inf for t0={t0}, tau={tau}, n={n}")
    collide = np.flatnonzero(grid[1:] <= grid[:-1])
    if collide.size:
        k = int(collide[0])
        raise DataError(
            f"grid points collide: t0={t0} and tau={tau} give the same time "
            f"t0 + k*tau at steps {k} and {k + 1} (tau is below the float spacing there)"
        )
    ts = ticks.timestamps
    # pos is the first grid point at or after each tick, searchsorted(grid, ts)
    with np.errstate(over="ignore"):
        pos = np.ceil((ts - t0) / tau)
    np.clip(pos, 0, n + 1, out=pos)
    pos = pos.astype(np.intp)
    # the guess is right when grid[pos - 1] < t <= grid[pos]
    wrong = np.flatnonzero((ext[pos] >= ts) | (ext[1:][pos] < ts))
    pos[wrong] = np.searchsorted(grid, ts[wrong], side="left")
    # counts[k]: ticks at grid point k; their running sum, less one, is the
    # last tick at or before grid point k
    counts = np.bincount(pos, minlength=n + 2)[: n + 1]
    if not counts[0]:
        raise DataError(
            f"no tick at or before the grid origin t0={t0} "
            f"(first tick at {ts[0]})"
        )
    observed = counts > 0
    idx = np.cumsum(counts, out=counts)
    idx -= 1
    returns = np.diff(ticks.log_values()[idx])
    returns.setflags(write=False)
    observed.setflags(write=False)
    return AlignedReturns(tau=tau, returns=returns, observed=observed)


def returns_from_sample(sample: PathSample) -> tuple[AlignedReturns, AlignedReturns]:
    """Align a simulated draw as an observer of its masked grid would: each
    series' observed grid points k become ticks at k * tau, priced at the
    log-price level there, and go through ``align_to_grid`` onto the
    scheme's grid."""
    n, tau = sample.scheme.n, sample.scheme.tau
    out = []
    for returns, mask in (
        (sample.returns1, sample.mask1),
        (sample.returns2, sample.mask2),
    ):
        if len(returns) != n or len(mask) != n + 1:
            raise DataError(
                f"sample length mismatch: {len(returns)} returns / "
                f"{len(mask)} flags for n={n}"
            )
        if mask[0]:
            raise DataError("grid origin cannot be missing")
        levels = np.concatenate(([0.0], np.cumsum(returns)))
        points = np.flatnonzero(~np.asarray(mask, dtype=bool))
        ticks = TickSeries(points * tau, levels[points], scale="log_price")
        out.append(align_to_grid(ticks, 0.0, tau, n))
    return out[0], out[1]
