import json
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import leadlag as ll
from leadlag import ingest
from leadlag.cli import main
from leadlag.errors import DataError
from leadlag.ingest import (
    AlignedReturns,
    TickSeries,
    align_to_grid,
    read_csv,
    returns_from_sample,
)
from leadlag.simulate import PathSample

from conftest import benchmark_spec, pipe_path, tick_csv_text


def chi_weighted_returns(increments, missing):
    """Direct evaluation of the interpolation weight expansion.

    The pseudo return over (k, k+1] is sum_alpha chi_k(alpha) * increment
    (k - alpha), where chi_k(0) = 1 - delta_(k+1) and chi_k(alpha) keeps the
    product of delta over the alpha preceding grid points. Deliberately
    independent of the package implementation.
    """
    n = len(increments)
    delta = [1 if m else 0 for m in missing]
    out = [0.0] * n
    for k in range(n):
        total = 0.0
        for alpha in range(0, k + 1):
            chi = 1 - delta[k + 1]
            for l in range(1, alpha + 1):
                chi *= delta[k + 1 - l]
                if chi == 0:
                    break
            if chi:
                total += increments[k - alpha]
        out[k] = total
    return np.array(out)


def write_aligned_csv(aligned: AlignedReturns, fh) -> None:
    """Write rows k,return,observed; the flag is for the return's right
    endpoint (grid point k+1)."""
    fh.write("# leadlag-aligned schema_version=1\n")
    fh.write("k,return,observed\n")
    for k in range(aligned.n):
        fh.write(f"{k},{float(aligned.returns[k])!r},{int(aligned.observed[k + 1])}\n")


def make_sample(increments, miss1, miss2):
    return PathSample(
        returns1=np.asarray(increments[0], dtype=float),
        returns2=np.asarray(increments[1], dtype=float),
        mask1=np.asarray(miss1, dtype=bool),
        mask2=np.asarray(miss2, dtype=bool),
    )


class TestReadCsv:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,price\n0.0,100.0\n1.5,101.0\n2.0,100.5\n")
        ticks = read_csv(p)
        assert len(ticks) == 3
        assert ticks.timestamps[1] == 1.5
        assert ticks.prices[2] == 100.5

    def test_decreasing_timestamp_names_row(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,price\n0.0,100.0\n-1.0,101.0\n2.0,100.5\n")
        with pytest.raises(DataError, match="row 2"):
            read_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_text("")
        with pytest.raises(DataError, match="no ticks"):
            read_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,price\n")
        with pytest.raises(DataError, match="no ticks"):
            read_csv(p)

    def test_non_positive_price(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,price\n0.0,100.0\n1.0,0.0\n")
        with pytest.raises(DataError, match="non-positive price"):
            read_csv(p)

    @pytest.mark.parametrize(
        "rows, needle",
        [
            ("0.0,100.0\n1.0,nan\n", "non-finite price at row 2"),
            ("0.0,100.0\n1.0,101.0\ninf,99.0\n", "non-finite timestamp at row 3"),
        ],
    )
    def test_non_finite_value_names_row(self, tmp_path, rows, needle):
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,price\n" + rows)
        with pytest.raises(DataError, match=needle):
            read_csv(p)

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_text("time,px\n0.0,100.0\n")
        with pytest.raises(DataError, match="header"):
            read_csv(p)

    def test_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_text("# produced by a tool\ntimestamp,price\n0.0,100.0\n1.0,101.0\n")
        assert len(read_csv(p)) == 2

    def test_malformed_row_numbers_skip_comment_lines(self, tmp_path):
        # the bad row is tick 3, as TickSeries would number it, not line 4
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,price\n0.0,100.0\n# note\n1.0,101.0\n2.0,oops\n")
        with pytest.raises(DataError, match="malformed row 3:"):
            read_csv(p)
        p.write_text("timestamp,price\n0.0,100.0\n# note\n1.0,101.0\n-1.0,100.5\n")
        with pytest.raises(DataError, match="row 3"):
            read_csv(p)

    def test_log_scale_passthrough(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,price\n0.0,-0.5\n1.0,0.5\n")
        ticks = read_csv(p, scale="log_price")
        assert np.allclose(ticks.log_values(), [-0.5, 0.5])

    def test_undecodable_file_is_data_error(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_bytes(b"timestamp,price\n0.0,1.0\n1.0,\xff\n")
        with pytest.raises(DataError, match="not UTF-8 text"):
            read_csv(p)

    def test_oversized_field_is_data_error(self, tmp_path):
        # the csv module refuses fields over its 131072-character limit
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,price\n0.0,1.0\n#" + "x" * 200000 + "\n")
        with pytest.raises(DataError, match="malformed row 2: field larger than field limit"):
            read_csv(p)


def parse_outcome(parse, path, scale):
    """The arrays, bit for bit, or the DataError message of one parse."""
    try:
        ticks = parse(path, scale)
    except DataError as exc:
        return "error", str(exc)
    return "ok", ticks.timestamps.tobytes(), ticks.prices.tobytes(), ticks.scale


class TestFastIngest:
    """read_csv parses well-formed files with np.loadtxt and everything else
    with the row parser, ingest._read_rows; both must give the same ticks
    or the same error."""

    @given(text=tick_csv_text(), scale=st.sampled_from(ingest.PRICE_SCALES))
    @settings(
        max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_matches_row_parser(self, tmp_path, text, scale):
        p = tmp_path / "ticks.csv"
        p.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = parse_outcome(read_csv, p, scale)
        assert fast == parse_outcome(ingest._read_rows, p, scale)

    @pytest.mark.parametrize(
        "text",
        [
            "sym,timestamp,price\n#a,1.0,2.0\nb,2.0,3.0\n",
            "timestamp,note,size,price\n1.0,\"a,b\",7,2.0\n",
            'timestamp,price,note\n1.0,2.0,"\n3.0,4.0,"\n',
            "timestamp,price\n\x1c1.0,2.0\n",
            "timestamp,price\n1.0,2.0\x1f\n",
            "timestamp,price\n1_000,2\n",
            "timestamp,price\n1.0,2.0\n   \n",
            "timestamp,price\n\xa01.0,2.0\u2028\n",
            "timestamp,price\r1.0,2.0\r\r3.0,4.0",
            "timestamp,price,note\n1.0,2.0," + "x" * 200000 + "\n3.0,4.0,y\n",
            "timestamp,price\n1.0," + " " * 200000 + "2.0\n",
            "timestamp,price,note\n1.0,2.0," + "x" * 131072 + "\n",
            "timestamp,price,note\n1.0,2.0," + "x" * 131073 + "\n",
            "\ufefftimestamp,price\n1.0,2.0\n3.0,4.0\n",
            "\ufeff# note\nTimestamp,price\n1.0,2.0\n",
            "\ufeff\ufefftimestamp,price\n1.0,2.0\n",
            "timestamp,price\n\u3000\n",
            "timestamp,price\n\xa0\xa0\n",
            "timestamp,price\n\x85\n",
            "timestamp,price\n\u2028\n",
            "timestamp,price\n\u3000\xa0\x85\u2028 \n",
            # the invalid byte lies past the header decoder's first read
            b"timestamp,price\n" + b"1.0,2.0\n" * 2000 + b"3.0,\xff4.0\n",
            b"timestamp,price,note\n" + b"1.0,2.0,a\n" * 2000 + b"3.0,4.0,\xff\n",
            "timestamp,price,note\n1.0,2.0,caf\xe9\n3.0,4.0,\u65e5\u672c\n",
            # the field crosses byte 2^16 of the body, half the csv module's limit
            "timestamp,price,note\n1.0,2.0," + "\xe9" * 40000 + "\n3.0,4.0,y\n",
            # under the limit in characters, over it in bytes
            "timestamp,price,note\n1.0,2.0," + "\u65e5" * 50000 + "\n3.0,4.0,y\n",
        ],
        ids=[
            "comment-row-in-unused-column", "quoted-comma", "quoted-newline", "x1c-prefix",
            "x1f-suffix", "underscore", "whitespace-line", "unicode-space", "bare-cr",
            "long-unused-field", "long-padded-number", "field-at-limit", "field-over-limit",
            "byte-order-mark", "byte-order-mark-comment", "two-byte-order-marks",
            "only-ideographic-space", "only-no-break-space", "only-next-line",
            "only-line-separator", "only-unicode-whitespace", "invalid-utf8-price",
            "invalid-utf8-unused-field", "non-ascii-field", "multibyte-field-across-block",
            "multibyte-field-over-limit-in-bytes",
        ],
    )
    def test_matches_row_parser_on_loadtxt_traps(self, tmp_path, text):
        # files that np.loadtxt alone would read differently from the row parser
        p = tmp_path / "ticks.csv"
        p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        assert parse_outcome(read_csv, p, "raw_price") == parse_outcome(
            ingest._read_rows, p, "raw_price"
        )

    @pytest.mark.parametrize("name", ["ticks.csv.xz", "ticks.lzma", "ticks.gz", "ticks.csv.bz2"])
    def test_compressed_suffix_is_read_as_plain_text(self, tmp_path, name):
        # np.loadtxt would pick a decompressor by these suffixes
        p = tmp_path / name
        p.write_text("timestamp,price\n1.0,2.0\n3.0,4.0\n")
        outcome = parse_outcome(read_csv, p, "raw_price")
        assert outcome[0] == "ok"
        assert outcome == parse_outcome(ingest._read_rows, p, "raw_price")

    @pytest.mark.parametrize("head", ["", "# made by a spreadsheet\n"], ids=["header", "comment"])
    def test_byte_order_mark_is_skipped(self, tmp_path, head):
        # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
        p = tmp_path / "ticks.csv"
        p.write_bytes(("\ufeff" + head + "timestamp,price\n1.0,2.0\n3.0,4.0\n").encode("utf-8"))
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError("row parser ran")):
            ticks = read_csv(p)
        assert ticks.timestamps.tolist() == [1.0, 3.0]
        assert ticks.prices.tolist() == [2.0, 4.0]
        assert parse_outcome(ingest._read_rows, p, "raw_price") == parse_outcome(read_csv, p, "raw_price")

    def test_bytes_path_takes_the_fast_path(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,price\n1.0,2.0\n3.0,4.0\n")
        rows = parse_outcome(ingest._read_rows, p, "raw_price")
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError("row parser ran")):
            assert parse_outcome(read_csv, bytes(p), "raw_price") == rows

    @given(text=tick_csv_text(plain=True))
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_plain_files_take_the_fast_path(self, tmp_path, text):
        p = tmp_path / "ticks.csv"
        p.write_bytes(text.encode("utf-8"))
        rows = parse_outcome(ingest._read_rows, p, "log_price")
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError("row parser ran")):
            assert parse_outcome(read_csv, p, "log_price") == rows

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n", "\n\n\n"])
    def test_empty_body_is_no_ticks_without_warning(self, tmp_path, body):
        p = tmp_path / "ticks.csv"
        p.write_text("# note\ntimestamp,price\n" + body, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^no ticks in "):
                read_csv(p)

    def test_simulated_day_takes_the_fast_path(self, tmp_path):
        spec = benchmark_spec(n=131072, pi1=0.5, pi2=0.5)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(spec))
        ticks = tmp_path / "ticks.csv"
        argv = ["simulate", "--model", str(model), "--seed", "5", "--out", str(tmp_path / "path.csv")]
        assert main(argv + ["--ticks1", str(ticks)]) == 0
        rows = ingest._read_rows(ticks)
        assert 60000 < len(rows) < 70000
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError("row parser ran")):
            fast = read_csv(ticks)
        assert fast.timestamps.tobytes() == rows.timestamps.tobytes()
        assert fast.prices.tobytes() == rows.prices.tobytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_reads_as_the_file_by_name(self, tmp_path):
        # np.loadtxt would open the pipe a second time and find it drained
        text = "timestamp,price\n" + "".join(f"{t}.5,{100 + t % 7}.25\n" for t in range(200))
        p = tmp_path / "ticks.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pipe_path(text.encode()) as name:
                piped = read_csv(name)
        by_name = read_csv(p)
        assert piped.timestamps.tobytes() == by_name.timestamps.tobytes()
        assert piped.prices.tobytes() == by_name.prices.tobytes()


class TestArraysAreNotShared:
    """TickSeries and AlignedReturns hold arrays that no caller can write:
    a caller's array stays writable, and a later write to it is not seen."""

    def test_tick_series_leaves_the_callers_arrays_writable(self):
        ts, px = np.array([0.0, 1.0]), np.array([2.0, 3.0])
        ticks = TickSeries(ts, px)
        ts[0], px[0] = -1.0, 9.0
        assert ticks.timestamps.tolist() == [0.0, 1.0]
        assert ticks.prices.tolist() == [2.0, 3.0]
        assert not (ticks.timestamps.flags.writeable or ticks.prices.flags.writeable)

    @pytest.mark.parametrize("writeable", [True, False], ids=["view", "read-only-view"])
    def test_aligned_returns_do_not_alias_a_writable_base(self, writeable):
        r, o = np.array([0.5, -0.5]), np.ones(3, bool)
        view = r[:]
        view.setflags(write=writeable)
        aligned = AlignedReturns(tau=1.0, n=2, returns=view, observed=o)
        r[0] = 7.0
        o[1] = False
        assert aligned.returns.tolist() == [0.5, -0.5]
        assert aligned.observed.tolist() == [True, True, True]
        assert not (aligned.returns.flags.writeable or aligned.observed.flags.writeable)

    def test_owned_read_only_arrays_are_kept(self):
        r, o = np.array([0.5, -0.5]), np.ones(3, bool)
        r.setflags(write=False)
        o.setflags(write=False)
        aligned = AlignedReturns(tau=1.0, n=2, returns=r, observed=o)
        assert aligned.returns is r and aligned.observed is o

    def test_alignment_hands_over_its_arrays_without_a_copy(self):
        made, real = [], ingest._previous_tick

        def previous_tick(*args):
            made.append(real(*args))
            return made[-1]

        ticks = TickSeries([0.0, 1.5, 2.0], [1.0, 2.0, 3.0])
        sample = make_sample(np.ones((2, 3)), np.zeros(4, bool), np.zeros(4, bool))
        scheme = ll.ObservationScheme(tau=1.0, n=3)
        with mock.patch.object(ingest, "_previous_tick", previous_tick):
            got = [align_to_grid(ticks, 0.0, 1.0, 3), *returns_from_sample(sample, scheme)]
        assert len(made) == 3
        for aligned, (returns, observed) in zip(got, made):
            assert aligned.returns is returns and aligned.observed is observed

    def test_read_csv_columns_own_their_data(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,price\n1.0,2.0\n3.0,4.0\n")
        ticks = read_csv(p)
        for values in (ticks.timestamps, ticks.prices):
            assert values.flags.owndata and not values.flags.writeable


class TestAlignToGrid:
    def test_ticks_on_every_grid_point(self):
        prices = np.array([100.0, 101.0, 99.0, 102.0])
        ticks = TickSeries(np.arange(4.0), prices)
        aligned = align_to_grid(ticks, t0=0.0, tau=1.0, n=3)
        assert np.allclose(aligned.returns, np.diff(np.log(prices)))
        assert aligned.observed.all()

    def test_missing_middle_point_telescopes(self):
        # values x0 at k=0 and x2 at k=2, nothing in between
        ticks = TickSeries(np.array([0.0, 2.0]), np.array([0.3, 0.9]), scale="log_price")
        aligned = align_to_grid(ticks, t0=0.0, tau=1.0, n=2)
        assert aligned.returns == pytest.approx([0.0, 0.6])
        assert list(aligned.observed) == [True, False, True]

    def test_last_tick_in_interval_wins(self):
        ticks = TickSeries(
            np.array([0.0, 0.4, 0.9, 1.0]), np.array([1.0, 2.0, 3.0, 4.0]), scale="log_price"
        )
        aligned = align_to_grid(ticks, t0=0.0, tau=1.0, n=1)
        # grid point 1 takes the tick at exactly t=1.0
        assert aligned.returns == pytest.approx([3.0])

    def test_no_tick_before_origin(self):
        ticks = TickSeries(np.array([5.0]), np.array([1.0]))
        with pytest.raises(DataError, match="grid origin"):
            align_to_grid(ticks, t0=4.0, tau=1.0, n=1)

    def test_nonpositive_step_count(self):
        ticks = TickSeries(np.array([0.0]), np.array([1.0]))
        with pytest.raises(DataError, match="positive number of grid steps"):
            align_to_grid(ticks, t0=0.0, tau=1.0, n=0)

    @pytest.mark.parametrize(
        "t0, tau, n, needle",
        [
            (float("nan"), 1.0, 4, "must be finite"),
            (float("inf"), 1.0, 4, "must be finite"),
            (0.0, float("nan"), 4, "must be finite"),
            (0.0, 1e-300, 10**302, "n=1e\\+302 steps of tau=1e-300"),
            (0.0, 0.0, 4, "^grid spacing must be positive, got 0.0$"),
            (0.0, -1.0, 4, "^grid spacing must be positive, got -1.0$"),
        ],
        ids=["t0-nan", "t0-inf", "tau-nan", "too-large", "tau-zero", "tau-negative"],
    )
    def test_bad_grid_is_data_error(self, t0, tau, n, needle):
        ticks = TickSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(DataError, match=needle):
            align_to_grid(ticks, t0=t0, tau=tau, n=n)

    def test_idempotence_on_fully_observed_grid(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(50).cumsum()
        ticks = TickSeries(np.arange(50.0), values, scale="log_price")
        aligned = align_to_grid(ticks, t0=0.0, tau=1.0, n=49)
        again = TickSeries(np.arange(50.0), values, scale="log_price")
        aligned2 = align_to_grid(again, t0=0.0, tau=1.0, n=49)
        assert np.array_equal(aligned.returns, aligned2.returns)
        assert np.array_equal(aligned.returns, np.diff(values))


def searchsorted_oracle(ticks, t0, tau, n):
    """(returns, observed) of previous-tick alignment by one binary search
    of every grid point in the ticks, or None when no tick is at or before
    the origin."""
    grid = t0 + np.arange(n + 1) * tau
    idx = np.searchsorted(ticks.timestamps, grid, side="right") - 1
    if idx[0] < 0:
        return None
    observed = np.concatenate(([True], idx[1:] > idx[:-1]))
    return np.diff(ticks.log_values()[idx]), observed


# (t0, tau): binary tau, where ceil((t - t0)/tau) is exact on the grid, and
# decimal tau and epoch-scale origins, where it misses by one for some ticks
ALIGN_GRIDS = ((0.0, 1.0), (0.0, 0.1), (0.3, 1e-3), (1.7e9, 2.0**-14), (1.7e9, 1e-3), (-2.5, 0.1))


@st.composite
def aligned_ticks(draw):
    """A grid and ticks on its points, one float either side of them,
    anywhere in and around it, and repeated."""
    t0, tau = draw(st.sampled_from(ALIGN_GRIDS))
    n = draw(st.integers(1, 60))
    steps = st.integers(-3, n + 3)
    times = [t0 + k * tau for k in draw(st.lists(steps, max_size=40))]
    times += [
        float(np.nextafter(t0 + k * tau, side * np.inf))
        for k, side in draw(st.lists(st.tuples(steps, st.sampled_from((-1, 1))), max_size=20))
    ]
    times += [
        t0 + x * tau for x in draw(st.lists(st.floats(-3.0, n + 3.0), max_size=40))
    ]
    if draw(st.booleans()):
        times.append(t0)
    if not times:
        times = [t0]
    times += draw(st.lists(st.sampled_from(times), max_size=10))
    times.sort()
    prices = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(times), max_size=len(times)))
    return TickSeries(np.array(times), np.array(prices), scale="log_price"), t0, tau, n


class TestExactAlignment:
    @given(case=aligned_ticks())
    @settings(max_examples=300, deadline=None)
    def test_equals_searchsorted_of_the_grid(self, case):
        ticks, t0, tau, n = case
        expected = searchsorted_oracle(ticks, t0, tau, n)
        if expected is None:
            with pytest.raises(DataError, match="no tick at or before the grid origin"):
                align_to_grid(ticks, t0, tau, n)
            return
        aligned = align_to_grid(ticks, t0, tau, n)
        assert aligned.returns.tobytes() == expected[0].tobytes()
        assert aligned.observed.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("t0, tau", [(0.0, 0.1), (0.0, 1e-3), (1.7e9, 1e-3)])
    def test_on_grid_ticks_land_on_their_points_where_the_guess_misses(self, t0, tau):
        n = 2000
        grid = t0 + np.arange(n + 1) * tau
        assert np.any(np.ceil((grid - t0) / tau) != np.arange(n + 1))
        ticks = TickSeries(grid, np.arange(n + 1.0), scale="log_price")
        aligned = align_to_grid(ticks, t0, tau, n)
        assert aligned.observed.all()
        assert np.array_equal(aligned.returns, np.ones(n))

    def test_colliding_grid_points_are_a_data_error(self):
        t0, tau, n = 1.7e9, 1e-7, 5000
        grid = t0 + np.arange(n + 1) * tau
        assert len(np.unique(grid)) < n + 1
        k = int(np.flatnonzero(grid[1:] <= grid[:-1])[0])
        ticks = TickSeries(np.array([t0, t0 + 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(DataError, match="grid points collide") as info:
            align_to_grid(ticks, t0, tau, n)
        message = str(info.value)
        assert f"t0={t0!r}" in message and f"tau={tau!r}" in message
        assert f"steps {k} and {k + 1}" in message

    def test_overflowing_grid_is_a_data_error(self):
        # t0 + 2*tau is past the float range; the other points are finite
        ticks = TickSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(DataError, match="grid overflows") as info:
            align_to_grid(ticks, 0.0, 1e308, 2)
        message = str(info.value)
        assert "t0=0.0" in message and "tau=1e+308" in message and "n=2" in message


class TestReturnsFromSample:
    def test_zero_masks_reproduce_increments(self):
        rng = np.random.default_rng(0)
        inc = rng.standard_normal((2, 20))
        scheme = ll.ObservationScheme(tau=1.0, n=20)
        sample = make_sample(inc, np.zeros(21, bool), np.zeros(21, bool))
        r1, r2 = returns_from_sample(sample, scheme)
        assert np.allclose(r1.returns, inc[0], atol=1e-15)
        assert np.allclose(r2.returns, inc[1], atol=1e-15)

    def test_all_missing_after_origin(self):
        inc = np.ones((2, 5))
        mask = np.ones(6, bool)
        mask[0] = False
        scheme = ll.ObservationScheme(tau=1.0, n=5)
        r1, _ = returns_from_sample(make_sample(inc, mask, mask), scheme)
        assert np.all(r1.returns == 0.0)
        assert not r1.observed[1:].any()

    def test_spec_example_pattern(self):
        # observed at 0 and 2, missing at 1: returns (0, x2 - x0)
        inc = np.array([[0.4, 0.6], [0.0, 0.0]])
        mask = np.array([False, True, False])
        scheme = ll.ObservationScheme(tau=1.0, n=2)
        r1, _ = returns_from_sample(make_sample(inc, mask, np.zeros(3, bool)), scheme)
        assert r1.returns == pytest.approx([0.0, 1.0])

    def test_length_mismatch_rejected(self):
        inc = np.ones((2, 5))
        mask = np.zeros(6, bool)
        scheme = ll.ObservationScheme(tau=1.0, n=4)
        with pytest.raises(DataError, match="mismatch"):
            returns_from_sample(make_sample(inc, mask, mask), scheme)

    def test_missing_origin_rejected(self):
        inc = np.ones((2, 4))
        missing_origin = np.array([True, False, False, False, False])
        scheme = ll.ObservationScheme(tau=1.0, n=4)
        with pytest.raises(DataError, match="^grid origin cannot be missing$"):
            returns_from_sample(make_sample(inc, np.zeros(5, bool), missing_origin), scheme)

    def test_telescoping_sum(self):
        rng = np.random.default_rng(8)
        inc = rng.standard_normal((2, 64))
        mask = np.concatenate(([False], rng.random(64) < 0.4))
        scheme = ll.ObservationScheme(tau=1.0, n=64)
        r1, _ = returns_from_sample(make_sample(inc, mask, mask), scheme)
        levels = np.concatenate(([0.0], np.cumsum(inc[0])))
        observed = ~mask
        last_filled = levels[np.flatnonzero(observed)[-1]]
        assert r1.returns.sum() == pytest.approx(last_filled - levels[0], abs=1e-12)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_chi_oracle_equivalence(self, data):
        n = data.draw(st.integers(min_value=1, max_value=64))
        miss = np.array([False] + [data.draw(st.booleans()) for _ in range(n)])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        inc = rng.standard_normal((2, n))
        scheme = ll.ObservationScheme(tau=1.0, n=n)
        r1, _ = returns_from_sample(make_sample(inc, miss, np.zeros(n + 1, bool)), scheme)
        oracle = chi_weighted_returns(inc[0], miss)
        assert np.max(np.abs(r1.returns - oracle)) < 1e-12

    def test_alignment_route_matches_mask_route(self):
        # previous-tick through timestamps must agree with the mask path
        rng = np.random.default_rng(21)
        n = 48
        inc = rng.standard_normal((2, n)) * 0.01
        mask = np.concatenate(([False], rng.random(n) < 0.5))
        scheme = ll.ObservationScheme(tau=1.0, n=n)
        r_mask, _ = returns_from_sample(make_sample(inc, mask, mask), scheme)
        levels = np.concatenate(([0.0], np.cumsum(inc[0])))
        keep = ~mask
        ticks = TickSeries(np.arange(n + 1.0)[keep], levels[keep], scale="log_price")
        r_ticks = align_to_grid(ticks, t0=0.0, tau=1.0, n=n)
        assert np.allclose(r_mask.returns, r_ticks.returns, atol=1e-15)
        assert np.array_equal(r_mask.observed, r_ticks.observed)


class TestTickSeries:
    @pytest.mark.parametrize(
        "timestamps, prices, scale, needle",
        [
            ([0.0, 1.0], [1.0], "raw_price", r"equal-length vectors, got \(2,\) and \(1,\)$"),
            ([], [], "raw_price", "^no ticks$"),
            ([0.0], [1.0], "pence", "^unknown price scale 'pence'$"),
        ],
        ids=["unequal-lengths", "no-ticks", "unknown-scale"],
    )
    def test_invalid_series_rejected(self, timestamps, prices, scale, needle):
        with pytest.raises(DataError, match=needle):
            TickSeries(np.array(timestamps), np.array(prices), scale=scale)


class TestAlignedContainer:
    def test_origin_must_be_observed(self):
        with pytest.raises(DataError, match="origin"):
            AlignedReturns(tau=1.0, n=1, returns=np.zeros(1), observed=np.array([False, True]))

    def test_shape_validation(self):
        with pytest.raises(DataError, match="flags"):
            AlignedReturns(tau=1.0, n=2, returns=np.zeros(2), observed=np.array([True]))

    def test_csv_round_shape(self, tmp_path):
        aligned = AlignedReturns(
            tau=1.0,
            n=3,
            returns=np.array([0.1, 0.0, -0.2]),
            observed=np.array([True, True, False, True]),
        )
        out = tmp_path / "aligned.csv"
        with open(out, "w") as fh:
            write_aligned_csv(aligned, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "k,return,observed"
        assert lines[2].startswith("0,0.1,1")
        assert lines[3] == "1,0.0,0"
