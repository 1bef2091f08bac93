import contextlib
import itertools
import json
import os
import pathlib

import numpy as np
import pytest
from hypothesis import strategies as st

import leadlag as ll
from leadlag.simulate import EIGENVALUE_FLOOR, build_embedding

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

# the Table-2 design: the benchmark model's bands on its grid
BENCHMARK_MODEL = json.loads((CONFIGS / "benchmark_model.json").read_text(encoding="utf-8"))
BENCHMARK_LEVELS = BENCHMARK_MODEL["levels"]


def benchmark_spec(n=BENCHMARK_MODEL["n"], pi1=0.0, pi2=0.0):
    return {"J": BENCHMARK_MODEL["J"], "n": n, "pi1": pi1, "pi2": pi2, "levels": BENCHMARK_LEVELS}


def clipping_spec():
    """A one-band model whose smallest circulant eigenvalue lies just below
    zero, at -EIGENVALUE_FLOOR / 2 * tau, so the embedding clips it rather
    than failing. |s12| is linear in R, so R = 0.5's smallest eigenvalue fixes
    the R that puts it there."""

    def spec(corr):
        return {"J": 6, "n": 512, "levels": [{"j": 1, "R": corr, "theta_over_tau": -1}]}

    model, scheme = ll.load_model(spec(0.5))
    ratio = build_embedding(model, scheme).min_eigenvalue / scheme.tau
    return spec(0.5 * (1 + EIGENVALUE_FLOOR / 2) / (1 - ratio))


def convolved_cascade_taps(level_filter):
    """The level-j cascade's taps by upsample-convolve recursion, an oracle
    independent of the MODWT pyramid.

    Level 1 is the base wavelet filter. Each further level convolves the
    2^i-upsampled scaling filter into the low-pass stack and applies the
    2^(j-1)-upsampled wavelet filter on top, so the squared gain equals
    H(2^(j-1) lambda) * prod_i G(2^i lambda).
    """

    def upsample(x, step):
        out = np.zeros(step * (len(x) - 1) + 1)
        out[::step] = x
        return out

    base, level = level_filter.base, level_filter.level
    if level == 1:
        return np.array(base.wavelet)
    low = np.array(base.scaling)
    for i in range(1, level - 1):
        low = np.convolve(upsample(base.scaling, 2**i), low)
    taps = np.convolve(upsample(base.wavelet, 2 ** (level - 1)), low)
    assert len(taps) == level_filter.length
    return taps


@pytest.fixture(scope="session")
def benchmark_model():
    return ll.load_model(benchmark_spec())


# Fields that a tick CSV may hold in place of a number: some the row parser
# reads (padding, exponents, '1_000', nan/inf), some it rejects.
ODD_FIELDS = (
    "nan", "inf", "-inf", "Infinity", "-0.0", "1e3", " 4 ", "\t5", "1_000",
    "2.5x", "", '"3.5"', "#7", "\x1c1", "1\x1f", "0x10", "1.5 2", "\xa06",
    "٣", "+7", '"a,b"', '"x\ny"', "# 1",
)
INTERLEAVED_LINES = (
    "", "", "# note", "  # indented note", "#0,1,2,3", "   ", "\t", ",", "1.0", '"8",9',
)


def _number_text(x, style):
    return (repr(x), f"{x:.6g}", f" {x!r} ", f"{x:e}", str(int(x)))[style]


@st.composite
def tick_csv_text(draw, plain=False, max_rows=25):
    """Text of a tick CSV: a header naming timestamp and price among other
    columns, in any order, then rows of increasing timestamps in [0, 210],
    the whole after an optional UTF-8 byte-order mark.

    With ``plain`` the file is one that np.loadtxt can read: numbers,
    blank lines and leading '#' lines only. Otherwise it may also hold
    interleaved comment, blank and whitespace-only lines, quoted fields,
    short and long rows, odd fields and arbitrary text.
    """
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    extra = draw(st.lists(st.sampled_from(("sym", "size", "note")), max_size=2, unique=True))
    names = draw(st.permutations(["timestamp", "price"] + extra))
    if plain:
        header = names
    else:
        header = [draw(st.sampled_from((n, n.upper(), f" {n} ", f'"{n}"'))) for n in names]
    bom = draw(st.sampled_from(("", "\ufeff")))
    lines = draw(st.lists(st.sampled_from(("# made by a tool", "#", "")), max_size=2))
    lines.append(",".join(header))
    count = draw(st.integers(1 if plain else 0, max_rows))
    steps = draw(st.lists(st.floats(0.25, 8.0), min_size=count, max_size=count))
    times = list(itertools.accumulate(steps, initial=draw(st.floats(0.0, 10.0))))[1:]
    t_style, p_style = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    rows = []
    for t in times:
        fields = {
            "timestamp": _number_text(t, t_style),
            "price": _number_text(draw(st.floats(0.01, 1e6)), p_style),
        }
        rows.append([fields.get(name) or draw(st.sampled_from(("AB", "7", "-1.5"))) for name in names])
    for _ in range(0 if plain or not rows else draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(("odd", "odd", "text", "short", "long")))
        i = draw(st.integers(0, len(row) - 1)) if row else None
        if i is None:
            row.append("1")
        elif kind == "odd":
            row[i] = draw(st.sampled_from(ODD_FIELDS))
        elif kind == "text":
            row[i] = draw(st.text(max_size=4))
        elif kind == "short":
            del row[i]
        else:
            row.append(draw(st.sampled_from(("9", "", "x", '"a,b"'))))
    lines.extend(",".join(row) for row in rows)
    filler = ("",) if plain else INTERLEAVED_LINES
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(len(lines) - count, len(lines))), draw(st.sampled_from(filler)))
    return bom + end.join(lines) + draw(st.sampled_from((end, "")))


@contextlib.contextmanager
def pipe_path(data: bytes):
    """A /dev/fd path to the read end of a pipe that holds ``data`` and is
    closed for writing; ``data`` must fit the pipe's buffer (64 KiB)."""
    read_fd, write_fd = os.pipe()
    try:
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
