import itertools
import pathlib

import pytest
from hypothesis import strategies as st

import leadlag as ll

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

# benchmark experiment parameters: eight correlated bands on a J=13 grid
BENCHMARK_LEVELS = [
    {"j": 1, "R": 0.3, "theta_over_tau": -1},
    {"j": 2, "R": 0.5, "theta_over_tau": -1},
    {"j": 3, "R": 0.7, "theta_over_tau": -2},
    {"j": 4, "R": 0.5, "theta_over_tau": -2},
    {"j": 5, "R": 0.5, "theta_over_tau": -3},
    {"j": 6, "R": 0.5, "theta_over_tau": -5},
    {"j": 7, "R": 0.5, "theta_over_tau": -7},
    {"j": 8, "R": 0.5, "theta_over_tau": -10},
]

TRUE_LAGS = (-1, -1, -2, -2, -3, -5, -7, -10)


def benchmark_spec(n=15000, pi1=0.0, pi2=0.0):
    return {"J": 13, "n": n, "pi1": pi1, "pi2": pi2, "levels": BENCHMARK_LEVELS}


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
    columns, in any order, then rows of increasing timestamps in [0, 210].

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
    return end.join(lines) + draw(st.sampled_from((end, "")))
