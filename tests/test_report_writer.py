"""The report writer gives the bytes of the stdlib encoder with arrays spliced in.

``cli._emit_json`` writes per-point tables column by column.  Its oracle is
the writer it replaced: ``json.dumps(indent=2, sort_keys=True)`` of the
report with each table expanded to its row dicts, where every array stands
as a NUL marker that is then replaced by the array's one-line C encoding.
"""

import argparse
import io
import json
import statistics
import time
from contextlib import redirect_stdout
from itertools import chain

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvlab import cli

_ARRAY = "\0"
_ARRAY_TEXT = json.dumps(_ARRAY)


def expanded(value):
    """The report object with each per-point table as its list of row dicts."""
    if isinstance(value, cli._Repeated):
        return [item for item in expanded(value.column) for _ in range(value.times)]
    if isinstance(value, cli._Table):
        columns = [expanded(column) for column in value.values()]
        return [dict(zip(value, cells)) for cells in zip(*columns)]
    if isinstance(value, dict):
        return {key: expanded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [expanded(item) for item in value]
    return value


def oracle(report: dict) -> str:
    """The marker-splice writer on the expanded report.

    It reads a string whose encoding holds the marker's, such as ``"\\0"``,
    as an array, so the drawn reports hold none; no command line can spell a
    NUL character.
    """
    arrays = []

    def inline(array: np.ndarray) -> str:
        arrays.append(json.dumps(array.tolist()))
        return _ARRAY

    skeleton = json.dumps(expanded(report), sort_keys=True, indent=2, default=inline)
    parts = skeleton.split(_ARRAY_TEXT)
    return "".join(chain.from_iterable(zip(parts, arrays))) + parts[-1] + "\n"


def written(report: dict) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit_json(report, argparse.Namespace(out=None))
    return out.getvalue()


FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-5, 1.0, -2.5, 0.1]),
    st.floats(),
)
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
INTS = st.one_of(st.sampled_from([0, -1, 2**63, -(2**70), 10**30]), INT64, st.integers())
# pieces that could confuse a cut at separators or a text template
TEXT = st.lists(
    st.sampled_from([", ", "]", "[", "], [", '"', "\\", "\0", "\n", "%s", "%", ":", "é", "∂z",
                     "😀", "a"]),
    max_size=4,
).map("".join).filter(lambda text: _ARRAY_TEXT not in json.dumps(text))
SCALARS = st.one_of(
    FLOATS, INTS, st.booleans(), st.none(), TEXT,
    FLOATS.map(np.float64), INT64.map(np.int64), st.booleans().map(np.bool_),
)
INNER_SHAPES = st.sampled_from([(), (0,), (2, 2, 2), (1,), (3, 2), (0, 2)])


@st.composite
def array_column(draw, rows: int):
    """A float, int or bool ndarray of ``rows`` rows with uniform inner axes."""
    shape = (rows,) + draw(INNER_SHAPES)
    size = int(np.prod(shape))
    dtype, values = draw(st.sampled_from([(float, FLOATS), (np.int64, INT64),
                                          (bool, st.booleans())]))
    values = draw(st.lists(values, min_size=size, max_size=size))
    return np.array(values, dtype=dtype).reshape(shape)


@st.composite
def tables(draw):
    """A table of one or more rows, with every kind of column, one level nested."""
    times = draw(st.sampled_from([1, 1, 2, 3]))
    base = draw(st.sampled_from([1, 1, 2, 5]))

    def column(rows):
        return st.one_of(array_column(rows), st.lists(SCALARS, min_size=rows, max_size=rows),
                         st.lists(leaves(), min_size=rows, max_size=rows), nested_tables(rows))

    table = cli._Table()
    for key in draw(st.lists(TEXT, min_size=1, max_size=5, unique=True)):
        if times > 1 and draw(st.booleans()):
            table[key] = cli._Repeated(draw(column(base)), times)
        else:
            table[key] = draw(column(base * times))
    return table


@st.composite
def nested_tables(draw, rows):
    """A table column of ``rows`` rows with array and scalar columns."""
    table = cli._Table()
    for key in draw(st.lists(TEXT, min_size=1, max_size=3, unique=True)):
        table[key] = draw(st.one_of(array_column(rows),
                                    st.lists(SCALARS, min_size=rows, max_size=rows)))
    return table


def leaves():
    """A scalar, a numpy scalar or an ndarray of any shape."""
    arrays = st.integers(0, 3).flatmap(array_column)
    return st.one_of(SCALARS, arrays)


REPORTS = st.dictionaries(
    TEXT,
    st.recursive(
        st.one_of(leaves(), tables()),
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(TEXT, children, max_size=3),
        ),
        max_leaves=12,
    ),
    max_size=5,
)


@given(report=REPORTS)
@settings(max_examples=300, deadline=None, derandomize=True)
@example(report={"results": cli._Table(point=np.zeros((1, 2, 2, 2)), value=[-0.0])})
@example(report={"empty": cli._Table(),
                 "rows": cli._Table(a=np.zeros((3, 0)), b=["]", ", ", "[]"])})
@example(report={"": [], "a": {}, "b": [{}], "c": cli._Table(d=cli._Table(e=[1e16, 5e-324]))})
def test_writer_matches_the_marker_splice(report):
    assert written(report) == oracle(report)


def test_a_nul_string_is_text():
    # the marker writer took this string for an array; the table writer does not
    report = {"\0": ["\0", "a\"\0"], "table": cli._Table(a=["\0"])}
    assert written(report) == json.dumps(expanded(report), sort_keys=True, indent=2) + "\n"


def test_array_rows_are_cut_at_their_separator():
    column = np.arange(24.0).reshape(3, 2, 2, 2)
    assert cli._cells(column, 0) == [json.dumps(row.tolist()) for row in column]
    assert cli._cells(np.zeros((2, 0)), 0) == ["[]", "[]"]


COMMANDS = {
    "curvature, 128 points":
        "curvature --metric builtin:example22 --region 128 --check pluriclosed",
    "gauduchon, 224 points x 3 t":
        "gauduchon --metric builtin:example22 --region 224 --t=-1,0.25,2 --roundtrip",
    "scan certificate, 1 point":
        "scan --metric builtin:hopf(2) --points 0.3,0.1 --functional rbc --tau 2",
}


def test_command_reports_match_the_marker_splice(monkeypatch):
    """Each report's bytes are the oracle's; prints its size, ``main()`` and writer times."""
    emit, writer, reports = cli._emit_json, [], []

    def timed(report, args):
        reports.append(report)
        start = time.perf_counter()
        emit(report, args)
        writer.append(time.perf_counter() - start)

    monkeypatch.setattr(cli, "_emit_json", timed)
    for name, argv in COMMANDS.items():
        writer.clear()
        total = []
        for _ in range(12):
            out = io.StringIO()
            with redirect_stdout(out):
                start = time.perf_counter()
                assert cli.main(argv.split()) == 0
                total.append(time.perf_counter() - start)
        assert out.getvalue() == oracle(reports[-1]), name
        main_s, writer_s = statistics.median(total[1:]), statistics.median(writer[1:])
        print(f"\n{name}: {len(out.getvalue().encode())} bytes, main() {main_s * 1e3:.2f} ms, "
              f"writer {writer_s * 1e3:.2f} ms ({writer_s / main_s:.0%} of main)")
