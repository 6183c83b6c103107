"""Stacked reports: one distinct-value table per report table, and rows that keep their bytes.

The float64 columns of one ``_Table`` that reach ``cli._DISTINCT_MIN_ENTRIES``
entries share one table of distinct values; the written bytes stay those of
the marker-splice oracle.  A point's rows are the same bytes alone and at any
position of a stack, also a stack large enough for the shared table and the
points-last frame changes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvlab import cli
from test_report_writer import POOL, oracle, written

INNER = st.sampled_from([(), (2,), (2, 2), (2, 2, 2)])


@st.composite
def shared_tables(draw):
    """A table of float columns drawn from one small pool, some of them of 256 entries or more."""
    rows = draw(st.integers(1, 320))
    pool = np.array(draw(st.lists(POOL, min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    table = cli._Table(index=list(range(rows)))
    for key in draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True)):
        shape = (rows,) + draw(INNER)
        table[key] = pool[rng.integers(len(pool), size=math.prod(shape))].reshape(shape)
    if draw(st.booleans()):
        table["nested"] = cli._Table(value=pool[rng.integers(len(pool), size=(rows, 2, 2))])
    return table


@given(table=shared_tables())
@settings(max_examples=100, deadline=None, derandomize=True)
@example(table=cli._Table(a=np.zeros((300,)), b=np.full((300, 2), -0.0),
                          c=np.array([math.inf, -math.inf, math.nan] * 100)))
def test_tables_share_one_distinct_table_and_match_the_marker_splice(table):
    calls, shared_cells = [], cli._shared_cells

    def counted(columns):
        calls.append([column.size for column in columns])
        return shared_cells(columns)

    cli._shared_cells = counted
    try:
        report = {"rows": table, "loose": np.array([[0.0, -0.0]])}
        assert written(report) == oracle(report)
    finally:
        cli._shared_cells = shared_cells
    large = [table[key].size for key in sorted(table) if isinstance(table[key], np.ndarray)
             and table[key].size >= cli._DISTINCT_MIN_ENTRIES]
    nested = table.get("nested")
    # one call for the table's own large columns, and one for the nested table's
    expected = [large] if large else []
    if nested is not None and nested["value"].size >= cli._DISTINCT_MIN_ENTRIES:
        expected.append([nested["value"].size])
    assert sorted(calls) == sorted(expected)


def test_a_shared_value_keeps_each_columns_layout():
    # 0.1 and -0.0 stand in both columns; each row keeps its own column's brackets
    table = cli._Table(a=np.tile([0.1, -0.0], 150), b=np.tile([[-0.0, 0.1]], (300, 1)))
    cells = cli._cells(table, 0)
    assert len(cells) == 300
    assert json.loads(cells[1]) == {"a": -0.0, "b": [-0.0, 0.1]}
    assert '"a": -0.0' in cells[1] and "[-0.0, 0.1]" in cells[1]


def point_arg(point) -> str:
    """A ``--points`` value that parses back to exactly the reported ``[re, im]`` pairs."""
    return ",".join(repr(complex(re, im)) for re, im in point)


def run(argv, capsys) -> dict:
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def row_bytes(rows) -> list[str]:
    """Each row's sorted-key JSON text; ``repr`` keeps every float's bits."""
    return [json.dumps(row, sort_keys=True) for row in rows]


COMMANDS = {
    "gauduchon": (["gauduchon", "--t=-1,0.25,2", "--roundtrip"], 3),
    "scan --compare": (["scan", "--compare"], 1),
}


@pytest.mark.parametrize("metric", ["builtin:hopf(2)", "builtin:example22"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_points_rows_keep_their_bytes_in_a_stack(capsys, monkeypatch, metric, command):
    flags, per_point = COMMANDS[command]
    base = [flags[0], "--metric", metric, *flags[1:]]
    sampled = run(["curvature", "--metric", metric, "--region", "302", "--seed", "9"], capsys)
    pool = [point_arg(row["point"]) for row in sampled["points"]]
    probes, others = pool[:2], pool[2:]
    shared = []
    monkeypatch.setattr(cli, "_shared_cells", lambda columns, shared_cells=cli._shared_cells: (
        shared.append(len(columns)) or shared_cells(columns)))
    for probe in probes:
        alone = row_bytes(run(base + ["--points=" + probe], capsys)["results"])
        assert len(alone) == per_point
        for size, positions in ((7, (1, 5)), (300, (17, 250))):
            stack = others[:size - 2]
            for position in positions:
                stack.insert(position, probe)
            shared.clear()
            rows = row_bytes(run(base + ["--points=" + ";".join(stack)], capsys)["results"])
            assert len(rows) == size * per_point
            for position in positions:
                assert rows[position * per_point:(position + 1) * per_point] == alone
            # the 300-point stack writes its float columns from one shared table
            assert (max(shared, default=0) >= 2) == (size == 300)
