"""Metrics and maps are resolved once per process: files by path and bytes, maps by components.

A ``file:`` reference is read on every call and loaded (parsed, compiled
and validated) once per distinct ``(path, bytes)``; the last 16 loads are
kept.  A failed load is not kept, so a bad file fails the same way on every
call.  A ``schwarz`` map is parsed once per ``(components, n_source)`` and
keeps its two compiled programs.  Run with ``-s`` to print the loads and
validations of a call sequence like the benchmark's single_points cycle,
and the time per call that the Bianchi check spends in its stencil on F1.
"""

import functools
import json
import statistics
import time
from pathlib import Path

import pytest

from curvlab import chern, cli
from curvlab.errors import ConfigError
from curvlab.metric_model import MetricFile, expr, model
from curvlab.schwarz import HoloMap

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "single_points.json"
CHECKS = ["--check", "bianchi,pluriclosed"]
POINTS = {"P1": "0.3+0.1j", "H1": "0.4-0.2j", "P2": "0.3+0.1j,-0.2j", "H2": "0.4,0.1j",
          "F1": "0.05,0.02j"}


@pytest.fixture
def counted(monkeypatch):
    """Calls of the file read, the loader, the entry parser, the compiler and the validator."""
    counts = dict.fromkeys(("reads", "loads", "parses", "compiles", "validations"), 0)

    def counting(key, func):
        def call(*args):
            counts[key] += 1
            return func(*args)
        return call

    read = MetricFile.read.__func__
    monkeypatch.setattr(MetricFile, "read",
                        classmethod(lambda cls, path: counting("reads", read)(cls, path)))
    monkeypatch.setattr(cli, "load_metric", counting("loads", cli.load_metric))
    monkeypatch.setattr(expr, "parse_expr", counting("parses", expr.parse_expr))
    monkeypatch.setattr(expr, "compile_trees", counting("compiles", expr.compile_trees))
    monkeypatch.setattr(model, "validate_metric", counting("validations", model.validate_metric))
    return counts


def write(path: Path, payload) -> str:
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return f"file:{path}"


def run(argv, capsys) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_load_per_distinct_content(counted, capsys, tmp_path):
    payloads = json.loads(REFERENCE.read_text())["files"]
    refs = {name: write(tmp_path / f"{name}.json", payload) for name, payload in payloads.items()}

    def curvature(name):
        return ["curvature", "--metric", refs[name], "--points", POINTS[name], *CHECKS]

    def schwarz_call(name, components):
        return ["schwarz", "--source", refs[name], "--target", refs[name],
                "--points", POINTS[name], "--map", components]

    # the file calls of one single_points cycle, in its order
    calls = [curvature("P1"), curvature("H1"), schwarz_call("P2", "z1^2;z2^2"),
             schwarz_call("H2", "id"), schwarz_call("P2", "id"), curvature("P2"),
             curvature("P2"), curvature("H2"), curvature("F1"), curvature("F1"), curvature("F1")]
    outputs = [run(argv, capsys) for argv in calls]
    assert all(code == 0 and err == "" for code, _, err in outputs)
    entries = sum(payload["n"] ** 2 for payload in payloads.values())
    once = dict(counted)
    assert once == {"reads": 14, "loads": 5, "parses": entries, "compiles": 5, "validations": 5}
    # a cached metric gives the same reports as a fresh load
    cli._file_metric.cache_clear()
    assert [run(argv, capsys) for argv in calls] == outputs
    print(f"\n{len(calls)} calls on {len(refs)} distinct files read {once['reads']} times: "
          f"{once['loads']} loads, {once['parses']} entry parses, "
          f"{once['compiles']} compiles, {once['validations']} validations")


def test_rewritten_file_is_read_and_validated_again(counted, tmp_path):
    path = tmp_path / "disk.json"
    payload = {"n": 1, "entries": [["1"]], "region": {"type": "ball", "radius": 1.0}}
    first = cli._parse_metric(write(path, payload))
    assert cli._parse_metric(f"file:{path}") is first
    rewritten = dict(payload, entries=[["2 + abs2(z1)"]])
    second = cli._parse_metric(write(path, rewritten))
    assert second.entries != first.entries
    assert counted["validations"] == 2
    # the first content again is the first spec: keyed by the bytes, not by the path alone
    assert cli._parse_metric(write(path, payload)) is first
    assert (counted["reads"], counted["validations"]) == (4, 2)


@pytest.mark.parametrize("content, message", [
    (None, "cannot read metric file"),
    ("{", "metric file is not valid JSON"),
    ({"n": 1, "entries": [["1"]]}, "metric payload is missing required fields"),
    ({"n": 1, "entries": [["1 + 1i"]], "region": {"type": "ball", "radius": 1.0}},
     "is not Hermitian"),
])
def test_bad_file_fails_the_same_way_on_every_call(counted, capsys, tmp_path, content, message):
    path = tmp_path / "bad.json"
    ref = f"file:{path}" if content is None else write(path, content)
    errors = []
    for _ in range(2):
        with pytest.raises(ConfigError, match=message) as caught:
            cli._parse_metric(ref)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert cli._file_metric.cache_info().currsize == 0
    assert counted["validations"] == (2 if "Hermitian" in message else 0)
    outputs = [run(["curvature", "--metric", ref], capsys) for _ in range(2)]
    assert outputs[0] == outputs[1] == (2, "", f"error: {errors[0]}\n")


def test_cache_stays_bounded(counted, tmp_path):
    size = cli._file_metric.cache_info().maxsize
    refs = [write(tmp_path / f"m{k}.json", {"n": 1, "entries": [[f"{k + 1}"]],
                                            "region": {"type": "ball", "radius": 1.0}})
            for k in range(size + 4)]
    for ref in refs:
        cli._parse_metric(ref)
    assert cli._file_metric.cache_info().currsize == size
    assert counted["loads"] == size + 4
    cli._parse_metric(refs[-1])  # among the last 16: kept
    assert counted["loads"] == size + 4
    cli._parse_metric(refs[0])  # the oldest was dropped
    assert counted["loads"] == size + 5
    assert cli._file_metric.cache_info().currsize == size


def test_one_map_and_one_program_build_per_distinct_map(capsys, monkeypatch):
    parses, builds = [], []
    parse, programs = HoloMap.parse.__func__, HoloMap._programs.func
    monkeypatch.setattr(HoloMap, "parse",
                        classmethod(lambda cls, *args: parses.append(args) or parse(cls, *args)))
    counted = functools.cached_property(lambda self: builds.append(self) or programs(self))
    counted.__set_name__(HoloMap, "_programs")
    monkeypatch.setattr(HoloMap, "_programs", counted)
    outputs = {}
    for components in ("z1^2;z2^2", "id", "z1^2;z2^2", "id", "z1^2;z2^2"):
        argv = ["schwarz", "--map", components, "--source", "builtin:poincare_polydisk(2)",
                "--target", "builtin:poincare_polydisk(2)", "--points", "0.3+0.1j,-0.2j"]
        outputs.setdefault(components, set()).add(run(argv, capsys))
    assert all(len(runs) == 1 and next(iter(runs))[0] == 0 for runs in outputs.values())
    assert [args[0] for args in parses] == [("z1^2", "z2^2"), ("z1", "z2")]
    assert builds == [cli._holo_map(("z1^2", "z2^2"), 2), cli._holo_map(("z1", "z2"), 2)]
    assert builds[0]._programs is builds[0]._programs
    # a map that fails to parse is not kept
    for _ in range(2):
        code, out, err = run(["schwarz", "--map", "conj(z1)", "--source", "builtin:F1",
                              "--target", "builtin:F1"], capsys)
        assert (code, out, err) == (2, "", "error: map component 1 is not holomorphic\n")
    assert cli._holo_map.cache_info().currsize == 2


def test_bianchi_stencil_time_per_call(capsys, monkeypatch):
    """Prints the time per F1 Bianchi check in its stencil: field calls and derivative sums."""
    total, field_time = [], []
    first = chern.field_first

    def timed_first(f, *args, **kwargs):
        def timed_field(w):
            start = time.perf_counter()
            out = f(w)
            field_time.append(time.perf_counter() - start)
            return out

        start = time.perf_counter()
        out = first(timed_field, *args, **kwargs)
        total.append(time.perf_counter() - start)
        return out

    monkeypatch.setattr(chern, "field_first", timed_first)
    argv = ["curvature", "--metric", "builtin:F1", "--points", POINTS["F1"], "--check", "bianchi"]
    for _ in range(40):
        assert run(argv, capsys)[0] == 0
    assert len(total) == len(field_time) == 40
    stencil = statistics.median(total[5:])
    field = statistics.median(field_time[5:])
    print(f"\nBianchi check on F1, one point: stencil {stencil * 1e6:.0f} us per call, of it "
          f"the torsion field {field * 1e6:.0f} us and the derivative sums "
          f"{(stencil - field) * 1e6:.0f} us")
