"""Command line behaviour: parsing, reports, determinism, exit codes."""

import argparse
import functools
import io
import json
import math

import numpy as np
import pytest

from curvlab import cli, schwarz
from curvlab.cli import _parse_metric, main
from curvlab.errors import ConfigError
from curvlab.metric_model import builtin_metric, fixture, hopf
from curvlab.schwarz import HoloMap
from test_report_writer import expanded, oracle as splice_oracle


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decodes_as_file_text(data: bytes) -> bool:
    """Whether metric file bytes decode as ``Path.read_text`` decodes them."""
    try:
        io.TextIOWrapper(io.BytesIO(data), encoding=io.text_encoding(None)).read()
    except UnicodeDecodeError:
        return False
    return True


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert err == "", err
    return code, json.loads(out)


class TestMetricReferences:
    def test_builtin_with_args(self):
        assert _parse_metric("builtin:flat(2)").n == 2
        assert _parse_metric("builtin:poincare_polydisk(1)").n == 1
        assert _parse_metric("builtin:hopf(2)").name.startswith("hopf")

    def test_bare_example22_is_the_standard_fixture(self):
        spec = _parse_metric("builtin:example22")
        assert spec.n == 2
        assert spec.region.radius == 0.25

    def test_fixture_names(self):
        assert _parse_metric("builtin:F3").name == _parse_metric("builtin:hopf(2)").name

    def test_rejects_malformed_references(self):
        for ref in ("flat(2)", "builtin:flat(two)", "builtin:nope(1)", "builtin:(2)"):
            with pytest.raises(ConfigError):
                _parse_metric(ref)

    def test_builtins_are_built_once_per_process(self):
        assert _parse_metric("builtin:example22") is _parse_metric("builtin:example22")
        assert _parse_metric("builtin:hopf(3)") is _parse_metric("builtin:hopf(3)")
        for _ in range(2):
            for ref in ("builtin:nope(1)", "builtin:flat(two)", "builtin:(2)", "flat(2)"):
                with pytest.raises(ConfigError):
                    _parse_metric(ref)

    def test_file_reference_is_read_on_every_call(self, tmp_path):
        path = tmp_path / "disk.json"
        payload = {"n": 1, "entries": [["1"]], "region": {"type": "ball", "radius": 1.0}}
        path.write_text(json.dumps(payload))
        first = _parse_metric(f"file:{path}")
        payload["entries"] = [["2 + z1 * conj(z1)"]]
        path.write_text(json.dumps(payload))
        second = _parse_metric(f"file:{path}")
        assert first is not second and first.entries != second.entries
        path.write_text("{")
        with pytest.raises(ConfigError):
            _parse_metric(f"file:{path}")

    def test_file_reference_round_trip(self, tmp_path):
        payload = {
            "n": 1,
            "entries": [["1 / (1 - z1 * conj(z1))^2"]],
            "region": {"type": "ball", "radius": 1.0},
        }
        path = tmp_path / "disk.json"
        path.write_text(json.dumps(payload))
        spec = _parse_metric(f"file:{path}")
        assert spec.n == 1
        assert spec.name == "disk"


class TestCurvature:
    def test_example_point_report(self, capsys):
        code, report = run_json(
            [
                "curvature",
                "--metric",
                "builtin:example22",
                "--points",
                "0,0",
                "--check",
                "bianchi,pluriclosed",
            ],
            capsys,
        )
        assert code == 0
        row = report["points"][0]
        assert row["torsion"][0][1][0] == [2.0, 0.0]
        assert row["curvature"][0][0][1][1] == [0.5, 0.0]
        assert report["worst_checks"]["bianchi"] <= 1e-6
        assert report["worst_checks"]["pluriclosed"] > 1e-3
        assert report["scheme"]["order"] == 4

    def test_tolerance_breach_exit_code(self, capsys):
        code, report = run_json(
            [
                "curvature",
                "--metric",
                "builtin:example22",
                "--points",
                "0,0",
                "--check",
                "pluriclosed",
                "--tol",
                "1e-6",
            ],
            capsys,
        )
        assert code == 1
        assert report["worst_checks"]["pluriclosed"] > 1e-6

    def test_unknown_check_is_config_error(self, capsys):
        code, out, err = run_cli(
            ["curvature", "--metric", "builtin:F4", "--check", "ricci"], capsys
        )
        assert code == 2
        assert "unknown check" in err

    def test_region_sampling_is_deterministic(self, capsys):
        argv = [
            "curvature",
            "--metric",
            "builtin:poincare_polydisk(2)",
            "--region",
            "3",
            "--seed",
            "5",
        ]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_points_and_region_conflict(self, capsys):
        code, _, err = run_cli(
            [
                "curvature",
                "--metric",
                "builtin:F4",
                "--points",
                "0,0",
                "--region",
                "2",
            ],
            capsys,
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_csv_format_rejected(self, capsys):
        # no subcommand takes --format: every report is the one JSON document
        for argv in (["curvature", "--metric", "builtin:F4"],
                     ["flow", "--metric", "builtin:flat(1)", "--dt", "1e-4", "--steps", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--format", "csv"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --format csv" in captured.err


class TestScan:
    def test_compare_mode_on_hopf(self, capsys):
        code, report = run_json(
            [
                "scan",
                "--metric",
                "builtin:hopf(2)",
                "--points",
                "1,0;0.6,0.3",
                "--compare",
                "--seed",
                "3",
                "--tol",
                "1e-8",
            ],
            capsys,
        )
        assert code == 0
        assert report["summary"]["max_deviation"] <= 1e-8
        assert all(row["pluriclosed"] <= 1e-6 for row in report["results"])

    def test_compare_breach_on_non_pluriclosed_metric(self, capsys):
        code, report = run_json(
            [
                "scan",
                "--metric",
                "builtin:example22",
                "--points",
                "0,0",
                "--compare",
                "--seed",
                "0",
                "--tol",
                "1e-8",
            ],
            capsys,
        )
        assert code == 1
        assert report["summary"]["max_deviation"] > 1e-3

    def test_extremal_certificate(self, capsys):
        argv = [
            "scan",
            "--metric",
            "builtin:poincare_polydisk(2)",
            "--points",
            "0,0",
            "--functional",
            "hsc",
            "--kind",
            "inf",
            "--starts",
            "8",
            "--ascent-steps",
            "80",
            "--seed",
            "1",
        ]
        code, report = run_json(argv, capsys)
        assert code == 0
        assert report["summary"]["best_value"] == pytest.approx(-2.0, abs=1e-3)
        witness = np.array(report["results"][0]["witness"])
        assert witness.shape == (2, 2)

    @pytest.mark.parametrize("functional", [["hsc"], ["rbc", "--tau", "0"]])
    def test_certificate_rows_carry_bound_and_gap(self, capsys, functional):
        # bidisk at the origin: both functionals range over [-2, -1]
        argv = ["scan", "--metric", "builtin:poincare_polydisk(2)", "--points", "0,0;0.3,-0.2j",
                "--functional", *functional, "--starts", "3"]
        for kind, want in (("sup", -1.0), ("inf", -2.0)):
            code, report = run_json(argv + ["--kind", kind], capsys)
            assert code == 0
            for row in report["results"]:
                assert row["bound"] == pytest.approx(want, abs=1e-12)
                assert row["value"] == pytest.approx(want, abs=1e-12)
                assert 0.0 <= row["gap"] <= row["tolerance"]
                assert row["gap"] == (row["bound"] - row["value"] if kind == "sup"
                                      else row["value"] - row["bound"])
                assert (row["samples"], row["ascent_iterations"]) == (3, 0)

    def test_scan_reruns_are_byte_identical(self, capsys):
        argv = [
            "scan",
            "--metric",
            "builtin:poincare_polydisk(2)",
            "--points",
            "0,0",
            "--kind",
            "sup",
            "--starts",
            "6",
            "--ascent-steps",
            "40",
            "--seed",
            "7",
        ]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_bad_kind_rejected(self, capsys):
        code, _, err = run_cli(
            ["scan", "--metric", "builtin:F4", "--kind", "max"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags", [["--starts", "0"], ["--starts", "-3"], ["--ascent-steps", "-1"]]
    )
    @pytest.mark.parametrize("functional", ["hsc", "rbc"])
    def test_bad_scan_sizes_are_config_errors(self, capsys, flags, functional):
        code, out, err = run_cli(
            ["scan", "--metric", "builtin:F4", "--functional", functional, *flags], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


    @pytest.mark.parametrize("count", ["8", "-1"])
    def test_samples_flag_is_a_usage_error(self, capsys, count):
        # the comparison is exact, so it draws no forms and takes no count
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--metric", "builtin:F4", "--compare", "--samples", count])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "unrecognized arguments: --samples" in err


class TestSchwarz:
    @pytest.mark.parametrize("components", ["id", "z1^2;z2^2"])
    def test_one_file_for_source_and_target_is_loaded_once(self, capsys, monkeypatch, tmp_path,
                                                           components):
        payload = {"n": 2, "entries": [["1 / (1 - abs2(z1))^2", "0"], ["0", "1 / (1 - abs2(z2))^2"]],
                   "region": {"type": "polydisk", "radius": 1.0}}
        paths = [tmp_path / side / "P2.json" for side in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            path.write_text(json.dumps(payload))
        loads, load = [], cli.load_metric
        monkeypatch.setattr(cli, "load_metric", lambda source: loads.append(source) or load(source))
        argv = ["schwarz", "--map", components, "--points", "0.3+0.2j,-0.1+0.25j;0.1,0.2j",
                "--source", f"file:{paths[0]}", "--target"]
        code, same, err = run_cli(argv + [f"file:{paths[0]}"], capsys)
        assert (code, err, len(loads)) == (0, "", 1)
        # the same file again is not loaded again, but a copy of it under another
        # path is loaded and validated
        code, two, err = run_cli(argv + [f"file:{paths[1]}"], capsys)
        assert (code, err, len(loads)) == (0, "", 2)
        assert two.replace(str(paths[1]), str(paths[0])) == same

    def test_identity_map_between_metrics(self, capsys):
        code, report = run_json(
            [
                "schwarz",
                "--map",
                "id",
                "--source",
                "builtin:poincare_polydisk(2)",
                "--target",
                "builtin:example22",
                "--points",
                "0.1,0.1",
            ],
            capsys,
        )
        assert code == 0
        row = report["results"][0]
        assert row["relative_residual"] <= 1e-6
        assert row["skew_residual"] <= 1e-8
        assert report["max_relative_residual"] <= 1e-6

    def test_component_map(self, capsys):
        code, report = run_json(
            [
                "schwarz",
                "--map",
                "z1^2;z2^2",
                "--source",
                "builtin:poincare_polydisk(2)",
                "--target",
                "builtin:poincare_polydisk(2)",
                "--points",
                "0.3+0.2j,-0.1+0.25j",
                "--tol",
                "1e-6",
            ],
            capsys,
        )
        assert code == 0
        assert report["results"][0]["energy"] > 0

    def test_identity_map_needs_matching_dimensions(self, capsys):
        code, _, err = run_cli(
            [
                "schwarz",
                "--map",
                "id",
                "--source",
                "builtin:poincare_polydisk(1)",
                "--target",
                "builtin:example22",
            ],
            capsys,
        )
        assert code == 2
        assert "equal dimension" in err


class TestGauduchon:
    def test_roundtrip_report(self, capsys):
        code, report = run_json(
            [
                "gauduchon",
                "--metric",
                "builtin:example22",
                "--t=-1,0.25,2",
                "--roundtrip",
            ],
            capsys,
        )
        assert code == 0
        assert report["max_roundtrip_residual"] <= 1e-9
        assert len(report["results"]) == 3

    def test_roundtrip_breach_when_tolerance_is_absurd(self, capsys):
        code, report = run_json(
            [
                "gauduchon",
                "--metric",
                "builtin:example22",
                "--t=2",
                "--roundtrip",
                "--tol",
                "1e-25",
            ],
            capsys,
        )
        assert code == 1

    def test_degenerate_parameter_is_config_error(self, capsys):
        code, _, err = run_cli(
            ["gauduchon", "--metric", "builtin:F4", "--t=0.5", "--roundtrip"], capsys
        )
        assert code == 2


class TestFlow:
    def test_flat_flow_matches_closed_form(self, capsys):
        code, report = run_json(
            [
                "flow",
                "--metric",
                "builtin:flat(1)",
                "--tau",
                "1",
                "--dt",
                "0.01",
                "--steps",
                "10",
            ],
            capsys,
        )
        assert code == 0
        entry = report["result"]["center_metric"][0][0]
        assert entry[0] == pytest.approx(math.exp(-0.1), abs=1e-4)
        assert entry[1] == 0.0
        assert report["result"]["time"] == pytest.approx(0.1)
        assert len(report["history"]) == 10
        assert report["config"]["grid"]["boundary"] == "periodic"

    def test_flow_history_time_series(self, capsys):
        code, report = run_json(
            [
                "flow",
                "--metric",
                "builtin:flat(1)",
                "--tau",
                "inf",
                "--dt",
                "0.01",
                "--steps",
                "3",
                "--reference",
                "builtin:flat(1)",
            ],
            capsys,
        )
        assert code == 0
        history = report["history"]
        assert [row["step"] for row in history] == [1, 2, 3]
        columns = {"step", "time", "dt", "min_eigenvalue", "max_velocity", "sup_trace"}
        assert all(columns <= row.keys() for row in history)
        assert [row["dt"] for row in history] == [0.01] * 3
        assert history[-1]["time"] == report["result"]["time"]
        assert history[-1]["sup_trace"] == pytest.approx(math.exp(0.03), abs=1e-5)

    def test_flow_numerical_failure_exit_code(self, capsys):
        code, _, err = run_cli(
            [
                "flow",
                "--metric",
                "builtin:flat(1)",
                "--tau",
                "1",
                "--dt",
                "6.4",
                "--steps",
                "1",
            ],
            capsys,
        )
        assert code == 3
        assert "rejected" in err

    def test_grid_on_a_singularity_is_numerical_failure(self, capsys):
        # a node sits on hopf's puncture; its metric value is not finite
        code, out, err = run_cli(
            ["flow", "--metric", "builtin:hopf(1)", "--center", "0", "--extent", "0.1",
             "--dt", "1e-4", "--steps", "1"],
            capsys,
        )
        assert code == 3
        assert "NaN" not in out and out == ""
        assert err.startswith("error: ") and "not finite" in err

    def test_grid_outside_the_region_is_a_configuration_error(self, capsys):
        # finite nodes at |z| > 1, off the disk where the metric is defined
        code, out, err = run_cli(
            ["flow", "--metric", "builtin:poincare_polydisk(1)", "--center", "0.93",
             "--extent", "0.1", "--dt", "1e-7", "--steps", "1", "--boundary", "frozen"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == ("error: grid node [1.03-0.1j] lies outside the polydisk region of "
                       "poincare_polydisk(1)\n")

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "flow.json"
        code, out, _ = run_cli(
            [
                "flow",
                "--metric",
                "builtin:flat(1)",
                "--tau",
                "1",
                "--dt",
                "0.01",
                "--steps",
                "2",
                "--out",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert report["command"] == "flow"


class TestFlowSeam:
    """The periodic seam: its jump in the report, and a warning when it stands out."""

    def flow(self, metric, boundary, capsys):
        return run_cli(
            ["flow", "--metric", metric, "--tau", "2", "--dt", "1e-4", "--steps", "1",
             "--extent", "0.1", "--boundary", boundary],
            capsys,
        )

    def test_flat_periodic_has_no_seam(self, capsys):
        code, out, err = self.flow("builtin:flat(2)", "periodic", capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["grid"]["seam_jump"] == 0.0

    def test_fixture_periodic_warns(self, capsys):
        code, out, err = self.flow("builtin:F1", "periodic", capsys)
        assert code == 0
        report = json.loads(out)
        assert report["grid"]["seam_jump"] > 0
        assert err.startswith("warning: ") and "seam jump" in err
        assert err.count("\n") == 1
        rows = report["history"]
        assert [(row["substeps"], row["rejected"]) for row in rows] == [(1, 0)]

    def test_frozen_reports_null(self, capsys):
        code, out, err = self.flow("builtin:F1", "frozen", capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["grid"]["seam_jump"] is None


class TestFixtures:
    def test_listing(self, capsys):
        code, report = run_json(["fixtures"], capsys)
        assert code == 0
        names = [row["fixture"] for row in report["fixtures"]]
        assert names == ["F1", "F2", "F3", "F4"]
        f1 = report["fixtures"][0]
        assert f1["region"] == {"type": "ball", "radius": 0.25}
        f3 = report["fixtures"][2]
        assert f3["region"]["radius"] == "inf"


# one cheap valid call per subcommand
COMMANDS = {
    "curvature": "curvature --metric builtin:F4",
    "scan": "scan --metric builtin:F4 --starts 1 --ascent-steps 1",
    "schwarz": "schwarz --map id --source builtin:F4 --target builtin:F4",
    "gauduchon": "gauduchon --metric builtin:F4 --t 2",
    "flow": "flow --metric builtin:flat(1) --dt 1e-4 --steps 1 --resolution 3",
    "fixtures": "fixtures",
}

# flags a subcommand does not take, each with a value it would parse
FOREIGN_FLAGS = (
    [(name, flag) for name in ("scan", "gauduchon", "flow", "fixtures")
     for flag in ("--h=1e-3", "--order=4")]
    + [(name, flag) for name in ("flow", "fixtures") for flag in ("--seed=0", "--tol=1")]
    + [(name, "--format=json") for name in COMMANDS]
)


def test_flag_counts():
    # every added flag shows here; the counts print under -s
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    counts = {name: sum(a.dest != "help" for a in parser._actions if a.option_strings)
              for name, parser in subparsers.choices.items()}
    print("\n" + ", ".join(f"{name} {count}" for name, count in counts.items())
          + f", total {sum(counts.values())}")
    assert counts == {"curvature": 9, "scan": 12, "schwarz": 10, "gauduchon": 8, "flow": 11,
                      "fixtures": 1}


class TestReportConfig:
    @pytest.mark.parametrize("command", COMMANDS.values())
    def test_config_holds_every_flag_but_out(self, capsys, command):
        # the report's config is the parsed flags; flow nests its grid flags
        # and names --reference reference_metric
        name = command.split()[0]
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = {action.dest for action in subparsers.choices[name]._actions} - {"help", "out"}
        _, report = run_json(command.split(), capsys)
        assert report["command"] == name
        config = report["config"]
        if name == "flow":
            grid = {"extent", "resolution", "boundary", "center"}
            assert set(config["grid"]) == grid
            flags = flags - grid - {"reference"} | {"grid", "reference_metric"}
        assert set(config) == flags

    @pytest.mark.parametrize("name, flag", FOREIGN_FLAGS)
    def test_foreign_flag_is_a_usage_error(self, capsys, name, flag):
        with pytest.raises(SystemExit) as exc:
            main(COMMANDS[name].split() + [flag])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err

    @pytest.mark.parametrize("name", sorted(set(COMMANDS) - {"flow", "fixtures"}))
    def test_scheme_only_where_stencils_run(self, capsys, name):
        _, report = run_json(COMMANDS[name].split(), capsys)
        if name in ("curvature", "schwarz"):
            assert report["scheme"] == {"h": 1e-3, "order": 4, "richardson": 1}
        else:
            assert "scheme" not in report


class TestExitCodes:
    def test_config_error_from_bad_reference(self, capsys):
        code, _, err = run_cli(
            ["curvature", "--metric", "builtin:moebius(2)"], capsys
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "metric", ["builtin:hopf()", "builtin:flat(1,2)", "builtin:example22(3)", "builtin:F1(2)"]
    )
    def test_builtin_argument_count(self, capsys, metric):
        code, out, err = run_cli(["curvature", "--metric", metric], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "expected 'builtin:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, args", [("hopf", ()), ("flat", (1, 2)), ("example22", (3,)), ("F1", (3,))]
    )
    def test_builtin_metric_checks_its_argument_count(self, name, args):
        with pytest.raises(ConfigError, match="expected 'builtin:"):
            builtin_metric(name, *args)

    def test_builtin_metric_names(self):
        assert builtin_metric("example22") == builtin_metric("F1") == fixture("F1")
        assert builtin_metric("hopf", 3) == hopf(3)
        with pytest.raises(ConfigError, match="unknown builtin metric 'nope'"):
            builtin_metric("nope", 1)

    @pytest.mark.parametrize("metric", ["builtin:flat(-1)", "builtin:flat(0)"])
    def test_builtin_dimension(self, capsys, metric):
        code, out, err = run_cli(["curvature", "--metric", metric], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "dimension must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [
            "curvature --metric builtin:example22 --h nan",
            "curvature --metric builtin:example22 --h inf",
            "curvature --metric builtin:example22 --check bianchi --tol nan",
            "gauduchon --metric builtin:F2 --t nan --roundtrip",
            "gauduchon --metric builtin:F2 --t 2,inf",
            "flow --metric builtin:flat(1) --dt 1e-4 --steps 1 --extent inf",
            "flow --metric builtin:flat(1) --dt 1e-4 --steps 1 --extent nan",
            "flow --metric builtin:flat(1) --dt 1e-4 --steps 1 --center nan",
            "flow --metric builtin:poincare_polydisk(1) --dt 1e-4 --steps 1 --center nan",
            "flow --metric builtin:flat(1) --dt nan --steps 1",
            "flow --metric builtin:flat(1) --dt inf --steps 1",
        ],
    )
    def test_non_finite_numeric_flag(self, capsys, command):
        code, out, err = run_cli(command.split(), capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, code",
        [
            # the family member overflows: s * s, or a torsion product it scales
            ("gauduchon --metric builtin:F2 --t 1e200 --roundtrip", 3),
            ("gauduchon --metric builtin:F2 --t 1e200", 3),
            ("gauduchon --metric builtin:F1 --t 1e160", 3),
            # a finite member whose inverse weights overflow, or divide by zero
            ("gauduchon --metric builtin:F2 --t 1e120 --roundtrip", 3),
            ("gauduchon --metric builtin:F2 --t 1e-200 --roundtrip", 3),
            # a finite member whose norm overflows as it squares the entries
            ("gauduchon --metric builtin:F1 --t 1e100", 3),
            ("gauduchon --metric builtin:F1 --t 1e140", 3),
            # the grid spacing, or a grid corner, overflows
            ("flow --metric builtin:flat(1) --dt 1e-4 --steps 1 --extent 1e308", 2),
            ("flow --metric builtin:flat(1) --dt 1e-4 --steps 1 --center 1.7e308 "
             "--extent 1e307", 2),
            # a step whose square, the divisor of second differences, overflows
            ("curvature --metric builtin:F4 --h 1e300 --check bianchi", 2),
            ("schwarz --map id --source builtin:F4 --target builtin:F4 --h 1e300", 2),
            # a step so small that the stencil sums are not finite
            ("curvature --metric builtin:F1 --check bianchi --h 1e-320 --tol 1e-6", 3),
            ("schwarz --map id --source builtin:F1 --target builtin:F1 --h 1e-160", 3),
            # the tempered tensor's quadratic form overflows
            ("scan --metric builtin:F1 --functional rbc --tau 1e308", 3),
        ],
    )
    def test_overflow_is_one_error_line(self, capsys, command, code):
        got, out, err = run_cli(command.split(), capsys)
        assert got == code
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "Warning" not in err

    # Each request fails before it allocates anything: a grid of 1000^4 nodes
    # asks for 7.28 TiB at once, a region of 1e12 points for 14.6 TiB, and a
    # grid of 100000^4 nodes is refused before any array is formed.
    @pytest.mark.parametrize("command, message", [
        ("flow --metric builtin:example22 --dt 1e-4 --steps 2 --extent 0.05 --resolution 1000",
         "error: Unable to allocate 7.28 TiB for an array"),
        ("flow --metric builtin:example22 --dt 1e-4 --steps 2 --extent 0.05 "
         "--resolution 100000",
         "error: a grid of 100000 nodes per axis on 4 axes exceeds numpy's array size limit\n"),
        ("scan --metric builtin:hopf(2) --region 1000000000000 --functional hsc --kind sup",
         "error: Unable to allocate 14.6 TiB for an array"),
    ], ids=["flow-1000", "flow-100000", "scan-1e12"])
    def test_request_too_large_to_allocate_is_one_error_line(self, capsys, command, message):
        code, out, err = run_cli(command.split(), capsys)
        assert (code, out) == (2, "")
        assert err.startswith(message) and err.count("\n") == 1

    # Counts numpy cannot size, whether past its dimension limit (1e20) or its byte
    # limit, are refused where each is read, before any array is formed.
    @pytest.mark.parametrize("command, message", [
        ("curvature --metric builtin:hopf(2) --region 100000000000000000000",
         "--region 100000000000000000000 exceeds numpy's array size limit"),
        ("curvature --metric builtin:hopf(2) --region 9223372036854775807",
         "--region 9223372036854775807 exceeds numpy's array size limit"),
        ("scan --metric builtin:hopf(2) --points 0.1,0.1 --starts 100000000000000000000",
         "the ascent's 100000000000000000000 starts exceed numpy's array size limit"),
        ("scan --metric builtin:hopf(2) --points 0.1,0.1 --functional rbc "
         "--starts 576460752303423488",
         "the ascent's 576460752303423488 starts exceed numpy's array size limit"),
    ], ids=["region-1e20", "region-intp-max", "starts-1e20", "rbc-starts-2^59"])
    def test_count_beyond_the_array_size_limit_is_a_config_error(self, capsys, command,
                                                                  message):
        code, out, err = run_cli(command.split(), capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", [
        "scan --metric builtin:hopf(2) --points 0.1,0.1 --seed -1",
        "curvature --metric builtin:hopf(2) --region 2 --seed -5",
        "gauduchon --metric builtin:hopf(2) --t 1 --region 2 --seed -5",
        "schwarz --map id --source builtin:hopf(2) --target builtin:hopf(2) --region 2 "
        "--seed -5",
        "scan --metric builtin:hopf(2) --region 2 --seed -5",
        "scan --metric builtin:hopf(2) --region 2 --compare --seed -5",
    ], ids=["scan-points", "curvature", "gauduchon", "schwarz", "scan-region", "compare"])
    def test_negative_seed_is_a_config_error(self, capsys, command):
        code, out, err = run_cli(command.split(), capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --seed must be nonnegative, got {command.split()[-1]}\n"

    @pytest.mark.filterwarnings("error")
    def test_huge_tau_certificate_is_quiet(self, capsys):
        # the ascent's gradient norm overflows, and the start stops there
        code, report = run_json(["scan", "--metric", "builtin:F1", "--functional", "rbc",
                                 "--tau", "1e200", "--kind", "inf"], capsys)
        (row,) = report["results"]
        assert code == 0
        assert (row["value"], row["bound"], row["ascent_iterations"]) == (
            -0.1, -8.881784197001252e+184, 0)

    def test_wrong_point_dimension(self, capsys):
        code, _, err = run_cli(
            ["curvature", "--metric", "builtin:flat(2)", "--points", "0.1"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, metric, points",
        [
            # the origin is the puncture of hopf's region
            ("curvature", "builtin:hopf(2)", "0,0"),
            ("curvature", "builtin:poincare_polydisk(1)", "2"),
            ("curvature", "builtin:poincare_polydisk(2)", "0.1,1"),
            ("curvature", "builtin:example22", "0.1,0;0.3,0"),
            ("gauduchon", "builtin:hopf(2)", "0,0"),
            # no point with a NaN lies in a region, even a ball of infinite radius
            ("curvature", "builtin:flat(2)", "nan,0"),
            # nor one with an infinite entry, whose norm is off the puncture
            ("curvature", "builtin:hopf(2)", "inf,0"),
            ("curvature", "builtin:hopf(2)", "0,inf"),
        ],
    )
    def test_point_outside_region(self, capsys, command, metric, points):
        argv = [command, "--metric", metric, "--points", points]
        if command == "gauduchon":
            argv += ["--t", "2"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "outside" in err and "Traceback" not in err

    def test_tiny_point_is_not_the_puncture(self, capsys):
        # its norm underflows to 0, but the point reaches hopf's metric,
        # which divides by |z|^2 and overflows there
        code, out, err = run_cli(
            ["curvature", "--metric", "builtin:hopf(2)", "--points", "1e-170,0"], capsys
        )
        assert (code, out) == (3, "")
        assert err == "error: metric jet is not finite at [1.e-170+0.j 0.e+000+0.j]\n"

    def test_huge_point_is_inside_an_infinite_ball(self, capsys):
        # its norm overflows, or is even above the float range, but the point is finite and
        # the ball has no edge
        for points in ("1e200,1e200", "1.5e308,1.5e308"):
            code, report = run_json(
                ["curvature", "--metric", "builtin:flat(2)", "--points", points], capsys
            )
            assert code == 0
            assert report["points"][0]["g"] == [[[1.0, 0.0], [0.0, 0.0]],
                                                [[0.0, 0.0], [1.0, 0.0]]]

    def test_schwarz_source_point_outside_region(self, capsys):
        code, _, err = run_cli(
            ["schwarz", "--map", "id", "--source", "builtin:poincare_polydisk(1)",
             "--target", "builtin:poincare_polydisk(1)", "--points", "1.5"],
            capsys,
        )
        assert code == 2
        assert "outside" in err

    @pytest.mark.parametrize(
        "entry, region, command, code",
        [
            # a grid node on the puncture: the node value is not finite
            ("1 / abs2(z1)", "punctured",
             ["flow", "--center", "0", "--extent", "0.1", "--dt", "1e-4", "--steps", "1"], 3),
            # constant subtrees that cannot be evaluated
            ("1 + 1/(1-1)", "ball", ["curvature", "--points", "0.1"], 2),
            ("1 + abs2(z1) + 0^-1", "ball", ["curvature", "--points", "0.1"], 2),
        ],
    )
    def test_singular_expression_values(self, capsys, tmp_path, entry, region, command, code):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(
            {"n": 1, "entries": [[entry]], "region": {"type": region, "radius": 1.0}}))
        got, out, err = run_cli(command[:1] + ["--metric", f"file:{path}"] + command[1:], capsys)
        assert got == code
        assert err.startswith("error: ") and "Traceback" not in err
        assert "NaN" not in out

    @pytest.mark.skipif(decodes_as_file_text(b"\xff"),
                        reason="the locale encoding decodes every byte")
    def test_metric_file_that_is_not_text(self, capsys, tmp_path):
        # a 0xff byte inside a JSON string is not UTF-8
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"n": 1, "entries": [["1"]], "note": "\xff", '
                         b'"region": {"type": "ball", "radius": 1.0}}')
        got, out, err = run_cli(["curvature", "--metric", f"file:{path}"], capsys)
        assert (got, out) == (2, "")
        assert err.startswith("error: metric file is not text in the locale encoding: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "entries, flags, where",
        [
            ([["1 - abs2(z1)*4"]], ["--points", "0.9"], "[0.9+0.j]"),
            # the first point of the stack whose g is not positive definite is named
            ([["1 - abs2(z1)*4"]], ["--points", "0.1;0.95;0.9"], "[0.95+0.j]"),
            ([["1 + abs2(3)", "0.1*(z1)"], ["0.1*conj(z1)", "(1e-3)^5"]],
             ["--region", "5", "--seed", "55"], "["),
        ],
    )
    @pytest.mark.parametrize("checks", [[], ["--check", "bianchi,pluriclosed"]])
    def test_metric_that_is_not_positive_definite(self, capsys, tmp_path, entries, flags, where,
                                                  checks):
        path = tmp_path / "indefinite.json"
        path.write_text(json.dumps(
            {"n": len(entries), "entries": entries, "region": {"type": "ball", "radius": 1.0}}))
        got, out, err = run_cli(["curvature", "--metric", f"file:{path}", *flags, *checks],
                                capsys)
        assert (got, out) == (3, "")
        assert err.startswith(f"error: metric is not positive definite at {where}")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "components, points, where",
        [
            # a pole at the point itself
            ("0.1/(z1-0.5)", "0.5", "value is not finite at [0.5+0.j]"),
            # a pole on the footprint of the Laplacian: the point plus one step
            ("1e-5/(z1-0.001)", "0", "value is not finite at [0.001+0.j]"),
        ],
    )
    def test_map_pole_is_numerical_failure(self, capsys, components, points, where):
        code, out, err = run_cli(
            ["schwarz", "--map", components, "--source", "builtin:poincare_polydisk(1)",
             "--target", "builtin:poincare_polydisk(1)", "--points", points],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: map ") and where in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize(
        "command, code",
        [
            # nothing checked: no breach, whatever --tol is
            (COMMANDS["curvature"], 0),
            (COMMANDS["gauduchon"], 0),
            (COMMANDS["scan"], 0),
            # every checked value is at least 0, above a tolerance of -1
            (COMMANDS["curvature"] + " --check pluriclosed", 1),
            (COMMANDS["gauduchon"] + " --roundtrip", 1),
            ("scan --metric builtin:F4 --compare", 1),
            (COMMANDS["schwarz"], 1),
        ],
    )
    def test_breach_needs_a_checked_value(self, capsys, command, code):
        got, report = run_json(command.split() + ["--tol=-1"], capsys)
        assert got == code
        assert report["command"] == command.split()[0]

    @pytest.mark.parametrize("command", [COMMANDS["fixtures"], COMMANDS["flow"]])
    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_out_is_a_configuration_error(self, capsys, tmp_path, command, where):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
        code, out, err = run_cli(command.split() + ["--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write the report: ") and err.count("\n") == 1
        assert str(path) in err

    def test_parser_keeps_no_state_between_calls(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        argv = ["curvature", "--metric", "builtin:example22", "--points", "0.1,0"]
        _, checked = run_json(argv + ["--check", "bianchi"], capsys)
        _, plain = run_json(argv, capsys)
        assert "checks" in checked["points"][0]
        assert plain["config"]["check"] is None
        assert "checks" not in plain["points"][0]
        assert plain["worst_checks"] == {}


class TestStencilFootprint:
    """The stencil around a point must stay in the metric's region."""

    @pytest.fixture
    def disk(self, tmp_path):
        path = tmp_path / "disk.json"
        path.write_text(json.dumps({
            "n": 1,
            "entries": [["1 / (1 - z1 * conj(z1))^2"]],
            "region": {"type": "ball", "radius": 1.0},
        }))
        return f"file:{path}"

    # at 0.9995 the footprint hits the pole |z| = 1; at 0.9985 it reaches |z| = 1.0005
    @pytest.mark.parametrize("radius", ["0.9985", "0.9995"])
    def test_bianchi_footprint_leaving_the_region(self, capsys, disk, radius):
        argv = ["curvature", "--metric", disk, "--points", radius, "--check", "bianchi"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"[{radius}+0.j]" in err and "lower --h" in err
        code, report = run_json(argv + ["--h", "1e-4"], capsys)
        assert code == 0
        assert report["worst_checks"]["bianchi"] < 1e-3

    def test_schwarz_laplacian_footprint_leaving_the_source(self, capsys):
        code, out, err = run_cli(
            ["schwarz", "--map", "id", "--source", "builtin:poincare_polydisk(1)",
             "--target", "builtin:poincare_polydisk(1)", "--points", "0.9995"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "lower --h" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "target, point, message",
        [
            # the images reach the pole |w| = 1 (once a NaN Laplacian with exit 0)
            ("builtin:poincare_polydisk(1)", "0.9995", "the target's polydisk region"),
            # the images reach |w| = 1.00001 (once a Laplacian of -6.4e15)
            ("builtin:poincare_polydisk(1)", "0.99999", "the target's polydisk region"),
            # the images reach the puncture w = 0
            ("builtin:hopf(1)", "0.0005", "the target's punctured region"),
        ],
    )
    def test_schwarz_energy_images_leaving_the_target(self, capsys, target, point, message):
        code, out, err = run_cli(
            ["schwarz", "--map", "z1", "--source", "builtin:flat(1)", "--target", target,
             "--points", point, "--tol", "1e-4"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == (f"error: the image of the stencil around [{point}+0.j] leaves {message}; "
                       f"lower --h (now 0.001)\n")

    def test_bianchi_footprint_leaving_the_positive_cone(self, capsys, tmp_path):
        # g is positive definite at the centre (det g = 1 - 5|z1|^2 = 0.0032) but not at the
        # footprint point 0.4475, where det g = 1 - 5 * 0.4475^2 < 0
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"n": 2, "entries": [["1 - abs2(z1)*4", "z1"],
                                                        ["conj(z1)", "1"]],
                                    "region": {"type": "ball", "radius": 1.0}}))
        argv = ["curvature", "--metric", f"file:{path}", "--points", "0.4465,0"]
        assert run_json(argv, capsys)[0] == 0
        code, out, err = run_cli(argv + ["--check", "bianchi"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: metric is not positive definite at [0.4475+0.j 0.    +0.j]\n"


class TestFileMetricAccuracy:
    """A file: metric's jet is exact, so curvature holds up near the boundary."""

    @pytest.mark.parametrize("radius", [0.9985, 0.9995])
    def test_disk_curvature_near_the_boundary(self, capsys, tmp_path, radius):
        path = tmp_path / "disk.json"
        path.write_text(json.dumps({
            "n": 1,
            "entries": [["1 / (1 - z1 * conj(z1))^2"]],
            "region": {"type": "ball", "radius": 1.0},
        }))
        code, report = run_json(
            ["curvature", "--metric", f"file:{path}", "--points", repr(radius)], capsys
        )
        assert code == 0
        got = complex(*report["points"][0]["curvature"][0][0][0][0])
        closed = -2.0 / (1.0 - radius**2) ** 4
        assert abs(got - closed) <= 1e-10 * abs(closed), f"R = {got} against {closed}"


BATCH_METRICS = {
    "F1": "builtin:example22",
    "P2": "builtin:poincare_polydisk(2)",
    "H2": "builtin:hopf(2)",
}


def point_arg(pairs) -> str:
    """A ``--points`` value that parses back to exactly the reported point."""
    return ",".join(repr(complex(re, im)) for re, im in pairs)


def assert_rows_close(got, want, label: str, rtol: float = 1e-13) -> None:
    """Same keys, shapes and strings; every number within rtol * max(1, |want|)."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), label
        for key in want:
            assert_rows_close(got[key], want[key], f"{label}.{key}", rtol)
    elif isinstance(want, list):
        assert len(got) == len(want), label
        for g, w in zip(got, want):
            assert_rows_close(g, w, label, rtol)
    elif isinstance(want, str):
        assert got == want, label
    else:
        assert abs(got - want) <= rtol * max(1.0, abs(want)), f"{label}: {got} vs {want}"


class TestBatchedRows:
    """A row of a many-point call equals the one-point call at that point."""

    @pytest.mark.parametrize("name", sorted(BATCH_METRICS))
    def test_curvature_region(self, capsys, name):
        flags = ["--check", "bianchi,pluriclosed"]
        argv = ["curvature", "--metric", BATCH_METRICS[name], *flags]
        _, report = run_json(argv + ["--region", "16", "--seed", "3"], capsys)
        assert len(report["points"]) == 16
        for k, row in enumerate(report["points"]):
            _, single = run_json(argv + ["--points=" + point_arg(row["point"])], capsys)
            assert_rows_close(row, single["points"][0], f"{name} row {k}")
        checks = [row["checks"] for row in report["points"]]
        assert report["worst_checks"] == {c: max(row[c] for row in checks) for c in checks[0]}

    @pytest.mark.parametrize("name", sorted(BATCH_METRICS))
    def test_gauduchon_region(self, capsys, name):
        argv = ["gauduchon", "--metric", BATCH_METRICS[name], "--t=-1,0.25,2", "--roundtrip"]
        _, report = run_json(argv + ["--region", "16", "--seed", "3"], capsys)
        rows = report["results"]
        assert len(rows) == 48
        for k in range(16):
            at_point = rows[3 * k:3 * k + 3]
            assert [row["t"] for row in at_point] == [-1.0, 0.25, 2.0]
            _, single = run_json(argv + ["--points=" + point_arg(at_point[0]["point"])], capsys)
            assert_rows_close(at_point, single["results"], f"{name} point {k}")
        assert report["max_roundtrip_residual"] == max(row["roundtrip_residual"] for row in rows)

    @pytest.mark.parametrize("name", sorted(BATCH_METRICS))
    def test_compare_region(self, capsys, name):
        argv = ["scan", "--metric", BATCH_METRICS[name], "--compare", "--seed", "5"]
        _, report = run_json(argv + ["--region", "8"], capsys)
        rows = report["results"]
        assert len(rows) == 8
        for k, row in enumerate(rows):
            _, single = run_json(argv + ["--points=" + point_arg(row["point"])], capsys)
            assert_rows_close(row, single["results"][0], f"{name} row {k}")
        assert report["summary"]["max_deviation"] == max(row["deviation"] for row in rows)

    @pytest.mark.parametrize("name", sorted(BATCH_METRICS))
    @pytest.mark.parametrize("functional", [["hsc"], ["rbc", "--tau", "0"], ["rbc", "--tau", "2"]])
    def test_scan_certificates_region(self, capsys, name, functional):
        argv = ["scan", "--metric", BATCH_METRICS[name], "--functional", *functional,
                "--starts", "4", "--ascent-steps", "30", "--seed", "2"]
        for kind in ("sup", "inf"):
            _, report = run_json(argv + ["--kind", kind, "--region", "4"], capsys)
            rows = report["results"]
            assert len(rows) == 4
            for k, row in enumerate(rows):
                _, single = run_json(argv + ["--kind", kind, "--points=" + point_arg(row["point"])],
                                     capsys)
                assert_rows_close(row, single["results"][0], f"{name} {kind} row {k}")
            best = max if kind == "sup" else min
            assert report["summary"]["best_value"] == best(row["value"] for row in rows)


class TestSchwarzBatch:
    """`schwarz` evaluates all its points with one report call."""

    ARGV = ["schwarz", "--map", "(z1 + z2)/2; z1*z2 - z2^2",
            "--source", "builtin:F1", "--target", "builtin:F2"]

    def test_rows_equal_one_point_calls(self, capsys):
        _, report = run_json(self.ARGV + ["--region", "6", "--seed", "4"], capsys)
        rows = report["results"]
        assert len(rows) == 6
        for row in rows:
            _, single = run_json(self.ARGV + ["--points=" + point_arg(row["point"])], capsys)
            assert single["results"] == [row]
        assert report["max_relative_residual"] == max(row["relative_residual"] for row in rows)

    def test_one_program_build_and_one_stencil_jet_per_call(self, capsys, monkeypatch):
        builds, stencil_centres, folds = [], [], []
        program, jet, fold = HoloMap.program.func, schwarz.complex_jet2, HoloMap._fold

        def counted_program(self):
            builds.append(self)
            return program(self)

        def counted_jet(field, z, *args, **kwargs):
            stencil_centres.append(z.shape)
            return jet(field, z, *args, **kwargs)

        def counted_fold(self, z, order):
            folds.append((order, np.shape(z)))
            return fold(self, z, order)

        counted = functools.cached_property(counted_program)
        counted.__set_name__(HoloMap, "program")
        monkeypatch.setattr(HoloMap, "program", counted)
        monkeypatch.setattr(schwarz, "complex_jet2", counted_jet)
        monkeypatch.setattr(HoloMap, "_fold", counted_fold)
        _, report = run_json(
            ["schwarz", "--map", "z1^2;z2^2", "--source", "builtin:poincare_polydisk(2)",
             "--target", "builtin:poincare_polydisk(2)", "--region", "16"],
            capsys,
        )
        print(f"\nschwarz, 16 points: {len(builds)} program build, "
              f"{len(stencil_centres)} stencil jet on {stencil_centres}, "
              f"folds (order, points) {folds}")
        assert len(report["results"]) == 16
        assert len(builds) == 1
        assert stencil_centres == [(16, 2)]
        # the Hessian is checked at the points only, never on the footprint
        assert [points for order, points in folds if order == 2] == [(16, 2)]

    @pytest.mark.parametrize(
        "components, code, message",
        [
            ("3*z1", 2, "image point [1.2+0.j] of [0.4+0.j] leaves the target region"),
            ("0.1/((z1 - 0.4)*(z1 - 0.2))", 3, "map value is not finite at [0.4+0.j]"),
        ],
    )
    def test_first_bad_point_of_a_stack_is_named(self, capsys, components, code, message):
        got, out, err = run_cli(
            ["schwarz", "--map", components, "--source", "builtin:poincare_polydisk(1)",
             "--target", "builtin:poincare_polydisk(1)", "--points", "0.1;0.4;0.2;0.5"],
            capsys,
        )
        assert (got, out) == (code, "")
        assert err == f"error: {message}\n"


class TestFailingPoint:
    """Every error of a point stack names its first failing point, on one ``error:`` line."""

    def test_second_point_of_a_stack_is_named(self, capsys, tmp_path):
        # the metric jet: hopf(2) divides by |z|^2, which underflows at the second point
        code, out, err = run_cli(["curvature", "--metric", "builtin:hopf(2)",
                                  "--points", "0.5,0;1e-170,0"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: metric jet is not finite at [1.e-170+0.j 0.e+000+0.j]\n"
        # the Laplacian: the target's pole 0.75 lies on the stencil of the second point only
        path = tmp_path / "pole.json"
        path.write_text(json.dumps({"n": 1, "entries": [["1 + 0.001/abs2(z1 - 0.75)"]],
                                    "region": {"type": "ball", "radius": 1.0}}))
        argv = ["schwarz", "--map", "id", "--source", "builtin:flat(1)", "--target",
                f"file:{path}", "--h", "0.125", "--points"]
        assert run_json(argv + ["0.1"], capsys)[0] == 0
        code, out, err = run_cli(argv + ["0.1;0.5"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: the Laplacian is not finite at [0.5+0.j]\n"

    def test_grid_metric_names_its_node(self, capsys):
        code, out, err = run_cli(["flow", "--metric", "builtin:hopf(1)", "--center", "0",
                                  "--extent", "0.1", "--dt", "1e-4", "--steps", "1"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: grid metric is not finite at node [0.+0.j]\n"

    def test_family_member_names_its_point(self, capsys, tmp_path):
        # the member is finite, but its norm squares entries near 1e154
        path = tmp_path / "steep.json"
        path.write_text(json.dumps({"n": 2, "entries": [["1 + 1e308*abs2(z1)", "0"],
                                                        ["0", "1 + 1e308*abs2(z1)"]],
                                    "region": {"type": "ball", "radius": 1.0}}))
        code, out, err = run_cli(["gauduchon", "--metric", f"file:{path}",
                                  "--points", "1e-154,1e-154", "--t=-1,2"], capsys)
        assert (code, out) == (3, "")
        assert err == ("error: the norm of the family member at t = -1.0 is not finite at "
                       "[1.e-154+0.j 1.e-154+0.j]\n")
        # the member itself overflows
        code, out, err = run_cli(["gauduchon", "--metric", "builtin:F2", "--t", "1e200",
                                  "--points", "0.1,0;0,0.1"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: the family member at t = 1e+200 is not finite at [0.1+0.j 0. +0.j]\n"


LAYOUT_COMMANDS = {
    "curvature": "curvature --metric builtin:F1 --region 3 --check bianchi,pluriclosed",
    "scan": "scan --metric builtin:hopf(2) --region 2 --functional rbc --tau 2",
    "scan --compare": "scan --metric builtin:hopf(2) --region 3 --compare",
    "schwarz": "schwarz --map id --source builtin:F1 --target builtin:hopf(2) --region 2",
    "gauduchon": "gauduchon --metric builtin:F2 --region 2 --t=-1,2 --roundtrip",
    "flow": "flow --metric builtin:flat(1) --tau 1 --dt 0.01 --steps 2",
    "fixtures": "fixtures",
}


def _sorted_object(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys), keys
    return dict(pairs)


class TestReportLayout:
    """Sorted keys, two-space indentation, every numeric array on one line."""

    @pytest.fixture
    def reports(self, monkeypatch):
        """The report objects the commands hand to the writer, while installed."""
        kept = []
        emit = cli._emit_json

        def keep(report, args):
            kept.append(report)
            emit(report, args)

        monkeypatch.setattr(cli, "_emit_json", keep)
        return kept

    @pytest.mark.parametrize("name", sorted(LAYOUT_COMMANDS))
    def test_layout(self, capsys, tmp_path, reports, name):
        argv = LAYOUT_COMMANDS[name].split()
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        # the old encoding of the same report object is the oracle of its value
        oracle = json.dumps(expanded(reports[0]), sort_keys=True, indent=2,
                            default=np.ndarray.tolist)
        assert json.loads(out, object_pairs_hook=_sorted_object) == json.loads(oracle)
        assert out == splice_oracle(reports[0])
        for line in out.splitlines():
            with pytest.raises(ValueError):
                float(line.strip().rstrip(","))
        assert out.startswith("{\n  \"") and out.endswith("\n}\n")
        assert run_cli(argv, capsys)[1] == out
        path = tmp_path / "report.json"
        assert run_cli(argv + ["--out", str(path)], capsys)[1] == ""
        assert path.read_text() == out

    def test_arrays_sit_on_one_line_with_the_default_separator(self, capsys, reports):
        _, out, _ = run_cli(LAYOUT_COMMANDS["curvature"].split(), capsys)
        lines = [line.rstrip(",") for line in out.splitlines()]
        for name, value in expanded(reports[0])["points"][1].items():
            if name != "checks":
                assert isinstance(value, np.ndarray)
                assert f'      "{name}": {json.dumps(value.tolist())}' in lines, name


class TestPointLists:
    """``--points`` parses a whole list with one ``complex`` map; a bad token is named."""

    @pytest.mark.parametrize("points, token", [
        ("0.1,0.2;0.1,x;y,0.1", "x"),
        ("0.1, 1..2 ;0.1,0.2", "1..2"),
        (" 0.1 , 0.2 ; 1+2 ,0.1", "1+2"),
        ("0.1,0.2;", ""),
        ("0.1,,0.2", ""),
    ])
    def test_a_bad_token_is_one_error_line(self, capsys, points, token):
        argv = ["curvature", "--metric", "builtin:flat(2)", "--points", points]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot parse '{token}' as a complex number\n"

    def test_a_list_gives_the_per_token_loops_bytes(self):
        text = " -0.0 ,0;-0-0j, inf ;nan,-inf+nanj;\t1e-320-0j,\n2.5 ; (1-1j),-0"
        stub = argparse.Namespace(n=2, name="stub", region=argparse.Namespace(
            kind="ball", contains=lambda points: np.ones(len(points), bool)))
        args = argparse.Namespace(points=text, region=None, seed=0)
        got = cli._parse_points(args, stub)
        want = np.array([[complex(token.strip()) for token in chunk.split(",")]
                         for chunk in text.split(";")], dtype=complex)
        assert got.shape == want.shape == (5, 2)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
