"""Smoke tests of the benchmark harness, so that it cannot rot unnoticed.

    python3 -m pytest bench/tests

Every workload runs once in quick mode, untraced and traced, and must report
exactly the metrics BENCHMARK.json defines.  The checks must catch a wrong
report, the tracer must report a deleted function as absent, and the
benchmark must refuse to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run.pin_environment()
run.import_curvlab()
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DEFINITION["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = DEFINITION["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_match_the_definition():
    assert [m["name"] for m in DEFINITION["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("times, fails", [(0.5, False), (3.0, True)])
def test_one_entry_off_its_reference_by_times_tol(tmp_path, times, fails):
    name = "single_points"
    reference = workloads.load_reference(name)
    files = workloads.write_metric_files(reference, tmp_path)
    call = workloads.cycle_calls(workloads.WORKLOADS[name], reference, files, 7, 1, quick=True)[0]
    code, out, _, _ = run.invoke(call.argv)
    report = json.loads(out)
    assert code == 0 and workloads.check_call(call, report, reference) == []
    entry = report["points"][0]["curvature"][1][0][1][0]
    entry[0] += times * workloads.TOL["value"] * max(1.0, abs(entry[0]))
    failures = workloads.check_call(call, report, reference)
    assert bool(failures) == fails
    assert all(f.startswith("row 0: curvature[1, 0, 1, 0, 0]") for f in failures)


def test_a_deleted_function_is_absent(monkeypatch):
    from curvlab.tensor_core import UnitaryFrame

    monkeypatch.delattr(UnitaryFrame, "to_frame")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    values, absent = tracer.metrics(cycles=1, overhead=0.0)
    assert "tensor_core.UnitaryFrame.to_frame.calls" in absent
    assert values["tensor_core.UnitaryFrame.to_frame.calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "bulk_points", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
