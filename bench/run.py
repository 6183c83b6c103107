"""curvlab benchmark: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout; the package is imported from ``src/``.
The process pins BLAS to one thread and unsets ``CURVLAB_THREADS``, then
calls ``curvlab.cli.main(argv)`` in a closed loop: one caller issues the next
call when the previous one returns.  Calls come in cycles (see
``workloads.py``); cycle ``k`` of seed ``N`` always has the same inputs.
Cycles run until ``S`` seconds have passed; there is no warm-up cycle,
because the one-time costs a CLI user pays are import and set-up, which
``setup_s`` measures in fresh processes.  Every report is checked against
the recorded reference and the documented tolerances; a call that exits
nonzero or misses either counts as failed.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median wall time of seven fresh processes that import curvlab,
  write the ``file:`` metrics, resolve every metric of the workload (with
  ``load_metric`` validation) and generate the first cycle's inputs;
- ``work_per_s``: median over cycles of work per second of ``main()`` time,
  where work is point reports (bulk_points, single_points), certificates
  (extremize) or grid nodes times requested steps (flow);
- ``call_p50_s``, ``call_p90_s``: over every ``main()`` call of the run;
- ``peak_rss_mb``: ``ru_maxrss`` of the workload process.

Times are scaled to a reference host speed (see ``kernel_seconds``), so
that the drift of a shared host does not read as a change of curvlab; the
output also prints the wall-clock values.  On a 2-vCPU shared host this cut
the spread (IQR/median) of ``work_per_s`` over ten seeds from 7-27 % to
2-8 % (``baseline.json`` holds both).

The failed ratio is printed too; the result line carries it as ``failed``
out of ``attempted``.

``--trace 1`` runs each call twice, back to back untraced and with span
tracing installed (``tracing.py``), which of the two first alternating, and
reports the per-layer metrics per cycle plus the tracing overhead: the median
over cycles of traced over untraced wall time.  Spans and per-label totals
are written to ``.bench_out/`` when the run ends.
``--quick`` runs one small cycle per workload and is what the smoke test uses.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

CHECKOUT = Path(__file__).resolve().parent.parent
OUT = CHECKOUT / ".bench_out"
SETUP_PROBES = 7
# Shared hosts drift in speed by a third over minutes.  Each duration is
# therefore scaled to a reference speed, at which the kernel below (tiny and
# grid-sized complex einsums, eigenvalue solves and dict work, no curvlab
# code) takes REFERENCE_KERNEL_S.  The kernel is timed before a call once
# KERNEL_INTERVAL_S has passed since its last timing, around every set-up
# probe and once more at the end; a duration is scaled by the mean of the
# timings just before and just after it.
REFERENCE_KERNEL_S = 0.03
KERNEL_INTERVAL_S = 0.5


def pin_environment() -> None:
    """One BLAS thread and no scan thread pool; must run before numpy loads."""
    os.environ.pop("CURVLAB_THREADS", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def import_curvlab():
    """Import curvlab from this checkout's ``src/`` and nowhere else."""
    src = CHECKOUT / "src"
    if not (src / "curvlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no curvlab sources under {src}")
    sys.path.insert(0, str(src))
    import curvlab
    import curvlab.cli

    if not Path(curvlab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: curvlab was imported from {curvlab.__file__}, not {src}")
    return curvlab


def invoke(argv: list[str]) -> tuple[int, str, str, float]:
    """Call ``curvlab.cli.main(argv)``; returns (exit code, stdout, stderr, seconds)."""
    from curvlab import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed call, not a failed run
            code = -1
            traceback.print_exc()
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def kernel_seconds() -> float:
    """Wall time of the reference kernel, now: tiny-array and grid-array work."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
    v = rng.normal(size=2) + 0j
    grid = rng.normal(size=(2401, 2, 2)) + 1j * rng.normal(size=(2401, 2, 2))
    grid = grid @ np.conj(np.swapaxes(grid, -1, -2)) + np.eye(2)
    start = perf_counter()
    total = 0.0
    for _ in range(600):
        m = np.einsum("abcd,a,b->cd", a, v, np.conj(v))
        total += float(np.abs(np.linalg.eigvalsh(m + m.conj().T)).max())
        total += sum({k: 0.5 * k for k in range(30)}.values())
    for _ in range(5):
        total += float(np.linalg.eigvalsh(np.einsum("...ij,...jk->...ik", grid, grid)).max())
    return perf_counter() - start


def environment() -> dict:
    import numpy

    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip()
                      for line in handle if line.startswith("model name")]
    except OSError:
        models = []
    import curvlab

    return {
        "cpu": models[0] if models else platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "curvlab": getattr(curvlab, "__version__", "unknown"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup(name: str, seed: int, directory: Path, quick: bool):
    """Inputs and resolved metrics: with the import, what a CLI user pays first."""
    import workloads

    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference(name)
    files = workloads.write_metric_files(reference, directory)
    workloads.resolve_metrics(workload, files)
    workloads.cycle_calls(workload, reference, files, seed, 1, quick)
    return workload, reference, files


def at_reference_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * 2.0 * REFERENCE_KERNEL_S / (kernel_before + kernel_after)


def measure_setup(name: str, seed: int, probes: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that only set up, raw and at reference speed."""
    raw, kernels = [], [kernel_seconds()]
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-probe"]
    for _ in range(probes):
        start = perf_counter()
        done = subprocess.run(command, cwd=CHECKOUT, capture_output=True, text=True, timeout=120)
        raw.append(perf_counter() - start)
        kernels.append(kernel_seconds())
        if done.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{done.stderr}")
    return raw, [at_reference_speed(t, *kernels[i:i + 2]) for i, t in enumerate(raw)]


class Run:
    """Calls, failures and timings of one benchmark run."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.report_bytes = 0

    def call(self, call) -> float:
        import workloads

        code, out, err, seconds = invoke(call.argv)
        self.attempted += 1
        self.report_bytes += len(out.encode())
        if code != 0:
            reasons = [f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"]
        else:
            try:
                reasons = workloads.check_call(call, json.loads(out), self.reference)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reasons = [f"malformed report: {exc!r}"]
        if reasons:
            self.failures.append(
                f"{call.slot.key} pool entries {list(call.picks)} seed {call.scan_seed}: "
                + "; ".join(reasons[:5])
            )
        return seconds


def end_to_end(args, workload, reference, files) -> tuple[Run, dict, list[str]]:
    import workloads

    run = Run(reference)
    timed, kernels, works = [], [], []  # timed: (wall s, index of the kernel timing before)
    kernel_seconds()  # the first run of the kernel pays one-time numpy costs
    start = perf_counter()
    kernel_at = -KERNEL_INTERVAL_S
    while True:
        calls = workloads.cycle_calls(
            workload, reference, files, args.seed, len(works) + 1, args.quick
        )
        for call in calls:
            if perf_counter() - kernel_at >= KERNEL_INTERVAL_S:
                kernels.append(kernel_seconds())
                kernel_at = perf_counter()
            timed.append((run.call(call), len(kernels) - 1))
        works.append([call.work for call in calls])
        if args.quick or perf_counter() - start >= args.seconds:
            break
    elapsed = perf_counter() - start
    kernels.append(kernel_seconds())
    wall_latencies = [seconds for seconds, _ in timed]
    latencies = [at_reference_speed(seconds, kernels[k], kernels[k + 1]) for seconds, k in timed]
    rates, wall_rates, first = [], [], 0
    for cycle in works:
        last = first + len(cycle)
        rates.append(sum(cycle) / sum(latencies[first:last]))
        wall_rates.append(sum(cycle) / sum(wall_latencies[first:last]))
        first = last
    cycles, total_work = len(works), sum(map(sum, works))
    setup_raw, setup_times = measure_setup(
        args.workload, args.seed, 1 if args.quick else SETUP_PROBES
    )
    p50, p90 = _p50_p90(latencies)
    wall_p50, wall_p90 = _p50_p90(wall_latencies)
    beyond = sum(1 for x in latencies if x > p90)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "call_p50_s": (p50, "s"),
        "call_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    rate = metrics["work_per_s"][0]
    lines = [
        f"measured {cycles} cycles, {len(latencies)} calls, {total_work} {workload.unit} "
        f"in {elapsed:.2f} s; reference kernel median {statistics.median(kernels) * 1e3:.1f} ms "
        f"against {REFERENCE_KERNEL_S * 1e3:g} ms at reference speed",
        "at reference speed (wall clock in brackets):",
        f"setup_s {metrics['setup_s'][0]:.4f} s [{statistics.median(setup_raw):.4f}] "
        f"(median of {len(setup_times)} fresh processes)",
        f"work_per_s {rate:.4f} 1/s [{statistics.median(wall_rates):.4f}], that is "
        f"{workload.rate} {rate:.4f} {workload.unit}/s (median of {cycles} cycles)",
        f"call_p50_s {p50:.5f} s [{wall_p50:.5f}], call_p90_s {p90:.5f} s [{wall_p90:.5f}] "
        f"({len(latencies)} calls, {beyond} beyond p90)",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    return run, metrics, lines


def _p50_p90(latencies: list[float]) -> tuple[float, float]:
    if len(latencies) == 1:
        return latencies[0], latencies[0]
    return statistics.median(latencies), statistics.quantiles(
        latencies, n=10, method="inclusive"
    )[8]


def traced(args, workload, reference, files) -> tuple[Run, dict, list[str], dict]:
    import tracing
    import workloads

    run = Run(reference)
    tracer = tracing.Tracer()

    def traced_call(call) -> float:
        before = run.report_bytes
        tracer.call += 1
        tracer.install()
        try:
            return run.call(call)
        finally:
            tracer.uninstall()
            tracer.counts["cli.report_bytes"] += run.report_bytes - before

    ratios = []  # per cycle: traced over untraced wall time of the same calls
    cycles = 0
    start = perf_counter()
    while True:
        cycles += 1
        calls = workloads.cycle_calls(workload, reference, files, args.seed, cycles, args.quick)
        spent = {False: 0.0, True: 0.0}
        for index, call in enumerate(calls):
            # back to back untraced and traced, which of them first alternating
            for traced_run in (False, True) if (cycles + index) % 2 else (True, False):
                spent[traced_run] += traced_call(call) if traced_run else run.call(call)
        ratios.append(spent[True] / spent[False])
        if args.quick or perf_counter() - start >= args.seconds:
            break
    overhead = statistics.median(ratios) - 1.0
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else None
    spread = quartiles[2] - quartiles[0] if quartiles else math.inf
    values, absent = tracer.metrics(cycles, overhead)
    metrics = {name: (values[name], tracing.unit_of(name)) for name in tracing.PER_LAYER}
    shares = ", ".join(
        f"{layer} {values[layer + '.share']:.1%}" for layer in tracing.LAYER_MODULES
    )
    lines = [
        f"traced {cycles} cycles ({run.attempted} calls, half of them traced)",
        f"tracing overhead {overhead:.1%}: median over cycles of traced over untraced wall "
        "time, each call run back to back untraced and traced, in alternating order; "
        + (f"resolved, above the cycle-to-cycle spread {spread:.1%}" if abs(overhead) > spread
           else f"unresolved, not above the cycle-to-cycle spread {spread:.1%}"),
        f"self-time shares of cli.main: {shares}",
        "absent metrics: " + (", ".join(absent) if absent else "none"),
    ]
    lines += [f"{name} {values[name]:.6g} {tracing.unit_of(name)}" for name in tracing.PER_LAYER]
    dump = tracer.dump()
    dump.update(metrics={k: v[0] for k, v in metrics.items()}, absent=absent, cycles=cycles)
    return run, metrics, lines, dump


def main() -> int:
    pin_environment()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="one small cycle per run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_curvlab()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload, reference, files = setup(args.workload, args.seed, Path(scratch), args.quick)
        if args.setup_probe:
            return 0
        env = environment()
        print("environment " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload} seed {args.seed}: one closed-loop caller, "
              f"{'quick' if args.quick else f'{args.seconds:g} s'}; each cycle calls:")
        for slot in workload.slots:
            metric = f"file:{slot.metric}.json" if slot.source == "file" else (
                workloads.BUILTIN[slot.metric])
            n = workloads.DIMENSION[slot.metric]
            print(f"  {slot.key}: {slot.kind} on {metric} (n = {n}), "
                  f"{slot.count} point(s) per call " + " ".join(slot.options))
        if args.trace:
            run, metrics, lines, dump = traced(args, workload, reference, files)
            dump["environment"] = env
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(dump))
            lines.append(f"spans written to {path.relative_to(CHECKOUT)}")
        else:
            run, metrics, lines = end_to_end(args, workload, reference, files)
    failed = len(run.failures)
    for line in lines:
        print(line)
    print(f"failed_ratio {failed / run.attempted:.6g} 1 ({failed} of {run.attempted} calls)")
    for failure in run.failures:
        print("FAILED " + failure)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
