"""Record the input pools and reference reports of the benchmark workloads.

    python3 bench/record.py [workload ...]

Run from the repository root.  This samples each workload's point pools with
the metric's own region sampler (the one behind ``--region``), runs every
slot of the workload on every pool entry through ``curvlab.cli.main`` and
writes ``bench/reference/<workload>.json``.  The committed files were
recorded from the commit that introduced the benchmark; re-recording them
replaces the reference every later change is checked against, so do it only
when a workload itself changes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

POOL_SIZES = {"bulk_points": 256, "single_points": 32, "extremize": 8, "flow": 8}
# Flow grids are centred close to the origin so that every centre of a pool
# needs the same number of substeps: the seed then moves the grid, not the work.
FLOW_CENTRE_SCALE = {"F1": 0.25, "P1": 0.06}


def _file_payload(spec, to_text) -> dict:
    region = {"type": spec.region.kind}
    if spec.region.radius != float("inf"):
        region["radius"] = spec.region.radius
    return {
        "n": spec.n,
        "entries": [[to_text(entry) for entry in row] for row in spec.entries],
        "region": region,
    }


def record(name: str) -> dict:
    import numpy as np
    import workloads
    from curvlab.metric_model import builtin_metric, to_text

    workload = workloads.WORKLOADS[name]
    specs = {metric: builtin_metric(*args) for metric, args in workloads.BUILTIN_ARGS.items()}
    metrics = sorted({slot.metric for slot in workload.slots})
    pools = {}
    for index, metric in enumerate(metrics):
        spec = specs[metric]
        rng = np.random.default_rng([20230909, index])
        points = spec.region.sample_points(spec.n, rng, POOL_SIZES[name])
        points = points * FLOW_CENTRE_SCALE.get(metric, 1.0) if name == "flow" else points
        pools[metric] = [[workloads.format_complex(complex(c)) for c in p] for p in points]
    files = {
        slot.metric: _file_payload(specs[slot.metric], to_text)
        for slot in workload.slots
        if slot.source == "file"
    }
    reference = {"workload": name, "pools": pools, "files": files, "reference": {}}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as directory:
        paths = workloads.write_metric_files(reference, Path(directory))
        _record_slots(workload, reference, paths)
    return reference


def _record_slots(workload, reference: dict, paths: dict[str, str]) -> None:
    import workloads

    pools = reference["pools"]
    for slot in workload.slots:
        if slot.key in reference["reference"]:
            continue
        pool = pools[slot.metric]
        if slot.kind in ("cert", "flow"):
            seeds = range(workloads.SCAN_SEEDS) if slot.kind == "cert" else [0]
            entries = []
            for coords in pool:
                per_seed = []
                for seed in seeds:
                    argv, _ = workloads.build_argv(slot, [coords], paths, seed)
                    per_seed.append(workloads.summarize(slot.kind, _report(argv))[0])
                entries.append(per_seed if slot.kind == "cert" else per_seed[0])
        else:
            argv, _ = workloads.build_argv(slot, pool, paths, 0)
            entries = workloads.summarize(slot.kind, _report(argv))
        reference["reference"][slot.key] = entries
        print(f"{workload.name}: recorded {slot.key}", file=sys.stderr)


def _report(argv: list[str]) -> dict:
    code, out, err, _ = run.invoke(argv)
    if code != 0:
        raise SystemExit(f"reference call failed with exit {code}: {argv}\n{err}")
    return json.loads(out)


def main() -> None:
    run.pin_environment()
    run.import_curvlab()
    import workloads

    names = sys.argv[1:] or list(workloads.WORKLOADS)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        reference = record(name)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
