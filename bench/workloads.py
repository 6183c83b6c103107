"""Workloads of the curvlab benchmark: call plans, seeded inputs, report checks.

A workload is a fixed cycle of ``curvlab`` command-line calls ("slots").  A
run repeats the cycle, each time with fresh inputs, until its time is up.
Inputs are drawn by the run's seed from pools of points (or flow grid
centres) that ``record.py`` sampled once with the region sampler behind the
CLI's ``--region`` flag.  The same file, ``reference/<workload>.json``, holds
what the seed commit reported for every pool entry, so each call can be
checked against a reference whatever the seed.  A seed changes which points a
call gets, never how many.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Tolerances the repository documents, from the numbered acceptance criteria
# in tests/test_acceptance.py.
TOL = {
    "value": 1e-6,  # criterion 1: point values of torsion and curvature
    "pluriclosed": 1e-6,  # criterion 3: pluriclosed residual where ddbar omega = 0
    "compare": 1e-8,  # criterion 3: |RBC^0 - altered HSC / 2|
    "roundtrip": 1e-9,  # criterion 5: family round trip
    "relative_residual": 1e-4,  # criterion 7: Laplacian identity
    "skew_residual": 1e-8,  # criterion 7: skew Hessian identity
    "extremal": 1e-3,  # criterion 11: extremal certificate values
    "flow": 1e-4,  # criterion 12: flow values
    "bianchi": 1e-6,  # criterion 13: first Bianchi identity
}

BUILTIN = {
    "F1": "builtin:example22",
    "P1": "builtin:poincare_polydisk(1)",
    "P2": "builtin:poincare_polydisk(2)",
    "H1": "builtin:hopf(1)",
    "H2": "builtin:hopf(2)",
}
BUILTIN_ARGS = {
    "F1": ("F1",),
    "P1": ("poincare_polydisk", 1),
    "P2": ("poincare_polydisk", 2),
    "H1": ("hopf", 1),
    "H2": ("hopf", 2),
}
# Kaehler (Poincare) and Hopf metrics satisfy ddbar omega = 0; F1 does not.
PLURICLOSED = {"P1", "P2", "H1", "H2"}
DIMENSION = {"F1": 2, "P1": 1, "P2": 2, "H1": 1, "H2": 2}

FAMILY_T = "-1,0.25,2"
EXTREMIZE_STARTS = "4"
EXTREMIZE_STEPS = "30"
SCAN_SEEDS = 4  # extremizer seeds per pool point with a recorded certificate


@dataclass(frozen=True)
class Slot:
    """One call of a workload cycle.

    ``kind`` names the report check, ``metric`` the point pool, ``source``
    whether the metric is passed as ``builtin:`` or as a generated ``file:``,
    ``count`` the points per call and ``options`` the remaining CLI flags.
    """

    key: str
    kind: str
    metric: str
    source: str = "builtin"
    count: int = 1
    options: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """A cycle of slots; ``rate`` names its work rate in ``unit`` per second."""

    name: str
    rate: str
    unit: str
    slots: tuple[Slot, ...]
    quick: tuple[int, ...]  # slots run in quick mode, with at most QUICK_COUNT points


QUICK_COUNT = 4

_PLURICLOSED = ("--check", "pluriclosed")
_CHECKS = ("--check", "bianchi,pluriclosed")
_FAMILY = (f"--t={FAMILY_T}", "--roundtrip")
_ASCENT = ("--starts", EXTREMIZE_STARTS, "--ascent-steps", EXTREMIZE_STEPS)
_F1_GRID = ("--tau", "2", "--extent", "0.1", "--resolution", "5", "--dt", "1e-4")
_P1_GRID = ("--extent", "0.3", "--resolution", "41", "--dt", "1e-4", "--steps", "6",
            "--boundary", "frozen")


def _cert(key: str, metric: str, functional: str, kind: str, tau: str | None = None) -> Slot:
    flags = ("--functional", functional, "--kind", kind) + (("--tau", tau) if tau else ())
    return Slot(key, "cert", metric, options=flags + _ASCENT)


def _f1_flow(key: str, steps: str, boundary: str, method: str) -> Slot:
    flags = ("--steps", steps, "--boundary", boundary, "--method", method)
    return Slot(key, "flow", "F1", options=_F1_GRID + flags)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # Sorted by latency the cycle has two compare calls at the bottom,
            # four 128-point calls in the middle and two 224-point family
            # calls on top, so call_p50_s and call_p90_s fall inside a group
            # of calls rather than between two.
            "bulk_points",
            "points_per_s",
            "point-reports",
            (
                Slot("curvature/F1", "curvature", "F1", count=128, options=_PLURICLOSED),
                Slot("curvature/P2", "curvature", "P2", count=128, options=_PLURICLOSED),
                Slot("curvature/H2", "curvature", "H2", count=128, options=_PLURICLOSED),
                Slot("gauduchon/F1", "gauduchon", "F1", count=224, options=_FAMILY),
                Slot("gauduchon/P2", "gauduchon", "P2", count=128, options=_FAMILY),
                Slot("gauduchon/H2", "gauduchon", "H2", count=224, options=_FAMILY),
                Slot("compare/P2", "compare", "P2", count=32, options=("--compare",)),
                Slot("compare/H2", "compare", "H2", count=32, options=("--compare",)),
            ),
            quick=(0, 3, 7),
        ),
        Workload(
            # Sorted by latency the cycle has six calls on one-dimensional
            # or closed-form metrics at the bottom, three Schwarz calls in
            # the middle and six stencil calls on two-dimensional file:
            # metrics on top, the slowest three on F1.  So call_p50_s falls
            # amid the Schwarz calls and call_p90_s amid the F1 ones.
            "single_points",
            "points_per_s",
            "point-reports",
            (
                Slot("curvature/F1", "curvature", "F1"),
                Slot("gauduchon/F1", "gauduchon", "F1", options=_FAMILY),
                Slot("curvature-checks/F1", "curvature", "F1", options=_CHECKS),
                Slot("curvature-checks/H2", "curvature", "H2", options=_CHECKS),
                Slot("file-curvature-checks/P1", "curvature", "P1", "file", options=_CHECKS),
                Slot("file-curvature-checks/H1", "curvature", "H1", "file", options=_CHECKS),
                Slot("file-schwarz-square/P2", "schwarz", "P2", "file",
                     options=("--map", "z1^2;z2^2")),
                Slot("file-schwarz-id/H2", "schwarz", "H2", "file", options=("--map", "id")),
                Slot("file-schwarz-id/P2", "schwarz", "P2", "file", options=("--map", "id")),
                Slot("file-curvature-checks/P2", "curvature", "P2", "file", options=_CHECKS),
                Slot("file-curvature-checks/P2", "curvature", "P2", "file", options=_CHECKS),
                Slot("file-curvature-checks/H2", "curvature", "H2", "file", options=_CHECKS),
                Slot("file-curvature-checks/F1", "curvature", "F1", "file", options=_CHECKS),
                Slot("file-curvature-checks/F1", "curvature", "F1", "file", options=_CHECKS),
                Slot("file-curvature-checks/F1", "curvature", "F1", "file", options=_CHECKS),
            ),
            quick=(0, 4, 6),
        ),
        Workload(
            "extremize",
            "certs_per_s",
            "certificates",
            (
                _cert("hsc-sup/F1", "F1", "hsc", "sup"),
                _cert("hsc-inf/P2", "P2", "hsc", "inf"),
                _cert("hsc-sup/H2", "H2", "hsc", "sup"),
                _cert("rbc0-inf/F1", "F1", "rbc", "inf", tau="0"),
                _cert("rbc1-sup/P2", "P2", "rbc", "sup", tau="1"),
                _cert("rbc2-sup/H2", "H2", "rbc", "sup", tau="2"),
            ),
            quick=(0, 4),
        ),
        Workload(
            # Each call type costs at least 1.7 times the next cheaper one, so
            # call_p50_s falls inside the frozen Euler calls and call_p90_s
            # inside the periodic Heun ones.  Enough steps are requested that
            # the steps, not the per-node set-up, take most of the time.
            "flow",
            "node_steps_per_s",
            "node-steps",
            (
                _f1_flow("periodic-heun/F1", "4", "periodic", "heun"),
                _f1_flow("frozen-euler/F1", "6", "frozen", "euler"),
                _f1_flow("frozen-heun/F1", "12", "frozen", "heun"),
                Slot("tau1-heun/P1", "flow", "P1",
                     options=_P1_GRID + ("--tau", "1", "--method", "heun")),
                Slot("tauinf-euler/P1", "flow", "P1",
                     options=_P1_GRID + ("--tau", "inf", "--method", "euler")),
            ),
            quick=(3, 4),
        ),
    )
}


# ---------------------------------------------------------------------------
# references and inputs


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def format_complex(z: complex) -> str:
    """A token ``complex()`` parses back to exactly ``z``."""
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def write_metric_files(reference: dict, directory: Path) -> dict[str, str]:
    """Write the recorded ``file:`` metric payloads; returns id -> path."""
    paths = {}
    for metric, payload in reference.get("files", {}).items():
        path = directory / f"{metric}.json"
        path.write_text(json.dumps(payload))
        paths[metric] = str(path)
    return paths


def resolve_metrics(workload: Workload, files: dict[str, str]) -> list:
    """Resolve every metric the workload's calls name, as the CLI does."""
    from curvlab.metric_model import builtin_metric, load_metric

    used = sorted({(slot.metric, slot.source) for slot in workload.slots})
    return [
        load_metric(files[metric]) if source == "file" else builtin_metric(*BUILTIN_ARGS[metric])
        for metric, source in used
    ]


def _metric_ref(slot: Slot, files: dict[str, str]) -> str:
    return "file:" + files[slot.metric] if slot.source == "file" else BUILTIN[slot.metric]


@dataclass(frozen=True)
class Call:
    slot: Slot
    argv: list[str]
    picks: tuple[int, ...]  # pool indices, in the order of the report rows
    scan_seed: int
    work: int


def cycle_calls(
    workload: Workload,
    reference: dict,
    files: dict[str, str],
    seed: int,
    cycle: int,
    quick: bool = False,
) -> list[Call]:
    """The calls of one cycle; cycle ``k`` of seed ``s`` is always the same."""
    rng = np.random.default_rng([seed, cycle])
    slots = [workload.slots[i] for i in workload.quick] if quick else workload.slots
    calls = []
    for slot in slots:
        pool = reference["pools"][slot.metric]
        count = min(slot.count, QUICK_COUNT) if quick else slot.count
        picks = tuple(int(i) for i in rng.choice(len(pool), size=count, replace=False))
        scan_seed = int(rng.integers(SCAN_SEEDS if slot.kind == "cert" else 2**31))
        argv, work = build_argv(slot, [pool[i] for i in picks], files, scan_seed)
        calls.append(Call(slot, argv, picks, scan_seed, work))
    return calls


def build_argv(slot: Slot, points: list[list[str]], files: dict[str, str], scan_seed: int):
    """CLI arguments for a slot on the given points; returns (argv, work)."""
    ref = _metric_ref(slot, files)
    text = ";".join(",".join(coords) for coords in points)
    if slot.kind == "flow":
        flags = dict(zip(slot.options[::2], slot.options[1::2]))
        nodes = int(flags["--resolution"]) ** (2 * DIMENSION[slot.metric])
        argv = ["flow", "--metric", ref, "--center=" + text, *slot.options]
        return argv, nodes * int(flags["--steps"])
    if slot.kind == "schwarz":
        argv = ["schwarz", "--source", ref, "--target", ref, "--points=" + text, *slot.options]
    else:
        command = "scan" if slot.kind in ("compare", "cert") else slot.kind
        argv = [command, "--metric", ref, "--points=" + text, *slot.options]
    if slot.kind in ("compare", "cert"):
        argv += ["--seed", str(scan_seed)]
    return argv, len(points)


# ---------------------------------------------------------------------------
# report summaries (what the reference stores) and checks


def _entry_failure(name: str, values, ref, tol: float) -> str | None:
    """Why ``values`` misses ``ref`` entry by entry, or ``None`` if it does not.

    Each entry must lie within ``tol`` of its reference, relative to the
    reference where that exceeds 1 in magnitude.
    """
    got = np.asarray(values, dtype=float)
    want = np.asarray(ref, dtype=float)
    if got.shape != want.shape:
        return f"{name} has shape {got.shape}, reference {want.shape}"
    excess = np.abs(got - want) - tol * np.maximum(1.0, np.abs(want))
    worst = np.unravel_index(int(np.argmax(excess)), excess.shape) if excess.size else ()
    if not excess.size or excess[worst] <= 0:
        return None
    return (f"{name}{[int(i) for i in worst]} {float(got[worst])!r} "
            f"vs reference {float(want[worst])!r}")


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


_CURVATURE_FIELDS = ("g", "torsion", "curvature", "ric1", "ric2", "ric3", "ric4")
_SCHWARZ_FIELDS = ("energy", "laplacian", "assembled", "hessian_square",
                   "symmetric_square", "skew_square", "ricci_term", "target_term")


def summarize(kind: str, report: dict) -> list:
    """Per-input reference values of a report, in row order."""
    if kind == "curvature":
        out = []
        for row in report["points"]:
            entry = {name: _round(row[name]) for name in _CURVATURE_FIELDS}
            if "pluriclosed" in row.get("checks", {}):
                entry["pluriclosed"] = _round(row["checks"]["pluriclosed"])
            out.append(entry)
        return out
    if kind == "gauduchon":
        per_t = len(FAMILY_T.split(","))
        rows = report["results"]
        return [
            [_round([r["torsion_norm"], r["curvature_norm"]]) for r in rows[i:i + per_t]]
            for i in range(0, len(rows), per_t)
        ]
    if kind == "schwarz":
        return [_round([row[name] for name in _SCHWARZ_FIELDS]) for row in report["results"]]
    if kind == "cert":
        return [_round(row["value"]) for row in report["results"]]
    if kind == "flow":
        return [{
            "history": [
                _round([r["min_eigenvalue"], r["max_velocity"]]) for r in report["history"]
            ],
            "center_metric": _round(report["result"]["center_metric"]),
        }]
    return []  # compare: identity residuals only, no per-point values


def _round(value):
    if isinstance(value, list):
        return [_round(v) for v in value]
    return float(f"{value:.12g}")


def check_call(call: Call, report: dict, reference: dict) -> list[str]:
    """Every way a report misses its reference or a documented tolerance."""
    slot = call.slot
    refs = reference["reference"].get(slot.key)
    if slot.kind == "flow":
        return _check_flow(call, report, refs[call.picks[0]])
    rows = report["points"] if slot.kind == "curvature" else report["results"]
    per_point = len(FAMILY_T.split(",")) if slot.kind == "gauduchon" else 1
    if len(rows) != per_point * len(call.picks):
        return [f"{len(rows)} rows for {len(call.picks)} points"]
    failures: list[str] = []
    pool = reference["pools"][slot.metric]
    for index, row in enumerate(rows):
        pick = call.picks[index // per_point]
        coords = [complex(tok) for tok in pool[pick]]
        echoed = [complex(re, im) for re, im in row["point"]]
        if len(echoed) != len(coords) or any(abs(a - b) > 1e-12 for a, b in zip(echoed, coords)):
            failures.append(f"row {index} echoes point {row['point']}")
        ref = refs[pick] if refs else None
        if slot.kind == "gauduchon":
            ref = ref[index % per_point]
        elif slot.kind == "cert":
            ref = ref[call.scan_seed]
        failures += [f"row {index}: {f}" for f in _compare(slot, row, ref)]
        failures += [f"row {index}: {f}" for f in _identities(slot, row)]
    if slot.kind == "compare" and not report["summary"]["max_deviation"] <= TOL["compare"]:
        failures.append(f"max deviation {report['summary']['max_deviation']:.3e}")
    return failures


def _compare(slot: Slot, row: dict, ref) -> list[str]:
    """Differences between one report row and its recorded reference."""
    tol = TOL["value"]
    bad = []
    if slot.kind == "curvature":
        bad += filter(None, (_entry_failure(name, row[name], ref[name], tol)
                             for name in _CURVATURE_FIELDS))
        if slot.metric not in PLURICLOSED and "pluriclosed" in ref:
            got = row["checks"]["pluriclosed"]
            if not _close(got, ref["pluriclosed"], tol):
                bad.append(f"pluriclosed {got} vs reference {ref['pluriclosed']}")
    elif slot.kind == "gauduchon":
        got = [row["torsion_norm"], row["curvature_norm"]]
        if not all(_close(a, b, tol) for a, b in zip(got, ref)):
            bad.append(f"t={row['t']}: family norms {got} vs reference {ref}")
    elif slot.kind == "schwarz":
        for name, want in zip(_SCHWARZ_FIELDS, ref):
            if not _close(row[name], want, tol):
                bad.append(f"{name} {row[name]} vs reference {want}")
    elif slot.kind == "cert":
        # one-sided: a certificate may beat the reference, not fall behind it
        slack = TOL["extremal"] * max(1.0, abs(ref))
        worse = row["value"] < ref - slack if row["kind"] == "sup" else row["value"] > ref + slack
        if worse:
            bad.append(f"{row['kind']} certificate {row['value']} worse than reference {ref}")
    return bad


def _identities(slot: Slot, row: dict) -> list[str]:
    bad = []
    checks = row.get("checks", {})
    if "bianchi" in checks and not checks["bianchi"] <= TOL["bianchi"]:
        bad.append(f"bianchi residual {checks['bianchi']:.3e}")
    if slot.metric in PLURICLOSED and "pluriclosed" in checks:
        if not checks["pluriclosed"] <= TOL["pluriclosed"]:
            bad.append(f"pluriclosed residual {checks['pluriclosed']:.3e}")
    if slot.kind == "gauduchon" and not row["roundtrip_residual"] <= TOL["roundtrip"]:
        bad.append(f"roundtrip residual {row['roundtrip_residual']:.3e}")
    if slot.kind == "schwarz":
        if not row["relative_residual"] <= TOL["relative_residual"]:
            bad.append(f"relative residual {row['relative_residual']:.3e}")
        if not row["skew_residual"] <= TOL["skew_residual"]:
            bad.append(f"skew residual {row['skew_residual']:.3e}")
    if slot.kind == "compare":
        if not row["deviation"] <= TOL["compare"]:
            bad.append(f"comparison deviation {row['deviation']:.3e}")
        if not row["pluriclosed"] <= TOL["pluriclosed"]:
            bad.append(f"pluriclosed residual {row['pluriclosed']:.3e}")
    if slot.kind == "cert":
        bad += _witness_failures(row)
    return bad


def _witness_failures(row: dict) -> list[str]:
    witness = np.asarray(row["witness"], dtype=float)
    witness = witness[..., 0] + 1j * witness[..., 1]
    if abs(float(np.linalg.norm(witness)) - 1.0) > 1e-9:
        return [f"witness norm {np.linalg.norm(witness)}"]
    if witness.ndim == 2:  # RBC: a positive semidefinite Hermitian form
        if float(np.max(np.abs(witness - witness.conj().T))) > 1e-10:
            return ["witness form is not Hermitian"]
        if float(np.linalg.eigvalsh(witness)[0]) < -1e-10:
            return ["witness form is not positive semidefinite"]
    expected_samples = int(EXTREMIZE_STARTS)
    if row["samples"] != expected_samples:
        return [f"certificate samples {row['samples']} != {expected_samples}"]
    return []


def _check_flow(call: Call, report: dict, ref: dict) -> list[str]:
    options = dict(zip(call.slot.options[::2], call.slot.options[1::2]))
    steps = int(options["--steps"])
    dt = float(options["--dt"])
    tol = TOL["flow"]
    bad = []
    result = report["result"]
    if result["steps"] != steps or abs(result["time"] - steps * dt) > 1e-12:
        bad.append(f"flow ran {result['steps']} steps to t={result['time']}")
    history = [[r["min_eigenvalue"], r["max_velocity"]] for r in report["history"]]
    if len(history) != len(ref["history"]):
        return bad + [f"{len(history)} history rows, reference has {len(ref['history'])}"]
    for step, (got, want) in enumerate(zip(history, ref["history"])):
        if not all(_close(a, b, tol) for a, b in zip(got, want)):
            bad.append(f"step {step + 1}: (min_eig, max_vel) {got} vs reference {want}")
        if not got[0] > 0:
            bad.append(f"step {step + 1}: metric lost positivity ({got[0]})")
    miss = _entry_failure("center_metric", result["center_metric"], ref["center_metric"], tol)
    if miss:
        bad.append(miss)
    return bad
