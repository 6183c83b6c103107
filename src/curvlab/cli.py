"""Command line interface: deterministic reports on chart metrics.

Subcommands
-----------
curvature   torsion, curvature, Ricci traces, and identity checks at points
scan        extremal bound certificates; pluriclosed comparison scans
schwarz     holomorphic-map energy expansion residuals
gauduchon   connection-family transforms and round-trip reconstruction
flow        tempered curvature flow on a grid
fixtures    list built-in metric families and standard fixtures

Metric references are ``builtin:name(args)`` or ``file:path`` where the file
holds a JSON metric payload.  Reports are JSON with sorted keys; identical
configuration and seed produce byte-identical output.  Every report embeds
its resolved configuration; ``curvature`` and ``schwarz`` reports also embed
the stencil scheme of their checks.  CSV output exists only for the flow
time series.

Exit codes: 0 success, 1 tolerance breach, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import re
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .chern import ChernPoint, first_bianchi_residual, pluriclosed_residuals, ricci_traces
from .errors import ConfigError, NumericalError
from .flow import GridBox, init_flow, run_flow, write_diagnostics_csv
from .functionals import (
    TauParam,
    altered_hsc_forms,
    hsc_certificates,
    rbc_certificates,
    rbc_forms,
)
from .gauduchon import chern_from_family, gauduchon_family
from .metric_model import (
    FIXTURES,
    JetScheme,
    MetricSpec,
    builtin_metric,
    fixture,
    load_metric,
    metric_jet,
)
from .schwarz import HoloMap, laplacian_identity_report
from .tensor_core import psd_project_batch

__all__ = ["main"]

# forms held at once by `scan --compare`: its points go in chunks of this many
# forms over --samples, one point per chunk at least
_COMPARE_FORMS = 4096

# integer arguments of each builtin, in the order `fixtures` lists them: a
# family takes its dimension; bare example22 (the fixture F1) and the fixtures none
_BUILTIN_ARITY = {"flat": 1, "poincare_polydisk": 1, "hopf": 1, "example22": 0,
                  **dict.fromkeys(FIXTURES, 0)}
_BUILTIN_REF = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)(?:\((?P<args>[^)]*)\))?$")


def _parse_metric(ref: str) -> MetricSpec:
    """Resolve ``builtin:name(args)`` or ``file:path``; a builtin is built once per process."""
    if ref.startswith("file:"):
        return load_metric(ref[len("file:"):])
    return _builtin(ref)


@cache
def _builtin(ref: str) -> MetricSpec:
    if not ref.startswith("builtin:"):
        raise ConfigError(
            f"metric reference must start with 'builtin:' or 'file:', got '{ref}'"
        )
    body = ref[len("builtin:"):]
    match = _BUILTIN_REF.match(body)
    if match is None:
        raise ConfigError(f"malformed builtin reference '{ref}'")
    name = match.group("name")
    arg_text = match.group("args")
    args: list[int] = []
    if arg_text:
        for token in arg_text.split(","):
            try:
                args.append(int(token.strip()))
            except ValueError as exc:
                raise ConfigError(
                    f"builtin arguments must be integers, got '{token.strip()}'"
                ) from exc
    arity = _BUILTIN_ARITY.get(name)
    if arity is not None and len(args) != arity:
        form = f"'builtin:{name}(n)' with one integer n" if arity else f"'builtin:{name}'"
        raise ConfigError(f"malformed builtin reference '{ref}': expected {form}")
    if name == "example22":
        return fixture("F1")
    return builtin_metric(name, *args)


def _parse_complex(token: str) -> complex:
    try:
        return complex(token.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse '{token.strip()}' as a complex number") from exc


def _parse_points(args: argparse.Namespace, spec: MetricSpec) -> np.ndarray:
    """Points ``(P, n)`` from --points, or --region sampling, or the region base point.

    Explicit points must lie inside the metric's region.
    """
    if args.points is not None and args.region is not None:
        raise ConfigError("--points and --region are mutually exclusive")
    if args.region is not None:
        if args.region < 1:
            raise ConfigError(f"--region needs a positive count, got {args.region}")
        rng = np.random.default_rng(args.seed)
        return spec.region.sample_points(spec.n, rng, args.region)
    if args.points is None:
        return spec.region.base_point(spec.n)[None]
    chunks = args.points.split(";")
    rows = [[_parse_complex(tok) for tok in chunk.split(",")] for chunk in chunks]
    for chunk, comps in zip(chunks, rows):
        if len(comps) != spec.n:
            raise ConfigError(
                f"point '{chunk}' has {len(comps)} coordinates, metric needs {spec.n}"
            )
    points = np.array(rows, dtype=complex)
    outside = ~spec.region.contains(points)
    if outside.any():
        raise ConfigError(
            f"point '{chunks[int(np.argmax(outside))]}' lies outside the "
            f"{spec.region.kind} region of {spec.name}"
        )
    return points


def _parse_tau(text: str, role: str) -> TauParam:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse tau '{text}'") from exc
    return TauParam(value, role)


def _complex_payload(array: np.ndarray) -> list:
    """Nested ``[re, im]`` pairs; JSON has no complex numbers."""
    a = np.asarray(array, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _rows(columns: dict[str, list]) -> list[dict]:
    """One dict per point from equally long per-point lists."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(report: dict, args: argparse.Namespace) -> None:
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)


def _config(args: argparse.Namespace) -> dict:
    """Every flag of the subcommand as parsed, except ``--out``."""
    return {k: v for k, v in vars(args).items() if k not in ("out", "command", "func")}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_curvature(args: argparse.Namespace) -> int:
    spec = _parse_metric(args.metric)
    scheme = JetScheme(h=args.h, order=args.order)
    points = _parse_points(args, spec)
    checks = [c for c in (args.check or "").split(",") if c]
    for check in checks:
        if check not in ("bianchi", "pluriclosed"):
            raise ConfigError(f"unknown check '{check}'")

    jet = metric_jet(spec, points)
    point = ChernPoint.from_jet(jet)
    fields = {
        "point": points,
        "g": jet.g,
        "torsion": point.torsion,
        "curvature": point.curvature,
        **ricci_traces(jet, point.curvature)._asdict(),
    }
    rows = _rows({name: _complex_payload(value) for name, value in fields.items()})
    row_checks = {}
    if "bianchi" in checks:
        row_checks["bianchi"] = first_bianchi_residual(spec, points, scheme).tolist()
    if "pluriclosed" in checks:
        row_checks["pluriclosed"] = np.maximum(*pluriclosed_residuals(jet)).tolist()
    for row, checks_at_point in zip(rows, _rows(row_checks)):
        row["checks"] = checks_at_point
    worst = {name: max(0.0, *values) for name, values in row_checks.items()}

    report = {
        "command": "curvature",
        "config": _config(args),
        "scheme": dataclasses.asdict(scheme),
        "points": rows,
        "worst_checks": worst,
    }
    _emit_json(report, args)
    if args.tol is not None and any(v > args.tol for v in worst.values()):
        return 1
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    spec = _parse_metric(args.metric)
    points = _parse_points(args, spec)

    breached = False
    if args.compare:
        # pluriclosed comparison: RBC^0 against half the altered sectional
        # functional on seeded random PSD forms
        if args.samples < 0:
            raise ConfigError(f"--samples must be nonnegative, got {args.samples}")
        rng = np.random.default_rng(args.seed)
        tau0 = TauParam(0.0, "target")
        chunk = max(1, _COMPARE_FORMS // max(1, args.samples))
        deviations, residuals = [], []
        for start in range(0, len(points), chunk):
            jet = metric_jet(spec, points[start:start + chunk])
            point = ChernPoint.from_jet(jet)
            # chunk by chunk, the draws of a per-point, per-sample loop:
            # real part, then imaginary
            draws = rng.normal(size=(len(jet.g), args.samples, 2, spec.n, spec.n))
            raw = draws[:, :, 0] + 1j * draws[:, :, 1]
            forms, ok = psd_project_batch(raw @ np.conj(np.swapaxes(raw, -2, -1)))
            if not ok.all():
                raise NumericalError("projection collapsed to zero: no positive part")
            gaps = np.abs(rbc_forms(point, forms, tau0) - 0.5 * altered_hsc_forms(point, forms))
            deviations += np.max(gaps, axis=-1, initial=0.0).tolist()
            residuals += np.maximum(*pluriclosed_residuals(jet)).tolist()
        rows = _rows({
            "point": _complex_payload(points),
            "deviation": deviations,
            "pluriclosed": residuals,
        })
        worst = max(0.0, *deviations)
        summary: dict = {"max_deviation": worst}
        if args.tol is not None and worst > args.tol:
            breached = True
    else:
        if args.kind not in ("sup", "inf"):
            raise ConfigError(f"--kind must be sup or inf, got '{args.kind}'")
        tau = _parse_tau(args.tau, "target") if args.functional == "rbc" else None
        # one jet, one ChernPoint and one batched dual for all points
        point = ChernPoint.from_spec(spec, points)
        sizes = {"seed": args.seed, "starts": args.starts, "steps": args.ascent_steps}
        if tau is None:
            certs = hsc_certificates(point, args.kind, **sizes)
        else:
            certs = rbc_certificates(point, tau, args.kind, **sizes)
        fields = ("kind", "value", "bound", "gap", "samples", "ascent_iterations", "tolerance")
        rows = _rows({
            "point": _complex_payload(points),
            "witness": [_complex_payload(cert.witness) for cert in certs],
            **{name: [getattr(cert, name) for cert in certs] for name in fields},
        })
        summary = {
            "best_value": (max if args.kind == "sup" else min)(
                row["value"] for row in rows
            )
        }

    report = {
        "command": "scan",
        "config": _config(args),
        "results": rows,
        "summary": summary,
    }
    _emit_json(report, args)
    return 1 if breached else 0


def _cmd_schwarz(args: argparse.Namespace) -> int:
    source = _parse_metric(args.source)
    target = _parse_metric(args.target)
    scheme = JetScheme(h=args.h, order=args.order)
    points = _parse_points(args, source)
    if args.map == "id":
        if source.n != target.n:
            raise ConfigError("map 'id' needs source and target of equal dimension")
        components = [f"z{k + 1}" for k in range(source.n)]
    else:
        components = [c for c in args.map.split(";") if c.strip()]
    holo_map = HoloMap.parse(components, source.n)

    identity = laplacian_identity_report(source, target, holo_map, points, scheme)
    columns = {f.name: getattr(identity, f.name).tolist() for f in dataclasses.fields(identity)}
    rows = _rows({"point": _complex_payload(points), **columns})
    worst = max(0.0, *columns["relative_residual"])

    report = {
        "command": "schwarz",
        "config": _config(args),
        "scheme": dataclasses.asdict(scheme),
        "results": rows,
        "max_relative_residual": worst,
    }
    _emit_json(report, args)
    if args.tol is not None and worst > args.tol:
        return 1
    return 0


def _cmd_gauduchon(args: argparse.Namespace) -> int:
    spec = _parse_metric(args.metric)
    points = _parse_points(args, spec)
    try:
        parameters = [float(tok) for tok in args.t.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --t '{args.t}'") from exc

    point = ChernPoint.from_spec(spec, points)

    def per_point(a: np.ndarray) -> np.ndarray:
        return a.reshape(len(points), -1)

    rows_per_t = []
    for t in parameters:
        family = gauduchon_family(point, t)
        columns = {
            "point": _complex_payload(points),
            "t": [t] * len(points),
            "torsion_norm": np.linalg.norm(per_point(family.torsion), axis=-1).tolist(),
            "curvature_norm": np.linalg.norm(per_point(family.curvature), axis=-1).tolist(),
        }
        if args.roundtrip:
            torsion_back, curvature_back = chern_from_family(family)
            columns["roundtrip_residual"] = np.maximum(
                np.abs(per_point(torsion_back - point.torsion_frame)).max(axis=-1),
                np.abs(per_point(curvature_back - point.curvature_frame)).max(axis=-1),
            ).tolist()
        rows_per_t.append(_rows(columns))
    rows = [row for rows_at_point in zip(*rows_per_t) for row in rows_at_point]
    worst = max(0.0, *(row.get("roundtrip_residual", 0.0) for row in rows))

    report = {
        "command": "gauduchon",
        "config": _config(args),
        "results": rows,
    }
    if args.roundtrip:
        report["max_roundtrip_residual"] = worst
    _emit_json(report, args)
    if args.roundtrip and args.tol is not None and worst > args.tol:
        return 1
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    spec = _parse_metric(args.metric)
    tau = _parse_tau(args.tau, "source")
    if args.center is None:
        center = tuple(0j for _ in range(spec.n))
    else:
        center = tuple(_parse_complex(tok) for tok in args.center.split(","))
        if len(center) != spec.n:
            raise ConfigError(
                f"--center has {len(center)} coordinates, metric needs {spec.n}"
            )
    box = GridBox(
        center=center,
        half_width=args.extent,
        resolution=args.resolution,
        boundary=args.boundary,
    )
    reference = _parse_metric(args.reference) if args.reference else None
    state = init_flow(spec, box, tau, reference=reference)
    seam_jump = None
    if box.boundary == "periodic":
        seam_jump, interior = state.field.seam_jumps()
        if seam_jump > interior:
            print(
                f"warning: the periodic grid wraps a seam jump of {seam_jump:.3g}, above its "
                f"largest interior neighbour difference {interior:.3g}",
                file=sys.stderr,
            )
    state = run_flow(state, dt=args.dt, steps=args.steps, method=args.method)

    if args.format == "csv":
        stream = io.StringIO()
        write_diagnostics_csv(state, stream)
        _emit(stream.getvalue(), args.out)
        return 0

    config = _config(args)
    config["reference_metric"] = config.pop("reference")
    grid_flags = ("extent", "resolution", "boundary", "center")
    config["grid"] = {key: config.pop(key) for key in grid_flags}
    config["grid"]["center"] = [(c.real, c.imag) for c in center]

    center_index = tuple(args.resolution // 2 for _ in range(2 * spec.n))
    last = state.history[-1]
    report = {
        "command": "flow",
        "config": config,
        "grid": {
            "spacing": box.spacing,
            "nodes": args.resolution ** (2 * spec.n),
            "seam_jump": seam_jump,
        },
        "result": {
            "time": state.time,
            "steps": state.steps_taken,
            "min_eigenvalue": last.min_eigenvalue,
            "max_velocity": last.max_velocity,
            "sup_trace": last.sup_trace,
            "center_metric": _complex_payload(state.field.values[center_index]),
        },
        "history": [dataclasses.asdict(row) for row in state.history],
    }
    _emit_json(report, args)
    return 0


def _cmd_fixtures(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(FIXTURES):
        spec = fixture(name)
        radius = spec.region.radius
        rows.append(
            {
                "fixture": name,
                "metric": spec.name,
                "n": spec.n,
                "region": {
                    "type": spec.region.kind,
                    "radius": "inf" if math.isinf(radius) else radius,
                },
            }
        )
    report = {
        "command": "fixtures",
        "config": _config(args),
        "fixtures": rows,
        "builtins": [f"{name}(n)" if arity else name for name, arity in _BUILTIN_ARITY.items()],
    }
    _emit_json(report, args)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_point_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--points", default=None,
        help="semicolon-separated points, comma-separated complex coordinates",
    )
    sub.add_argument(
        "--region", type=int, default=None,
        help="sample this many points from the metric's region instead",
    )
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument("--tol", type=float, default=None, help="breach tolerance")


def _add_stencil_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--h", type=float, default=1e-3,
                     help="stencil step (bianchi check, schwarz Laplacian)")
    sub.add_argument("--order", type=int, default=4, choices=(2, 4),
                     help="stencil order (bianchi check, schwarz Laplacian)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``curvlab`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="numerical laboratory for Hermitian metrics on charts",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("curvature", help="connection data and identity checks")
    p.add_argument("--metric", required=True)
    _add_point_flags(p)
    p.add_argument("--check", default=None, help="comma list: bianchi,pluriclosed")
    _add_stencil_flags(p)
    p.set_defaults(func=_cmd_curvature)

    p = subparsers.add_parser("scan", help="extremal certificates and comparisons")
    p.add_argument("--metric", required=True)
    _add_point_flags(p)
    p.add_argument("--functional", default="hsc", choices=("hsc", "rbc"))
    p.add_argument("--kind", default="sup")
    p.add_argument("--tau", default="1", help="tempering parameter for rbc")
    p.add_argument("--starts", type=int, default=16, help="multistart count")
    p.add_argument("--ascent-steps", type=int, default=120, help="ascent iterations")
    p.add_argument(
        "--compare", action="store_true",
        help="compare RBC^0 with half the altered sectional functional",
    )
    p.add_argument("--samples", type=int, default=8, help="forms per point in --compare")
    p.set_defaults(func=_cmd_scan)

    p = subparsers.add_parser("schwarz", help="map energy expansion residuals")
    p.add_argument("--map", required=True, help="semicolon-separated components, or 'id'")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    _add_point_flags(p)
    _add_stencil_flags(p)
    p.set_defaults(func=_cmd_schwarz)

    p = subparsers.add_parser("gauduchon", help="connection family transforms")
    p.add_argument("--metric", required=True)
    _add_point_flags(p)
    p.add_argument("--t", required=True, help="comma list of family parameters")
    p.add_argument("--roundtrip", action="store_true", help="check reconstruction")
    p.set_defaults(func=_cmd_gauduchon)

    p = subparsers.add_parser("flow", help="tempered curvature flow on a grid")
    p.add_argument("--metric", required=True)
    p.add_argument("--tau", default="1", help="tempering parameter, or 'inf'")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--extent", type=float, default=0.5, help="grid half width")
    p.add_argument("--resolution", type=int, default=5, help="nodes per axis")
    p.add_argument("--boundary", default="periodic", choices=("frozen", "periodic"))
    p.add_argument("--center", default=None, help="grid center coordinates")
    p.add_argument("--reference", default=None, help="reference metric for traces")
    p.add_argument("--method", default="heun", choices=("heun", "euler"))
    p.add_argument("--format", default="json", choices=("json", "csv"), help="report format")
    p.set_defaults(func=_cmd_flow)

    p = subparsers.add_parser("fixtures", help="list built-in metrics")
    p.set_defaults(func=_cmd_fixtures)

    for p in subparsers.choices.values():
        p.add_argument("--out", default=None, help="write the report to this path")
        p.allow_abbrev = False  # else a foreign --h would abbreviate --help
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not math.isfinite(tol):
            raise ConfigError(f"--tol must be finite, got {tol}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
