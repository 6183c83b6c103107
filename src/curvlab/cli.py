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
its resolved configuration and the derivative scheme behind the numbers.
CSV output exists only for the flow time series.

Exit codes: 0 success, 1 tolerance breach, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
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
from .functionals import TauParam, altered_hsc_forms, extremize_hsc, extremize_rbc, rbc_forms
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

_BUILTIN_REF = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)(?:\((?P<args>[^)]*)\))?$")


def _parse_metric(ref: str) -> MetricSpec:
    """Resolve ``builtin:name(args)`` or ``file:path`` to a metric."""
    if ref.startswith("file:"):
        return load_metric(ref[len("file:"):])
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
    if name == "example22" and not arg_text:
        return fixture("F1")
    args: list[int] = []
    if arg_text:
        for token in arg_text.split(","):
            try:
                args.append(int(token.strip()))
            except ValueError as exc:
                raise ConfigError(
                    f"builtin arguments must be integers, got '{token.strip()}'"
                ) from exc
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
    if text.strip() == "inf":
        return TauParam(math.inf, role)
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse tau '{text}'") from exc
    return TauParam(value, role)


def _scheme(args: argparse.Namespace) -> JetScheme:
    return JetScheme(h=args.h, order=args.order)


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
    if args.format != "json":
        raise ConfigError(f"subcommand '{report['command']}' only writes json")
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)


def _base_config(args: argparse.Namespace, **extra) -> dict:
    config = {
        "h": args.h,
        "order": args.order,
        "seed": args.seed,
        "tol": args.tol,
        "format": args.format,
    }
    config.update(extra)
    return config


# ---------------------------------------------------------------------------
# subcommands


def _cmd_curvature(args: argparse.Namespace) -> int:
    spec = _parse_metric(args.metric)
    scheme = _scheme(args)
    points = _parse_points(args, spec)
    checks = [c for c in (args.check or "").split(",") if c]
    for check in checks:
        if check not in ("bianchi", "pluriclosed"):
            raise ConfigError(f"unknown check '{check}'")

    jet = metric_jet(spec, points, scheme)
    point = ChernPoint.from_jet(jet)
    traces = ricci_traces(jet, point.curvature)
    fields = {
        "point": points,
        "g": jet.g,
        "torsion": point.torsion,
        "curvature": point.curvature,
        "ric1": traces.ric1,
        "ric2": traces.ric2,
        "ric3": traces.ric3,
        "ric4": traces.ric4,
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
        "config": _base_config(
            args, metric=args.metric, points=args.points, region=args.region,
            check=args.check,
        ),
        "scheme": scheme.describe(),
        "points": rows,
        "worst_checks": worst,
    }
    _emit_json(report, args)
    if args.tol is not None and any(v > args.tol for v in worst.values()):
        return 1
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    spec = _parse_metric(args.metric)
    scheme = _scheme(args)
    points = _parse_points(args, spec)

    rows = []
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
            jet = metric_jet(spec, points[start:start + chunk], scheme)
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
        for z in points:
            point = ChernPoint.from_spec(spec, z, scheme)
            if args.functional == "hsc":
                cert = extremize_hsc(
                    point, args.kind, seed=args.seed, starts=args.starts,
                    steps=args.ascent_steps,
                )
            elif args.functional == "rbc":
                tau = _parse_tau(args.tau, "target")
                cert = extremize_rbc(
                    point, tau, args.kind, seed=args.seed, starts=args.starts,
                    steps=args.ascent_steps,
                )
            else:
                raise ConfigError(f"unknown functional '{args.functional}'")
            rows.append(
                {
                    "point": _complex_payload(z),
                    "kind": cert.kind,
                    "value": cert.value,
                    "witness": _complex_payload(cert.witness),
                    "samples": cert.samples,
                    "ascent_iterations": cert.ascent_iterations,
                    "tolerance": cert.tolerance,
                }
            )
        summary = {
            "best_value": (max if args.kind == "sup" else min)(
                row["value"] for row in rows
            )
        }

    report = {
        "command": "scan",
        "config": _base_config(
            args, metric=args.metric, points=args.points, region=args.region,
            functional=args.functional, kind=args.kind, tau=args.tau,
            starts=args.starts, ascent_steps=args.ascent_steps,
            compare=args.compare, samples=args.samples,
        ),
        "scheme": scheme.describe(),
        "results": rows,
        "summary": summary,
    }
    _emit_json(report, args)
    return 1 if breached else 0


def _cmd_schwarz(args: argparse.Namespace) -> int:
    source = _parse_metric(args.source)
    target = _parse_metric(args.target)
    scheme = _scheme(args)
    points = _parse_points(args, source)
    if args.map == "id":
        if source.n != target.n:
            raise ConfigError("map 'id' needs source and target of equal dimension")
        components = [f"z{k + 1}" for k in range(source.n)]
    else:
        components = [c for c in args.map.split(";") if c.strip()]
    holo_map = HoloMap.parse(components, source.n)

    rows = []
    worst = 0.0
    for z in points:
        rep = laplacian_identity_report(source, target, holo_map, z, scheme)
        rows.append(
            {
                "point": _complex_payload(z),
                "energy": rep.energy,
                "laplacian": rep.laplacian,
                "assembled": rep.assembled,
                "hessian_square": rep.hessian_square,
                "symmetric_square": rep.symmetric_square,
                "skew_square": rep.skew_square,
                "ricci_term": rep.ricci_term,
                "target_term": rep.target_term,
                "relative_residual": rep.relative_residual,
                "skew_residual": rep.skew_residual,
            }
        )
        worst = max(worst, rep.relative_residual)

    report = {
        "command": "schwarz",
        "config": _base_config(
            args, source=args.source, target=args.target, map=args.map,
            points=args.points, region=args.region,
        ),
        "scheme": scheme.describe(),
        "results": rows,
        "max_relative_residual": worst,
    }
    _emit_json(report, args)
    if args.tol is not None and worst > args.tol:
        return 1
    return 0


def _cmd_gauduchon(args: argparse.Namespace) -> int:
    spec = _parse_metric(args.metric)
    scheme = _scheme(args)
    points = _parse_points(args, spec)
    try:
        parameters = [float(tok) for tok in args.t.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --t '{args.t}'") from exc

    point = ChernPoint.from_jet(metric_jet(spec, points, scheme))

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
        "config": _base_config(
            args, metric=args.metric, points=args.points, region=args.region,
            t=args.t, roundtrip=args.roundtrip,
        ),
        "scheme": scheme.describe(),
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
    state = run_flow(state, dt=args.dt, steps=args.steps, method=args.method)

    config = _base_config(
        args,
        metric=args.metric,
        tau=args.tau,
        dt=args.dt,
        steps=args.steps,
        method=args.method,
        reference_metric=args.reference,
        grid={
            "extent": args.extent,
            "resolution": args.resolution,
            "boundary": args.boundary,
            "center": [(c.real, c.imag) for c in center],
        },
    )

    if args.format == "csv":
        stream = io.StringIO()
        write_diagnostics_csv(state, stream)
        _emit(stream.getvalue(), args.out)
        return 0

    center_index = tuple(args.resolution // 2 for _ in range(2 * spec.n))
    last = state.history[-1]
    report = {
        "command": "flow",
        "config": config,
        "grid": {"spacing": box.spacing, "nodes": args.resolution ** (2 * spec.n)},
        "result": {
            "time": state.time,
            "steps": state.steps_taken,
            "min_eigenvalue": last.min_eigenvalue,
            "max_velocity": last.max_velocity,
            "sup_trace": last.sup_trace,
            "center_metric": _complex_payload(state.field.values[center_index]),
        },
        "history": [
            {
                "step": row.step,
                "time": row.time,
                "dt": row.dt,
                "min_eigenvalue": row.min_eigenvalue,
                "max_velocity": row.max_velocity,
                "sup_trace": row.sup_trace,
            }
            for row in state.history
        ],
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
        "config": _base_config(args),
        "fixtures": rows,
        "builtins": [
            "flat(n)",
            "poincare_polydisk(n)",
            "hopf(n)",
            "example22",
            "F1",
            "F2",
            "F3",
            "F4",
        ],
    }
    _emit_json(report, args)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--h", type=float, default=1e-3,
                     help="stencil step (bianchi check, schwarz Laplacian)")
    sub.add_argument("--order", type=int, default=4, choices=(2, 4),
                     help="stencil order (bianchi check, schwarz Laplacian)")
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument("--tol", type=float, default=None, help="breach tolerance")
    sub.add_argument("--out", default=None, help="write the report to this path")
    sub.add_argument(
        "--format", default="json", choices=("json", "csv"), help="report format"
    )


def _add_point_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--points", default=None,
        help="semicolon-separated points, comma-separated complex coordinates",
    )
    sub.add_argument(
        "--region", type=int, default=None,
        help="sample this many points from the metric's region instead",
    )


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
    _add_common(p)
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
    _add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = subparsers.add_parser("schwarz", help="map energy expansion residuals")
    p.add_argument("--map", required=True, help="semicolon-separated components, or 'id'")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    _add_point_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_schwarz)

    p = subparsers.add_parser("gauduchon", help="connection family transforms")
    p.add_argument("--metric", required=True)
    _add_point_flags(p)
    p.add_argument("--t", required=True, help="comma list of family parameters")
    p.add_argument("--roundtrip", action="store_true", help="check reconstruction")
    _add_common(p)
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
    _add_common(p)
    p.set_defaults(func=_cmd_flow)

    p = subparsers.add_parser("fixtures", help="list built-in metrics")
    _add_common(p)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
