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
holds a JSON metric payload.  Reports are JSON with sorted keys, indented by
two spaces with one key or list item per line, except that every numeric
array, complex entries as ``[re, im]`` pairs, sits on one line with the
default ``", "`` separator; per-point rows are written from columns.  Identical
configuration and seed produce byte-identical output.  Every report embeds its
resolved configuration; ``curvature`` and ``schwarz`` reports also embed the
stencil scheme of their checks.

Exit codes: 0 success, 1 tolerance breach, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from functools import cache, lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .chern import ChernPoint, first_bianchi_residual, pluriclosed_residuals, ricci_traces
from .errors import ConfigError, NumericalError, require
from .flow import GridBox, init_flow, run_flow
from .functionals import TauParam, comparison_deviation, hsc_certificates, rbc_certificates
from .gauduchon import chern_from_family, gauduchon_family
from .metric_model import (
    BUILTIN_ARITY,
    FIXTURES,
    JetScheme,
    MetricFile,
    MetricSpec,
    builtin_metric,
    fixture,
    load_metric,
)
from .schwarz import HoloMap, laplacian_identity_report

__all__ = ["main"]

_BUILTIN_REF = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)(?:\((?P<args>[^)]*)\))?$")


def _parse_metric(ref: str) -> MetricSpec:
    """Resolve ``builtin:name(args)`` or ``file:path`` once per process.

    A builtin is built once per reference.  A file is read on every call, so a
    changed file is seen, and loaded once per path and bytes.
    """
    if ref.startswith("file:"):
        return _file_metric(MetricFile.read(ref[len("file:"):]))
    return _builtin(ref)


@lru_cache(maxsize=16)
def _file_metric(file: MetricFile) -> MetricSpec:
    return load_metric(file)


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
        # sampling forms 2n floats per point; numpy's byte counts must fit its index type
        if args.region * 2 * spec.n * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"--region {args.region} exceeds numpy's array size limit")
        rng = np.random.default_rng(args.seed)
        return spec.region.sample_points(spec.n, rng, args.region)
    if args.points is None:
        return spec.region.base_point(spec.n)[None]
    chunks = args.points.split(";")
    tokens = args.points.replace(";", ",").split(",")
    try:
        values = list(map(complex, map(str.strip, tokens)))
    except ValueError:  # the per-token loop raises, naming the first bad token
        values = [_parse_complex(token) for token in tokens]
    for chunk in chunks:
        count = chunk.count(",") + 1
        if count != spec.n:
            raise ConfigError(f"point '{chunk}' has {count} coordinates, metric needs {spec.n}")
    points = np.array(values, dtype=complex).reshape(len(chunks), spec.n)
    require(spec.region.contains(points), ConfigError,
            "point '{}' lies outside the {} region of {}", np.array(chunks), spec.region.kind,
            spec.name)
    return points


def _parse_tau(text: str, role: str) -> TauParam:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse tau '{text}'") from exc
    return TauParam(value, role)


def _complex_payload(array: np.ndarray) -> np.ndarray:
    """``[re, im]`` pairs on a new last axis, a view; JSON has no complex numbers."""
    return np.asarray(array, dtype=complex, order="C")[..., None].view(np.float64)


class _Table(dict):
    """Per-point rows held as equally long columns: ndarrays, lists, tables or ``_Repeated``."""


class _Repeated(NamedTuple):
    """A column whose every row stands ``times`` times in a row."""
    column: object
    times: int


_FLOAT_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(value, level: int) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` at indentation ``level``,
    but each ``ndarray`` on one line and each ``_Table`` as its row dicts."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_TEXT.get(text, text)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple, _Table)):
        items, brackets = _cells(value, level + 1), "[]"
    elif isinstance(value, dict):
        items, brackets = [f"{encode_basestring_ascii(key)}: {_json(value[key], level + 1)}"
                           for key in sorted(value)], "{}"
    else:
        return json.dumps(value.tolist())
    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{'  ' * level}{brackets[1]}"


# the entries from which a float column is written by formatting each distinct value
# once: below it the unique and gather cost more than the formatting they save
_DISTINCT_MIN_ENTRIES = 256


def _cells(column, level: int) -> list[str]:
    """The text of each row's entry of a column, at indentation ``level``.

    A table's entries are its row dicts.  Its float64 arrays of at least
    ``_DISTINCT_MIN_ENTRIES`` entries, like such an array alone, format each
    distinct value, keyed by its bits so that ``-0.0`` stays apart from ``0.0``,
    once in one C encoder call; each row is joined from those words and the
    encoder's separators.  Any other numeric array of ``d`` inner axes is
    encoded by one C encoder call and cut at ``"]" * d + ", " + "[" * d``, which
    separates its rows and occurs nowhere inside one; an empty one goes row by row.
    """
    if isinstance(column, _Repeated):
        return [cell for cell in _cells(column.column, level) for _ in range(column.times)]
    if isinstance(column, _Table):
        keys, inner = sorted(column), ",\n" + "  " * (level + 1)
        row = inner.join(encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
        row = "{\n" + "  " * (level + 1) + row + "\n" + "  " * level + "}"
        shared = [key for key in keys if _distinct(column[key])]
        cells = dict(zip(shared, _shared_cells([column[key] for key in shared]) if shared else ()))
        return [row % texts for texts in zip(*(
            cells[key] if key in cells else _cells(column[key], level + 1) for key in keys))]
    if not isinstance(column, np.ndarray) or column.size == 0:
        return [_json(value, level) for value in column]
    if _distinct(column):
        return _distinct_cells(column)
    d = column.ndim - 1
    text = json.dumps(column.tolist())[1 + d:-1 - d]
    return ["[" * d + cell + "]" * d for cell in text.split("]" * d + ", " + "[" * d)]


def _distinct(column) -> bool:
    """Whether a column is written from a table of its distinct values."""
    return getattr(column, "dtype", None) == np.float64 and column.size >= _DISTINCT_MIN_ENTRIES


def _distinct_cells(column: np.ndarray) -> list[str]:
    """The rows of a float64 array, each distinct value formatted once."""
    return _shared_cells([column])[0]


def _shared_cells(columns: list[np.ndarray]) -> list[list[str]]:
    """The rows of each float64 array, each value distinct over all of them formatted once."""
    bits = [np.ascontiguousarray(column).view(np.int64).ravel() for column in columns]
    distinct, inverse = np.unique(np.concatenate(bits), return_inverse=True)
    words = np.array(json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", "), object)
    texts = []
    for column, index in zip(columns, np.split(inverse, np.cumsum([b.size for b in bits[:-1]]))):
        text = np.empty((len(column), 2 * index.size // len(column) + 1), dtype=object)
        text[:, 0::2] = _separators(column.shape[1:])
        text[:, 1::2] = words[index.reshape(len(column), -1)]
        texts.append(["".join(row) for row in text.tolist()])
    return texts


@cache
def _separators(inner: tuple[int, ...]) -> np.ndarray:
    """The encoder's text before, between and after the entries of one row of shape ``inner``."""
    return np.array(json.dumps(np.zeros(inner).tolist()).split("0.0"), dtype=object)


def _emit_json(report: dict, args: argparse.Namespace) -> None:
    """Write the report with sorted keys and two-space indentation, each array on one line.

    A file that cannot be written is a :class:`ConfigError`.
    """
    text = _json(report, 0) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        Path(args.out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write the report: {exc}") from exc


def _config(args: argparse.Namespace) -> dict:
    """Every flag of the subcommand as parsed, except ``--out``."""
    return {k: v for k, v in vars(args).items() if k not in ("out", "command", "func")}


# ---------------------------------------------------------------------------
# subcommands: each returns ``(body, worst)`` and writes nothing.  ``body`` is
# the report without ``command`` and ``config``; ``worst`` is the largest
# checked value, ``None`` if none.


def _cmd_curvature(args: argparse.Namespace) -> tuple[dict, float | None]:
    spec = _parse_metric(args.metric)
    scheme = JetScheme(h=args.h, order=args.order)
    points = _parse_points(args, spec)
    checks = [c for c in (args.check or "").split(",") if c]
    for check in checks:
        if check not in ("bianchi", "pluriclosed"):
            raise ConfigError(f"unknown check '{check}'")

    point = ChernPoint.from_spec(spec, points)
    fields = {
        "point": points,
        "g": point.g,
        "torsion": point.torsion,
        "curvature": point.curvature,
        **ricci_traces(point)._asdict(),
    }
    rows = _Table({name: _complex_payload(value) for name, value in fields.items()})
    row_checks = _Table()
    if "bianchi" in checks:
        row_checks["bianchi"] = first_bianchi_residual(spec, point, scheme)
    if "pluriclosed" in checks:
        row_checks["pluriclosed"] = np.maximum(*pluriclosed_residuals(point))
    if row_checks:
        rows["checks"] = row_checks
    worst = {name: max(0.0, *values.tolist()) for name, values in row_checks.items()}

    body = {"scheme": dataclasses.asdict(scheme), "points": rows, "worst_checks": worst}
    return body, max(worst.values(), default=None)


def _cmd_scan(args: argparse.Namespace) -> tuple[dict, float | None]:
    spec = _parse_metric(args.metric)
    points = _parse_points(args, spec)
    if args.compare:
        # pluriclosed comparison: the largest gap between RBC^0 and half the
        # altered sectional functional over unit Hermitian forms
        point = ChernPoint.from_spec(spec, points)
        rows = _Table(point=_complex_payload(points), deviation=comparison_deviation(point),
                      pluriclosed=np.maximum(*pluriclosed_residuals(point)))
        worst = max(0.0, *rows["deviation"].tolist())
        return {"results": rows, "summary": {"max_deviation": worst}}, worst
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
    rows = _Table(point=_complex_payload(points),
                  witness=_complex_payload([cert.witness for cert in certs]),
                  **{name: [getattr(cert, name) for cert in certs] for name in fields})
    best = (max if args.kind == "sup" else min)(rows["value"])
    return {"results": rows, "summary": {"best_value": best}}, None


def _cmd_schwarz(args: argparse.Namespace) -> tuple[dict, float | None]:
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
    holo_map = _holo_map(tuple(components), source.n)

    identity = laplacian_identity_report(source, target, holo_map, points, scheme)
    rows = _Table(point=_complex_payload(points), **vars(identity))
    worst = max(0.0, *rows["relative_residual"].tolist())
    body = {"scheme": dataclasses.asdict(scheme), "results": rows, "max_relative_residual": worst}
    return body, worst


@lru_cache(maxsize=16)
def _holo_map(components: tuple[str, ...], n_source: int) -> HoloMap:
    """A map parsed once per process; its program is compiled on first use and kept."""
    return HoloMap.parse(components, n_source)


def _cmd_gauduchon(args: argparse.Namespace) -> tuple[dict, float | None]:
    spec = _parse_metric(args.metric)
    points = _parse_points(args, spec)
    try:
        parameters = [float(tok) for tok in args.t.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --t '{args.t}'") from exc

    point = ChernPoint.from_spec(spec, points)

    def per_point(a: np.ndarray) -> np.ndarray:
        return a.reshape(len(points), -1)

    norms, residuals = [], []
    for t in parameters:
        family = gauduchon_family(point, t)
        with np.errstate(over="ignore"):
            norms.append([np.linalg.norm(per_point(a), axis=-1)
                          for a in (family.torsion, family.curvature)])
        require(np.isfinite(norms[-1]).all(0), NumericalError,
                "the norm of the family member at t = {} is not finite at {}", t, points)
        if args.roundtrip:
            torsion_back, curvature_back = chern_from_family(family)
            residuals.append(np.maximum(
                np.abs(per_point(torsion_back - point.torsion_frame)).max(axis=-1),
                np.abs(per_point(curvature_back - point.curvature_frame)).max(axis=-1),
            ))
    # one row per (point, t), points outermost
    torsion_norm, curvature_norm = np.transpose(norms, (1, 2, 0)).reshape(2, -1)
    rows = _Table(point=_Repeated(_complex_payload(points), len(parameters)),
                  t=np.tile(parameters, len(points)),
                  torsion_norm=torsion_norm, curvature_norm=curvature_norm)
    if not args.roundtrip:
        return {"results": rows}, None
    rows["roundtrip_residual"] = np.transpose(residuals).ravel()
    worst = max(0.0, *rows["roundtrip_residual"].tolist())
    return {"results": rows, "max_roundtrip_residual": worst}, worst


def _cmd_flow(args: argparse.Namespace) -> tuple[dict, None]:
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

    config = _config(args)
    config["reference_metric"] = config.pop("reference")
    grid_flags = ("extent", "resolution", "boundary", "center")
    config["grid"] = {key: config.pop(key) for key in grid_flags}
    config["grid"]["center"] = _complex_payload(center)

    center_index = tuple(args.resolution // 2 for _ in range(2 * spec.n))
    last = state.history[-1]
    body = {
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
    return body, None


def _cmd_fixtures(args: argparse.Namespace) -> tuple[dict, None]:
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
    builtins = [f"{name}(n)" if arity else name for name, arity in BUILTIN_ARITY.items()]
    return {"fixtures": rows, "builtins": builtins}, None


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
    p.set_defaults(func=_cmd_flow)

    p = subparsers.add_parser("fixtures", help="list built-in metrics")
    p.set_defaults(func=_cmd_fixtures)

    for p in subparsers.choices.values():
        p.add_argument("--out", default=None, help="write the report to this path")
        p.allow_abbrev = False  # else a foreign --h would abbreviate --help
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, write its report, and return the exit code.

    The report is written before a breach is judged: exit ``1`` exactly when
    the subcommand checked a value and it exceeds ``--tol``.  A configuration
    error, a request too large to allocate included, is exit ``2``, and a
    numerical failure exit ``3``, each after one ``error:`` line.
    """
    args = build_parser().parse_args(argv)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not math.isfinite(tol):
            raise ConfigError(f"--tol must be finite, got {tol}")
        seed = getattr(args, "seed", 0)
        if seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {seed}")
        body, worst = args.func(args)
        _emit_json({"command": args.command, "config": _config(args), **body}, args)
        return 1 if worst is not None and tol is not None and worst > tol else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a request too large to allocate is a configuration error
        print(f"error: {str(exc) or 'not enough memory for this request'}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
