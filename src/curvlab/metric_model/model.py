"""Metric specifications: entries, validity regions, and derivative jets.

A metric is an ``n x n`` Hermitian matrix field ``g_{k lbar}(z)`` on a chart
region.  Its entries are expression trees, the only definition of a metric,
built-in or loaded from a file.  They are compiled once per spec into one
program with shared subtrees (``MetricSpec.program``); values and exact jets
are both runs of it, over arrays of points or over packed Wirtinger jets.
The jet of a metric collects everything downstream curvature code needs at
one point::

    g[k, l]        = g_{k lbar}
    d_g[i, k, l]   = d_i g_{k lbar}
    dd_g[i, j, k, l] = d_i dbar_j g_{k lbar}

The anti-holomorphic first derivative is not stored: Hermitian symmetry gives
``dbar_j g_{k lbar} = conj(d_j g_{l kbar})``.  A first-order jet holds ``g``
and ``d_g`` only, which is all the torsion reads.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, NumericalError, require
from ..tensor_core import cholesky_factor, metric_inverse_up
from . import expr as ex

__all__ = [
    "Region",
    "MetricSpec",
    "MetricJet",
    "metric_value",
    "metric_jet",
    "validate_metric",
    "MetricFile",
    "load_metric",
]

_REGION_KINDS = ("ball", "polydisk", "punctured")
_VALIDATION_POINTS = 32
_HERMITIAN_SPOT_TOL = 1e-10


@dataclass(frozen=True)
class Region:
    """Validity region of a chart metric.

    ``ball`` and ``polydisk`` are centred at the origin with the given
    radius; ``punctured`` is the complement of the origin, where the radius
    bounds the sampling shell used for validation.
    """

    kind: str
    radius: float

    def __post_init__(self) -> None:
        if self.kind not in _REGION_KINDS:
            raise ConfigError(f"unknown region kind '{self.kind}'")
        if not (self.radius > 0):
            raise ConfigError(f"region radius must be positive, got {self.radius}")

    def contains(self, z: np.ndarray) -> np.ndarray:
        """Whether each point of ``z`` of shape ``(..., n)`` lies inside, shape ``(...)``."""
        z = np.asarray(z, dtype=complex)
        if self.kind == "punctured":  # finite and off the origin, however close to it
            return np.isfinite(z).all(-1) & (z != 0).any(-1)
        if math.isinf(self.radius):
            return np.isfinite(z).all(-1)  # every finite point, whatever its norm
        if self.kind == "polydisk":
            return np.max(np.abs(z), axis=-1) < self.radius
        # the norm squares the entries, so 0 or inf may be an underflow or an
        # overflow: those norms are taken again without squaring
        with np.errstate(over="ignore", invalid="ignore"):  # inf: outside; NaN: outside
            norm = np.asarray(np.linalg.norm(z, axis=-1))
            odd = (norm == 0.0) | (norm == np.inf)
            if odd.any():
                norm[odd] = np.hypot.reduce(np.abs(z[odd]), axis=-1)
        return norm < self.radius

    def base_point(self, n: int) -> np.ndarray:
        z = np.zeros(n, dtype=complex)
        if self.kind == "punctured":
            scale = 0.5 if not math.isfinite(self.radius) else 0.5 * min(self.radius, 1.0)
            z[0] = scale
        return z

    def sample_points(self, n: int, rng: np.random.Generator, count: int) -> np.ndarray:
        """Deterministic interior points used for validation and scans."""
        raw = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
        if self.kind == "polydisk":
            scale = 0.5 * min(self.radius, 1.0)
            box = rng.uniform(-scale, scale, size=(count, 2 * n))
            return box[:, :n] + 1j * box[:, n:]
        if self.kind == "ball":
            scale = 0.5 * min(self.radius, 1.0) if math.isfinite(self.radius) else 1.0
            norms = np.linalg.norm(raw, axis=1, keepdims=True)
            radii = rng.uniform(0.1, 1.0, size=(count, 1)) * scale
            return raw / norms * radii
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        shell = 0.5 * min(self.radius, 1.0) if math.isfinite(self.radius) else 0.5
        radii = rng.uniform(shell, 2.0 * shell, size=(count, 1))
        return raw / norms * radii


@dataclass(frozen=True)
class MetricSpec:
    """An expression-backed Hermitian metric on a chart region."""

    name: str
    n: int
    entries: tuple
    region: Region

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.n}")
        if len(self.entries) != self.n or any(len(row) != self.n for row in self.entries):
            raise ConfigError(f"entries must form an {self.n} x {self.n} matrix")
        for row in self.entries:
            for entry in row:
                top = ex.max_var_index(entry)
                if top >= self.n:
                    raise ConfigError(
                        f"entry uses z{top + 1} but the metric has n = {self.n}"
                    )

    @cached_property
    def program(self) -> ex.TreeProgram:
        """The entry trees, row by row, compiled once into one program."""
        return ex.compile_trees([entry for row in self.entries for entry in row])


@dataclass(frozen=True)
class MetricJet:
    """Metric value and derivatives at one point, chart frame.

    The arrays may carry the same leading batch axes, one point per index:
    ``g`` of shape ``(..., n, n)``, ``d_g`` of ``(..., n, n, n)`` and
    ``dd_g`` of ``(..., n, n, n, n)``, None on a first-order jet.
    """

    point: np.ndarray
    g: np.ndarray
    d_g: np.ndarray
    dd_g: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    @cached_property
    def g_up(self) -> np.ndarray:
        """Raised-index inverse of ``g``, computed once per jet."""
        return metric_inverse_up(self.g)

    @cached_property
    def cholesky(self) -> np.ndarray:
        """The lower Cholesky factor ``L`` of ``g = L L^H``, computed once per jet."""
        return _cholesky(self.g, self.point)


def _cholesky(g: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The one positivity test: Cholesky factors of ``g`` ``(..., n, n)`` at ``points``.

    The first point whose ``g`` has none is a :class:`NumericalError` that names it.
    """
    try:
        return cholesky_factor(g)
    except NumericalError:
        for point, matrix in zip(points.reshape(-1, g.shape[-1]), g.reshape(-1, *g.shape[-2:])):
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                break
        raise NumericalError(f"metric is not positive definite at {point}") from None


def _points(spec: MetricSpec, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.shape[-1:] != (spec.n,):
        raise ConfigError(f"points of shape {z.shape} need {spec.n} coordinates each")
    return z


def metric_value(spec: MetricSpec, z: np.ndarray) -> np.ndarray:
    """Metric matrices ``g_{k lbar}(z)``, ``(..., n, n)`` for points ``(..., n)``.

    The entry program runs once over all points, under ``np.errstate``:
    singular points give non-finite entries, which callers check.
    """
    z = _points(spec, z)
    flat = z.reshape(-1, spec.n)
    zero = np.zeros(len(flat))  # spreads constant entries over the points
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = [value + zero for value in spec.program.fold(flat)]
    return np.stack(g, -1).astype(complex).reshape(z.shape[:-1] + (spec.n, spec.n))


def metric_jet(spec: MetricSpec, z: np.ndarray, order: int = 2) -> MetricJet:
    """Jet of the metric at the points ``z`` of shape ``(..., n)``, of ``order`` 1 or 2.

    The entry program's complex jets (``TreeProgram.jets``) with the batch
    axes of ``z``; order 1 leaves ``dd_g`` None, and its finite ``g`` and
    ``d_g`` are the bytes of order 2's (a NaN may differ in sign).  Raises
    :class:`NumericalError`, naming the first point that fails, unless the
    jet is finite and ``g`` positive definite, whose factor is kept.
    """
    z = _points(spec, z)
    flat = z.reshape(-1, spec.n)
    parts = spec.program.jets(flat, order=order)
    finite = np.all([np.isfinite(part).all(tuple(range(1, part.ndim))) for part in parts], 0)
    require(finite, NumericalError, "metric jet is not finite at {}", flat)
    jet = MetricJet(z, *(part.reshape(z.shape[:-1] + (spec.n,) * rank)
                         for part, rank in zip(parts, (2, 3, 4))))
    jet.cholesky  # the positivity check; the factor is kept
    return jet


def validate_metric(spec: MetricSpec, seed: int = 12345) -> None:
    """Finite, Hermitian values at sampled points plus positivity at the base point.

    Raises :class:`ConfigError` on failure.  The check is numerical: entries
    are compared against the conjugate transpose at ``_VALIDATION_POINTS``
    deterministic region points and the base point, evaluated as one batch.
    """
    rng = np.random.default_rng(seed)
    points = np.vstack([spec.region.sample_points(spec.n, rng, _VALIDATION_POINTS),
                        spec.region.base_point(spec.n)])
    g = metric_value(spec, points)
    require(np.isfinite(g).all((-2, -1)), ConfigError, "metric '{}' is not finite at {}",
            spec.name, points)
    deviation = np.abs(g - np.swapaxes(g, -1, -2).conj()).max((-2, -1))
    require(deviation <= _HERMITIAN_SPOT_TOL * np.maximum(1.0, np.abs(g).max((-2, -1))),
            ConfigError, "metric '{}' is not Hermitian at {}: deviation {:.3e}",
            spec.name, points, deviation)
    try:
        _cholesky(g[-1], points[-1])
    except NumericalError as exc:
        raise ConfigError(f"metric '{spec.name}' is not positive definite at its base point "
                          f"{points[-1]}") from exc


class MetricFile(NamedTuple):
    """A metric file's path and the bytes read from it."""

    path: str
    data: bytes

    @classmethod
    def read(cls, path) -> "MetricFile":
        """The file's bytes as they are now; an unreadable file is a :class:`ConfigError`."""
        try:
            return cls(str(path), Path(path).read_bytes())
        except OSError as exc:
            raise ConfigError(f"cannot read metric file: {exc}") from exc


def load_metric(source) -> MetricSpec:
    """Build a metric from a JSON file path, a :class:`MetricFile` or an already-parsed dict.

    A path is read into a :class:`MetricFile`, whose bytes are decoded as
    ``Path.read_text`` decodes them.  Expected shape::

        {"n": 2,
         "entries": [["1", "0"], ["0", "1"]],
         "region": {"type": "ball", "radius": 1.0}}
    """
    if isinstance(source, (str, Path)):
        source = MetricFile.read(source)
    if isinstance(source, MetricFile):
        try:
            text = io.TextIOWrapper(io.BytesIO(source.data), encoding=io.text_encoding(None)).read()
            payload = json.loads(text)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"metric file is not text in the locale encoding: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"metric file is not valid JSON: {exc}") from exc
        name = Path(source.path).stem
    elif isinstance(source, dict):
        payload = source
        name = str(payload.get("name", "inline"))
    else:
        raise ConfigError(f"unsupported metric source {type(source).__name__}")

    try:
        n = int(payload["n"])
        rows = payload["entries"]
        region_payload = payload["region"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"metric payload is missing required fields: {exc}") from exc
    if not isinstance(rows, list) or len(rows) != n:
        raise ConfigError(f"entries must be a list of {n} rows")
    entries = []
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"entries row {k} must have {n} columns")
        entries.append(tuple(ex.parse_expr(text) for text in row))
    kind = str(region_payload.get("type", ""))
    radius = float(region_payload.get("radius", math.inf))
    region = Region(kind, radius)
    spec = MetricSpec(name=name, n=n, entries=tuple(entries), region=region)
    validate_metric(spec)
    return spec
