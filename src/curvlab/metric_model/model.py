"""Metric specifications: entries, validity regions, and derivative jets.

A metric is an ``n x n`` Hermitian matrix field ``g_{k lbar}(z)`` on a chart
region.  Entries are expression trees; built-in families may additionally
carry closed-form jets, used whenever the scheme allows.  The jet of a metric
collects everything downstream curvature code needs at one point::

    g[k, l]        = g_{k lbar}
    d_g[i, k, l]   = d_i g_{k lbar}
    dd_g[i, j, k, l] = d_i dbar_j g_{k lbar}

The anti-holomorphic first derivative is not stored: Hermitian symmetry gives
``dbar_j g_{k lbar} = conj(d_j g_{l kbar})``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..errors import ConfigError, NumericalError
from ..tensor_core import metric_inverse_up
from . import expr as ex
from .jets import DEFAULT_SCHEME, JetScheme, complex_jet2

__all__ = [
    "Region",
    "ExactJets",
    "MetricSpec",
    "MetricJet",
    "metric_value",
    "metric_jet",
    "validate_metric",
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

    def contains(self, z: np.ndarray) -> bool:
        z = np.asarray(z, dtype=complex)
        if self.kind == "ball":
            return float(np.linalg.norm(z)) < self.radius
        if self.kind == "polydisk":
            return float(np.max(np.abs(z))) < self.radius
        return float(np.linalg.norm(z)) > 0.0

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
class ExactJets:
    """Closed-form jets of a built-in metric family."""

    value: Callable[[np.ndarray], np.ndarray]
    first: Callable[[np.ndarray], np.ndarray]
    mixed: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MetricSpec:
    """An expression-backed Hermitian metric on a chart region."""

    name: str
    n: int
    entries: tuple
    region: Region
    exact: Optional[ExactJets] = None

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

    def entry_field(self) -> Callable[[np.ndarray], np.ndarray]:
        """The matrix-valued evaluation map built from the entry trees."""

        def field(z: np.ndarray) -> np.ndarray:
            out = np.empty((self.n, self.n), dtype=complex)
            for k in range(self.n):
                for l in range(self.n):
                    out[k, l] = ex.eval_expr(self.entries[k][l], z)
            return out

        return field


@dataclass(frozen=True)
class MetricJet:
    """Metric value and derivatives at one point, chart frame.

    The arrays may carry the same leading batch axes, one point per index:
    ``g`` of shape ``(..., n, n)``, ``d_g`` of ``(..., n, n, n)``.
    """

    point: np.ndarray
    g: np.ndarray
    d_g: np.ndarray
    dd_g: np.ndarray
    exact: bool

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    @cached_property
    def g_up(self) -> np.ndarray:
        """Raised-index inverse of ``g``, computed once per jet."""
        return metric_inverse_up(self.g)


def metric_value(spec: MetricSpec, z: np.ndarray) -> np.ndarray:
    """Metric matrix ``g_{k lbar}(z)``."""
    z = np.asarray(z, dtype=complex)
    if spec.exact is not None:
        return np.asarray(spec.exact.value(z), dtype=complex)
    return spec.entry_field()(z)


def metric_jet(spec: MetricSpec, z: np.ndarray, scheme: JetScheme = DEFAULT_SCHEME) -> MetricJet:
    """Second-order jet of the metric at ``z``.

    Uses closed-form jets when the spec carries them and the scheme allows;
    otherwise differentiates the entry field with the scheme's stencils.
    """
    z = np.asarray(z, dtype=complex)
    if len(z) != spec.n:
        raise ConfigError(f"point has {len(z)} coordinates, metric needs {spec.n}")
    if spec.exact is not None and scheme.use_exact:
        g = np.asarray(spec.exact.value(z), dtype=complex)
        d_g = np.asarray(spec.exact.first(z), dtype=complex)
        dd_g = np.asarray(spec.exact.mixed(z), dtype=complex)
        jet = MetricJet(z, g, d_g, dd_g, exact=True)
    else:
        full = complex_jet2(spec.entry_field(), z, scheme)
        jet = MetricJet(z, full.value, full.d, full.dd, exact=False)
    if not np.all(np.isfinite(jet.g)) or not np.all(np.isfinite(jet.dd_g)):
        raise NumericalError(f"metric jet is not finite at {z}")
    return jet


def validate_metric(spec: MetricSpec, seed: int = 12345) -> None:
    """Hermitian spot check at sampled points plus positivity at the base point.

    Raises :class:`ConfigError` on failure.  The check is numerical: entries
    are compared against the conjugate transpose at ``_VALIDATION_POINTS``
    deterministic region points.
    """
    rng = np.random.default_rng(seed)
    field = spec.entry_field()
    points = spec.region.sample_points(spec.n, rng, _VALIDATION_POINTS)
    for z in points:
        g = field(z)
        deviation = float(np.max(np.abs(g - g.conj().T)))
        scale = max(1.0, float(np.max(np.abs(g))))
        if deviation > _HERMITIAN_SPOT_TOL * scale:
            raise ConfigError(
                f"metric '{spec.name}' is not Hermitian at {z}: deviation {deviation:.3e}"
            )
    base = spec.region.base_point(spec.n)
    g0 = metric_value(spec, base)
    eigs = np.linalg.eigvalsh(0.5 * (g0 + g0.conj().T))
    if eigs[0] <= 0:
        raise ConfigError(
            f"metric '{spec.name}' is not positive definite at its base point: "
            f"min eigenvalue {eigs[0]:.3e}"
        )


def load_metric(source) -> MetricSpec:
    """Build a metric from a JSON file path or an already-parsed dict.

    Expected shape::

        {"n": 2,
         "entries": [["1", "0"], ["0", "1"]],
         "region": {"type": "ball", "radius": 1.0}}
    """
    if isinstance(source, (str, Path)):
        try:
            payload = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read metric file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"metric file is not valid JSON: {exc}") from exc
        name = Path(source).stem
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
