"""Finite-difference jets of complex-variable fields.

Fields are callables ``f(z) -> scalar or ndarray`` of ``n`` complex
coordinates, differentiated through the underlying ``2n`` real coordinates
``(x_1 .. x_n, y_1 .. y_n)`` with ``z_k = x_k + i y_k``.  Central stencils of
order 2 or 4, one optional Richardson extrapolation level, per-coordinate
steps ``h * max(1, |z_k|)``, and a shared evaluation cache keyed by integer
offsets make the jets deterministic: the same scheme at the same point always
performs the identical float operations.

Wirtinger combinations turn the real jet into holomorphic data::

    d    f = (f_x - i f_y) / 2              dbar f = (f_x + i f_y) / 2
    dd   [i, j] = d_i dbar_j f = (f_{x_i x_j} + f_{y_i y_j}
                                  + i (f_{x_i y_j} - f_{y_i x_j})) / 4
    ddh  [i, j] = d_i d_j f    = (f_{x_i x_j} - f_{y_i y_j}
                                  - i (f_{x_i y_j} + f_{y_i x_j})) / 4
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigError

__all__ = ["JetScheme", "ComplexJet2", "real_jet2", "complex_jet2", "field_first"]

# 1D central stencils per order: offset -> weight, for unit spacing.
_FIRST_WEIGHTS = {
    2: ((-1, -0.5), (1, 0.5)),
    4: ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0)),
}
_SECOND_WEIGHTS = {
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    4: (
        (-2, -1.0 / 12.0),
        (-1, 16.0 / 12.0),
        (0, -30.0 / 12.0),
        (1, 16.0 / 12.0),
        (2, -1.0 / 12.0),
    ),
}


@dataclass(frozen=True)
class JetScheme:
    """Finite-difference scheme parameters.

    Parameters
    ----------
    h : float
        Base step; the actual step per coordinate is ``h * max(1, |z_k|)``.
    order : int
        Stencil order, 2 or 4.
    richardson : int
        Richardson extrapolation levels, 0 or 1.
    use_exact : bool
        Metric jets are exact, folded over the entry trees; ``False``
        selects this scheme's stencils instead.
    tol : float
        Default agreement tolerance for cross-checks quoted in reports.
    """

    h: float = 1e-3
    order: int = 4
    richardson: int = 1
    use_exact: bool = True
    tol: float = 1e-7

    def __post_init__(self) -> None:
        if self.h <= 0:
            raise ConfigError(f"step must be positive, got {self.h}")
        if self.order not in (2, 4):
            raise ConfigError(f"stencil order must be 2 or 4, got {self.order}")
        if self.richardson not in (0, 1):
            raise ConfigError(f"richardson levels must be 0 or 1, got {self.richardson}")

    def describe(self) -> dict:
        return {
            "h": self.h,
            "order": self.order,
            "richardson": self.richardson,
            "use_exact": self.use_exact,
            "tol": self.tol,
        }


DEFAULT_SCHEME = JetScheme()


class _StencilCache:
    """Evaluates f(z0 + offset) once per integer offset vector.

    Offsets are in half-steps of the per-coordinate spacing so one cache
    serves both the base level and the Richardson half level.
    """

    def __init__(self, f: Callable, z0: np.ndarray, steps: np.ndarray) -> None:
        self.f = f
        self.z0 = np.asarray(z0, dtype=complex)
        self.steps = steps
        self.n = len(self.z0)
        self.cache: dict[tuple[int, ...], np.ndarray] = {}

    def __call__(self, units: tuple[int, ...]) -> np.ndarray:
        hit = self.cache.get(units)
        if hit is not None:
            return hit
        z = self.z0.copy()
        for r, u in enumerate(units):
            if u:
                k = r % self.n
                delta = 0.5 * u * self.steps[r]
                z[k] = z[k] + (delta if r < self.n else 1j * delta)
        value = np.asarray(self.f(z), dtype=complex)
        self.cache[units] = value
        return value


def _steps_for(z0: np.ndarray, h: float) -> np.ndarray:
    n = len(z0)
    scale = np.maximum(1.0, np.abs(np.asarray(z0, dtype=complex)))
    return h * np.concatenate([scale, scale])


def _unit_vector(m: int, r: int, amount: int) -> tuple[int, ...]:
    units = [0] * m
    units[r] = amount
    return tuple(units)


def _pair_vector(m: int, r: int, a: int, s: int, b: int) -> tuple[int, ...]:
    units = [0] * m
    units[r] = a
    units[s] = b
    return tuple(units)


def _first_at_level(cache, m, r, order, level):
    # level 1 uses spacing steps[r], level 2 uses steps[r] / 2
    unit = 2 // level
    spacing = cache.steps[r] * (0.5 * unit)
    acc = None
    for offset, weight in _FIRST_WEIGHTS[order]:
        term = weight * cache(_unit_vector(m, r, offset * unit))
        acc = term if acc is None else acc + term
    return acc / spacing


def _second_diag_at_level(cache, m, r, order, level):
    unit = 2 // level
    spacing = cache.steps[r] * (0.5 * unit)
    acc = None
    for offset, weight in _SECOND_WEIGHTS[order]:
        term = weight * cache(_unit_vector(m, r, offset * unit))
        acc = term if acc is None else acc + term
    return acc / (spacing * spacing)


def _second_cross_at_level(cache, m, r, s, order, level):
    unit = 2 // level
    spacing_r = cache.steps[r] * (0.5 * unit)
    spacing_s = cache.steps[s] * (0.5 * unit)
    acc = None
    for off_r, w_r in _FIRST_WEIGHTS[order]:
        for off_s, w_s in _FIRST_WEIGHTS[order]:
            term = (w_r * w_s) * cache(
                _pair_vector(m, r, off_r * unit, s, off_s * unit)
            )
            acc = term if acc is None else acc + term
    return acc / (spacing_r * spacing_s)


def _extrapolate(full: np.ndarray, half: np.ndarray, order: int) -> np.ndarray:
    factor = float(2**order)
    return (factor * half - full) / (factor - 1.0)


def real_jet2(
    f: Callable, z0: np.ndarray, scheme: JetScheme = DEFAULT_SCHEME
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, gradient, and Hessian of a field over the real coordinates.

    Returns
    -------
    (value, D1, D2)
        ``value`` has the field's shape ``S``; ``D1`` has shape ``(2n,) + S``
        and ``D2`` shape ``(2n, 2n) + S`` with ``D2`` symmetric.
    """
    z0 = np.asarray(z0, dtype=complex)
    m = 2 * len(z0)
    cache = _StencilCache(f, z0, _steps_for(z0, scheme.h))
    value = cache(tuple([0] * m))
    shape = value.shape

    def combined(worker):
        full = worker(1)
        if scheme.richardson == 0:
            return full
        return _extrapolate(full, worker(2), scheme.order)

    d1 = np.zeros((m,) + shape, dtype=complex)
    d2 = np.zeros((m, m) + shape, dtype=complex)
    for r in range(m):
        d1[r] = combined(lambda level, r=r: _first_at_level(cache, m, r, scheme.order, level))
        d2[r, r] = combined(
            lambda level, r=r: _second_diag_at_level(cache, m, r, scheme.order, level)
        )
    for r in range(m):
        for s in range(r + 1, m):
            cross = combined(
                lambda level, r=r, s=s: _second_cross_at_level(
                    cache, m, r, s, scheme.order, level
                )
            )
            d2[r, s] = cross
            d2[s, r] = cross
    return value, d1, d2


@dataclass(frozen=True)
class ComplexJet2:
    """Wirtinger jet of a field: value, first, and second derivatives.

    ``d[i]`` and ``dbar[i]`` are the holomorphic and anti-holomorphic firsts,
    ``dd[i, j]`` the mixed second ``d_i dbar_j``, and ``dd_holo[i, j]`` the
    pure holomorphic second ``d_i d_j``.
    """

    value: np.ndarray
    d: np.ndarray
    dbar: np.ndarray
    dd: np.ndarray
    dd_holo: np.ndarray


def complex_jet2(
    f: Callable, z0: np.ndarray, scheme: JetScheme = DEFAULT_SCHEME
) -> ComplexJet2:
    """Full Wirtinger jet of a field via the real finite-difference jet."""
    z0 = np.asarray(z0, dtype=complex)
    n = len(z0)
    value, d1, d2 = real_jet2(f, z0, scheme)
    dx = d1[:n]
    dy = d1[n:]
    d = 0.5 * (dx - 1j * dy)
    dbar = 0.5 * (dx + 1j * dy)
    dxx = d2[:n, :n]
    dyy = d2[n:, n:]
    dxy = d2[:n, n:]
    dyx = d2[n:, :n]
    dd = 0.25 * (dxx + dyy + 1j * (dxy - dyx))
    dd_holo = 0.25 * (dxx - dyy - 1j * (dxy + dyx))
    return ComplexJet2(value, d, dbar, dd, dd_holo)


def field_first(
    f: Callable, z0: np.ndarray, scheme: JetScheme = DEFAULT_SCHEME
) -> tuple[np.ndarray, np.ndarray]:
    """First Wirtinger derivatives only; cheaper than a full jet.

    Returns ``(d, dbar)`` of shape ``(n,) + S`` for a field of shape ``S``.
    """
    z0 = np.asarray(z0, dtype=complex)
    n = len(z0)
    m = 2 * n
    cache = _StencilCache(f, z0, _steps_for(z0, scheme.h))
    probe = cache(tuple([0] * m))
    d1 = np.zeros((m,) + probe.shape, dtype=complex)
    for r in range(m):
        full = _first_at_level(cache, m, r, scheme.order, 1)
        if scheme.richardson:
            half = _first_at_level(cache, m, r, scheme.order, 2)
            full = _extrapolate(full, half, scheme.order)
        d1[r] = full
    d = 0.5 * (d1[:n] - 1j * d1[n:])
    dbar = 0.5 * (d1[:n] + 1j * d1[n:])
    return d, dbar
