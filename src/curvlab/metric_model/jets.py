"""Finite-difference jets of complex-variable fields.

A field is a callable ``f`` that maps points of shape ``(..., n)`` to values
of shape ``(...) + S``, one value per point.  It is differentiated through
the underlying ``2n`` real coordinates ``(x_1 .. x_n, y_1 .. y_n)`` with
``z_k = x_k + i y_k``: central stencils of order 2 or 4, one optional
Richardson extrapolation level, and per-coordinate steps
``h * max(1, |z_k|)``.  Every derivative at every level reads one footprint,
the integer half-step offsets of all its stencils, laid out once per
dimension and scheme.  The field is called once, on the footprint around
every centre of a stack, and each derivative is a weighted sum over it.  The
jets are deterministic: the same scheme at the same point always performs
the identical float operations, whatever other centres share the call.

Wirtinger combinations turn the real jet into holomorphic data::

    d    f = (f_x - i f_y) / 2              dbar f = (f_x + i f_y) / 2
    dd   [i, j] = d_i dbar_j f = (f_{x_i x_j} + f_{y_i y_j}
                                  + i (f_{x_i y_j} - f_{y_i x_j})) / 4
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from ..errors import ConfigError, require

__all__ = ["JetScheme", "ComplexJet2", "complex_jet2", "field_first", "check_footprint"]

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
    """

    h: float = 1e-3
    order: int = 4
    richardson: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.h < np.inf:
            raise ConfigError(f"step must be positive and finite, got {self.h}")
        if self.h * self.h == np.inf:  # second differences divide by the squared step
            raise ConfigError(f"step {self.h} is too large: its square overflows")
        if self.order not in (2, 4):
            raise ConfigError(f"stencil order must be 2 or 4, got {self.order}")
        if self.richardson not in (0, 1):
            raise ConfigError(f"richardson levels must be 0 or 1, got {self.richardson}")


DEFAULT_SCHEME = JetScheme()


@cache
def _footprint(m: int, order: int, levels: int, second: bool) -> tuple[np.ndarray, tuple]:
    """Half-step offsets ``(F, m)`` of every stencil, and the derivatives by term group.

    Row 0 is the centre.  A group holds the derivatives with equally many
    terms as ``(axes, rows, weights)``: ``axes`` of shape ``(k, a)`` names
    each derivative's real coordinates, ``(r,)`` for a first and ``(r, s)``
    for a second; ``rows`` of shape ``(levels, T, k)`` holds per level and
    term the footprint row of every derivative; ``weights`` of shape ``(T,)``
    holds the term weights, which the group shares, in summation order.  The
    groups are the firsts, then the diagonal and the cross seconds.  Level 1
    steps by two half-steps, level 2 by one.
    """
    rows = {(0,) * m: 0}

    def lay_out(moved, stencil):
        terms = []
        for unit in (2, 1)[:levels]:
            level = []
            for offsets, _ in stencil:
                units = [0] * m
                for axis, offset in zip(moved, offsets):
                    units[axis] = offset * unit
                level.append(rows.setdefault(tuple(units), len(rows)))
            terms.append(level)
        return terms

    first = [((o,), w) for o, w in _FIRST_WEIGHTS[order]]
    diagonal = [((o,), w) for o, w in _SECOND_WEIGHTS[order]]
    cross = [((a, b), wa * wb) for (a,), wa in first for (b,), wb in first]
    groups = [(first, [((r,), lay_out((r,), first)) for r in range(m)])]
    if second:
        diagonals, crosses = [], []
        for r in range(m):  # rows in the order of a layout derivative by derivative
            diagonals.append(((r, r), lay_out((r,), diagonal)))
            crosses += [((r, s), lay_out((r, s), cross)) for s in range(r + 1, m)]
        groups += [(diagonal, diagonals), (cross, crosses)]
    return np.array(list(rows), dtype=float), tuple(
        (np.array([axes for axes, _ in members]),
         np.array([terms for _, terms in members]).transpose(1, 2, 0),
         np.array([weight for _, weight in stencil]))
        for stencil, members in groups)


def check_footprint(region, points: np.ndarray, z: np.ndarray, scheme: JetScheme,
                    what: str = "the stencil", whose: str = "the") -> None:
    """A :class:`ConfigError` unless ``region`` holds every footprint point.

    ``points`` of shape ``(..., F, k)`` are the footprint of the centres ``z``
    ``(..., n)``, or its images; the error names the first centre that fails.
    """
    require(region.contains(points).all(-1), ConfigError,
            "{} around {} leaves {} {} region; lower --h (now {})", what, z, whose, region.kind,
            scheme.h)


def _real_jet(f: Callable, z: np.ndarray, scheme: JetScheme, second: bool, region):
    """Value ``(...) + S`` and real derivatives over one footprint at the centres ``z``.

    Returns ``(value, d1, d2)`` with the derivative axes first: ``d1`` of
    shape ``(2n, ...) + S`` and ``d2``, symmetric, of ``(2n, 2n, ...) + S``
    (None unless ``second``).  A group of derivatives forms its weighted
    terms in one product and sums them in order with one accumulate, so each
    derivative goes through the float operations of its own sum, term by
    term, as a real weight ``w`` times a value is ``(w + 0j)`` times it.
    """
    z = np.asarray(z, dtype=complex)
    batch, n = z.shape[:-1], z.shape[-1]
    m = 2 * n
    units, groups = _footprint(m, scheme.order, 1 + scheme.richardson, second)
    scale = np.maximum(1.0, np.abs(z))
    steps = scheme.h * np.concatenate([scale, scale], -1)
    delta = 0.5 * units * steps[..., None, :]
    points = z[..., None, :] + (delta[..., :n] + 1j * delta[..., n:])
    if region is not None:
        check_footprint(region, points, z, scheme)

    values = np.moveaxis(np.asarray(f(points), dtype=complex), len(batch), 0)
    tail = values.ndim - 1 - len(batch)
    steps = np.moveaxis(steps, -1, 0).reshape((m,) + batch + (1,) * tail)

    def derivatives(axes: np.ndarray, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The group's derivatives ``(k, ...) + S``, in the order of ``axes``; unchecked."""
        found = []
        weights = weights.reshape(weights.shape + (1,) * values.ndim)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # callers check
            for unit, level_rows in zip((2, 1), rows):
                terms = weights * values[level_rows]  # (T, k, ...) + S
                acc = np.add.accumulate(terms)[-1]  # term by term, never pairwise
                spacing = steps[axes[:, 0]] * (0.5 * unit)
                for axis in axes.T[1:]:
                    spacing = spacing * (steps[axis] * (0.5 * unit))
                found.append(acc / spacing)
            if len(found) == 1:
                return found[0]
            factor = float(2**scheme.order)
            return (factor * found[1] - found[0]) / (factor - 1.0)

    value = values[0, ...].copy()
    d1 = derivatives(*groups[0])
    if not second:
        return value, d1, None
    d2 = np.empty((m,) + d1.shape, dtype=complex)
    for axes, rows, weights in groups[1:]:
        r, s = axes.T
        d2[r, s] = d2[s, r] = derivatives(axes, rows, weights)
    return value, d1, d2


def _batch_first(a: np.ndarray, count: int, batch: int) -> np.ndarray:
    """Move the ``count`` leading derivative axes behind ``batch`` axes, C-contiguous."""
    moved = np.moveaxis(a, tuple(range(count)), tuple(range(batch, batch + count)))
    return np.ascontiguousarray(moved)


def _wirtinger_first(d1: np.ndarray, batch: int) -> tuple[np.ndarray, np.ndarray]:
    n = len(d1) // 2
    dx, dy = d1[:n], d1[n:]
    return (_batch_first(0.5 * (dx - 1j * dy), 1, batch),
            _batch_first(0.5 * (dx + 1j * dy), 1, batch))


@dataclass(frozen=True)
class ComplexJet2:
    """Wirtinger jet of a field: value, first, and second derivatives.

    ``d[..., i]`` and ``dbar[..., i]`` are the holomorphic and
    anti-holomorphic firsts and ``dd[..., i, j]`` the mixed second
    ``d_i dbar_j``; the field's axes ``S`` follow.
    """

    value: np.ndarray
    d: np.ndarray
    dbar: np.ndarray
    dd: np.ndarray


def complex_jet2(
    f: Callable, z: np.ndarray, scheme: JetScheme = DEFAULT_SCHEME, *, region=None
) -> ComplexJet2:
    """Full Wirtinger jet of a field at the centres ``z`` of shape ``(..., n)``.

    ``f`` maps points ``(..., n)`` to values ``(...) + S``.  The jet has the
    batch axes first: ``value`` of shape ``(...) + S``, ``d`` and ``dbar``
    of ``(..., n) + S``, ``dd`` of ``(..., n, n) + S``.  With
    a ``region``, a stencil that leaves it is a :class:`ConfigError`.
    """
    value, d1, d2 = _real_jet(f, z, scheme, True, region)
    n = len(d1) // 2
    batch = np.ndim(z) - 1
    dxx, dyy, dxy, dyx = d2[:n, :n], d2[n:, n:], d2[:n, n:], d2[n:, :n]
    return ComplexJet2(value, *_wirtinger_first(d1, batch),
                       _batch_first(0.25 * (dxx + dyy + 1j * (dxy - dyx)), 2, batch))


def field_first(
    f: Callable, z: np.ndarray, scheme: JetScheme = DEFAULT_SCHEME, *, region=None
) -> tuple[np.ndarray, np.ndarray]:
    """First Wirtinger derivatives only; cheaper than a full jet.

    Returns ``(d, dbar)``, each of shape ``(..., n) + S`` for centres ``z``
    of shape ``(..., n)`` and a field of shape ``S``; ``region`` as in
    :func:`complex_jet2`.
    """
    _, d1, _ = _real_jet(f, z, scheme, False, region)
    return _wirtinger_first(d1, np.ndim(z) - 1)
