"""Built-in metric families with closed-form derivative jets.

Each family also carries expression-tree entries so that generic code paths
(finite differences, chart recentring) work on it unchanged.  The four
acceptance fixtures live in :data:`FIXTURES`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from .expr import Abs2, Add, Const, ConjVar, Div, Expr, Mul, Pow, Sub, Var
from .model import ExactJets, MetricSpec, Region

__all__ = [
    "flat",
    "poincare_polydisk",
    "example22",
    "hopf",
    "FIXTURES",
    "fixture",
    "builtin_metric",
]


def _const_matrix_entries(n: int, matrix: np.ndarray) -> tuple:
    return tuple(
        tuple(Const(complex(matrix[k, l])) for l in range(n)) for k in range(n)
    )


def _sum_terms(terms: list[Expr]) -> Expr:
    if not terms:
        return Const(0j)
    acc = terms[0]
    for term in terms[1:]:
        acc = Add(acc, term)
    return acc


def flat(n: int) -> MetricSpec:
    """The flat metric ``g = I`` on all of C^n."""
    eye = np.eye(n, dtype=complex)
    zeros3 = np.zeros((n, n, n), dtype=complex)
    zeros4 = np.zeros((n, n, n, n), dtype=complex)
    exact = ExactJets(
        value=lambda z: eye.copy(),
        first=lambda z: zeros3.copy(),
        mixed=lambda z: zeros4.copy(),
    )
    return MetricSpec(
        name=f"flat({n})",
        n=n,
        entries=_const_matrix_entries(n, eye),
        region=Region("ball", math.inf),
        exact=exact,
    )


def poincare_polydisk(n: int) -> MetricSpec:
    """Product of Poincare disks: ``g_{k kbar} = (1 - |z_k|^2)^(-2)``."""

    def value(z: np.ndarray) -> np.ndarray:
        s = 1.0 - np.abs(z) ** 2
        return np.diag((s**-2.0).astype(complex))

    def first(z: np.ndarray) -> np.ndarray:
        s = 1.0 - np.abs(z) ** 2
        d = np.zeros((n, n, n), dtype=complex)
        for k in range(n):
            d[k, k, k] = 2.0 * s[k] ** -3.0 * np.conj(z[k])
        return d

    def mixed(z: np.ndarray) -> np.ndarray:
        s = 1.0 - np.abs(z) ** 2
        dd = np.zeros((n, n, n, n), dtype=complex)
        for k in range(n):
            dd[k, k, k, k] = 2.0 * s[k] ** -3.0 + 6.0 * np.abs(z[k]) ** 2 * s[k] ** -4.0
        return dd

    entries = tuple(
        tuple(
            Div(Const(1 + 0j), Pow(Sub(Const(1 + 0j), Abs2(Var(k))), 2))
            if k == l
            else Const(0j)
            for l in range(n)
        )
        for k in range(n)
    )
    return MetricSpec(
        name=f"poincare_polydisk({n})",
        n=n,
        entries=entries,
        region=Region("polydisk", 1.0),
        exact=ExactJets(value, first, mixed),
    )


def example22(n: int, a: np.ndarray, eps: float) -> MetricSpec:
    """Polynomial family with prescribed torsion and curvature at the origin.

    ``a[i, k, p]`` must be antisymmetric in ``(i, k)``.  The metric is::

        g_{k lbar} = delta_{kl} + sum_i a[i,k,l] z_i + sum_i conj(a[i,l,k]) zbar_i
                     + (1/2) sum_{i,j,p} a[i,k,p] conj(a[j,l,p]) z_i zbar_j
                     + eps z_l zbar_k

    valid on a small ball where positivity holds.  At the origin the torsion
    is ``2 a`` and the curvature is ``(1/2) a a^H`` minus the eps correction.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (n, n, n):
        raise ConfigError(f"coefficient array must have shape {(n, n, n)}, got {a.shape}")
    if float(np.max(np.abs(a + np.swapaxes(a, 0, 1)))) > 1e-14:
        raise ConfigError("coefficient array must be antisymmetric in its first two slots")

    # b[i, j, k, l] = sum_p a[i,k,p] conj(a[j,l,p])
    b = np.einsum("ikp,jlp->ijkl", a, np.conj(a))

    def value(z: np.ndarray) -> np.ndarray:
        g = np.eye(n, dtype=complex)
        g += np.einsum("ikl,i->kl", a, z)
        g += np.einsum("ilk,i->kl", np.conj(a), np.conj(z))
        g += 0.5 * np.einsum("ijkl,i,j->kl", b, z, np.conj(z))
        g += eps * np.outer(np.conj(z), z)
        return g

    def first(z: np.ndarray) -> np.ndarray:
        d = a.copy()
        d += 0.5 * np.einsum("ijkl,j->ikl", b, np.conj(z))
        for idx in range(n):
            d[idx, :, idx] += eps * np.conj(z)
        return d

    def mixed(z: np.ndarray) -> np.ndarray:
        dd = 0.5 * b.copy()
        for i in range(n):
            for j in range(n):
                dd[i, j, j, i] += eps
        return dd

    entries = []
    for k in range(n):
        row = []
        for l in range(n):
            terms: list[Expr] = []
            if k == l:
                terms.append(Const(1 + 0j))
            for i in range(n):
                if a[i, k, l] != 0:
                    terms.append(Mul(Const(complex(a[i, k, l])), Var(i)))
            for i in range(n):
                if a[i, l, k] != 0:
                    terms.append(Mul(Const(complex(np.conj(a[i, l, k]))), ConjVar(i)))
            for i in range(n):
                for j in range(n):
                    if b[i, j, k, l] != 0:
                        terms.append(
                            Mul(
                                Const(0.5 * complex(b[i, j, k, l])),
                                Mul(Var(i), ConjVar(j)),
                            )
                        )
            if eps != 0:
                terms.append(Mul(Const(complex(eps)), Mul(Var(l), ConjVar(k))))
            row.append(_sum_terms(terms))
        entries.append(tuple(row))

    return MetricSpec(
        name=f"example22({n})",
        n=n,
        entries=tuple(entries),
        region=Region("ball", 0.25),
        exact=ExactJets(value, first, mixed),
    )


def hopf(n: int) -> MetricSpec:
    """The metric ``g = I / |z|^2`` on the punctured chart."""

    def value(z: np.ndarray) -> np.ndarray:
        r2 = float(np.sum(np.abs(z) ** 2))
        return np.eye(n, dtype=complex) / r2

    def first(z: np.ndarray) -> np.ndarray:
        r2 = float(np.sum(np.abs(z) ** 2))
        d = np.zeros((n, n, n), dtype=complex)
        for idx in range(n):
            d[idx] = -np.conj(z[idx]) / r2**2 * np.eye(n)
        return d

    def mixed(z: np.ndarray) -> np.ndarray:
        r2 = float(np.sum(np.abs(z) ** 2))
        dd = np.zeros((n, n, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                coeff = -((i == j) / r2**2) + 2.0 * np.conj(z[i]) * z[j] / r2**3
                dd[i, j] = coeff * np.eye(n)
        return dd

    norm2 = _sum_terms([Abs2(Var(k)) for k in range(n)])
    entries = tuple(
        tuple(Div(Const(1 + 0j), norm2) if k == l else Const(0j) for l in range(n))
        for k in range(n)
    )
    return MetricSpec(
        name=f"hopf({n})",
        n=n,
        entries=entries,
        region=Region("punctured", math.inf),
        exact=ExactJets(value, first, mixed),
    )


def _fixture_one() -> MetricSpec:
    a = np.zeros((2, 2, 2), dtype=complex)
    a[0, 1, 0] = 1.0
    a[1, 0, 0] = -1.0
    return example22(2, a, 0.1)


FIXTURES = {
    "F1": _fixture_one,
    "F2": lambda: poincare_polydisk(2),
    "F3": lambda: hopf(2),
    "F4": lambda: flat(2),
}


def fixture(name: str) -> MetricSpec:
    """One of the four standard fixtures F1 .. F4."""
    try:
        return FIXTURES[name]()
    except KeyError as exc:
        raise ConfigError(f"unknown fixture '{name}'") from exc


def builtin_metric(name: str, *args) -> MetricSpec:
    """Construct a built-in family by name; used by the command line."""
    table = {
        "flat": flat,
        "poincare_polydisk": poincare_polydisk,
        "example22": example22,
        "hopf": hopf,
    }
    if name in FIXTURES:
        return fixture(name)
    try:
        factory = table[name]
    except KeyError as exc:
        raise ConfigError(f"unknown builtin metric '{name}'") from exc
    return factory(*args)
