"""Built-in metric families, each defined once by its entry trees.

Values and exact jets come from the same folds over those trees as for
metrics loaded from files.  The four acceptance fixtures live in
:data:`FIXTURES`.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from ..errors import ConfigError
from .expr import Abs2, Add, Conj, Const, Div, Expr, Mul, Pow, Sub, Var
from .model import MetricSpec, Region

__all__ = [
    "flat",
    "poincare_polydisk",
    "example22",
    "hopf",
    "FIXTURES",
    "fixture",
    "BUILTIN_ARITY",
    "builtin_metric",
]


def _sum_terms(terms: list[Expr]) -> Expr:
    return reduce(Add, terms) if terms else Const(0j)


def flat(n: int) -> MetricSpec:
    """The flat metric ``g = I`` on all of C^n."""
    return MetricSpec(
        name=f"flat({n})",
        n=n,
        entries=tuple(tuple(Const(1 + 0j if k == l else 0j) for l in range(n)) for k in range(n)),
        region=Region("ball", math.inf),
    )


def poincare_polydisk(n: int) -> MetricSpec:
    """Product of Poincare disks: ``g_{k kbar} = (1 - |z_k|^2)^(-2)``."""
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

    from ..chern import torsion_product_a  # at call time: chern imports this package
    b = torsion_product_a(a)  # b[i, j, k, l] = sum_p a[i,k,p] conj(a[j,l,p])

    def entry(k: int, l: int) -> Expr:
        terms: list[Expr] = [Const(1 + 0j)] if k == l else []
        terms += [Mul(Const(complex(a[i, k, l])), Var(i)) for i in range(n) if a[i, k, l] != 0]
        terms += [Mul(Const(complex(np.conj(a[i, l, k]))), Conj(Var(i)))
                  for i in range(n) if a[i, l, k] != 0]
        terms += [Mul(Const(0.5 * complex(b[i, j, k, l])), Mul(Var(i), Conj(Var(j))))
                  for i in range(n) for j in range(n) if b[i, j, k, l] != 0]
        if eps != 0:
            terms.append(Mul(Const(complex(eps)), Mul(Var(l), Conj(Var(k)))))
        return _sum_terms(terms)

    return MetricSpec(
        name=f"example22({n})",
        n=n,
        entries=tuple(tuple(entry(k, l) for l in range(n)) for k in range(n)),
        region=Region("ball", 0.25),
    )


def hopf(n: int) -> MetricSpec:
    """The metric ``g = I / |z|^2`` on the punctured chart."""
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


# integer arguments of each builtin, in the order the `fixtures` report lists
# them: a family takes its dimension; bare example22 (the fixture F1) and the
# fixtures none
BUILTIN_ARITY = {"flat": 1, "poincare_polydisk": 1, "hopf": 1, "example22": 0,
                 **dict.fromkeys(FIXTURES, 0)}


def builtin_metric(name: str, *args: int) -> MetricSpec:
    """A built-in metric by name and its :data:`BUILTIN_ARITY` integer arguments.

    ``flat``, ``poincare_polydisk`` and ``hopf`` take the dimension; bare
    ``example22`` is the fixture F1.  An unknown name or another argument
    count is a :class:`ConfigError`.
    """
    if name not in BUILTIN_ARITY:
        raise ConfigError(f"unknown builtin metric '{name}'")
    arity = BUILTIN_ARITY[name]
    if len(args) != arity:
        form = f"'builtin:{name}(n)' with one integer n" if arity else f"'builtin:{name}'"
        raise ConfigError(f"builtin metric '{name}' with {len(args)} arguments: expected {form}")
    if not arity:
        return fixture("F1" if name == "example22" else name)
    return {"flat": flat, "poincare_polydisk": poincare_polydisk, "hopf": hopf}[name](*args)
