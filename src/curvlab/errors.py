"""Exception hierarchy shared across curvlab, and the one failing-point guard."""

import numpy as np

__all__ = ["CurvlabError", "ConfigError", "NumericalError", "require"]


class CurvlabError(Exception):
    """Base class for all curvlab errors."""


class ConfigError(CurvlabError):
    """Malformed input: bad expression text, invalid region, slot mismatch."""


class NumericalError(CurvlabError):
    """Computation cannot proceed: non positive-definite metric, NaN, singular solve."""


def require(ok, error: type, message: str, *args) -> None:
    """Nothing if every entry of ``ok`` holds; else ``error`` naming the first failing point.

    ``ok`` holds one verdict per point of a stack; the first False in C order
    fails.  The error's text is ``message.format(*args)`` with each array of
    ``args``, whose leading axes are those of ``ok``, taken at that point, and
    any other argument, such as a metric's name, as it is.
    """
    ok = np.asarray(ok)
    if ok.all():
        return
    first = np.unravel_index(np.argmin(ok), ok.shape)  # a bool's argmin is its first False
    raise error(message.format(*(a[first] if isinstance(a, np.ndarray) else a for a in args)))
