"""The failing-point guard: ``require`` names the first failing point of a stack in C order."""

import numpy as np
import pytest

from curvlab.errors import ConfigError, NumericalError, require

SHAPES = [(), (5,), (2, 3)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("error", [ConfigError, NumericalError])
def test_names_the_first_failing_point_in_c_order(shape, seed, error):
    rng = np.random.default_rng(seed)
    ok = np.asarray(rng.random(shape) < 0.7)
    ok[tuple(rng.integers(size) for size in shape)] = False  # at least one point fails
    points = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
    deviation = np.asarray(10.0 ** rng.uniform(-20, 20, size=shape))
    first = next(index for index in np.ndindex(shape) if not ok[index])
    with pytest.raises(error) as info:
        require(ok, error, "metric '{}' fails at {}: deviation {:.3e}", "m{0}", points,
                deviation)
    assert type(info.value) is error
    # every array is taken at the same point; a string, braces and all, passes as it is
    assert str(info.value) == (f"metric 'm{{0}}' fails at {points[first]}: deviation "
                               f"{deviation[first]:.3e}")


@pytest.mark.parametrize("shape", SHAPES)
def test_silent_when_every_point_passes(shape):
    # a message that would fail to format shows that nothing is formatted
    assert require(np.ones(shape, dtype=bool), NumericalError, "{} {} {}", np.zeros(shape)) is None
    assert require(np.ones((0, 4), dtype=bool), NumericalError, "{} {}") is None
