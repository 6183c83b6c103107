"""Flow stepping: the guard-derived substep count against the halve-and-retry loop.

``flow_step`` derives its substep count from the diffusion bound
``dt <= 0.2 h^2 g_min`` at the start field and evaluates each field's velocity
once.  The oracle below is a plain stepping loop under the same bound: it
tries 1, 2, 4, ... substeps from the start field and recomputes every
velocity and smallest eigenvalue it needs.  Both must give the same field
values and the same history values bit for bit.

The bound is checked for stability on the periodic F1 seam grid, where a
node perturbation must decay over 30 substeps taken at the limit.

The two-stage predictor forms its jet's second differences and its velocity
only at the nodes a step moves, which must be the bytes of the whole grid's
velocity there; a velocity that is not finite fails the step at once instead
of halving it eight times.

Run with ``-s`` to print, for each pinned configuration, the substeps kept,
the fallback halvings and the velocity evaluations per step of both loops,
and the perturbation's growth at 1, 5 and 10 times the limit.
"""

import json
import math
import warnings

import numpy as np
import pytest

from curvlab import cli, flow
from curvlab.flow import GridBox, GridMetricField, flow_step, init_flow
from curvlab.functionals import TauParam
from curvlab.metric_model import builtin_metric, fixture
from curvlab.tensor_core import hermitian_eigenvalues, hermitian_part


class _Rejected(Exception):
    pass


class OldLoop:
    """The halve-and-retry stepping loop that the derived count replaces, on the diffusion bound."""

    def __init__(self, tau: TauParam, method: str):
        self.tau = tau
        self.method = method
        self.velocity_evals = 0

    def min_eigenvalue(self, field):
        return float(hermitian_eigenvalues(hermitian_part(field.values)).min())

    def max_velocity(self, velocity):
        return float(np.abs(hermitian_eigenvalues(velocity)).max())

    def velocity(self, field):
        self.velocity_evals += 1
        return flow.thcf_velocity(field.jets(), self.tau)

    def apply_update(self, field, update):
        new_values = field.values.copy()
        if field.box.boundary == "frozen":
            region = tuple(slice(1, -1) for _ in range(2 * field.box.n))
            new_values[region] += update[region]
        else:
            new_values += update
        return new_values

    def guarded_velocity(self, field, dt):
        velocity = self.velocity(field)
        if dt > 0.2 * field.box.spacing**2 * self.min_eigenvalue(field):
            raise _Rejected
        return velocity

    def build(self, box, values):
        try:
            return GridMetricField(box, values)
        except flow.NumericalError as exc:
            raise _Rejected from exc

    def substep(self, field, dt):
        v1 = self.guarded_velocity(field, dt)
        if self.method == "euler":
            update = dt * v1
        else:
            predictor = self.build(field.box, self.apply_update(field, dt * v1))
            v2 = self.guarded_velocity(predictor, dt)
            update = 0.5 * dt * (v1 + v2)
        return self.build(field.box, self.apply_update(field, update))

    def step(self, field, dt):
        """(end field, pieces kept, max_velocity, min_eigenvalue) of one step."""
        pieces = 1
        while True:
            sub = dt / pieces
            end = field
            try:
                for _ in range(pieces):
                    end = self.substep(end, sub)
                break
            except _Rejected:
                pieces *= 2
                if pieces > 2**8:
                    raise flow.NumericalError("still rejected after 8 halvings") from None
        velocity = self.velocity(end)
        return end, pieces, self.max_velocity(velocity), self.min_eigenvalue(end)


def source_tau(value):
    return TauParam(value, "source")


# name: (metric, center, half width, resolution, boundary, tau, method, dt, steps,
#        substeps kept, fallback halvings per step)
PINNED = {
    # spacing 0.25: the limit 0.0125 g_min shrinks as the flat metric
    # contracts, and 0.045 / 4 stays under it through both steps
    "flat(1) guard split": (builtin_metric("flat", 1), (0j,), 0.5, 5, "periodic",
                            1.0, "heun", 0.045, 2, 4, 0),
    # spacing 0.01: the limit 2e-5 g_min needs all 2^8 substeps of 5e-3
    "flat(1) 2^8 substeps": (builtin_metric("flat", 1), (0j,), 0.02, 5, "periodic",
                             1.0, "heun", 5e-3, 1, 2**8, 0),
    "F1 tau 2 periodic res 5": (fixture("F1"), (0j, 0j), 0.1, 5, "periodic",
                                2.0, "heun", 1e-4, 2, 1, 0),
    "P1 res 41 tau 1 heun": (builtin_metric("poincare_polydisk", 1), (0.1 + 0.05j,), 0.3, 41,
                             "frozen", 1.0, "heun", 1e-4, 3, 4, 0),
    "P1 res 41 tau inf euler": (builtin_metric("poincare_polydisk", 1), (0.1 + 0.05j,), 0.3,
                                41, "frozen", math.inf, "euler", 1e-4, 3, 4, 0),
    # spacing 50: the bound 500 g_min admits each whole step, but the
    # predictor (heun) or the end field (euler) g (1 - 2) and then g (1 - 1)
    # is not positive, so the fallback halves twice in both steps
    "flat(1) predictor loses positivity": (builtin_metric("flat", 1), (0j,), 100.0, 5,
                                           "periodic", 1.0, "heun", 2.0, 2, 4, 2),
    "flat(1) euler end loses positivity": (builtin_metric("flat", 1), (0j,), 100.0, 5,
                                           "periodic", 1.0, "euler", 2.0, 2, 4, 2),
}


def pinned_state(name):
    metric, center, width, resolution, boundary, tau, *_ = PINNED[name]
    box = GridBox(center, half_width=width, resolution=resolution, boundary=boundary)
    return init_flow(metric, box, source_tau(tau))


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns the list of its calls' first arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("name", list(PINNED))
def test_bit_identical_to_the_retry_loop(name, monkeypatch):
    *_, tau, method, dt, steps, substeps, rejected = PINNED[name]
    state = pinned_state(name)
    oracle = OldLoop(source_tau(tau), method)
    old_field = state.field
    velocity_calls = counting(monkeypatch, flow, "thcf_velocity")
    for k in range(steps):
        state = flow_step(state, dt, method)
        old_field, pieces, max_velocity, min_eigenvalue = oracle.step(old_field, dt)
        row = state.history[-1]
        assert np.array_equal(state.field.values, old_field.values), f"step {k + 1}"
        assert (row.max_velocity, row.min_eigenvalue) == (max_velocity, min_eigenvalue)
        assert (row.substeps, row.rejected) == (pieces, rejected) == (substeps, rejected)
    new_evals = len(velocity_calls) - oracle.velocity_evals
    print(
        f"\n{name}: {substeps} substeps, {rejected} fallback halvings per step; "
        f"velocity evaluations per step {new_evals / steps:.2f} "
        f"(halve-and-retry loop {oracle.velocity_evals / steps:.2f})"
    )


def test_eight_halvings_abort_before_any_substep(monkeypatch):
    # spacing 0.25 gives a limit of 0.0125 on the flat metric at g_min = 1;
    # 2^9 of them need more than 2^8 substeps, which the derived count sees
    # from g_min alone, before any velocity
    state = pinned_state("flat(1) guard split")
    velocity_calls = counting(monkeypatch, flow, "thcf_velocity")
    with pytest.raises(flow.NumericalError, match="8 halvings"):
        flow_step(state, 0.0125 * 2**9)
    assert velocity_calls == []
    assert flow_step(pinned_state("flat(1) 2^8 substeps"), 5e-3).history[-1].substeps == 2**8


@pytest.mark.parametrize("method", ["euler", "heun"])
def test_the_guard_allows_rounding_only(method):
    # flat(1), frozen, spacing 0.25: the bound 0.2 h^2 g_min is 0.0125 at the start field.
    # A step on it is one substep (heun's predictor, whose g_min has fallen, then halves
    # it once); a step 1e-11 above it is split in two before any substep
    state = init_flow(builtin_metric("flat", 1), GridBox((0j,), 0.5, 5, "frozen"),
                      source_tau(1.0))
    bound = 0.2 * state.field.box.spacing**2 * state.field.min_eigenvalue()
    on = flow_step(state, bound, method).history[-1]
    assert (on.substeps, on.rejected) == ((1, 0) if method == "euler" else (2, 1))
    over = flow_step(state, bound * (1 + 1e-11), method).history[-1]
    assert (over.substeps, over.rejected) == (2, 0)


def test_eight_halvings_abort_in_the_fallback(monkeypatch):
    # the start field admits 2^8 substeps of 0.012, but the metric contracts
    # to g_min < 0.96 within a few of them, where the limit falls below 0.012
    state = pinned_state("flat(1) guard split")
    velocity_calls = counting(monkeypatch, flow, "thcf_velocity")
    with pytest.raises(flow.NumericalError, match="8 halvings"):
        flow_step(state, 0.012 * 2**8)
    assert velocity_calls
    with pytest.raises(flow.NumericalError, match="8 halvings"):
        OldLoop(source_tau(1.0), "heun").step(state.field, 0.012 * 2**8)


@pytest.mark.parametrize(
    "name, stages",
    [("flat(1) guard split", 2), ("F1 tau 2 periodic res 5", 2), ("P1 res 41 tau inf euler", 1)],
)
def test_velocity_evaluations_and_field_eigensolves(name, stages, monkeypatch):
    """k steps of p substeps: one velocity per field, one eigenvalue solve per field's values."""
    *_, method, dt, steps, substeps, rejected = PINNED[name]
    assert rejected == 0
    velocity_calls = counting(monkeypatch, flow, "thcf_velocity")
    eigenvalue_calls = counting(monkeypatch, flow, "hermitian_eigenvalues")
    built = []
    original_init = GridMetricField.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(GridMetricField, "__init__", init)
    state = pinned_state(name)
    for _ in range(steps):
        state = flow_step(state, dt, method)
    assert len(velocity_calls) == 1 + steps * substeps * stages
    assert len(built) == 1 + steps * substeps * stages
    # the rest of the eigensolves are one per step, for its max_velocity
    assert len(eigenvalue_calls) == len(built) + steps
    for field in built:
        own = [a for a in eigenvalue_calls if np.array_equal(a, hermitian_part(field.values))]
        assert len(own) == 1
    before = len(eigenvalue_calls), len(velocity_calls)
    state.field.min_eigenvalue()
    state.field.velocity(state.tau)
    assert (len(eigenvalue_calls), len(velocity_calls)) == before


@pytest.mark.parametrize("boundary", ["frozen", "periodic"])
@pytest.mark.parametrize("metric, box, tau", [
    (fixture("F1"), GridBox((0.05, 0.02j), 0.1, 5), 2.0),
    (builtin_metric("poincare_polydisk", 1), GridBox((0.1,), 0.3, 41), 1.0),
    (builtin_metric("hopf", 2), GridBox((0.3 + 0.1j, 0.2), 0.05, 5), math.inf),
], ids=["F1", "P1", "hopf2"])
def test_predictor_velocity_is_the_grid_velocity_at_the_moved_nodes(metric, box, tau, boundary):
    box = GridBox(box.center, box.half_width, box.resolution, boundary)
    field = GridMetricField.from_spec(metric, box)
    point, velocity = field._velocity_at(source_tau(tau), box.updated)
    assert point.g.shape[:-2] == field.values[box.updated].shape[:-2]
    assert velocity.tobytes() == field.velocity(source_tau(tau))[box.updated].tobytes()


@pytest.mark.parametrize("boundary, updated, predictor", [
    ("frozen", (slice(1, -1),) * 4, (3,) * 4),
    ("periodic", (slice(None),) * 4, (5,) * 4),
])
def test_predictor_record_only_at_the_moved_nodes(boundary, updated, predictor, monkeypatch):
    box = GridBox((0.05, 0.02j), half_width=0.1, resolution=5, boundary=boundary)
    assert box.updated == updated
    state = init_flow(fixture("F1"), box, source_tau(2.0))
    jets = counting(monkeypatch, flow, "thcf_velocity")
    formed = []
    differences = flow._differences

    def recording(*args):
        formed.append(differences(*args))
        return formed[-1]

    monkeypatch.setattr(flow, "_differences", recording)
    flow_step(state, 1e-4, "heun")
    # the start field, the predictor, and the end field for max_velocity
    assert [jet.g.shape[:-2] for jet in jets] == [(5,) * 4, predictor, (5,) * 4]
    # each jet differences the values at every node, then d: the predictor's
    # second differences are formed at its moved nodes only
    first = (4,) + (5,) * 4 + (2, 2)
    assert [out.shape for out in formed] == [first, (4, 2) + (5,) * 4 + (2, 2),
                                             first, (4, 2) + predictor + (2, 2),
                                             first, (4, 2) + (5,) * 4 + (2, 2)]


def test_non_finite_velocity_fails_the_step_at_once(tmp_path, monkeypatch, capsys):
    # the values near 2e306 are finite, but their differences overflow
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"n": 1, "entries": [["1e306*(1+abs2(z1)^100)"]],
                                "region": {"type": "ball", "radius": 100.0}}))
    velocity_calls = counting(monkeypatch, flow, "thcf_velocity")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["flow", "--metric", f"file:{path}", "--center", "1", "--extent", "0.02",
                         "--dt", "1e-300", "--steps", "1", "--boundary", "frozen"])
    lines = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("error: flow velocity is not finite at node")
    assert caught == []
    assert len(velocity_calls) == 1


def test_velocity_kept_per_tau():
    state = pinned_state("F1 tau 2 periodic res 5")
    field = state.field
    first = field.velocity(source_tau(2.0))
    assert field.velocity(source_tau(2.0)) is first
    other = field.velocity(source_tau(math.inf))
    assert not np.array_equal(other, first)
    again = field.velocity(source_tau(2.0))
    assert np.array_equal(again, first)
    assert field.max_velocity(source_tau(2.0)) == float(np.abs(hermitian_eigenvalues(first)).max())


def test_node_points_built_once_per_box():
    state = pinned_state("F1 tau 2 periodic res 5")
    field = state.field
    assert field.jets().point is field.jets().point is field.box.nodes
    assert not field.box.nodes.flags.writeable


def test_step_on_the_guard_limit_is_admitted():
    # half width 0.35 gives spacing 0.175 and the limit 0.2 * 0.175^2 = 0.006125
    # on the flat metric; the floats round it to one ulp below the literal,
    # which the guard's allowance admits as one Euler substep
    box = GridBox((0j,), half_width=0.35, resolution=5, boundary="periodic")
    state = init_flow(builtin_metric("flat", 1), box, source_tau(1.0))
    assert 0.006125 > 0.2 * box.spacing**2 * state.field.min_eigenvalue()
    row = flow_step(state, 0.006125, "euler").history[-1]
    assert (row.substeps, row.rejected) == (1, 0)


def _heun(field, tau, dt):
    """One unguarded two-stage substep of a periodic field."""
    v1 = field.velocity(tau)
    predictor = GridMetricField(field.box, field.values + dt * v1)
    return GridMetricField(field.box, field.values + 0.5 * dt * (v1 + predictor.velocity(tau)))


def test_node_perturbation_decays_at_the_limit():
    """A 1e-7 I kick at one node of the periodic F1 seam grid shrinks over 30 substeps."""
    state = pinned_state("F1 tau 2 periodic res 5")
    tau, base, box = state.tau, state.field, state.field.box
    kick = np.zeros_like(base.values)
    kick[(2,) * 4] = 1e-7 * np.eye(2)
    limit = 0.2 * box.spacing**2 * base.min_eigenvalue()
    growth = {}
    for multiple in (1, 5, 10):
        field, kicked = base, GridMetricField(box, base.values + kick)
        for _ in range(30):
            field, kicked = _heun(field, tau, multiple * limit), _heun(kicked, tau, multiple * limit)
        growth[multiple] = float(np.abs(kicked.values - field.values).max()) / 1e-7
    print("\nperturbation growth over 30 substeps: "
          + ", ".join(f"{k}x the limit {g:.3g}" for k, g in growth.items()))
    assert growth[1] < 1
