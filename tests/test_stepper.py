"""The physics-free stepper on fields whose solution is closed form: damped rotations and a logistic."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from vaporspin import stepper

OMEGA = np.array([1.0, 2.0, 3.7])
GAMMA = np.array([0.05, 0.3, 0.1])
X0 = np.array([1.0, 0.0, 0.5, -0.5])
PAIRS = ((0, 1, 1.0), (2, 3, 2.5))  # coordinates (i, j) rotate at factor * omega


def generators() -> np.ndarray:
    """Column b's x' = M_b x: two planes rotating at omega_b and 2.5 omega_b, damped at gamma_b."""
    m = np.zeros((len(OMEGA), 4, 4))
    for b, (omega, gamma) in enumerate(zip(OMEGA, GAMMA)):
        for i, j, factor in PAIRS:
            m[b, i, i] = m[b, j, j] = -gamma
            m[b, i, j], m[b, j, i] = -factor * omega, factor * omega
    return m


def exact(times: np.ndarray) -> np.ndarray:
    out = np.empty((len(OMEGA), len(times), 4))
    for b, (omega, gamma) in enumerate(zip(OMEGA, GAMMA)):
        decay = np.exp(-gamma * times)
        for i, j, factor in PAIRS:
            c, s = np.cos(factor * omega * times), np.sin(factor * omega * times)
            out[b, :, i] = decay * (c * X0[i] - s * X0[j])
            out[b, :, j] = decay * (s * X0[i] + c * X0[j])
    return out


def rotations(columns):
    """The damped rotations as the field x A + (x . r)(x K) of row vectors: A = M^T, K = 0."""
    a = generators()[columns].transpose(0, 2, 1)
    return a, np.zeros_like(a), np.ones(4)


def passes(x):
    return np.full(len(x), "", dtype=object)


def solve(times, columns=slice(None), thresholds=None, stop_at_steady=False, rk4=None):
    columns = np.arange(len(OMEGA))[columns]
    thresholds = np.zeros(len(columns)) if thresholds is None else thresholds[columns]
    samples = stepper.Samples(times, thresholds, stop_at_steady, *rotations(columns), passes)
    x = np.tile(X0, (len(columns), 1))
    if rk4 is None:
        stepper.taylor(samples, x, 0.01, width=4)
    else:
        stepper.rk4(samples, x, *rk4)
    samples.flush()
    return samples


def test_taylor_follows_the_closed_form_inside_steps_and_at_the_end():
    times = np.linspace(0.0, 10.0, 401)
    samples = solve(times)
    assert (samples.taken == len(times)).all()
    assert (samples.steps < len(times) - 1).all()  # so some samples lie inside a step
    err = np.abs(samples.states - exact(times)).max(axis=(1, 2))
    assert (err < 10 * (stepper.ATOL + stepper.RTOL * np.abs(X0).max())).all(), err


def test_rk4_error_falls_as_the_fourth_power_of_the_step():
    errors = []
    for dt, every in ((0.025, 40), (0.0125, 80)):
        n_steps = round(10.0 / dt)
        times = np.minimum(np.arange(n_steps // every + 1) * every, n_steps) * dt
        samples = solve(times, rk4=(dt, every, n_steps))
        assert (samples.steps == n_steps).all() and (samples.rhs_evals == 4 * n_steps + len(times)).all()
        errors.append(np.abs(samples.states - exact(times)).max(axis=(1, 2)))
    ratio = errors[0] / errors[1]
    assert ((14.5 < ratio) & (ratio < 17.5)).all(), ratio


@pytest.mark.parametrize("rk4", [None, (0.01, 50, 3000)])
def test_a_column_stopped_at_its_threshold_equals_its_standalone_run(rk4):
    # ||x'|| = 2.03 omega_b exp(-gamma_b t) falls below 0.2 omega_b near t = 8
    # for gamma = 0.3 and t = 23 for gamma = 0.1; the gamma = 0.05 column never stops
    times = np.linspace(0.0, 30.0, 61)
    thresholds = 0.2 * OMEGA
    block = solve(times, thresholds=thresholds, stop_at_steady=True, rk4=rk4)
    assert block.steady[0] == -1 and 0 < block.steady[1] < block.steady[2] == block.taken[2] - 1
    for b in range(len(OMEGA)):
        alone = solve(times, [b], thresholds=thresholds, stop_at_steady=True, rk4=rk4)
        kept = block.taken[b]
        assert alone.taken[0] == kept
        assert np.array_equal(block.states[b, :kept], alone.states[0, :kept])
        assert np.array_equal(block.rhs_norms[b, :kept], alone.rhs_norms[0, :kept])
        for name in ("steady", "steps", "rhs_evals"):
            assert getattr(block, name)[b] == getattr(alone, name)[0], name


def test_a_failed_check_raises_for_the_first_failing_sample():
    times = np.linspace(0.0, 10.0, 201)

    def check(x):  # fails once the first coordinate turns negative
        return np.where(x[:, 0] < 0.0, "x_0 below 0", "").astype(object)

    samples = stepper.Samples(times, np.zeros(1), False, *rotations([0]), check)
    with pytest.raises(stepper.PhysicsViolationError, match="x_0 below 0") as caught:
        stepper.taylor(samples, np.tile(X0, (1, 1)), 0.01, width=4)
        samples.flush()
    # cos(t) first turns negative past pi / 2, at the sample t = 1.6
    assert caught.value.t == times[32] and caught.value.column == 0


def test_samples_stores_each_row_of_a_take_as_sample_k_of_its_column(monkeypatch):
    # x[i] is sample k[i] of column cols[i]; the store evaluates the field at it
    monkeypatch.setattr(stepper, "SAMPLE_CHUNK", 4)
    times = np.linspace(0.0, 1.0, 6)
    a, k, r = rotations([0, 1])
    states = np.tile(X0, (2, len(times), 1)) * np.linspace(1.0, 2.0, len(times))[:, None]
    states[1, 4:] *= 1e-3  # ||x'|| of column 1 falls below its threshold at sample 4
    samples = stepper.Samples(times, [0.0, 0.1], False, a, k, r, passes)
    samples.take(np.array([0, 1]), np.array([0, 0]), states[:, 0])
    samples.take(np.array([1, 1, 1]), np.array([1, 2, 3]), states[1, 1:4])  # five queued: a flush
    assert list(samples.taken) == list(samples.queued) == [1, 4]
    samples.take(np.array([0, 0, 0, 1, 1]), np.array([1, 2, 3, 4, 5]),
                 np.concatenate((states[0, 1:4], states[1, 4:])))
    samples.take(np.array([0, 0]), np.array([4, 5]), states[0, 4:])
    samples.flush()
    assert list(samples.taken) == list(samples.queued) == [len(times)] * 2
    assert np.array_equal(samples.states, states)
    f = stepper.field(states.reshape(-1, 4), np.repeat(a, len(times), axis=0),
                      np.repeat(k, len(times), axis=0), r)
    assert np.allclose(samples.rhs_norms, np.linalg.norm(f, axis=1).reshape(2, -1), rtol=1e-14, atol=0.0)
    assert list(samples.steady) == [-1, 4]


def test_a_failed_take_reports_its_step_count_less_stepped():
    times = np.linspace(0.0, 1.0, 3)

    def check(x):
        return np.where(x[:, 0] > 10.0, "x_0 above 10", "").astype(object)

    samples = stepper.Samples(times, np.zeros(2), False, *rotations([0, 1]), check)
    samples.steps[:] = [5, 8]
    samples.take(np.array([0, 1, 1]), np.array([0, 0, 1]), np.array([X0, X0, 100.0 * X0]), stepped=1)
    with pytest.raises(stepper.PhysicsViolationError, match="x_0 above 10") as caught:
        samples.flush()
    assert (caught.value.step, caught.value.t, caught.value.column) == (7, times[1], 1)


def test_taylor_follows_a_logistic_and_its_quadratic_coupling():
    # u' = c u (1 - u) and v' = -u v: A = diag(c, 0), K = [[-c, 0], [0, -1]]
    # and r = (1, 0), so sigma = u and every order reaches the convolution;
    # u = 1/(1 + B e^{-ct}) with B = 1/u0 - 1, and v = v0 exp(-int u dt)
    rates = np.array([0.5, 1.0, 3.0])
    u0, v0 = 0.1, 1.0
    a = np.zeros((len(rates), 2, 2))
    a[:, 0, 0] = rates
    k = np.zeros((len(rates), 2, 2))
    k[:, 0, 0], k[:, 1, 1] = -rates, -1.0
    times = np.linspace(0.0, 10.0, 401)
    samples = stepper.Samples(times, np.zeros(len(rates)), False, a, k, np.array([1.0, 0.0]), passes)
    stepper.taylor(samples, np.tile([u0, v0], (len(rates), 1)), 0.01, width=2)
    samples.flush()
    assert (samples.taken == len(times)).all()
    assert (samples.steps < len(times) - 1).all()
    c, t, b = rates[:, None], times[None, :], 1.0 / u0 - 1.0
    u = 1.0 / (1.0 + b * np.exp(-c * t))
    v = v0 * np.exp(-t) * ((1.0 + b) / (1.0 + b * np.exp(-c * t))) ** (1.0 / c)
    err = np.abs(samples.states - np.stack([u, v], axis=2)).max(axis=(1, 2))
    assert (err < 10 * (stepper.ATOL + stepper.RTOL * max(u0, v0, u.max()))).all(), err
    # the pass reads dx/dt off the field itself
    assert np.max(np.abs(samples.rhs_norms - np.hypot(c * u * (1.0 - u), u * v))) < 1e-12


def test_the_stepper_imports_only_the_standard_library_and_numpy():
    tree = ast.parse(Path(stepper.__file__).read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            roots.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
    assert "vaporspin" not in roots
    assert roots <= set(sys.stdlib_module_names) | {"numpy"}, roots
