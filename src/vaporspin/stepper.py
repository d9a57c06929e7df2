"""A physics-free stepper for a block of states under a quadratic field.

The states are the rows x of a (B, n) float array, and row b follows

    dx/dt = x A_b + (x . r)(x K_b)                                   (:func:`field`)

with x a row vector, A_b and K_b (n, n) and r (n,) shared by every row.  For
such a field the Taylor coefficients of x(t) at any order follow from a short
recurrence (Jorba & Zou, *Exp. Math.* 14, 99 (2005)), so :func:`taylor` steps
each row with its own step and clock by its order-``TAYLOR_ORDER`` series,
with the step set from the series' last two terms under the tolerance
(``RTOL``, ``ATOL``); no step is rejected, and the states at the samples, on
a given grid of times, are read off the step's polynomial.  :func:`rk4` is
classical RK4 at a fixed step.  The caller hands :class:`Samples` the factors
A, K and r and ``check(x)``, which returns each finite row's guard failure,
an object array of strings, empty where the row passes.  A stepper only
steps and hands :class:`Samples` each sample's state, tagged with its column
and sample index; everything else runs in stacked passes of up to
``SAMPLE_CHUNK`` samples, with the results, stops and failures of checking
each sample when it is taken.  Every product is stacked, one per row, so a
row's result does not depend on the block it sits in.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

__all__ = ["PhysicsViolationError", "Samples", "field", "rk4", "taylor"]

# queued samples per stacked sample pass; the result does not depend on it
SAMPLE_CHUNK = 64

# error control of the Taylor stepper, on each coordinate
RTOL = 1e-10
ATOL = 1e-12
# order of the Taylor series of a step; the work per unit time, order times
# steps, is flat from 24 to 32 on the sector equations
TAYLOR_ORDER = 24
# a step below this fraction of the sample interval (times[1], or the whole
# horizon if that is shorter) is a guard failure, so that a column the
# controller cannot follow stops instead of crawling; the floor never exceeds
# MAX_FLOOR_GRID_FRACTION of the grid unit dt, so a sparse sample grid cannot
# trip it on a healthy run
MIN_STEP_FRACTION = 1e-6
MAX_FLOOR_GRID_FRACTION = 1e-3
# a step is at most this many times the last one
MAX_FACTOR = 10.0


class PhysicsViolationError(RuntimeError):
    """A sample failed its check or became non-finite, or the step control failed.

    ``column`` is the offending column of the block.
    """

    def __init__(self, reason: str, step: int, t: float, column: int = 0):
        super().__init__(f"{reason} at step {step} (t = {t:.6e} s)")
        self.reason = reason
        self.step = step
        self.t = t
        self.column = int(column)


def field(x: np.ndarray, a: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """dx/dt = x A + (x . r)(x K) for each row of ``x``, with row b's A = ``a[b]`` and K = ``k[b]``.

    ``a`` and ``k`` are (B, n, n), or (1, n, n) for every row, and ``r`` is
    (n,).  The products are stacked matmuls, one per row.
    """
    rows = x[:, None, :]
    f = np.matmul(rows, k)
    f *= np.matmul(rows, r[:, None])
    f += np.matmul(rows, a)
    return f[:, 0]


def _series(coefficients: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Each row's polynomial sum_j X_j tau^j, from its coefficients X (B, p + 1, n) and its own tau (B,)."""
    powers = tau[:, None, None] ** np.arange(coefficients.shape[1])
    return np.matmul(powers, coefficients)[:, 0]


class Samples:
    """Sample store, steady detection and work counts of a block of columns under :func:`field`.

    ``a``, ``k`` and ``r`` are the factors of the block's field, one A and K
    per column.  Every array is indexed by block column: the stored
    ``states`` and ``rhs_norms`` (the norm of dx/dt), ``queued`` (samples
    handed to :meth:`take`), ``taken`` (samples stored), ``steady`` (the
    first sample with a norm below ``threshold``, or -1), ``steps`` and
    ``rhs_evals``.  A stepper only steps: it hands :meth:`take` the state
    of every sample due in a step, each row tagged with its column and
    sample index, and the queue keeps with each row ``steps`` and
    ``rhs_evals`` as they stand when it is taken.  :meth:`flush` turns the
    queue into samples as stacks, once at least ``SAMPLE_CHUNK`` samples are
    queued, when the stepper fails and at the end of the run: dx/dt at
    every sample (one :func:`field` call over all of them), the norms,
    steady detection, the guards and the store.

    Each column's results, stop and failure are those of checking every
    sample when it is taken.  Under ``stop_at_steady`` a column ends at its
    first steady sample: the rows of the take that holds it are guarded as
    usual and stored up to it; its later takes are dropped unguarded; its
    ``steps`` and ``rhs_evals`` are those recorded with that sample; and it
    is marked in ``stopped``, for the stepper to drop.
    """

    def __init__(self, times: np.ndarray, thresholds: Sequence[float], stop_at_steady: bool,
                 a: np.ndarray, k: np.ndarray, r: np.ndarray, check: Callable):
        b, n = len(thresholds), a.shape[1]
        self.times, self.threshold = times, np.asarray(thresholds, dtype=float)
        self.stop_at_steady, self.check = stop_at_steady, check
        self.a, self.k, self.r = a, k, r
        self.states = np.empty((b, len(times), n))
        self.rhs_norms = np.empty((b, len(times)))
        self.queued = np.zeros(b, dtype=int)
        self.taken = np.zeros(b, dtype=int)
        self.steady = np.full(b, -1)
        self.stopped = np.zeros(b, dtype=bool)
        self.steps = np.zeros(b, dtype=int)
        self.rhs_evals = np.zeros(b, dtype=int)
        self._queue: list[tuple[np.ndarray, ...]] = []
        self._pending = 0

    def stepper_failure(self, reason: str, column: int, t: float) -> None:
        """Raise the stepper's failure of ``column``, unless the queued samples stop it first.

        The queue is flushed first, so a failure among its samples is raised
        instead, as it would have been when they were taken.
        """
        self.flush()
        if not self.stopped[column]:
            raise PhysicsViolationError(reason, int(self.steps[column]), float(t), column)

    def take(self, cols: np.ndarray, k: np.ndarray, x: np.ndarray, stepped: int = 0) -> None:
        """Queue ``x[i]`` as sample ``k[i]`` of column ``cols[i]``, as one take.

        A column may hold several rows, in the order of its samples.  A
        failure reports the column's step count less ``stepped``, the count
        before this step.
        """
        steps = self.steps[cols]
        self._queue.append((cols, k, steps - stepped, steps, self.rhs_evals[cols], x))
        np.maximum.at(self.queued, cols, k + 1)
        self._pending += len(cols)
        if self._pending >= SAMPLE_CHUNK:
            self.flush()

    def flush(self) -> None:
        """Turn the queued takes into stored samples, as one stack.

        Raises for the sample that a check at :meth:`take` would have raised
        for: the earliest :meth:`take` with a failing row, within it a
        non-finite row first, else the first row that ``check`` fails, with
        that take's step count.
        """
        if not self._queue:
            return
        queue, self._queue, self._pending = self._queue, [], 0
        call = np.repeat(np.arange(len(queue)), [len(entry[0]) for entry in queue])
        cols, k, guard_steps, steps, rhs_evals, x = (np.concatenate(part) for part in zip(*queue))
        f = field(x, self.a[cols], self.k[cols], self.r)
        norms = np.sqrt(np.matmul(f[:, None, :], f[:, :, None])[:, 0, 0])

        fresh = (self.steady[cols] < 0) & (norms < self.threshold[cols])
        if fresh.any():  # each column's first row below the threshold
            below = np.flatnonzero(fresh)
            rows = below[np.unique(cols[below], return_index=True)[1]]
            self.steady[cols[rows]] = k[rows]
            if self.stop_at_steady:  # a column's takes after its stop never happened
                stop = cols[rows]
                self.stopped[stop] = True
                self.steps[stop], self.rhs_evals[stop] = steps[rows], rhs_evals[rows]
                last_call = np.full(len(self.steady), len(queue))
                last_call[stop] = call[rows]
                alive = call <= last_call[cols]
                call, cols, k, x, norms, guard_steps = (a[alive] for a in (call, cols, k, x, norms, guard_steps))

        finite = np.isfinite(x).all(axis=1)
        failure = self.check(np.where(finite[:, None], x, 0.0))
        failure[~finite] = "state became non-finite"
        failed = failure.astype(bool)
        if failed.any():
            first_failing = call == call[np.argmax(failed)]
            j = np.argmax(first_failing & (~finite if (first_failing & ~finite).any() else failed))
            raise PhysicsViolationError(failure[j], int(guard_steps[j]), float(self.times[k[j]]), cols[j])
        kept = np.ones(len(cols), dtype=bool)
        if self.stop_at_steady:  # a column keeps no sample past its first steady one
            kept = (self.steady[cols] < 0) | (k <= self.steady[cols])
        cols, k = cols[kept], k[kept]
        self.states[cols, k] = x[kept]
        self.rhs_norms[cols, k] = norms[kept]
        np.maximum.at(self.taken, cols, k + 1)


def rk4(samples: Samples, x: np.ndarray, dt: float, sample_every: int, n_steps: int) -> None:
    """Classical RK4 at the fixed step ``dt`` from ``x``, sampled every ``sample_every`` steps and at the last.

    At a sample each live column's state is taken as its next sample,
    ``queued``.  ``rhs_evals`` counts four evaluations per step and one per
    sample, for its dx/dt.
    """
    live = np.arange(len(x))
    a, k, r = samples.a, samples.k, samples.r
    for step in range(n_steps + 1):
        if step % sample_every == 0 or step == n_steps:
            sample = samples.queued[live]
            samples.steps[live], samples.rhs_evals[live] = step, 4 * step + sample + 1
            samples.take(live, sample, x)
            if step == n_steps:
                break
            stopped = samples.stopped[live]
            if stopped.any():
                keep = ~stopped
                live, x = live[keep], x[keep]
                if not live.size:
                    break
                a, k = samples.a[live], samples.k[live]
        k1 = field(x, a, k, r)
        k2 = field(x + (0.5 * dt) * k1, a, k, r)
        k3 = field(x + (0.5 * dt) * k2, a, k, r)
        k4 = field(x + dt * k3, a, k, r)
        x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _step_estimate(coefficients: np.ndarray, x: np.ndarray, width: int) -> np.ndarray:
    """Each row's step, in the time unit of its series, from the last two of its p + 1 coefficients X.

    0.9 min over j in {p - 1, p} of ||X_j||^(-1/j) (Jorba & Zou, sec. 3.2),
    with ||.|| the RMS over ``width`` >= n coordinates of
    X_j / (ATOL + RTOL |x|): the step at which those terms reach the
    tolerance.  A series that ends in zeros allows any step (inf), one with
    an infinite coefficient none (0), and one with a NaN reads NaN.
    """
    p = coefficients.shape[1] - 1
    tail = coefficients[:, p - 1 :] / (ATOL + RTOL * np.abs(x))[:, None, :]
    squares = np.matmul(tail, tail.swapaxes(1, 2))  # per row: [[|X_{p-1}|^2, .], [., |X_p|^2]]
    with np.errstate(divide="ignore"):
        return 0.9 * np.minimum((squares[:, 0, 0] / width) ** (-0.5 / (p - 1)),
                                (squares[:, 1, 1] / width) ** (-0.5 / p))


def taylor(samples: Samples, x: np.ndarray, dt: float, width: int) -> None:
    """Taylor series of order ``TAYLOR_ORDER`` under error control from ``x``, each column with its own step and clock.

    With time in units of ``dt``, so that the coefficients stay O(1), each
    step sets X_0 = x and, for j < p,

        (j + 1) X_{j+1} = X_j A + sum_{i <= j} (X_i . r)(X_{j-i} K),

    then takes the step of :func:`_step_estimate` over ``width`` >= n
    coordinates (those not stepped being 0), at most ``MAX_FACTOR`` times
    the last.  Its end state is read off the polynomial, and so is each
    sample t_k in (t, t + h], at (t_k - t)/dt, taken with the step counted.
    Each order is four stacked calls: the product with [A | K], the one with
    r, the convolution of X_i K with the sigma_i = X_i . r, held reversed and
    interleaved with the weight 1 of X_j A, and the scale.  A column whose
    step falls below the floor or whose estimate is not finite raises
    :class:`PhysicsViolationError`, unless the sample pass finds that it
    stopped at a steady state before.  ``rhs_evals`` counts ``TAYLOR_ORDER``
    per step and one per sample, for its dx/dt.
    """
    times = samples.times
    t_final = times[-1]
    floor = min(MIN_STEP_FRACTION * times[1], MAX_FLOOR_GRID_FRACTION * dt)
    p, n = TAYLOR_ORDER, x.shape[1]
    scales = 1.0 / np.arange(1, p + 1)
    r = samples.r[:, None]
    live = np.arange(len(x))
    samples.rhs_evals[live] += 1
    samples.take(live, np.zeros(live.size, dtype=int), x.copy())
    t = np.zeros(live.size)
    last = np.full(live.size, np.inf)  # the first step is the series' own
    leaving = np.zeros(live.size, dtype=bool)
    built = 0
    while True:
        leaving |= samples.stopped[live]
        if leaving.any():
            keep = ~leaving
            live, t, last, x, leaving = (a[keep] for a in (live, t, last, x, leaving))
        if not live.size:
            return
        if built != live.size:
            both = dt * np.concatenate((samples.a[live], samples.k[live]), axis=2)  # [A | K] per dt
            series = np.empty((live.size, p + 1, n))
            # rows 2j and 2j + 1: X_j A and X_j K
            products = np.empty((live.size, 2 * p, n))
            pairs = products.reshape(live.size, p, 1, 2 * n)
            # from the end: sigma_0, 1, sigma_1, 0, sigma_2, 0, ...; the last
            # 2j + 2 weigh the first 2j + 2 rows of products into (j + 1) X_{j+1}
            weights = np.zeros((live.size, 1, 2 * p))
            weights[:, 0, -2] = 1.0
            orders = [(series[:, j : j + 1], pairs[:, j], weights[:, :, 2 * (p - j) - 1 : 2 * (p - j)],
                       weights[:, :, 2 * (p - j - 1) :], products[:, : 2 * j + 2], series[:, j + 1 : j + 2])
                      for j in range(p)]
            built = live.size
        series[:, 0] = x
        for (x_j, pair, sigma_j, head, rows, x_next), scale in zip(orders, scales):
            np.matmul(x_j, both, out=pair)
            np.matmul(x_j, r, out=sigma_j)
            np.matmul(head, rows, out=x_next)
            np.multiply(x_next, scale, out=x_next)
        h = dt * _step_estimate(series, x, width)
        if np.isnan(h).any():
            j = np.argmax(np.isnan(h))
            samples.stepper_failure("step error estimate became non-finite", live[j], t[j])
            continue
        h = np.minimum(h, MAX_FACTOR * last)
        small = h < floor
        if small.any():
            j = np.argmax(small)
            samples.stepper_failure(f"step {h[j]:.3e} s below the floor of {floor:.3e} s", live[j], t[j])
            continue
        t_new = np.minimum(t + h, t_final)
        step = t_new - t
        x_new = _series(series, step / dt)

        # the samples in (t, t_new] of each column, read off its series
        first = samples.queued[live]
        due = np.searchsorted(times, t_new, side="right") - first
        samples.steps[live] += 1
        samples.rhs_evals[live] += p + due
        if due.any():
            rows = np.repeat(np.arange(live.size), due)  # one per sample
            k = first[rows] + np.arange(rows.size) - (np.cumsum(due) - due)[rows]
            samples.take(live[rows], k, _series(series[rows], (times[k] - t[rows]) / dt), stepped=1)
        t, x, last = t_new, x_new, step
        leaving = t_new == t_final
