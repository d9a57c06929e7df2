"""A physics-free stepper for a block of states, the rows of a (B, n) float array.

Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, *Solving ODEs I*,
sec. II.4-II.6), steps each row with its own step and clock under error
control (``RTOL``, ``ATOL``); the samples, on a given grid of times, are read
off its order-7 dense output, so the step never has to land on them.
:func:`rk4` is classical RK4 at a fixed step.  As SciPy's ``solve_ivp`` keeps
the right-hand side, the dense output and the events apart (the idiom; SciPy
is not used), the caller hands :class:`Samples` two callables:
``rhs_for(columns)`` returns x -> dx/dt for those rows (its result may be a
buffer that the next call reuses), and ``check(x)`` returns each finite
row's guard failure, an object array of strings, empty where the row passes.
A stepper only steps and queues what its samples need; everything else runs
in stacked passes of up to ``SAMPLE_CHUNK`` samples, with the results, stops
and failures of checking each sample when it is taken.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

__all__ = ["PhysicsViolationError", "Samples", "dop853", "rk4"]

# queued samples per stacked sample pass; the result does not depend on it
SAMPLE_CHUNK = 64

# error control of the adaptive stepper, on each coordinate
RTOL = 1e-10
ATOL = 1e-12
# a step below this fraction of the sample interval (times[1], or the whole
# horizon if that is shorter) is a guard failure, so that a column the
# controller cannot follow stops instead of crawling; the floor never exceeds
# MAX_FLOOR_GRID_FRACTION of the first step dt, so a sparse sample grid cannot
# trip it on a healthy run
MIN_STEP_FRACTION = 1e-6
MAX_FLOOR_GRID_FRACTION = 1e-3
# step-size controller (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1.0 / 8.0

# Dormand-Prince 8(5,3), the tableau of Hairer's DOP853 code (ibid., sec. II.5
# and II.6), row by row as {stage: coefficient}: stages 1-11, the 8th-order
# weights (stage 12 is dx/dt at the new point), then the three extra stages
# of the dense output
_DOP853_A = (
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
     6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295, 5: -8.149787010746927,
     6: -18.52006565999696, 7: 22.739487099350505, 8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
     6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
     10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
     8: 0.3111643669578199, 9: -0.1521609496625161, 10: 0.20136540080403034,
     11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
     8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724,
     14: -9.15095847217987},
)
# 5th- and 3rd-order error estimators over stages 0-12
_DOP853_E = (
    {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
     7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
     10: 0.08192320648511571, 11: -0.022355307863886294},
    {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
     8: -0.4226823213237919, 9: -0.1521609496625161, 10: 0.20136540080403034,
     11: 0.02265179219836082},
)
# dense output: the coefficients of x^2(1-x)^2, x^3(1-x)^2, x^3(1-x)^3 and x^4(1-x)^3
_DOP853_D = (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917, 7: 2.38466765651207,
     8: 2.117034582445028, 9: -0.871391583777973, 10: 2.2404374302607883, 11: 0.6315787787694688,
     12: -0.08899033645133331, 13: 18.148505520854727, 14: -9.194632392478356,
     15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028, 7: -374.5467547226902,
     8: -22.113666853125306, 9: 7.733432668472264, 10: -30.674084731089398,
     11: -9.332130526430229, 12: 15.697238121770845, 13: -31.139403219565178,
     14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758, 7: 527.8081592054236,
     8: -11.57390253995963, 9: 6.8812326946963, 10: -1.0006050966910838, 11: 0.7777137798053443,
     12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716,
     15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455, 7: 357.6391179106141,
     8: 93.40532418362432, 9: -37.45832313645163, 10: 104.0996495089623, 11: 29.8402934266605,
     12: -43.53345659001114, 13: 96.32455395918828, 14: -39.17726167561544,
     15: -149.72683625798564},
)


def _tableau(rows: tuple[dict[int, float], ...], width: int, offset: int = 0) -> np.ndarray:
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[i, offset + j] = value
    return out


# A step keeps, per column, w[0] = the state at the start of the step and
# w[1 + i] = step * stage i, so every stage input, the new state, the error
# estimates and the dense output are one (1, m) @ (m, n) product each.  The
# stepper fills w[:_STEP_ROWS] (stages 0-12); the sample pass adds the dense
# output's stages 13-15.  Stage s (the new state for s = 12) from w[:s + 1]:
_STEP_ROWS = 14
_DOP853_STAGES = [None] + [
    np.hstack([np.ones((1, 1)), _tableau(_DOP853_A[s - 1 : s], s)]) for s in range(1, 16)
]
_DOP853_ERROR = _tableau(_DOP853_E, _STEP_ROWS, offset=1)  # from w[:_STEP_ROWS]


def _dense_output_rows() -> np.ndarray:
    """Hairer's continuous extension of DOP853 as one row of w-coefficients per power of x.

    y(x) = y0 + x F0 + x(1-x) F1 + x^2(1-x) F2 + x^2(1-x)^2 F3 + x^3(1-x)^2 F4
    + x^3(1-x)^3 F5 + x^4(1-x)^3 F6, with F0 = dy, F1 = h k0 - dy,
    F2 = 2 dy - h (k0 + k12) and F3..F6 = h D k.  Regrouped over y0, dy = B h k,
    h k0, h k12 and the rows of D, the weights are 1, 3x^2 - 2x^3, x(1-x)^2,
    -x^2(1-x), x^2(1-x)^2, x^3(1-x)^2, x^3(1-x)^3 and x^4(1-x)^3.
    """
    weights_in_powers = np.array([  # one column per weight, x^0 to x^7 down
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 3, -2, -1, 1, 0, 0, 0],
        [0, -2, 1, 1, -2, 1, 1, 0],
        [0, 0, 0, 0, 1, -2, -3, 1],
        [0, 0, 0, 0, 0, 1, 3, -3],
        [0, 0, 0, 0, 0, 0, -1, 3],
        [0, 0, 0, 0, 0, 0, 0, -1],
    ], dtype=float)
    return weights_in_powers @ np.vstack([
        np.eye(1, 17),
        _tableau(_DOP853_A[11:12], 17, offset=1),
        np.eye(1, 17, 1),
        np.eye(1, 17, 13),
        _tableau(_DOP853_D, 17, offset=1),
    ])


_DOP853_DENSE = _dense_output_rows()


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


class Samples:
    """Sample store, steady detection and work counts of a block of columns.

    Every array is indexed by block column: the stored ``states`` and
    ``rhs_norms`` (the norm of dx/dt), ``taken`` (samples stored), ``steady``
    (the first sample with a norm below ``threshold``, or -1), ``steps`` and
    ``rhs_evals``.  A stepper only steps: for the samples due in a step it
    queues one record per column with :meth:`take` (the step's end state and
    dx/dt there; for a DOP853 step with samples inside it also the start
    time, the step and the stages; the sample range; and ``steps`` and
    ``rhs_evals`` as they stand after the step).  :meth:`flush` turns the
    queue into samples as stacks, once at least ``SAMPLE_CHUNK`` samples are
    queued, when the stepper fails and at the end of the run: the three
    extra stages and the order-7 interpolation of the dense output, dx/dt at
    the samples inside a step (one ``rhs_for`` call over all of them), the
    norms, steady detection, the guards and the store.

    Each column's results, stop and failure are those of checking every
    sample when it is taken.  Under ``stop_at_steady`` a column ends at its
    first steady sample: the rows of the step that holds it are guarded as
    usual and stored up to it; its later records are dropped unguarded; its
    ``steps`` and ``rhs_evals`` are those recorded with that step; and it is
    marked in ``stopped``, for the stepper to drop.
    """

    def __init__(self, times: np.ndarray, thresholds: Sequence[float], stop_at_steady: bool,
                 rhs_for: Callable, check: Callable, n: int):
        b = len(thresholds)
        self.times, self.threshold = times, np.asarray(thresholds, dtype=float)
        self.stop_at_steady, self.rhs_for, self.check = stop_at_steady, rhs_for, check
        self.states = np.empty((b, len(times), n))
        self.rhs_norms = np.empty((b, len(times)))
        self.queued = np.zeros(b, dtype=int)  # samples handed to take
        self.taken = np.zeros(b, dtype=int)  # samples stored
        self.steady = np.full(b, -1)
        self.stopped = np.zeros(b, dtype=bool)
        self.steps = np.zeros(b, dtype=int)
        self.rhs_evals = np.zeros(b, dtype=int)
        self._no_dense = (np.empty(0), np.empty(0), np.empty((0, _STEP_ROWS, n)))
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

    def take(self, cols: np.ndarray, x: np.ndarray, f: np.ndarray, due: np.ndarray | None = None,
             inside: np.ndarray | None = None, dense: tuple[np.ndarray, ...] | None = None,
             stepped: int = 0) -> None:
        """Queue the next ``due`` samples (default 1) of columns ``cols``, one record each.

        ``x`` and ``f`` are each column's state and dx/dt at the end of its
        step, which is the time of its last sample unless that lies inside
        the step.  The first ``inside`` samples (default none) lie inside it;
        ``dense`` gives the start time, the step and ``w[:_STEP_ROWS]`` of
        each column with ``inside > 0``.  A failure reports the step count
        less ``stepped``, the count before this step.
        """
        due = np.ones(len(cols), dtype=int) if due is None else due
        inside = np.zeros(len(cols), dtype=int) if inside is None else inside
        steps = self.steps[cols]
        self._queue.append((cols, self.queued[cols], due, inside, steps - stepped, steps,
                            self.rhs_evals[cols], x, f, *(self._no_dense if dense is None else dense)))
        self.queued[cols] += due
        self._pending += int(due.sum())
        if self._pending >= SAMPLE_CHUNK:
            self.flush()

    def flush(self) -> None:
        """Turn the queued records into stored samples, as one stack.

        Raises for the sample that a check at :meth:`take` would have raised
        for: the earliest :meth:`take` with a failing row, within it a
        non-finite row first, else the first row that ``check`` fails, with
        that record's step count.
        """
        if not self._queue:
            return
        queue, self._queue, self._pending = self._queue, [], 0
        call = np.repeat(np.arange(len(queue)), [len(entry[0]) for entry in queue])
        cols, first, due, inside, guard_steps, steps, rhs_evals, x_end, f_end, t0, h, w = (
            np.concatenate(part) for part in zip(*queue)
        )
        record = np.repeat(np.arange(len(cols)), due)  # one row per sample
        offset = np.arange(record.size) - np.repeat(np.cumsum(due) - due, due)
        k = first[record] + offset
        x, f = x_end[record], f_end[record]
        interior = np.flatnonzero(offset < inside[record])
        if interior.size:
            dense = inside > 0
            x[interior], f[interior] = self._dense_output(
                k[interior], cols[record[interior]], (np.cumsum(dense) - 1)[record[interior]],
                cols[dense], t0, h, w)
        call, cols = call[record], cols[record]
        norms = np.sqrt(np.matmul(f[:, None, :], f[:, :, None])[:, 0, 0])

        fresh = (self.steady[cols] < 0) & (norms < self.threshold[cols])
        if fresh.any():  # each column's first row below the threshold
            below = np.flatnonzero(fresh)
            rows = below[np.unique(cols[below], return_index=True)[1]]
            self.steady[cols[rows]] = k[rows]
            if self.stop_at_steady:  # a column's takes after its stop never happened
                stop = cols[rows]
                self.stopped[stop] = True
                self.steps[stop], self.rhs_evals[stop] = steps[record[rows]], rhs_evals[record[rows]]
                last_call = np.full(len(self.steady), len(queue))
                last_call[stop] = call[rows]
                alive = call <= last_call[cols]
                call, cols, k, x, norms, record = (a[alive] for a in (call, cols, k, x, norms, record))

        finite = np.isfinite(x).all(axis=1)
        failure = self.check(np.where(finite[:, None], x, 0.0))
        failure[~finite] = "state became non-finite"
        failed = failure.astype(bool)
        if failed.any():
            first_failing = call == call[np.argmax(failed)]
            j = np.argmax(first_failing & (~finite if (first_failing & ~finite).any() else failed))
            raise PhysicsViolationError(failure[j], int(guard_steps[record[j]]), float(self.times[k[j]]), cols[j])
        kept = np.ones(len(cols), dtype=bool)
        if self.stop_at_steady:  # a column keeps no sample past its first steady one
            kept = (self.steady[cols] < 0) | (k <= self.steady[cols])
        cols, k = cols[kept], k[kept]
        self.states[cols, k] = x[kept]
        self.rhs_norms[cols, k] = norms[kept]
        np.maximum.at(self.taken, cols, k + 1)

    def _dense_output(self, k: np.ndarray, cols: np.ndarray, step_of: np.ndarray, step_cols: np.ndarray,
                      t0: np.ndarray, h: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """States and dx/dt at samples ``k`` of columns ``cols`` from DOP853's dense output.

        Sample i lies inside step ``step_of[i]``, which column ``step_cols``
        took from ``t0`` over ``h`` with stages ``w[:, :_STEP_ROWS]``.
        """
        stages = np.empty((len(w), 17, w.shape[2]))
        stages[:, :_STEP_ROWS] = w
        rhs = self.rhs_for(step_cols)
        for s in range(13, 16):
            y = np.matmul(_DOP853_STAGES[s], stages[:, : s + 1])[:, 0]
            stages[:, s + 1] = h[:, None] * rhs(y)
        theta = (self.times[k] - t0[step_of]) / h[step_of]
        powers = theta[:, None, None] ** np.arange(8)
        x = np.matmul(np.matmul(powers, _DOP853_DENSE), stages[step_of])[:, 0]
        return x, self.rhs_for(cols)(x)


def rk4(samples: Samples, x: np.ndarray, dt: float, sample_every: int, n_steps: int) -> None:
    """Classical RK4 at the fixed step ``dt`` from ``x``, sampled every ``sample_every`` steps and at the last."""
    live = np.arange(len(x))
    rhs = samples.rhs_for(live)
    for step in range(n_steps + 1):
        k1 = None
        if step % sample_every == 0 or step == n_steps:
            # four evaluations a step; the one at this sample is the next step's k1
            samples.steps[live], samples.rhs_evals[live] = step, 4 * step + 1
            k1 = rhs(x).copy()
            samples.take(live, x, k1)
            if step == n_steps:
                break
            stopped = samples.stopped[live]
            if stopped.any():
                keep = ~stopped
                live, x, k1 = live[keep], x[keep], k1[keep]
                if not live.size:
                    break
                rhs = samples.rhs_for(live)
        if k1 is None:
            k1 = rhs(x).copy()
        k2 = rhs(x + (0.5 * dt) * k1).copy()
        k3 = rhs(x + (0.5 * dt) * k2).copy()
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _error_norm(w: np.ndarray, x: np.ndarray, x_new: np.ndarray) -> np.ndarray:
    """DOP853's blend of its 5th- and 3rd-order error estimates, per column, as an RMS over the width of x."""
    b, n = x.shape
    scale = ATOL + RTOL * np.maximum(np.abs(x), np.abs(x_new))
    err = np.matmul(_DOP853_ERROR, w)
    err /= scale[:, None, :]
    squares = np.matmul(err, err.swapaxes(1, 2))  # per column: [[|e5|^2, .], [., |e3|^2]]
    e5, e3 = squares[:, 0, 0], squares[:, 1, 1]
    denom = e5 + 0.01 * e3
    return np.divide(e5, np.sqrt(denom * n), out=np.zeros(b), where=denom != 0.0)


def dop853(samples: Samples, x: np.ndarray, dt: float, width: int) -> None:
    """DOP853 under error control from ``x``, each column with its own step and clock.

    The first step is ``dt``, and the error an RMS over ``width`` >= n
    coordinates, those not stepped being 0.  A column whose step falls below
    the floor or whose error estimate is not finite raises
    :class:`PhysicsViolationError`, unless the sample pass finds that it
    stopped at a steady state before.  The stages go into buffers of the
    live block, rebuilt only when a column leaves; an accepted step with
    samples due queues them with :meth:`Samples.take`, which works out
    everything else they need.
    """
    times = samples.times
    t_final = times[-1]
    floor = min(MIN_STEP_FRACTION * times[1], MAX_FLOOR_GRID_FRACTION * dt)
    rms_over_width = math.sqrt(x.shape[1] / width)
    live = np.arange(len(x))
    f = samples.rhs_for(live)(x)
    samples.rhs_evals[live] += 1
    samples.take(live, x.copy(), f.copy())  # x, t and f are updated in place below
    t = np.zeros((live.size, 1))
    h = np.full((live.size, 1), dt)
    rejected = np.zeros(live.size, dtype=bool)
    leaving = np.zeros(live.size, dtype=bool)
    built = 0
    while True:
        leaving |= samples.stopped[live]
        if leaving.any():
            keep = ~leaving
            live, t, h, x, f, rejected, leaving = (
                a[keep] for a in (live, t, h, x, f, rejected, leaving)
            )
        if not live.size:
            return
        if built != live.size:
            # w[:, 0] is the state at the step's start, w[:, 1 + i] the step times stage i
            w = np.empty((live.size, _STEP_ROWS, x.shape[1]))
            heads = [w[:, : s + 1] for s in range(_STEP_ROWS)]
            rows = list(w.swapaxes(0, 1))
            stage = np.empty((live.size, 1, x.shape[1]))
            x_new = stage[:, 0]
            rhs = samples.rhs_for(live)
            built = live.size
        small = h[:, 0] < floor
        if small.any():
            j = np.argmax(small)
            samples.stepper_failure(f"step {h[j, 0]:.3e} s below the floor of {floor:.3e} s", live[j], t[j, 0])
            continue
        t_new = np.minimum(t + h, t_final)
        step = t_new - t
        rows[0][...] = x
        np.multiply(step, f, out=rows[1])
        for s in range(1, 13):
            np.matmul(_DOP853_STAGES[s], heads[s], out=stage)  # stage s's state; at s = 12 the new one
            f_new = rhs(x_new)
            np.multiply(f_new, step, out=rows[s + 1])
        err = _error_norm(w, x, x_new) * rms_over_width
        if not np.isfinite(err).all():
            j = np.argmin(np.isfinite(err))
            samples.stepper_failure("step error estimate became non-finite", live[j], t[j, 0])
            continue
        accepted = err < 1.0
        factor = SAFETY * np.maximum(err, 1e-300) ** ERROR_EXPONENT
        grow = np.minimum(MAX_FACTOR, factor)
        grow = np.where(rejected, np.minimum(1.0, grow), grow)
        h = step * np.where(accepted, grow, np.maximum(MIN_FACTOR, factor))[:, None]
        rejected = ~accepted

        # the samples in (t, t_new] of each accepted column; those strictly
        # inside the step need the three extra stages of the dense output and
        # one evaluation each
        first = samples.queued[live]
        due = np.where(accepted, np.searchsorted(times, t_new[:, 0], side="right") - first, 0)
        inside = np.where(accepted, np.searchsorted(times, t_new[:, 0], side="left") - first, 0)
        samples.steps[live] += accepted
        samples.rhs_evals[live] += 12 + np.where(inside > 0, 3 + inside, 0)
        if due.any():
            sel = np.flatnonzero(due)
            dense = sel[inside[sel] > 0]
            samples.take(live[sel], x_new[sel], f_new[sel], due[sel], inside[sel],
                         (t[dense, 0], step[dense, 0], w[dense]), stepped=1)

        for now, new in ((t, t_new), (x, x_new), (f, f_new)):
            np.copyto(now, new, where=accepted[:, None])
        leaving = accepted & (t_new[:, 0] == t_final)
