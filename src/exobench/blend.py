"""Blend control: mixing the two single-stance torques.

The raw regressed phase is mapped to a pair of gains summing to one; the
assistive torque is the gain-weighted mix of the two stance compensations
plus the (unblended) friction/ripple terms.  Because the gains are
continuous in the joint angles, the commanded torque is continuous across
stance transitions.

When a gain is exactly zero the corresponding side is skipped entirely, so
a saturated phase reproduces the single-stance torque bit for bit and the
step gets cheaper.
"""

from __future__ import annotations

import functools
from math import isfinite
from typing import NamedTuple

import numpy as np

from .dynamics import (
    AccelerationEstimator,
    CompensationTables,
    StanceModel,
    _blended_tau,
)
from .errors import OutOfOrderFrameError
from .segmentation import GaitRegressor
from .streams import ANGLE_LIMIT, angle_error

_ZERO6 = (0.0,) * 6


class BlendGains(NamedTuple):
    """Stance mixing gains; each in [0, 1] and summing to one exactly."""

    gamma_l: float
    gamma_r: float


# BlendGains from a (gamma_l, gamma_r) pair, skipping NamedTuple's __new__
_new_gains = functools.partial(tuple.__new__, BlendGains)


def gains(raw_phase: float) -> BlendGains:
    """Gains from the raw (unclamped) phase: gamma_l = clamp((p+1)/2)."""
    if not isfinite(raw_phase):
        raise ValueError("raw_phase must be finite")
    gl = 0.5 * (raw_phase + 1.0)
    if gl < 0.0:
        gl = 0.0
    elif gl > 1.0:
        gl = 1.0
    return _new_gains((gl, 1.0 - gl))


def blend_gains(raw_phase) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised form of ``gains`` for arrays of raw phase values."""
    raw = np.asarray(raw_phase, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw_phase must be finite")
    gl = np.clip(0.5 * (raw + 1.0), 0.0, 1.0)
    return gl, 1.0 - gl


class AssistCommand(NamedTuple):
    """One control-step output, a plain value compared field by field.

    Every field is a native Python float, tuple of floats or bool.
    ``tau`` covers all six joints; entries for the passive ankles are
    informational only (see ``dynamics.ACTUATED_MASK``).  ``degraded``
    marks commands of the estimator's 0.1 s warm-up: zero qd and qdd, so
    no inertial term.  A command carries no wall-clock time; ``replay``
    times each ``ControlLoop.step`` call from outside.
    """

    t: float
    tau: tuple
    raw_phase: float
    gamma_l: float
    gamma_r: float
    degraded: bool
    qd: tuple
    qdd: tuple


# an AssistCommand from its eight fields, skipping NamedTuple's __new__
_new_command = functools.partial(tuple.__new__, AssistCommand)


class ControlLoop:
    """Deterministic single-threaded control pipeline.

    Each step regresses the gait phase, estimates joint
    velocity/acceleration from the incoming angle stream, and emits the
    blended assistance command.  Gains come from ``gains``, so a
    non-finite phase raises ValueError before the estimator or any torque
    sees the frame.  The estimator owns the loop's state: its ``last_t``
    is the time of the last frame taken.  The loop reads no clock;
    ``rate`` (Hz), positive and finite, sets the period replay counts
    overruns against.
    """

    def __init__(self, left: StanceModel, right: StanceModel,
                 regressor: GaitRegressor, tables: CompensationTables,
                 rate: float = 5000.0):
        if not (rate > 0 and isfinite(rate)):   # NaN included
            raise ValueError(f"rate must be positive and finite, got {rate}")
        self.left = left
        self.right = right
        self.regressor = regressor
        self.tables = tables
        self.rate = rate
        self.estimator = AccelerationEstimator()

    def reset(self):
        self.estimator.reset()

    def step(self, frame) -> AssistCommand:
        """The command for one sensor frame; raises OutOfOrderFrameError
        on a timestamp regression (the frame must be dropped) and
        ValueError on a non-finite timestamp or phase or an angle outside
        [-2pi, 2pi] rad.  A rejected frame changes no state: it raises
        before the estimator sees it, so the next frame is processed as if
        it had never arrived."""
        t = frame.t
        if not isfinite(t):
            raise ValueError(f"frame timestamp must be finite, got {t}")
        last = self.estimator.last_t
        if last is not None and t <= last:
            raise OutOfOrderFrameError(
                f"frame at t={t} after t={last}")
        q = frame.q
        raw = self.regressor.phase(q)
        gl, gr = gains(raw)   # rejects a non-finite phase
        # unrolled: min(q) and max(q) take about three times as long
        if not (abs(q[0]) <= ANGLE_LIMIT and abs(q[1]) <= ANGLE_LIMIT
                and abs(q[2]) <= ANGLE_LIMIT and abs(q[3]) <= ANGLE_LIMIT
                and abs(q[4]) <= ANGLE_LIMIT and abs(q[5]) <= ANGLE_LIMIT):
            raise angle_error(q)
        qd, qdd = self.estimator.push(t, q)
        degraded = qd is None
        if degraded:
            qd = qdd = _ZERO6
        tau6 = _blended_tau(q, qd, qdd, gl, gr, self.left, self.right,
                            self.tables)
        return _new_command((t, tau6, raw, gl, gr, degraded, tuple(qd),
                             tuple(qdd)))
