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

from dataclasses import dataclass
from math import isfinite
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .dynamics import (
    AccelerationEstimator,
    CompensationTables,
    StanceModel,
    blended_torque,
)
from .errors import OutOfOrderFrameError
from .segmentation import GaitRegressor

_ZERO6 = (0.0,) * 6


class BlendGains(NamedTuple):
    """Stance mixing gains; each in [0, 1] and summing to one exactly."""

    gamma_l: float
    gamma_r: float


def gains(raw_phase: float) -> BlendGains:
    """Gains from the raw (unclamped) phase: gamma_l = clamp((p+1)/2)."""
    if not isfinite(raw_phase):
        raise ValueError("raw_phase must be finite")
    gl = 0.5 * (raw_phase + 1.0)
    if gl < 0.0:
        gl = 0.0
    elif gl > 1.0:
        gl = 1.0
    return BlendGains(gl, 1.0 - gl)


def blend_gains(raw_phase) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised form of ``gains`` for arrays of raw phase values."""
    raw = np.asarray(raw_phase, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw_phase must be finite")
    gl = np.clip(0.5 * (raw + 1.0), 0.0, 1.0)
    return gl, 1.0 - gl


@dataclass(slots=True)
class AssistCommand:
    """One control-step output.

    ``tau`` covers all six joints; entries for the passive ankles are
    informational only (see ``dynamics.ACTUATED_MASK``).  ``degraded``
    marks commands of the estimator's 0.1 s warm-up: zero qd and qdd, so
    no inertial term.
    """

    t: float
    tau: tuple
    raw_phase: float
    gamma_l: float
    gamma_r: float
    degraded: bool
    qd: tuple
    qdd: tuple
    step_time_us: float = 0.0

    def tau_array(self) -> np.ndarray:
        return np.asarray(self.tau)


class ControlLoop:
    """Deterministic single-threaded control pipeline.

    Each step regresses the gait phase, estimates joint
    velocity/acceleration from the incoming angle stream, and emits the
    blended assistance command.  Gains come from ``gains``, so a
    non-finite phase raises ValueError before the estimator or any torque
    sees the frame.  ``rate`` (Hz) sets the period replay counts overruns
    against.
    """

    def __init__(self, left: StanceModel, right: StanceModel,
                 regressor: GaitRegressor, tables: CompensationTables,
                 rate: float = 5000.0):
        self.left = left
        self.right = right
        self.regressor = regressor
        self.tables = tables
        self.rate = rate
        self.estimator = AccelerationEstimator()
        self._last_t = None

    def reset(self):
        self.estimator.reset()
        self._last_t = None

    def step(self, frame) -> AssistCommand:
        """Process one sensor frame; raises OutOfOrderFrameError on a
        timestamp regression (the frame must be dropped) and ValueError on
        a non-finite timestamp or phase.  A rejected frame changes no
        state: it raises before the estimator sees it, so the next frame
        is processed as if it had never arrived."""
        t0 = perf_counter()
        t = frame.t
        if not isfinite(t):
            raise ValueError(f"frame timestamp must be finite, got {t}")
        last = self._last_t
        if last is not None and t <= last:
            raise OutOfOrderFrameError(
                f"frame at t={t} after t={last}")
        q = frame.q
        raw = self.regressor.phase(q)
        gl, gr = gains(raw)   # rejects a non-finite phase
        qd, qdd = self.estimator.push(t, q)
        degraded = qd is None
        if degraded:
            qd = qdd = _ZERO6
        tau6 = tuple(blended_torque(q, qd, qdd, gl, gr, self.left,
                                    self.right, self.tables).tolist())
        self._last_t = t
        cmd = AssistCommand(t=t, tau=tau6, raw_phase=raw, gamma_l=gl,
                            gamma_r=gr, degraded=degraded, qd=tuple(qd),
                            qdd=tuple(qdd))
        cmd.step_time_us = (perf_counter() - t0) * 1e6
        return cmd
