"""Blend control: mixing the two single-stance torques.

The raw regressed phase is mapped to a pair of gains summing to one; the
assistive torque is the gain-weighted mix of the two stance compensations
plus the (unblended) friction/ripple terms.  Because the gains are
continuous in the joint angles, the commanded torque is continuous across
stance transitions.

When a gain is exactly zero the corresponding side is skipped entirely, so
a saturated phase reproduces the single-stance torque bit for bit and the
step gets cheaper.  ``ControlLoop.step`` is one function per loop, compiled
from the phase, the gain law, the estimator's and both chains' statements
and the table lookups inlined as straight-line code: bit for bit what
``phase``, ``gains``, ``push`` and ``blended_torque`` compose.  A lookup
calls its table only when the query leaves the table's hint interval.
"""

from __future__ import annotations

import functools
from math import cos, isfinite, sin
from typing import NamedTuple

import numpy as np

from .dynamics import (
    AccelerationEstimator,
    CompensationTables,
    StanceModel,
    _compiled,
    _tracker_lines,
)
from .errors import OutOfOrderFrameError
from .segmentation import GaitRegressor
from .streams import ANGLE_LIMIT, angle_error


class BlendGains(NamedTuple):
    """Stance mixing gains; each in [0, 1] and summing to one exactly."""

    gamma_l: float
    gamma_r: float


# BlendGains from a (gamma_l, gamma_r) pair, skipping NamedTuple's __new__
_new_gains = functools.partial(tuple.__new__, BlendGains)


def gains(raw_phase: float) -> BlendGains:
    """Gains from the raw (unclamped) phase: gamma_l = clamp((p+1)/2).
    ``ControlLoop.step`` inlines these statements (``_step_source``)."""
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

    ``step(frame)``, compiled per loop over its parts (``_step_source``),
    regresses the gait phase, estimates joint velocity/acceleration from
    the incoming angle stream, and returns the blended assistance command.
    It raises OutOfOrderFrameError on a timestamp regression (the frame
    must be dropped) and ValueError on a non-finite timestamp or phase, an
    angle outside [-2pi, 2pi] rad or a step the estimator rejects, before
    any state changes, so the next frame is processed as if the rejected
    one had never arrived.  The estimator owns the loop's state: its
    ``last_t`` is the time of the last frame taken.  The loop reads no
    clock; ``rate`` (Hz), positive and finite, sets the period replay
    counts overruns against.
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
        self.step = self._bind()

    def _bind(self):
        """The compiled step over this loop's parts."""
        fr = self.tables._fr
        bind = _compiled(_step_source(self.left, self.right,
                                      [i for i, _, _ in fr]), "bind")
        return bind(self.estimator, self.regressor._w, _new_command,
                    OutOfOrderFrameError, angle_error, isfinite, sin, cos,
                    *(f for _, ftab, rtab in fr for f in (ftab, rtab)))

    def __reduce__(self):
        # pickle cannot name a generated function: rebuild the loop from its
        # parts, then bind its step to the estimator with its state
        return ControlLoop, (self.left, self.right, self.regressor,
                             self.tables, self.rate), self.estimator

    def __setstate__(self, estimator):
        self.estimator = estimator
        self.step = self._bind()

    def reset(self):
        self.estimator.reset()


def _lookup_lines(table: str, x: str, y: str) -> list:
    """Statements that set ``y`` to ``table(x)``, ``table`` the bound
    ``__call__`` of a ``LookupTable1D`` ``<table>tab``: its interpolation
    when ``x`` lies strictly inside the table's ``_hint`` interval, else
    the call, which clamps, bisects and moves the hint.  They read the
    table's lists as ``<table>bp``, ``<table>val``, ``<table>dx`` and
    ``<table>dy``."""
    return [f"k = {table}tab._hint",
            f"if {table}bp[k] < {x} < {table}bp[k + 1]:",
            f"    {y} = {table}val[k] + ({x} - {table}bp[k]) / {table}dx[k]"
            f" * {table}dy[k]",
            "else:",
            f"    {y} = {table}({x})"]


def _step_source(left: StanceModel, right: StanceModel, joints) -> str:
    """The text of ``bind(est, w, command, frame_error, angle_error,
    isfinite, sin, cos, f<i>, r<i> ...)``, which returns the step over
    those parts: ``w`` the regressor's six weights, ``f<i>`` and ``r<i>``
    the friction and ripple lookups of joint i in ``joints`` (bound
    ``LookupTable1D.__call__``, as in ``CompensationTables._fr``).
    The step inlines ``GaitRegressor.phase``, ``gains``, the tracker
    update, both chains and every table lookup that hits the table's hint
    (``_lookup_lines``).  Only the chains' constants are written in, so
    loops over equal models share the text."""
    angles = [f"q{j}" for j in range(6)]
    lookups = [f"{kind}{i}" for i in joints for kind in "fr"]
    limit = repr(ANGLE_LIMIT)
    lines = [
        "t, q = frame",
        "if not isfinite(t):",
        "    raise ValueError(f'frame timestamp must be finite, got {t}')",
        "last = est.last_t",
        "if last is not None and t <= last:",
        "    raise frame_error(f'frame at t={t} after t={last}')",
        f"{', '.join(angles)}, = q",
        "raw = " + " + ".join(f"w{j} * q{j}" for j in range(6)),
        "if not isfinite(raw):",
        "    raise ValueError('raw_phase must be finite')",
        "gl = 0.5 * (raw + 1.0)",
        "if gl < 0.0:",
        "    gl = 0.0",
        "elif gl > 1.0:",
        "    gl = 1.0",
        "gr = 1.0 - gl",
        "if not (" + " and ".join(f"-{limit} <= {a} <= {limit}"
                                  for a in angles) + "):",
        "    raise angle_error(q)",
        *_tracker_lines(),
        "if degraded:",
        f"    qd = qdd = {(0.0,) * 6!r}",
        "    " + " = ".join(f"{kind}{j}" for kind in "va" for j in range(6))
        + " = 0.0",
        " = ".join(f"o{j}" for j in range(6)) + " = 0.0",
    ]
    for gain, model in (("gl", left), ("gr", right)):
        lines += [f"if {gain} > 0.0:",
                  *("    " + line for line in model.chain.statements(
                      model.perm, "q{}", "a{}", f"o{{}} += {gain} * {{}}"))]
    for i in joints:
        lines += [*_lookup_lines(f"f{i}", f"v{i}", "yf"),
                  *_lookup_lines(f"r{i}", f"q{i}", "yr"),
                  f"o{i} += yf + yr"]
    lines.append("return command((t, (" + ", ".join(f"o{j}" for j in range(6))
                 + "), raw, gl, gr, degraded, qd, qdd))")
    return (f"def bind(est, w, command, frame_error, angle_error, isfinite, "
            f"sin, cos, {', '.join(lookups)}):\n"
            f"    {', '.join(f'w{j}' for j in range(6))} = w\n"
            + "".join(f"    {tab}tab = {tab}.__self__\n"
                      f"    {tab}bp, {tab}val, {tab}dx, {tab}dy = {tab}tab._bp, "
                      f"{tab}tab._val, {tab}tab._dx, {tab}tab._dy\n"
                      for tab in lookups)
            + "    def step(frame):\n"
            + "".join(f"        {line}\n" for line in lines)
            + "    return step\n")
