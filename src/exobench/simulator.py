"""Synthetic gait generation and closed-loop replay.

Joint trajectories are sinusoid templates with the two legs half a cycle
apart; the knee carries second- and third-harmonic content so a linear
phase regressor has the features it needs.  Sole loads follow a flat-top
profile whose transitions span the double-support fraction of the cycle,
so the load-share label moves smoothly between -1 and +1.  The template
is the module constants ``HIP_AMPLITUDE`` through ``TOTAL_LOAD``, and
``check_size`` is the one rule for the size of a generated stream.

Everything is reproducible from an explicit seed.

Replay comes in two forms with the same commands bit for bit.  ``replay``
streams every frame through ``ControlLoop.step``; it is the reference and
the only source of per-step wall times.  ``replay_batch`` computes the
same causal outputs over blocks of frames and records no step times;
offline analysis uses it and times a short streaming probe instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from .blend import ControlLoop, blend_gains
from .dynamics import WARMUP_S, AccelerationEstimator, blended_torque_array
from .errors import OutOfOrderFrameError
from .streams import (ANGLE_LIMIT, ROWS_PER_CHUNK, SensorFrame,
                      SensorStream, write_rows)

TREADMILL_SPEEDS_KMH = (1.0, 1.5, 2.0, 2.5, 3.0)
SWINGS_PER_SIDE = 3          # leg-swing cycles per side in training
TREADMILL_DURATION_S = 112.8  # split evenly over the treadmill speeds
MAX_FRAMES = 5_000_000       # the largest rate x seconds sim generates

# the waveform template: radians, and radians of phase
HIP_AMPLITUDE = 0.32
KNEE_AMPLITUDE = 0.42
ANKLE_AMPLITUDE = 0.14
HIP_PHASE = -0.4 * math.pi
ANKLE_PHASE = 0.25 * math.pi
KNEE_STANCE_FRACTION = 0.25   # 2nd harmonic, relative to KNEE_AMPLITUDE
KNEE_STANCE_PHASE = 0.6
KNEE_THIRD_FRACTION = 0.18    # 3rd harmonic, relative to KNEE_AMPLITUDE
HIP_OFFSET = 0.05
KNEE_OFFSET = 0.62
TOTAL_LOAD = 750.0            # body + device weight on the soles, N


@dataclass(frozen=True)
class GaitPattern:
    """What varies between synthetic walkers; the waveform template is the
    module constants ``HIP_AMPLITUDE`` through ``TOTAL_LOAD``.
    ``cadence`` is in steps/min (one cycle = two steps), and
    ``double_support_fraction`` the fraction of the cycle with both feet
    loaded.
    """

    cadence: float = 100.0
    double_support_fraction: float = 0.36
    treadmill_speed: float = 2.0
    angle_noise: float = 0.004           # rad, 1 sigma
    load_noise: float = 4.0              # N, 1 sigma

    def __post_init__(self):
        if self.cadence <= 0:
            raise ValueError("cadence must be positive")
        if not 0.0 <= self.double_support_fraction <= 0.4:
            raise ValueError("double_support_fraction must lie in [0, 0.4]")
        if self.treadmill_speed <= 0:
            raise ValueError("treadmill_speed must be positive")
        if self.angle_noise < 0 or self.load_noise < 0:
            raise ValueError("noise levels must be non-negative")

    @property
    def cycle_duration(self) -> float:
        """Seconds per full gait cycle (two steps)."""
        return 120.0 / self.cadence

    def at_speed(self, speed_kmh: float) -> "GaitPattern":
        """Same templates, cadence scaled linearly with treadmill speed
        (reference: the default speed)."""
        scale = speed_kmh / self.treadmill_speed
        return replace(self, cadence=self.cadence * scale,
                       treadmill_speed=speed_kmh)


# -- waveform templates ------------------------------------------------------


def _hip(psi):
    return HIP_AMPLITUDE * np.sin(2 * np.pi * psi + HIP_PHASE) + HIP_OFFSET


def _knee(psi):
    a1 = KNEE_AMPLITUDE
    return (KNEE_OFFSET
            + a1 * np.sin(2 * np.pi * psi)
            + KNEE_STANCE_FRACTION * a1 * np.sin(4 * np.pi * psi
                                                 + KNEE_STANCE_PHASE)
            + KNEE_THIRD_FRACTION * a1 * np.sin(6 * np.pi * psi))


def _ankle(psi):
    return ANKLE_AMPLITUDE * np.sin(2 * np.pi * psi + ANKLE_PHASE)


def joint_angles(psi) -> np.ndarray:
    """Six joint angles (RH, RK, RA, LH, LK, LA) at cycle phase psi.

    The right leg runs at phase ``psi``, the left leg half a cycle ahead;
    the left foot is the grounded one for psi in (0, 0.5).
    """
    psi = np.asarray(psi, dtype=float) % 1.0
    psi_l = (psi + 0.5) % 1.0
    return np.column_stack([
        _hip(psi), _knee(psi), _ankle(psi),
        _hip(psi_l), _knee(psi_l), _ankle(psi_l),
    ])


def load_share(psi, double_support_fraction: float):
    """Smooth load-share waveform in [-1, +1] over cycle phase.

    +1 during left single support, -1 during right single support, with a
    sinusoidal crossfade across each double-support window.  A zero
    double-support fraction gives an instantaneous handover (the two feet
    are never loaded simultaneously).
    """
    psi = np.asarray(psi, dtype=float) % 1.0
    s = np.where(psi < 0.5, 1.0, -1.0)
    r = double_support_fraction / 2.0
    if r == 0:
        return s
    d0 = np.where(psi > 0.5, psi - 1.0, psi)
    s = np.where(np.abs(d0) <= r / 2, np.sin(np.pi * d0 / np.maximum(r, 1e-12)), s)
    d5 = psi - 0.5
    s = np.where(np.abs(d5) <= r / 2, -np.sin(np.pi * d5 / np.maximum(r, 1e-12)), s)
    return s


def _assemble(pat: GaitPattern, t, q, share, rng, stage) -> SensorStream:
    n = t.size
    left = TOTAL_LOAD * (1.0 + share) / 2.0
    right = TOTAL_LOAD * (1.0 - share) / 2.0
    if pat.angle_noise > 0:
        q = q + rng.normal(scale=pat.angle_noise, size=q.shape)
    if pat.load_noise > 0:
        # noise never un-grounds a foot or loads an airborne one
        left = np.where(left > 0, np.maximum(left + rng.normal(
            scale=pat.load_noise, size=n), 1e-9), 0.0)
        right = np.where(right > 0, np.maximum(right + rng.normal(
            scale=pat.load_noise, size=n), 1e-9), 0.0)
    return SensorStream(t=t, q=q, left_load=left, right_load=right,
                        stage=np.full(n, stage, dtype=object))


def _check_rate(rate: float) -> None:
    if not 100 <= rate < math.inf:   # NaN included
        raise ValueError(f"sample rate must be at least 100 Hz and finite, "
                         f"got {rate}")


def check_size(rate: float, seconds: float) -> None:
    """Raise ValueError unless sim may generate ``seconds`` at ``rate`` Hz:
    a finite rate >= 100 Hz, a finite duration > 0, and at most
    ``MAX_FRAMES`` frames (1,000 s at 5 kHz, about 1 GB while generated)."""
    _check_rate(rate)
    if not 0 < seconds < math.inf:   # NaN included
        raise ValueError(f"duration must be positive and finite, "
                         f"got {seconds} s")
    frames = rate * seconds
    if not frames <= MAX_FRAMES:
        raise ValueError(f"{seconds:g} s at {rate:g} Hz is {frames:g} frames; "
                         f"a generated stream holds at most {MAX_FRAMES}")


def generate_cycle(pattern: GaitPattern, rate: float, cycles: int,
                   seed: int = 0, stage: str = "gait",
                   t_start: float = 0.0) -> SensorStream:
    """Periodic gait frames at the given sample rate, ``cycles`` cycles long."""
    _check_rate(rate)
    if not 0 < cycles < math.inf:
        raise ValueError(f"cycles must be positive and finite, got {cycles}")
    rng = np.random.default_rng(seed)
    n = round(cycles * pattern.cycle_duration * rate)
    t = t_start + np.arange(n) / rate
    psi = ((t - t_start) / pattern.cycle_duration) % 1.0
    q = joint_angles(psi)
    share = load_share(psi, pattern.double_support_fraction)
    return _assemble(pattern, t, q, share, rng, stage)


def _swing_stage(pattern: GaitPattern, side: str, rate: float, rng,
                 t_start: float) -> SensorStream:
    """Leg-swing exercise: the grounded leg holds a mid-stance pose while
    the other sweeps its swing half-cycle back and forth."""
    duration = SWINGS_PER_SIDE * pattern.cycle_duration
    n = round(duration * rate)
    t = t_start + np.arange(n) / rate
    u = (t - t_start) / pattern.cycle_duration
    # own-phase of the swinging leg oscillates over its swing window
    ph = 0.25 + 0.25 * np.sin(2 * np.pi * u)
    hold = 0.75  # grounded leg frozen mid single-support
    swing_cols = np.column_stack([_hip(ph), _knee(ph), _ankle(ph)])
    hold_cols = np.tile([float(_hip(hold)), float(_knee(hold)),
                         float(_ankle(hold))], (n, 1))
    if side == "left":
        q = np.hstack([hold_cols, swing_cols])   # right grounded
        share = -np.ones(n)
        stage = "left_swing"
    else:
        q = np.hstack([swing_cols, hold_cols])   # left grounded
        share = np.ones(n)
        stage = "right_swing"
    return _assemble(pattern, t, q, share, rng, stage)


def generate_training_protocol(pattern: GaitPattern | None = None,
                               seed: int = 0, rate: float = 100.0) -> SensorStream:
    """The full training recording: left swings, right swings, then a
    treadmill sweep over the speed steps, roughly two minutes in all."""
    pattern = pattern or GaitPattern()
    check_size(rate, 2 * SWINGS_PER_SIDE * pattern.cycle_duration
               + TREADMILL_DURATION_S)
    rng = np.random.default_rng(seed)
    parts = []
    t_cursor = 0.0
    for side in ("left", "right"):
        part = _swing_stage(pattern, side, rate, rng, t_cursor)
        parts.append(part)
        t_cursor = part.t[-1] + 1.0 / rate
    seg_duration = TREADMILL_DURATION_S / len(TREADMILL_SPEEDS_KMH)
    for speed in TREADMILL_SPEEDS_KMH:
        pat_v = pattern.at_speed(speed)
        cycles = max(1, round(seg_duration / pat_v.cycle_duration))
        part = generate_cycle(pat_v, rate, cycles, seed=rng.integers(2**32),
                              stage=f"treadmill_{speed:g}", t_start=t_cursor)
        parts.append(part)
        t_cursor = part.t[-1] + 1.0 / rate
    return SensorStream.concatenate(parts)


# -- closed-loop replay ------------------------------------------------------


@dataclass
class TimingReport:
    """Wall-clock step-time distribution in microseconds; ``overruns``
    counts steps slower than the loop's sample period."""

    steps: int
    p50_us: float
    p95_us: float
    p99_us: float
    max_us: float
    overruns: int


@dataclass
class SmoothnessReport:
    """Inter-step torque-jump statistics over a replayed corpus.

    Jumps touching degraded commands, those of the estimator's 0.1 s
    warm-up, are excluded: the inertial term switching on as the qd/qdd
    tracker settles is a flagged start-up event, not a property of the
    blend law.
    """

    median_jump: float
    max_jump: float
    jump_ratio: float      # max / median
    lipschitz: float       # max jump / sample period, Nm/s


@dataclass
class ReplayResult:
    """A replayed command stream.  ``step_us`` (wall time per step) and
    ``period_us`` (the loop's sample period) exist only for streaming
    ``replay``; ``replay_batch`` leaves them None."""

    t: np.ndarray
    raw_phase: np.ndarray
    gamma_l: np.ndarray
    tau: np.ndarray
    degraded: np.ndarray
    dropped_frames: int
    step_us: np.ndarray | None = None
    period_us: float | None = None

    @property
    def commands(self) -> int:
        return self.t.size

    def _step_times(self) -> np.ndarray:
        if self.step_us is None:
            raise ValueError("a batch replay has no step times; "
                             "time a streaming replay() instead")
        return self.step_us

    def timing(self) -> TimingReport:
        us = self._step_times()
        return TimingReport(
            steps=int(us.size),
            p50_us=float(np.percentile(us, 50)),
            p95_us=float(np.percentile(us, 95)),
            p99_us=float(np.percentile(us, 99)),
            max_us=float(np.max(us)),
            overruns=int(np.count_nonzero(us > self.period_us)),
        )

    def smoothness(self) -> SmoothnessReport:
        jumps = np.max(np.abs(np.diff(self.tau, axis=0)), axis=1)
        settled = ~self.degraded[:-1] & ~self.degraded[1:]
        jumps = jumps[settled]
        if jumps.size == 0:
            span = float(np.ptp(self.t)) if self.commands else 0.0
            raise ValueError(
                f"no settled command pairs to measure: the stream spans "
                f"{span:.3f} s, and the acceleration estimator gives no "
                f"estimate in its first {WARMUP_S} s")
        median = float(np.median(jumps))
        peak = float(np.max(jumps))
        dt = float(np.median(np.diff(self.t)))
        return SmoothnessReport(
            median_jump=median,
            max_jump=peak,
            jump_ratio=peak / median if median > 0 else math.inf,
            lipschitz=peak / dt if dt > 0 else math.inf,
        )

    def save_csv(self, path):
        write_rows(path, "t,raw_phase,gamma_l,tau_rh,tau_rk,tau_ra,tau_lh,"
                   "tau_lk,tau_la,step_time_us\n",
                   [self.t, self.raw_phase, self.gamma_l, *self.tau.T,
                    self._step_times()], ",".join(["%r"] * 10) + "\n")


def replay(stream: SensorStream, loop: ControlLoop) -> ReplayResult:
    """Feed every frame through the control loop, reset first, and collect
    the command stream plus timing; out-of-order frames are dropped and
    counted.  A step's time is the wall clock read just before and just
    after its ``ControlLoop.step`` call."""
    n = len(stream)
    t = np.empty(n)
    raw = np.empty(n)
    gl = np.empty(n)
    tau = np.empty((n, 6))
    us = np.empty(n)
    deg = np.empty(n, dtype=bool)
    k = 0
    dropped = 0
    loop.reset()
    step = loop.step
    for frame in stream.frames():
        try:
            t0 = perf_counter()
            cmd = step(frame)
            t1 = perf_counter()
        except OutOfOrderFrameError:
            dropped += 1
            continue
        t[k], tau[k], raw[k], gl[k], _, deg[k], _, _ = cmd
        us[k] = (t1 - t0) * 1e6
        k += 1
    return ReplayResult(t=t[:k], raw_phase=raw[:k], gamma_l=gl[:k],
                        tau=tau[:k], degraded=deg[:k], dropped_frames=dropped,
                        step_us=us[:k], period_us=1e6 / loop.rate)


def replay_batch(stream: SensorStream, loop: ControlLoop) -> ReplayResult:
    """``replay`` evaluated over arrays: the same ``t``, raw phase, gains,
    torques, degraded flags and dropped-frame count bit for bit, without
    step times.  The estimator and the torque run over blocks of
    ``ROWS_PER_CHUNK`` kept frames into preallocated outputs, one fresh
    ``AccelerationEstimator`` continuing across the blocks.

    Raises where ``ControlLoop.step`` would, with its message: a fresh loop
    steps the first frame with a non-finite timestamp, or the first kept
    frame with a non-finite phase or an angle outside [-2pi, 2pi] rad.  It
    reads the loop's parts, never its state.
    """
    t_all, q_all = stream.t, stream.q
    # a frame is kept when it is later than every frame before it
    keep = np.ones(t_all.size, dtype=bool)
    keep[1:] = t_all[1:] > np.maximum.accumulate(t_all)[:-1]
    t, q = t_all[keep], q_all[keep]
    with np.errstate(over="ignore", invalid="ignore"):   # rejected below
        raw = loop.regressor.phase_array(q)
    bad = ~np.isfinite(t_all)
    bad[keep] |= ~(np.isfinite(raw) & (np.abs(q) <= ANGLE_LIMIT).all(axis=1))
    if bad.any():
        i = bad.argmax()
        ControlLoop(loop.left, loop.right, loop.regressor, loop.tables).step(
            SensorFrame(float(t_all[i]), tuple(q_all[i].tolist())))
    gl, gr = blend_gains(raw)
    estimator = AccelerationEstimator()
    tau = np.empty(q.shape)
    ready = np.empty(t.size, dtype=bool)
    for start in range(0, t.size, ROWS_PER_CHUNK):
        rows = slice(start, start + ROWS_PER_CHUNK)
        qd, qdd, ready[rows] = estimator.estimate_array(t[rows], q[rows])
        tau[rows] = blended_torque_array(q[rows], qd, qdd, gl[rows], gr[rows],
                                         loop.left, loop.right, loop.tables)
    return ReplayResult(t=t, raw_phase=raw, gamma_l=gl, tau=tau,
                        degraded=~ready,
                        dropped_frames=int(t_all.size - t.size))
