"""Retired forms the tests pin today's code to bit for bit: the control
step and the estimator update as plain Python, which the compiled
``ControlLoop.step`` and ``AccelerationEstimator.push`` replaced, and
``windowed_features`` with one give-up block per estimator and the
respiration source chosen in every window."""

from math import isfinite

import numpy as np

from exobench.biosignal import (LF_CONTEXT_S, PHASES, WINDOW_S, FeatureWindow,
                                _window_intervals, gsr_decompose, hr_rmssd,
                                lf_power, respiration_rate)
from exobench.blend import AssistCommand, _new_command, gains
from exobench.dynamics import WARMUP_S, _tracker_gains, blended_torque
from exobench.errors import InsufficientDataError, OutOfOrderFrameError
from exobench.streams import ANGLE_LIMIT, angle_error

_ZERO6 = (0.0,) * 6


def retired_push(est, t, q):
    """``est.push(t, q)`` as a loop over the joints: (qd, qdd) lists, or
    (None, None) inside the warm-up."""
    if est._x is None:
        est._t0 = est.last_t = t
        est._x = list(q)
        est._v = est._a = [0.0] * len(est._x)
        return None, None
    dt = t - est.last_t
    ka, kv, kacc, h = _tracker_gains(dt)   # raises for a bad step
    xs, vs, accs = [], [], []
    for x, v, a, z in zip(est._x, est._v, est._a, q):
        xp = x + dt * (v + h * a)
        e = z - xp
        xs.append(xp + ka * e)
        vs.append(v + dt * a + kv * e)
        accs.append(a + kacc * e)
    est.last_t = t
    est._x, est._v, est._a = xs, vs, accs
    if t - est._t0 < WARMUP_S:
        return None, None
    return vs, accs


def retired_step(loop, frame) -> AssistCommand:
    """``loop.step(frame)`` composed of its public pieces, on ``loop``'s
    estimator: ``retired_push``, then ``phase``, ``gains`` and
    ``blended_torque``."""
    t = frame.t
    if not isfinite(t):
        raise ValueError(f"frame timestamp must be finite, got {t}")
    last = loop.estimator.last_t
    if last is not None and t <= last:
        raise OutOfOrderFrameError(f"frame at t={t} after t={last}")
    q = frame.q
    raw = loop.regressor.phase(q)
    gl, gr = gains(raw)
    if not (abs(q[0]) <= ANGLE_LIMIT and abs(q[1]) <= ANGLE_LIMIT
            and abs(q[2]) <= ANGLE_LIMIT and abs(q[3]) <= ANGLE_LIMIT
            and abs(q[4]) <= ANGLE_LIMIT and abs(q[5]) <= ANGLE_LIMIT):
        raise angle_error(q)
    qd, qdd = retired_push(loop.estimator, t, q)
    degraded = qd is None
    if degraded:
        qd = qdd = _ZERO6
    tau = blended_torque(q, qd, qdd, gl, gr, loop.left, loop.right,
                         loop.tables)
    return _new_command((t, tuple(tau.tolist()), raw, gl, gr, degraded,
                         tuple(qd), tuple(qdd)))


def retired_windowed_features(session):
    """``windowed_features(session)`` as it was before every estimator call
    went through one give-up helper."""
    beats = session.beat_times()
    out = []
    for phase in PHASES:
        t0, t1 = session.markers[phase]
        n_win = int(np.floor((t1 - t0 + 1e-9 - WINDOW_S) / WINDOW_S)) + 1
        for i in range(max(0, n_win)):
            start = t0 + i * WINDOW_S
            stop = start + WINDOW_S
            if stop > t1 + 1e-9:
                break
            fw = FeatureWindow(phase=phase, start=start, stop=stop)
            try:
                fw.hr, fw.rmssd = hr_rmssd(_window_intervals(beats, start, stop))
            except InsufficientDataError:
                pass
            # LF: context window clamped into the phase
            ctx_start = max(t0, stop - LF_CONTEXT_S)
            ctx_stop = ctx_start + LF_CONTEXT_S
            if ctx_stop <= t1 + 1e-9:
                ctx_iv = _window_intervals(beats, ctx_start, ctx_stop)
                try:
                    fw.lf_ms2, fw.lf_fraction = lf_power(ctx_iv)
                except InsufficientDataError:
                    pass
            if session.respiration is not None:
                fs = session.respiration_fs
                seg = session.respiration[int(start * fs):int(stop * fs)]
                try:
                    rate, valid = respiration_rate(seg, fs)
                    fw.rr = rate if valid else None
                except InsufficientDataError:
                    pass
            elif session.breath_times is not None:
                marks = session.breath_times
                seg = marks[(marks >= start) & (marks <= stop)]
                try:
                    rate, valid = respiration_rate(breath_times=seg)
                    fw.rr = rate if valid else None
                except InsufficientDataError:
                    pass
            if session.gsr is not None:
                fs = session.gsr_fs
                seg = session.gsr[int(start * fs):int(stop * fs)]
                try:
                    dec = gsr_decompose(seg, fs)
                    fw.scl = dec.scl_mean
                    fw.scr_rate = dec.scr_rate_per_min
                    fw.scr_amplitude = dec.scr_mean_amplitude
                except InsufficientDataError:
                    pass
            out.append(fw)
    return out
