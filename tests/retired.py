"""Retired forms the tests pin today's code to bit for bit: the control
step and the estimator update as plain Python, which the compiled
``ControlLoop.step`` and ``AccelerationEstimator.push`` replaced,
``windowed_features`` with one give-up block per estimator and the
respiration source chosen in every window, the skin-conductance responses
with both factors over every later sample, and beat detection with a new
spectrum, a percentile of a copy and the full difference of the envelope."""

import math
from math import isfinite

import numpy as np

from exobench.biosignal import (BEAT_REFRACTORY_S, LF_CONTEXT_S, PHASES,
                                WINDOW_S, BeatDetection, FeatureWindow,
                                _butter_sos, _fft_length, _power_response,
                                _sosfiltfilt, _window_intervals,
                                gsr_decompose, hr_rmssd, lf_power,
                                respiration_rate)
from exobench.blend import AssistCommand, _new_command, gains
from exobench.dynamics import WARMUP_S, _tracker_gains, blended_torque
from exobench.errors import InsufficientDataError, OutOfOrderFrameError
from exobench.streams import ANGLE_LIMIT, angle_error
from exobench.synthdata import SCR_DECAY_S, SCR_RISE_S

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


def retired_scr_bumps(t, onsets, amplitudes):
    """``synthdata._scr_bumps`` with both factors evaluated over every
    sample after each onset."""
    x = np.zeros_like(t)
    for onset, amp in zip(onsets, amplitudes):
        start = np.searchsorted(t, onset, side="right")   # t ascends
        dt = t[start:] - onset
        x[start:] += amp * ((1 - np.exp(-dt / SCR_RISE_S))
                            * np.exp(-dt / SCR_DECAY_S))
    return x


def _retired_fft_filtfilt(x, cutoff, btype: str, fs: float) -> np.ndarray:
    """``biosignal._fft_filtfilt`` with the filtered spectrum a new array."""
    sos = _butter_sos(cutoff, btype, fs)
    # each section holds one conjugate pole pair, of radius sqrt(a2)
    settle = math.ceil(2 * math.log(np.finfo(float).eps)
                       / math.log(np.max(sos[:, 5])))
    if x.size <= 8 * settle:
        return _sosfiltfilt(sos, x)
    n = _fft_length(x.size)
    y = np.fft.irfft(np.fft.rfft(x, n) * _power_response(cutoff, btype, fs, n),
                     n)[:x.size]
    y[:settle] = _sosfiltfilt(sos, x[:2 * settle])[:settle]
    y[-settle:] = _sosfiltfilt(sos, x[-2 * settle:])[-settle:]
    return y


def retired_find_peaks(x, height: float, distance: int):
    """``biosignal._find_peaks`` with the full difference of ``x`` built
    on every call."""
    x = np.asarray(x, dtype=float)
    d = np.diff(x)
    # a rise into sample i and none out of it: a peak, or a plateau's start
    peaks = np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0)) + 1
    flat = peaks[d[peaks] == 0]
    if flat.size:
        # a plateau is a peak if the first change after it is a fall
        changes = np.flatnonzero(d)
        at = np.searchsorted(changes, flat)
        end = changes[np.minimum(at, changes.size - 1)]
        top = (at < changes.size) & (d[end] < 0)
        peaks = np.sort(np.concatenate((peaks[d[peaks] < 0],
                                        (flat[top] + end[top]) // 2)))
    peaks = peaks[x[peaks] >= height]
    if peaks.size > 1 and np.min(np.diff(peaks)) < distance:
        pos = peaks.tolist()
        keep = [True] * len(pos)
        for j in np.argsort(x[peaks])[::-1].tolist():
            if not keep[j]:
                continue
            k = j - 1
            while k >= 0 and pos[j] - pos[k] < distance:
                keep[k] = False
                k -= 1
            k = j + 1
            while k < len(pos) and pos[k] - pos[j] < distance:
                keep[k] = False
                k += 1
        peaks = peaks[keep]
    return peaks, x[peaks]


def retired_detect_beats(ecg, fs: float) -> BeatDetection:
    """``biosignal.detect_beats`` as it was before its spectrum was
    filtered in place, its percentile taken in place and its peaks found
    without the envelope's full difference."""
    x = np.asarray(ecg, dtype=float)
    block = int(fs)
    nblock = x.size // block
    flat = np.ptp(x[:nblock * block].reshape(nblock, block), axis=1) < 1e-9
    flat[-1] = np.ptp(x[(nblock - 1) * block:]) < 1e-9
    flat_mask = np.pad(np.repeat(flat, block), (0, x.size % block), "edge")
    edges = list(range(0, nblock * block, block)) + [x.size]
    gaps = [(edges[b] / fs, edges[b + 1] / fs)
            for b in np.flatnonzero(flat).tolist()]
    if np.all(flat_mask):
        return BeatDetection(times=np.empty(0), gaps=gaps)
    band = _retired_fft_filtfilt(x, (5.0, 18.0), "bandpass", fs)
    env = band * band
    win = max(1, int(0.15 * fs))
    env = np.convolve(env, np.ones(win) / win, mode="same")
    env[flat_mask] = 0.0
    height = 0.2 * np.percentile(env[~flat_mask], 98)
    if height <= 0:
        return BeatDetection(times=np.empty(0), gaps=gaps)
    peaks, _ = retired_find_peaks(env, height,
                                  max(1, int(BEAT_REFRACTORY_S * fs)))
    half = int(0.05 * fs)
    idx = np.clip(peaks[:, None] + np.arange(-half, half + 1), 0, x.size - 1)
    refined = idx[np.arange(peaks.size), np.argmax(np.abs(band[idx]), axis=1)]
    times = np.unique(refined / fs)
    times = times[np.diff(times, prepend=-np.inf) > BEAT_REFRACTORY_S * 0.5]
    return BeatDetection(times=times, gaps=gaps)
