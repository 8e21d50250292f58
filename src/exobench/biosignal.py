"""Physiological feature extraction: HR, HRV, respiration, skin conductance.

Works on a three-channel recording (ECG or precomputed beat intervals,
respiration waveform or breath marks, galvanic skin response) segmented
into the protocol phases SIT, SIT-EXO and WALK.  Features are summarised
over non-overlapping one-minute windows inside each phase.

All estimators are deterministic for a fixed input and configuration.
The signal processing (Butterworth design, zero-phase filtering, peak
picking, detrending, Welch spectra, cubic resampling) is numpy code in this
module that reproduces the scipy.signal routines the estimators were written
against: bit for bit where the arithmetic allows it, within rounding
elsewhere.  The tests pin each routine to scipy, which only they import.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataQualityError, InsufficientDataError, SchemaError
from .streams import load_column, read_json, write_json, write_rows

SESSION_SCHEMA_VERSION = 1

PHASE_SIT = "sit"
PHASE_SIT_EXO = "sit_exo"
PHASE_WALK = "walk"
PHASES = (PHASE_SIT, PHASE_SIT_EXO, PHASE_WALK)

SIT_DURATION_S = 240.0
WALK_DURATION_S = 960.0

# channel sample rates of the protocol's recordings, Hz
ECG_FS = 250.0
RESP_FS = 25.0
GSR_FS = 15.0

LF_BAND = (0.04, 0.15)
TOTAL_BAND = (0.04, 0.4)
RESP_BAND = (0.07, 1.0)

WINDOW_S = 60.0            # features over non-overlapping one-minute windows
LF_CONTEXT_S = 120.0       # LF needs a 2-minute interval span (ESC/NASPE 1996)
TACHOGRAM_HZ = 4.0         # uniform resampling rate of the tachogram
BEAT_REFRACTORY_S = 0.25
RESP_PEAK_TO_MEDIAN = 6.0  # spectral peak over in-band median for a valid rate
PROTOCOL_TOLERANCE = 0.05  # relative SIT/WALK duration tolerance

SCR_MIN_AMPLITUDE_US = 0.01
SCR_MIN_SEPARATION_S = 1.0
SCL_CUTOFF_HZ = 0.05


# ---------------------------------------------------------------------------
# signal primitives: numpy versions of the scipy.signal routines the features
# use, each pinned against scipy by the tests
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _butter_sos(cutoff, btype: str, fs: float) -> np.ndarray:
    """Order-2 Butterworth sections, low-pass (one cutoff) or band-pass (a
    pair), designed once per key and read-only.

    The steps and their order of operations are those of
    ``scipy.signal.butter(2, cutoff, btype, fs=fs, output="sos")``: analogue
    prototype, frequency transform, bilinear transform, then one section per
    conjugate pole pair, the pair nearest the unit circle last and paired
    with its nearest zeros, the gain in the first.  So the coefficients
    have the same bits as scipy's.
    """
    wn = np.asarray(cutoff, dtype=float) / (fs / 2)
    if not np.all((wn > 0) & (wn < 1)):
        raise ValueError(f"filter cutoff {cutoff} Hz is not inside "
                         f"(0, {fs / 2}) Hz")
    warped = 4.0 * np.tan(np.pi * wn / 2.0)
    proto = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4)
    if btype == "lowpass":
        wo = float(warped)
        poles, zeros, gain = wo * proto, np.zeros(0), wo ** 2
    else:
        bw = float(warped[1] - warped[0])
        wo = float(np.sqrt(warped[0] * warped[1]))
        p = proto * bw / 2
        root = np.sqrt(p ** 2 - wo ** 2)
        poles = np.concatenate((p + root, p - root))
        zeros, gain = np.zeros(2, dtype=complex), bw ** 2
    gain *= np.real(np.prod(4.0 - zeros) / np.prod(4.0 - poles))
    poles = (4.0 + poles) / (4.0 - poles)
    poles = poles[np.lexsort((abs(poles.imag), poles.real))]
    poles = (poles[poles.imag > 0] + poles[poles.imag < 0].conj()) / 2
    if np.argmin(np.abs(1 - np.abs(poles))) == 0:
        poles = poles[::-1]
    # zeros: the low-pass has both at z = -1; the band-pass has two at z = 1
    # and two at z = -1, and its last section takes the pair nearer its poles
    near = 1.0 if abs(1.0 - poles[-1]) < abs(-1.0 - poles[-1]) else -1.0
    ends = [-1.0] if btype == "lowpass" else [-near, near]
    sos = np.array([[1.0, -2.0 * end, 1.0, *np.convolve(
        np.convolve(np.ones(1, dtype=complex), [1.0, -pole]),
        [1.0, -pole.conj()]).real] for pole, end in zip(poles, ends)])
    sos[0, :3] *= gain
    sos.flags.writeable = False
    return sos


def _sosfilt(sos, x, zi) -> np.ndarray:
    """Direct-form II transposed sections over ``x`` from the states ``zi``,
    term for term as ``scipy.signal.sosfilt`` computes them."""
    y = x.tolist()
    for (b0, b1, b2, _, a1, a2), (z0, z1) in zip(sos.tolist(), zi.tolist()):
        for n, xn in enumerate(y):
            yn = b0 * xn + z0
            z0 = b1 * xn - a1 * yn + z1
            z1 = b2 * xn - a2 * yn
            y[n] = yn
    return np.array(y)


def _sosfiltfilt(sos, x) -> np.ndarray:
    """Forward-backward filtering as ``scipy.signal.sosfiltfilt`` does it, with
    the same bits: an odd extension of three times the taps at each end, and
    each pass started from the step-response state scaled to its first
    sample.  A Python loop per sample, so for short signals only."""
    x = np.asarray(x, dtype=float)
    ntaps = 2 * len(sos) + 1 - min(np.count_nonzero(sos[:, 2] == 0),
                                   np.count_nonzero(sos[:, 5] == 0))
    edge = 3 * ntaps
    if x.size <= edge:
        raise ValueError(f"the length of the input vector x must be greater "
                         f"than padlen, which is {edge}")
    ext = np.concatenate((2 * x[:1] - x[edge:0:-1], x,
                          2 * x[-1:] - x[-2:-edge - 2:-1]))
    # initial states (lfilter_zi per section), for sections with a0 == 1
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for s, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        zi[s] = scale * np.linalg.solve([[1.0 + a1, -1.0], [a2, 1.0]],
                                        [b1 - a1 * b0, b2 - a2 * b0])
        scale *= np.sum(sos[s, :3]) / np.sum(sos[s, 3:])
    y = _sosfilt(sos, ext, zi * ext[0])
    y = _sosfilt(sos, y[::-1], zi * y[-1])[::-1]
    return y[edge:-edge]


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=4)
def _power_response(cutoff, btype: str, fs: float, n: int) -> np.ndarray:
    """Squared magnitude response of the ``_butter_sos`` sections at the
    frequencies of a length-``n`` real FFT, computed once per key and
    read-only."""
    z = np.exp(-2j * np.pi * np.arange(n // 2 + 1) / n)
    gain = np.ones(z.size)
    for b0, b1, b2, a0, a1, a2 in _butter_sos(cutoff, btype, fs).tolist():
        gain *= np.abs((b0 + z * (b1 + z * b2))
                       / (a0 + z * (a1 + z * a2))) ** 2
    gain.flags.writeable = False
    return gain


def _fft_filtfilt(x, cutoff, btype: str, fs: float) -> np.ndarray:
    """``_sosfiltfilt`` with the ``_butter_sos`` sections at FFT cost, equal
    to it within rounding.

    Away from the ends, forward-backward filtering multiplies the spectrum
    by the squared magnitude response.  Within ``settle`` samples of either
    end, before the slowest pole's transient has fallen below rounding,
    sosfiltfilt's odd extension and start states show, so those samples come
    from ``_sosfiltfilt`` over the ``2 * settle`` samples at that end.
    Signals up to ``8 * settle`` samples, where those ends are half the
    work, go through ``_sosfiltfilt`` whole.
    """
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


def _find_peaks(x, height: float, distance: int):
    """Indices and values of the local maxima of ``x`` at least ``height``
    high, thinned to at least ``distance`` samples apart, by the rules of
    ``scipy.signal.find_peaks``: a flat peak sits at the middle of its
    plateau, rounded down, and of peaks too close together the highest is
    kept, ranked by ``np.argsort`` of their values as scipy ranks them."""
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


def _detrend(x) -> np.ndarray:
    """``x`` minus its least-squares straight line."""
    t = np.arange(x.size) - (x.size - 1) / 2
    xc = x - np.mean(x)
    return xc - t * (np.dot(t, xc) / np.dot(t, t))


def _welch(x, fs: float, nperseg: int):
    """Frequencies and one-sided Welch power spectral density of ``x``:
    periodic Hann windows over segments overlapping by half, each segment's
    mean removed, which are ``scipy.signal.welch``'s defaults."""
    step = nperseg - nperseg // 2
    starts = np.arange((x.size - nperseg // 2) // step) * step
    seg = x[starts[:, None] + np.arange(nperseg)]
    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    spec = np.abs(np.fft.rfft((seg - seg.mean(axis=1, keepdims=True))
                              * window, axis=1)) ** 2
    spec[:, 1:None if nperseg % 2 else -1] *= 2
    psd = spec.mean(axis=0) / (fs * np.sum(window * window))
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd


def _cubic_spline(x, y, xnew) -> np.ndarray:
    """The not-a-knot cubic spline through (``x``, ``y``), at ``xnew`` inside
    [x[0], x[-1]]: the interpolant of scipy's ``interp1d(kind="cubic")``.
    ``x`` strictly increases and has at least four points.  The knot slopes
    solve scipy ``CubicSpline``'s tridiagonal system by the Thomas
    algorithm."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = np.concatenate((dx[1:], [d1])).tolist()   # row i: s[i - 1]
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]])).tolist()
    upper = np.concatenate(([d0], dx[:-1])).tolist()  # row i: s[i + 1]
    rhs = np.concatenate((
        [((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
        3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
        [(dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1])
         / d1])).tolist()
    n = len(diag)
    for i in range(1, n):
        w = lower[i - 1] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = [0.0] * n
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    s = np.array(s)
    i = np.clip(np.searchsorted(x, xnew, side="right") - 1, 0, x.size - 2)
    t = xnew - x[i]
    c2 = (3 * slope - 2 * s[:-1] - s[1:]) / dx
    c3 = (s[:-1] + s[1:] - 2 * slope) / dx ** 2
    return y[i] + t * (s[i] + t * (c2[i] + t * c3[i]))


# ---------------------------------------------------------------------------
# beat detection
# ---------------------------------------------------------------------------


@dataclass
class BeatDetection:
    """R-peak times in seconds plus flat-line gap segments."""

    times: np.ndarray
    gaps: list


def detect_beats(ecg, fs: float) -> BeatDetection:
    """R-peak picking: band-pass, envelope, adaptive threshold.

    Flat-line stretches produce gap markers instead of spurious beats.
    """
    x = np.asarray(ecg, dtype=float)
    if fs < 250:
        raise ValueError("ECG sampling rate must be at least 250 Hz")
    if x.ndim != 1 or x.size < int(fs):
        raise InsufficientDataError("need at least one second of ECG")

    # flat-line detection on one-second blocks; the last block runs to the
    # end of the signal, so a partial last second is checked with it
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

    band = _fft_filtfilt(x, (5.0, 18.0), "bandpass", fs)
    env = band * band
    win = max(1, int(0.15 * fs))
    env = np.convolve(env, np.ones(win) / win, mode="same")
    env[flat_mask] = 0.0

    height = 0.2 * np.percentile(env[~flat_mask], 98)
    if height <= 0:
        return BeatDetection(times=np.empty(0), gaps=gaps)
    peaks, _ = _find_peaks(env, height, max(1, int(BEAT_REFRACTORY_S * fs)))
    # refine to the first maximum of |band| within +-half samples; clipped
    # indices repeat an end sample next to itself, so the first maximum of
    # each window is the one found in the window cut to the signal
    half = int(0.05 * fs)
    idx = np.clip(peaks[:, None] + np.arange(-half, half + 1), 0, x.size - 1)
    refined = idx[np.arange(peaks.size), np.argmax(np.abs(band[idx]), axis=1)]
    times = np.unique(refined / fs)
    times = times[np.diff(times, prepend=-np.inf) > BEAT_REFRACTORY_S * 0.5]
    return BeatDetection(times=times, gaps=gaps)


# ---------------------------------------------------------------------------
# interval-domain features
# ---------------------------------------------------------------------------


def hr_rmssd(intervals_ms) -> tuple[float, float]:
    """Mean heart rate (bpm) and RMSSD (ms) from inter-beat intervals."""
    iv = np.asarray(intervals_ms, dtype=float)
    if iv.size < 2:
        raise InsufficientDataError("need at least two intervals")
    if np.any(iv <= 0):
        raise ValueError("intervals must be positive")
    hr = 60000.0 / float(np.mean(iv))
    rmssd = float(np.sqrt(np.mean(np.diff(iv) ** 2)))
    return hr, rmssd


def lf_power(intervals_ms) -> tuple[float, float]:
    """Low-frequency band power of the interval tachogram.

    The tachogram is resampled uniformly by cubic interpolation, linearly
    detrended, and estimated with averaged 50%-overlap periodograms.
    Returns (power in the 0.04-0.15 Hz band in ms^2, fraction of the
    0.04-0.4 Hz total).  A 5% slack on ``LF_CONTEXT_S`` absorbs the partial
    beats at the window edges.
    """
    iv = np.asarray(intervals_ms, dtype=float)
    if iv.size < 4:
        raise InsufficientDataError("too few intervals")
    if np.any(iv <= 0):
        raise ValueError("intervals must be positive")
    duration = float(np.sum(iv)) / 1000.0
    if duration < 0.95 * LF_CONTEXT_S:
        raise InsufficientDataError(
            f"window of {duration:.1f} s is shorter than {LF_CONTEXT_S:.0f} s")
    beat_t = np.cumsum(iv) / 1000.0
    grid = np.arange(beat_t[0], beat_t[-1], 1.0 / TACHOGRAM_HZ)
    tacho = _detrend(_cubic_spline(beat_t, iv, grid))
    freqs, psd = _welch(tacho, TACHOGRAM_HZ, min(tacho.size, 256))
    lf = _band_power(freqs, psd, LF_BAND)
    total = _band_power(freqs, psd, TOTAL_BAND)
    fraction = lf / total if total > 0 else 0.0
    return float(lf), float(fraction)


def _band_power(freqs, psd, band) -> float:
    mask = (freqs >= band[0]) & (freqs <= band[1])
    if np.count_nonzero(mask) < 2:
        return 0.0
    return float(np.trapezoid(psd[mask], freqs[mask]))


# ---------------------------------------------------------------------------
# respiration
# ---------------------------------------------------------------------------


def respiration_rate(waveform=None, fs: float | None = None,
                     breath_times=None) -> tuple[float, bool]:
    """Breaths per minute from a waveform (spectral peak) or breath marks.

    Returns ``(rate_bpm, valid)``; the estimate is invalid when no
    spectral peak rises ``RESP_PEAK_TO_MEDIAN`` times above the in-band median
    (noise floor).
    """
    if breath_times is not None:
        marks = np.asarray(breath_times, dtype=float)
        if marks.size < 3:
            raise InsufficientDataError("need at least three breath marks")
        gaps = np.diff(marks)
        if not np.all(gaps > 0):   # a zero mean gap would divide by zero
            raise ValueError("breath marks must increase")
        rate = 60.0 / float(np.mean(gaps))
        return rate, 4.0 < rate < 60.0
    if waveform is None or fs is None:
        raise ValueError("provide a waveform with fs, or breath_times")
    x = np.asarray(waveform, dtype=float)
    if x.size / fs < 30.0 - 1e-9:
        raise InsufficientDataError("need at least a 30 s window")
    freqs, psd = _welch(_detrend(x), fs, min(x.size, 512))
    mask = (freqs >= RESP_BAND[0]) & (freqs <= RESP_BAND[1])
    if np.count_nonzero(mask) < 3:
        return float("nan"), False
    fband = freqs[mask]
    pband = psd[mask]
    k = int(np.argmax(pband))
    floor = float(np.median(pband))
    if floor <= 0 or pband[k] < RESP_PEAK_TO_MEDIAN * floor:
        return float("nan"), False
    # parabolic refinement of the peak bin
    f_peak = fband[k]
    if 0 < k < pband.size - 1:
        y0, y1, y2 = pband[k - 1], pband[k], pband[k + 1]
        denom = y0 - 2 * y1 + y2
        if denom != 0:
            delta = 0.5 * (y0 - y2) / denom
            f_peak = f_peak + delta * (fband[1] - fband[0])
    rate = 60.0 * float(f_peak)
    return rate, 4.0 < rate < 60.0


# ---------------------------------------------------------------------------
# skin conductance
# ---------------------------------------------------------------------------


@dataclass
class GsrDecomposition:
    """Tonic level, phasic residual, and detected phasic events."""

    scl: np.ndarray
    phasic: np.ndarray
    event_indices: np.ndarray
    event_amplitudes: np.ndarray
    scl_mean: float
    scr_rate_per_min: float
    scr_mean_amplitude: float


def gsr_decompose(gsr, fs: float) -> GsrDecomposition:
    """Split skin conductance into tonic (low-pass) and phasic parts.

    The tonic component is the 0.05 Hz low-pass of the input; the phasic
    residual is the exact difference, so scl + phasic reconstructs the
    input.  Phasic peaks above 0.01 uS with at least 1 s separation count
    as skin-conductance responses.
    """
    x = np.asarray(gsr, dtype=float)
    if np.any(x < 0):
        raise DataQualityError("negative conductance samples")
    duration = x.size / fs
    if duration < 60.0 - 1e-9:
        raise InsufficientDataError("need at least a 60 s window")
    scl = _sosfiltfilt(_butter_sos(SCL_CUTOFF_HZ, "lowpass", fs), x)
    phasic = x - scl
    peaks, amps = _find_peaks(phasic, SCR_MIN_AMPLITUDE_US,
                              max(1, int(SCR_MIN_SEPARATION_S * fs)))
    return GsrDecomposition(
        scl=scl,
        phasic=phasic,
        event_indices=peaks,
        event_amplitudes=amps,
        scl_mean=float(np.mean(scl)),
        scr_rate_per_min=float(peaks.size / (duration / 60.0)),
        scr_mean_amplitude=float(np.mean(amps)) if amps.size else 0.0,
    )


# ---------------------------------------------------------------------------
# sessions and windowed features
# ---------------------------------------------------------------------------


@dataclass
class PhysioSession:
    """One recording with phase markers, all in one time base (seconds
    from recording start).

    Either ``ecg``+``ecg_fs`` or ``beat_intervals_ms`` must be present;
    respiration may be a waveform or breath marks.
    """

    markers: dict
    ecg: np.ndarray | None = None
    ecg_fs: float = ECG_FS
    beat_intervals_ms: np.ndarray | None = None
    respiration: np.ndarray | None = None
    respiration_fs: float = RESP_FS
    breath_times: np.ndarray | None = None
    gsr: np.ndarray | None = None
    gsr_fs: float = GSR_FS
    _beats: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_layout(self.markers, self.ecg is not None
                      or self.beat_intervals_ms is not None)

    def validate_protocol(self, lenient: bool = False):
        """Check SIT and WALK durations against the protocol (+-5%)."""
        if lenient:
            return
        for phase, nominal in ((PHASE_SIT, SIT_DURATION_S),
                               (PHASE_WALK, WALK_DURATION_S)):
            start, stop = self.markers[phase]
            if abs((stop - start) - nominal) > PROTOCOL_TOLERANCE * nominal:
                raise SchemaError(
                    f"{phase} duration {stop - start:.1f} s outside "
                    f"{nominal:.0f} s +-{PROTOCOL_TOLERANCE * 100:.0f}%")

    def beat_times(self) -> np.ndarray:
        """Beat timestamps (s), detected once and cached."""
        if self._beats is None:
            if self.beat_intervals_ms is not None:
                iv = np.asarray(self.beat_intervals_ms, dtype=float)
                self._beats = np.cumsum(iv) / 1000.0
            else:
                self._beats = detect_beats(self.ecg, self.ecg_fs).times
        return self._beats

    # -- directory round trip ------------------------------------------------

    def save(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        channels = {}
        for attr, name, file, header, fmt, kind, units, _, rate in CHANNELS:
            data = getattr(self, attr)
            if data is None:
                continue
            write_rows(directory / file, header + "\n", [data], fmt + "\n")
            channels[name] = {"file": file, "kind": kind, "units": units}
            if rate:
                channels[name]["fs"] = getattr(self, rate)
        write_json(directory / "manifest.json", {
            "schema_version": SESSION_SCHEMA_VERSION,
            "channels": channels,
            "markers": {p: list(self.markers[p]) for p in PHASES},
        })

    @classmethod
    def load(cls, directory) -> "PhysioSession":
        """The session in ``directory``: its ``manifest.json`` and the
        channel files it names, each read by ``streams.load_column`` in the
        sensor-stream CSV dialect under the header and range of
        ``CHANNELS``.  Every bad file raises an error naming it."""
        directory = Path(directory)
        fields = read_json(directory / "manifest.json", SESSION_SCHEMA_VERSION,
                           lambda doc: _session_fields(doc, directory))
        for attr, _, _, header, *_, limits, _ in CHANNELS:
            if attr in fields:
                fields[attr] = load_column(fields[attr], header, limits)
        return cls(**fields)


CHANNEL_LIMIT = 1e12   # the largest |value| of a channel sample, any unit
_SPAN = -CHANNEL_LIMIT, CHANNEL_LIMIT

# one row per channel file: session attribute, manifest channel name, file
# name, header, number format, kind and units recorded in the manifest, the
# (low, high, range text) a value must lie in, and the session attribute
# holding the sample rate (None for event series)
CHANNELS = (
    ("ecg", "ecg", "ecg.csv", "ecg_mv", "%.8g", "waveform", "mV",
     (*_SPAN, "[-1e12, 1e12] mV"), "ecg_fs"),
    ("beat_intervals_ms", "beats", "beat_intervals.csv", "interval_ms",
     "%.12g", "intervals", "ms",
     (math.nextafter(0.0, 1.0), CHANNEL_LIMIT, "(0, 1e12] ms"), None),
    ("respiration", "respiration", "respiration.csv", "respiration_au",
     "%.8g", "waveform", "a.u.", (*_SPAN, "[-1e12, 1e12] a.u."),
     "respiration_fs"),
    ("breath_times", "breath_times", "breath_times.csv", "breath_t_s",
     "%.12g", "marks", "s", (*_SPAN, "[-1e12, 1e12] s"), None),
    ("gsr", "gsr", "gsr.csv", "gsr_us", "%.8g", "waveform", "uS",
     (0.0, CHANNEL_LIMIT, "[0, 1e12] uS"), "gsr_fs"),
)


def _check_layout(markers: dict, has_beats: bool) -> None:
    """Raise SchemaError unless each phase marker is a pair of numbers with
    a positive span, in phase order without overlap, beside a heart channel."""
    for phase in PHASES:
        if phase not in markers:
            raise SchemaError(f"missing phase marker: {phase}")
        bounds = markers[phase]
        if len(bounds) != 2 or not all(map(_finite, bounds)):
            raise SchemaError(f"marker {phase} must be a pair of numbers, "
                              f"got {bounds!r}")
        start, stop = bounds
        if stop <= start:
            raise SchemaError(f"phase {phase} has non-positive duration")
    order = [markers[p] for p in PHASES]
    for (a0, a1), (b0, b1) in zip(order, order[1:]):
        if b0 < a1:
            raise SchemaError("phase markers overlap or are out of order")
    if not has_beats:
        raise SchemaError("need an ECG channel or precomputed intervals")


def _finite(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _session_fields(doc: dict, directory: Path) -> dict:
    """The session fields a physio manifest sets: the markers, the sample
    rates it gives, and the path of each channel's file."""
    channels = doc.get("channels", {})
    fields = {"markers": {phase: tuple(bounds) for phase, bounds
                          in doc.get("markers", {}).items()}}
    for attr, name, *_, rate in CHANNELS:
        spec = channels.get(name)
        if spec is None:
            continue
        fields[attr] = directory / spec["file"]
        if rate and "fs" in spec:
            if not (_finite(spec["fs"]) and spec["fs"] > 0):
                raise SchemaError(f"channel {name}: fs must be a positive "
                                  f"finite number, got {spec['fs']!r}")
            fields[rate] = spec["fs"]
    _check_layout(fields["markers"], "ecg" in fields
                  or "beat_intervals_ms" in fields)
    return fields


@dataclass
class FeatureWindow:
    """Feature summary of one analysis window; None marks an unavailable
    or invalid feature."""

    phase: str
    start: float
    stop: float
    hr: float | None = None
    rmssd: float | None = None
    rr: float | None = None
    scl: float | None = None
    scr_rate: float | None = None
    scr_amplitude: float | None = None
    lf_ms2: float | None = None
    lf_fraction: float | None = None

    FEATURES = ("hr", "rmssd", "rr", "scl", "scr_rate", "scr_amplitude",
                "lf_ms2", "lf_fraction")


def _window_intervals(beats: np.ndarray, start: float, stop: float):
    inside = beats[(beats >= start) & (beats <= stop)]
    return np.diff(inside) * 1000.0


def windowed_features(session: PhysioSession) -> list[FeatureWindow]:
    """Per-phase feature windows: non-overlapping ``WINDOW_S`` spans.

    Windows straddling a phase boundary are excluded.  The LF estimate
    needs more context than one window, so it is computed over a
    ``LF_CONTEXT_S``-second span ending at the window where possible,
    shifted to fit inside the phase otherwise; windows of phases shorter
    than the context get no LF value.
    """
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
