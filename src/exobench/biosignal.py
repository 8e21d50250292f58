"""Physiological feature extraction: HR, HRV, respiration, skin conductance.

Works on a three-channel recording (ECG or precomputed beat intervals,
respiration waveform or breath marks, galvanic skin response) segmented
into the protocol phases SIT, SIT-EXO and WALK.  Features are summarised
over non-overlapping one-minute windows inside each phase.

All estimators are deterministic for a fixed input and configuration.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataQualityError, InsufficientDataError, SchemaError
from .streams import bad_line_error, canonical_json, not_utf8_error

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
# beat detection
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _butter_sos(cutoff, btype: str, fs: float) -> np.ndarray:
    """Order-2 Butterworth sections, designed once per key and read-only;
    ``sosfiltfilt`` needs a writable array, so callers pass it a copy."""
    # scipy submodules load on first use: importing them costs over a second
    import scipy.signal
    sos = scipy.signal.butter(2, cutoff, btype=btype, fs=fs, output="sos")
    sos.flags.writeable = False
    return sos


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

    # flat-line detection on one-second blocks
    block = int(fs)
    nblock = x.size // block
    flat = np.ptp(x[:nblock * block].reshape(nblock, block), axis=1) < 1e-9
    flat_mask = np.pad(np.repeat(flat, block), (0, x.size % block))
    gaps = [(b * block / fs, (b + 1) * block / fs)
            for b in np.flatnonzero(flat).tolist()]

    if np.all(flat_mask):
        return BeatDetection(times=np.empty(0), gaps=gaps)

    import scipy.signal
    sos = _butter_sos((5.0, 18.0), "bandpass", fs).copy()
    band = scipy.signal.sosfiltfilt(sos, x)
    env = band * band
    win = max(1, int(0.15 * fs))
    env = np.convolve(env, np.ones(win) / win, mode="same")
    env[flat_mask] = 0.0

    height = 0.2 * np.percentile(env[~flat_mask], 98)
    if height <= 0:
        return BeatDetection(times=np.empty(0), gaps=gaps)
    peaks, _ = scipy.signal.find_peaks(
        env, height=height, distance=max(1, int(BEAT_REFRACTORY_S * fs)))
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
    duration = float(np.sum(iv)) / 1000.0
    if duration < 0.95 * LF_CONTEXT_S:
        raise InsufficientDataError(
            f"window of {duration:.1f} s is shorter than {LF_CONTEXT_S:.0f} s")
    beat_t = np.cumsum(iv) / 1000.0
    grid = np.arange(beat_t[0], beat_t[-1], 1.0 / TACHOGRAM_HZ)
    import scipy.interpolate
    import scipy.signal
    tacho = scipy.interpolate.interp1d(beat_t, iv, kind="cubic",
                                       assume_sorted=True)(grid)
    tacho = scipy.signal.detrend(tacho, type="linear")
    nperseg = min(tacho.size, 256)
    freqs, psd = scipy.signal.welch(tacho, fs=TACHOGRAM_HZ, nperseg=nperseg,
                                    noverlap=nperseg // 2)
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
        rate = 60.0 / float(np.mean(np.diff(marks)))
        return rate, 4.0 < rate < 60.0
    if waveform is None or fs is None:
        raise ValueError("provide a waveform with fs, or breath_times")
    x = np.asarray(waveform, dtype=float)
    if x.size / fs < 30.0 - 1e-9:
        raise InsufficientDataError("need at least a 30 s window")
    import scipy.signal
    x = scipy.signal.detrend(x, type="linear")
    nperseg = min(x.size, 512)
    freqs, psd = scipy.signal.welch(x, fs=fs, nperseg=nperseg,
                                    noverlap=nperseg // 2)
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
    import scipy.signal
    scl = scipy.signal.sosfiltfilt(
        _butter_sos(SCL_CUTOFF_HZ, "lowpass", fs).copy(), x)
    phasic = x - scl
    peaks, props = scipy.signal.find_peaks(
        phasic, height=SCR_MIN_AMPLITUDE_US,
        distance=max(1, int(SCR_MIN_SEPARATION_S * fs)))
    amps = props["peak_heights"] if peaks.size else np.empty(0)
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
        for phase in PHASES:
            if phase not in self.markers:
                raise SchemaError(f"missing phase marker: {phase}")
            start, stop = self.markers[phase]
            if stop <= start:
                raise SchemaError(f"phase {phase} has non-positive duration")
        order = [self.markers[p] for p in PHASES]
        for (a0, a1), (b0, b1) in zip(order, order[1:]):
            if b0 < a1:
                raise SchemaError("phase markers overlap or are out of order")
        if self.ecg is None and self.beat_intervals_ms is None:
            raise SchemaError("need an ECG channel or precomputed intervals")

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

    def phase_bounds(self, phase: str) -> tuple[float, float]:
        return tuple(self.markers[phase])

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
        if self.ecg is not None:
            np.savetxt(directory / "ecg.csv", self.ecg, fmt="%.8g",
                       header="ecg_mv", comments="")
            channels["ecg"] = {"file": "ecg.csv", "fs": self.ecg_fs,
                               "kind": "waveform", "units": "mV"}
        if self.beat_intervals_ms is not None:
            np.savetxt(directory / "beat_intervals.csv", self.beat_intervals_ms,
                       fmt="%.12g", header="interval_ms", comments="")
            channels["beats"] = {"file": "beat_intervals.csv",
                                 "kind": "intervals", "units": "ms"}
        if self.respiration is not None:
            np.savetxt(directory / "respiration.csv", self.respiration,
                       fmt="%.8g", header="respiration_au", comments="")
            channels["respiration"] = {"file": "respiration.csv",
                                       "fs": self.respiration_fs,
                                       "kind": "waveform", "units": "a.u."}
        if self.breath_times is not None:
            np.savetxt(directory / "breath_times.csv", self.breath_times,
                       fmt="%.12g", header="breath_t_s", comments="")
            channels["breath_times"] = {"file": "breath_times.csv",
                                        "kind": "marks", "units": "s"}
        if self.gsr is not None:
            np.savetxt(directory / "gsr.csv", self.gsr, fmt="%.8g",
                       header="gsr_us", comments="")
            channels["gsr"] = {"file": "gsr.csv", "fs": self.gsr_fs,
                               "kind": "waveform", "units": "uS"}
        manifest = {
            "schema_version": SESSION_SCHEMA_VERSION,
            "channels": channels,
            "markers": {p: list(self.markers[p]) for p in PHASES},
        }
        with open(directory / "manifest.json", "w", encoding="utf-8") as f:
            f.write(canonical_json(manifest))

    @classmethod
    def load(cls, directory) -> "PhysioSession":
        directory = Path(directory)
        try:
            with open(directory / "manifest.json", "r", encoding="utf-8") as f:
                manifest = json.load(f)
        except FileNotFoundError:
            raise SchemaError(f"{directory}: no manifest.json") from None
        if manifest.get("schema_version") != SESSION_SCHEMA_VERSION:
            raise SchemaError("unsupported session schema_version "
                              f"{manifest.get('schema_version')!r}")
        channels = manifest.get("channels", {})
        markers = {p: tuple(v) for p, v in manifest.get("markers", {}).items()}

        def read(name):
            spec = channels.get(name)
            if spec is None:
                return None, None
            path = directory / spec["file"]
            try:
                data = np.loadtxt(path, skiprows=1, encoding="utf-8")
            except ValueError:
                raise _bad_channel_line(path, name) from None
            if not np.isfinite(data).all():
                raise _bad_channel_line(path, name)
            return np.atleast_1d(data), spec.get("fs")

        ecg, ecg_fs = read("ecg")
        beats, _ = read("beats")
        resp, resp_fs = read("respiration")
        marks, _ = read("breath_times")
        gsr, gsr_fs = read("gsr")
        return cls(markers=markers, ecg=ecg, ecg_fs=ecg_fs or ECG_FS,
                   beat_intervals_ms=beats, respiration=resp,
                   respiration_fs=resp_fs or RESP_FS, breath_times=marks,
                   gsr=gsr, gsr_fs=gsr_fs or GSR_FS)


def _bad_channel_line(path, name) -> ValueError:
    """The error naming the line of a one-column channel file that failed to
    load; lines are split as ``np.loadtxt`` splits them (whitespace, ``#``
    comments) and numbered from 1 for the header."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        lines = list(enumerate(f, start=1))
    records = ((lineno, fields) for lineno, line in lines[1:]
               if (fields := line.split("#", 1)[0].split()))
    return (not_utf8_error(path, lines)
            or bad_line_error(path, records, [name], 1))


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

    def feature(self, name: str):
        return getattr(self, name)

    def to_dict(self) -> dict:
        d = {"phase": self.phase, "start": self.start, "stop": self.stop}
        for name in self.FEATURES:
            d[name] = self.feature(name)
        return d


def _window_intervals(beats: np.ndarray, start: float, stop: float):
    inside = beats[(beats >= start) & (beats <= stop)]
    if inside.size < 3:
        return None
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
        t0, t1 = session.phase_bounds(phase)
        n_win = int(np.floor((t1 - t0 + 1e-9 - WINDOW_S) / WINDOW_S)) + 1
        for i in range(max(0, n_win)):
            start = t0 + i * WINDOW_S
            stop = start + WINDOW_S
            if stop > t1 + 1e-9:
                break
            fw = FeatureWindow(phase=phase, start=start, stop=stop)
            iv = _window_intervals(beats, start, stop)
            if iv is not None:
                try:
                    fw.hr, fw.rmssd = hr_rmssd(iv)
                except InsufficientDataError:
                    pass
            # LF: context window clamped into the phase
            ctx_start = max(t0, stop - LF_CONTEXT_S)
            ctx_stop = ctx_start + LF_CONTEXT_S
            if ctx_stop <= t1 + 1e-9:
                ctx_iv = _window_intervals(beats, ctx_start, ctx_stop)
                if ctx_iv is not None:
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
