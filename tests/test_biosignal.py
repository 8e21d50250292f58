import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exobench import biosignal
from exobench.biosignal import (ECG_FS, GSR_FS, RESP_FS, TACHOGRAM_HZ,
                                WINDOW_S, FeatureWindow, PhysioSession,
                                _butter_sos, _cubic_spline, _detrend,
                                _fft_filtfilt, _find_peaks, _sosfiltfilt,
                                _welch,
                                detect_beats, gsr_decompose, hr_rmssd,
                                lf_power, respiration_rate, windowed_features)
from exobench.errors import (DataQualityError, InsufficientDataError,
                             SchemaError)
from retired import retired_windowed_features

# scipy is the oracle of the numpy signal path, a test dependency only: the
# tests that compare against it skip where it is not installed
try:
    import scipy.interpolate
    import scipy.signal
except ImportError:
    scipy = None
needs_scipy = pytest.mark.skipif(scipy is None, reason="scipy not installed")


def synthetic_ecg(beat_times, fs, duration, amplitude=1.0, width_s=0.012,
                  noise_sigma=0.0, seed=0):
    """Gaussian R-spike train; the independent generator used as oracle."""
    t = np.arange(int(duration * fs)) / fs
    x = np.zeros_like(t)
    for bt in beat_times:
        x += amplitude * np.exp(-0.5 * ((t - bt) / width_s) ** 2)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        x = x + rng.normal(scale=noise_sigma, size=x.size)
    return x


class TestDetectBeats:
    def test_sixty_bpm_pulse_train(self):
        fs = 250.0
        truth = np.arange(0.5, 59.6, 1.0)  # one beat per second
        ecg = synthetic_ecg(truth, fs, 60.0)
        det = detect_beats(ecg, fs)
        assert not det.gaps
        iv = np.diff(det.times) * 1000.0
        hr, _ = hr_rmssd(iv)
        assert abs(hr - 60.0) < 1.0

    def test_flat_line_gives_gaps_not_beats(self):
        fs = 250.0
        ecg = np.zeros(int(fs * 30))
        det = detect_beats(ecg, fs)
        assert det.times.size == 0
        assert len(det.gaps) > 0

    def test_noisy_detection_within_20ms(self):
        fs = 250.0
        period = 60.0 / 80.0  # 80 bpm
        truth = np.arange(0.5, 59.0, period)
        clean = synthetic_ecg(truth, fs, 60.0)
        signal_rms = np.sqrt(np.mean(clean**2))
        noise_sigma = signal_rms / np.sqrt(10.0)  # SNR 10 dB
        ecg = synthetic_ecg(truth, fs, 60.0, noise_sigma=noise_sigma, seed=1)
        det = detect_beats(ecg, fs)
        matched = 0
        for bt in truth:
            if np.min(np.abs(det.times - bt)) <= 0.020:
                matched += 1
        assert matched / truth.size >= 0.99

    def test_rejects_low_rate(self):
        with pytest.raises(ValueError):
            detect_beats(np.zeros(1000), fs=100.0)


def detect_beats_loop(ecg, fs):
    """``detect_beats`` written with a Python loop per one-second block and
    per peak: the reference for its array operations."""
    x = np.asarray(ecg, dtype=float)
    block = int(fs)
    nblock = x.size // block
    gaps = []
    flat_mask = np.zeros(x.size, dtype=bool)
    for b in range(nblock):
        # the last block runs to the end of the signal
        end = x.size if b == nblock - 1 else (b + 1) * block
        if np.ptp(x[b * block:end]) < 1e-9:
            flat_mask[b * block:end] = True
            gaps.append((b * block / fs, end / fs))
    if np.all(flat_mask):
        return np.empty(0), gaps
    sos = scipy.signal.butter(2, [5.0, 18.0], btype="bandpass", fs=fs,
                              output="sos")
    band = scipy.signal.sosfiltfilt(sos, x)
    win = max(1, int(0.15 * fs))
    env = np.convolve(band * band, np.ones(win) / win, mode="same")
    env[flat_mask] = 0.0
    height = 0.2 * np.percentile(env[~flat_mask], 98)
    if height <= 0:
        return np.empty(0), gaps
    peaks, _ = scipy.signal.find_peaks(env, height=height,
                                       distance=max(1, int(0.25 * fs)))
    half = int(0.05 * fs)
    times = []
    for p in peaks:
        lo = max(0, p - half)
        hi = min(x.size, p + half + 1)
        times.append((lo + int(np.argmax(np.abs(band[lo:hi])))) / fs)
    times = np.asarray(sorted(set(times)))
    if times.size > 1:
        keep = np.concatenate([[True], np.diff(times) > 0.125])
        times = times[keep]
    return times, gaps


def edge_beats_ecg(fs, duration):
    """Noisy ECG with R-spikes 0.02 s from both ends."""
    truth = np.concatenate([[0.02], np.arange(0.5, duration - 0.3, 0.7),
                            [duration - 0.02]])
    return synthetic_ecg(truth, fs, duration, noise_sigma=0.02, seed=5)


@needs_scipy
class TestDetectBeatsMatchesLoop:
    # the extra 0.37 s makes the length no multiple of fs
    @pytest.mark.parametrize("fs", [250.0, 360.0])
    @pytest.mark.parametrize("extra_s", [0.0, 0.37])
    @pytest.mark.parametrize("flat", ["none", "first", "last", "all_but_one",
                                      "all"])
    def test_bit_for_bit(self, fs, extra_s, flat):
        ecg = edge_beats_ecg(fs, 12.0 + extra_s)
        block = int(fs)
        nblock = ecg.size // block
        blocks = {"none": [], "first": [0, 1], "last": [nblock - 1],
                  "all_but_one": [b for b in range(nblock) if b != 4],
                  "all": range(nblock)}[flat]
        for b in blocks:   # the last block takes the partial second too
            ecg[b * block:(b + 1) * block if b < nblock - 1 else None] = 0.25
        times, gaps = detect_beats_loop(ecg, fs)
        det = detect_beats(ecg, fs)
        assert det.times.tobytes() == times.tobytes()
        assert det.gaps == gaps
        assert len(gaps) == len(blocks)

    @pytest.mark.parametrize("fs", [250.0, 360.0])
    @pytest.mark.parametrize("ends_peak", [False, True])
    def test_refinement_window_clipped_at_both_ends(self, fs, ends_peak,
                                                    monkeypatch):
        # the smoothed envelope never peaks within 0.05 s of an end, so
        # envelope peaks are added there to reach the clipped windows; with
        # ends_peak, |band| is largest, and tied, on the two end samples
        ecg = edge_beats_ecg(fs, 12.37)
        half = int(0.05 * fs)
        n = ecg.size

        def with_edge_peaks(find_peaks):
            def patched(env, *args, **kwargs):
                peaks, rest = find_peaks(env, *args, **kwargs)
                edges = [0, 1, half - 1, half, n - half - 1, n - half, n - 1]
                return np.union1d(peaks, edges), rest
            return patched

        def with_peaked_ends(filtfilt):
            def patched(*args):
                band = filtfilt(*args)
                if ends_peak and band.size == n:
                    top = 3.0 * np.max(np.abs(band))
                    band[[0, 1, -2, -1]] = [top, -top, -top, top]
                return band
            return patched

        # detect_beats calls the module's helpers, the loop calls scipy's
        monkeypatch.setattr(biosignal, "_find_peaks",
                            with_edge_peaks(biosignal._find_peaks))
        monkeypatch.setattr(biosignal, "_fft_filtfilt",
                            with_peaked_ends(biosignal._fft_filtfilt))
        monkeypatch.setattr(scipy.signal, "find_peaks",
                            with_edge_peaks(scipy.signal.find_peaks))
        monkeypatch.setattr(scipy.signal, "sosfiltfilt",
                            with_peaked_ends(scipy.signal.sosfiltfilt))
        times, gaps = detect_beats_loop(ecg, fs)
        det = detect_beats(ecg, fs)
        assert det.times.tobytes() == times.tobytes()
        assert det.gaps == gaps
        assert times[0] < 0.05 and times[-1] > (n - half) / fs
        if ends_peak:   # the first of the tied end samples
            assert times[0] == 0.0

    # past 8 * settle samples (about 19 s at 250 Hz, 38 s at 360 Hz) the
    # band-pass runs by FFT, with the exact recursion at the two ends only
    @pytest.mark.parametrize("fs", [250.0, 360.0])
    @pytest.mark.parametrize("flat", ["none", "first", "last"])
    def test_bit_for_bit_on_the_fft_path(self, fs, flat):
        ecg = edge_beats_ecg(fs, 60.37)
        block = int(fs)
        blocks = {"none": [], "first": [0, 1],
                  "last": [ecg.size // block - 1]}[flat]
        nblock = ecg.size // block
        for b in blocks:
            ecg[b * block:(b + 1) * block if b < nblock - 1 else None] = 0.25
        times, gaps = detect_beats_loop(ecg, fs)
        det = detect_beats(ecg, fs)
        assert det.times.tobytes() == times.tobytes()
        assert det.gaps == gaps
        if flat == "none":   # beats 0.02 s from each end
            assert times[0] < 0.05 and times[-1] > 60.3

    # a constant ECG whose length is no whole number of seconds: the
    # partial last second is checked with the last block, so no rounding
    # noise of the band-pass is left unmasked to pass as beats; 60.37 s is
    # past 8 * settle samples, on the FFT path
    @pytest.mark.parametrize("fs", [250.0, 360.0])
    @pytest.mark.parametrize("duration", [12.37, 60.37])
    def test_constant_ecg_with_a_partial_last_second(self, fs, duration):
        ecg = np.full(int(duration * fs), 0.25)
        det = detect_beats(ecg, fs)
        assert det.times.size == 0
        assert len(det.gaps) == ecg.size // int(fs)
        assert det.gaps[-1][1] == ecg.size / fs


@needs_scipy
def test_filter_design_is_cached_read_only_and_matches_butter():
    sos = _butter_sos((5.0, 18.0), "bandpass", 250.0)
    assert not sos.flags.writeable
    assert _butter_sos((5.0, 18.0), "bandpass", 250.0) is sos
    with pytest.raises(ValueError):
        sos[0, 0] = 1.0
    fresh = scipy.signal.butter(2, [5.0, 18.0], btype="bandpass", fs=250.0,
                                output="sos")
    assert sos.tobytes() == fresh.tobytes()
    low = _butter_sos(0.05, "lowpass", 15.0)
    assert not low.flags.writeable
    assert low.tobytes() == scipy.signal.butter(
        2, 0.05, btype="lowpass", fs=15.0, output="sos").tobytes()


_SEED = st.integers(0, 2**32 - 1)


@needs_scipy
class TestNumpySignalPathMatchesScipy:
    """Each numpy replacement in ``biosignal`` against the scipy routine it
    replaces, which stays a test dependency for this."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-3, 3), max_size=80), st.integers(-3, 3),
           st.integers(1, 8))
    def test_find_peaks_exact_on_plateaus_and_ties(self, values, height,
                                                   distance):
        x = np.array(values, dtype=float)
        peaks, heights = _find_peaks(x, height, distance)
        ref, props = scipy.signal.find_peaks(x, height=height,
                                             distance=distance)
        assert peaks.tolist() == ref.tolist()
        assert heights.tobytes() == props["peak_heights"].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.001, 0.45), st.floats(1.05, 20.0),
           st.sampled_from([1.0, 15.0, 25.0, 250.0, 360.0, 1000.0]))
    def test_butter_design_bit_identical(self, low, ratio, fs):
        low *= fs
        assert _butter_sos.__wrapped__(low, "lowpass", fs).tobytes() == \
            scipy.signal.butter(2, low, btype="lowpass", fs=fs,
                                output="sos").tobytes()
        high = low * ratio
        assume(high < 0.49 * fs)
        assert _butter_sos.__wrapped__((low, high), "bandpass", fs).tobytes() \
            == scipy.signal.butter(2, [low, high], btype="bandpass", fs=fs,
                                   output="sos").tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_SEED, st.integers(16, 2000), st.sampled_from([
        (0.05, "lowpass", GSR_FS), (1.0, "lowpass", 25.0),
        ((5.0, 18.0), "bandpass", ECG_FS)]))
    def test_sosfiltfilt_bit_for_bit(self, seed, size, design):
        rng = np.random.default_rng(seed)
        x = 5.0 + np.cumsum(rng.normal(scale=0.05, size=size))
        sos = _butter_sos(*design)
        assert _sosfiltfilt(sos, x).tobytes() == \
            scipy.signal.sosfiltfilt(sos.copy(), x).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(_SEED, st.integers(4_000, 40_000),
           st.sampled_from([250.0, 360.0, 500.0]))
    def test_fft_filtfilt_within_rounding(self, seed, size, fs):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.normal(scale=0.05, size=size)) + rng.normal(
            size=size)
        ref = scipy.signal.sosfiltfilt(
            _butter_sos((5.0, 18.0), "bandpass", fs).copy(), x)
        ours = _fft_filtfilt(x, (5.0, 18.0), "bandpass", fs)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(x))

    @settings(max_examples=100, deadline=None)
    @given(_SEED, st.integers(2, 3000), st.floats(-1e3, 1e3))
    def test_detrend_within_1e12(self, seed, size, offset):
        rng = np.random.default_rng(seed)
        x = offset + 0.01 * np.arange(size) + rng.normal(size=size)
        ref = scipy.signal.detrend(x, type="linear")
        assert np.max(np.abs(_detrend(x) - ref)) <= 1e-12 * np.max(np.abs(x))

    @settings(max_examples=100, deadline=None)
    @given(_SEED, st.integers(8, 3000), st.integers(8, 512),
           st.sampled_from([TACHOGRAM_HZ, RESP_FS]))
    def test_welch_within_1e12(self, seed, size, nperseg, fs):
        x = np.random.default_rng(seed).normal(size=size)
        nperseg = min(size, nperseg)
        freqs, psd = _welch(x, fs, nperseg)
        ref_freqs, ref = scipy.signal.welch(x, fs=fs, nperseg=nperseg,
                                            noverlap=nperseg // 2)
        assert freqs.tobytes() == ref_freqs.tobytes()
        assert np.max(np.abs(psd - ref)) <= 1e-12 * np.max(ref)

    @settings(max_examples=100, deadline=None)
    @given(_SEED, st.integers(4, 400))
    def test_cubic_spline_within_1e12(self, seed, size):
        iv = np.random.default_rng(seed).uniform(300.0, 1500.0, size)
        beat_t = np.cumsum(iv) / 1000.0
        grid = np.arange(beat_t[0], beat_t[-1], 1.0 / TACHOGRAM_HZ)
        ref = scipy.interpolate.interp1d(beat_t, iv, kind="cubic",
                                         assume_sorted=True)(grid)
        ours = _cubic_spline(beat_t, iv, grid)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(iv)


class TestHrRmssd:
    def test_constant_750ms(self):
        hr, rmssd = hr_rmssd([750.0] * 10)
        assert hr == pytest.approx(80.0)
        assert rmssd == 0.0

    def test_alternating_800_850(self):
        iv = [800.0, 850.0] * 10
        _, rmssd = hr_rmssd(iv)
        assert rmssd == 50.0

    def test_walk_scale_from_paper_range(self):
        # 118 bpm corresponds to a mean interval near 508 ms
        hr, _ = hr_rmssd([60000.0 / 118.0] * 20)
        assert hr == pytest.approx(118.0)
        assert 60000.0 / 118.0 == pytest.approx(508.47, abs=0.01)

    def test_too_few_intervals(self):
        with pytest.raises(InsufficientDataError):
            hr_rmssd([800.0])

    def test_shift_invariance_of_rmssd(self):
        rng = np.random.default_rng(2)
        iv = 800.0 + rng.normal(scale=30.0, size=200)
        hr1, r1 = hr_rmssd(iv)
        hr2, r2 = hr_rmssd(iv + 100.0)
        assert r1 == pytest.approx(r2, rel=1e-12)
        assert hr2 < hr1


def modulated_intervals(freq_hz, amp_ms, duration_s, base_ms=800.0):
    """Intervals whose tachogram is a pure sinusoid at freq_hz."""
    times = [0.0]
    iv = []
    while times[-1] < duration_s:
        nxt = base_ms + amp_ms * np.sin(2 * np.pi * freq_hz * times[-1])
        iv.append(nxt)
        times.append(times[-1] + nxt / 1000.0)
    return np.asarray(iv)


class TestLfPower:
    def test_modulation_inside_band(self):
        iv = modulated_intervals(0.1, 25.0, 300.0)
        lf, fraction = lf_power(iv)
        assert fraction > 0.9
        assert lf > 0

    def test_modulation_above_band(self):
        iv = modulated_intervals(0.3, 25.0, 300.0)
        _, fraction = lf_power(iv)
        assert fraction < 0.1

    def test_constant_intervals_near_zero(self):
        iv = np.full(400, 800.0)
        lf, _ = lf_power(iv)
        assert lf < 1e-6

    def test_short_window_rejected(self):
        with pytest.raises(InsufficientDataError):
            lf_power(np.full(50, 800.0))  # 40 s

    def test_nonpositive_interval_rejected(self):
        iv = np.full(200, 800.0)
        iv[50] = 0.0
        with pytest.raises(ValueError):
            lf_power(iv)

    def test_amplitude_quadratic(self):
        lf1, _ = lf_power(modulated_intervals(0.1, 12.0, 300.0))
        lf2, _ = lf_power(modulated_intervals(0.1, 24.0, 300.0))
        assert lf2 / lf1 == pytest.approx(4.0, rel=0.05)


class TestRespirationRate:
    def test_half_hertz_sinusoid(self):
        fs = 25.0
        t = np.arange(int(60 * fs)) / fs
        wave = np.sin(2 * np.pi * 0.5 * t)
        rate, valid = respiration_rate(wave, fs)
        assert valid
        assert rate == pytest.approx(30.0, abs=0.5)

    def test_paper_walk_scale(self):
        # 31 breaths/min lives at about 0.517 Hz
        fs = 25.0
        t = np.arange(int(120 * fs)) / fs
        wave = np.sin(2 * np.pi * (31.0 / 60.0) * t)
        rate, valid = respiration_rate(wave, fs)
        assert valid
        assert rate == pytest.approx(31.0, abs=0.5)

    def test_white_noise_flagged_invalid(self):
        rng = np.random.default_rng(3)
        fs = 25.0
        wave = rng.normal(size=int(90 * fs))
        rate, valid = respiration_rate(wave, fs)
        assert not valid

    def test_breath_marks_path(self):
        marks = np.arange(0.0, 60.0, 3.0)  # 20 breaths/min
        rate, valid = respiration_rate(breath_times=marks)
        assert valid
        assert rate == pytest.approx(20.0)

    def test_short_window_rejected(self):
        with pytest.raises(InsufficientDataError):
            respiration_rate(np.zeros(100), 25.0)

    @pytest.mark.parametrize("marks", [[10.0, 20.0, 10.0], [5.0, 5.0, 5.0]])
    def test_marks_that_do_not_increase_rejected(self, marks):
        # a zero mean interval divided by zero
        with pytest.raises(ValueError, match="breath marks must increase"):
            respiration_rate(breath_times=marks)


def scr_bump(t, onset, amplitude=0.2, rise=0.5, decay=2.5):
    """Classic fast-rise/slow-decay phasic event shape."""
    dt = np.maximum(t - onset, 0.0)
    shape = (1 - np.exp(-dt / rise)) * np.exp(-dt / decay)
    return amplitude * np.where(t > onset, shape, 0.0)


class TestGsrDecompose:
    def test_constant_input(self):
        fs = 15.0
        x = np.full(int(fs * 120), 5.0)
        dec = gsr_decompose(x, fs)
        assert dec.scl_mean == pytest.approx(5.0, rel=1e-9)
        assert dec.event_indices.size == 0
        assert dec.scr_rate_per_min == 0.0

    def test_injected_bumps_counted_exactly(self):
        fs = 15.0
        duration = 120.0
        t = np.arange(int(fs * duration)) / fs
        x = np.full(t.size, 5.0)
        onsets = [15.0, 35.0, 55.0, 75.0, 95.0, 110.0]  # 6 bumps in 2 min
        for onset in onsets:
            x = x + scr_bump(t, onset)
        dec = gsr_decompose(x, fs)
        assert dec.event_indices.size == len(onsets)
        assert dec.scr_rate_per_min == pytest.approx(3.0)
        assert dec.scr_mean_amplitude > 0.05

    def test_slow_drift_goes_to_tonic(self):
        fs = 15.0
        t = np.arange(int(fs * 300)) / fs
        x = 4.0 + 0.001 * t  # 0.3 uS over five minutes
        dec = gsr_decompose(x, fs)
        assert dec.event_indices.size == 0
        assert np.max(np.abs(dec.phasic)) < 0.01

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(4)
        fs = 15.0
        x = 5.0 + np.abs(rng.normal(scale=0.1, size=int(fs * 90)))
        dec = gsr_decompose(x, fs)
        np.testing.assert_allclose(dec.scl + dec.phasic, x, atol=1e-9)

    def test_negative_conductance_rejected(self):
        fs = 15.0
        x = np.full(int(fs * 90), 1.0)
        x[100] = -0.5
        with pytest.raises(DataQualityError):
            gsr_decompose(x, fs)

    def test_short_window_rejected(self):
        with pytest.raises(InsufficientDataError):
            gsr_decompose(np.full(100, 1.0), 15.0)


def small_session(sit=240.0, sit_exo=180.0, walk=960.0, hr_bpm=75.0):
    """Interval-channel session with mild variability everywhere."""
    total = sit + sit_exo + walk
    rng = np.random.default_rng(5)
    beats = [0.4]
    while beats[-1] < total:
        base = 60.0 / hr_bpm
        wobble = 0.02 * np.sin(2 * np.pi * 0.1 * beats[-1])
        beats.append(beats[-1] + base + wobble + rng.normal(scale=0.003))
    beats = np.asarray(beats)
    iv_ms = np.diff(beats) * 1000.0
    fs_r = 25.0
    t_r = np.arange(int(total * fs_r)) / fs_r
    resp = np.sin(2 * np.pi * 0.3 * t_r) + rng.normal(scale=0.05,
                                                      size=t_r.size)
    fs_g = 15.0
    t_g = np.arange(int(total * fs_g)) / fs_g
    gsr = np.full(t_g.size, 5.0)
    for onset in np.arange(10.0, total - 10.0, 17.0):
        gsr = gsr + scr_bump(t_g, onset, amplitude=0.15)
    markers = {"sit": (0.0, sit), "sit_exo": (sit, sit + sit_exo),
               "walk": (sit + sit_exo, total)}
    return PhysioSession(markers=markers, beat_intervals_ms=iv_ms,
                         respiration=resp, respiration_fs=fs_r,
                         gsr=gsr, gsr_fs=fs_g)


class TestWindowedFeatures:
    def test_window_counts_per_phase(self):
        session = small_session()
        rows = windowed_features(session)
        counts = {}
        for fw in rows:
            counts[fw.phase] = counts.get(fw.phase, 0) + 1
        assert counts["sit"] == 4
        assert counts["sit_exo"] == 3
        assert counts["walk"] == 16

    def test_boundary_straddling_excluded(self):
        # a 250 s sit phase yields 4 full windows, not 5
        session = small_session(sit=250.0)
        rows = [fw for fw in windowed_features(session) if fw.phase == "sit"]
        assert len(rows) == 4
        assert all(fw.stop <= 250.0 + 1e-9 for fw in rows)

    def test_all_features_populated(self):
        session = small_session()
        rows = windowed_features(session)
        for fw in rows:
            for name in FeatureWindow.FEATURES:
                assert getattr(fw, name) is not None, (fw.phase, fw.start, name)

    def test_features_are_the_feature_fields(self):
        # the report counts missing values over FEATURES and writes every
        # field, so the two must name the same features in the same order
        keys = list(asdict(FeatureWindow(phase="sit", start=0.0, stop=60.0)))
        assert keys[:3] == ["phase", "start", "stop"]
        assert tuple(keys[3:]) == FeatureWindow.FEATURES

    def test_deterministic(self):
        session = small_session()
        r1 = [asdict(fw) for fw in windowed_features(session)]
        r2 = [asdict(fw) for fw in windowed_features(session)]
        assert r1 == r2

    def test_window_before_the_recording_reads_no_samples(self):
        # the waveforms start at t = 0 and breathe at 30/min over their
        # last 2 min, 18/min before: the sit windows from -120 s to 0 lie
        # wholly before the recording and get no value from its end
        session = small_session(sit=120.0, sit_exo=180.0, walk=240.0)
        fs = session.respiration_fs
        t = np.arange(session.respiration.size) / fs
        rate = np.where(t < t[-1] - 120.0, 18.0, 30.0) / 60.0
        shifted = replace(
            session, respiration=np.sin(2 * np.pi * np.cumsum(rate) / fs),
            markers={"sit": (-120.0, 0.0), "sit_exo": (0.0, 180.0),
                     "walk": (180.0, 420.0)})
        rows = windowed_features(shifted)
        assert [(fw.start, fw.stop) for fw in rows[:2]] == [(-120.0, -60.0),
                                                           (-60.0, 0.0)]
        for fw in rows[:2]:
            assert all(getattr(fw, name) is None
                       for name in FeatureWindow.FEATURES), fw
        assert rows[2].rr == pytest.approx(18.0, abs=0.5)

    # each variant and the features some window of it gives up
    @pytest.mark.parametrize("variant, missing", [
        ("waveform-over-marks", {"lf_ms2", "lf_fraction"}),
        ("ecg-breath-marks", {"lf_ms2", "lf_fraction", "rr", "scl",
                              "scr_rate", "scr_amplitude"}),
        ("no-respiration", {"lf_ms2", "lf_fraction", "rr"}),
        ("beat-gap-noise", set(FeatureWindow.FEATURES))],
        ids=["waveform-over-marks", "ecg-breath-marks", "no-respiration",
             "beat-gap-noise"])
    def test_matches_the_retired_form_bit_for_bit(self, variant, missing):
        session = _pinned_session(variant)
        rows = windowed_features(session)
        expected = retired_windowed_features(session)
        assert len(rows) == len(expected) == 8
        for row, old in zip(rows, expected):
            for name, value in asdict(row).items():
                want = getattr(old, name)
                if want is None or isinstance(want, str):
                    assert value is want, (row, name)
                else:
                    assert type(value) is float, (row, name)
                    assert (np.array(value).view(np.uint64)
                            == np.array(want).view(np.uint64)), (row, name)
        assert {name for fw in rows for name in FeatureWindow.FEATURES
                if getattr(fw, name) is None} == missing


def _pinned_session(variant):
    """A 520 s session whose 100 s sit phase is shorter than LF_CONTEXT_S,
    with the channels of ``variant``: beat intervals, GSR, and a
    respiration waveform beside breath marks, which it takes precedence
    over; an ECG with breath marks 2 s and 3 s apart, some on window
    bounds, that stop at 400 s; no respiration channel; or no beat from
    330 s to 410 s, white-noise respiration, and waveforms that stop at
    450 s."""
    session = small_session(sit=100.0, sit_exo=180.0, walk=240.0)
    beats = np.cumsum(session.beat_intervals_ms) / 1000.0
    if variant == "ecg-breath-marks":
        return replace(session, beat_intervals_ms=None, respiration=None,
                       gsr=None, ecg=synthetic_ecg(beats, ECG_FS, 520.0),
                       ecg_fs=ECG_FS,
                       breath_times=np.cumsum(np.tile([2.0, 3.0], 80)))
    if variant == "waveform-over-marks":
        return replace(session, breath_times=np.arange(1.0, 520.0, 5.0))
    if variant == "beat-gap-noise":
        kept = beats[(beats < 330.0) | (beats > 410.0)]
        noise = np.random.default_rng(11).normal(size=450 * 25)
        return replace(session,
                       beat_intervals_ms=np.diff(kept, prepend=0.0) * 1000.0,
                       respiration=noise, gsr=session.gsr[:450 * 15])
    assert variant == "no-respiration", variant
    return replace(session, respiration=None)


def _save_series(directory):
    """Save a session whose five channel files each hold 1.0 to 40.0."""
    series = np.arange(1.0, 41.0)
    PhysioSession(markers={"sit": (0.0, 1.0), "sit_exo": (1.0, 2.0),
                           "walk": (2.0, 3.0)},
                  ecg=series, beat_intervals_ms=series, respiration=series,
                  breath_times=series, gsr=series).save(directory)


class TestPhysioSession:
    def test_marker_validation(self):
        with pytest.raises(SchemaError):
            PhysioSession(markers={"sit": (0, 240)}, beat_intervals_ms=np.ones(10))
        with pytest.raises(SchemaError):
            PhysioSession(markers={"sit": (0, 240), "sit_exo": (200, 300),
                                   "walk": (300, 1260)},
                          beat_intervals_ms=np.ones(10))

    def test_protocol_conformance(self):
        session = small_session(sit=200.0)  # out of the +-5% window
        with pytest.raises(SchemaError):
            session.validate_protocol()
        session.validate_protocol(lenient=True)
        small_session().validate_protocol()

    @pytest.mark.parametrize("channels, end", [
        ({"beat_intervals_ms": np.full(5, 1000.0)}, 5.0),
        ({"ecg": np.zeros(2500), "ecg_fs": 500.0}, 5.0),
        ({"ecg": np.zeros(2500), "ecg_fs": 500.0,
          "breath_times": np.array([1.0, 7.5])}, 7.5),
        ({"beat_intervals_ms": np.full(5, 1000.0),
          "respiration": np.zeros(200), "respiration_fs": 25.0}, 8.0),
        ({"ecg": np.zeros(2500), "ecg_fs": 500.0, "gsr": np.zeros(150),
          "gsr_fs": 15.0}, 10.0)],
        ids=["intervals", "ecg", "breath-marks", "respiration", "gsr"])
    def test_recording_ends_with_its_longest_channel(self, channels, end):
        markers = {"sit": (0.0, 1.0), "sit_exo": (1.0, 2.0), "walk": (2.0, 3.0)}
        session = PhysioSession(markers=markers, **channels)
        assert session.recording_end() == end

    def test_phase_past_the_recording_fails_lenient_or_not(self):
        session = small_session()
        end = session.recording_end()
        start = session.markers["walk"][0]
        late = replace(session, markers={**session.markers,
                                         "walk": (start, end + WINDOW_S + 1)})
        for lenient in (False, True):
            with pytest.raises(SchemaError, match="^phase walk ends at "):
                late.validate_protocol(lenient=lenient)
        replace(late, markers={**session.markers, "walk": (
            start, end + WINDOW_S)}).validate_protocol(lenient=True)

    def test_directory_round_trip(self, tmp_path):
        session = small_session()
        session.save(tmp_path / "phys")
        loaded = PhysioSession.load(tmp_path / "phys")
        np.testing.assert_allclose(loaded.beat_intervals_ms,
                                   session.beat_intervals_ms)
        np.testing.assert_allclose(loaded.gsr, session.gsr)
        assert loaded.markers["walk"] == session.markers["walk"]
        # waveforms round-trip through %.8g text, so features agree to
        # well under the tolerances any downstream consumer uses
        r1 = [asdict(fw) for fw in windowed_features(session)]
        r2 = [asdict(fw) for fw in windowed_features(loaded)]
        for a, b in zip(r1, r2):
            for k in a:
                if isinstance(a[k], float) and a[k] is not None:
                    assert a[k] == pytest.approx(b[k], rel=1e-5, abs=1e-9)

    def _edit_manifest(self, directory, edit):
        """Save a short session to ``directory``, apply ``edit`` to its
        manifest and return the manifest's path."""
        series = np.arange(1.0, 41.0)
        PhysioSession(markers={"sit": (0.0, 1.0), "sit_exo": (1.0, 2.0),
                               "walk": (2.0, 3.0)},
                      ecg=series, respiration=series, gsr=series,
                      ecg_fs=500.0, respiration_fs=50.0,
                      gsr_fs=30.0).save(directory)
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        return path

    @pytest.mark.parametrize("channel", ["ecg", "respiration", "gsr"])
    @pytest.mark.parametrize("fs", [0, -250, 0.0, "250", True, [250],
                                    1000001, 1e307])
    def test_bad_rate_names_the_manifest(self, tmp_path, channel, fs):
        path = self._edit_manifest(
            tmp_path, lambda m: m["channels"][channel].update(fs=fs))
        with pytest.raises(SchemaError) as info:
            PhysioSession.load(tmp_path)
        assert str(info.value) == (f"{path}: channel {channel}: fs must be "
                                   f"a number in (0, 1e6] Hz, got {fs!r}")

    def test_missing_rate_keeps_the_protocol_default(self, tmp_path):
        def drop_rates(manifest):
            for spec in manifest["channels"].values():
                del spec["fs"]
        self._edit_manifest(tmp_path, drop_rates)
        loaded = PhysioSession.load(tmp_path)
        assert (loaded.ecg_fs, loaded.respiration_fs, loaded.gsr_fs) == (
            ECG_FS, RESP_FS, GSR_FS)
        self._edit_manifest(tmp_path, lambda m: None)
        loaded = PhysioSession.load(tmp_path)
        assert (loaded.ecg_fs, loaded.respiration_fs, loaded.gsr_fs) == (
            500.0, 50.0, 30.0)

    @pytest.mark.parametrize("bounds", [
        [0], [0.0, 1.0, 2.0], [0.0, "1"], "01", {"start": 0}, [False, 1.0],
        [0.0, 1e307], [-1.5e10, 1.0], [0.0, 10000000001]])
    def test_bad_marker_names_the_manifest(self, tmp_path, bounds):
        path = self._edit_manifest(
            tmp_path, lambda m: m["markers"].update(sit=bounds))
        with pytest.raises(SchemaError) as info:
            PhysioSession.load(tmp_path)
        assert str(info.value) == (f"{path}: marker sit must be a pair of "
                                   f"numbers in [-1e10, 1e10] s, "
                                   f"got {tuple(bounds)!r}")

    @pytest.mark.parametrize("change, reason", [
        ({"respiration_fs": -25.0},
         "channel respiration: fs must be a number in (0, 1e6] Hz, "
         "got -25.0"),
        ({"gsr_fs": float("nan")},
         "channel gsr: fs must be a number in (0, 1e6] Hz, got nan"),
        ({"ecg_fs": 1e307},
         "channel ecg: fs must be a number in (0, 1e6] Hz, got 1e+307"),
        ({"markers": {"sit": (1e307, 2e307), "sit_exo": (2e307, 3e307),
                      "walk": (3e307, 4e307)}},
         "marker sit must be a pair of numbers in [-1e10, 1e10] s, "
         "got (1e+307, 2e+307)")],
        ids=["negative-rate", "nan-rate", "huge-rate", "huge-markers"])
    def test_direct_construction_bounds_rates_and_markers(self, change,
                                                          reason):
        # the checks the manifest path runs hold for a session built in code
        fields = {"markers": {"sit": (0.0, 240.0), "sit_exo": (240.0, 420.0),
                              "walk": (420.0, 1380.0)},
                  "beat_intervals_ms": np.full(10, 800.0)}
        with pytest.raises(SchemaError) as info:
            PhysioSession(**fields | change)
        assert str(info.value) == reason

    def test_rates_and_markers_at_their_limits_construct(self):
        session = PhysioSession(
            markers={"sit": (-1e10, 0.0), "sit_exo": (0.0, 1.0),
                     "walk": (1.0, 1e10)},
            beat_intervals_ms=np.full(10, 800.0), ecg_fs=1e6,
            respiration_fs=1e6, gsr_fs=1e6)
        assert session.markers["walk"] == (1.0, 1e10)

    @pytest.mark.parametrize("edit, reason", [
        (lambda m: m["markers"].pop("walk"), "missing phase marker: walk"),
        (lambda m: m["markers"].update(walk=[1.5, 3.0]),
         "phase markers overlap or are out of order"),
        (lambda m: m["channels"].pop("ecg"),
         "need an ECG channel or precomputed intervals"),
        (lambda m: m["channels"]["ecg"].pop("file"), "missing key 'file'"),
        (lambda m: m.update(markers=[]), "'list' object has no attribute"),
        (lambda m: m.update(schema_version=2),
         "unsupported schema_version 2")],
        ids=["no-walk", "overlap", "no-heart", "no-file", "markers-list",
             "version"])
    def test_bad_layout_names_the_manifest(self, tmp_path, edit, reason):
        path = self._edit_manifest(tmp_path, edit)
        with pytest.raises(SchemaError) as info:
            PhysioSession.load(tmp_path)
        assert str(info.value).startswith(f"{path}: {reason}")

    @pytest.mark.parametrize("column, file", [
        ("ecg_mv", "ecg.csv"), ("interval_ms", "beat_intervals.csv"),
        ("respiration_au", "respiration.csv"),
        ("breath_t_s", "breath_times.csv"), ("gsr_us", "gsr.csv")])
    @pytest.mark.parametrize("cell, reason", [
        ("nan", "non-finite {column} value nan"),
        ("-inf", "non-finite {column} value -inf"),
        ("abc", "could not convert string to float: 'abc'"),
        ("1_0", "could not convert string to float: '1_0'"),
        ("1 2", "could not convert string to float: '1 2'"),
        ("1,2", "expected 1 fields, got 2"),
        ("1\udce9", "not valid UTF-8")])   # a latin-1 byte
    def test_bad_cell_names_file_and_line(self, tmp_path, column, file,
                                          cell, reason):
        _save_series(tmp_path)
        path = tmp_path / file
        lines = path.read_text().splitlines()
        lines[4] = ""  # blank lines are skipped but counted
        lines[9] = cell
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8",
                                                          "surrogateescape"))
        with pytest.raises(ValueError) as info:
            PhysioSession.load(tmp_path)
        assert str(info.value) == (f"{path}: line 10: "
                                   + reason.format(column=column))

    @pytest.mark.parametrize("file, cell, reason", [
        ("ecg.csv", "1e300", "ecg_mv value 1e+300 outside [-1e12, 1e12] mV"),
        ("ecg.csv", "-1.5e12",
         "ecg_mv value -1500000000000.0 outside [-1e12, 1e12] mV"),
        ("beat_intervals.csv", "0", "interval_ms value 0.0 outside "
                                    "(0, 1e12] ms"),
        ("beat_intervals.csv", "-800", "negative interval_ms value -800.0"),
        ("respiration.csv", "2e12", "respiration_au value 2000000000000.0 "
                                    "outside [-1e12, 1e12] a.u."),
        ("breath_times.csv", "-1e300",
         "breath_t_s value -1e+300 outside [-1e10, 1e10] s"),
        ("gsr.csv", "-5.0", "negative gsr_us value -5.0"),
        ("gsr.csv", "1e13", "gsr_us value 10000000000000.0 outside "
                            "[0, 1e12] uS")])
    def test_value_outside_its_range_names_file_and_line(self, tmp_path, file,
                                                         cell, reason):
        _save_series(tmp_path)
        path = tmp_path / file
        lines = path.read_text().splitlines()
        lines[9] = cell
        lines[20] = "nan"   # the first bad value in reading order is named
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            PhysioSession.load(tmp_path)
        assert str(info.value) == f"{path}: line 10: {reason}"

    @pytest.mark.parametrize("file, low, high", [
        ("ecg.csv", "-1e12", "1e12"), ("beat_intervals.csv", "5e-324", "1e12"),
        ("respiration.csv", "-1e12", "1e12"),
        ("breath_times.csv", "-1e10", "1e10"), ("gsr.csv", "0", "1e12")])
    def test_values_at_their_range_limits_load(self, tmp_path, file, low,
                                               high):
        _save_series(tmp_path)
        path = tmp_path / file
        lines = path.read_text().splitlines()
        lines[1:3] = [low, high]
        path.write_text("\n".join(lines) + "\n")
        session = PhysioSession.load(tmp_path)
        values = {"ecg.csv": session.ecg,
                  "beat_intervals.csv": session.beat_intervals_ms,
                  "respiration.csv": session.respiration,
                  "breath_times.csv": session.breath_times,
                  "gsr.csv": session.gsr}[file]
        assert values[:3].tolist() == [float(low), float(high), 3.0]
