import numpy as np
import pytest
import scipy.signal

from exobench.biosignal import (FeatureWindow, PhysioSession, _butter_sos,
                                detect_beats, gsr_decompose, hr_rmssd,
                                lf_power, respiration_rate, windowed_features)
from exobench.errors import (DataQualityError, InsufficientDataError,
                             SchemaError)


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
    gaps = []
    flat_mask = np.zeros(x.size, dtype=bool)
    for b in range(x.size // block):
        if np.ptp(x[b * block:(b + 1) * block]) < 1e-9:
            flat_mask[b * block:(b + 1) * block] = True
            gaps.append((b * block / fs, (b + 1) * block / fs))
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
        for b in blocks:
            ecg[b * block:(b + 1) * block] = 0.25
        if flat == "all":
            ecg[nblock * block:] = 0.25
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
        real_find_peaks = scipy.signal.find_peaks
        real_sosfiltfilt = scipy.signal.sosfiltfilt

        def find_peaks(env, **kwargs):
            peaks, props = real_find_peaks(env, **kwargs)
            edges = [0, 1, half - 1, half, n - half - 1, n - half, n - 1]
            return np.union1d(peaks, edges), props

        def sosfiltfilt(sos, x):
            band = real_sosfiltfilt(sos, x)
            if ends_peak and x.size == n:
                top = 3.0 * np.max(np.abs(band))
                band[[0, 1, -2, -1]] = [top, -top, -top, top]
            return band

        monkeypatch.setattr(scipy.signal, "find_peaks", find_peaks)
        monkeypatch.setattr(scipy.signal, "sosfiltfilt", sosfiltfilt)
        times, gaps = detect_beats_loop(ecg, fs)
        det = detect_beats(ecg, fs)
        assert det.times.tobytes() == times.tobytes()
        assert det.gaps == gaps
        assert times[0] < 0.05 and times[-1] > (n - half) / fs
        if ends_peak:   # the first of the tied end samples
            assert times[0] == 0.0


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
                assert fw.feature(name) is not None, (fw.phase, fw.start, name)

    def test_deterministic(self):
        session = small_session()
        r1 = [fw.to_dict() for fw in windowed_features(session)]
        r2 = [fw.to_dict() for fw in windowed_features(session)]
        assert r1 == r2


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
        r1 = [fw.to_dict() for fw in windowed_features(session)]
        r2 = [fw.to_dict() for fw in windowed_features(loaded)]
        for a, b in zip(r1, r2):
            for k in a:
                if isinstance(a[k], float) and a[k] is not None:
                    assert a[k] == pytest.approx(b[k], rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("channel, file", [
        ("ecg", "ecg.csv"), ("beats", "beat_intervals.csv"),
        ("respiration", "respiration.csv"),
        ("breath_times", "breath_times.csv"), ("gsr", "gsr.csv")])
    @pytest.mark.parametrize("cell, reason", [
        ("nan", "non-finite {channel} value nan"),
        ("-inf", "non-finite {channel} value -inf"),
        ("abc", "could not convert string to float: 'abc'"),
        ("1_0", "could not convert string to float: '1_0'"),
        ("1 2", "expected 1 fields, got 2"),
        ("1\udce9", "not valid UTF-8")])   # a latin-1 byte
    def test_bad_cell_names_file_and_line(self, tmp_path, channel, file,
                                          cell, reason):
        series = np.arange(1.0, 41.0)
        PhysioSession(markers={"sit": (0.0, 1.0), "sit_exo": (1.0, 2.0),
                               "walk": (2.0, 3.0)},
                      ecg=series, beat_intervals_ms=series,
                      respiration=series, breath_times=series,
                      gsr=series).save(tmp_path)
        path = tmp_path / file
        lines = path.read_text().splitlines()
        lines[4] = ""  # blank lines are skipped but counted
        lines[9] = cell
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8",
                                                          "surrogateescape"))
        with pytest.raises(ValueError) as info:
            PhysioSession.load(tmp_path)
        assert str(info.value) == (f"{path}: line 10: "
                                   + reason.format(channel=channel))
