import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from exobench import simulator
from exobench.blend import ControlLoop
from exobench.dynamics import CompensationTables, StanceModel
from exobench.segmentation import (GaitRegressor, label_from_soles, train,
                                   training_session_builder)
from exobench.simulator import (ROWS_PER_CHUNK, GaitPattern,
                                TREADMILL_SPEEDS_KMH, generate_cycle,
                                generate_training_protocol, joint_angles,
                                replay, replay_batch)
from exobench.streams import SensorStream


class TestGaitPattern:
    def test_defaults_valid(self):
        pat = GaitPattern()
        assert pat.cycle_duration == pytest.approx(1.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaitPattern(cadence=0.0)
        with pytest.raises(ValueError):
            GaitPattern(double_support_fraction=0.5)

    def test_template_stays_in_the_joint_bounds(self):
        assert abs(simulator.HIP_OFFSET) + simulator.HIP_AMPLITUDE <= 0.7
        k_osc = simulator.KNEE_AMPLITUDE * (
            1.0 + simulator.KNEE_STANCE_FRACTION
            + simulator.KNEE_THIRD_FRACTION)
        assert 0.0 <= simulator.KNEE_OFFSET - k_osc
        assert simulator.KNEE_OFFSET + k_osc <= 1.3
        assert simulator.TOTAL_LOAD > 0
        q = joint_angles(np.linspace(0.0, 1.0, 100_001))
        assert np.abs(q[:, [0, 3]]).max() <= 0.7
        assert 0.0 <= q[:, [1, 4]].min() and q[:, [1, 4]].max() <= 1.3

    def test_speed_scaling_changes_cadence_only(self):
        pat = GaitPattern(double_support_fraction=0.3, angle_noise=0.01,
                          load_noise=2.0)
        fast = pat.at_speed(3.0)
        assert fast.cadence == pytest.approx(pat.cadence * 1.5)
        assert fast.treadmill_speed == 3.0
        assert replace(fast, cadence=pat.cadence,
                       treadmill_speed=pat.treadmill_speed) == pat


class TestGenerateCycle:
    def test_frame_count(self):
        # cadence 100 steps/min -> 1.2 s cycle -> 120 frames at 100 Hz
        stream = generate_cycle(GaitPattern(), rate=100, cycles=1, seed=0)
        assert len(stream) == 120

    def test_deterministic_under_seed(self):
        pat = GaitPattern()
        s1 = generate_cycle(pat, rate=200, cycles=2, seed=42)
        s2 = generate_cycle(pat, rate=200, cycles=2, seed=42)
        assert np.array_equal(s1.q, s2.q)
        assert np.array_equal(s1.left_load, s2.left_load)
        s3 = generate_cycle(pat, rate=200, cycles=2, seed=43)
        assert not np.array_equal(s1.q, s3.q)

    def test_zero_double_support_never_both_loaded(self):
        pat = GaitPattern(double_support_fraction=0.0, load_noise=0.0)
        stream = generate_cycle(pat, rate=500, cycles=3, seed=1)
        both = (stream.left_load > 0) & (stream.right_load > 0)
        assert not np.any(both)

    @pytest.mark.parametrize("rate", [50, math.nan, math.inf])
    def test_rejects_low_or_nonfinite_rate(self, rate):
        with pytest.raises(ValueError, match="sample rate must be at least "
                                             "100 Hz and finite"):
            generate_cycle(GaitPattern(), rate=rate, cycles=1)

    @pytest.mark.parametrize("cycles", [0, -1, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite_cycles(self, cycles):
        with pytest.raises(ValueError, match="cycles must be positive and "
                                             "finite"):
            generate_cycle(GaitPattern(), rate=100, cycles=cycles)

    def test_rejects_more_frames_than_sim_generates(self):
        # 1e9 cycles at 5 kHz would be about 44 TiB of frames
        with pytest.raises(ValueError, match="frames; a generated stream "
                                             "holds at most 5000000$"):
            generate_cycle(GaitPattern(), rate=5000, cycles=1e9)

    def test_knee_stays_flexion_only(self):
        stream = generate_cycle(GaitPattern(angle_noise=0.0), rate=500,
                                cycles=2, seed=2)
        assert np.min(stream.q[:, 1]) >= 0.0
        assert np.max(stream.q[:, 1]) <= 1.3

    def test_periodicity_autocorrelation(self):
        pat = GaitPattern(angle_noise=0.0, load_noise=0.0)
        rate = 200
        stream = generate_cycle(pat, rate=rate, cycles=5, seed=3)
        x = stream.q[:, 0] - np.mean(stream.q[:, 0])
        lag = round(pat.cycle_duration * rate)
        corr = np.corrcoef(x[:-lag], x[lag:])[0, 1]
        assert corr > 0.999


class TestPhaseConsistency:
    def test_label_sign_matches_stance_leg(self):
        # in single-support windows the swinging leg's knee is the more
        # flexed one; the label must point at the grounded side
        pat = GaitPattern(angle_noise=0.0, load_noise=0.0)
        stream = generate_cycle(pat, rate=500, cycles=4, seed=4)
        labels = np.array([label_from_soles(l, r) for l, r in
                           zip(stream.left_load, stream.right_load)])
        left_ss = labels == 1.0    # left grounded, right swings
        right_ss = labels == -1.0
        rk, lk = stream.q[:, 1], stream.q[:, 4]
        assert np.mean(rk[left_ss]) > np.mean(lk[left_ss])
        assert np.mean(lk[right_ss]) > np.mean(rk[right_ss])


class TestTrainingProtocol:
    @pytest.mark.parametrize("rate", [50, math.nan, math.inf])
    def test_rejects_low_or_nonfinite_rate(self, rate):
        with pytest.raises(ValueError, match="sample rate must be at least "
                                             "100 Hz and finite"):
            generate_training_protocol(rate=rate)

    def test_contains_all_stages_and_speeds(self):
        stream = generate_training_protocol(seed=0)
        tags = set(str(t) for t in stream.stage)
        assert "left_swing" in tags and "right_swing" in tags
        for v in TREADMILL_SPEEDS_KMH:
            assert f"treadmill_{v:g}" in tags

    def test_duration_about_two_minutes(self):
        stream = generate_training_protocol(seed=0)
        assert stream.t[-1] == pytest.approx(120.0, rel=0.05)
        # at 100 Hz that is about 12000 samples
        assert len(stream) == pytest.approx(12000, rel=0.05)

    def test_swing_stage_labels(self):
        stream = generate_training_protocol(seed=1)
        ts = training_session_builder(stream)
        left_rows = ts.tags == "left_swing"
        assert np.all(ts.labels[left_rows] == -1.0)
        right_rows = ts.tags == "right_swing"
        assert np.all(ts.labels[right_rows] == 1.0)

    def test_holdout_phase_rmse_under_bound(self):
        stream = generate_training_protocol(seed=7)
        reg = train(training_session_builder(stream))
        pat = GaitPattern()
        holdout = generate_cycle(pat, rate=200, cycles=6, seed=99)
        labels = np.array([label_from_soles(l, r) for l, r in
                           zip(holdout.left_load, holdout.right_load)])
        pred = reg.phase_array(holdout.q)
        rmse = float(np.sqrt(np.mean((pred - labels) ** 2)))
        assert rmse < 0.15
        assert reg.rmse < 0.15


@pytest.fixture(scope="module")
def loop_parts():
    stream = generate_training_protocol(seed=11)
    reg = train(training_session_builder(stream))
    return (StanceModel("left"), StanceModel("right"), reg,
            CompensationTables.default_synthetic())


class TestReplay:

    def test_command_count_and_report(self, loop_parts):
        left, right, reg, tables = loop_parts
        loop = ControlLoop(left, right, reg, tables)
        pat = GaitPattern(angle_noise=0.0, load_noise=0.0)
        stream = generate_cycle(pat, rate=5000, cycles=2, seed=12)
        result = replay(stream, loop)
        assert result.commands == len(stream)
        timing = result.timing()
        assert timing.p50_us > 0 and timing.p95_us >= timing.p50_us
        smooth = result.smoothness()
        assert smooth.max_jump >= smooth.median_jump > 0

    def test_ten_seconds_at_five_khz_gives_50000_commands(self, loop_parts):
        left, right, reg, tables = loop_parts
        loop = ControlLoop(left, right, reg, tables)
        # cadence 120 -> 1.0 s cycles, so ten cycles span exactly 10 s
        pat = GaitPattern(cadence=120.0, angle_noise=0.0, load_noise=0.0)
        stream = generate_cycle(pat, rate=5000, cycles=10, seed=14)
        result = replay(stream, loop)
        assert result.commands == 50000

    def test_command_log_csv(self, loop_parts, tmp_path):
        left, right, reg, tables = loop_parts
        loop = ControlLoop(left, right, reg, tables)
        stream = generate_cycle(GaitPattern(), rate=1000, cycles=1, seed=13)
        result = replay(stream, loop)
        path = tmp_path / "commands.csv"
        result.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("t,raw_phase,gamma_l,")
        assert len(lines) == result.commands + 1
        log = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(log[:, 0], result.t)
        assert np.array_equal(log[:, 1], result.raw_phase)
        assert np.array_equal(log[:, 2], result.gamma_l)
        assert np.array_equal(log[:, 3:9], result.tau)

    def test_overruns_count_steps_slower_than_the_period(self, loop_parts):
        left, right, reg, tables = loop_parts
        stream = generate_cycle(GaitPattern(), rate=1000, cycles=1, seed=13)
        # a 1 GHz loop has a 1 ns period, so every step overruns it
        fast = replay(stream, ControlLoop(left, right, reg, tables, rate=1e9))
        timing = fast.timing()
        assert timing.overruns == timing.steps == fast.commands
        assert asdict(fast.timing())["overruns"] == timing.steps
        # a 1 mHz loop has a 1000 s period, which no step overruns
        slow = replay(stream, ControlLoop(left, right, reg, tables, rate=1e-3))
        assert slow.timing().overruns == 0

    @pytest.mark.parametrize("rate", [0, 0.0, -5000.0, math.inf, -math.inf,
                                      math.nan])
    def test_rate_must_be_positive_and_finite(self, loop_parts, rate):
        # a zero rate divided by zero in replay; a negative or infinite one
        # counted every step as an overrun and NaN counted none
        with pytest.raises(ValueError, match="^rate must be positive and "
                                             f"finite, got {rate}$"):
            ControlLoop(*loop_parts, rate=rate)


def _variant(stream, t=None, q=None):
    """``stream`` with its timestamps or joint angles replaced."""
    return SensorStream(t=stream.t if t is None else t,
                        q=stream.q if q is None else q,
                        left_load=stream.left_load,
                        right_load=stream.right_load, stage=stream.stage)


@pytest.fixture(scope="module")
def batch_streams():
    # the acceptance corpus: 5 kHz, 10 cycles, seed 4, noise free
    corpus = generate_cycle(GaitPattern(angle_noise=0.0, load_noise=0.0),
                            rate=5000, cycles=10, seed=4)
    short = generate_cycle(GaitPattern(), rate=5000, cycles=1, seed=7)
    t = short.t.copy()
    # late, duplicate and rewound timestamps, including right at the start
    t[[1, 50, 51, 300, 301, 900]] = t[[0, 48, 10, 299, 299, 100]]
    jitter = np.random.default_rng(8).uniform(0.0, 1.5e-4, len(short))
    jittered = _variant(short, t=short.t + jitter)
    # a rewound, then two duplicate timestamps on the rows either side of
    # the first block edge of replay_batch
    edge = short.t.copy()
    rows = [ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK, ROWS_PER_CHUNK + 1]
    edge[rows] = edge[[4000, ROWS_PER_CHUNK - 2, ROWS_PER_CHUNK - 2]]
    return {"corpus": corpus,
            "out_of_order": _variant(short, t=t),
            "jittered": jittered,
            "block_edge_drops": _variant(short, t=edge),
            "one_block": jittered.head(ROWS_PER_CHUNK),
            "one_block_and_a_row": jittered.head(ROWS_PER_CHUNK + 1)}


def _regressor(reg, kind):
    """The trained regressor, or its weights scaled by 1e6: that one
    saturates the gains to 0 or 1 within a frame, a hard stance switch."""
    if kind == "trained":
        return reg
    return GaitRegressor(weights=reg.weights * 1e6, rmse=reg.rmse)


class TestReplayBatch:
    """``replay_batch`` must give streaming ``replay``'s commands bit for
    bit, for smooth gains and for a discontinuous switch: the analyze
    report's command digest depends on it."""

    @pytest.mark.parametrize("regressor", ["trained", "scaled"])
    @pytest.mark.parametrize("stream_name",
                             ["corpus", "out_of_order", "jittered",
                              "block_edge_drops", "one_block",
                              "one_block_and_a_row"])
    def test_bit_identical_to_streaming(self, loop_parts, batch_streams,
                                        stream_name, regressor):
        left, right, reg, tables = loop_parts
        stream = batch_streams[stream_name]
        loop = ControlLoop(left, right, _regressor(reg, regressor), tables)
        batch = replay_batch(stream, loop)
        ref = replay(stream, loop)   # no reset: the batch leaves no state
        for name in ("t", "raw_phase", "gamma_l", "tau"):
            assert (getattr(batch, name).tobytes()
                    == getattr(ref, name).tobytes()), name
        assert np.array_equal(batch.degraded, ref.degraded)
        assert batch.dropped_frames == ref.dropped_frames
        if stream_name == "out_of_order":
            assert ref.dropped_frames == 6
        if stream_name == "block_edge_drops":
            assert ref.dropped_frames == 3

    def test_replay_resets_the_loop(self, loop_parts, batch_streams):
        # a second replay on a loop that has run gives the first one's
        # commands, as replay_batch does whatever the loop's state
        left, right, reg, tables = loop_parts
        stream = batch_streams["jittered"].head(2000)
        loop = ControlLoop(left, right, reg, tables)
        first, second = replay(stream, loop), replay(stream, loop)
        batch = replay_batch(stream, loop)
        assert second.commands == 2000 and second.dropped_frames == 0
        for run in (first, second):
            for name in ("t", "raw_phase", "gamma_l", "tau"):
                bits = [getattr(r, name).view(np.uint64) for r in (run, batch)]
                assert np.array_equal(*bits), name
            assert np.array_equal(run.degraded, batch.degraded)
        assert second.timing().steps == 2000

    def test_short_streams(self, loop_parts, batch_streams):
        left, right, reg, tables = loop_parts
        for n in range(5):
            stream = batch_streams["jittered"].head(n)
            loop = ControlLoop(left, right, reg, tables)
            batch = replay_batch(stream, loop)
            ref = replay(stream, ControlLoop(left, right, reg, tables))
            assert batch.tau.tobytes() == ref.tau.tobytes()
            assert np.array_equal(batch.degraded, ref.degraded)

    def test_memory_beyond_the_outputs_is_bounded(self, loop_parts):
        # whole-stream work keeps about 60 B a frame beside the outputs
        # and one block's temporaries add about 2.3 MB: about 170 B a
        # frame here, against about 490 B when one pass took the stream
        left, right, reg, tables = loop_parts
        stream = generate_cycle(GaitPattern(cadence=120.0), rate=5000,
                                cycles=4, seed=5)
        assert len(stream) == 20_000
        loop = ControlLoop(left, right, reg, tables)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = replay_batch(stream, loop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in (result.t, result.raw_phase,
                                         result.gamma_l, result.tau,
                                         result.degraded))
        assert peak - before - outputs < 300 * len(stream)

    def test_has_no_step_times(self, loop_parts, batch_streams):
        left, right, reg, tables = loop_parts
        stream = batch_streams["jittered"].head(10)
        batch = replay_batch(stream, ControlLoop(left, right, reg, tables))
        with pytest.raises(ValueError, match="no step times"):
            batch.timing()

    @pytest.mark.parametrize("regressor", ["trained", "scaled"])
    def test_raises_where_streaming_raises(self, loop_parts, batch_streams,
                                           regressor):
        left, right, reg, tables = loop_parts
        reg = _regressor(reg, regressor)
        short = batch_streams["jittered"].head(20)
        t = short.t.copy()
        t[5] = np.nan
        q = short.q.copy()
        q[5, 1] = np.inf
        wide = short.q.copy()
        wide[5, 3] = 7.0   # past 2pi, with a finite phase
        # a later bad frame of another kind: the first bad frame decides
        wide_then_nan = wide.copy()
        wide_then_nan[10, 1] = np.nan
        late_t = short.t.copy()
        late_t[10] = np.nan
        huge = short.q.copy()
        huge[5, 1] = 1e308   # the phase overflows to inf, with no warning
        cases = ((_variant(short, t=t), "timestamp must be finite"),
                 (_variant(short, q=q), "raw_phase must be finite"),
                 (_variant(short, q=wide), r"^q_lh value 7\.0 outside"),
                 (_variant(short, q=wide_then_nan),
                  r"^q_lh value 7\.0 outside"),
                 (_variant(short, t=late_t, q=wide),
                  r"^q_lh value 7\.0 outside"),
                 (_variant(short, q=huge), "raw_phase must be finite"))
        for stream, match in cases:
            for run in (replay, replay_batch):
                loop = ControlLoop(left, right, reg, tables)
                with pytest.raises(ValueError, match=match):
                    run(stream, loop)
        # a bad value on a dropped frame is never evaluated by either path
        t = short.t.copy()
        t[6] = t[4]
        q = short.q.copy()
        q[6] = np.nan
        dropped = _variant(short, t=t, q=q)
        loop = ControlLoop(left, right, reg, tables)
        assert (replay_batch(dropped, loop).tau.tobytes()
                == replay(dropped, loop).tau.tobytes())

    @pytest.mark.parametrize("regressor", ["trained", "scaled"])
    def test_bad_step_raises_where_streaming_raises(
            self, loop_parts, batch_streams, regressor):
        # the estimator's step rule between kept frames, the dropped ones
        # skipped; the first bad frame decides
        left, right, reg, tables = loop_parts
        reg = _regressor(reg, regressor)
        short = batch_streams["jittered"].head(20)
        tiny = short.t.copy()
        tiny[6] = tiny[5] + 1e-12
        dropped = short.t.copy()
        dropped[[5, 6]] = dropped[3], dropped[4] + 1e-12   # 5 is dropped
        overflow = np.concatenate([[-1e308], 8e307 + np.arange(1, 20) * 1e293])
        huge = short.t.copy()
        huge[8] = 1e300   # the frames after it are dropped
        wide = short.q.copy()
        wide[9, 3] = 7.0   # past 2pi, after the short step
        early = short.q.copy()
        early[4, 3] = 7.0   # before it
        short_step = r"^time step of [0-9.e-]+ s: a step must be at least"
        cases = ((tiny, None, short_step),
                 (dropped, None, short_step),
                 (overflow, None, r"^time step of inf s"),
                 (huge, None, r"^time step of 1e\+300 s: a step must be at "
                              r"most 20000000000\.0 s$"),
                 (tiny, wide, short_step),
                 (tiny, early, r"^q_lh value 7\.0 outside"))
        for t, q, match in cases:
            stream = _variant(short, t=t, q=q)
            messages = []
            for run in (replay, replay_batch):
                loop = ControlLoop(left, right, reg, tables)
                with pytest.raises(ValueError, match=match) as info:
                    run(stream, loop)
                messages.append(str(info.value))
            assert messages[0] == messages[1]
