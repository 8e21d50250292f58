import numpy as np
import pytest

from exobench.errors import (AirborneError, IncompleteTrainingError,
                             InsufficientDataError, SingularityError)
from exobench.segmentation import (GaitRegressor, TrainingSet,
                                   label_from_soles, train,
                                   training_session_builder)
from exobench.streams import SensorStream


def make_training_set(Q, p, tag="treadmill_2.0"):
    return TrainingSet(q=Q, labels=p, tags=np.full(len(p), tag, dtype=object))


class TestLabelFromSoles:
    def test_pure_left_stance(self):
        assert label_from_soles(400.0, 0.0) == 1.0

    def test_pure_right_stance(self):
        assert label_from_soles(0.0, 400.0) == -1.0

    def test_double_stance_share(self):
        # (300 - 100) / (300 + 100)
        assert label_from_soles(300.0, 100.0) == pytest.approx(0.5)

    def test_airborne_raises(self):
        with pytest.raises(AirborneError):
            label_from_soles(0.0, 0.0)

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            label_from_soles(-1.0, 100.0)

    def test_antisymmetric_under_swap(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            l, r = rng.uniform(0.0, 500.0, 2)
            if l + r == 0:
                continue
            assert label_from_soles(l, r) == pytest.approx(-label_from_soles(r, l))


class TestTrain:
    def test_zero_labels_give_zero_weights(self):
        rng = np.random.default_rng(1)
        Q = rng.normal(size=(50, 6))
        reg = train(make_training_set(Q, np.zeros(50)), ridge=1e-3)
        np.testing.assert_allclose(reg.weights, np.zeros(6), atol=1e-12)

    def test_exactly_determined_matches_direct_solve(self):
        rng = np.random.default_rng(2)
        Q = rng.normal(size=(7, 6))  # T > n required; solve on a 6x6 core
        Q[6] = Q[5]                  # duplicate keeps the system consistent
        y_true = rng.normal(size=6)
        p = Q @ y_true
        reg = train(make_training_set(Q, np.clip(p, -1, 1) * 0 + p / max(1, np.max(np.abs(p)))), ridge=0.0)
        # oracle: direct solve of the (consistent) normal equations
        oracle = np.linalg.solve(Q.T @ Q, Q.T @ (p / max(1, np.max(np.abs(p)))))
        np.testing.assert_allclose(reg.weights, oracle, rtol=1e-9, atol=1e-12)
        assert reg.rmse < 1e-9

    def test_overdetermined_matches_pseudo_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            Q = rng.normal(size=(200, 6))
            y_true = rng.normal(size=6) * 0.05
            noise = rng.normal(size=200) * 0.01
            p = Q @ y_true + noise
            assert np.max(np.abs(p)) <= 1.0  # labels stay in range unclipped
            reg = train(make_training_set(Q, p), ridge=0.0)
            oracle = np.linalg.pinv(Q) @ p
            np.testing.assert_allclose(reg.weights, oracle, rtol=1e-9, atol=1e-9)
            # recovery within a noise-scaled bound ~ sigma * sqrt(n/T)
            assert np.linalg.norm(reg.weights - y_true) < 0.01

    def test_rank_deficient_raises_singularity(self):
        rng = np.random.default_rng(4)
        Q = rng.normal(size=(40, 6))
        Q[:, 5] = Q[:, 0]  # exact collinearity
        p = np.clip(Q[:, 0], -1, 1)
        with pytest.raises(SingularityError, match="ridge"):
            train(make_training_set(Q, p), ridge=0.0)
        # a positive ridge resolves it
        reg = train(make_training_set(Q, p), ridge=1e-6)
        assert np.all(np.isfinite(reg.weights))

    def test_scale_equivariant_in_labels(self):
        rng = np.random.default_rng(5)
        Q = rng.normal(size=(100, 6))
        p = np.clip(Q @ (rng.normal(size=6) * 0.1), -1, 1)
        alpha = 0.5
        reg1 = train(make_training_set(Q, p), ridge=0.0)
        reg2 = train(make_training_set(Q, alpha * p), ridge=0.0)
        np.testing.assert_allclose(reg2.weights, alpha * reg1.weights,
                                    rtol=1e-9, atol=1e-12)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(6)
        Q = rng.normal(size=(150, 6))
        p = np.clip(Q @ (rng.normal(size=6) * 0.1) + rng.normal(size=150) * 0.05,
                    -1, 1)
        reg = train(make_training_set(Q, p), ridge=0.0)
        residual = Q @ reg.weights - p
        assert np.max(np.abs(Q.T @ residual)) < 1e-8

    def test_default_ridge_recorded_in_metadata(self):
        rng = np.random.default_rng(7)
        Q = rng.normal(size=(60, 6))
        reg = train(make_training_set(Q, np.zeros(60)))
        assert reg.metadata["ridge"] > 0
        assert reg.metadata["samples"] == 60


class TestPhase:
    def test_zero_weights(self):
        reg = GaitRegressor(weights=np.zeros(6), rmse=0.0)
        assert reg.phase(np.ones(6)) == 0.0

    def test_unit_weight_picks_component(self):
        w = np.zeros(6)
        w[2] = 1.0
        reg = GaitRegressor(weights=w, rmse=0.0)
        q = np.zeros(6)
        q[2] = 0.7
        assert reg.phase(q) == pytest.approx(0.7)

    def test_linear_in_q(self):
        rng = np.random.default_rng(8)
        reg = GaitRegressor(weights=rng.normal(size=6), rmse=0.0)
        q1, q2 = rng.normal(size=6), rng.normal(size=6)
        assert reg.phase(q1 + q2) == pytest.approx(reg.phase(q1) + reg.phase(q2))


def staged_stream(stages):
    """Tiny hand-built staged stream: stages is a list of
    (tag, n, left_load, right_load)."""
    rng = np.random.default_rng(9)
    t, q, left, right, tag_col = [], [], [], [], []
    tick = 0.0
    for tag, n, l, r in stages:
        for _ in range(n):
            t.append(tick)
            tick += 0.01
            q.append(rng.normal(size=6) * 0.3)
            left.append(l)
            right.append(r)
            tag_col.append(tag)
    return SensorStream(t=np.asarray(t), q=np.asarray(q),
                        left_load=np.asarray(left), right_load=np.asarray(right),
                        stage=np.asarray(tag_col, dtype=object))


class TestTrainingSessionBuilder:
    def test_missing_stage_named(self):
        stream = staged_stream([("left_swing", 20, 0.0, 400.0)])
        with pytest.raises(IncompleteTrainingError, match="right_swing"):
            training_session_builder(stream)

    def test_swing_stage_constant_labels(self):
        stream = staged_stream([
            ("left_swing", 20, 0.0, 400.0),
            ("right_swing", 20, 400.0, 0.0),
            ("treadmill_1.0", 30, 200.0, 200.0),
        ])
        ts = training_session_builder(stream)
        assert np.all(ts.labels[ts.tags == "left_swing"] == -1.0)
        assert np.all(ts.labels[ts.tags == "right_swing"] == 1.0)
        assert np.all(ts.labels[ts.tags == "treadmill_1.0"] == 0.0)

    def test_airborne_treadmill_samples_discarded(self):
        stream = staged_stream([
            ("left_swing", 20, 0.0, 400.0),
            ("right_swing", 20, 400.0, 0.0),
            ("treadmill_1.0", 30, 200.0, 200.0),
            ("treadmill_1.5", 10, 0.0, 0.0),  # airborne
        ])
        ts = training_session_builder(stream)
        assert len(ts) == 70
        assert "treadmill_1.5" not in set(ts.tags.astype(str))

    def test_swing_samples_not_matching_signature_dropped(self):
        stream = staged_stream([
            ("left_swing", 20, 0.0, 400.0),
            ("left_swing", 5, 300.0, 300.0),  # double support: wrong signature
            ("right_swing", 20, 400.0, 0.0),
            ("treadmill_2.0", 30, 150.0, 250.0),
        ])
        ts = training_session_builder(stream)
        assert np.sum(ts.tags == "left_swing") == 20


def build_loop(stream):
    """``training_session_builder`` written as a loop over samples calling
    ``label_from_soles``: the reference for its array operations."""
    rows, labels, tags = [], [], []
    for i in range(len(stream)):
        tag = str(stream.stage[i])
        try:
            share = label_from_soles(stream.left_load[i], stream.right_load[i])
        except AirborneError:
            continue
        if tag == "left_swing":
            if share > -0.9:
                continue
            label = -1.0
        elif tag == "right_swing":
            if share < 0.9:
                continue
            label = 1.0
        else:
            label = share
        rows.append(stream.q[i])
        labels.append(label)
        tags.append(tag)
    return np.asarray(rows), np.asarray(labels), tags


class TestBuilderMatchesLoop:
    def test_bit_for_bit(self):
        rng = np.random.default_rng(8)
        edge = np.array([0.9, -0.9])
        shares = np.concatenate([edge, np.nextafter(edge, 0.0),
                                 np.nextafter(edge, 2 * edge),
                                 [1.0, -1.0, 0.0], rng.uniform(-1, 1, 40)])
        left = 250.0 * (1.0 + shares)   # L + R = 500 N, share near `shares`
        right = 500.0 - left
        n = left.size
        tags = ["left_swing", "right_swing", "treadmill_1.0", "treadmill",
                "cool_down"]
        q, ll, rl, tg = [], [], [], []
        for tag in tags:
            q.append(rng.normal(size=(n + 3, 6)))
            ll += [*left, 0.0, 0.0, 300.0]     # two airborne rows
            rl += [*right, 0.0, 0.0, 0.0]
            tg += [tag] * (n + 3)
        stream = SensorStream(t=np.arange(len(tg)) * 0.01, q=np.vstack(q),
                              left_load=np.asarray(ll),
                              right_load=np.asarray(rl),
                              stage=np.asarray(tg, dtype=object))
        rows, labels, ref_tags = build_loop(stream)
        ts = training_session_builder(stream)
        assert ts.q.tobytes() == rows.tobytes()
        assert ts.labels.tobytes() == labels.tobytes()
        assert ts.tags.tolist() == ref_tags
        assert all(type(tag) is str for tag in ts.tags)
        # both sides of +-0.9 reach the swing stages
        kept = ts.labels[ts.tags == "left_swing"].size
        assert 0 < kept < n
        assert len(ts) < len(stream) - 2 * len(tags)

    def test_negative_load_same_message(self):
        stream = staged_stream([
            ("left_swing", 20, 0.0, 400.0),
            ("right_swing", 20, 400.0, 0.0),
            ("treadmill_1.0", 30, 200.0, 200.0),
            ("treadmill_1.5", 1, 210.0, -1.0),
        ])
        message = "^sole loads must be non-negative$"
        with pytest.raises(ValueError, match=message):
            build_loop(stream)
        with pytest.raises(ValueError, match=message):
            training_session_builder(stream)

    def test_too_few_usable_samples_named(self):
        stream = staged_stream([
            ("left_swing", 3, 0.0, 400.0),
            ("right_swing", 3, 400.0, 0.0),
            ("treadmill_1.0", 30, 0.0, 0.0),   # airborne
        ])
        with pytest.raises(InsufficientDataError,
                           match="only 6 usable training samples"):
            training_session_builder(stream)


class TestPersistence:
    def test_model_round_trip(self, tmp_path):
        reg = GaitRegressor(weights=np.linspace(-1, 1, 6), rmse=0.12,
                            metadata={"samples": 100})
        path = tmp_path / "model.json"
        reg.save(path)
        loaded = GaitRegressor.load(path)
        np.testing.assert_array_equal(loaded.weights, reg.weights)
        assert loaded.rmse == reg.rmse
        assert loaded.metadata["samples"] == 100
