"""Acceptance suite: one test per gate criterion, each printing a
PASS/FAIL line with its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import numpy as np
import pytest

from exobench.blend import ControlLoop, blend_gains
from exobench.cli import main as cli_main
from exobench.dynamics import (CompensationTables, ExoParams, PlanarChain,
                               StanceModel, blended_torque, gravity_vector,
                               inertia_matrix)
from exobench.fuzzy import (INPUT_NAMES, OUTPUT_NAMES, NormalizedInputs,
                            default_fuzzy_model, infer)
from exobench.questionnaire import (EQDefinition, default_definition,
                                    factor_score, reverse_map)
from exobench.segmentation import (GaitRegressor, label_from_soles, train,
                                   training_session_builder)
from exobench.simulator import GaitPattern, generate_cycle, \
    generate_training_protocol, replay
from exobench.biosignal import detect_beats, gsr_decompose, hr_rmssd, lf_power


class Gate:
    """Context manager: enforces the runtime budget and prints the line
    (past pytest's capture, so it shows in any run)."""

    def __init__(self, name, budget_s, capsys=None):
        self.name = name
        self.budget = budget_s
        self.capsys = capsys

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        line = (f"ACCEPTANCE {self.name}: {status} ({elapsed:.1f}s / "
                f"budget {self.budget:.0f}s)")
        if self.capsys is not None:
            with self.capsys.disabled():
                print(f"\n{line}")
        else:
            print(line)
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.name} exceeded its {self.budget}s budget: {elapsed:.1f}s")
        return False


@pytest.fixture(scope="module")
def trained_rig():
    protocol = generate_training_protocol(seed=101)
    regressor = train(training_session_builder(protocol))
    return (StanceModel("left"), StanceModel("right"), regressor,
            CompensationTables.default_synthetic())


def test_blend_algebra(trained_rig, capsys):
    with Gate("blend-algebra", 5.0, capsys):
        rng = np.random.default_rng(0)
        raw = rng.uniform(-3.0, 3.0, 1_000_000)
        gl, gr = blend_gains(raw)
        assert np.all(gl + gr == 1.0), "partition of unity must be exact"
        assert np.all((gl >= 0.0) & (gl <= 1.0))
        assert np.all((gr >= 0.0) & (gr <= 1.0))

        # saturated phases reproduce the single-stance torques bitwise
        left, right, regressor, tables = trained_rig
        loop = ControlLoop(left, right, regressor, tables)
        stream = generate_cycle(GaitPattern(), rate=1000, cycles=2, seed=1)
        result_checked = {"left": 0, "right": 0}
        for frame in stream.frames():
            cmd = loop.step(frame)
            if cmd.degraded:
                continue
            state = (np.asarray(frame.q), np.asarray(cmd.qd),
                     np.asarray(cmd.qdd))
            if cmd.gamma_l == 1.0:
                expected = blended_torque(*state, 1.0, 0.0, left, left, tables)
                assert np.array_equal(np.asarray(cmd.tau), expected)
                result_checked["left"] += 1
            elif cmd.gamma_r == 1.0:
                expected = blended_torque(*state, 1.0, 0.0, right, right,
                                          tables)
                assert np.array_equal(np.asarray(cmd.tau), expected)
                result_checked["right"] += 1
        assert result_checked["left"] > 100 and result_checked["right"] > 100


def test_dynamics(trained_rig, capsys):
    with Gate("dynamics", 30.0, capsys):
        model = StanceModel("left")
        chain = model.chain
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(1000):
            q5 = rng.uniform(-math.pi, math.pi, 5)
            B = inertia_matrix(model, q5)
            assert np.max(np.abs(B - B.T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(B)) > 0.0
            G = gravity_vector(model, q5)
            fd = np.empty(5)
            for i in range(5):
                qp, qm = q5.copy(), q5.copy()
                qp[i] += h
                qm[i] -= h
                fd[i] = (chain.potential_energy(qp)
                         - chain.potential_energy(qm)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(G))))
            assert np.max(np.abs(G - fd)) / scale < 1e-6

        p = ExoParams()
        pendulum = PlanarChain(lengths=[p.thigh_length], masses=[p.thigh_mass],
                               com_fractions=[0.5], gravity=9.81)
        torque = abs(pendulum.gravity_torque([math.pi / 2])[0])
        assert abs(torque - 8.185) < 1e-3


def test_regression(capsys):
    with Gate("regression", 60.0, capsys):
        rng = np.random.default_rng(3)
        from exobench.segmentation import TrainingSet
        for _ in range(100):
            T = int(rng.integers(50, 400))
            Q = rng.normal(size=(T, 6))
            p = np.tanh(Q @ (rng.normal(size=6) * 0.2)
                        + rng.normal(size=T) * 0.05)
            data = TrainingSet(q=Q, labels=p,
                               tags=np.full(T, "treadmill_2.0", dtype=object))
            reg = train(data, ridge=0.0)
            oracle = np.linalg.pinv(Q) @ p
            assert np.max(np.abs(reg.weights - oracle)) < 1e-9

        protocol = generate_training_protocol(seed=42)
        reg = train(training_session_builder(protocol))
        holdout = generate_cycle(GaitPattern(), rate=200, cycles=8, seed=77)
        labels = np.array([label_from_soles(l, r) for l, r in
                           zip(holdout.left_load, holdout.right_load)])
        rmse = float(np.sqrt(np.mean((reg.phase_array(holdout.q) - labels) ** 2)))
        assert rmse < 0.15, f"hold-out RMSE {rmse:.3f}"


_corpus_cache = {}


def test_continuity(trained_rig, capsys):
    with Gate("continuity", 120.0, capsys):
        left, right, regressor, tables = trained_rig
        corpus = generate_cycle(GaitPattern(angle_noise=0.0, load_noise=0.0),
                                rate=5000, cycles=50, seed=4)  # 60 s
        smooth = replay(corpus, ControlLoop(left, right, regressor, tables))
        _corpus_cache["smooth"] = smooth
        report = smooth.smoothness()
        assert report.jump_ratio <= 10.0, (
            f"blended max/median jump {report.jump_ratio:.2f}")
        # weights scaled by 1e6 saturate the gains to 0 or 1 within a
        # frame: a hard switch between the stance models at phase zero
        switch = GaitRegressor(weights=regressor.weights * 1e6,
                               rmse=regressor.rmse)
        hard = replay(corpus, ControlLoop(left, right, switch, tables))
        hard_report = hard.smoothness()
        assert hard_report.jump_ratio > 10.0, (
            "hard switching should violate the smoothness bound "
            f"(got {hard_report.jump_ratio:.2f})")


def test_performance(trained_rig, capsys):
    with Gate("performance", 60.0, capsys):
        smooth = _corpus_cache.get("smooth")
        if smooth is None:
            left, right, regressor, tables = trained_rig
            corpus = generate_cycle(GaitPattern(angle_noise=0.0,
                                                load_noise=0.0),
                                    rate=5000, cycles=10, seed=4)
            smooth = replay(corpus, ControlLoop(left, right, regressor,
                                                tables))
        timing = smooth.timing()
        assert timing.p50_us < 50.0, f"p50 {timing.p50_us:.1f} us"
        assert timing.p99_us < 200.0, f"p99 {timing.p99_us:.1f} us"


def test_biosignal_oracles(capsys):
    with Gate("biosignal", 60.0, capsys):
        # 60 bpm synthetic ECG -> HR within 1 bpm
        fs = 250.0
        truth = np.arange(0.5, 59.6, 1.0)
        t = np.arange(int(60 * fs)) / fs
        ecg = np.zeros(t.size)
        for bt in truth:
            ecg += np.exp(-0.5 * ((t - bt) / 0.012) ** 2)
        det = detect_beats(ecg, fs)
        hr, _ = hr_rmssd(np.diff(det.times) * 1000.0)
        assert abs(hr - 60.0) < 1.0

        # alternating 800/850 ms -> RMSSD exactly 50 ms
        _, rmssd = hr_rmssd([800.0, 850.0] * 40)
        assert rmssd == 50.0

        # 0.1 Hz tachogram modulation -> LF fraction > 0.9
        times = [0.0]
        iv = []
        while times[-1] < 300.0:
            nxt = 800.0 + 25.0 * np.sin(2 * np.pi * 0.1 * times[-1])
            iv.append(nxt)
            times.append(times[-1] + nxt / 1000.0)
        _, fraction = lf_power(np.asarray(iv))
        assert fraction > 0.9

        # tonic + phasic reconstructs the input to 1e-9
        rng = np.random.default_rng(5)
        gsr = 5.0 + np.abs(rng.normal(scale=0.2, size=int(15.0 * 120)))
        dec = gsr_decompose(gsr, 15.0)
        assert np.max(np.abs((dec.scl + dec.phasic) - gsr)) < 1e-9


def test_fuzzy_engine(capsys):
    with Gate("fuzzy", 10.0, capsys):
        model = default_fuzzy_model()
        medium = NormalizedInputs(values={n: 1.0 for n in INPUT_NAMES})
        scores = infer(model, medium)
        for name in OUTPUT_NAMES:
            assert abs(getattr(scores, name) - 0.5) <= 0.02

        rng = np.random.default_rng(6)
        for _ in range(500):
            values = {n: float(rng.uniform(0.0, 2.5)) for n in INPUT_NAMES}
            s = infer(model, NormalizedInputs(values=values))
            for name in OUTPUT_NAMES:
                assert 0.0 <= getattr(s, name) <= 1.0

        def stress_at(**kw):
            vals = {n: 1.0 for n in INPUT_NAMES}
            vals.update(kw)
            return infer(model, NormalizedInputs(values=vals)).stress

        prev = -1.0
        for hr in np.linspace(0.3, 2.2, 30):
            s = stress_at(hr=float(hr))
            assert s >= prev - 1e-9
            prev = s
        prev = 2.0
        for rmssd in np.linspace(0.3, 2.2, 30):
            s = stress_at(rmssd=float(rmssd))
            assert s <= prev + 1e-9
            prev = s


def test_questionnaire_exactness(capsys):
    with Gate("questionnaire", 5.0, capsys):
        assert reverse_map(5, True) == 3
        assert factor_score({"a": 6.0, "b": 2.0}, {"a": 1.0, "b": 0.0}) == 6.0

        definition = default_definition()
        from exobench.questionnaire import QuestionnaireResponse, consistency
        scores = {item.id: 4 for item in definition.items}
        prefs = {}
        for factor in definition.factors:
            subs = definition.sub_factors_of(factor)
            prefs[factor] = [(subs[i], subs[j], subs[i])
                             for i in range(len(subs))
                             for j in range(i + 1, len(subs))]
        resp = QuestionnaireResponse(subject_id="a", scores=scores,
                                     preferences=prefs)
        pair = definition.control_pairs[0]
        resp.scores[pair.original] = 7
        resp.scores[pair.control] = 1  # |d| = 6, zero credit
        assert consistency(resp, definition) == pytest.approx(93.75)

        # batch statistics against an independent recomputation
        from exobench.questionnaire import aggregate_reports, score_session
        rng = np.random.default_rng(7)
        reports = []
        oracle_scores = {f: [] for f in definition.factors}
        for k in range(5):
            r = QuestionnaireResponse(
                subject_id=f"s{k}",
                scores={item.id: int(rng.integers(1, 8))
                        for item in definition.items},
                preferences=prefs)
            reports.append(score_session(r, definition))
            for factor in definition.factors:
                subs = definition.sub_factors_of(factor)
                ss = {}
                for sf in subs:
                    vals = [(8 - r.scores[i.id]) if i.reversed else r.scores[i.id]
                            for i in definition.scored_items(sf)]
                    ss[sf] = sum(vals) / len(vals)
                wins = {s: 0.0 for s in subs}
                for a, b, w in prefs[factor]:
                    wins[w] += 1.0
                n = len(subs)
                oracle_scores[factor].append(
                    2.0 * sum(wins[s] * ss[s] for s in subs) / (n * (n - 1)))
        stats = aggregate_reports(reports)
        for factor in definition.factors:
            vals = oracle_scores[factor]
            mean = sum(vals) / len(vals)
            std = (sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)) ** 0.5
            assert abs(stats[factor]["mean"] - mean) < 1e-12
            assert abs(stats[factor]["std"] - std) < 1e-12

        # cardinality enforcement
        doc = definition.to_dict()
        doc["items"] = doc["items"][:131]
        with pytest.raises(Exception, match="expected 132"):
            EQDefinition.from_dict(doc)


def test_end_to_end(tmp_path, capsys):
    with Gate("end-to-end", 120.0, capsys):
        set_dir = tmp_path / "sessions"
        assert cli_main(["sim", "--kind", "session-set", "--out", str(set_dir),
                         "--seed", "2024", "--subjects", "5"]) == 0
        reports = []
        for k in range(2):
            out = tmp_path / f"report{k}.json"
            assert cli_main(["analyze", str(set_dir), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], "analyze must be deterministic"
        doc = json.loads(reports[0])
        for section in ("physiology", "psychophysiology", "questionnaire",
                        "controller"):
            assert doc[section]["status"] == "ok"
            assert len(doc[section]["subjects"]) == 5
        assert doc["summary"]["total_invalid_flags"] == 0
