import numpy as np
import pytest

from exobench.biosignal import FeatureWindow
from exobench.errors import InsufficientDataError, SchemaError
from exobench.fuzzy import (FuzzyModel, INPUT_NAMES, NormalizedInputs,
                            OUTPUT_NAMES, TriangularMF, default_fuzzy_model,
                            infer, load_fuzzy_model, normalize)


def centroid_oracle(mf, clip=1.0, n=200001):
    """Independent numeric centroid of a clipped membership function."""
    x = np.linspace(0.0, 1.0, n)
    y = np.minimum(mf(x), clip)
    return np.sum(x * y) / np.sum(y)


def medium_inputs(**overrides):
    values = {name: 1.0 for name in INPUT_NAMES}
    values.update(overrides)
    return NormalizedInputs(values=values)


class TestTriangularMF:
    def test_triangle_shape(self):
        mf = TriangularMF(0.5, 1.0, 1.5)
        assert mf(1.0) == 1.0
        assert mf(0.75) == pytest.approx(0.5)
        assert mf(0.5) == 0.0 and mf(1.5) == 0.0
        assert mf(0.0) == 0.0 and mf(2.0) == 0.0

    def test_shoulders(self):
        lo = TriangularMF(0.5, 0.5, 1.0)
        assert lo(0.0) == 1.0 and lo(0.5) == 1.0
        assert lo(0.75) == pytest.approx(0.5) and lo(1.2) == 0.0
        hi = TriangularMF(1.0, 1.5, 1.5)
        assert hi(2.4) == 1.0 and hi(1.0) == 0.0

    def test_rejects_disorder(self):
        with pytest.raises(SchemaError):
            TriangularMF(1.0, 0.5, 1.5)
        with pytest.raises(SchemaError):
            TriangularMF(1.0, 1.0, 1.0)


class TestModelValidation:
    def test_default_model_loads(self):
        model = load_fuzzy_model(None)
        assert set(model.inputs) == set(INPUT_NAMES)
        assert set(model.outputs) == set(OUTPUT_NAMES)

    def test_round_trip_through_json_dict(self):
        model = default_fuzzy_model()
        again = FuzzyModel.from_dict(model.to_dict())
        assert again.to_dict() == model.to_dict()

    def test_missing_medium_is_named_coverage_gap(self):
        doc = default_fuzzy_model().to_dict()
        del doc["inputs"]["hr"]["medium"]
        with pytest.raises(SchemaError, match="hr coverage gap"):
            FuzzyModel.from_dict(doc)

    def test_true_coverage_hole_detected(self):
        doc = default_fuzzy_model().to_dict()
        # pull the low/high shoulders inward, leaving the edges uncovered
        doc["inputs"]["rr"]["low"] = [0.8, 0.9, 1.0]
        doc["inputs"]["rr"]["medium"] = [0.9, 1.0, 1.1]
        doc["inputs"]["rr"]["high"] = [1.0, 1.1, 1.2]
        with pytest.raises(SchemaError, match="rr coverage gap"):
            FuzzyModel.from_dict(doc)

    def test_unordered_peaks_named(self):
        doc = default_fuzzy_model().to_dict()
        doc["inputs"]["scl"]["medium"] = [0.0, 0.4, 2.5]
        doc["inputs"]["scl"]["low"] = [0.0, 0.45, 2.5]
        with pytest.raises(SchemaError, match="scl"):
            FuzzyModel.from_dict(doc)

    def test_rule_with_undeclared_output(self):
        doc = default_fuzzy_model().to_dict()
        doc["rules"].append({"if": {"hr": "high"}, "then": {"bliss": "high"}})
        with pytest.raises(SchemaError, match="bliss"):
            FuzzyModel.from_dict(doc)

    def test_file_round_trip(self, tmp_path):
        import json
        path = tmp_path / "model.json"
        path.write_text(json.dumps(default_fuzzy_model().to_dict()))
        model = load_fuzzy_model(path)
        assert set(model.inputs) == set(INPUT_NAMES)


class TestInfer:
    def test_all_medium_symmetric_gives_half(self):
        model = default_fuzzy_model()
        scores = infer(model, medium_inputs())
        for name in OUTPUT_NAMES:
            assert getattr(scores, name) == pytest.approx(0.5, abs=0.02)
        assert scores.degraded == ()

    def test_pure_high_stress_matches_centroid_oracle(self):
        model = default_fuzzy_model()
        # prototypes that fire only the high-stress rules
        inputs = medium_inputs(hr=1.5, rmssd=0.5, scr=1.5)
        scores = infer(model, inputs)
        expected = centroid_oracle(model.outputs["stress"].mfs["high"])
        assert scores.stress == pytest.approx(expected, abs=1e-3)

    def test_outputs_always_in_unit_interval(self):
        model = default_fuzzy_model()
        rng = np.random.default_rng(0)
        for _ in range(300):
            values = {n: float(rng.uniform(0.0, 2.5)) for n in INPUT_NAMES}
            scores = infer(model, NormalizedInputs(values=values))
            for name in OUTPUT_NAMES:
                assert 0.0 <= getattr(scores, name) <= 1.0

    def test_monotonic_stress_in_hr(self):
        model = default_fuzzy_model()
        prev = -1.0
        for hr in np.linspace(0.3, 2.2, 40):
            s = infer(model, medium_inputs(hr=float(hr))).stress
            assert s >= prev - 1e-9
            prev = s

    def test_stress_never_increases_with_rmssd(self):
        model = default_fuzzy_model()
        prev = 2.0
        for rmssd in np.linspace(0.3, 2.2, 40):
            s = infer(model, medium_inputs(rmssd=float(rmssd))).stress
            assert s <= prev + 1e-9
            prev = s

    def test_rule_order_permutation_invariant(self):
        model = default_fuzzy_model()
        doc = model.to_dict()
        doc["rules"] = list(reversed(doc["rules"]))
        permuted = FuzzyModel.from_dict(doc)
        rng = np.random.default_rng(1)
        for _ in range(50):
            values = {n: float(rng.uniform(0.2, 2.3)) for n in INPUT_NAMES}
            s1 = infer(model, NormalizedInputs(values=values))
            s2 = infer(permuted, NormalizedInputs(values=values))
            for name in OUTPUT_NAMES:
                assert getattr(s1, name) == getattr(s2, name)

    def test_continuity_under_tiny_perturbation(self):
        model = default_fuzzy_model()
        rng = np.random.default_rng(2)
        for _ in range(50):
            values = {n: float(rng.uniform(0.3, 2.2)) for n in INPUT_NAMES}
            base = infer(model, NormalizedInputs(values=values))
            bumped_vals = {n: v + 1e-6 for n, v in values.items()}
            bumped = infer(model, NormalizedInputs(values=bumped_vals))
            for name in OUTPUT_NAMES:
                assert abs(getattr(base, name) - getattr(bumped, name)) < 1e-3

    def test_invalid_input_degrades_dependent_output(self):
        model = default_fuzzy_model()
        scores = infer(model, medium_inputs(scl=None))
        assert "attention" in scores.degraded
        assert scores.attention == 0.5
        assert "stress" not in scores.degraded

    def test_paper_scale_values_inside_codomain(self):
        # reported stress/attention levels sit inside [0, 1] by construction
        model = default_fuzzy_model()
        scores = infer(model, medium_inputs())
        assert 0.0 <= 0.48 <= 1.0 and 0.0 <= 0.47 <= 1.0
        assert 0.0 <= scores.stress <= 1.0


def make_window(phase, start, hr=80.0, rmssd=40.0, rr=19.0, scl=5.0,
                scr_rate=4.0, scr_amp=0.1, lf=300.0):
    return FeatureWindow(phase=phase, start=start, stop=start + 60.0, hr=hr,
                         rmssd=rmssd, rr=rr, scl=scl, scr_rate=scr_rate,
                         scr_amplitude=scr_amp, lf_ms2=lf, lf_fraction=0.5)


class TestNormalize:
    def test_hr_ratio_from_paper_scales(self):
        sit = [make_window("sit", i * 60.0, hr=80.0) for i in range(4)]
        walk = [make_window("walk", 500 + i * 60.0, hr=118.0)
                for i in range(16)]
        rows = normalize(walk, sit)
        assert len(rows) == 5
        for row in rows:
            assert row.values["hr"] == pytest.approx(1.475)

    def test_identical_features_give_unit_ratios(self):
        sit = [make_window("sit", 0.0)]
        walk = [make_window("walk", i * 60.0) for i in range(6)]
        rows = normalize(walk, sit)
        for row in rows:
            for name in INPUT_NAMES:
                assert row.values[name] == pytest.approx(1.0)

    def test_last_five_rule(self):
        sit = [make_window("sit", 0.0)]
        walk = [make_window("walk", i * 60.0, hr=80.0 + i) for i in range(16)]
        rows = normalize(walk, sit)
        assert len(rows) == 5
        assert rows[0].values["hr"] == pytest.approx(91.0 / 80.0)
        assert rows[-1].values["hr"] == pytest.approx(95.0 / 80.0)

    def test_zero_baseline_marks_invalid(self):
        sit = [make_window("sit", 0.0, scr_rate=0.0)]
        walk = [make_window("walk", i * 60.0) for i in range(5)]
        rows = normalize(walk, sit)
        for row in rows:
            assert row.values["scr"] is None
            assert "scr" in row.invalid

    def test_too_few_walk_windows(self):
        sit = [make_window("sit", 0.0)]
        walk = [make_window("walk", i * 60.0) for i in range(4)]
        with pytest.raises(InsufficientDataError):
            normalize(walk, sit)
