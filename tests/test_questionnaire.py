import re
from dataclasses import asdict

import numpy as np
import pytest

from exobench.errors import (IncompleteComparisonError,
                             IncompleteResponseError, SchemaError)
from exobench.questionnaire import (EQDefinition, QuestionnaireResponse,
                                    aggregate_reports, consistency,
                                    default_definition, factor_score,
                                    factor_weights, load_responses_csv,
                                    load_scores_csv,
                                    reverse_map, save_preferences_csv,
                                    save_responses_csv, score_session,
                                    subfactor_score)


class TestReverseMap:
    def test_paper_example_five_maps_to_three(self):
        assert reverse_map(5, True) == 3

    def test_fixed_point_four(self):
        assert reverse_map(4, True) == 4

    def test_identity_for_regular_items(self):
        assert reverse_map(7, False) == 7
        assert reverse_map(1, False) == 1

    def test_involution(self):
        for raw in range(1, 8):
            assert reverse_map(reverse_map(raw, True), True) == raw

    def test_out_of_range(self):
        with pytest.raises(SchemaError):
            reverse_map(0, True)
        with pytest.raises(SchemaError):
            reverse_map(8, False)


class TestSubfactorScore:
    def test_uniform(self):
        assert subfactor_score([4, 4, 4, 4]) == 4.0

    def test_extremes_average(self):
        assert subfactor_score([1, 7]) == 4.0

    def test_plain_mean(self):
        assert subfactor_score([3, 5, 6]) == pytest.approx(14.0 / 3.0)

    def test_order_invariant(self):
        assert subfactor_score([3, 5, 6]) == subfactor_score([6, 3, 5])


class TestFactorWeights:
    def test_single_pair(self):
        w = factor_weights([("a", "b", "a")], ["a", "b"])
        assert w == {"a": 1.0, "b": 0.0}

    def test_full_cycle_symmetric(self):
        prefs = [("a", "b", "a"), ("b", "c", "b"), ("a", "c", "c")]
        w = factor_weights(prefs, ["a", "b", "c"])
        assert w == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_total_order_enumeration(self):
        prefs = [("a", "b", "a"), ("a", "c", "a"), ("a", "d", "a"),
                 ("b", "c", "b"), ("b", "d", "b"), ("c", "d", "c")]
        w = factor_weights(prefs, ["a", "b", "c", "d"])
        assert w == {"a": 3.0, "b": 2.0, "c": 1.0, "d": 0.0}
        assert sum(w.values()) == 6.0  # n(n-1)/2

    def test_tie_splits(self):
        w = factor_weights([("a", "b", "tie")], ["a", "b"])
        assert w == {"a": 0.5, "b": 0.5}

    def test_missing_pair_named(self):
        with pytest.raises(IncompleteComparisonError, match="c/d"):
            factor_weights([("a", "b", "a"), ("a", "c", "a"),
                            ("a", "d", "a"), ("b", "c", "b"),
                            ("b", "d", "b")], ["a", "b", "c", "d"])

    def test_weight_sum_invariant_random(self):
        rng = np.random.default_rng(0)
        subs = ["s1", "s2", "s3", "s4"]
        for _ in range(50):
            prefs = []
            for i in range(4):
                for j in range(i + 1, 4):
                    winner = rng.choice([subs[i], subs[j], "tie"])
                    prefs.append((subs[i], subs[j], str(winner)))
            w = factor_weights(prefs, subs)
            assert sum(w.values()) == pytest.approx(6.0)


class TestFactorScore:
    def test_two_subfactor_worked_case(self):
        fs = factor_score({"a": 6.0, "b": 2.0}, {"a": 1.0, "b": 0.0})
        assert fs == 6.0

    def test_all_ties_give_plain_mean(self):
        ss = {"a": 2.0, "b": 4.0, "c": 6.0}
        w = {"a": 1.0, "b": 1.0, "c": 1.0}  # everything tied
        assert factor_score(ss, w) == pytest.approx(4.0)

    def test_constant_scores_unaffected_by_weights(self):
        ss = {"a": 5.5, "b": 5.5, "c": 5.5, "d": 5.5}
        w = {"a": 3.0, "b": 2.0, "c": 1.0, "d": 0.0}
        assert factor_score(ss, w) == pytest.approx(5.5)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(1)
        subs = ["a", "b", "c", "d"]
        for _ in range(50):
            ss = {s: float(rng.uniform(1, 7)) for s in subs}
            order = rng.permutation(subs)
            prefs = []
            for i in range(4):
                for j in range(i + 1, 4):
                    a, b = subs[i], subs[j]
                    winner = a if list(order).index(a) < list(order).index(b) else b
                    prefs.append((a, b, winner))
            w = factor_weights(prefs, subs)
            fs = factor_score(ss, w)
            assert min(ss.values()) - 1e-12 <= fs <= max(ss.values()) + 1e-12

    def test_mismatched_keys_rejected(self):
        with pytest.raises(SchemaError):
            factor_score({"a": 4.0}, {"b": 1.0})


def uniform_response(definition, value=4, subject="s1"):
    scores = {item.id: value for item in definition.items}
    prefs = {}
    for factor in definition.factors:
        subs = definition.sub_factors_of(factor)
        pairs = []
        for i in range(len(subs)):
            for j in range(i + 1, len(subs)):
                pairs.append((subs[i], subs[j], subs[i]))
        prefs[factor] = pairs
    return QuestionnaireResponse(subject_id=subject, scores=scores,
                                 preferences=prefs)


class TestConsistency:
    def test_all_consistent_is_hundred(self):
        definition = default_definition()
        resp = uniform_response(definition)
        # all-4 answers are reversal fixed points: every discrepancy is 0
        assert consistency(resp, definition) == 100.0

    def test_single_worst_pair(self):
        definition = default_definition()
        resp = uniform_response(definition)
        pair = definition.control_pairs[0]
        # force |d| = 6 on one pair (both items in this pair are unreversed)
        assert not definition.item(pair.original).reversed
        assert not definition.item(pair.control).reversed
        resp.scores[pair.original] = 7
        resp.scores[pair.control] = 1
        assert consistency(resp, definition) == pytest.approx(100 * 15 / 16)

    def test_single_moderate_pair(self):
        definition = default_definition()
        resp = uniform_response(definition)
        pair = definition.control_pairs[0]
        resp.scores[pair.original] = 6
        resp.scores[pair.control] = 4  # |d| = 2 -> credit 0.8
        assert consistency(resp, definition) == pytest.approx(
            100 * (15 + 0.8) / 16)

    def test_missing_control_answer(self):
        definition = default_definition()
        resp = uniform_response(definition)
        del resp.scores[definition.control_pairs[0].control]
        with pytest.raises(IncompleteResponseError):
            consistency(resp, definition)


class TestScoreSession:
    def test_uniform_answers_score_four_everywhere(self):
        definition = default_definition()
        report = score_session(uniform_response(definition), definition)
        for fs in report.factor_scores.values():
            assert fs == pytest.approx(4.0)
        for ss in report.subfactor_scores.values():
            assert ss == pytest.approx(4.0)
        assert report.consistency_pct == 100.0

    def test_missing_items_listed(self):
        definition = default_definition()
        resp = uniform_response(definition)
        del resp.scores["item_001"]
        with pytest.raises(IncompleteResponseError, match="item_001"):
            score_session(resp, definition)

    def test_factor_scores_in_likert_range(self):
        definition = default_definition()
        rng = np.random.default_rng(2)
        for s in range(10):
            resp = random_response(definition, rng, f"s{s}")
            report = score_session(resp, definition)
            for fs in report.factor_scores.values():
                assert 1.0 <= fs <= 7.0

    def test_batch_statistics_match_hand_oracle(self):
        definition = default_definition()
        rng = np.random.default_rng(3)
        responses = [random_response(definition, rng, f"s{k}")
                     for k in range(5)]
        reports = [score_session(r, definition) for r in responses]
        stats = aggregate_reports(reports)

        # independent spreadsheet-style recomputation
        for factor in definition.factors:
            per_subject = []
            for resp in responses:
                subs = definition.sub_factors_of(factor)
                ss = {}
                for sf in subs:
                    vals = []
                    for item in definition.scored_items(sf):
                        raw = resp.scores[item.id]
                        vals.append(8 - raw if item.reversed else raw)
                    ss[sf] = sum(vals) / len(vals)
                wins = {s: 0.0 for s in subs}
                for a, b, winner in resp.preferences[factor]:
                    if winner == "tie":
                        wins[a] += 0.5
                        wins[b] += 0.5
                    else:
                        wins[winner] += 1.0
                n = len(subs)
                fs = 2.0 * sum(wins[s] * ss[s] for s in subs) / (n * (n - 1))
                per_subject.append(fs)
            mean = sum(per_subject) / len(per_subject)
            var = sum((v - mean) ** 2 for v in per_subject) / (len(per_subject) - 1)
            assert stats[factor]["mean"] == pytest.approx(mean, abs=1e-12)
            assert stats[factor]["std"] == pytest.approx(var ** 0.5, abs=1e-12)


def random_response(definition, rng, subject):
    scores = {item.id: int(rng.integers(1, 8)) for item in definition.items}
    prefs = {}
    for factor in definition.factors:
        subs = definition.sub_factors_of(factor)
        pairs = []
        for i in range(len(subs)):
            for j in range(i + 1, len(subs)):
                winner = rng.choice([subs[i], subs[j], "tie"])
                pairs.append((subs[i], subs[j], str(winner)))
        prefs[factor] = pairs
    return QuestionnaireResponse(subject_id=subject, scores=scores,
                                 preferences=prefs)


class TestDefinitionValidation:
    def test_default_has_production_cardinalities(self):
        definition = default_definition()
        assert len(definition.items) == 132
        assert len(definition.sub_factor_to_factor) == 16
        assert len(definition.factors) == 4
        assert len(definition.control_pairs) == 16

    def test_wrong_item_count_reported(self):
        definition = default_definition()
        doc = definition.to_dict()
        doc["items"] = doc["items"][:131]
        with pytest.raises(SchemaError, match="expected 132"):
            EQDefinition.from_dict(doc)

    def test_control_pair_must_reference_items(self):
        doc = default_definition().to_dict()
        doc["control_pairs"][0]["control"] = "item_999"
        with pytest.raises(SchemaError, match="item_999"):
            EQDefinition.from_dict(doc)

    def test_factor_needs_two_sub_factors(self):
        # 13 + 1 + 1 + 1 sub-factors: a one-sub-factor factor has no
        # comparison to weigh, so scoring a response would fail later
        doc = default_definition().to_dict()
        for sf in doc["sub_factors"]:
            if not sf.endswith("_sf1"):
                doc["sub_factors"][sf] = "usability"
        with pytest.raises(SchemaError, match="needs at least two"):
            EQDefinition.from_dict(doc)

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_item_reversed_must_be_a_boolean(self, value):
        doc = default_definition().to_dict()
        doc["items"][4]["reversed"] = value
        with pytest.raises(SchemaError, match=re.escape(
                f"item item_005: reversed must be true or false, "
                f"got {value!r}")):
            EQDefinition.from_dict(doc)

    def test_include_control_items_must_be_a_boolean(self):
        doc = default_definition().to_dict()
        doc["include_control_items"] = "no"
        with pytest.raises(SchemaError, match="include_control_items must be "
                                              "true or false, got 'no'"):
            EQDefinition.from_dict(doc)

    def test_absent_flags_default_to_false(self):
        doc = default_definition().to_dict()
        del doc["include_control_items"]
        for item in doc["items"]:
            del item["reversed"]
        definition = EQDefinition.from_dict(doc)
        assert not definition.include_control_items
        assert not any(item.reversed for item in definition.items)

    def test_definition_file_round_trip(self, tmp_path):
        definition = default_definition()
        path = tmp_path / "eq.json"
        definition.save(path)
        loaded = EQDefinition.load(path)
        assert loaded.to_dict() == definition.to_dict()


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        definition = default_definition()
        rng = np.random.default_rng(4)
        responses = [random_response(definition, rng, f"s{k}") for k in range(3)]
        scores_path = tmp_path / "responses.csv"
        prefs_path = tmp_path / "preferences.csv"
        save_responses_csv(scores_path, responses)
        save_preferences_csv(prefs_path, responses)
        loaded = load_responses_csv(scores_path, prefs_path)
        assert set(loaded) == {"s0", "s1", "s2"}
        for resp in responses:
            again = loaded[resp.subject_id]
            assert again.scores == resp.scores
            r1 = score_session(resp, definition)
            r2 = score_session(again, definition)
            assert asdict(r1) == asdict(r2)

    def test_bad_score_reports_line(self, tmp_path):
        scores_path = tmp_path / "responses.csv"
        scores_path.write_text("subject_id,item_id,score\ns1,item_001,seven\n")
        prefs_path = tmp_path / "preferences.csv"
        prefs_path.write_text("subject_id,factor,sub_a,sub_b,winner\n")
        with pytest.raises(SchemaError, match="line 2"):
            load_responses_csv(scores_path, prefs_path)

    @pytest.mark.parametrize("score", ["\u0665", "1_0", "4.0", "0x5", "+-4",
                                       "", "\u00b2"])
    def test_score_outside_the_number_rule_names_its_line(self, tmp_path,
                                                          score):
        # int() reads the Arabic-Indic five and "1_0"; the dialect does not
        path = tmp_path / "responses.csv"
        path.write_text(f"subject_id,item_id,score\ns1,item_001,4\n"
                        f"s1,item_002,{score}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: line 3: bad score {score!r}")):
            load_scores_csv(path)

    def test_score_with_sign_or_spaces_loads(self, tmp_path):
        path = tmp_path / "responses.csv"
        path.write_text("subject_id,item_id,score\ns1,item_001, 4 \n"
                        "s1,item_002,+5\n")
        assert load_scores_csv(path)["s1"].scores == {"item_001": 4,
                                                      "item_002": 5}

    def test_duplicate_score_row_names_its_line(self, tmp_path):
        path = tmp_path / "responses.csv"
        path.write_text("subject_id,item_id,score\ns1,item_001,2\n"
                        "s2,item_001,3\ns1,item_001,6\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: line 4: second score for subject 's1', "
                f"item 'item_001'")):
            load_scores_csv(path)

    def test_record_after_a_quoted_line_break_is_named_by_its_number(
            self, tmp_path):
        # the quoted subject spans two physical lines but is one record
        path = tmp_path / "responses.csv"
        path.write_text('subject_id,item_id,score\n"s\n1",item_001,2\n'
                        's1,item_002,x\n')
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: line 3: bad score 'x'")):
            load_scores_csv(path)
