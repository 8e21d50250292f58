"""Multifactor questionnaire scoring.

132 seven-point Likert items feed 16 sub-factors grouped under four
factors (usability, acceptability, perceptibility, functionality).
Scoring runs in three levels: reversal-adjusted item scores, sub-factor
means, then factor scores weighted by pairwise sub-factor preferences.
Sixteen hidden control items (rephrased twins of regular items) feed a
consistency percentage.

The item bank itself is configuration: definitions load from JSON, and a
synthetic default with the right cardinalities ships for testing.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (IncompleteComparisonError, IncompleteResponseError,
                     SchemaError)
from .streams import csv_records, read_json, write_json

EQ_SCHEMA_VERSION = 1

FACTOR_NAMES = ("usability", "acceptability", "perceptibility", "functionality")
ITEM_COUNT = 132
SUBFACTOR_COUNT = 16
FACTOR_COUNT = 4
CONTROL_PAIR_COUNT = 16
LIKERT_MIN, LIKERT_MAX = 1, 7
# a control pair's credit falls to zero over this many points past the first
CONSISTENCY_DECAY_SPAN = 5.0

TIE = "tie"

# the header lines of the two CSV forms
RESPONSES_HEADER = ["subject_id", "item_id", "score"]
PREFERENCES_HEADER = ["subject_id", "factor", "sub_a", "sub_b", "winner"]


def reverse_map(raw: int, is_reversed: bool = True) -> int:
    """Reversal adjustment: 8 - raw for reversed items, identity otherwise."""
    if not isinstance(raw, (int, np.integer)) or isinstance(raw, bool):
        raise SchemaError(f"Likert score must be an integer, got {raw!r}")
    if not LIKERT_MIN <= raw <= LIKERT_MAX:
        raise SchemaError(f"Likert score out of range [1, 7]: {raw}")
    return (LIKERT_MAX + LIKERT_MIN) - raw if is_reversed else raw


@dataclass(frozen=True)
class EQItem:
    id: str
    sub_factor: str
    reversed: bool = False


@dataclass(frozen=True)
class ControlPair:
    original: str
    control: str


@dataclass
class EQDefinition:
    """Item bank, sub-factor/factor structure, and control pairs."""

    items: list
    sub_factor_to_factor: dict
    control_pairs: list
    include_control_items: bool = False

    def __post_init__(self):
        if len(self.items) != ITEM_COUNT:
            raise SchemaError(f"expected {ITEM_COUNT} items, "
                              f"got {len(self.items)}")
        if len(self.sub_factor_to_factor) != SUBFACTOR_COUNT:
            raise SchemaError(f"expected {SUBFACTOR_COUNT} sub-factors, "
                              f"got {len(self.sub_factor_to_factor)}")
        factors = sorted(set(self.sub_factor_to_factor.values()))
        if len(factors) != FACTOR_COUNT:
            raise SchemaError(f"expected {FACTOR_COUNT} factors, "
                              f"got {len(factors)}")
        for factor in factors:
            if list(self.sub_factor_to_factor.values()).count(factor) < 2:
                raise SchemaError(f"factor {factor} needs at least two "
                                  f"sub-factors")
        if len(self.control_pairs) != CONTROL_PAIR_COUNT:
            raise SchemaError(f"expected {CONTROL_PAIR_COUNT} control pairs, "
                              f"got {len(self.control_pairs)}")
        ids = [item.id for item in self.items]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate item ids")
        self._by_id = {item.id: item for item in self.items}
        for item in self.items:
            if item.sub_factor not in self.sub_factor_to_factor:
                raise SchemaError(f"item {item.id} maps to unknown "
                                  f"sub-factor {item.sub_factor}")
        for pair in self.control_pairs:
            for ref in (pair.original, pair.control):
                if ref not in self._by_id:
                    raise SchemaError(f"control pair references unknown "
                                      f"item {ref}")
        controls = [p.control for p in self.control_pairs]
        if len(set(controls)) != len(controls):
            raise SchemaError("duplicate control items")
        self._control_ids = frozenset(controls)

    @property
    def factors(self) -> tuple:
        return tuple(sorted(set(self.sub_factor_to_factor.values())))

    def item(self, item_id: str) -> EQItem:
        return self._by_id[item_id]

    def scored_items(self, sub_factor: str) -> list:
        """Items contributing to a sub-factor mean (controls excluded
        unless the definition says otherwise)."""
        return [item for item in self.items
                if item.sub_factor == sub_factor
                and (self.include_control_items
                     or item.id not in self._control_ids)]

    def sub_factors_of(self, factor: str) -> list:
        return sorted(sf for sf, f in self.sub_factor_to_factor.items()
                      if f == factor)

    # -- JSON form -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": EQ_SCHEMA_VERSION,
            "items": [{"id": i.id, "sub_factor": i.sub_factor,
                       "reversed": i.reversed} for i in self.items],
            "sub_factors": dict(self.sub_factor_to_factor),
            "control_pairs": [{"original": p.original, "control": p.control}
                              for p in self.control_pairs],
            "include_control_items": self.include_control_items,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EQDefinition":
        items = [EQItem(id=d["id"], sub_factor=d["sub_factor"],
                        reversed=_flag(d, "reversed", f"item {d['id']}: "))
                 for d in doc["items"]]
        pairs = [ControlPair(original=d["original"], control=d["control"])
                 for d in doc["control_pairs"]]
        return cls(items=items,
                   sub_factor_to_factor=dict(doc["sub_factors"]),
                   control_pairs=pairs,
                   include_control_items=_flag(doc, "include_control_items"))

    def save(self, path):
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "EQDefinition":
        return read_json(path, EQ_SCHEMA_VERSION, cls.from_dict)


def _flag(doc: dict, key: str, where: str = "") -> bool:
    """``doc[key]``, a JSON boolean, or False when the key is absent."""
    value = doc.get(key, False)
    if not isinstance(value, bool):
        raise SchemaError(f"{where}{key} must be true or false, "
                          f"got {value!r}")
    return value


def default_definition() -> EQDefinition:
    """Synthetic bank with the production cardinalities (132/16/4/16)."""
    sub_factor_to_factor = {}
    items = []
    pairs = []
    serial = 0

    def next_id():
        nonlocal serial
        serial += 1
        return f"item_{serial:03d}"

    for f_idx, factor in enumerate(FACTOR_NAMES):
        for s_idx in range(4):
            sf = f"{factor}_sf{s_idx + 1}"
            sub_factor_to_factor[sf] = factor
            # the first factor's sub-factors carry an eighth regular item
            # so 16 x 7 regular + 16 control + 4 extra = 132
            n_regular = 8 if f_idx == 0 else 7
            regular_ids = []
            for k in range(n_regular):
                iid = next_id()
                items.append(EQItem(id=iid, sub_factor=sf,
                                    reversed=(k % 4 == 3)))
                regular_ids.append(iid)
            control_id = next_id()
            items.append(EQItem(id=control_id, sub_factor=sf,
                                reversed=(s_idx % 2 == 1)))
            pairs.append(ControlPair(original=regular_ids[0],
                                     control=control_id))
    return EQDefinition(items=items, sub_factor_to_factor=sub_factor_to_factor,
                        control_pairs=pairs)


# ---------------------------------------------------------------------------
# responses
# ---------------------------------------------------------------------------


@dataclass
class QuestionnaireResponse:
    """One subject's raw item scores and pairwise sub-factor preferences.

    ``preferences[factor]`` lists ``(sub_a, sub_b, winner)`` per unordered
    sub-factor pair; winner is a sub-factor id or ``"tie"``.
    """

    subject_id: str
    scores: dict
    preferences: dict = field(default_factory=dict)


def adjusted_score(response: QuestionnaireResponse, definition: EQDefinition,
                   item_id: str) -> int:
    raw = response.scores[item_id]
    return reverse_map(raw, definition.item(item_id).reversed)


def subfactor_score(item_scores) -> float:
    """Mean of reversal-adjusted item scores of one sub-factor."""
    scores = list(item_scores)
    if not scores:
        raise IncompleteResponseError(["<empty sub-factor>"])
    return float(np.mean(scores))


def factor_weights(preferences, sub_factors) -> dict:
    """Pairwise win counts (ties split) over a factor's sub-factors.

    The weights sum to n(n-1)/2, which is exactly what the factor-score
    normalisation expects.
    """
    subs = sorted(sub_factors)
    expected = {frozenset(p) for p in itertools.combinations(subs, 2)}
    weights = {s: 0.0 for s in subs}
    seen = set()
    for a, b, winner in preferences:
        key = frozenset((a, b))
        if key not in expected:
            raise IncompleteComparisonError(
                f"unexpected pair ({a}, {b}) for this factor")
        if key in seen:
            raise IncompleteComparisonError(f"duplicate pair ({a}, {b})")
        seen.add(key)
        if winner == TIE:
            weights[a] += 0.5
            weights[b] += 0.5
        elif winner in (a, b):
            weights[winner] += 1.0
        else:
            raise IncompleteComparisonError(
                f"winner {winner!r} is not in pair ({a}, {b})")
    missing = expected - seen
    if missing:
        names = ", ".join(sorted("/".join(sorted(p)) for p in missing))
        raise IncompleteComparisonError(f"missing comparisons: {names}")
    return weights


def factor_score(sub_scores: dict, weights: dict) -> float:
    """Preference-weighted factor score: (2 / (n (n-1))) sum w_k ss_k.

    With win-count weights this is a convex combination, so the result
    lies between the smallest and largest sub-factor scores.
    """
    if set(sub_scores) != set(weights):
        raise SchemaError("sub-factor scores and weights do not match")
    n = len(sub_scores)
    if n < 2:
        raise SchemaError("a factor needs at least two sub-factors")
    total = sum(weights[s] * sub_scores[s] for s in sorted(sub_scores))
    return float(2.0 * total / (n * (n - 1)))


def consistency(response: QuestionnaireResponse,
                definition: EQDefinition) -> float:
    """Consistency percentage from the control pairs.

    A pair scored within one point (after reversal adjustment) earns full
    credit; larger discrepancies lose credit linearly over
    ``CONSISTENCY_DECAY_SPAN`` additional points.
    """
    missing = [i for p in definition.control_pairs
               for i in (p.original, p.control) if i not in response.scores]
    if missing:
        raise IncompleteResponseError(sorted(set(missing)))
    credits = []
    for pair in definition.control_pairs:
        d = (adjusted_score(response, definition, pair.original)
             - adjusted_score(response, definition, pair.control))
        if abs(d) <= 1:
            credits.append(1.0)
        else:
            lost = (abs(d) - 1.0) / CONSISTENCY_DECAY_SPAN
            credits.append(min(1.0, max(0.0, 1.0 - lost)))
    return 100.0 * float(np.mean(credits))


@dataclass
class FactorReport:
    """Per-subject scoring output."""

    subject_id: str
    subfactor_scores: dict
    factor_scores: dict
    consistency_pct: float


def score_session(response: QuestionnaireResponse,
                  definition: EQDefinition) -> FactorReport:
    """Full pipeline: reversal, sub-factor means, preference weights,
    factor scores, consistency."""
    missing = [item.id for item in definition.items
               if item.id not in response.scores]
    if missing:
        raise IncompleteResponseError(missing)
    ss = {}
    for sf in definition.sub_factor_to_factor:
        scored = definition.scored_items(sf)
        ss[sf] = subfactor_score(
            adjusted_score(response, definition, item.id) for item in scored)
    fs = {}
    for factor in definition.factors:
        subs = definition.sub_factors_of(factor)
        prefs = response.preferences.get(factor)
        if prefs is None:
            raise IncompleteComparisonError(
                f"no pairwise preferences for factor {factor}")
        weights = factor_weights(prefs, subs)
        fs[factor] = factor_score({s: ss[s] for s in subs}, weights)
    return FactorReport(subject_id=response.subject_id,
                        subfactor_scores=ss, factor_scores=fs,
                        consistency_pct=consistency(response, definition))


def aggregate_reports(reports) -> dict:
    """Across-subject mean and sample standard deviation per factor."""
    if not reports:
        raise ValueError("no reports to aggregate")
    factors = sorted(reports[0].factor_scores)
    out = {}
    for factor in factors:
        vals = np.asarray([r.factor_scores[factor] for r in reports])
        out[factor] = {
            "mean": float(np.mean(vals)),
            "std": float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0,
            "n": int(vals.size),
        }
    return out


# ---------------------------------------------------------------------------
# CSV forms
# ---------------------------------------------------------------------------


def save_responses_csv(path, responses):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(RESPONSES_HEADER)
        for resp in responses:
            for item_id in sorted(resp.scores):
                writer.writerow([resp.subject_id, item_id,
                                 resp.scores[item_id]])


def save_preferences_csv(path, responses):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(PREFERENCES_HEADER)
        for resp in responses:
            for factor in sorted(resp.preferences):
                for a, b, winner in resp.preferences[factor]:
                    writer.writerow([resp.subject_id, factor, a, b, winner])


def load_scores_csv(path) -> dict:
    """Read the item-score CSV; returns {subject_id: QuestionnaireResponse}
    with the scores set and no preferences.  A score is ASCII digits after
    an optional sign, in [1, 7], and each subject scores an item once."""
    responses = {}
    for lineno, (subject, item, score) in csv_records(path, RESPONSES_HEADER):
        if not re.fullmatch(r"[+-]?[0-9]+", score.strip()):
            raise SchemaError(f"{path}: line {lineno}: bad score {score!r}")
        if not LIKERT_MIN <= (value := int(score)) <= LIKERT_MAX:
            raise SchemaError(f"{path}: line {lineno}: Likert score out of "
                              f"range [1, 7]: {value}")
        resp = responses.setdefault(
            subject, QuestionnaireResponse(subject_id=subject, scores={}))
        if item in resp.scores:
            raise SchemaError(f"{path}: line {lineno}: second score for "
                              f"subject {subject!r}, item {item!r}")
        resp.scores[item] = value
    return responses


def load_preferences_csv(path) -> dict:
    """Read the pairwise-preference CSV; returns {subject_id: {factor:
    [(sub_a, sub_b, winner), ...]}} in file order.  Each subject compares
    an unordered pair of a factor once."""
    preferences = {}
    seen = set()
    for lineno, (subject, factor, a, b, winner) in csv_records(
            path, PREFERENCES_HEADER):
        if (key := (subject, factor, frozenset((a, b)))) in seen:
            raise SchemaError(f"{path}: line {lineno}: second comparison of "
                              f"({a}, {b}) for subject {subject!r}, factor "
                              f"{factor!r}")
        seen.add(key)
        preferences.setdefault(subject, {}).setdefault(factor, []).append(
            (a, b, winner))
    return preferences


def load_responses_csv(scores_path, preferences_path, subjects=()) -> dict:
    """Read both CSV files; returns {subject_id: QuestionnaireResponse}.

    Preferences of a subject with no responses are an error of the
    responses file when the subject is one of ``subjects`` (the set's),
    else of the preferences file."""
    responses = load_scores_csv(scores_path)
    for subject, preferences in load_preferences_csv(preferences_path).items():
        if subject in responses:
            responses[subject].preferences = preferences
        elif subject in subjects:
            raise SchemaError(f"{scores_path}: no questionnaire response for "
                              f"subject {subject}")
        else:
            raise SchemaError(f"{preferences_path}: preferences for unknown "
                              f"subject {subject!r}")
    return responses
