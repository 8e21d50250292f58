"""Fuzzy scoring of the four psychophysiological indicators.

Six walk/sit feature ratios (HR, RMSSD, RR, SCR, SCL, LF) drive a
Mamdani-style rule base: rule strength is the minimum of its antecedent
memberships, per-output aggregation is the maximum over rules, and the
score is the centroid of the aggregate over [0, 1].

The membership functions and rules are configuration; the default model
encodes the usual literature trends (sympathetic activation raises
stress, ventilation and heart rate raise energy, tonic conductance
carries attention, sustained cardiovascular load with depressed LF reads
as fatigue) and can be replaced wholesale from JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biosignal import FeatureWindow
from .errors import InsufficientDataError, SchemaError
from .streams import read_json

MODEL_SCHEMA_VERSION = 1

INPUT_NAMES = ("hr", "rmssd", "rr", "scr", "scl", "lf")
OUTPUT_NAMES = ("stress", "energy", "attention", "fatigue")
LEVEL_NAMES = ("low", "medium", "high")

# scores cover the last five walking minutes (one-minute windows)
SCORED_WALK_WINDOWS = 5

# FeatureWindow field feeding each fuzzy input
FEATURE_FOR_INPUT = {
    "hr": "hr",
    "rmssd": "rmssd",
    "rr": "rr",
    "scr": "scr_rate",
    "scl": "scl",
    "lf": "lf_ms2",
}

_GRID = np.linspace(0.0, 1.0, 2001)


@dataclass(frozen=True)
class TriangularMF:
    """Triangle over (left, peak, right); a coincident edge makes a
    shoulder that stays at full membership past the peak."""

    left: float
    peak: float
    right: float

    def __post_init__(self):
        if not (self.left <= self.peak <= self.right):
            raise SchemaError(f"membership breakpoints out of order: "
                              f"({self.left}, {self.peak}, {self.right})")
        if self.left == self.right:
            raise SchemaError("membership function has zero width")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        y = np.zeros_like(x)
        if self.peak > self.left:
            rising = (x > self.left) & (x < self.peak)
            y = np.where(rising, (x - self.left) / (self.peak - self.left), y)
        else:
            y = np.where(x < self.peak, 1.0, y)
        if self.right > self.peak:
            falling = (x >= self.peak) & (x < self.right)
            y = np.where(falling, (self.right - x) / (self.right - self.peak), y)
        else:
            y = np.where(x > self.peak, 1.0, y)
        y = np.where(x == self.peak, 1.0, y)
        return y if y.ndim else float(y)


@dataclass
class FuzzyVariable:
    """A named variable with low/medium/high memberships over a range."""

    name: str
    lo: float
    hi: float
    mfs: dict

    def __post_init__(self):
        for level in LEVEL_NAMES:
            if level not in self.mfs:
                raise SchemaError(f"{self.name} coverage gap: missing "
                                  f"'{level}' membership")
        peaks = [self.mfs[level].peak for level in LEVEL_NAMES]
        if not peaks[0] < peaks[1] < peaks[2]:
            raise SchemaError(f"{self.name}: peaks must be ordered "
                              "low < medium < high")
        grid = np.linspace(self.lo, self.hi, 513)
        total = np.zeros_like(grid)
        for mf in self.mfs.values():
            total = np.maximum(total, mf(grid))
        if np.any(total <= 0.0):
            raise SchemaError(f"{self.name} coverage gap: some of "
                              f"[{self.lo}, {self.hi}] has zero membership")


@dataclass(frozen=True)
class FuzzyRule:
    """IF conjunction of input levels THEN output levels."""

    antecedent: tuple   # ((input, level), ...)
    consequent: tuple   # ((output, level), ...)


@dataclass
class FuzzyModel:
    inputs: dict
    outputs: dict
    rules: list

    def __post_init__(self):
        for name in INPUT_NAMES:
            if name not in self.inputs:
                raise SchemaError(f"missing input variable: {name}")
        for name in OUTPUT_NAMES:
            if name not in self.outputs:
                raise SchemaError(f"missing output variable: {name}")
        for rule in self.rules:
            for inp, level in rule.antecedent:
                if inp not in self.inputs:
                    raise SchemaError(f"rule references undeclared input "
                                      f"'{inp}'")
                if level not in LEVEL_NAMES:
                    raise SchemaError(f"unknown level '{level}'")
            if not rule.consequent:
                raise SchemaError("rule with empty consequent")
            for outp, level in rule.consequent:
                if outp not in self.outputs:
                    raise SchemaError(f"rule references undeclared output "
                                      f"'{outp}'")
                if level not in LEVEL_NAMES:
                    raise SchemaError(f"unknown level '{level}'")
        # pre-evaluate output membership shapes on the defuzzification grid
        self._out_shapes = {
            (name, level): var.mfs[level](_GRID)
            for name, var in self.outputs.items() for level in LEVEL_NAMES
        }

    # -- JSON form -----------------------------------------------------------

    def to_dict(self) -> dict:
        def var_dict(var):
            d = {"range": [var.lo, var.hi]}
            for level in LEVEL_NAMES:
                mf = var.mfs[level]
                d[level] = [mf.left, mf.peak, mf.right]
            return d

        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "inputs": {k: var_dict(v) for k, v in self.inputs.items()},
            "outputs": {k: var_dict(v) for k, v in self.outputs.items()},
            "rules": [{"if": dict(r.antecedent), "then": dict(r.consequent)}
                      for r in self.rules],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FuzzyModel":
        def build_var(name, spec):
            lo, hi = spec["range"]
            mfs = {level: TriangularMF(*spec[level])
                   for level in LEVEL_NAMES if level in spec}
            return FuzzyVariable(name=name, lo=lo, hi=hi, mfs=mfs)

        inputs = {k: build_var(k, v) for k, v in doc["inputs"].items()}
        outputs = {k: build_var(k, v) for k, v in doc["outputs"].items()}
        rules = [FuzzyRule(tuple(sorted(r["if"].items())),
                           tuple(sorted(r["then"].items())))
                 for r in doc["rules"]]
        return cls(inputs=inputs, outputs=outputs, rules=rules)


def load_fuzzy_model(path) -> FuzzyModel:
    """Build and validate the model in a JSON file, or the default model
    for None."""
    if path is None:
        return default_fuzzy_model()
    return read_json(path, MODEL_SCHEMA_VERSION, FuzzyModel.from_dict)


def default_fuzzy_model() -> FuzzyModel:
    """The shipped rule base; trends only, fully overridable from config."""
    ratio_var = {
        "range": [0.0, 2.5],
        "low": [0.5, 0.5, 1.0],
        "medium": [0.5, 1.0, 1.5],
        "high": [1.0, 1.5, 1.5],
    }
    score_var = {
        "range": [0.0, 1.0],
        "low": [0.0, 0.0, 0.5],
        "medium": [0.0, 0.5, 1.0],
        "high": [0.5, 1.0, 1.0],
    }
    rules = [
        # sympathetic activation: fast heart, suppressed vagal tone, sweat
        {"if": {"hr": "high", "rmssd": "low"}, "then": {"stress": "high"}},
        {"if": {"scr": "high"}, "then": {"stress": "high"}},
        {"if": {"hr": "medium"}, "then": {"stress": "medium"}},
        {"if": {"rmssd": "medium"}, "then": {"stress": "medium"}},
        {"if": {"hr": "low"}, "then": {"stress": "low"}},
        {"if": {"rmssd": "high"}, "then": {"stress": "low"}},
        # physical effort: cardiovascular and ventilatory drive together
        {"if": {"hr": "high", "rr": "high"}, "then": {"energy": "high"}},
        {"if": {"hr": "medium"}, "then": {"energy": "medium"}},
        {"if": {"rr": "medium"}, "then": {"energy": "medium"}},
        {"if": {"hr": "low"}, "then": {"energy": "low"}},
        {"if": {"rr": "low"}, "then": {"energy": "low"}},
        # engagement tracks tonic conductance
        {"if": {"scl": "low"}, "then": {"attention": "low"}},
        {"if": {"scl": "medium"}, "then": {"attention": "medium"}},
        {"if": {"scl": "high"}, "then": {"attention": "high"}},
        # sustained load with depressed LF reads as fatigue
        {"if": {"hr": "high", "lf": "low"}, "then": {"fatigue": "high"}},
        {"if": {"hr": "high"}, "then": {"fatigue": "medium"}},
        {"if": {"hr": "medium"}, "then": {"fatigue": "medium"}},
        {"if": {"hr": "low"}, "then": {"fatigue": "low"}},
    ]
    return FuzzyModel.from_dict({
        "inputs": {name: dict(ratio_var) for name in INPUT_NAMES},
        "outputs": {name: dict(score_var) for name in OUTPUT_NAMES},
        "rules": rules,
    })


# ---------------------------------------------------------------------------
# normalisation and inference
# ---------------------------------------------------------------------------


@dataclass
class NormalizedInputs:
    """Walk/sit feature ratios; None marks an unusable input."""

    values: dict

    def __post_init__(self):
        cleaned = {}
        for name in INPUT_NAMES:
            v = self.values.get(name)
            if v is None or not np.isfinite(v) or v <= 0:
                cleaned[name] = None
            else:
                cleaned[name] = float(v)
        self.values = cleaned

    @property
    def invalid(self) -> tuple:
        return tuple(n for n in INPUT_NAMES if self.values[n] is None)


@dataclass
class PIScores:
    """The four indicator scores, each in [0, 1]; outputs whose rules
    could not fire carry the neutral 0.5 and are listed in degraded."""

    stress: float
    energy: float
    attention: float
    fatigue: float
    degraded: tuple = ()


def normalize(walk: list[FeatureWindow],
              sit: list[FeatureWindow]) -> list[NormalizedInputs]:
    """Ratio-normalise the last ``SCORED_WALK_WINDOWS`` walking windows
    against the sit-phase mean of each feature."""
    if len(walk) < SCORED_WALK_WINDOWS:
        raise InsufficientDataError(f"need at least {SCORED_WALK_WINDOWS} "
                                    f"walking windows, got {len(walk)}")
    if not sit:
        raise InsufficientDataError("need at least one sit window")
    baseline = {}
    for name, feat in FEATURE_FOR_INPUT.items():
        vals = [v for fw in sit if (v := getattr(fw, feat)) is not None]
        baseline[name] = float(np.mean(vals)) if vals else None
    rows = []
    for fw in walk[-SCORED_WALK_WINDOWS:]:
        ratios = {}
        for name, feat in FEATURE_FOR_INPUT.items():
            v = getattr(fw, feat)
            b = baseline[name]
            ratios[name] = (v / b) if (v is not None and b and b > 0) else None
        rows.append(NormalizedInputs(values=ratios))
    return rows


def infer(model: FuzzyModel, inputs: NormalizedInputs) -> PIScores:
    """Max-min inference with centroid defuzzification.

    Rules touching an invalid input are skipped; an output left with no
    firing rule scores the neutral 0.5 and is flagged degraded.
    """
    agg = {name: np.zeros_like(_GRID) for name in OUTPUT_NAMES}
    for rule in model.rules:
        strength = 1.0
        for inp, level in rule.antecedent:
            x = inputs.values[inp]
            if x is None:
                strength = 0.0
                break
            mu = model.inputs[inp].mfs[level](x)
            if mu < strength:
                strength = mu
            if strength == 0.0:
                break
        if strength <= 0.0:
            continue
        for outp, level in rule.consequent:
            clipped = np.minimum(strength, model._out_shapes[(outp, level)])
            np.maximum(agg[outp], clipped, out=agg[outp])
    scores = {}
    degraded = []
    for name in OUTPUT_NAMES:
        area = float(np.sum(agg[name]))
        if area < 1e-12:
            scores[name] = 0.5
            degraded.append(name)
        else:
            scores[name] = float(np.sum(agg[name] * _GRID) / area)
    return PIScores(degraded=tuple(degraded), **scores)
