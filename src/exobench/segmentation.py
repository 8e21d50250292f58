"""Gait-phase regression from joint angles.

The gait phase is a continuous scalar in [-1, +1]: +1 when the left foot
carries all load, -1 when the right foot does.  A linear map from the six
joint angles to that scalar is fitted by (optionally ridge-regularised)
least squares on a short labelled recording; labels come from the sole
loads.

There is deliberately no intercept term: the map is homogeneous in the
angles, so encoder offsets must be zero-referenced before training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (AirborneError, IncompleteTrainingError,
                     InsufficientDataError, SingularityError)
from .streams import SensorStream, read_json, write_json

MODEL_SCHEMA_VERSION = 1

STAGE_LEFT_SWING = "left_swing"
STAGE_RIGHT_SWING = "right_swing"
STAGE_TREADMILL = "treadmill"

# a swing-stage sample must actually look like single support on the
# grounded side before it may carry the stage's constant label
_SWING_SHARE_THRESHOLD = 0.9


def label_from_soles(left_load: float, right_load: float) -> float:
    """Load-share phase label: (L - R) / (L + R).

    Raises AirborneError when both loads are zero (the sample carries no
    stance information and is discarded from training sets).
    """
    if left_load < 0 or right_load < 0:
        raise ValueError("sole loads must be non-negative")
    total = left_load + right_load
    if total == 0:
        raise AirborneError("both sole loads are zero")
    return (left_load - right_load) / total


@dataclass
class TrainingSet:
    """Labelled joint-angle samples with per-sample provenance tags."""

    q: np.ndarray          # (T, 6) joint angles
    labels: np.ndarray     # (T,) phase labels in [-1, 1]
    tags: np.ndarray       # (T,) provenance strings

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        self.tags = np.asarray(self.tags, dtype=object)
        T = self.labels.size
        if self.q.shape != (T, 6):
            raise ValueError("q must have shape (T, 6)")
        if self.tags.shape != (T,):
            raise ValueError("tags must match labels in length")
        if T <= 6:
            raise ValueError("need more samples than joints (T > 6)")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.labels))):
            raise ValueError("training data contains non-finite entries")
        if np.max(np.abs(self.labels)) > 1.0 + 1e-12:
            raise ValueError("labels must lie in [-1, 1]")

    def __len__(self) -> int:
        return self.labels.size


@dataclass
class GaitRegressor:
    """Trained weight vector mapping joint angles to a raw gait phase."""

    weights: np.ndarray
    rmse: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (6,):
            raise ValueError("weights must have shape (6,)")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if self.rmse < 0:
            raise ValueError("rmse must be non-negative")
        # Python floats, so the control step does no numpy-scalar arithmetic
        self._w = tuple(self.weights.tolist())

    def phase(self, q) -> float:
        """Raw (unclamped) phase Y . q; blend gains apply the clamp."""
        w = self._w
        return (w[0] * q[0] + w[1] * q[1] + w[2] * q[2]
                + w[3] * q[3] + w[4] * q[4] + w[5] * q[5])

    def phase_array(self, q_rows: np.ndarray) -> np.ndarray:
        """``phase`` of every row, run over the columns: bit for bit."""
        return self.phase(np.asarray(q_rows, dtype=float).T)

    def save(self, path):
        write_json(path, {
            "schema_version": MODEL_SCHEMA_VERSION,
            "weights": self.weights.tolist(),
            "rmse": self.rmse,
            "metadata": self.metadata,
        })

    @classmethod
    def load(cls, path) -> "GaitRegressor":
        return read_json(path, MODEL_SCHEMA_VERSION, lambda doc: cls(
            weights=doc["weights"], rmse=float(doc["rmse"]),
            metadata=doc.get("metadata", {})))


def default_ridge(q: np.ndarray) -> float:
    return 1e-6 * float(np.trace(q.T @ q)) / q.shape[1]


def train(data: TrainingSet, ridge: float | None = None) -> GaitRegressor:
    """Least-squares fit of the phase labels; optional ridge term.

    ``ridge=None`` applies a small default proportional to trace(Q'Q)/n;
    ``ridge=0`` solves the plain objective and fails loudly on a
    rank-deficient problem.
    """
    Q = data.q
    p = data.labels
    T, n = Q.shape
    lam = default_ridge(Q) if ridge is None else float(ridge)
    if lam < 0:
        raise ValueError("ridge must be >= 0")
    if lam == 0 and np.linalg.matrix_rank(Q) < n:
        raise SingularityError(
            "normal equations are rank deficient; retrain with ridge > 0")
    A = Q.T @ Q + lam * np.eye(n)
    b = Q.T @ p
    try:
        L = np.linalg.cholesky(A)
        Y = np.linalg.solve(L.T, np.linalg.solve(L, b))
    except np.linalg.LinAlgError:
        # ill-conditioned: orthogonal decomposition on the augmented system
        aug_q = np.vstack([Q, np.sqrt(lam) * np.eye(n)]) if lam > 0 else Q
        aug_p = np.concatenate([p, np.zeros(n)]) if lam > 0 else p
        Y, *_ = np.linalg.lstsq(aug_q, aug_p, rcond=None)
    residual = Q @ Y - p
    rmse = float(np.linalg.norm(residual) / np.sqrt(T))
    meta = {
        "samples": int(T),
        "ridge": lam,
        "stage_counts": {tag: int(c) for tag, c in
                         zip(*np.unique(data.tags.astype(str), return_counts=True))},
    }
    return GaitRegressor(weights=Y, rmse=rmse, metadata=meta)


def training_session_builder(stream: SensorStream) -> TrainingSet:
    """Assemble a TrainingSet from a staged protocol recording.

    Swing stages get the constant label of the grounded foot (+1 for
    right-leg swings, -1 for left-leg swings), keeping only samples whose
    sole loads actually show that single support.  Treadmill samples are
    labelled by load share; airborne samples are discarded.  Raises
    InsufficientDataError when no more than 6 samples are left.
    """
    tags = stream.stage.astype(str)
    kinds = {STAGE_TREADMILL if tag.startswith(STAGE_TREADMILL) else tag
             for tag in np.unique(tags).tolist()}
    for required in (STAGE_LEFT_SWING, STAGE_RIGHT_SWING, STAGE_TREADMILL):
        if required not in kinds:
            raise IncompleteTrainingError(required)

    # label_from_soles over the columns, with the same comparisons
    left, right = stream.left_load, stream.right_load
    if np.any(left < 0) or np.any(right < 0):
        raise ValueError("sole loads must be non-negative")
    total = left + right
    with np.errstate(divide="ignore", invalid="ignore"):
        share = (left - right) / total
    is_left = tags == STAGE_LEFT_SWING
    is_right = tags == STAGE_RIGHT_SWING
    keep = ((total != 0) & ~(is_left & (share > -_SWING_SHARE_THRESHOLD))
            & ~(is_right & (share < _SWING_SHARE_THRESHOLD)))
    usable = int(np.count_nonzero(keep))
    if usable <= 6:
        raise InsufficientDataError(
            f"only {usable} usable training samples, need more than 6 "
            f"(airborne and off-signature swing samples are discarded)")
    labels = np.where(is_left, -1.0, np.where(is_right, 1.0, share))
    return TrainingSet(q=stream.q[keep], labels=labels[keep],
                       tags=tags[keep].astype(object))
