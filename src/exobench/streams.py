"""Columnar sensor streams and their CSV form.

A stream is the common currency between the gait simulator, the regressor
training pipeline, and the control loop: timestamps, six joint angles, the
two sole loads, and an optional per-sample stage tag.

CSV columns: ``t, q_rh, q_rk, q_ra, q_lh, q_lk, q_la, left_load,
right_load, stage_tag`` (header required, stage_tag may be empty).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

CSV_HEADER = ["t", "q_rh", "q_rk", "q_ra", "q_lh", "q_lk", "q_la",
              "left_load", "right_load", "stage_tag"]


class SensorFrame(NamedTuple):
    """One sample handed to the control loop; ``q`` is a plain float tuple."""

    t: float
    q: tuple
    left_load: float
    right_load: float
    stage: str = ""


@dataclass
class SensorStream:
    t: np.ndarray
    q: np.ndarray
    left_load: np.ndarray
    right_load: np.ndarray
    stage: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.left_load = np.asarray(self.left_load, dtype=float)
        self.right_load = np.asarray(self.right_load, dtype=float)
        n = self.t.size
        if self.q.shape != (n, 6):
            raise ValueError("q must have shape (n, 6)")
        if self.left_load.shape != (n,) or self.right_load.shape != (n,):
            raise ValueError("load arrays must match t in length")
        if self.stage is not None:
            self.stage = np.asarray(self.stage, dtype=object)
            if self.stage.shape != (n,):
                raise ValueError("stage array must match t in length")

    def __len__(self) -> int:
        return self.t.size

    def frames(self) -> Iterator[SensorFrame]:
        """Yield per-sample frames with native-float payloads."""
        stage = self.stage
        t = self.t.tolist()
        q_rows = self.q.tolist()
        left = self.left_load.tolist()
        right = self.right_load.tolist()
        for i in range(len(t)):
            yield SensorFrame(t[i], tuple(q_rows[i]), left[i], right[i],
                              "" if stage is None else str(stage[i]))

    def head(self, n: int) -> "SensorStream":
        """The first ``n`` samples (all of them if the stream is shorter)."""
        return SensorStream(
            t=self.t[:n], q=self.q[:n], left_load=self.left_load[:n],
            right_load=self.right_load[:n],
            stage=None if self.stage is None else self.stage[:n])

    @staticmethod
    def concatenate(parts: list["SensorStream"]) -> "SensorStream":
        return SensorStream(
            t=np.concatenate([p.t for p in parts]),
            q=np.vstack([p.q for p in parts]),
            left_load=np.concatenate([p.left_load for p in parts]),
            right_load=np.concatenate([p.right_load for p in parts]),
            stage=np.concatenate([
                p.stage if p.stage is not None else np.full(len(p), "", object)
                for p in parts]),
        )

    def save_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(CSV_HEADER)
            stage = self.stage
            for i in range(len(self)):
                row = [repr(float(self.t[i]))]
                row += [repr(float(v)) for v in self.q[i]]
                row += [repr(float(self.left_load[i])),
                        repr(float(self.right_load[i]))]
                row.append("" if stage is None else str(stage[i]))
                writer.writerow(row)

    @classmethod
    def load_csv(cls, path) -> "SensorStream":
        t, q, left, right, stage, lines = [], [], [], [], [], []
        with open(path, "r", newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != CSV_HEADER:
                raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"{path}: line {lineno}: expected "
                                     f"{len(CSV_HEADER)} fields, got {len(row)}")
                try:
                    t.append(float(row[0]))
                    q.append([float(v) for v in row[1:7]])
                    left.append(float(row[7]))
                    right.append(float(row[8]))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
                stage.append(row[9])
                lines.append(lineno)
        if not t:
            raise ValueError(f"{path}: no samples")
        stream = cls(t=np.asarray(t), q=np.asarray(q),
                     left_load=np.asarray(left), right_load=np.asarray(right),
                     stage=np.asarray(stage, dtype=object))
        values = np.column_stack([stream.t, stream.q, stream.left_load,
                                  stream.right_load])
        finite = np.isfinite(values)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValueError(f"{path}: line {lines[row]}: "
                             f"non-finite {CSV_HEADER[col]} value "
                             f"{values[row, col]}")
        return stream
