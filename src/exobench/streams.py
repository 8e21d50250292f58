"""Columnar sensor streams and their CSV form.

A stream is the common currency between the gait simulator, the regressor
training pipeline, and the control loop: timestamps, six joint angles, the
two sole loads, and an optional per-sample stage tag.

CSV columns: ``t, q_rh, q_rk, q_ra, q_lh, q_lk, q_la, left_load,
right_load, stage_tag`` (header required, stage_tag may be empty).

The accepted dialect is what ``save_csv`` writes (``csv.writer``
defaults) and is read in one ``np.loadtxt`` pass:

* every record has exactly ten comma-separated fields; a field may be
  quoted with ``"``, a doubled ``""`` inside quotes is one quote, and a
  quoted field may hold commas, ``#`` and line breaks (there are no
  comments);
* blank lines are skipped but still counted in the line numbers of errors;
  a line of only whitespace is a record with one field and is rejected;
* the nine numbers are read like ``float()`` of the stripped cell, except
  that ``_`` digit separators and non-ASCII digits are rejected;
* ``nan`` and ``inf`` cells, and bytes that are not UTF-8, are rejected.

Every rejection is a ``ValueError`` that names the file and the line; line
numbers count CSV records from 1 for the header.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

CSV_HEADER = ["t", "q_rh", "q_rk", "q_ra", "q_lh", "q_lk", "q_la",
              "left_load", "right_load", "stage_tag"]
# one parsed record: nine numbers and the tag as a Python str
_ROW = np.dtype([(name, "f8") for name in CSV_HEADER[:9]]
                + [(CSV_HEADER[9], object)])


class SensorFrame(NamedTuple):
    """One sample handed to the control loop; ``q`` is a plain float tuple."""

    t: float
    q: tuple


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
        for t, q in zip(self.t.tolist(), self.q.tolist()):
            yield SensorFrame(t, tuple(q))

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
        with open(path, "r", newline="", encoding="utf-8") as f:
            try:
                header = next(csv.reader(f), None)
            except UnicodeDecodeError:  # anywhere in the first read chunk
                raise _bad_csv_line(path) from None
            if header is None or [h.strip() for h in header] != CSV_HEADER:
                raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
            try:
                with warnings.catch_warnings():
                    # a header-only file is reported below as "no samples"
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data")
                    rows = np.loadtxt(f, dtype=_ROW, delimiter=",",
                                      comments=None, quotechar='"', ndmin=1)
            except ValueError:
                raise _bad_csv_line(path) from None
        if not rows.size:
            raise ValueError(f"{path}: no samples")
        t = rows["t"].copy()
        q = np.column_stack([rows[name] for name in CSV_HEADER[1:7]])
        left = rows["left_load"].copy()
        right = rows["right_load"].copy()
        if not all(np.isfinite(a).all() for a in (t, q, left, right)):
            raise _bad_csv_line(path)
        return cls(t=t, q=q, left_load=left, right_load=right,
                   stage=rows["stage_tag"].copy())


def _bad_csv_line(path) -> ValueError:
    """The error naming the record of a stream CSV that failed to load; line
    numbers count CSV records, blank ones included, from 1 for the header."""
    with open(path, "r", newline="", encoding="utf-8",
              errors="surrogateescape") as f:
        records = list(enumerate(csv.reader(f), start=1))
    return (not_utf8_error(path, ((n, ",".join(row)) for n, row in records))
            or bad_line_error(path, (r for r in records[1:] if r[1]),
                              CSV_HEADER[:9], len(CSV_HEADER)))


def canonical_json(doc: dict) -> str:
    """Stable byte-for-byte serialisation of every JSON file exobench
    writes: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_cell(cell: str) -> float:
    """A number cell as ``np.loadtxt`` reads it: ``float()`` of the cell
    stripped of whitespace, where the rest must be ASCII without ``_``."""
    text = cell.strip()
    if "_" not in text and text.isascii():
        try:
            return float(text)
        except ValueError:
            pass
    raise ValueError(f"could not convert string to float: {cell!r}")


def not_utf8_error(path, lines) -> ValueError | None:
    """The error naming the first ``(line number, text)`` pair, read with
    ``errors="surrogateescape"``, whose bytes are not UTF-8, or None."""
    for lineno, text in lines:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return ValueError(f"{path}: line {lineno}: not valid UTF-8")


def bad_line_error(path, records, names, width) -> ValueError:
    """The error naming the line a bulk parse of ``path`` rejected.

    ``records`` yields ``(line number, fields)`` for every non-blank record;
    each must have ``width`` fields, the leading ``len(names)`` of them
    finite numbers.  The first record with the wrong field count or a cell
    that does not parse is named; failing that, the first non-finite cell.
    """
    nonfinite = None
    for lineno, row in records:
        if len(row) != width:
            return ValueError(f"{path}: line {lineno}: expected {width} "
                              f"fields, got {len(row)}")
        for name, cell in zip(names, row):
            try:
                value = parse_cell(cell)
            except ValueError as exc:
                return ValueError(f"{path}: line {lineno}: {exc}")
            if nonfinite is None and not math.isfinite(value):
                nonfinite = ValueError(f"{path}: line {lineno}: non-finite "
                                       f"{name} value {value}")
    return nonfinite or ValueError(f"{path}: unreadable, no bad line found")
