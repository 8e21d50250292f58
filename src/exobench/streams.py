"""Columnar sensor streams and their CSV form, and the JSON document form.

A stream is the common currency between the gait simulator, the regressor
training pipeline, and the control loop: timestamps, six joint angles, the
two sole loads, and an optional per-sample stage tag.

CSV columns: ``t, q_rh, q_rk, q_ra, q_lh, q_lk, q_la, left_load,
right_load, stage_tag`` (header required, stage_tag may be empty).

The accepted dialect is what ``save_csv`` writes (``csv.writer`` defaults)
through ``write_rows``, the chunked writer of every numeric CSV exobench
makes, and is read in one ``np.loadtxt`` pass:

* every record has exactly ten comma-separated fields; a field may be
  quoted with ``"``, a doubled ``""`` inside quotes is one quote, and a
  quoted field may hold commas, ``#`` and line breaks (there are no
  comments);
* blank lines are skipped but still counted in the line numbers of errors;
  a line of only whitespace is a record with one field and is rejected;
* the nine numbers are read like ``float()`` of the stripped cell, except
  that ``_`` digit separators and non-ASCII digits are rejected;
* ``nan`` and ``inf`` cells, and bytes that are not UTF-8, are rejected;
* a joint angle lies in [-2pi, 2pi] rad (``ANGLE_LIMIT``) and a sole load
  is at least 0; a value outside its range is rejected.

Every rejection is a ``ValueError`` that names the file and the line; line
numbers count CSV records from 1 for the header.

The calibration, models, questionnaire definition, manifests, config and
reports are JSON documents: ``write_json`` writes ``canonical_json`` text,
and ``read_json`` reads one object, checks its ``schema_version`` and builds
it, raising a ``SchemaError`` that names the file.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import reprlib
import sys
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError, SchemaError

CSV_HEADER = ["t", "q_rh", "q_rk", "q_ra", "q_lh", "q_lk", "q_la",
              "left_load", "right_load", "stage_tag"]
# one parsed record: nine numbers and the tag as a Python str
_ROW = np.dtype([(name, "f8") for name in CSV_HEADER[:9]]
                + [(CSV_HEADER[9], object)])
ROWS_PER_CHUNK = 4096   # rows per write_rows write: bounds the cells held
ANGLE_LIMIT = 2 * math.pi   # rad: the largest |q| of a stream angle


class SensorFrame(NamedTuple):
    """One sample handed to the control loop; ``q`` is a plain float tuple."""

    t: float
    q: tuple


# a SensorFrame from a (t, q) pair, skipping NamedTuple's __new__
_new_frame = functools.partial(tuple.__new__, SensorFrame)


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
        """An iterator of one ``SensorFrame`` per sample, its ``t`` a
        Python float and its ``q`` a 6-tuple of Python floats."""
        # zip of the columns builds each q without a per-row list
        return map(_new_frame, zip(self.t.tolist(), zip(*self.q.T.tolist())))

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
        write_rows(path, ",".join(CSV_HEADER) + "\r\n",
                   [self.t, *self.q.T, self.left_load, self.right_load],
                   "%r," * 9 + ("\r\n" if self.stage is None else "%s\r\n"),
                   tags=self.stage, newline="")

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
        bad = (np.abs(q) > ANGLE_LIMIT).any(axis=1) | (left < 0) | (right < 0)
        if bad.any():
            i = int(bad.argmax())
            raise _out_of_range_line(path, i, q[i].tolist(),
                                     (left[i], right[i]))
        return cls(t=t, q=q, left_load=left, right_load=right,
                   stage=rows["stage_tag"].copy())


def write_rows(path, header, columns, row_fmt, tags=None, newline=None):
    """Write ``header``, then each row of the equal-length 1-D ``columns``
    as ``row_fmt`` of Python floats, one ``%`` and one write per
    ``ROWS_PER_CHUNK`` rows; ``str`` of each of the ``tags`` fills its row's
    last ``%s``, quoted as ``csv.writer`` quotes a field."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    quoted = {}
    with open(path, "w", newline=newline, encoding="utf-8") as f:
        f.write(header)
        for start in range(0, len(columns[0]), ROWS_PER_CHUNK):
            stop = start + ROWS_PER_CHUNK
            cells = [c[start:stop].tolist() for c in columns]
            if tags is not None:
                texts = [str(tag) for tag in tags[start:stop]]
                for text in set(texts).difference(quoted):
                    buf = io.StringIO()   # text after a field, then "\r\n"
                    csv.writer(buf).writerow(["", text])
                    quoted[text] = buf.getvalue()[1:-2]
                cells.append([quoted[text] for text in texts])
            f.write(row_fmt * len(cells[0])
                    % tuple(chain.from_iterable(zip(*cells))))


def _bad_csv_line(path) -> ValueError:
    """The error naming the record of a stream CSV that failed to load; line
    numbers count CSV records, blank ones included, from 1 for the header."""
    with open(path, "r", newline="", encoding="utf-8",
              errors="surrogateescape") as f:
        records = list(enumerate(csv.reader(f), start=1))
    return (not_utf8_error(path, ((n, ",".join(row)) for n, row in records))
            or bad_line_error(path, (r for r in records[1:] if r[1]),
                              CSV_HEADER[:9], len(CSV_HEADER)))


def _out_of_range_line(path, index, q, loads) -> ValueError:
    """The error naming data row ``index`` of a stream CSV, whose angles
    ``q`` or sole ``loads`` leave their range; line numbers count as
    ``_bad_csv_line`` counts them."""
    with open(path, "r", newline="", encoding="utf-8") as f:
        lines = (n for n, row in enumerate(csv.reader(f), start=1) if row)
        lineno = next(islice(lines, index + 1, None))   # past the header
    if max(map(abs, q)) > ANGLE_LIMIT:
        reason = angle_error(q)
    else:
        reason = next(f"negative {name} value {value}" for name, value
                      in zip(CSV_HEADER[7:9], loads) if value < 0)
    return ValueError(f"{path}: line {lineno}: {reason}")


def angle_error(q) -> ValueError:
    """The error for six joint angles ``q``, at least one of them outside
    [-``ANGLE_LIMIT``, ``ANGLE_LIMIT``]; it names the first such."""
    name, value = next((name, value) for name, value
                       in zip(CSV_HEADER[1:7], q)
                       if not abs(value) <= ANGLE_LIMIT)
    return ValueError(f"{name} value {value} outside [-2pi, 2pi] rad")


def canonical_json(doc: dict) -> str:
    """Stable byte-for-byte serialisation of every JSON file exobench
    writes: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_json(path, doc: dict) -> None:
    """Write ``doc`` to ``path`` as ``canonical_json`` text."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(canonical_json(doc))


def read_json(path, version=None, build=dict):
    """``build(doc)`` of the JSON object in ``path``, whose
    ``schema_version`` must equal ``version`` unless that is None.

    Invalid UTF-8 or JSON, a number no finite float holds (NaN, 10**400),
    a non-object, another version, and a bad value that ``build`` meets
    (``KeyError``, ``TypeError``, ``ValueError``, ``AttributeError``,
    ``OverflowError`` or ``ConfigurationError``) raise a ``SchemaError``
    starting with the path.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        doc = json.loads(raw.decode("utf-8"), parse_float=_finite_number,
                         parse_int=lambda text: _finite_number(text, int),
                         parse_constant=_finite_number)
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path}: line {line}: not valid UTF-8") from None
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object, "
                          f"got {type(doc).__name__}")
    if version is not None and doc.get("schema_version") != version:
        raise SchemaError(f"{path}: unsupported schema_version "
                          f"{doc.get('schema_version')!r}")
    try:
        return build(doc)
    except KeyError as exc:
        raise SchemaError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError,
            ConfigurationError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _finite_number(text: str, parse=float):
    value = parse(text)
    if not abs(value) <= sys.float_info.max:   # NaN, Infinity, 1e400, 10**400
        raise ValueError(f"not a finite float: {reprlib.repr(text)}")
    return value


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
