"""Columnar sensor streams and their CSV form, and the JSON document form.

A stream is the common currency between the gait simulator, the regressor
training pipeline, and the control loop: timestamps, six joint angles, the
two sole loads, and a per-sample stage tag.  A stream built without tags
carries the empty tag on every sample, as its CSV form does.

CSV columns: ``t, q_rh, q_rk, q_ra, q_lh, q_lk, q_la, left_load,
right_load, stage_tag`` (header required, stage_tag may be empty).

The accepted dialect is what ``save_csv`` writes (``csv.writer`` defaults)
through ``write_rows``, the chunked writer of every numeric CSV exobench
makes.  It also covers the one-column physiological channel files that
``load_column`` reads, each with its own header and range, and the
questionnaire's ``questionnaire_responses.csv`` and
``questionnaire_preferences.csv``, whose cells are text (a score is ASCII
digits after an optional sign):

* the first line is the header, compared field by field after stripping
  whitespace;
* every record has exactly as many comma-separated fields as the header
  (ten for a stream); a field may be quoted with ``"``, a doubled ``""``
  inside quotes is one quote, and a quoted field may hold commas, ``#`` and
  line breaks (there are no comments);
* blank lines are skipped but still counted in the line numbers of errors;
  a line of only whitespace is a record with one field;
* numbers are read like ``float()`` of the stripped cell, except that ``_``
  digit separators and non-ASCII digits are rejected;
* ``nan`` and ``inf`` cells, and bytes that are not UTF-8, are rejected;
* a time lies in [-1e10, 1e10] s (``TIME_LIMIT``), a joint angle in
  [-2pi, 2pi] rad (``ANGLE_LIMIT``), and a sole load is at least 0; a
  value outside its column's range is rejected;
* a file with a header and no records is rejected as "no samples".

Each file is read in one ``np.loadtxt`` pass after its header line.
``load_csv`` reads a stream through a ``newline=""`` handle, which keeps a
quoted ``"\r"`` in a tag; read from the path, it would come back as
``"\n"``.  ``load_column`` reads a channel from the path, which parses a
long column about twice as fast as any file object.

Every rejection is a ``ValueError`` that names the file and the line; line
numbers count CSV records from 1 for the header.  One record walk,
``csv_records``, finds the bad line for every loader: ``_bad_csv_line``
runs it after a failed ``np.loadtxt`` pass and adds the number and range
checks, and the questionnaire loaders read their records from it.

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
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError, SchemaError

CSV_HEADER = ["t", "q_rh", "q_rk", "q_ra", "q_lh", "q_lk", "q_la",
              "left_load", "right_load", "stage_tag"]
# one parsed record: nine numbers and the tag as a Python str
_ROW = np.dtype([(name, "f8") for name in CSV_HEADER[:9]]
                + [(CSV_HEADER[9], object)])
# rows per write_rows write and per replay_batch block: bounds what each holds
ROWS_PER_CHUNK = 4096
ANGLE_LIMIT = 2 * math.pi   # rad: the largest |q| of a stream angle
_ANGLE_RANGE = (-ANGLE_LIMIT, ANGLE_LIMIT, "[-2pi, 2pi] rad")
# s: the largest |t| of a stream time, a breath mark or a phase marker;
# it admits Unix-epoch seconds
TIME_LIMIT = 1e10
TIME_RANGE = (-TIME_LIMIT, TIME_LIMIT, "[-1e10, 1e10] s")
# (low, high, range text) of each number column; no range holds nan or inf
_STREAM_RANGES = dict(zip(CSV_HEADER, [TIME_RANGE] + [_ANGLE_RANGE] * 6
                          + [(0.0, sys.float_info.max, "[0, inf)")] * 2))


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
        tags = self.stage
        if tags is None:   # untagged: the empty tag of the CSV form
            tags = np.full(n, "", dtype=object)
        self.stage = np.asarray(tags, dtype=object)
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
            right_load=self.right_load[:n], stage=self.stage[:n])

    @staticmethod
    def concatenate(parts: list["SensorStream"]) -> "SensorStream":
        return SensorStream(
            t=np.concatenate([p.t for p in parts]),
            q=np.vstack([p.q for p in parts]),
            left_load=np.concatenate([p.left_load for p in parts]),
            right_load=np.concatenate([p.right_load for p in parts]),
            stage=np.concatenate([p.stage for p in parts]),
        )

    def save_csv(self, path):
        write_rows(path, ",".join(CSV_HEADER) + "\r\n",
                   [self.t, *self.q.T, self.left_load, self.right_load],
                   "%r," * 9 + "%s\r\n", tags=self.stage, newline="")

    @classmethod
    def load_csv(cls, path) -> "SensorStream":
        # a newline="" handle, which keeps a quoted "\r" in a tag
        with open(path, "r", newline="", encoding="utf-8") as f:
            rows = _parsed(path, CSV_HEADER, _STREAM_RANGES, lambda: (
                np.loadtxt(f, dtype=_ROW, delimiter=",", comments=None,
                           quotechar='"', skiprows=1, ndmin=1)))
        q = np.column_stack([rows[name] for name in CSV_HEADER[1:7]])
        return cls(rows["t"].copy(), q,
                   *(rows[name].copy() for name in CSV_HEADER[7:]))


def load_column(path, name: str, limits: tuple) -> np.ndarray:
    """The numbers of the one-column CSV ``path`` headed ``name``, each in
    the ``(low, high, range text)`` of ``limits``."""
    # the path, which np.loadtxt reads twice as fast as a file object
    return _parsed(path, [name], {name: limits}, lambda: np.loadtxt(
        path, dtype=[(name, "f8")], delimiter=",", comments=None,
        quotechar='"', skiprows=1, ndmin=1, encoding="utf-8"))[name]


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


def read_header(path) -> list[str]:
    """The fields of the first line of the CSV ``path``, read alone; a first
    line that is not UTF-8 raises a ``ValueError`` naming line 1."""
    with open(path, "r", newline="", encoding="utf-8",
              errors="surrogateescape") as f:
        line = f.readline()
    if error := not_utf8_error(path, [(1, line)]):
        raise error
    try:
        return next(csv.reader([line]), [])
    except csv.Error:   # a field longer than csv's limit
        return [line]


def _parsed(path, header, ranges, parse) -> np.ndarray:
    """The records ``parse()`` reads past the first line of the CSV ``path``,
    which must be ``header``, each field stripped; a rejection, a number
    outside its ``ranges[name]`` included, raises an error naming the file."""
    if [cell.strip() for cell in read_header(path)] != header:
        raise ValueError(f"{path}: expected header {','.join(header)}")
    with warnings.catch_warnings():   # no records is "no samples" below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = parse()
        except ValueError:   # UnicodeDecodeError included
            raise _bad_csv_line(path, header, ranges) from None
    if not rows.size:
        raise ValueError(f"{path}: no samples")
    if not all(((rows[name] >= low) & (rows[name] <= high)).all()
               for name, (low, high, _) in ranges.items()):
        raise _bad_csv_line(path, header, ranges)
    return rows


def csv_records(path, header) -> Iterator[tuple[int, list[str]]]:
    """Yields ``(line number, fields)`` of each non-blank record past the
    header of the CSV ``path``.  A ``ValueError`` naming the file and line
    is raised first for a record csv cannot read, else one not UTF-8, else a
    header not ``header`` once stripped, else on reaching a record whose
    field count is not ``header``'s."""
    with open(path, "r", newline="", encoding="utf-8",
              errors="surrogateescape") as f:
        records = []
        try:
            for row in csv.reader(f):
                records.append(row)
        except csv.Error as exc:   # a field longer than csv's limit
            raise ValueError(f"{path}: line {len(records) + 1}: {exc}") \
                from None
    if error := not_utf8_error(path, ((n, ",".join(row)) for n, row
                                      in enumerate(records, start=1))):
        raise error
    if not records or [cell.strip() for cell in records[0]] != header:
        raise ValueError(f"{path}: expected header {','.join(header)}")
    for lineno, row in enumerate(records[1:], start=2):
        if row:   # a blank line has no fields
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            yield lineno, row


def _bad_csv_line(path, header, ranges) -> ValueError:
    """The error naming the record of the CSV ``path`` that failed to load:
    the first that ``csv_records`` rejects or with a number that does not
    parse, else the first with a number outside its range.  The number
    columns lead, in the order of ``ranges``."""
    outside = None
    try:
        for lineno, row in csv_records(path, header):
            for (name, (low, high, text)), cell in zip(ranges.items(), row):
                value = parse_cell(cell, f"{path}: line {lineno}: ")
                if outside is None and not low <= value <= high:
                    outside = f"line {lineno}: " + (
                        f"non-finite {name} value {value}"
                        if not math.isfinite(value) else
                        f"negative {name} value {value}" if value < 0 <= low
                        else f"{name} value {value} outside {text}")
    except ValueError as exc:
        return exc
    return ValueError(f"{path}: {outside or 'unreadable, no bad line found'}")


def angle_error(q) -> ValueError:
    """The error for six joint angles ``q``, at least one of them outside
    [-``ANGLE_LIMIT``, ``ANGLE_LIMIT``]; it names the first such."""
    name, value = next((name, value) for name, value
                       in zip(CSV_HEADER[1:7], q)
                       if not abs(value) <= ANGLE_LIMIT)
    return ValueError(f"{name} value {value} outside {_ANGLE_RANGE[2]}")


def canonical_json(doc: dict) -> str:
    """Stable byte-for-byte serialisation of every JSON file exobench
    writes: sorted keys, two-space indent, one trailing newline.  A NaN or
    infinite float raises ValueError: JSON has no such number, and
    ``read_json`` rejects one."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, doc: dict) -> None:
    """Write ``doc`` to ``path`` as ``canonical_json`` text."""
    text = canonical_json(doc)   # raises before the file is opened
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


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


def parse_cell(cell: str, where: str = "") -> float:
    """A number cell as ``np.loadtxt`` reads it: ``float()`` of the cell
    stripped of whitespace, where the rest must be ASCII without ``_``; the
    error for any other cell starts with ``where``."""
    text = cell.strip()
    if "_" not in text and text.isascii():
        try:
            return float(text)
        except ValueError:
            pass
    raise ValueError(f"{where}could not convert string to float: {cell!r}")


def not_utf8_error(path, lines) -> ValueError | None:
    """The error naming the first ``(line number, text)`` pair, read with
    ``errors="surrogateescape"``, whose bytes are not UTF-8, or None."""
    for lineno, text in lines:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return ValueError(f"{path}: line {lineno}: not valid UTF-8")
