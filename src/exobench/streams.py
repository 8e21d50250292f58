"""Columnar sensor streams and their CSV form, and the JSON document form.

A stream is the common currency between the gait simulator, the regressor
training pipeline, and the control loop: timestamps, six joint angles, the
two sole loads, and a per-sample stage tag.  A stream built without tags
carries the empty tag on every sample, as its CSV form does.

CSV columns: ``t, q_rh, q_rk, q_ra, q_lh, q_lk, q_la, left_load,
right_load, stage_tag`` (header required, stage_tag may be empty).

The accepted dialect is what ``save_csv`` writes (``csv.writer`` defaults)
through ``write_rows``, the one writer of every numeric CSV exobench makes:
rows of numbers in one conversion and an optional quoted tag, a chunk of
numbers formatted by one numpy call.  ``_repr_slots`` writes ``%r`` with the
bytes of ``repr`` (streams, command logs, beat intervals and breath marks,
which so read back bit for bit), ``_g8_slots`` ``%.8g`` with those of ``%``
(the ECG, respiration and GSR waveforms); Python formats a value outside
their domains, and a near tie.  The dialect also covers the one-column
physiological channel files that ``load_column`` reads, each with its own
header and range, and the questionnaire's
``questionnaire_responses.csv`` and ``questionnaire_preferences.csv``,
whose cells are text (a score is ASCII digits after an optional sign):

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
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError, SchemaError

CSV_HEADER = ["t", "q_rh", "q_rk", "q_ra", "q_lh", "q_lk", "q_la",
              "left_load", "right_load", "stage_tag"]
# one parsed record: nine numbers and the tag as a Python str
_ROW = np.dtype([(name, "f8") for name in CSV_HEADER[:9]]
                + [(CSV_HEADER[9], object)])
# values per write_rows chunk, formatted in one call: a stream writes about
# 10% faster per value than at 4,096, flat from 8,192 to 24,576 and slower
# from 32,768 on, as a chunk's arrays outgrow the L2 cache
VALUES_PER_CHUNK = 16384
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
        write_rows(path, CSV_HEADER, [self.t, *self.q.T, self.left_load,
                                      self.right_load], "%r", end="\r\n",
                   tags=self.stage)

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


def write_rows(path, names, columns, conversion, end="\n", tags=None):
    """Write the header ``names`` joined by commas, then one row per entry
    of the equal-length 1-D ``columns``: each value as ``conversion``
    (``"%r"`` or ``"%.8g"``) of a Python float, the values joined by
    commas, then, given ``tags``, a comma and ``str`` of the row's tag
    quoted as ``csv.writer`` quotes a field; every line ends in ``end``.
    The file is UTF-8 bytes, written one chunk of about
    ``VALUES_PER_CHUNK`` values at a time into a buffer of rows that holds
    the commas and line ends; a row keeps its nonzero bytes and its tag."""
    formatter, slot = _FORMATTERS[conversion]
    columns = [np.asarray(c, dtype=float) for c in columns]
    n, width = columns[0].size, len(columns)
    rows = max(1, min(n, VALUES_PER_CHUNK // width))   # per chunk
    texts, index = [], {}
    if tags is not None:   # each distinct text quoted once, by its index
        tag_of = np.fromiter((index.setdefault(str(tag), len(index))
                              for tag in np.asarray(tags, object).tolist()),
                             np.intp, n)
        for text in index:
            line = io.StringIO()   # text after a field, then "\r\n"
            csv.writer(line).writerow(["", text])
            texts.append(line.getvalue()[1:-2].encode("utf-8"))
    texts = texts or [b""]
    table = np.array(texts)   # NUL-padded to the longest
    fields = [slot] * width + [table.itemsize] * (tags is not None)
    buf = np.tile(np.frombuffer(b",".join(b"\0" * size for size in fields)
                                + end.encode("utf-8"), np.uint8), (rows, 1))
    # a view of the number fields, each followed by its separator
    numbers = buf[:, :width * (slot + 1)].reshape(rows, width, -1)[..., :slot]
    tag = slice(width * (slot + 1), width * (slot + 1) + table.itemsize)
    by_length = (np.arange(table.itemsize)
                 < np.array(list(map(len, texts)))[:, None])
    table = table.view(np.uint8).reshape(by_length.shape)
    with open(path, "wb") as f:
        f.write((",".join(names) + end).encode("utf-8"))
        for start in range(0, n, rows):
            chunk = slice(start, start + rows)
            slots = formatter(np.column_stack(
                [c[chunk] for c in columns]).ravel()).reshape(-1, width, slot)
            numbers[:len(slots)] = slots
            out = buf[:len(slots)]
            keep = out != 0   # the separators hold no NUL
            if tags is not None:   # a tag may hold one
                out[:, tag] = table[tag_of[chunk]]
                keep[:, tag] = by_length[tag_of[chunk]]
            f.write(out[keep])


# -- the numpy formatters -----------------------------------------------------
#
# Each scales |x| by 10**k (exact for k <= 22) into a range of integers,
# rounds it there, and lays out the digits in little-endian 64-bit words,
# trailing zeros as NUL bytes, by a per-k table of shifts and masks.
#
# repr: |x| in [1e-4, 1e16) goes into [1e16, 1e17) as an exact sum hi + lo
# (Dekker's product of Veltkamp halves), hi an even integer.  Rounded to
# 15, 16 and 17 digits by exact comparisons of lo, the shortest rounding
# whose distance to x is below half an ulp of x (scaled) is the repr's
# digits: a 15-digit one once stripped of its trailing zeros, as every
# decimal of 15 or fewer digits reads back unchanged (DBL_DIG).  Two 16-digit
# roundings at one distance go to repr; at 17 digits, np.rint takes the even
# one of two, as repr does.  Below a power of two half an ulp is narrower,
# but each one in the domain has an exact decimal of at most 16 digits,
# which the roundings meet at distance 0.
#
# %.8g: |x| in [1e-4, 1e8) goes into [1e7, 1e8), where %.8g writes no
# exponent.  Below 2**27 every midpoint n + 0.5 is a double, so the rounded
# product lies on the same side of each midpoint as the exact one, or on it:
# np.rint of it is the rounding to 8 digits but for a product on a midpoint.
_P10 = np.array([float(10 ** k) for k in range(23)])
_P10_HI = 134217729.0 * _P10   # 2**27 + 1: Veltkamp's splitter
_P10_HI -= _P10_HI - _P10
_SCALES = np.stack([_P10, _P10_HI, _P10 - _P10_HI])
# k of a value from its biased binary exponent, at most 1 too large (for
# repr; 9 less for %.8g)
_K_GUESS = np.clip(16 - np.floor((np.arange(2048) - 1023) * np.log10(2)),
                   1, 21).astype(np.intp)
# half an ulp of a normal value, by its biased binary exponent
_HALF_ULP = np.ldexp(1.0, np.arange(2048, dtype=np.int32) - 1076)
_TIE_MARGIN = 1e-9   # a distance this near half an ulp goes to repr
# the ASCII of each 4-digit group, then with its trailing zeros as NUL
_GROUPS = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
_DIGITS4 = np.concatenate([
    _GROUPS + 48, np.where(np.cumsum(_GROUPS[:, ::-1], axis=1)[:, ::-1],
                           _GROUPS + 48, 0)]).astype(np.uint8).view(
    "<u4").ravel().astype(np.uint64)
_DIGIT1 = np.array([0, *b"123456789"], np.uint64)
_BYTE, _HALF_WORD, _TOP = np.uint64(8), np.uint64(32), np.uint64(56)


def _layouts(digits: int, ks: range, slot: int, dotted: bool) -> np.ndarray:
    """Per k in ``ks``, the digits after the point of a ``digits``-digit
    value, rows: the byte shift of the digits after the point (bits), 64
    minus it, then the ``slot // 8`` words each of the fixed bytes, of the
    digits before the point and of those after it, byte 0 the sign.  The
    point of a ``dotted`` layout is fixed, followed by at least one digit;
    any other has one more row of words, a point for a digit after it."""
    table = np.zeros((23, 4, slot), np.uint8)
    shift = np.zeros(23, np.uint64)
    for k in ks:
        point = digits - k   # decimal exponent + 1: digits before the point
        fixed, before, after, dot = table[k]
        if point <= 0:   # "0." and -point zeros, then every digit
            shift[k] = 8 * (3 - point)
            fixed[1:3 - point] = list(b"0." + b"0" * -point)
            after[:] = 255
        else:   # the digits, zeros for NULs, the point, the rest
            shift[k] = 16
            fixed[1:point + 1] = ord("0")
            before[1:point + 1] = 255
            after[point + 2:] = 255
            if dotted:
                fixed[point + 1:point + 3] = list(b".0")
            else:
                dot[point + 1] = ord(".")
    words = table[:, :4 - dotted].copy().view("<u8").reshape(23, -1).T
    return np.concatenate([[shift, np.uint64(64) - shift], words])


_REPR_LAYOUTS = _layouts(17, range(1, 21), 24, dotted=True)
_G8_LAYOUTS = _layouts(8, range(12), 16, dotted=False)


def _laid_out(values, k, words, layouts, bad, text) -> np.ndarray:
    """A ``(len(values), 8 * len(words))`` uint8 array: the digit ``words``
    of each value laid out by the ``layouts`` of its ``k`` and signed, or,
    where ``bad``, ``text(value)``, each among NUL bytes."""
    shift, back, *rows = layouts.take(k, axis=1)
    n = len(words)
    fixed, before, after, dots = (rows[i:i + n] for i in range(0, 4 * n, n))
    slots = np.empty((values.size, n), "<u8")
    fraction = np.uint64(0)
    for i, word in enumerate(words):
        # the digits past the sign byte, and past the point or "0.00"
        head, tail = word << _BYTE, word << shift
        if i:   # and what the shifts carry over from the word before
            head = head | words[i - 1] >> _TOP
            tail = tail | words[i - 1] >> back
        tail = tail & after[i]
        slots[:, i] = fixed[i] | head & before[i] | tail
        if dots:
            fraction = fraction | tail
    if dots:   # a point before the digits after it, if any
        slots |= np.column_stack(dots) * (fraction != 0)[:, None]
    slots[:, 0] |= np.signbit(values) * np.uint64(ord("-"))
    slots = slots.view(np.uint8)
    if (fallback := np.flatnonzero(bad)).size:
        slots[fallback] = np.frombuffer(b"".join(
            text(value).encode("ascii").ljust(8 * n, b"\0")
            for value in values[fallback].tolist()), np.uint8).reshape(
            -1, 8 * n)
    return slots


def _repr_slots(values: np.ndarray) -> np.ndarray:
    """A ``(len(values), 24)`` uint8 array: row ``i`` is the ASCII of
    ``repr(float(values[i]))`` among NUL bytes (a NUL for the sign of a
    positive value, then after the text).  Zeros and the values in 1e-4
    <= |x| < 1e16 are formatted in numpy, but for a 16-digit tie and a
    distance within ``_TIE_MARGIN`` of half an ulp (and, as a guard, a
    rounding outside [1e16, 1e17), which no value in the domain makes);
    those and all other values (NaN, +-inf, subnormals) go to ``repr``
    one at a time."""
    a = np.abs(values)
    exponent = a.view(np.int64) >> 52
    k = _K_GUESS[exponent]
    with np.errstate(all="ignore"):   # NaN, inf, 1e300: fall back below
        k -= a * _P10[k] >= 1e17
        scale, scale_hi, scale_lo = _SCALES.take(k, axis=1)
        hi = a * scale
        split = 134217729.0 * a
        a_hi = split - (split - a)
        a_lo = a - a_hi
        lo = (((a_hi * scale_hi - hi) + a_hi * scale_lo + a_lo * scale_hi)
              + a_lo * scale_lo)
        n = hi.astype(np.int64)
    half = scale * _HALF_ULP[exponent]
    r100 = n - n // 100 * 100
    r10 = r100 - r100 // 10 * 10
    f100 = r100.astype(float)
    f10 = r10.astype(float)
    # the nearest multiple of 100 and of 10 to hi + lo, and the distances
    up15 = lo > 50 - f100
    d15 = np.abs(100 * up15 - f100 - lo)
    up16 = (lo > 5 - f10).astype(np.int64) + (lo > 15 - f10) - (lo < -5 - f10)
    d16 = np.abs(10 * up16 - f10 - lo)
    up17 = np.rint(lo)   # half an ulp exceeds 0.5 here; a tie goes even
    inner = half * (1 - _TIE_MARGIN)
    outer = half * (1 + _TIE_MARGIN)
    hit15 = d15 < inner
    hit16 = d16 < inner
    bad = (d15 >= inner) & (d15 <= outer) | ~hit15 & (
        (d16 >= inner) & (d16 <= outer) | hit16 & (d16 == 5))
    with np.errstate(invalid="ignore"):
        n += np.where(hit15, 100 * up15 - r100,
                      np.where(hit16, 10 * up16 - r10, up17.astype(np.int64)))
    bad |= (a < 1e-4) | ~(a < 1e16) | (n < 10 ** 16) | (n >= 10 ** 17)
    zero = a == 0
    bad &= ~zero
    n[bad] = 10 ** 16
    n[zero] = 0   # no digits: "0.0", as k = 16 lays them out
    k[bad | zero] = 16
    # 17 digits: four 4-digit groups, then one; NUL past the last nonzero
    top = n // 10
    last = n - top * 10
    high = top // 10 ** 8
    low = top - high * 10 ** 8
    g0 = high // 10 ** 4
    g2 = low // 10 ** 4
    g1 = high - g0 * 10 ** 4
    g3 = low - g2 * 10 ** 4
    zeros = last == 0   # every digit after the group is a zero
    w2 = _DIGIT1[last]
    w1 = _DIGITS4[g3 + 10000 * zeros] << _HALF_WORD
    zeros &= g3 == 0
    w1 |= _DIGITS4[g2 + 10000 * zeros]
    zeros &= g2 == 0
    w0 = _DIGITS4[g1 + 10000 * zeros] << _HALF_WORD
    zeros &= g1 == 0
    w0 |= _DIGITS4[g0 + 10000 * zeros]
    return _laid_out(values, k, [w0, w1, w2], _REPR_LAYOUTS, bad, repr)


def _g8_slots(values: np.ndarray) -> np.ndarray:
    """A ``(len(values), 16)`` uint8 array: row ``i`` is the ASCII of
    ``"%.8g" % values[i]`` among NUL bytes, as ``_repr_slots`` lays it out.
    The values in 1e-4 <= |x| < 1e8 are formatted in numpy, but for a
    scaled value on a midpoint between two 8-digit roundings and a rounding
    up to 1e8; those and all other values (zeros, NaN, +-inf, subnormals)
    go to ``_g8_text`` one at a time.  The longest such text,
    ``-1.7976931e+308``, fills 15 bytes."""
    a = np.abs(values)
    k = _K_GUESS[a.view(np.int64) >> 52] - 9
    with np.errstate(all="ignore"):   # NaN, inf, 1e300: fall back below
        k -= a * _P10[k] >= 1e8
        scaled = a * _P10[k]
        rounded = np.rint(scaled)
        bad = ~((np.abs(scaled - rounded) < 0.5) & (a >= 1e-4)
                & (a < 1e8) & (rounded < 1e8))
    rounded[bad] = 1e7
    k[bad] = 0
    n = rounded.astype(np.int64)
    high = n // 10 ** 4
    low = n - high * 10 ** 4
    word = (_DIGITS4[low + 10000] << _HALF_WORD
            | _DIGITS4[high + 10000 * (low == 0)])
    return _laid_out(values, k, [word, np.uint64(0)], _G8_LAYOUTS, bad,
                     _g8_text)


_g8_text = "%.8g".__mod__   # the fallback, looked up per call as repr is
# the numpy formatter of each conversion write_rows takes, and the bytes of
# its slot
_FORMATTERS = {"%r": (_repr_slots, 24), "%.8g": (_g8_slots, 16)}


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
