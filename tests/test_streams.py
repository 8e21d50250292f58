"""SensorStream CSV reading: the accepted dialect, its errors, round trips;
the chunked row writer pinned to the per-row writers it replaced, and its
repr and %.8g formatters pinned to Python; and the frames the control loop
iterates."""

import csv
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exobench import streams
from exobench.biosignal import PhysioSession
from exobench.errors import IncompleteTrainingError
from exobench.segmentation import training_session_builder
from exobench.simulator import (GaitPattern, ReplayResult, generate_cycle,
                                generate_training_protocol)
from exobench.synthdata import synth_physio_session
from exobench.streams import (CSV_HEADER, TIME_LIMIT, VALUES_PER_CHUNK,
                              SensorFrame, SensorStream, _g8_slots,
                              _repr_slots, write_json, write_rows)

HEADER = ",".join(CSV_HEADER)


def _row(k, tag="", t=None):
    """A record whose nine numbers are distinct and derived from ``k``."""
    t = f"{k}.5" if t is None else t
    cells = [t] + [f"{k}.{j}" for j in range(1, 9)] + [tag]
    return ",".join(cells)


def _values(k, t=None):
    return [float(f"{k}.5") if t is None else t] + [float(f"{k}.{j}")
                                                    for j in range(1, 9)]


def _ok(*rows):
    """Expected stream: ``(k, tag)`` or ``(k, tag, t)`` per record."""
    return ("ok", [(_values(r[0], *r[2:]), r[1]) for r in rows])


R1, R2 = _row(1, "a"), _row(2, "b")
TWO_PI = 2 * math.pi

# (file text, expected outcome); errors are the text after "{path}: "
CASES = {
    "crlf": (f"{HEADER}\r\n{R1}\r\n{R2}\r\n", _ok((1, "a"), (2, "b"))),
    "lf": (f"{HEADER}\n{R1}\n{R2}\n", _ok((1, "a"), (2, "b"))),
    "no_final_newline": (f"{HEADER}\r\n{R1}\r\n{R2}",
                         _ok((1, "a"), (2, "b"))),
    "blank_lines_skipped": (f"{HEADER}\r\n\r\n{R1}\r\n\r\n\r\n{R2}\r\n",
                            _ok((1, "a"), (2, "b"))),
    "whitespace_only_line": (f"{HEADER}\r\n{R1}\r\n  \r\n{R2}\r\n",
                             ("err", "line 3: expected 10 fields, got 1")),
    "tab_only_line": (f"{HEADER}\n{R1}\n\t\n",
                      ("err", "line 3: expected 10 fields, got 1")),
    "short_row": (f"{HEADER}\r\n{R1}\r\n1,2,3\r\n",
                  ("err", "line 3: expected 10 fields, got 3")),
    "long_row": (f"{HEADER}\r\n{R1},extra\r\n",
                 ("err", "line 2: expected 10 fields, got 11")),
    "abc_cell": (f"{HEADER}\r\n{R1}\r\n" + _row(2, t="abc") + "\r\n",
                 ("err", "line 3: could not convert string to float: 'abc'")),
    "padded_abc_cell": (f"{HEADER}\r\n" + _row(1, t=" abc\t") + "\r\n",
                        ("err", "line 2: could not convert string to float: "
                                "' abc\\t'")),
    "empty_cell": (f"{HEADER}\r\n" + _row(1, t="") + "\r\n",
                   ("err", "line 2: could not convert string to float: ''")),
    "nan_cell": (f"{HEADER}\r\n{R1}\r\n2.5,2.1,nan,2.3,2.4,2.5,2.6,2.7,2.8,b"
                 "\r\n", ("err", "line 3: non-finite q_rk value nan")),
    "inf_cell": (f"{HEADER}\r\n2.5,2.1,2.2,2.3,2.4,2.5,2.6,inf,2.8,b\r\n",
                 ("err", "line 2: non-finite left_load value inf")),
    "minus_inf_cell": (f"{HEADER}\r\n2.5,2.1,2.2,2.3,2.4,2.5,2.6,2.7,-inf,"
                       "b\r\n",
                       ("err", "line 2: non-finite right_load value -inf")),
    "abc_after_blank_line": (f"{HEADER}\r\n\r\n{R1}\r\n" + _row(2, t="abc")
                             + "\r\n", ("err", "line 4: could not convert "
                                               "string to float: 'abc'")),
    "empty_after_blank_line": (f"{HEADER}\r\n{R1}\r\n\r\n" + _row(2, t="")
                               + "\r\n", ("err", "line 4: could not convert "
                                                 "string to float: ''")),
    "nan_after_blank_line": (f"{HEADER}\r\n{R1}\r\n\r\n" + _row(2, t="nan")
                             + "\r\n", ("err", "line 4: non-finite t value "
                                               "nan")),
    # the first non-finite cell in reading order is the one named
    "two_nonfinite_cells": (f"{HEADER}\r\n1.5,1.1,1.2,inf,1.4,1.5,1.6,1.7,1.8,a"
                            "\r\n" + _row(2, t="nan") + "\r\n",
                            ("err", "line 2: non-finite q_ra value inf")),
    # a cell that does not parse is reported before an earlier nan
    "abc_after_nan": (f"{HEADER}\r\n" + _row(1, t="nan") + "\r\n"
                      + _row(2, t="abc") + "\r\n",
                      ("err", "line 3: could not convert string to float: "
                              "'abc'")),
    # an angle outside [-2pi, 2pi] rad and a negative sole load, named with
    # the line their record starts on
    "angle_out_of_range": (f"{HEADER}\r\n{R1}\r\n2.5,2.1,2.2,2.3,1e308,2.5,2.6,"
                           "2.7,2.8,b\r\n",
                           ("err", "line 3: q_lh value 1e+308 outside "
                                   "[-2pi, 2pi] rad")),
    "negative_angle_out_of_range": (f"{HEADER}\r\n1.5,1.1,1.2,1.3,1.4,1.5,"
                                    "-6.3,1.7,-1.8,a\r\n",
                                    ("err", "line 2: q_la value -6.3 outside "
                                            "[-2pi, 2pi] rad")),
    "negative_load": (f"{HEADER}\r\n{R1}\r\n2.5,2.1,2.2,2.3,2.4,2.5,2.6,"
                      "-5.0,2.8,b\r\n",
                      ("err", "line 3: negative left_load value -5.0")),
    "negative_load_after_quoted_line_break": (
        f"{HEADER}\r\n\r\n" + _row(1, '"x\r\ny"') + "\r\n\r\n"
        "2.5,2.1,2.2,2.3,2.4,2.5,2.6,2.7,-0.5,b\r\n",
        ("err", "line 5: negative right_load value -0.5")),
    "angle_and_load_at_their_limits": (
        f"{HEADER}\r\n1.5,{TWO_PI!r},-{TWO_PI!r},0,-0.0,1,1,0,-0.0,a\r\n",
        ("ok", [([1.5, TWO_PI, -TWO_PI, 0.0, -0.0, 1.0, 1.0, 0.0, -0.0],
                 "a")])),
    "header_only": (f"{HEADER}\r\n", ("err", "no samples")),
    "header_and_blank_lines": (f"{HEADER}\r\n\r\n\r\n", ("err", "no samples")),
    "empty_file": ("", ("err", f"expected header {HEADER}")),
    "bad_header": ("t,q\r\n" + R1 + "\r\n", ("err", f"expected header {HEADER}")),
    "header_padded_with_spaces": (" " + HEADER.replace(",", " , ") + "\r\n"
                                  + R1 + "\r\n", _ok((1, "a"))),
    "quoted_tag_with_comma": (f"{HEADER}\r\n" + _row(1, '"x,y"') + "\r\n",
                              _ok((1, "x,y"))),
    "quoted_tag_with_doubled_quote": (f"{HEADER}\r\n" + _row(1, '"x""y"')
                                      + "\r\n", _ok((1, 'x"y'))),
    "tag_with_hash_and_spaces": (f"{HEADER}\r\n" + _row(1, " x # y ")
                                 + "\r\n", _ok((1, " x # y "))),
    # a quoted line break stays in the tag, and later line numbers count
    # records, not physical lines
    "multi_line_quoted_tag": (f"{HEADER}\r\n" + _row(1, '"x\r\ny"') + "\r\n"
                              + R2 + "\r\n1,2\r\n",
                              ("err", "line 4: expected 10 fields, got 2")),
    "multi_line_quoted_tag_value": (f"{HEADER}\r\n" + _row(1, '"x\r\ny"')
                                    + "\r\n" + R2 + "\r\n",
                                    _ok((1, "x\r\ny"), (2, "b"))),
    "quoted_number": (f"{HEADER}\r\n" + _row(1, "a", t='"0.25"') + "\r\n",
                      _ok((1, "a", 0.25))),
    "hex_number": (f"{HEADER}\r\n" + _row(1, t="0x10") + "\r\n",
                   ("err", "line 2: could not convert string to float: "
                           "'0x10'")),
    # a latin-1 byte (written through surrogateescape) in a tag
    "not_utf8_tag": (f"{HEADER}\r\n{R1}\r\n" + _row(2, "caf\udce9") + "\r\n",
                     ("err", "line 3: not valid UTF-8")),
    # a cell too long for the csv module, which numpy reads as inf
    "overlong_cell": (f"{HEADER}\r\n{R1}\r\n" + _row(2, t="1" * 200_000)
                      + "\r\n", ("err", "line 3: field larger than field "
                                         "limit (131072)")),
    # float() accepts "1_0"; the CSV dialect does not
    "digit_separator": (f"{HEADER}\r\n{R1}\r\n" + _row(2, t="1_0") + "\r\n",
                        ("err", "line 3: could not convert string to float: "
                                "'1_0'")),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_load_csv_outcome(tmp_path, name):
    text, (kind, expected) = CASES[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "err":
            with pytest.raises(ValueError) as info:
                SensorStream.load_csv(path)
            assert str(info.value) == f"{path}: {expected}"
            return
        stream = SensorStream.load_csv(path)
    values = np.column_stack([stream.t, stream.q, stream.left_load,
                              stream.right_load])
    assert values.tolist() == [v for v, _ in expected]
    assert list(stream.stage) == [tag for _, tag in expected]


_TAG = st.text(st.characters(blacklist_categories=("Cs",))
               | st.sampled_from(',"# \r\n'), max_size=8)
_TIME = st.floats(-TIME_LIMIT, TIME_LIMIT)
_ANGLE = st.floats(-TWO_PI, TWO_PI)
_LOAD = st.floats(0.0, allow_infinity=False)   # -0.0 included
_VALUES = st.tuples(_TIME, *[_ANGLE] * 6, _LOAD, _LOAD)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_VALUES, _TAG), min_size=1, max_size=12))
def test_save_load_round_trip_is_bit_identical(tmp_path_factory, rows):
    values = np.array([v for v, _ in rows])
    stream = SensorStream(t=values[:, 0], q=values[:, 1:7],
                          left_load=values[:, 7], right_load=values[:, 8],
                          stage=[tag for _, tag in rows])
    path = tmp_path_factory.mktemp("round_trip") / "stream.csv"
    stream.save_csv(path)
    loaded = SensorStream.load_csv(path)
    for name in ("t", "q", "left_load", "right_load"):
        a, b = getattr(stream, name), getattr(loaded, name)
        assert b.dtype == np.float64 and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes()
    assert list(loaded.stage) == list(stream.stage)


def test_untagged_stream_reads_the_same_before_and_after_csv(tmp_path):
    # a stream built without tags holds the empty tags its CSV form holds,
    # so the training builder sees the same stream on either side
    n = 30
    stream = SensorStream(t=np.arange(n) / 100.0, q=np.zeros((n, 6)),
                          left_load=np.full(n, 400.0), right_load=np.zeros(n))
    path = tmp_path / "untagged.csv"
    stream.save_csv(path)
    loaded = SensorStream.load_csv(path)
    assert list(stream.stage) == list(loaded.stage) == [""] * n
    for s in (stream, loaded):
        with pytest.raises(IncompleteTrainingError) as info:
            training_session_builder(s)
        assert str(info.value) == "training stage missing: left_swing"


SPELLINGS = ["1E5", ".5", "5.", " 1.5 ", "\t-2.25", "+7", "-0", "0e0",
             "1e-400", "4.9e-324", "2.2250738585072009e-308",
             "2.2250738585072014e-308", "1.7976931348623157e308",
             "0.123456789012345678901234567890123456",
             "123456789012345678901234567890.123456",
             "9007199254740993", "0.1000000000000000055511151231257827",
             "\u20031.25\u2003"]


def test_non_repr_spellings_read_as_float_reads_them(tmp_path):
    # each spelling in every column whose range holds its value, "0" in
    # the others: t, six angles, two loads
    limits = ([(-TIME_LIMIT, TIME_LIMIT)] + [(-TWO_PI, TWO_PI)] * 6
              + [(0.0, math.inf)] * 2)
    cells = [[cell if lo <= float(cell) <= hi else "0" for lo, hi in limits]
             for cell in SPELLINGS]
    path = tmp_path / "spellings.csv"
    lines = [HEADER] + [",".join(row + [f"s{k}"])
                        for k, row in enumerate(cells)]
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    stream = SensorStream.load_csv(path)
    expected = np.array([[float(cell) for cell in row] for row in cells])
    got = np.column_stack([stream.t, stream.q, stream.left_load,
                           stream.right_load])
    assert got.tobytes() == expected.tobytes()
    spelled = (np.array(cells) != "0").sum(axis=0).tolist()
    assert spelled == [15] + [13] * 6 + [17] * 2


# digits, signs, separators, ASCII and Unicode whitespace (\x1c is
# whitespace to str.strip but not to float()), non-ASCII digits, words
_CELL = st.lists(st.sampled_from(list("0123456789.eE+-_ xnaift\t\x1c\xa0")
                                 + ["\u2003", "\u0661", "\uff11", "inf",
                                    "nan", "1e400"]),
                 max_size=8).map("".join)


@settings(max_examples=400, deadline=None)
@given(_CELL)
@example("\x1c1.5\x1f")
@example("1_0")
@example("\u00a0-2\u2003")
def test_bad_line_search_reads_cells_as_loadtxt_does(cell):
    # the line search after a failed bulk parse must reject exactly the
    # cells the bulk parse rejects, or it could not name the line
    from exobench.streams import parse_cell

    try:
        bulk = np.loadtxt([cell + ",x"], dtype=[("v", "f8"), ("x", object)],
                          delimiter=",", comments=None, quotechar=None,
                          ndmin=1)["v"][0]
    except ValueError:
        with pytest.raises(ValueError):
            parse_cell(cell)
    else:
        assert np.float64(parse_cell(cell)).tobytes() == bulk.tobytes()


@pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11.5"])
def test_cells_float_accepts_but_the_dialect_rejects(tmp_path, cell):
    float(cell)
    path = tmp_path / "stream.csv"
    path.write_text(f"{HEADER}\n{R1}\n" + _row(2, t=cell) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as info:
        SensorStream.load_csv(path)
    assert str(info.value) == (f"{path}: line 3: could not convert string "
                               f"to float: {cell!r}")


# -- the chunked row writer against the per-row writers it replaced ---------

def _csv_writer_oracle(path, stream):
    """The per-row ``csv.writer`` loop ``SensorStream.save_csv`` ran before
    rows were written a chunk at a time."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for i in range(len(stream)):
            row = [repr(float(stream.t[i]))]
            row += [repr(float(v)) for v in stream.q[i]]
            row += [repr(float(stream.left_load[i])),
                    repr(float(stream.right_load[i]))]
            row.append(str(stream.stage[i]))
            writer.writerow(row)


def _savetxt_oracle(directory, session):
    """The ``np.savetxt`` call ``PhysioSession.save`` made per channel."""
    for attr, file, header, fmt in _PHYSIO_FILES:
        data = getattr(session, attr)
        if data is not None:
            np.savetxt(directory / file, data, fmt=fmt, header=header,
                       comments="")


def _command_log_oracle(path, result):
    """The per-row ``repr`` loop ``ReplayResult.save_csv`` ran."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("t,raw_phase,gamma_l,tau_rh,tau_rk,tau_ra,tau_lh,tau_lk,"
                "tau_la,step_time_us\n")
        for i in range(result.t.size):
            row = (result.t[i], result.raw_phase[i], result.gamma_l[i],
                   *result.tau[i], result.step_us[i])
            f.write(",".join(repr(float(v)) for v in row) + "\n")


_PHYSIO_FILES = (("ecg", "ecg.csv", "ecg_mv", "%.8g"),
                 ("beat_intervals_ms", "beat_intervals.csv", "interval_ms",
                  "%.12g"),
                 ("respiration", "respiration.csv", "respiration_au", "%.8g"),
                 ("breath_times", "breath_times.csv", "breath_t_s", "%.12g"),
                 ("gsr", "gsr.csv", "gsr_us", "%.8g"))


def _lengths(width):
    """Row counts of a file of ``width`` number columns: the empty and
    one-row files, the writer's rows per chunk and one row either side,
    and several chunks."""
    rows = VALUES_PER_CHUNK // width
    return st.sampled_from([0, 1, rows - 1, rows, rows + 1, 3 * rows + 7])


# tags csv.writer has to quote, and ones it must not
_WRITER_TAG = st.text(st.characters(blacklist_categories=("Cs",))
                      | st.sampled_from(',"\r\n '), max_size=6)


# the decimal exponents of a wide draw, and of a waveform's magnitudes
_WIDE, _WAVEFORM = (-300, 300), (-5, 3)


def _column_maker(seed, specials, exponents=_WIDE):
    """Columns of ``n`` floats, a normal draw times 10**e for ``e`` drawn
    in ``exponents``, seeded, with the ``specials`` (NaN, inf, -0.0,
    subnormals, ...) spread over them."""
    rng = np.random.default_rng(seed)

    def column(n):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(*exponents, n)
        if n:
            values[rng.integers(0, n, len(specials))] = specials
        return values
    return column


def _same_bytes(a, b):
    assert a.read_bytes() == b.read_bytes()


@settings(max_examples=25, deadline=None)
@given(_lengths(9), st.integers(0, 2**32 - 1),
       st.lists(st.floats(), max_size=4),
       st.none() | st.lists(_WRITER_TAG, min_size=1, max_size=5))
@example(2, 0, [], ["", " ", "a,b", 'say "hi"', "x\r\ny"])
def test_stream_writer_matches_the_csv_writer_loop(tmp_path_factory, n, seed,
                                                   specials, tags):
    column = _column_maker(seed, specials)
    stage = None
    if tags is not None:
        stage = np.array(tags, dtype=object)[
            np.random.default_rng(seed).integers(0, len(tags), n)]
    stream = SensorStream(t=column(n), q=np.column_stack(
        [column(n) for _ in range(6)]), left_load=column(n),
        right_load=column(n), stage=stage)
    _check_stream_writer(tmp_path_factory.mktemp("stream_writer"), stream)


def _check_stream_writer(directory, stream):
    stream.save_csv(directory / "new.csv")
    _csv_writer_oracle(directory / "old.csv", stream)
    _same_bytes(directory / "new.csv", directory / "old.csv")


# the streams exobench writes: a 5 kHz gait cycle and a training protocol,
# each longer than one chunk of the writer
_GENERATED_STREAMS = {
    "gait_5khz": lambda: generate_cycle(GaitPattern(), rate=5000, cycles=1,
                                        seed=3),
    "training": lambda: generate_training_protocol(seed=4)}


@pytest.mark.parametrize("name", _GENERATED_STREAMS)
def test_stream_writer_matches_the_csv_writer_loop_on_generated_streams(
        tmp_path, name):
    stream = _GENERATED_STREAMS[name]()
    assert len(stream) > VALUES_PER_CHUNK // 9
    _check_stream_writer(tmp_path, stream)


@settings(max_examples=40, deadline=None)
@given(_lengths(1), st.integers(0, 2**32 - 1),
       st.lists(st.floats(), max_size=4), st.sampled_from([_WIDE, _WAVEFORM]))
@example(VALUES_PER_CHUNK + 1, 0, [0.0, -0.0, math.nan, 5e-324], _WAVEFORM)
def test_physio_writer_matches_savetxt(tmp_path_factory, n, seed, specials,
                                      exponents):
    """A wide draw, which ``%.8g`` writes mostly in exponent form, and a
    waveform-scale one, which the numpy formatter writes."""
    column = _column_maker(seed, specials, exponents)
    markers = {"sit": [0.0, 1.0], "sit_exo": [1.0, 2.0], "walk": [2.0, 3.0]}
    session = PhysioSession(
        markers=markers, ecg=column(n), beat_intervals_ms=column(n),
        respiration=column(n), breath_times=column(n), gsr=column(n))
    directory = tmp_path_factory.mktemp("physio_writer")
    session.save(directory / "new")
    (directory / "old").mkdir()
    _savetxt_oracle(directory / "old", session)
    for _, file, _, _ in _PHYSIO_FILES:
        _same_bytes(directory / "new" / file, directory / "old" / file)


@settings(max_examples=25, deadline=None)
@given(_lengths(10), st.integers(0, 2**32 - 1),
       st.lists(st.floats(), max_size=4))
def test_command_log_writer_matches_the_repr_loop(tmp_path_factory, n, seed,
                                                  specials):
    column = _column_maker(seed, specials)
    result = ReplayResult(
        t=column(n), raw_phase=column(n), gamma_l=column(n),
        tau=np.column_stack([column(n) for _ in range(6)]),
        degraded=np.zeros(n, bool), dropped_frames=0, step_us=column(n),
        period_us=200.0)
    _check_command_log_writer(
        tmp_path_factory.mktemp("command_log_writer"), result)


def _check_command_log_writer(directory, result):
    result.save_csv(directory / "new.csv")
    _command_log_oracle(directory / "old.csv", result)
    _same_bytes(directory / "new.csv", directory / "old.csv")


def test_command_log_writer_matches_the_repr_loop_on_gait_sized_commands(
        tmp_path):
    """A 5 kHz log of several chunks: zero torque in the warm-up, torques
    of tens of Nm, a blend weight often exactly 0 or 1."""
    rng = np.random.default_rng(5)
    n = 3 * (VALUES_PER_CHUNK // 10) + 1000
    t = np.arange(n) / 5000
    tau = rng.normal(0.0, 30.0, (n, 6))
    tau[:250] = 0.0
    result = ReplayResult(
        t=t, raw_phase=t / 1.1 % 1.0,
        gamma_l=np.clip(rng.normal(0.5, 0.6, n), 0.0, 1.0), tau=tau,
        degraded=np.zeros(n, bool), dropped_frames=0,
        step_us=rng.uniform(4.0, 40.0, n), period_us=200.0)
    _check_command_log_writer(tmp_path, result)


def _percent_rows(header, row_fmt, *columns):
    """The bytes of ``header`` and a Python ``%`` of ``row_fmt`` per row."""
    return (header + "".join(row_fmt % row for row in zip(
        *(c.tolist() for c in columns)))).encode("utf-8")


def test_writer_formats_a_mixed_row_format_with_python(tmp_path):
    """A ``%r`` and a ``%.8g`` column in one row take Python's ``%``."""
    column = _column_maker(6, [0.0, -0.0, math.nan, math.inf, 5e-324],
                           _WAVEFORM)
    n = 3 * (VALUES_PER_CHUNK // 2) + 5
    x, y = column(n), column(n)
    write_rows(tmp_path / "mixed.csv", "x,y\n", [x, y], "%r,%.8g\n")
    assert (tmp_path / "mixed.csv").read_bytes() == _percent_rows(
        "x,y\n", "%r,%.8g\n", x, y)


def test_writer_keeps_the_nul_bytes_of_a_literal_and_of_a_tag(tmp_path):
    """The numpy path drops the NUL padding of its slots and of its tag
    field, and writes every NUL that a literal or a tag holds."""
    rng = np.random.default_rng(8)
    column = _column_maker(8, [0.0, -0.0, math.nan])
    n = VALUES_PER_CHUNK // 2 + 3
    x, y = column(n), column(n)
    write_rows(tmp_path / "literal.csv", "x\0y\n", [x, y], "%r\0,%r\n")
    assert (tmp_path / "literal.csv").read_bytes() == _percent_rows(
        "x\0y\n", "%r\0,%r\n", x, y)
    n = VALUES_PER_CHUNK // 9 + 3
    stream = SensorStream(
        t=column(n), q=np.column_stack([column(n) for _ in range(6)]),
        left_load=column(n), right_load=column(n),
        stage=np.array(["a\0b", "\0", "", "x,\0", "\0\0"], object)[
            rng.integers(0, 5, n)])
    if sys.version_info < (3, 11):   # csv.writer writes no NUL before 3.11
        with pytest.raises(csv.Error):
            stream.save_csv(tmp_path / "stream.csv")
    else:
        _check_stream_writer(tmp_path, stream)


# the repr formatter: its domain is 1e-4 <= |x| < 1e16, and zeros
_DOMAIN = (st.floats(1e-4, 1e16, exclude_max=True)
           | st.floats(-1e16, -1e-4, exclude_min=True))
_POWERS_OF_TWO = [2.0 ** e for e in range(-14, 55)]
# x exactly halfway between two 17-digit decimals (the last needs only 16
# digits), then between two 16-digit ones: repr takes the even one
_TIES = [1e15 + 0.25, 1e15 + 0.75, 2.0 ** 50 + 0.5, 5e14 + 0.125,
         758395212507966.25, 879555887485041.75]
_EDGES = [9.999999999999999e15, 1e16, 1e-4, 9.999999999999999e-05,
          0.1 + 0.2, 100.0, 0.0, -0.0, 5e-324, 2.0 ** -1022, math.nan,
          math.inf, -math.inf]


def _formatted(values, slots=_repr_slots):
    """The text ``slots`` (a numpy formatter) makes of each of ``values``."""
    return [row[row != 0].tobytes().decode("ascii")
            for row in slots(np.array(values, dtype=float))]


@settings(max_examples=200, deadline=None)
@given(st.lists(_DOMAIN, min_size=1, max_size=64))
@example(_POWERS_OF_TWO + [-x for x in _POWERS_OF_TWO])
@example(_TIES + [-x for x in _TIES])
@example(_EDGES)
def test_repr_formatter_writes_the_bytes_of_repr(values):
    assert _formatted(values) == [repr(x) for x in values]


def _check_sweep(slots, text, exponents):
    """``slots`` (a numpy formatter) writes ``text`` of each of 10**6
    values, mantissas in [1, 10) at decimal ``exponents`` of either sign."""
    rng = np.random.default_rng(2024)
    n = 10 ** 6
    values = (rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(*exponents, n)
              * rng.choice([-1.0, 1.0], n))
    block = np.vstack([slots(chunk) for chunk
                       in np.array_split(values, n // VALUES_PER_CHUNK)])
    block = np.hstack([block, np.full((n, 1), ord(","), np.uint8)])
    written = block[block != 0].tobytes().decode("ascii").split(",")[:-1]
    assert written == list(map(text, values.tolist())), [
        x for x, out in zip(values.tolist(), written) if out != text(x)][:5]


def test_repr_formatter_matches_repr_over_a_seeded_sweep():
    """Decimal exponents -6..17: the sweep crosses both ends of the
    domain."""
    _check_sweep(_repr_slots, repr, (-6, 18))


def test_repr_formatter_formats_zeros_and_generated_gait_itself(
        monkeypatch):
    """Of a 5 kHz gait cycle, whose loads are often exactly zero, under 1%
    of the values reach ``repr``, and no zero does."""
    reached = []
    monkeypatch.setattr(streams, "repr", lambda x: reached.append(x)
                        or repr(x), raising=False)
    stream = _GENERATED_STREAMS["gait_5khz"]()
    values = np.concatenate([stream.t, stream.q.ravel(), stream.left_load,
                             stream.right_load, [0.0, -0.0]])
    assert _formatted(values) == [repr(x) for x in values.tolist()]
    assert 0.0 not in reached
    assert len(reached) < values.size / 100


# the %.8g formatter: its domain is 1e-4 <= |x| < 1e8
_G8_DOMAIN = (st.floats(1e-4, 1e8, exclude_max=True)
              | st.floats(-1e8, -1e-4, exclude_min=True))
# ends of the domain; roundings up to 0.0001, 1e+08 and 1; exact ties
# between two 8-digit roundings (Python takes the even one); values whose
# scaled product rounds onto such a tie, which Python rounds by the exact
# value (up, up, up, down); and the longest text "%.8g" writes
_G8_EDGES = [1e-4, 9.99999995e-05, 99999999.49, 99999999.5, 99999999.6, 1e8,
             0.999999996, 0.5, 1234567.25, 12345678.5, 1000000.05,
             0.100000005, 0.00100000005, 10000.0075, 0.0, -0.0, 5e-324,
             1e300, math.nan, math.inf, -math.inf, -1.7976931348623157e308]


def _g8(x):
    return "%.8g" % x


@settings(max_examples=200, deadline=None)
@given(st.lists(_G8_DOMAIN, min_size=1, max_size=64))
@example(_G8_EDGES + [-x for x in _G8_EDGES])
def test_g8_formatter_writes_the_bytes_of_percent(values):
    assert _formatted(values, _g8_slots) == list(map(_g8, values))


def test_g8_formatter_matches_percent_over_a_seeded_sweep():
    """Decimal exponents -6..9: the sweep crosses both ends of the
    domain."""
    _check_sweep(_g8_slots, _g8, (-6, 10))


def test_g8_formatter_formats_a_synthetic_session_itself(monkeypatch):
    """Of a synthetic session's ECG, respiration and GSR, under 1% of the
    values reach Python's ``%``."""
    reached = []
    monkeypatch.setattr(streams, "_g8_text",
                        lambda x: reached.append(x) or _g8(x))
    session = synth_physio_session(seed=7)
    values = np.concatenate([session.ecg, session.respiration, session.gsr])
    assert _formatted(values, _g8_slots) == list(map(_g8, values.tolist()))
    assert len(reached) < values.size / 100


@pytest.mark.parametrize("n", [1, 2, 257])
def test_frames_are_float_sensor_frames(n):
    rng = np.random.default_rng(n)
    stream = SensorStream(t=np.cumsum(rng.uniform(1e-4, 1e-3, n)),
                          q=rng.normal(size=(n, 6)), left_load=np.ones(n),
                          right_load=np.zeros(n))
    frames = stream.frames()
    assert iter(frames) is frames   # an iterator, not a list
    frames = list(frames)
    assert len(frames) == len(stream) == n
    for i, frame in enumerate(frames):
        assert type(frame) is SensorFrame
        assert type(frame.t) is float and frame.t == stream.t[i]
        assert type(frame.q) is tuple and len(frame.q) == 6
        assert all(type(x) is float for x in frame.q)
        assert frame.q == tuple(stream.q[i])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_writer_rejects_what_no_json_number_holds(tmp_path, value):
    # read_json rejects NaN and Infinity, so no writer may emit them
    with pytest.raises(ValueError, match="Out of range float values"):
        write_json(tmp_path / "doc.json", {"ok": 1.0, "bad": [value]})
