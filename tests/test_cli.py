import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exobench
from exobench import simulator
from exobench.cli import main
from exobench.dynamics import (WARMUP_S, CompensationTables, ExoParams,
                               save_calibration)
from exobench.fuzzy import default_fuzzy_model
from exobench.questionnaire import default_definition
from exobench.report import STAGES
from exobench.segmentation import GaitRegressor
from exobench.streams import SensorStream, read_json
from exobench.synthdata import (synth_physio_session,
                                synth_questionnaire_response,
                                synth_session_set)
from retired import retired_scr_bumps


def _python(*args):
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(exobench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def _rewrite_rows(path, edit):
    """Apply ``edit(k, row)`` to the cells of data row k of a CSV in place."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    for k, row in enumerate(rows[1:]):
        edit(k, row)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def _motionless(k, row):
    """Every angle of a stream row set to 0.3 rad: a stream that never
    moves, whose torque never jumps."""
    row[1:7] = ["0.3"] * 6


def _tiny_step(k, row):
    """The second row of a stream at t = 1e-170 s: a step below the
    estimator's 1e-9 s minimum, once a ZeroDivisionError."""
    if k == 1:
        row[0] = "1e-170"


def _huge_time(k, row):
    """Row 2,000 of a stream at t = 1e300 s: once a step that overflowed
    the estimator's update into a NaN torque command."""
    if k == 2000:
        row[0] = "1e300"


def _make_airborne(path):
    """Zero both sole loads on every row of a stream CSV, keeping its tags."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    for row in rows[1:]:
        row[7] = row[8] = "0.0"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


@pytest.fixture(scope="module")
def calibration(tmp_path_factory):
    path = tmp_path_factory.mktemp("calib") / "calibration.json"
    save_calibration(path, ExoParams(), CompensationTables.default_synthetic())
    return path


@pytest.fixture(scope="module")
def session_set(tmp_path_factory):
    root = tmp_path_factory.mktemp("set") / "sessions"
    synth_session_set(root, subjects=2, seed=11, gait_seconds=3.0,
                      control_rate=1000.0)
    return root


class TestSimAndTrain:
    def test_training_protocol_to_model(self, tmp_path):
        data = tmp_path / "training.csv"
        model = tmp_path / "model.json"
        assert main(["sim", "--kind", "training", "--out", str(data),
                     "--seed", "3"]) == 0
        assert main(["train", str(data), "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        assert doc["rmse"] < 0.15
        assert len(doc["weights"]) == 6

    def test_missing_stage_exits_two(self, tmp_path, capsys):
        data = tmp_path / "training.csv"
        main(["sim", "--kind", "training", "--out", str(data), "--seed", "3"])
        # drop the right-swing stage entirely
        lines = data.read_text().splitlines()
        kept = [lines[0]] + [ln for ln in lines[1:] if "right_swing" not in ln]
        data.write_text("\n".join(kept) + "\n")
        assert main(["train", str(data), "--out",
                     str(tmp_path / "m.json")]) == 2
        assert "right_swing" in capsys.readouterr().err

    def test_all_airborne_training_exits_one_naming_file(self, tmp_path):
        data = tmp_path / "training.csv"
        main(["sim", "--kind", "training", "--out", str(data), "--seed", "3"])
        _make_airborne(data)
        proc = _python("-m", "exobench.cli", "train", str(data), "--out",
                       str(tmp_path / "m.json"))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: {data}: only 0 usable training samples, need more than "
            f"6 (airborne and off-signature swing samples are discarded)\n")
        assert not (tmp_path / "m.json").exists()

    def test_corrupt_csv_exits_one_with_line(self, tmp_path, capsys):
        data = tmp_path / "training.csv"
        main(["sim", "--kind", "training", "--out", str(data), "--seed", "3"])
        lines = data.read_text().splitlines()
        broken = lines[:500] + [lines[500].replace(",", ";", 3)] + lines[501:]
        data.write_text("\n".join(broken) + "\n")
        assert main(["train", str(data), "--out",
                     str(tmp_path / "m.json")]) == 1
        assert "line" in capsys.readouterr().err

    def test_gait_stream_frame_count(self, tmp_path, capsys):
        out = tmp_path / "gait.csv"
        assert main(["sim", "--kind", "gait", "--out", str(out), "--seed",
                     "1", "--seconds", "2.4", "--rate", "500"]) == 0
        n_lines = len(out.read_text().splitlines())
        assert n_lines == 2 * 600 + 1  # two 1.2 s cycles at 500 Hz + header

    @pytest.mark.parametrize("flags, reason", [
        (["--subjects", "0"], "subjects must be at least 1, got 0"),
        (["--subjects", "-2"], "subjects must be at least 1, got -2"),
        (["--seconds", "0"],
         "duration must be positive and finite, got 0.0 s"),
        (["--seconds", "-5"],
         "duration must be positive and finite, got -5.0 s"),
        (["--kind", "gait", "--seconds", "0"],
         "duration must be positive and finite, got 0.0 s"),
        (["--kind", "gait", "--seconds", "-5"],
         "duration must be positive and finite, got -5.0 s"),
        (["--subjects", "2", "--rate", "50"],
         "sample rate must be at least 100 Hz and finite, got 50.0"),
        (["--kind", "gait", "--rate", "nan"],
         "sample rate must be at least 100 Hz and finite, got nan"),
        # an infinite size is rejected before round() would overflow on it,
        # and before a session set starts writing
        (["--kind", "gait", "--seconds", "inf"],
         "duration must be positive and finite, got inf s"),
        (["--kind", "gait", "--rate", "inf"],
         "sample rate must be at least 100 Hz and finite, got inf"),
        (["--kind", "training", "--rate", "inf"],
         "sample rate must be at least 100 Hz and finite, got inf"),
        (["--subjects", "1", "--seconds", "inf"],
         "duration must be positive and finite, got inf s"),
        (["--subjects", "1", "--rate", "inf"],
         "sample rate must be at least 100 Hz and finite, got inf"),
        # a finite size past the frame bound, before any array is allocated
        # or any file of a session set written
        (["--kind", "gait", "--seconds", "1e12"],
         "1e+12 s at 100 Hz is 1e+14 frames; a generated stream holds at "
         "most 5000000"),
        (["--subjects", "1", "--seconds", "1e12"],
         "1e+12 s at 5000 Hz is 5e+15 frames; a generated stream holds at "
         "most 5000000"),
        (["--kind", "training", "--rate", "1e12"],
         "120 s at 1e+12 Hz is 1.2e+14 frames; a generated stream holds at "
         "most 5000000")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unusable_size_exits_one_naming_it(self, tmp_path, capsys, flags,
                                               reason, source):
        out = tmp_path / "new" / "out"
        if source == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({flags[-2][2:]: flags[-1]}))
            flags = flags[:-2] + ["--config", str(config)]
        assert main(["sim", "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.parent.exists()   # nothing written, not even a folder

    @pytest.mark.parametrize("size, reason", [
        ({"control_rate": 50.0}, "sample rate must be at least 100 Hz and "
                                 "finite, got 50.0"),
        ({"control_rate": math.inf}, "sample rate must be at least 100 Hz "
                                     "and finite, got inf"),
        ({"gait_seconds": math.inf}, "duration must be positive and finite, "
                                     "got inf s")],
        ids=["low-rate", "inf-rate", "inf-seconds"])
    def test_session_set_checks_its_sizes_before_writing(self, tmp_path,
                                                         size, reason):
        root = tmp_path / "set"
        with pytest.raises(ValueError, match=f"^{reason}$"):
            synth_session_set(root, subjects=2, seed=1, **size)
        assert not root.exists()

    def test_session_set_honours_rate_and_seconds(self, tmp_path):
        flags = tmp_path / "flags"
        assert main(["sim", "--out", str(flags), "--subjects", "1", "--seed",
                     "1", "--rate", "500", "--seconds", "1.2"]) == 0
        # config values convert like the flags they fill: a number or
        # its text
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rate": 500, "seconds": 1.2,
                                      "subjects": "1", "seed": "1"}))
        keys = tmp_path / "keys"
        assert main(["sim", "--out", str(keys), "--config", str(config)]) == 0
        assert [p.name for p in (keys / "subjects").iterdir()] == ["s01"]
        rel = "subjects/s01/gait_stream.csv"
        assert (keys / rel).read_bytes() == (flags / rel).read_bytes()
        stream = SensorStream.load_csv(flags / rel)
        # one cycle (1.14-1.26 s at the drawn 95-105 steps/min) at 500 Hz,
        # not the default 10 s at 5 kHz
        assert 570 <= len(stream) <= 630
        np.testing.assert_allclose(np.diff(stream.t), 1 / 500, rtol=1e-9)


class TestReplay:
    def test_replay_produces_log_and_report(self, tmp_path, calibration):
        data = tmp_path / "training.csv"
        model = tmp_path / "model.json"
        stream = tmp_path / "stream.csv"
        main(["sim", "--kind", "training", "--out", str(data), "--seed", "5"])
        main(["train", str(data), "--out", str(model)])
        main(["sim", "--kind", "gait", "--out", str(stream), "--seed", "6",
              "--seconds", "2.4", "--rate", "1000"])
        log = tmp_path / "log.csv"
        rep = tmp_path / "replay.json"
        assert main(["replay", str(stream), "--model", str(model),
                     "--calibration", str(calibration), "--out", str(log),
                     "--report", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert doc["commands"] == 2400
        assert doc["timing"]["p50_us"] > 0
        with open(log) as f:
            rows = list(csv.reader(f))
        assert rows[0][:3] == ["t", "raw_phase", "gamma_l"]
        assert len(rows) == 2401

    def test_replay_commands_deterministic(self, tmp_path, calibration):
        data = tmp_path / "training.csv"
        model = tmp_path / "model.json"
        stream = tmp_path / "stream.csv"
        main(["sim", "--kind", "training", "--out", str(data), "--seed", "5"])
        main(["train", str(data), "--out", str(model)])
        main(["sim", "--kind", "gait", "--out", str(stream), "--seed", "6",
              "--seconds", "1.2", "--rate", "1000"])
        logs = []
        for k in range(2):
            log = tmp_path / f"log{k}.csv"
            main(["replay", str(stream), "--model", str(model),
                  "--calibration", str(calibration), "--out", str(log)])
            with open(log) as f:
                rows = [r[:9] for r in csv.reader(f)]  # drop step_time column
            logs.append(rows)
        assert logs[0] == logs[1]

    def test_nan_angle_exits_one_without_traceback(self, tmp_path, calibration):
        data = tmp_path / "training.csv"
        model = tmp_path / "model.json"
        stream = tmp_path / "stream.csv"
        main(["sim", "--kind", "training", "--out", str(data), "--seed", "5"])
        main(["train", str(data), "--out", str(model)])
        main(["sim", "--kind", "gait", "--out", str(stream), "--seed", "6",
              "--seconds", "1.2", "--rate", "200"])
        lines = stream.read_text().splitlines()
        cells = lines[100].split(",")
        cells[2] = "nan"
        lines[100] = ",".join(cells)
        stream.write_text("\n".join(lines) + "\n")
        proc = _python("-m", "exobench.cli", "replay", str(stream),
                       "--model", str(model), "--calibration", str(calibration))
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        # rejected where it enters: the CSV reader names the file and line
        assert f"{stream}: line 101: non-finite q_rk value nan" in proc.stderr

    def test_stream_within_warmup_exits_one_naming_it(self, tmp_path,
                                                      calibration):
        data = tmp_path / "training.csv"
        model = tmp_path / "model.json"
        stream = tmp_path / "stream.csv"
        main(["sim", "--kind", "training", "--out", str(data), "--seed", "5"])
        main(["train", str(data), "--out", str(model)])
        main(["sim", "--kind", "gait", "--out", str(stream), "--seed", "6",
              "--seconds", "1.2", "--rate", "5000"])
        lines = stream.read_text().splitlines()
        stream.write_text("\n".join(lines[:401]) + "\n")   # 400 frames
        proc = _python("-m", "exobench.cli", "replay", str(stream),
                       "--model", str(model), "--calibration", str(calibration))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: {stream}: no settled command pairs to measure: the "
            f"stream spans 0.080 s, and the acceleration estimator gives no "
            f"estimate in its first {WARMUP_S} s\n")

    def test_tiny_step_exits_one_naming_the_stream(self, tmp_path,
                                                  calibration):
        data = tmp_path / "training.csv"
        model = tmp_path / "model.json"
        stream = tmp_path / "stream.csv"
        main(["sim", "--kind", "training", "--out", str(data), "--seed", "5"])
        main(["train", str(data), "--out", str(model)])
        main(["sim", "--kind", "gait", "--out", str(stream), "--seed", "6",
              "--seconds", "1.2", "--rate", "5000"])
        _rewrite_rows(stream, _tiny_step)
        proc = _python("-m", "exobench.cli", "replay", str(stream),
                       "--model", str(model), "--calibration", str(calibration))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: {stream}: time step of 1e-170 s: a step must be at "
            f"least 1e-09 s\n")

    def test_huge_timestamp_exits_one_naming_the_stream(self, tmp_path,
                                                        calibration):
        data = tmp_path / "training.csv"
        model = tmp_path / "model.json"
        stream = tmp_path / "stream.csv"
        main(["sim", "--kind", "training", "--out", str(data), "--seed", "5"])
        main(["train", str(data), "--out", str(model)])
        main(["sim", "--kind", "gait", "--out", str(stream), "--seed", "1",
              "--seconds", "2", "--rate", "5000"])
        _rewrite_rows(stream, _huge_time)
        proc = _python("-m", "exobench.cli", "replay", str(stream),
                       "--model", str(model), "--calibration", str(calibration),
                       "--out", str(tmp_path / "commands.csv"),
                       "--report", str(tmp_path / "replay.json"))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: {stream}: line 2002: t value 1e+300 outside "
            f"[-1e10, 1e10] s\n")

    def test_motionless_stream_reports_no_jump_ratio(self, tmp_path,
                                                     calibration, capsys):
        # the median torque jump is 0: the ratio is null, never Infinity
        data = tmp_path / "training.csv"
        model = tmp_path / "model.json"
        stream = tmp_path / "stream.csv"
        main(["sim", "--kind", "training", "--out", str(data), "--seed", "5"])
        main(["train", str(data), "--out", str(model)])
        main(["sim", "--kind", "gait", "--out", str(stream), "--seed", "6",
              "--seconds", "1.2", "--rate", "1000"])
        _rewrite_rows(stream, _motionless)
        capsys.readouterr()
        rep = tmp_path / "replay.json"
        assert main(["replay", str(stream), "--model", str(model),
                     "--calibration", str(calibration),
                     "--report", str(rep)]) == 0
        assert "max/median torque jump=n/a" in capsys.readouterr().out
        smooth = read_json(rep)["smoothness"]
        assert smooth["median_jump"] == smooth["max_jump"] == 0.0
        assert smooth["jump_ratio"] is None

    def test_replay_summary_counts_overruns(self, tmp_path, calibration,
                                            capsys):
        data = tmp_path / "training.csv"
        model = tmp_path / "model.json"
        stream = tmp_path / "stream.csv"
        main(["sim", "--kind", "training", "--out", str(data), "--seed", "5"])
        main(["train", str(data), "--out", str(model)])
        main(["sim", "--kind", "gait", "--out", str(stream), "--seed", "6",
              "--seconds", "1.2", "--rate", "200"])
        capsys.readouterr()
        rep = tmp_path / "replay.json"
        assert main(["replay", str(stream), "--model", str(model),
                     "--calibration", str(calibration),
                     "--report", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        overruns = doc["timing"]["overruns"]
        assert 0 <= overruns <= doc["timing"]["steps"] == 240
        assert f"{overruns} over the 200 us period" in capsys.readouterr().out

    def test_replay_takes_no_config(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["replay", "stream.csv", "--model", "model.json",
                  "--calibration", "calibration.json", "--config", "x"])
        assert info.value.code == 2
        assert "unrecognized arguments: --config x" in capsys.readouterr().err


def _manifest(**changes):
    doc = {"schema_version": 1, "seed": 0, "subjects": ["s01"],
           "files": {"calibration": "calibration.json",
                     "eq_definition": "eq_definition.json",
                     "responses": "questionnaire_responses.csv",
                     "preferences": "questionnaire_preferences.csv"}}
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


_FILES = _manifest()["files"]


class TestAnalyze:
    @pytest.mark.parametrize("manifest, reason", [
        (_manifest(files={k: v for k, v in _FILES.items()
                          if k != "calibration"}), "calibration"),
        (_manifest(files={k: v for k, v in _FILES.items()
                          if k != "eq_definition"}), "eq_definition"),
        (_manifest(files={k: v for k, v in _FILES.items()
                          if k not in ("eq_definition", "preferences")}),
         "preferences"),
        (_manifest(schema_version=99), "schema_version 99"),
        (_manifest(schema_version=None), "schema_version None"),
        (_manifest(subjects=[]), "non-empty 'subjects'"),
        (_manifest(subjects=None), "non-empty 'subjects'"),
        (_manifest(files=["calibration.json"]), "'files' object"),
        ([1, 2], "JSON object"),
    ])
    def test_bad_set_manifest_exits_one(self, tmp_path, manifest, reason):
        (tmp_path / "set_manifest.json").write_text(json.dumps(manifest))
        proc = _python("-m", "exobench.cli", "analyze", str(tmp_path),
                       "--out", str(tmp_path / "report.json"))
        assert proc.returncode == 1
        assert "error:" in proc.stderr and reason in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_full_report(self, session_set, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", str(session_set), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for section in ("physiology", "psychophysiology", "questionnaire",
                        "controller"):
            assert doc[section]["status"] == "ok"
        assert doc["summary"]["total_invalid_flags"] == 0
        assert (tmp_path / "report.timing.json").exists()
        assert "stages_s" not in out.read_text()
        # canonical round trip: parse and re-serialise byte-identically
        from exobench.streams import canonical_json
        assert canonical_json(json.loads(out.read_text())) == out.read_text()

    def test_sidecar_holds_stage_times(self, session_set, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", str(session_set), "--out", str(out)]) == 0
        timing = json.loads((tmp_path / "report.timing.json").read_text())
        assert set(timing["stages_s"]) == {*STAGES, "report_write"}
        assert all(isinstance(s, float) and s >= 0
                   for s in timing["stages_s"].values())
        assert set(timing["subjects"]) == {"s01", "s02"}

    def test_batch_unlike_the_probe_exits_one_naming_it(
            self, session_set, tmp_path, capsys, monkeypatch):
        batch_torque = simulator.blended_torque_array

        def one_row_off(*args):
            tau = batch_torque(*args)
            tau[100, [2, 4]] += 1.0   # inside the streaming probe's window
            return tau

        monkeypatch.setattr(simulator, "blended_torque_array", one_row_off)
        assert main(["analyze", str(session_set), "--out",
                     str(tmp_path / "report.json")]) == 1
        gait = session_set / "subjects" / "s01" / "gait_stream.csv"
        assert capsys.readouterr().err == (
            f"error: {gait}: batch replay differs from the streaming probe "
            f"at command 100 (t = 0.1 s), first in column tau_ra\n")

    def test_not_a_session_set(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path), "--out",
                     str(tmp_path / "r.json")]) == 1
        assert "set_manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("column, file", [
        ("ecg_mv", "ecg.csv"), ("respiration_au", "respiration.csv"),
        ("gsr_us", "gsr.csv")])
    def test_nan_physio_cell_exits_one_naming_the_line(
            self, session_set, tmp_path, column, file):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / "subjects" / "s01" / "physio" / file
        lines = path.read_text().splitlines()
        lines[99] = "nan"
        path.write_text("\n".join(lines) + "\n")
        proc = _python("-m", "exobench.cli", "analyze", str(root),
                       "--out", str(tmp_path / "report.json"))
        assert proc.returncode == 1
        assert (f"error: {path}: line 100: non-finite {column} value nan"
                in proc.stderr)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("file, edit, reason", [
        # two numbers on every row: a TypeError traceback from the filter
        ("gsr.csv", lambda lines: lines[:1] + [f"{x} {x}" for x in lines[1:]],
         "line 2: could not convert string to float: '{two}'"),
        # a header-only file: a loadtxt warning and an error naming no file
        ("ecg.csv", lambda lines: lines[:1], "no samples"),
        # a wrong header and a comment were read as data
        ("gsr.csv", lambda lines: ["whatever"] + lines[1:],
         "expected header gsr_us"),
        ("gsr.csv", lambda lines: lines[:5] + [lines[5] + " # note"]
         + lines[6:], "line 6: could not convert string to float: "
                      "'{note} # note'"),
        # a value outside its channel's range: an error naming no file, or
        # an overflow warning and a report
        ("gsr.csv", lambda lines: lines[:5] + ["-5.0"] + lines[6:],
         "line 6: negative gsr_us value -5.0"),
        ("ecg.csv", lambda lines: lines[:5] + ["1e300"] + lines[6:],
         "line 6: ecg_mv value 1e+300 outside [-1e12, 1e12] mV"),
        ("respiration.csv", lambda lines: lines[:5] + ["-1e300"] + lines[6:],
         "line 6: respiration_au value -1e+300 outside [-1e12, 1e12] a.u.")],
        ids=["two-numbers", "header-only", "wrong-header", "comment",
             "negative-gsr", "huge-ecg", "huge-respiration"])
    def test_channel_file_outside_the_dialect_exits_one_naming_it(
            self, session_set, tmp_path, capsys, file, edit, reason):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / "subjects" / "s01" / "physio" / file
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", str(root), "--out",
                         str(tmp_path / "report.json")]) == 1
        reason = reason.format(two=f"{lines[1]} {lines[1]}", note=lines[5])
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("size", [100, 2000])
    def test_short_ecg_exits_one_naming_the_physio_directory(
            self, session_set, tmp_path, capsys, size):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        physio = root / "subjects" / "s01" / "physio"
        path = physio / "ecg.csv"
        path.write_bytes(path.read_bytes()[:size])
        assert main(["analyze", str(root), "--out",
                     str(tmp_path / "report.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: {physio}: need at least one second of ECG\n")

    def test_channels_at_their_range_limits_analyze_without_warnings(
            self, session_set, tmp_path):
        # +-1e12 in every unit: the bound refuses no real recording, and
        # the features stay finite
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        physio = root / "subjects" / "s01" / "physio"
        for file, low in (("ecg.csv", "-1e12"), ("respiration.csv", "-1e12"),
                          ("gsr.csv", "0")):
            path = physio / file
            lines = path.read_text().splitlines()
            for k, line in enumerate(lines[1:], start=1):
                lines[k] = "1e12" if k % 7 == 0 else low if k % 7 == 3 else line
            path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        proc = _python("-W", "error", "-m", "exobench.cli", "analyze",
                       str(root), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        physiology = json.loads(out.read_text(),
                                parse_constant=pytest.fail)["physiology"]
        assert physiology["subjects"]["s01"]["windows"]

    @pytest.mark.parametrize("key", ["responses", "preferences"])
    def test_questionnaire_not_utf8_exits_one_naming_the_line(
            self, session_set, tmp_path, key):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / _FILES[key]
        lines = path.read_bytes().split(b"\n")
        lines[5] = lines[5].replace(b",", b"\xe9,", 1)   # a latin-1 byte
        path.write_bytes(b"\n".join(lines))
        proc = _python("-m", "exobench.cli", "analyze", str(root),
                       "--out", str(tmp_path / "report.json"))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {path}: line 6: not valid UTF-8\n"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key, edit, reason", [
        # the preferences cut mid-row, and just before the first row of a
        # factor
        ("preferences", lambda text: text[:text.index(
            "s01,functionality,") + len("s01,functionality,functi")],
         "line 8: expected 5 fields, got 3"),
        ("preferences", lambda text: text[:text.index("s01,functionality,")],
         "no pairwise preferences for factor functionality"),
        ("preferences", lambda text: text.replace(
            "s01,functionality,functionality_sf1,functionality_sf2,",
            "s01,functionality,functionality_sf1,functi,"),
         "unexpected pair (functionality_sf1, functi) for this factor"),
        ("preferences", lambda text: re.sub(
            "^(s01,acceptability,acceptability_sf1,acceptability_sf2,).*$",
            r"\g<1>-0.5", text, flags=re.M),
         "winner '-0.5' is not in pair (acceptability_sf1, "
         "acceptability_sf2)"),
        ("preferences", lambda text: text.replace("\ns02,", "\ns09,"),
         "preferences for unknown subject 's09'"),
        ("preferences", lambda text: re.sub(
            "^(s01,acceptability,acceptability_sf1,acceptability_sf3,.*\n)",
            r"\1\1", text, count=1, flags=re.M),
         "line 4: second comparison of (acceptability_sf1, acceptability_sf3) "
         "for subject 's01', factor 'acceptability'"),
        ("responses", lambda text: text.replace("s01,item_107,", "s01,x,"),
         "missing responses for items: item_107"),
        ("responses", lambda text: re.sub("^(s01,item_001,).*$", r"\g<1>9",
                                          text, flags=re.M),
         "line 2: Likert score out of range [1, 7]: 9"),
        # once named the preferences, which are whole: "preferences for
        # unknown subject 's02'"
        ("responses", lambda text: re.sub("^s02,.*\n", "", text, flags=re.M),
         "no questionnaire response for subject s02")],
        ids=["cut-mid-row", "cut-in-factor", "unexpected-pair", "bad-winner",
             "unknown-subject", "repeated-pair", "missing-item",
             "likert-range", "subject-without-responses"])
    def test_questionnaire_error_names_its_csv(
            self, session_set, tmp_path, capsys, key, edit, reason):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / _FILES[key]
        path.write_text(edit(path.read_text()))
        assert main(["analyze", str(root), "--out",
                     str(tmp_path / "report.json")]) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("key, row, edit, reason", [
        ("responses", "s01,item_001,", lambda line: line + ",5",
         "expected 3 fields, got 4"),
        ("responses", "s01,item_001,", lambda line: line.rsplit(",", 1)[0],
         "expected 3 fields, got 2"),
        ("preferences", "s01,acceptability,", lambda line: line + ",junk",
         "expected 5 fields, got 6"),
        ("preferences", "s01,acceptability,",
         lambda line: line.rsplit(",", 1)[0], "expected 5 fields, got 4")],
        ids=["responses-extra", "responses-short", "preferences-extra",
             "preferences-short"])
    def test_questionnaire_row_with_wrong_field_count_names_its_line(
            self, session_set, tmp_path, capsys, key, row, edit, reason):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / _FILES[key]
        lines = path.read_text().splitlines()
        n = next(i for i, line in enumerate(lines) if line.startswith(row))
        lines[n] = edit(lines[n])
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: line {n + 1}: {reason}"
        assert main(["analyze", str(root), "--out",
                     str(tmp_path / "report.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == f"FAIL {message}\n"

    @pytest.mark.parametrize("key", ["responses", "preferences"])
    def test_questionnaire_field_past_the_csv_limit_names_its_line(
            self, session_set, tmp_path, capsys, key):
        # csv refuses a field longer than 131,072 characters
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / _FILES[key]
        lines = path.read_text().splitlines()
        lines[3] = '"' + "x" * 200_000 + '"' + lines[3][lines[3].index(","):]
        path.write_text("\n".join(lines) + "\n")
        message = (f"{path}: line 4: field larger than field limit "
                   f"(131072)")
        proc = _python("-m", "exobench.cli", "analyze", str(root),
                       "--out", str(tmp_path / "report.json"))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == f"FAIL {message}\n"

    def test_subject_without_questionnaire_names_the_responses(
            self, session_set, tmp_path, capsys):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        for key in ("responses", "preferences"):
            path = root / _FILES[key]
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(line for line in lines
                                    if not line.startswith("s02,")))
        assert main(["analyze", str(root), "--out",
                     str(tmp_path / "report.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: {root / _FILES['responses']}: no questionnaire response "
            f"for subject s02\n")

    def test_padded_questionnaire_headers_pass_analyze_and_validate(
            self, session_set, tmp_path, capsys):
        # every loader strips each header field, the questionnaire's too
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        paths = [root / _FILES[key] for key in ("responses", "preferences")]
        for path in paths:
            header, rest = path.read_text().split("\n", 1)
            path.write_text(" " + " , ".join(header.split(",")) + " \n"
                            + rest)
        reports = [tmp_path / "report.json", tmp_path / "plain.json"]
        assert main(["analyze", str(root), "--out", str(reports[0])]) == 0
        assert main(["analyze", str(session_set), "--out",
                     str(reports[1])]) == 0
        padded, plain = (json.loads(path.read_text())["questionnaire"]
                         for path in reports)
        assert padded["status"] == "ok"
        assert padded == plain
        capsys.readouterr()
        assert main(["validate", *map(str, paths)]) == 0
        assert capsys.readouterr().out == (
            f"ok   {paths[0]} (responses)\nok   {paths[1]} (preferences)\n")

    def test_gait_stream_within_warmup_exits_one_naming_it(
            self, session_set, tmp_path):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / "subjects" / "s01" / "gait_stream.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:81]) + "\n")   # 80 frames at 1 kHz
        proc = _python("-m", "exobench.cli", "analyze", str(root),
                       "--out", str(tmp_path / "report.json"))
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            f"error: {path}: no settled command pairs to measure")
        assert f"first {WARMUP_S} s" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_tiny_step_in_gait_stream_exits_one_naming_it(
            self, session_set, tmp_path):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / "subjects" / "s02" / "gait_stream.csv"
        _rewrite_rows(path, _tiny_step)
        proc = _python("-m", "exobench.cli", "analyze", str(root),
                       "--out", str(tmp_path / "report.json"))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: {path}: time step of 1e-170 s: a step must be at "
            f"least 1e-09 s\n")

    def test_huge_timestamp_in_gait_stream_exits_one_naming_it(
            self, session_set, tmp_path):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / "subjects" / "s01" / "gait_stream.csv"
        _rewrite_rows(path, _huge_time)
        proc = _python("-m", "exobench.cli", "analyze", str(root),
                       "--out", str(tmp_path / "report.json"))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: {path}: line 2002: t value 1e+300 outside "
            f"[-1e10, 1e10] s\n")

    def test_motionless_gait_stream_writes_readable_json(
            self, session_set, tmp_path):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        _rewrite_rows(root / "subjects" / "s01" / "gait_stream.csv",
                      _motionless)
        out = tmp_path / "report.json"
        assert main(["analyze", str(root), "--out", str(out)]) == 0
        ctrl = read_json(out)["controller"]["subjects"]
        assert ctrl["s01"]["smoothness"]["jump_ratio"] is None
        assert ctrl["s02"]["smoothness"]["jump_ratio"] > 0.0
        read_json(tmp_path / "report.timing.json")

    def test_all_airborne_training_exits_one_naming_it(
            self, session_set, tmp_path):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / "subjects" / "s02" / "training.csv"
        _make_airborne(path)
        proc = _python("-m", "exobench.cli", "analyze", str(root),
                       "--out", str(tmp_path / "report.json"))
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            f"error: {path}: only 0 usable training samples")
        assert "Traceback" not in proc.stderr

    def test_missing_training_stage_exits_two_naming_it(
            self, session_set, tmp_path, capsys):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / "subjects" / "s01" / "training.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line for line in lines
                                   if "right_swing" not in line) + "\n")
        assert main(["analyze", str(root), "--out",
                     str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: training stage missing: right_swing\n")

    def test_controller_reports_torque_magnitude(self, tmp_path):
        # 5 kHz angles at the default noise: the estimator must keep the
        # commands at the size of the joint torques of walking
        root = tmp_path / "set"
        synth_session_set(root, subjects=1, seed=2024, gait_seconds=2.4,
                          control_rate=5000.0)
        out = tmp_path / "report.json"
        assert main(["analyze", str(root), "--out", str(out)]) == 0
        ctrl = json.loads(out.read_text())["controller"]["subjects"]["s01"]
        assert math.isfinite(ctrl["max_abs_tau"])
        assert math.isfinite(ctrl["rms_tau"])
        assert 0.0 < ctrl["rms_tau"] <= ctrl["max_abs_tau"] < 2000.0

    def test_missing_gsr_degrades_but_completes(self, tmp_path):
        root = tmp_path / "set"
        synth_session_set(root, subjects=1, seed=21, gait_seconds=1.2,
                          control_rate=500.0)
        # strip the GSR channel from the subject's recording
        physio = root / "subjects" / "s01" / "physio"
        manifest = json.loads((physio / "manifest.json").read_text())
        del manifest["channels"]["gsr"]
        (physio / "manifest.json").write_text(json.dumps(manifest))
        (physio / "gsr.csv").unlink()
        out = tmp_path / "report.json"
        assert main(["analyze", str(root), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        subject = doc["psychophysiology"]["subjects"]["s01"]
        assert subject["invalid_inputs"] > 0
        assert any("attention" in s["degraded"] for s in subject["scores"])
        assert doc["summary"]["total_invalid_flags"] > 0

    def test_off_protocol_durations_need_lenient(self, tmp_path):
        root = tmp_path / "set"
        synth_session_set(root, subjects=1, seed=22, gait_seconds=1.2,
                          control_rate=500.0)
        physio = root / "subjects" / "s01" / "physio"
        manifest = json.loads((physio / "manifest.json").read_text())
        # claim a 200 s seated baseline: outside the +-5% protocol window
        manifest["markers"]["sit"] = [0.0, 200.0]
        manifest["markers"]["sit_exo"] = [200.0, 420.0]
        (physio / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "report.json"
        assert main(["analyze", str(root), "--out", str(out)]) == 1
        assert main(["analyze", str(root), "--out", str(out),
                     "--lenient"]) == 0

    def test_set_without_questionnaire_marks_section_skipped(self, tmp_path):
        root = tmp_path / "set"
        synth_session_set(root, subjects=1, seed=23, gait_seconds=1.2,
                          control_rate=500.0)
        manifest = json.loads((root / "set_manifest.json").read_text())
        del manifest["files"]["responses"]
        del manifest["files"]["preferences"]
        (root / "set_manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "report.json"
        assert main(["analyze", str(root), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["questionnaire"]["status"] == "skipped"
        assert "reason" in doc["questionnaire"]


def _edit(*keys, value=None):
    """A mutation of a JSON document: drop the value at the end of the key
    path ``keys``, or set it to ``value``."""
    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        if value is None:
            del doc[keys[-1]]
        else:
            doc[keys[-1]] = value
    return mutate


# every JSON document a command reads: the file, a required key path, and a
# value of the wrong type; the first five are read by analyze
_DOCUMENTS = {
    "set-manifest": ("set_manifest.json", _edit("subjects"),
                     _edit("files", value=["calibration.json"])),
    "fuzzy-model": ("fuzzy_model.json", _edit("rules"),
                    _edit("inputs", value=["hr"])),
    "calibration": ("calibration.json", _edit("link_parameters"),
                    _edit("friction_tables", value=[])),
    "eq-definition": ("eq_definition.json", _edit("items"),
                      _edit("sub_factors", value=["usability"])),
    "physio-manifest": ("subjects/s01/physio/manifest.json",
                        _edit("channels", "ecg", "file"),
                        _edit("channels", "ecg", "fs", value="250")),
    "gait-model": ("model.json", _edit("weights"), _edit("rmse", value="low")),
    "config": ("config.json", None, _edit("seed", value="x")),
}
_MUTATIONS = ("truncated", "non-object", "dropped-key", "wrong-type",
              "schema_version", "latin-1")
# a config file has no required key and no schema_version
_CASES = [(document, mutation) for document in _DOCUMENTS
          for mutation in _MUTATIONS if document != "config"
          or mutation not in ("dropped-key", "schema_version")]


def _mutated(text: str, mutation: str, drop, retype) -> bytes:
    doc = json.loads(text)
    if mutation == "truncated":
        return text.encode()[:len(text) // 2]
    if mutation == "non-object":
        return b"[]"
    if mutation == "latin-1":   # a byte that is not UTF-8 in the first key
        return text.encode().replace(b'"', b'"\xe9', 1)
    if mutation == "schema_version":
        doc["schema_version"] = 99
    else:
        (drop if mutation == "dropped-key" else retype)(doc)
    return json.dumps(doc).encode()


class TestMalformedJson:
    @pytest.mark.parametrize("document, mutation", _CASES)
    def test_exits_one_naming_the_file(self, session_set, calibration,
                                       tmp_path, capsys, document, mutation):
        rel, drop, retype = _DOCUMENTS[document]
        root = tmp_path / "set"
        # the physio channel files are read after the manifest, never here
        shutil.copytree(session_set, root, ignore=shutil.ignore_patterns(
            "ecg.csv", "respiration.csv", "gsr.csv"))
        path = root / rel
        if document == "gait-model":
            GaitRegressor(weights=np.linspace(-1.0, 1.0, 6), rmse=0.1).save(
                path)
            argv = ["replay", str(root / "stream.csv"), "--model", str(path),
                    "--calibration", str(calibration)]
        elif document == "config":
            path.write_text(json.dumps({"seed": 3, "seconds": 1.2}))
            argv = ["sim", "--kind", "gait", "--out", str(root / "gait.csv"),
                    "--config", str(path)]
        else:
            argv = ["analyze", str(root), "--out", str(tmp_path / "r.json")]
        path.write_bytes(_mutated(path.read_text(), mutation, drop, retype))
        assert main(argv) == 1
        err = capsys.readouterr().err
        # main returned instead of raising, so no Traceback reaches stderr
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["replay", "analyze"])
    @pytest.mark.parametrize("field, value, reason", [
        ("thigh_mass", 1e300, "thigh_mass must be at most 500 kg, got 1e+300"),
        ("gravity", 1e200, "gravity must be at most 100 m/s^2, got 1e+200")])
    def test_huge_link_parameter_exits_one_naming_the_calibration(
            self, session_set, tmp_path, capsys, command, field, value,
            reason):
        # finite but huge, each once let replay exit 0 with commands up to
        # 1.5e301 Nm, and analyze overflow into a RuntimeWarning and an
        # error that named no file
        def edit(doc):
            doc["link_parameters"][field] = value
        path = self._run_on_calibration(session_set, tmp_path, command, edit)
        # main returned instead of raising, so no Traceback reaches stderr
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("command", ["replay", "analyze"])
    @pytest.mark.parametrize("kind, value", [("friction", 1e308),
                                             ("ripple", -1.0001e4)])
    def test_huge_table_value_exits_one_naming_the_calibration(
            self, session_set, tmp_path, capsys, command, kind, value):
        # every friction value at 1e308 once let replay exit 0 with 1e308 Nm
        # commands, and analyze overflow into an error that named no file
        def edit(doc):
            for table in doc[f"{kind}_tables"].values():
                table["values"] = [value] * len(table["values"])
        path = self._run_on_calibration(session_set, tmp_path, command, edit)
        assert capsys.readouterr().err == (
            f"error: {path}: {kind} table RH: value {value!r} outside "
            f"[-1e4, 1e4] Nm\n")

    @staticmethod
    def _run_on_calibration(session_set, tmp_path, command, edit):
        """Run ``command`` (replay or analyze) on a copy of the set whose
        calibration ``edit`` changed, with every warning an error; check
        that it exits 1, and return the calibration's path."""
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / "calibration.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        if command == "replay":
            model = tmp_path / "model.json"
            GaitRegressor(weights=np.linspace(-1.0, 1.0, 6), rmse=0.1).save(
                model)
            stream = root / "subjects" / "s01" / "gait_stream.csv"
            argv = ["replay", str(stream), "--model", str(model),
                    "--calibration", str(path)]
        else:
            argv = ["analyze", str(root), "--out", str(tmp_path / "r.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        return path

    def test_integer_beyond_the_float_range_exits_one(self, calibration,
                                                      tmp_path, capsys):
        doc = json.loads(calibration.read_text())
        doc["link_parameters"]["thigh_length"] = 10**400
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(doc))
        model = tmp_path / "model.json"
        GaitRegressor(weights=np.linspace(-1.0, 1.0, 6), rmse=0.1).save(model)
        stream = tmp_path / "stream.csv"
        assert main(["sim", "--kind", "gait", "--out", str(stream), "--seed",
                     "6", "--seconds", "1.2", "--rate", "200"]) == 0
        capsys.readouterr()
        assert main(["replay", str(stream), "--model", str(model),
                     "--calibration", str(path)]) == 1
        digits = "'100000000000...0000000000000'"   # reprlib's abbreviation
        assert (capsys.readouterr().err
                == f"error: {path}: not a finite float: {digits}\n")

    @pytest.mark.parametrize("edit, reason", [
        (lambda m: m["channels"]["respiration"].update(fs=1e307),
         "channel respiration: fs must be a number in (0, 1e6] Hz, "
         "got 1e+307"),
        (lambda m: m["channels"]["gsr"].update(fs=1e307),
         "channel gsr: fs must be a number in (0, 1e6] Hz, got 1e+307"),
        (lambda m: m.update(markers={"sit": [1e307, 2e307],
                                     "sit_exo": [2e307, 3e307],
                                     "walk": [3e307, 4e307]}),
         "marker sit must be a pair of numbers in [-1e10, 1e10] s, "
         "got (1e+307, 2e+307)")],
        ids=["respiration-rate", "gsr-rate", "markers"])
    def test_huge_rate_or_marker_exits_one_naming_the_manifest(
            self, session_set, tmp_path, capsys, edit, reason):
        # finite values whose window sample index int(t * fs) overflows
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / "subjects" / "s01" / "physio" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        assert main(["analyze", str(root), "--out", str(tmp_path / "r.json"),
                     "--lenient"]) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    def test_lenient_phase_past_the_recording_exits_one_naming_it(
            self, small_set, tmp_path, capsys):
        # a walk to 1e5 s, within the marker bound, would be some 1,600
        # windows of no data
        root = tmp_path / "set"
        shutil.copytree(small_set, root)
        physio = root / "subjects" / "s01" / "physio"
        manifest = json.loads((physio / "manifest.json").read_text())
        manifest["markers"]["walk"][1] = 1e5
        (physio / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(root), "--out", str(tmp_path / "r.json"),
                     "--lenient"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {physio}: phase walk ends at 100000 s, "
                              f"more than 60 s after the recording ends at ")
        assert err.count("\n") == 1


# the CSVs that analyze reads, as paths in a session set, and the mutations
# the test below makes at a drawn byte: a cell's text, a cut, a byte that
# is not UTF-8, or a second number or field in a cell
_MUTATED_CSVS = ("subjects/s01/gait_stream.csv", "subjects/s01/training.csv",
                 "subjects/s01/physio/ecg.csv",
                 "subjects/s01/physio/respiration.csv",
                 "subjects/s01/physio/gsr.csv", "questionnaire_responses.csv",
                 "questionnaire_preferences.csv")
_CELL_TEXT = {"nan": b"nan", "1e300": b"1e300", "-1e300": b"-1e300",
              "1e308": b"1e308", "-1e308": b"-1e308", "negative": b"-0.5",
              "1e-170": b"1e-170"}
_NUMERIC_MUTATIONS = (*_CELL_TEXT, "truncate", "latin-1", "second-number",
                      "second-field")


def _mutate_at(data: bytes, mutation: str, place: int) -> bytes:
    """``data`` with ``mutation`` made at byte ``place``; a cell mutation
    changes the cell holding that byte, or the first cell after the
    header."""
    if mutation == "truncate":
        return data[:place]
    if mutation == "latin-1":
        return data[:place] + b"\xe9" + data[place:]
    place = max(place, data.index(b"\n") + 1)
    start = data.rfind(b"\n", 0, place) + 1
    start = data.rfind(b",", start, place) + 1 or start
    stop = min(i for i in (data.find(b",", place), data.find(b"\r", place),
                           data.find(b"\n", place), len(data)) if i >= 0)
    cell = data[start:stop]
    if mutation == "second-number":
        cell += b" " + cell
    elif mutation == "second-field":
        cell += b"," + cell
    else:
        cell = _CELL_TEXT[mutation]
    return data[:start] + cell + data[stop:]


@pytest.fixture(scope="module")
def small_set(tmp_path_factory):
    root = tmp_path_factory.mktemp("small") / "set"
    assert main(["sim", "--subjects", "1", "--seed", "1", "--seconds", "2",
                 "--out", str(root)]) == 0
    return root


@settings(max_examples=70, deadline=None)
@given(file=st.sampled_from(_MUTATED_CSVS),
       mutation=st.sampled_from(_NUMERIC_MUTATIONS),
       place=st.floats(0.0, 1.0, exclude_max=True))
@example(file="subjects/s01/gait_stream.csv", mutation="1e300",
         place=0.4125839634910778)   # once a NaN command
def test_mutated_numeric_csv_ends_in_a_named_error(small_set, file, mutation,
                                                   place):
    # any input analyze reads ends in a report or in one error line that
    # names the file (or, for a physiology feature, its directory), with
    # no traceback and no warning
    path = small_set / file
    data = path.read_bytes()
    err = io.StringIO()
    try:
        path.write_bytes(_mutate_at(data, mutation, int(place * len(data))))
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(["analyze", str(small_set), "--out",
                         str(small_set.parent / "report.json")])
    finally:
        path.write_bytes(data)
    assert code in (0, 1, 2)
    if code:
        named = {str(path), str(path.parent)} if "physio" in file else {
            str(path)}
        line = err.getvalue()
        assert line.count("\n") == 1 and line.startswith("error: ")
        assert line[len("error: "):].split(": ")[0] in named, line
    else:
        assert not err.getvalue()


class TestValidate:
    def test_valid_files_pass(self, tmp_path, calibration, capsys):
        eq = tmp_path / "eq.json"
        default_definition().save(eq)
        fz = tmp_path / "fuzzy.json"
        fz.write_text(json.dumps(default_fuzzy_model().to_dict()))
        assert main(["validate", str(eq), str(fz), str(calibration)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 3

    def test_eq_with_131_items_fails(self, tmp_path, capsys):
        doc = default_definition().to_dict()
        doc["items"] = doc["items"][:131]
        bad = tmp_path / "eq.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert "expected 132" in capsys.readouterr().out

    def test_fuzzy_coverage_gap_names_variable(self, tmp_path, capsys):
        doc = default_fuzzy_model().to_dict()
        del doc["inputs"]["hr"]["medium"]
        bad = tmp_path / "fuzzy.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert "hr coverage gap" in capsys.readouterr().out

    @pytest.mark.parametrize("line", [1, 7])
    def test_stream_not_utf8_names_the_line(self, tmp_path, capsys, line):
        stream = tmp_path / "stream.csv"
        main(["sim", "--kind", "gait", "--out", str(stream), "--seed", "6",
              "--seconds", "1.2", "--rate", "200"])
        lines = stream.read_bytes().split(b"\n")
        # a latin-1 byte at the end of the header or of a stage tag
        lines[line - 1] = lines[line - 1].replace(b"\r", b"\xe9\r")
        stream.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["validate", str(stream)]) == 1
        assert (capsys.readouterr().out
                == f"FAIL {stream}: line {line}: not valid UTF-8\n")

    def test_stream_header_with_spaces_passes(self, tmp_path, capsys):
        # every loader strips each header field, so validate accepts what
        # the loaders accept
        stream = tmp_path / "stream.csv"
        main(["sim", "--kind", "gait", "--out", str(stream), "--seed", "6",
              "--seconds", "1.2", "--rate", "200"])
        header, rest = stream.read_text().split("\n", 1)
        stream.write_text(", ".join(header.split(",")) + "\n" + rest)
        responses = tmp_path / "responses.csv"
        responses.write_text("subject_id, item_id, score\ns01,1,4\n")
        capsys.readouterr()
        assert main(["validate", str(stream)]) == 0
        assert capsys.readouterr().out == f"ok   {stream} (sensor-stream)\n"
        assert main(["validate", str(responses)]) == 0
        assert capsys.readouterr().out == f"ok   {responses} (responses)\n"

    def test_responses_not_utf8_names_the_line(self, tmp_path, capsys):
        responses = tmp_path / "responses.csv"
        responses.write_bytes(b"subject_id,item_id,score\ns01,1,4\ns01,2,3\xe9\n")
        assert main(["validate", str(responses)]) == 1
        assert (capsys.readouterr().out
                == f"FAIL {responses}: line 3: not valid UTF-8\n")

    def test_kind_is_told_from_the_first_line_alone(self, tmp_path, capsys):
        # the loader a header picks reads the rest; an unknown header is
        # reported before any later byte is read
        other = tmp_path / "other.csv"
        other.write_bytes(b"a,b\n1,2\xe9\n")
        assert main(["validate", str(other)]) == 1
        assert capsys.readouterr().out == (
            f"FAIL {other}: unrecognised CSV header: a,b\n")

    def test_questionnaire_rows_are_read_as_analyze_reads_them(self, tmp_path,
                                                              capsys):
        responses = tmp_path / "responses.csv"
        responses.write_text("subject_id,item_id,score\ns01,1,banana\n")
        prefs = tmp_path / "prefs.csv"
        prefs.write_text("subject_id,factor,sub_a,sub_b,winner\n"
                         "s01,nofactor,a,b,zzz\n")
        assert main(["validate", str(responses), str(prefs)]) == 1
        # factor and winner names are checked against the EQ definition,
        # which scoring reads and a lone preferences file does not name
        assert capsys.readouterr().out == (
            f"FAIL {responses}: line 2: bad score 'banana'\n"
            f"ok   {prefs} (preferences)\n")

    def test_eq_definition_flag_that_is_not_a_boolean_fails(self, tmp_path,
                                                             capsys):
        doc = default_definition().to_dict()
        doc["items"][0]["reversed"] = "false"
        eq = tmp_path / "eq.json"
        eq.write_text(json.dumps(doc))
        assert main(["validate", str(eq)]) == 1
        assert capsys.readouterr().out == (
            f"FAIL {eq}: item item_001: reversed must be true or false, "
            f"got 'false'\n")

    def test_duplicate_responses_row_fails(self, tmp_path, capsys):
        responses = tmp_path / "responses.csv"
        responses.write_text("subject_id,item_id,score\ns1,item_001,2\n"
                             "s1,item_001,6\n")
        assert main(["validate", str(responses)]) == 1
        assert capsys.readouterr().out == (
            f"FAIL {responses}: line 3: second score for subject 's1', "
            f"item 'item_001'\n")

    @pytest.mark.parametrize("score", ["0", "8", " 9 ", "-1"])
    def test_likert_score_out_of_range_fails(self, tmp_path, capsys, score):
        responses = tmp_path / "responses.csv"
        responses.write_text("subject_id,item_id,score\ns1,item_001,1\n"
                             f"s1,item_002,7\ns1,item_003,{score}\n")
        assert main(["validate", str(responses)]) == 1
        assert capsys.readouterr().out == (
            f"FAIL {responses}: line 4: Likert score out of range [1, 7]: "
            f"{int(score)}\n")

    def test_repeated_comparison_row_fails(self, tmp_path, capsys):
        # the same pair for another subject or factor is not a repeat;
        # the same unordered pair is, whichever way round
        prefs = tmp_path / "prefs.csv"
        prefs.write_text("subject_id,factor,sub_a,sub_b,winner\n"
                         "s1,f,a,b,a\ns2,f,a,b,a\ns1,g,a,b,a\ns1,f,b,a,b\n")
        assert main(["validate", str(prefs)]) == 1
        assert capsys.readouterr().out == (
            f"FAIL {prefs}: line 5: second comparison of (b, a) for subject "
            f"'s1', factor 'f'\n")

    @pytest.mark.parametrize("header, kind, reason", [
        ("ecg_mv", "ecg", "ecg_mv value -2000000000000.0 outside "
                          "[-1e12, 1e12] mV"),
        ("interval_ms", "beats", "negative interval_ms value -2000000000000.0"),
        ("respiration_au", "respiration", "respiration_au value "
                                          "-2000000000000.0 outside "
                                          "[-1e12, 1e12] a.u."),
        ("breath_t_s", "breath_times", "breath_t_s value -2000000000000.0 "
                                       "outside [-1e10, 1e10] s"),
        ("gsr_us", "gsr", "negative gsr_us value -2000000000000.0")])
    def test_physio_channel_file_is_loaded_with_its_range(
            self, tmp_path, capsys, header, kind, reason):
        good = tmp_path / "good.csv"
        good.write_text(f" {header} \n1.5\n2.5\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n1.5\n\n-2e12\n")
        assert main(["validate", str(good), str(bad)]) == 1
        assert capsys.readouterr().out == (
            f"ok   {good} ({kind}-channel)\nFAIL {bad}: line 4: {reason}\n")

    def test_generated_questionnaire_files_pass(self, session_set, capsys):
        files = [session_set / "questionnaire_responses.csv",
                 session_set / "questionnaire_preferences.csv"]
        assert main(["validate", *map(str, files)]) == 0
        assert capsys.readouterr().out == (
            f"ok   {files[0]} (responses)\nok   {files[1]} (preferences)\n")


class TestNonFiniteInput:
    @pytest.mark.parametrize("column, cell, reason", [
        (7, "nan", "non-finite left_load value nan"),
        (7, "inf", "non-finite left_load value inf"),
        (7, "-inf", "non-finite left_load value -inf"),
        (7, "-5.0", "negative left_load value -5.0"),
        (4, "1e308", "q_lh value 1e+308 outside [-2pi, 2pi] rad")])
    def test_validate_fails_a_stream_with_a_bad_cell(self, tmp_path, capsys,
                                                     column, cell, reason):
        stream = tmp_path / "stream.csv"
        main(["sim", "--kind", "gait", "--out", str(stream), "--seed", "6",
              "--seconds", "1.2", "--rate", "200"])
        lines = stream.read_text().splitlines()
        cells = lines[40].split(",")
        cells[column] = cell
        lines[40] = ",".join(cells)
        stream.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["validate", str(stream)]) == 1
        assert capsys.readouterr().out == (
            f"FAIL {stream}: line 41: {reason}\n")


class TestImport:
    def test_package_import_leaves_scipy_submodules_unloaded(self):
        code = ("import sys, exobench; print(sorted(m for m in ('scipy.signal',"
                " 'scipy.interpolate', 'scipy.linalg') if m in sys.modules))")
        proc = _python("-c", code)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[]"

    def test_analyze_loads_no_scipy_module(self, session_set, tmp_path):
        out = tmp_path / "report.json"
        code = ("import sys; from exobench.cli import main; "
                f"rc = main(['analyze', {str(session_set)!r}, '--out', "
                f"{str(out)!r}]); print(rc, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"
        assert json.loads(out.read_text())["physiology"]["subjects"]


class TestConfigFallback:
    def test_env_config_supplies_seed(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 9}))
        monkeypatch.setenv("EXOBENCH_CONFIG", str(config))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["sim", "--kind", "gait", "--out", str(out_a), "--seconds",
              "1.2", "--rate", "200"])
        main(["sim", "--kind", "gait", "--out", str(out_b), "--seconds",
              "1.2", "--rate", "200"])
        assert out_a.read_text() == out_b.read_text()
        # explicit flag wins over the config file
        out_c = tmp_path / "c.csv"
        main(["sim", "--kind", "gait", "--out", str(out_c), "--seed", "10",
              "--seconds", "1.2", "--rate", "200"])
        assert out_c.read_text() != out_a.read_text()

    @pytest.mark.parametrize("key, value, kind", [
        ("seed", "x", "int"), ("seed", 1.5, "int"), ("seed", True, "int"),
        ("subjects", [2], "int"), ("rate", "fast", "float"),
        ("seconds", None, "float")])
    def test_bad_value_exits_one_naming_file_and_key(self, tmp_path, capsys,
                                                     key, value, kind):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        assert main(["sim", "--out", str(tmp_path / "set"), "--config",
                     str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: {key}: invalid {kind} value {value!r}\n")

    @pytest.mark.parametrize("value", ["false", "true", 0, None])
    def test_lenient_takes_only_a_json_boolean(self, tmp_path, capsys, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lenient": value}))
        assert main(["analyze", str(tmp_path / "set"), "--out",
                     str(tmp_path / "report.json"), "--config",
                     str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: lenient: invalid bool value {value!r}\n")

    @pytest.mark.parametrize("value", [True, False])
    def test_lenient_from_config(self, session_set, tmp_path, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lenient": value}))
        out = tmp_path / "report.json"
        assert main(["analyze", str(session_set), "--out", str(out),
                     "--config", str(config)]) == 0
        assert json.loads(out.read_text())["meta"]["lenient"] is value


class TestSynthData:
    def test_physio_session_passes_protocol_check(self):
        session = synth_physio_session(seed=1)
        session.validate_protocol()

    def test_questionnaire_response_scores_cleanly(self):
        from exobench.questionnaire import score_session
        definition = default_definition()
        resp = synth_questionnaire_response(definition, seed=2, subject_id="x")
        report = score_session(resp, definition)
        assert report.consistency_pct > 80.0
        for fs in report.factor_scores.values():
            assert 1.0 <= fs <= 7.0

    @pytest.mark.parametrize("seed", range(5))
    def test_scr_bumps_match_the_full_length_sum_bit_for_bit(self, seed):
        # each bump starts at its onset; before it the full-length sum added
        # +0.0, which leaves every sample as it was
        from exobench.synthdata import SCR_DECAY_S, SCR_RISE_S, _scr_bumps
        rng = np.random.default_rng(seed)
        t = np.arange(20_700) / 10.0
        onsets = [*np.sort(rng.uniform(0.0, t[-1], 140)), t[100], t[-1]]
        amps = rng.uniform(0.1, 0.25, len(onsets))
        expected = np.zeros_like(t)
        for onset, amp in zip(onsets, amps):
            dt = np.maximum(t - onset, 0.0)
            expected += amp * np.where(
                t > onset, (1 - np.exp(-dt / SCR_RISE_S))
                * np.exp(-dt / SCR_DECAY_S), 0.0)
        assert _scr_bumps(t, onsets, amps).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("beats", [
        # overlapping windows: beats 2 to 30 samples apart
        np.cumsum(np.r_[0.35, np.repeat([0.008, 0.02, 0.12], 5)]),
        # windows clipped at both ends of the 60 s recording
        np.array([0.0, 0.01, 0.059, 1.0, 59.95, 59.99, 59.999]),
        # a subject at about 75 beats per minute, jittered
        0.35 + np.cumsum(np.random.default_rng(3).normal(0.8, 0.03, 74))])
    def test_beat_stamping_matches_the_beat_loop_bit_for_bit(self, beats):
        from exobench.synthdata import _stamp_beats
        fs, half, width = 250.0, 15, 0.012
        ecg = np.random.default_rng(4).normal(scale=0.02, size=int(60 * fs))
        expected = ecg.copy()
        t = np.arange(ecg.size) / fs
        for bt in beats:   # the per-beat loop synth_physio_session ran
            c = int(bt * fs)
            lo, hi = max(0, c - half), min(ecg.size, c + half + 1)
            expected[lo:hi] += np.exp(-0.5 * ((t[lo:hi] - bt) / width) ** 2)
        _stamp_beats(ecg, beats, fs, half, width)
        assert ecg.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(fs=st.floats(1.0, 250.0), n=st.integers(1, 20_000),
           t0=st.just(0.0) | st.floats(-1e3, 1e3),
           draws=st.lists(st.tuples(
               st.sampled_from(["before", "on", "inside", "near-end", "past"]),
               st.floats(0.0, 1.0), st.floats(0.1, 0.25)), max_size=12),
           repeats=st.integers(0, 3))
    def test_scr_bumps_match_the_retired_form_bit_for_bit(
            self, fs, n, t0, draws, repeats):
        from exobench.synthdata import _RISE_SETTLED_S, _scr_bumps
        t = t0 + np.arange(n) / fs
        where = {"before": lambda u: t[0] - 30.0 * u - 1e-3,
                 "on": lambda u: t[int(u * (n - 1))],
                 "inside": lambda u: t[0] + u * (t[-1] - t[0]),
                 "near-end": lambda u: t[-1] - u * _RISE_SETTLED_S,
                 "past": lambda u: t[-1] + 10.0 * u}
        onsets = [where[kind](u) for kind, u, _ in draws]
        amps = [amp for *_, amp in draws]
        onsets += onsets[:repeats]
        amps += amps[:repeats]
        new = _scr_bumps(t, onsets, amps)
        assert (new.view(np.uint64)
                == retired_scr_bumps(t, onsets, amps).view(np.uint64)).all()

    def test_rise_factor_is_exactly_one_once_settled(self):
        from exobench.synthdata import _RISE_SETTLED_S, SCR_RISE_S
        x = np.concatenate((
            _RISE_SETTLED_S + np.arange(1_000_000) * 1e-5,   # 24 s to 34 s
            np.geomspace(_RISE_SETTLED_S, 1e4, 100_000)))
        assert (1 - np.exp(-x / SCR_RISE_S) == 1.0).all()

    def test_gsr_matches_the_retired_responses(self, monkeypatch):
        from exobench import synthdata
        for seed in range(50):
            gsr = synth_physio_session(seed).gsr
            with monkeypatch.context() as m:
                m.setattr(synthdata, "_scr_bumps", retired_scr_bumps)
                expected = synth_physio_session(seed).gsr
            assert gsr.tobytes() == expected.tobytes(), seed

    def test_every_json_file_is_canonical(self, session_set, tmp_path):
        from exobench.segmentation import GaitRegressor
        from exobench.streams import canonical_json
        model = tmp_path / "model.json"
        GaitRegressor(weights=np.linspace(-1.0, 1.0, 6), rmse=0.1).save(model)
        paths = sorted(session_set.rglob("*.json")) + [model]
        assert {p.name for p in paths} == {
            "calibration.json", "eq_definition.json", "fuzzy_model.json",
            "set_manifest.json", "manifest.json", "model.json"}
        for path in paths:
            text = path.read_text()
            assert canonical_json(json.loads(text)) == text, path

    def test_session_set_reproducible(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_session_set(a, subjects=1, seed=4, gait_seconds=1.2,
                          control_rate=500.0)
        synth_session_set(b, subjects=1, seed=4, gait_seconds=1.2,
                          control_rate=500.0)
        for rel in ("subjects/s01/physio/ecg.csv", "subjects/s01/training.csv",
                    "questionnaire_responses.csv"):
            assert (a / rel).read_text() == (b / rel).read_text()
