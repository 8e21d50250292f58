import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exobench
from exobench.cli import main
from exobench.dynamics import (WARMUP_S, CompensationTables, ExoParams,
                               save_calibration)
from exobench.fuzzy import default_fuzzy_model
from exobench.questionnaire import default_definition
from exobench.streams import SensorStream
from exobench.synthdata import (synth_physio_session,
                                synth_questionnaire_response,
                                synth_session_set)


def _python(*args):
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(exobench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


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

    def test_session_set_honours_rate_and_seconds(self, tmp_path):
        flags = tmp_path / "flags"
        assert main(["sim", "--out", str(flags), "--subjects", "1", "--seed",
                     "1", "--rate", "500", "--seconds", "1.2"]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rate": 500, "seconds": 1.2}))
        keys = tmp_path / "keys"
        assert main(["sim", "--out", str(keys), "--subjects", "1", "--seed",
                     "1", "--config", str(config)]) == 0
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
        # canonical round trip: parse and re-serialise byte-identically
        from exobench.report import canonical_json
        assert canonical_json(json.loads(out.read_text())) == out.read_text()

    def test_not_a_session_set(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path), "--out",
                     str(tmp_path / "r.json")]) == 1
        assert "set_manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("channel, file", [
        ("ecg", "ecg.csv"), ("respiration", "respiration.csv"),
        ("gsr", "gsr.csv")])
    def test_nan_physio_cell_exits_one_naming_the_line(
            self, session_set, tmp_path, channel, file):
        root = tmp_path / "set"
        shutil.copytree(session_set, root)
        path = root / "subjects" / "s01" / "physio" / file
        lines = path.read_text().splitlines()
        lines[99] = "nan"
        path.write_text("\n".join(lines) + "\n")
        proc = _python("-m", "exobench.cli", "analyze", str(root),
                       "--out", str(tmp_path / "report.json"))
        assert proc.returncode == 1
        assert (f"error: {path}: line 100: non-finite {channel} value nan"
                in proc.stderr)
        assert "Traceback" not in proc.stderr

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
                == f"FAIL {stream}: {stream}: line {line}: not valid UTF-8\n")

    def test_responses_not_utf8_names_the_line(self, tmp_path, capsys):
        responses = tmp_path / "responses.csv"
        responses.write_bytes(b"subject_id,item_id,score\ns01,1,4\ns01,2,3\xe9\n")
        assert main(["validate", str(responses)]) == 1
        assert (capsys.readouterr().out == f"FAIL {responses}: {responses}: "
                                           "line 3: not valid UTF-8\n")


class TestNonFiniteInput:
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_validate_fails_a_stream_with_a_nonfinite_cell(self, tmp_path,
                                                           capsys, cell):
        stream = tmp_path / "stream.csv"
        main(["sim", "--kind", "gait", "--out", str(stream), "--seed", "6",
              "--seconds", "1.2", "--rate", "200"])
        lines = stream.read_text().splitlines()
        cells = lines[40].split(",")
        cells[7] = cell
        lines[40] = ",".join(cells)
        stream.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["validate", str(stream)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL {stream}")
        assert "line 41: non-finite left_load" in out


class TestImport:
    def test_package_import_leaves_scipy_submodules_unloaded(self):
        code = ("import sys, exobench; print(sorted(m for m in ('scipy.signal',"
                " 'scipy.interpolate', 'scipy.linalg') if m in sys.modules))")
        proc = _python("-c", code)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[]"


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
