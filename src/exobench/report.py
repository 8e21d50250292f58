"""Session-set analysis and the benchmark report.

``analyze_session_set`` walks a directory produced by the simulator (or
arranged the same way from real exports), runs the physiological,
psychophysiological, questionnaire, and controller pipelines, and returns
one report dict plus a wall-clock timing sidecar.

The report is fully deterministic for fixed inputs: wall-clock step times
live in the sidecar only, and the report carries sha256 digests of every
input file plus a digest of the command stream for provenance.

The controller section computes each subject's whole command stream with
``replay_batch``, which is bit-identical to streaming ``replay`` but much
faster.  Step times come from a separate streaming ``replay`` of the first
``PROBE_STEPS`` frames, which is what the sidecar's percentiles and
overrun counts cover.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .biosignal import (PHASE_SIT, PHASE_WALK, FeatureWindow, PhysioSession,
                        windowed_features)
from .blend import ControlLoop
from .dynamics import ACTUATED_MASK, StanceModel, load_calibration
from .errors import InsufficientDataError, SchemaError
from .fuzzy import infer, load_fuzzy_model, normalize
from .questionnaire import (EQDefinition, aggregate_reports,
                            load_responses_csv, score_session)
from .segmentation import train, training_session_builder
from .simulator import replay, replay_batch
from .streams import SensorStream, canonical_json  # re-exported for the CLI
from .synthdata import SET_SCHEMA_VERSION

REPORT_SCHEMA_VERSION = 1

# frames per subject that the streaming timing probe steps through
PROBE_STEPS = 5_000

TIMING_NOTE = (f"step times come from streaming ControlLoop.step over the "
               f"first {PROBE_STEPS:,} frames of each gait stream; overruns "
               f"count steps slower than the sample period")


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class SubjectSession:
    """One subject's bundle inside a session set."""

    subject_id: str
    directory: Path

    @property
    def physio_dir(self) -> Path:
        return self.directory / "physio"

    @property
    def training_csv(self) -> Path:
        return self.directory / "training.csv"

    @property
    def gait_csv(self) -> Path:
        return self.directory / "gait_stream.csv"


def _physio_section(session: PhysioSession, lenient: bool):
    session.validate_protocol(lenient=lenient)
    windows = windowed_features(session)
    missing = sum(1 for fw in windows for name in FeatureWindow.FEATURES
                  if fw.feature(name) is None)
    return windows, {
        "windows": [fw.to_dict() for fw in windows],
        "missing_values": missing,
    }


def _psycho_section(windows, model):
    sit = [fw for fw in windows if fw.phase == PHASE_SIT]
    walk = [fw for fw in windows if fw.phase == PHASE_WALK]
    rows = normalize(walk, sit)
    scores = [infer(model, row) for row in rows]
    invalid = sum(len(row.invalid) for row in rows)
    degraded = sum(len(s.degraded) for s in scores)
    mean_scores = {
        name: float(np.mean([getattr(s, name) for s in scores]))
        for name in ("stress", "energy", "attention", "fatigue")
    }
    return {
        "inputs": [{k: row.values[k] for k in sorted(row.values)}
                   for row in rows],
        "scores": [s.as_dict() for s in scores],
        "mean_scores": mean_scores,
        "invalid_inputs": invalid,
        "degraded_outputs": degraded,
    }


def _controller_section(subject: SubjectSession, calibration_path):
    params, tables = load_calibration(calibration_path)
    training = SensorStream.load_csv(subject.training_csv)
    try:
        regressor = train(training_session_builder(training))
    except InsufficientDataError as exc:
        raise InsufficientDataError(f"{subject.training_csv}: {exc}") from exc
    stream = SensorStream.load_csv(subject.gait_csv)
    loop = ControlLoop(StanceModel("left", params), StanceModel("right", params),
                       regressor, tables)
    result = replay_batch(stream, loop)   # reads no loop state
    probe = replay(stream.head(PROBE_STEPS), loop)
    try:
        smooth = result.smoothness()
    except ValueError as exc:
        raise ValueError(f"{subject.gait_csv}: {exc}") from exc
    digest = hashlib.sha256()
    digest.update(result.t.tobytes())
    digest.update(result.raw_phase.tobytes())
    digest.update(result.gamma_l.tobytes())
    digest.update(result.tau.tobytes())
    tau = result.tau[:, list(ACTUATED_MASK)]
    section = {
        "training_rmse": regressor.rmse,
        "commands": int(result.commands),
        "dropped_frames": int(result.dropped_frames),
        "smoothness": smooth.to_dict(),
        "command_digest": digest.hexdigest(),
        "max_abs_tau": float(np.max(np.abs(tau))),
        "rms_tau": float(np.sqrt(np.mean(tau * tau))),
    }
    return section, probe.timing().to_dict()


def _check_manifest(manifest) -> None:
    """Raise SchemaError unless the set manifest is one this version reads."""
    if not isinstance(manifest, dict):
        raise SchemaError("set manifest must be a JSON object")
    version = manifest.get("schema_version")
    if version != SET_SCHEMA_VERSION:
        raise SchemaError(f"unsupported set schema_version {version!r}")
    subjects = manifest.get("subjects")
    if (not isinstance(subjects, list) or not subjects
            or not all(isinstance(sid, str) for sid in subjects)):
        raise SchemaError("set manifest needs a non-empty 'subjects' list "
                          "of subject ids")
    files = manifest.get("files")
    if (not isinstance(files, dict)
            or not all(isinstance(rel, str) for rel in files.values())):
        raise SchemaError("set manifest needs a 'files' object of paths")
    required = ["calibration"]
    if "responses" in files or "preferences" in files:
        required += ["responses", "preferences", "eq_definition"]
    for key in required:
        if key not in files:
            raise SchemaError(f"set manifest 'files' lacks {key!r}")


def analyze_session_set(root, lenient: bool = False):
    """Run every pipeline over a session-set directory.

    Returns ``(report_dict, timing_dict)``; the timing dict holds the
    non-deterministic wall-clock step-time percentiles of each subject's
    streaming probe and is meant for a sidecar file, keeping the report
    byte-reproducible.  A malformed set manifest raises SchemaError.
    """
    root = Path(root)
    manifest_path = root / "set_manifest.json"
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise SchemaError(f"{root}: not a session set (no set_manifest.json)")
    _check_manifest(manifest)
    subject_ids = manifest["subjects"]
    files = manifest["files"]

    fuzzy_model = load_fuzzy_model(
        root / files["fuzzy_model"] if "fuzzy_model" in files else None)
    calibration_path = root / files["calibration"]
    have_questionnaire = "responses" in files
    if have_questionnaire:
        definition = EQDefinition.load(root / files["eq_definition"])
        responses = load_responses_csv(root / files["responses"],
                                       root / files["preferences"])

    digests = {}
    for rel in sorted(files.values()):
        digests[rel] = file_digest(root / rel)

    physiology = {}
    psychophysiology = {}
    questionnaire = {}
    controller = {}
    timing = {}
    factor_reports = []
    total_invalid = 0

    for sid in subject_ids:
        subject = SubjectSession(subject_id=sid,
                                 directory=root / "subjects" / sid)
        for rel_file in ("physio/manifest.json", "training.csv",
                         "gait_stream.csv"):
            path = subject.directory / rel_file
            digests[f"subjects/{sid}/{rel_file}"] = file_digest(path)

        session = PhysioSession.load(subject.physio_dir)
        windows, phys = _physio_section(session, lenient)
        physiology[sid] = phys
        total_invalid += phys["missing_values"]

        psych = _psycho_section(windows, fuzzy_model)
        psychophysiology[sid] = psych
        total_invalid += psych["invalid_inputs"] + psych["degraded_outputs"]

        if have_questionnaire:
            if sid not in responses:
                raise SchemaError(f"no questionnaire response for subject {sid}")
            factor_report = score_session(responses[sid], definition)
            questionnaire[sid] = factor_report.to_dict()
            factor_reports.append(factor_report)

        ctrl, ctrl_timing = _controller_section(subject, calibration_path)
        controller[sid] = ctrl
        timing[sid] = ctrl_timing

    if have_questionnaire:
        questionnaire_section = {
            "status": "ok",
            "subjects": questionnaire,
            "factor_stats": aggregate_reports(factor_reports),
        }
    else:
        questionnaire_section = {"status": "skipped",
                                 "reason": "no questionnaire files in set"}

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "meta": {
            "set_seed": manifest.get("seed"),
            "subjects": subject_ids,
            "input_digests": digests,
            "lenient": bool(lenient),
        },
        "physiology": {"status": "ok", "subjects": physiology},
        "psychophysiology": {"status": "ok", "subjects": psychophysiology},
        "questionnaire": questionnaire_section,
        "controller": {
            "status": "ok",
            "subjects": controller,
            "timing_note": "wall-clock step times in the timing sidecar",
        },
        "summary": {"total_invalid_flags": int(total_invalid)},
    }
    return report, {"note": TIMING_NOTE, "subjects": timing}


def render_factor_table(factor_stats: dict) -> str:
    """Plain-text factor summary table for terminal output."""
    lines = [f"{'factor':<16} {'mean':>6} {'std':>6} {'n':>3}"]
    for factor in sorted(factor_stats):
        s = factor_stats[factor]
        lines.append(f"{factor:<16} {s['mean']:>6.2f} {s['std']:>6.2f} "
                     f"{s['n']:>3d}")
    return "\n".join(lines)
