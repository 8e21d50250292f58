"""Session-set analysis and the benchmark report.

``analyze_session_set`` walks a directory produced by the simulator (or
arranged the same way from real exports), runs the physiological,
psychophysiological, questionnaire, and controller pipelines, and returns
one report dict plus a wall-clock timing sidecar.

The report is fully deterministic for fixed inputs: wall-clock step times
live in the sidecar only.  For provenance the report carries a digest of
the command stream and sha256 digests of the set's shared files and of
each subject's ``physio/manifest.json``, ``training.csv`` and
``gait_stream.csv``; the physio channel CSVs have none.

The controller section computes each subject's whole command stream with
``replay_batch``, which is bit-identical to streaming ``replay`` but much
faster.  Step times come from a separate streaming ``replay`` of the first
``PROBE_STEPS`` frames, which is what the sidecar's percentiles and
overrun counts cover; every run checks that probe's commands against the
batch's, byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .biosignal import (PHASE_SIT, PHASE_WALK, FeatureWindow, PhysioSession,
                        windowed_features)
from .blend import ControlLoop
from .dynamics import ACTUATED_MASK, StanceModel, load_calibration
from .errors import (IncompleteComparisonError, IncompleteResponseError,
                     ReplayMismatchError, SchemaError, naming)
from .fuzzy import infer, load_fuzzy_model, normalize
from .questionnaire import (EQDefinition, aggregate_reports,
                            load_responses_csv, score_session)
from .segmentation import train, training_session_builder
from .simulator import replay, replay_batch
from .streams import SensorStream, read_json
from .synthdata import SET_SCHEMA_VERSION

REPORT_SCHEMA_VERSION = 1

# frames per subject that the streaming timing probe steps through
PROBE_STEPS = 5_000

# the stages of ``analyze`` whose wall seconds, summed over subjects, the
# timing sidecar's ``stages_s`` holds; ``cmd_analyze`` adds the report write
STAGES = ("input_digests", "gait_csv", "training_csv", "physio_load",
          "physio_features", "fuzzy", "questionnaire", "train",
          "batch_replay", "probe")

TIMING_NOTE = (f"step times come from streaming ControlLoop.step over the "
               f"first {PROBE_STEPS:,} frames of each gait stream; overruns "
               f"count steps slower than the sample period")


@contextlib.contextmanager
def _timed(stages: dict, name: str):
    """Add the wall time of the block to ``stages[name]``."""
    start = time.perf_counter()
    yield
    stages[name] += time.perf_counter() - start


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _physio_section(session: PhysioSession, lenient: bool):
    session.validate_protocol(lenient=lenient)
    windows = windowed_features(session)
    missing = sum(1 for fw in windows for name in FeatureWindow.FEATURES
                  if getattr(fw, name) is None)
    return windows, {
        "windows": [asdict(fw) for fw in windows],
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
        "scores": [asdict(s) for s in scores],
        "mean_scores": mean_scores,
        "invalid_inputs": invalid,
        "degraded_outputs": degraded,
    }


def _controller_section(directory: Path, params, tables, stages: dict):
    training_csv = directory / "training.csv"
    gait_csv = directory / "gait_stream.csv"
    with _timed(stages, "training_csv"):
        training = SensorStream.load_csv(training_csv)
    with _timed(stages, "train"), naming(training_csv):
        regressor = train(training_session_builder(training))
    with _timed(stages, "gait_csv"):
        stream = SensorStream.load_csv(gait_csv)
    loop = ControlLoop(StanceModel("left", params), StanceModel("right", params),
                       regressor, tables)
    with _timed(stages, "batch_replay"):
        result = replay_batch(stream, loop)   # reads no loop state
    with _timed(stages, "probe"):
        probe = replay(stream.head(PROBE_STEPS), loop)
        n = probe.commands   # the batch must open with the probe's commands
        rows = [np.column_stack([r.t[:n], r.raw_phase[:n], r.gamma_l[:n],
                                 r.tau[:n], r.degraded[:n]]).view(np.uint64)
                for r in (probe, result)]
        differs = (rows[0] != rows[1]).any(axis=1)
    if differs.any():
        k = differs.argmax()
        raise ReplayMismatchError(
            f"{gait_csv}: batch replay differs from the streaming probe at "
            f"command {k} (t = {probe.t[k]} s)")
    with naming(gait_csv):
        smooth = result.smoothness()
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
        "smoothness": asdict(smooth),
        "command_digest": digest.hexdigest(),
        "max_abs_tau": float(np.max(np.abs(tau))),
        "rms_tau": float(np.sqrt(np.mean(tau * tau))),
    }
    return section, asdict(probe.timing())


def _check_manifest(manifest: dict) -> dict:
    """The set manifest, or SchemaError if its subjects or files are not
    what this version reads."""
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
    return manifest


def analyze_session_set(root, lenient: bool = False):
    """Run every pipeline over a session-set directory.

    Returns ``(report_dict, timing_dict)``; the timing dict holds the
    non-deterministic wall-clock step-time percentiles of each subject's
    streaming probe and, in ``stages_s``, the wall seconds of each of
    ``STAGES`` summed over subjects.  It is meant for a sidecar file,
    keeping the report byte-reproducible.  A malformed set manifest raises
    SchemaError; a questionnaire error names its CSV.
    """
    root = Path(root)
    try:
        manifest = read_json(root / "set_manifest.json", SET_SCHEMA_VERSION,
                             _check_manifest)
    except FileNotFoundError:
        raise SchemaError(f"{root}: not a session set (no set_manifest.json)")
    subject_ids = manifest["subjects"]
    files = manifest["files"]

    fuzzy_model = load_fuzzy_model(
        root / files["fuzzy_model"] if "fuzzy_model" in files else None)
    params, tables = load_calibration(root / files["calibration"])
    stages = dict.fromkeys(STAGES, 0.0)
    have_questionnaire = "responses" in files
    if have_questionnaire:
        responses_csv = root / files["responses"]
        preferences_csv = root / files["preferences"]
        with _timed(stages, "questionnaire"):
            definition = EQDefinition.load(root / files["eq_definition"])
            responses = load_responses_csv(responses_csv, preferences_csv)

    digests = {}
    with _timed(stages, "input_digests"):
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
        directory = root / "subjects" / sid
        with _timed(stages, "input_digests"):
            for rel_file in ("physio/manifest.json", "training.csv",
                             "gait_stream.csv"):
                digests[f"subjects/{sid}/{rel_file}"] = file_digest(
                    directory / rel_file)

        with _timed(stages, "physio_load"):
            session = PhysioSession.load(directory / "physio")
        with _timed(stages, "physio_features"), naming(directory / "physio"):
            windows, phys = _physio_section(session, lenient)
        physiology[sid] = phys
        total_invalid += phys["missing_values"]

        with _timed(stages, "fuzzy"):
            psych = _psycho_section(windows, fuzzy_model)
        psychophysiology[sid] = psych
        total_invalid += psych["invalid_inputs"] + psych["degraded_outputs"]

        if have_questionnaire:
            # each error names the CSV whose rows caused it: the responses
            # for a missing subject or item or a Likert score out of range
            # (the definition is checked when it loads), the preferences
            # for a comparison
            with _timed(stages, "questionnaire"), \
                    naming(responses_csv,
                           (IncompleteResponseError, SchemaError)), \
                    naming(preferences_csv, IncompleteComparisonError):
                if sid not in responses:
                    raise SchemaError(
                        f"no questionnaire response for subject {sid}")
                factor_report = score_session(responses[sid], definition)
            questionnaire[sid] = asdict(factor_report)
            factor_reports.append(factor_report)

        ctrl, ctrl_timing = _controller_section(directory, params, tables,
                                                stages)
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
    return report, {"note": TIMING_NOTE, "subjects": timing,
                    "stages_s": stages}


def render_factor_table(factor_stats: dict) -> str:
    """Plain-text factor summary table for terminal output."""
    lines = [f"{'factor':<16} {'mean':>6} {'std':>6} {'n':>3}"]
    for factor in sorted(factor_stats):
        s = factor_stats[factor]
        lines.append(f"{factor:<16} {s['mean']:>6.2f} {s['std']:>6.2f} "
                     f"{s['n']:>3d}")
    return "\n".join(lines)
