"""Batch command-line interface.

Subcommands: ``sim`` (synthetic data), ``train`` (gait regressor),
``replay`` (controller over a recorded stream), ``analyze`` (full
benchmark report for a session set), ``validate`` (config/definition
diagnostics).  All commands are non-interactive and deterministic given
their inputs and seed.

Exit codes: 0 success, 1 bad input or I/O, 2 incomplete training stages.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .blend import ControlLoop
from .dynamics import StanceModel, load_calibration
from .errors import (ExobenchError, IncompleteTrainingError,
                     InsufficientDataError, SchemaError)
from .fuzzy import load_fuzzy_model
from .questionnaire import EQDefinition
from .report import analyze_session_set, canonical_json, render_factor_table
from .segmentation import GaitRegressor, train, training_session_builder
from .simulator import GaitPattern, generate_cycle, generate_training_protocol, replay
from .streams import CSV_HEADER, SensorStream, not_utf8_error
from .synthdata import synth_session_set


def _apply_config(args, keys):
    """Fill unset options from --config JSON (or $EXOBENCH_CONFIG)."""
    path = getattr(args, "config", None) or os.environ.get("EXOBENCH_CONFIG")
    if not path:
        return
    with open(path, "r", encoding="utf-8") as f:
        config = json.load(f)
    for key in keys:
        if getattr(args, key, None) is None and key in config:
            setattr(args, key, config[key])


def cmd_sim(args) -> int:
    _apply_config(args, ("seed", "subjects", "rate", "seconds"))
    seed = 0 if args.seed is None else args.seed
    out = Path(args.out)
    if args.kind == "session-set":
        subjects = 5 if args.subjects is None else args.subjects
        given = {name: value for name, value in (("control_rate", args.rate),
                                                 ("gait_seconds", args.seconds))
                 if value is not None}
        manifest = synth_session_set(out, subjects=subjects, seed=seed, **given)
        print(f"session set with {len(manifest['subjects'])} subjects "
              f"written to {out}")
        return 0
    rate = 100.0 if args.rate is None else args.rate
    pattern = GaitPattern()
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "training":
        stream = generate_training_protocol(pattern, seed=seed, rate=rate)
    else:
        seconds = 10.0 if args.seconds is None else args.seconds
        cycles = max(1, round(seconds / pattern.cycle_duration))
        stream = generate_cycle(pattern, rate=rate, cycles=cycles, seed=seed)
    stream.save_csv(out)
    print(f"{len(stream)} frames written to {out}")
    return 0


def cmd_train(args) -> int:
    _apply_config(args, ("ridge",))
    try:
        training = training_session_builder(SensorStream.load_csv(args.data))
    except InsufficientDataError as exc:
        raise InsufficientDataError(f"{args.data}: {exc}") from exc
    regressor = train(training, ridge=args.ridge)
    regressor.save(args.out)
    print(f"trained on {len(training)} samples; "
          f"rmse={regressor.rmse:.4f}; model written to {args.out}")
    return 0


def cmd_replay(args) -> int:
    params, tables = load_calibration(args.calibration)
    regressor = GaitRegressor.load(args.model)
    stream = SensorStream.load_csv(args.stream)
    loop = ControlLoop(StanceModel("left", params),
                       StanceModel("right", params), regressor, tables)
    result = replay(stream, loop)
    if args.out:
        result.save_csv(args.out)
    timing = result.timing()
    try:
        smooth = result.smoothness()
    except ValueError as exc:
        raise ValueError(f"{args.stream}: {exc}") from exc
    print(f"{result.commands} commands ({result.dropped_frames} dropped); "
          f"step time us p50={timing.p50_us:.1f} p95={timing.p95_us:.1f} "
          f"p99={timing.p99_us:.1f}; {timing.overruns} over the "
          f"{result.period_us:.0f} us period; "
          f"max/median torque jump={smooth.jump_ratio:.2f}")
    if args.report:
        doc = {"timing": timing.to_dict(), "smoothness": smooth.to_dict(),
               "commands": int(result.commands),
               "dropped_frames": int(result.dropped_frames)}
        Path(args.report).write_text(canonical_json(doc), encoding="utf-8")
    return 0


def cmd_analyze(args) -> int:
    _apply_config(args, ("lenient",))
    report, timing = analyze_session_set(args.session, lenient=bool(args.lenient))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(canonical_json(report), encoding="utf-8")
    sidecar = out.with_name(out.stem + ".timing.json")
    sidecar.write_text(canonical_json(timing), encoding="utf-8")
    flags = report["summary"]["total_invalid_flags"]
    print(f"report written to {out} (timing sidecar {sidecar.name}); "
          f"{flags} invalid flags")
    questionnaire = report["questionnaire"]
    if questionnaire["status"] == "ok":
        print(render_factor_table(questionnaire["factor_stats"]))
    else:
        print(f"questionnaire section skipped: {questionnaire['reason']}")
    return 0


def _validate_one(path: Path) -> str | None:
    """Returns the detected kind, or raises on failure."""
    if path.suffix == ".json":
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        if "items" in doc and "sub_factors" in doc:
            EQDefinition.from_dict(doc)
            return "eq-definition"
        if "rules" in doc and "inputs" in doc:
            load_fuzzy_model(doc)
            return "fuzzy-model"
        if "link_parameters" in doc:
            load_calibration(path)
            return "calibration"
        if "weights" in doc:
            GaitRegressor.load(path)
            return "gait-model"
        raise SchemaError("unrecognised JSON document")
    if path.suffix == ".csv":
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
            lines = list(enumerate(f, start=1)) or [(1, "")]
        if error := not_utf8_error(path, lines):
            raise error
        header = lines[0][1].strip().split(",")
        if header == CSV_HEADER:
            SensorStream.load_csv(path)
            return "sensor-stream"
        if header == ["subject_id", "item_id", "score"]:
            return "responses"
        if header == ["subject_id", "factor", "sub_a", "sub_b", "winner"]:
            return "preferences"
        raise SchemaError(f"unrecognised CSV header: {','.join(header)}")
    raise SchemaError("unsupported file type")


def cmd_validate(args) -> int:
    failures = 0
    for name in args.files:
        path = Path(name)
        try:
            kind = _validate_one(path)
        except (ExobenchError, ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
            continue
        print(f"ok   {path} ({kind})")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exobench",
        description="Assistive-control benchmark: simulation, training, "
                    "replay, and session analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim", help="generate synthetic data")
    p.add_argument("--out", required=True, help="output file or directory")
    p.add_argument("--kind", choices=("session-set", "training", "gait"),
                   default="session-set")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--subjects", type=int, default=None)
    p.add_argument("--rate", type=float, default=None, help="sample rate, Hz")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("train", help="train the gait-phase regressor")
    p.add_argument("data", help="training protocol CSV")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("replay", help="run the control loop over a stream")
    p.add_argument("stream", help="sensor stream CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--out", default=None, help="command log CSV")
    p.add_argument("--report", default=None, help="timing/smoothness JSON")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("analyze", help="full benchmark report for a session set")
    p.add_argument("session", help="session-set directory")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--lenient", action="store_const", const=True, default=None,
                   help="skip protocol duration checks")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("validate", help="check definition/config files")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except IncompleteTrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExobenchError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
