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
import functools
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .biosignal import CHANNELS
from .blend import ControlLoop
from .dynamics import StanceModel, load_calibration
from .errors import (ExobenchError, IncompleteTrainingError, SchemaError,
                     naming)
from .fuzzy import load_fuzzy_model
from .questionnaire import (PREFERENCES_HEADER, RESPONSES_HEADER,
                            EQDefinition, load_preferences_csv,
                            load_scores_csv)
from .report import analyze_session_set, render_factor_table
from .segmentation import GaitRegressor, train, training_session_builder
from .simulator import (GaitPattern, check_size, generate_cycle,
                        generate_training_protocol, replay)
from .streams import (CSV_HEADER, SensorStream, canonical_json, load_column,
                      read_header, read_json, write_json)
from .synthdata import synth_session_set


def _apply_config(args, keys):
    """Fill unset options from --config JSON (or $EXOBENCH_CONFIG), each
    value converted by its option's argparse ``type`` as a flag's text; an
    option without a ``type`` is a switch and takes only a JSON boolean."""
    path = getattr(args, "config", None) or os.environ.get("EXOBENCH_CONFIG")
    if not path:
        return
    config = read_json(path)
    types = {action.dest: action.type for action in args.parser._actions}
    for key in keys:
        if getattr(args, key) is not None or key not in config:
            continue
        value, convert = config[key], types[key] or bool
        try:
            if convert is not bool:
                value = convert(str(value))
            elif not isinstance(value, bool):
                raise ValueError
        except ValueError:
            raise SchemaError(f"{path}: {key}: invalid {convert.__name__}"
                              f" value {value!r}") from None
        setattr(args, key, value)


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
    if args.kind == "training":
        stream = generate_training_protocol(pattern, seed=seed, rate=rate)
    else:
        seconds = 10.0 if args.seconds is None else args.seconds
        check_size(rate, seconds)
        cycles = max(1, round(seconds / pattern.cycle_duration))
        stream = generate_cycle(pattern, rate=rate, cycles=cycles, seed=seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    stream.save_csv(out)
    print(f"{len(stream)} frames written to {out}")
    return 0


def cmd_train(args) -> int:
    _apply_config(args, ("ridge",))
    training = SensorStream.load_csv(args.data)
    with naming(args.data):
        training = training_session_builder(training)
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
    with naming(args.stream):
        result = replay(stream, loop)
    if args.out:
        result.save_csv(args.out)
    timing = result.timing()
    with naming(args.stream):
        smooth = result.smoothness()
    ratio = "n/a" if smooth.jump_ratio is None else f"{smooth.jump_ratio:.2f}"
    print(f"{result.commands} commands ({result.dropped_frames} dropped); "
          f"step time us p50={timing.p50_us:.1f} p95={timing.p95_us:.1f} "
          f"p99={timing.p99_us:.1f}; {timing.overruns} over the "
          f"{result.period_us:.0f} us period; "
          f"max/median torque jump={ratio}")
    if args.report:
        write_json(args.report, {
            "timing": asdict(timing), "smoothness": asdict(smooth),
            "commands": int(result.commands),
            "dropped_frames": int(result.dropped_frames)})
    return 0


def cmd_analyze(args) -> int:
    _apply_config(args, ("lenient",))
    report, timing = analyze_session_set(args.session, lenient=bool(args.lenient))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    out.write_text(canonical_json(report), encoding="utf-8")
    timing["stages_s"]["report_write"] = time.perf_counter() - start
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
        doc = read_json(path)
        if "items" in doc and "sub_factors" in doc:
            EQDefinition.load(path)
            return "eq-definition"
        if "rules" in doc and "inputs" in doc:
            load_fuzzy_model(path)
            return "fuzzy-model"
        if "link_parameters" in doc:
            load_calibration(path)
            return "calibration"
        if "weights" in doc:
            GaitRegressor.load(path)
            return "gait-model"
        raise SchemaError("unrecognised JSON document")
    if path.suffix == ".csv":
        header = read_header(path)   # the loader reads the rest
        loaders = {
            tuple(CSV_HEADER): ("sensor-stream", SensorStream.load_csv),
            tuple(RESPONSES_HEADER): ("responses", load_scores_csv),
            tuple(PREFERENCES_HEADER): ("preferences", load_preferences_csv),
            **{(column,): (f"{name}-channel", functools.partial(
                load_column, name=column, limits=limits))
               for _, name, _, column, *_, limits, _ in CHANNELS}}
        kind, load = loaders.get(tuple(cell.strip() for cell in header),
                                 (None, None))
        if load is None:
            raise SchemaError(f"unrecognised CSV header: {','.join(header)}")
        load(path)
        return kind
    raise SchemaError("unsupported file type")


def cmd_validate(args) -> int:
    failures = 0
    for name in args.files:
        path = Path(name)
        try:
            kind = _validate_one(path)
        except (ExobenchError, ValueError, OSError) as exc:
            named = str(exc).startswith(f"{path}: ")
            print(f"FAIL {exc}" if named else f"FAIL {path}: {exc}")
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
    p.set_defaults(fn=cmd_sim, parser=p)

    p = sub.add_parser("train", help="train the gait-phase regressor")
    p.add_argument("data", help="training protocol CSV")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_train, parser=p)

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
    p.set_defaults(fn=cmd_analyze, parser=p)

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
    except (ExobenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
