"""Workload names, input sizes and metric units shared by the benchmark's
processes.  Standard library only: the orchestrator imports it before
anything heavy is loaded.
"""

WORKLOADS = ("control-5khz", "analyze-gait", "analyze-physio", "sim-write")

# "full" is what BENCHMARK.json runs; "tiny" keeps the self-test fast.
SIZES = {
    "full": {
        "corpus_frames": 60_000,    # control-5khz: 12 s of 5 kHz gait,
        "chunk_frames": 12_000,     # replayed two gait cycles per pass
        "gait_subjects": 2,         # analyze-gait
        "gait_frames": 22_500,      # 4.5 s at 5 kHz, fixed for every seed
        "physio_subjects": 3,       # analyze-physio
        "physio_gait_rate": 100.0,  # one gait cycle at 100 Hz: ~120 frames
        "sim_subjects": 2,          # sim-write
        "probe_frames": 45_000,     # sim-write read-back replay
    },
    "tiny": {
        "corpus_frames": 12_000,
        "chunk_frames": 6_000,
        "gait_subjects": 1,
        "gait_frames": 2_000,
        "physio_subjects": 1,
        "physio_gait_rate": 100.0,
        "sim_subjects": 1,
        "probe_frames": 1_000,
    },
}

CONTROL_RATE_HZ = 5000.0
STEP_BUDGET_US = 1e6 / CONTROL_RATE_HZ      # 200 us at 5 kHz
TORQUE_TOLERANCE_NM = 1e-9
PHASE_TOLERANCE = 1e-12
SETUP_REPEATS = 3                            # set-ups per run, median reported

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "frames_per_s": "1/s",
    "step_p50_us": "us",
    "step_p99_us": "us",
    "peak_rss_mb": "MB",
}

CONTROL_LAYER_UNITS = {
    "streams.frames_us": "us",
    "dynamics.estimator_push_us": "us",
    "segmentation.phase_us": "us",
    "blend.gains_us": "us",
    "dynamics.torque_one_side_us": "us",
    "dynamics.torque_blended_us": "us",
    "dynamics.friction_ripple_us": "us",
    "blend.command_us": "us",
    "blend.blended_share": "ratio",
    "control.traced_steps": "count",
}

# span name -> (module, attribute) looked up in the caller's namespace;
# a dotted attribute names a method patched on its class
SPAN_TARGETS = {
    "streams.load_csv": ("exobench.streams", "SensorStream.load_csv"),
    "streams.save_csv": ("exobench.streams", "SensorStream.save_csv"),
    "biosignal.load": ("exobench.biosignal", "PhysioSession.load"),
    "biosignal.save": ("exobench.biosignal", "PhysioSession.save"),
    "biosignal.beats": ("exobench.biosignal", "detect_beats"),
    "biosignal.lf": ("exobench.biosignal", "lf_power"),
    "biosignal.resp": ("exobench.biosignal", "respiration_rate"),
    "biosignal.gsr": ("exobench.biosignal", "gsr_decompose"),
    "biosignal.windows": ("exobench.report", "windowed_features"),
    "fuzzy.infer": ("exobench.report", "infer"),
    "questionnaire.score": ("exobench.report", "score_session"),
    "segmentation.build": ("exobench.report", "training_session_builder"),
    "segmentation.train": ("exobench.report", "train"),
    "simulator.replay": ("exobench.report", "replay"),
    "report.digest": ("exobench.report", "file_digest"),
    "report.write": ("exobench.cli", "canonical_json"),
    "synthdata.physio": ("exobench.synthdata", "synth_physio_session"),
    "simulator.generate": ("exobench.synthdata",
                           ("generate_cycle", "generate_training_protocol")),
}

SPAN_COUNTERS = {
    "streams.rows_parsed": "count",
    "streams.bytes_written": "bytes",
    "simulator.replay_frames": "count",
}

OTHER_LAYER_UNITS = {
    "other_s": "s",
    "setup.import_s": "s",
    "setup.workload_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = dict(CONTROL_LAYER_UNITS)
    for span in SPAN_TARGETS:
        units[f"{span}_s"] = "s"
        units[f"{span}_calls"] = "count"
    units.update(SPAN_COUNTERS)
    units.update(OTHER_LAYER_UNITS)
    return units
