"""Generate a workload's inputs from its seed with exobench.synthdata and
exobench.simulator.

    python3 perfbench/prepare.py --workload NAME --seed N --size full --out DIR

Writes every input file under DIR plus ``inputs.json``, which lists each
file's sha256 and the frame counts the checks need.  The same seed gives
byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from exobench.dynamics import CompensationTables, ExoParams, save_calibration
from exobench.simulator import (GaitPattern, generate_cycle,
                                generate_training_protocol)
from exobench.streams import SensorStream
from exobench.synthdata import synth_session_set

from spec import CONTROL_RATE_HZ, SIZES


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): sha256_file(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def gait_stream(pattern: GaitPattern, frames: int, seed: int) -> SensorStream:
    """Exactly ``frames`` frames of 5 kHz gait, whatever the cadence."""
    cycles = int(np.ceil(frames / (pattern.cycle_duration * CONTROL_RATE_HZ))) + 1
    s = generate_cycle(pattern, rate=CONTROL_RATE_HZ, cycles=cycles, seed=seed)
    return SensorStream(t=s.t[:frames], q=s.q[:frames],
                        left_load=s.left_load[:frames],
                        right_load=s.right_load[:frames],
                        stage=s.stage[:frames])


def prepare_control(out: Path, seed: int, size: dict) -> dict:
    # the default cadence makes a cycle exactly 6,000 frames, so every
    # pass (a whole number of cycles) carries the same gait; the seed
    # draws the noise
    rng = np.random.default_rng(seed)
    pattern = GaitPattern()
    save_calibration(out / "calibration.json", ExoParams(),
                     CompensationTables.default_synthetic())
    generate_training_protocol(pattern, seed=int(rng.integers(2**31))
                               ).save_csv(out / "training.csv")
    corpus = gait_stream(pattern, size["corpus_frames"], int(rng.integers(2**31)))
    np.savez(out / "corpus.npz", t=corpus.t, q=corpus.q,
             left_load=corpus.left_load, right_load=corpus.right_load)
    return {"corpus_frames": len(corpus)}


def prepare_analyze_gait(out: Path, seed: int, size: dict) -> dict:
    manifest = synth_session_set(out / "set", subjects=size["gait_subjects"],
                                 seed=seed, gait_seconds=10.0)
    # cut every gait stream to the same frame count, so the replay work per
    # pass does not depend on the cadence each seed draws
    frames = {}
    for sid in manifest["subjects"]:
        path = out / "set" / "subjects" / sid / "gait_stream.csv"
        with open(path, "rb") as f:
            lines = f.readlines()
        if len(lines) <= size["gait_frames"]:
            raise ValueError(f"{path}: only {len(lines) - 1} frames")
        with open(path, "wb") as f:
            f.writelines(lines[:size["gait_frames"] + 1])
        frames[sid] = size["gait_frames"]
    return {"gait_frames": frames}


def prepare_analyze_physio(out: Path, seed: int, size: dict) -> dict:
    manifest = synth_session_set(out / "set", subjects=size["physio_subjects"],
                                 seed=seed, gait_seconds=0.1,
                                 control_rate=size["physio_gait_rate"])
    frames = {}
    for sid in manifest["subjects"]:
        path = out / "set" / "subjects" / sid / "gait_stream.csv"
        with open(path, "rb") as f:
            frames[sid] = sum(1 for _ in f) - 1
    return {"gait_frames": frames}


PREPARERS = {
    "control-5khz": prepare_control,
    "analyze-gait": prepare_analyze_gait,
    "analyze-physio": prepare_analyze_physio,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PREPARERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    facts = PREPARERS[args.workload](out, args.seed, SIZES[args.size])
    doc = {"workload": args.workload, "seed": args.seed, "size": args.size,
           "facts": facts, "sha256": tree_digests(out)}
    with open(out / "inputs.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
