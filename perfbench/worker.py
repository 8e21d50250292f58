"""The measuring process: one workload, one worker, one compute thread.

    python3 perfbench/worker.py --workload NAME --inputs DIR --seed N \
        --seconds S --trace 0|1 --size full --work DIR --result FILE

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1.  Sets up the
workload, runs timed passes of it for ``--seconds``, then checks the
outputs.  Drives only exobench's public API and CLI functions.  Every
timed window is bracketed by readings of the reference kernel in
``speedref`` and reported scaled to the reference speed, with the raw
times alongside as diagnostics.  Writes a JSON result to ``--result``;
``run.py`` prints it.
"""

import argparse
import array
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

import exobench
from exobench.blend import AssistCommand, ControlLoop, blend_gains, gains
from exobench.cli import main as cli_main
from exobench.dynamics import (AccelerationEstimator, StanceModel,
                               blended_torque, friction_ripple,
                               gravity_vector, inertia_matrix,
                               load_calibration)
from exobench.errors import ExobenchError
from exobench.segmentation import train, training_session_builder
from exobench.streams import SensorStream

from prepare import tree_digests
from spec import (CONTROL_LAYER_UNITS, CONTROL_RATE_HZ, PHASE_TOLERANCE,
                  SETUP_REPEATS, SIZES, STEP_BUDGET_US, TORQUE_TOLERANCE_NM,
                  per_layer_units)
from speedref import SpeedLog
from tracer import SpanTracer

_ZERO6 = (0.0,) * 6
CONTROL_CALLS = tuple(k for k in CONTROL_LAYER_UNITS if k.endswith("_us"))
SAMPLES_PER_RUN = 500       # commands checked against the numpy reference
PROBE_WINDOW = 5_000        # steps per window of the sim-write read-back


class Result:
    """What the worker hands back: metrics, checks, diagnostics, counts."""

    def __init__(self):
        self.metrics = {}
        self.checks = []
        self.diagnostics = []
        self.attempted = 0
        self.failed = 0
        self.setup_s = []
        self.extra = {}

    def metric(self, name, value, unit, n, note=""):
        self.metrics[name] = {"value": float(value), "unit": unit,
                              "n": int(n), "note": note}

    def check(self, name, ok, detail):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def to_dict(self):
        return {"metrics": self.metrics, "checks": self.checks,
                "diagnostics": self.diagnostics, "attempted": self.attempted,
                "failed": self.failed, "setup_s": self.setup_s, **self.extra}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def backend() -> str:
    """Which torque path exobench takes, judged from outside the package:
    it compiles a numba kernel when numba imports, else runs pure Python."""
    try:
        import numba
    except ImportError as exc:
        return f"pure-python ({type(exc).__name__}: {exc})"
    return f"numba-kernel (numba {numba.__version__})"


def timed_passes(body, seconds, min_passes):
    """Run ``body(k)`` at least ``min_passes`` times, and again while one
    more pass of average length still fits in ``seconds``.  Returns each
    pass's wall time and the reference readings taken around the passes."""
    times = []
    speed = SpeedLog()
    start = time.perf_counter()
    while (len(times) < min_passes
           or time.perf_counter() - start + sum(times) / len(times) <= seconds):
        t0 = time.perf_counter()
        body(len(times))
        times.append(time.perf_counter() - t0)
        speed.mark()
    return times, speed


def spread_note(raw) -> str:
    return "/".join(f"{v:.4g}" for v in np.percentile(raw, [0, 50, 100]))


def scaled_pass(res, pass_s, speed, frames, label):
    """run_s: median over passes of the pass time scaled to the reference
    speed; frames_per_s follows from it."""
    scaled = [t * speed.factor(k) for k, t in enumerate(pass_s)]
    run_s = statistics.median(scaled)
    res.metric("run_s", run_s, "s", len(pass_s),
               f"median of {len(pass_s)} passes of {label}, at reference speed")
    res.metric("frames_per_s", frames / run_s, "1/s", len(pass_s),
               f"{frames} frames per pass / run_s")
    res.diagnostics.append(f"raw pass s min/median/max = {spread_note(pass_s)}")
    res.diagnostics.append(
        f"reference kernel ms min/median/max = {spread_note(speed.readings)} "
        f"({len(speed.readings)} readings)")


def scaled_percentiles(res, pct, factors, n, label):
    """step_p50_us and step_p99_us: medians over windows of each window's
    percentile scaled to the reference speed.  ``pct`` holds [p50, p99]
    per window; ``factors`` the window's scale factor."""
    scaled = pct * np.asarray(factors)[:, None]
    note = f"{label}; median of {len(pct)} windows, at reference speed"
    res.metric("step_p50_us", np.median(scaled[:, 0]), "us", n, note)
    res.metric("step_p99_us", np.median(scaled[:, 1]), "us", n, note)
    res.diagnostics.append(
        f"raw window step_p50_us min/median/max = {spread_note(pct[:, 0])}")
    res.diagnostics.append(
        f"raw window step_p99_us min/median/max = {spread_note(pct[:, 1])}")


def window_percentiles(windows) -> np.ndarray:
    """[p50, p99] of each window of step times."""
    return np.array([np.percentile(w, [50, 99]) for w in windows])


# ---------------------------------------------------------------------------
# control-5khz
# ---------------------------------------------------------------------------


class Rig:
    """The control loop and the parts it is built from."""

    def __init__(self, inputs: Path):
        params, self.tables = load_calibration(inputs / "calibration.json")
        training = SensorStream.load_csv(inputs / "training.csv")
        self.regressor = train(training_session_builder(training))
        self.left = StanceModel("left", params)
        self.right = StanceModel("right", params)
        self.loop = ControlLoop(self.left, self.right, self.regressor,
                                self.tables, rate=CONTROL_RATE_HZ)


def build_rig(res, inputs):
    """The workload's set-up, repeated; each time scaled like a pass."""
    rigs = []
    times, speed = timed_passes(lambda k: rigs.append(Rig(inputs)), 0.0,
                                SETUP_REPEATS)
    res.setup_s.extend(t * speed.factor(k) for k, t in enumerate(times))
    return rigs[-1]


def load_chunks(inputs: Path, size: int) -> list:
    """The corpus, cut into chunks of ``size`` frames; one pass replays one
    chunk, and passes cycle through them."""
    with np.load(inputs / "corpus.npz") as z:
        t, q, left, right = z["t"], z["q"], z["left_load"], z["right_load"]
    return [SensorStream(t=t[i:i + size], q=q[i:i + size],
                         left_load=left[i:i + size], right_load=right[i:i + size])
            for i in range(0, t.size - size + 1, size)]


def reference_torque(rig, q, cmd) -> np.ndarray:
    """Independent numpy evaluation of one command's torque: dense inertia
    and gravity on the permuted state, vectorised gains, table terms."""
    gl, gr = blend_gains(np.array([cmd.raw_phase]))
    qdd = np.asarray(cmd.qdd, dtype=float)
    tau = friction_ripple(rig.tables, q, np.asarray(cmd.qd, dtype=float))
    for model, gain in ((rig.left, float(gl[0])), (rig.right, float(gr[0]))):
        if gain > 0.0:
            perm = list(model.perm)
            q5 = q[perm]
            tau5 = inertia_matrix(model, q5) @ qdd[perm] + gravity_vector(model, q5)
            tau[perm] += gain * tau5
    return tau


def control_loop_passes(res, rig, chunks, seconds):
    """Closed loop, one caller: ``ControlLoop.step`` frame by frame over one
    chunk per pass, from a reset loop; every step timed on its own.
    Returns pass times and reference readings, per-pass step times (µs),
    the sampled commands of each chunk's first pass and each pass's
    torque-stream digest."""
    loop = rig.loop
    n = len(chunks[0])
    stride = max(1, n * len(chunks) // SAMPLES_PER_RUN)
    clock = time.perf_counter_ns
    taus = np.empty((n, 6))
    windows = []
    samples = []
    digests = []
    peak = [0.0]

    for frame in chunks[-1].frames():    # warm-up, untimed
        loop.step(frame)

    def one_pass(k):
        chunk = chunks[k % len(chunks)]
        loop.reset()
        step = loop.step
        step_ns = array.array("q")
        append = step_ns.append
        keep = k < len(chunks)
        for i, frame in enumerate(chunk.frames()):
            t0 = clock()
            try:
                cmd = step(frame)
            except (ExobenchError, ValueError):
                taus[i] = np.nan   # counted below as a failed step
                continue
            append(clock() - t0)
            taus[i] = cmd.tau
            if keep and (i < 8 or i % stride == 0):
                samples.append((chunk.q[i], cmd))
        windows.append(np.frombuffer(step_ns, dtype=np.int64) / 1e3)
        digests.append((k % len(chunks), hashlib.sha256(taus.tobytes()).hexdigest()))
        peak[0] = max(peak[0], float(np.nanmax(np.abs(taus))))
        bad = int(np.sum(~np.all(np.isfinite(taus), axis=1)))
        res.attempted += n
        res.failed += bad
        if bad:
            res.check(f"pass {k}: torques finite", False, f"{bad} of {n} steps")

    pass_s, speed = timed_passes(one_pass, seconds, len(chunks))
    res.diagnostics.append(f"control.max_abs_torque_nm = {peak[0]:.4g} Nm "
                           f"({len(pass_s) * n} commands)")
    return pass_s, speed, windows, samples, digests


def check_control(res, rig, n, samples, digests):
    """Sampled commands against the numpy reference, and every pass over a
    chunk against the first.  The torque tolerance is 1e-9 Nm, widened to
    8 ulp of |tau| where 1e-9 Nm is finer than double precision resolves
    (|tau| above ~5e5 Nm, which estimator warm-up reaches)."""
    worst = 0.0
    largest = 0.0
    mismatched = 0
    for q, cmd in samples:
        ref = reference_torque(rig, q, cmd)
        scale = float(np.max(np.abs(ref)))
        tol = max(TORQUE_TOLERANCE_NM, 8 * np.finfo(float).eps * scale)
        err = float(np.max(np.abs(ref - np.asarray(cmd.tau, dtype=float))))
        worst = max(worst, err)
        largest = max(largest, scale)
        ref_phase = float(np.dot(rig.regressor.weights, q))
        if (err > tol
                or abs(ref_phase - cmd.raw_phase) > PHASE_TOLERANCE * (1 + abs(ref_phase))
                or cmd.gamma_l + cmd.gamma_r != 1.0):
            mismatched += 1
    res.failed += mismatched
    res.check("sampled torques match the numpy reference", mismatched == 0,
              f"{len(samples)} commands, {mismatched} off; max |diff| "
              f"{worst:.3g} Nm at max |tau| {largest:.3g} Nm (tolerance "
              f"{TORQUE_TOLERANCE_NM:g} Nm or 8 ulp of |tau|)")
    first = dict(digests[::-1])
    differ = sum(1 for chunk, digest in digests if digest != first[chunk])
    res.failed += differ * n
    res.check("every pass over a chunk commands identical torques", differ == 0,
              f"{len(digests)} passes over {len(first)} chunks, {differ} differ")
    res.extra["output_sha256"] = hashlib.sha256(
        "".join(first[c] for c in sorted(first)).encode()).hexdigest()


def schedule_diagnostics(res, step_us):
    """5 kHz schedule diagnostics from the raw step times."""
    n = step_us.size
    over = int(np.sum(step_us > STEP_BUDGET_US))
    # Lindley recursion for an open-loop 200 us schedule: w <- max(0, w + s - T)
    w = 0.0
    late = 0
    worst = 0.0
    for s in (step_us - STEP_BUDGET_US).tolist():
        w = w + s if w + s > 0.0 else 0.0
        if w > 0.0:
            late += 1
            worst = max(worst, w)
    p999 = np.percentile(step_us, 99.9)
    res.diagnostics.append(
        f"control.overruns = {over} of {n} steps over {STEP_BUDGET_US:.0f} us")
    res.diagnostics.append(
        f"control.late_steps = {late} of {n} steps late on an open-loop "
        f"{STEP_BUDGET_US:.0f} us schedule (max lateness {worst:.1f} us)")
    res.diagnostics.append(
        f"step_p99.9_us = {p999:.2f} us raw ({n} steps, "
        f"{int(np.sum(step_us > p999))} beyond)")


def control_traced_passes(rig, chunks, seconds):
    """The calls ``ControlLoop.step`` makes, in its order, each timed;
    returns pass times, nanoseconds per layer and calls per layer."""
    clock = time.perf_counter_ns
    ns = dict.fromkeys(CONTROL_CALLS, 0)
    calls = dict.fromkeys(CONTROL_CALLS, 0)
    regressor, tables, left, right = rig.regressor, rig.tables, rig.left, rig.right

    def one_pass(k):
        est = AccelerationEstimator()
        frames = iter(chunks[k % len(chunks)].frames())
        f_ns = e_ns = p_ns = g_ns = one_ns = both_ns = r_ns = c_ns = 0
        one = both = 0
        while True:
            t0 = clock()
            frame = next(frames, None)
            t1 = clock()
            if frame is None:
                break
            q = frame.q
            qd, qdd = est.push(frame.t, q)
            degraded = qdd is None
            qd = _ZERO6 if qd is None else qd
            qdd = _ZERO6 if qdd is None else qdd
            t2 = clock()
            raw = regressor.phase(q)
            t3 = clock()
            g = gains(raw)
            t4 = clock()
            tau = blended_torque(q, qd, qdd, g.gamma_l, g.gamma_r, left,
                                 right, tables)
            t5 = clock()
            friction_ripple(tables, q, qd)
            t6 = clock()
            AssistCommand(t=frame.t, tau=tuple(tau), raw_phase=raw,
                          gamma_l=g.gamma_l, gamma_r=g.gamma_r,
                          degraded=degraded, qd=tuple(qd), qdd=tuple(qdd))
            t7 = clock()
            f_ns += t1 - t0
            e_ns += t2 - t1
            p_ns += t3 - t2
            g_ns += t4 - t3
            if g.gamma_l > 0.0 and g.gamma_r > 0.0:
                both_ns += t5 - t4
                both += 1
            else:
                one_ns += t5 - t4
                one += 1
            r_ns += t6 - t5
            c_ns += t7 - t6
        steps = one + both
        for key, total, count in (
                ("streams.frames_us", f_ns, steps),
                ("dynamics.estimator_push_us", e_ns, steps),
                ("segmentation.phase_us", p_ns, steps),
                ("blend.gains_us", g_ns, steps),
                ("dynamics.torque_one_side_us", one_ns, one),
                ("dynamics.torque_blended_us", both_ns, both),
                ("dynamics.friction_ripple_us", r_ns, steps),
                ("blend.command_us", c_ns, steps)):
            ns[key] += total
            calls[key] += count

    pass_s, _ = timed_passes(one_pass, seconds, 1)
    return pass_s, ns, calls


def run_control(res, args, inputs):
    size = SIZES[args.size]
    rig = build_rig(res, inputs)
    chunks = load_chunks(inputs, size["chunk_frames"])
    n = len(chunks[0])
    share = args.seconds / 2 if args.trace else args.seconds
    pass_s, speed, windows, samples, digests = control_loop_passes(
        res, rig, chunks, share)
    check_control(res, rig, n, samples, digests)
    if not args.trace:
        scaled_pass(res, pass_s, speed, n, f"{n} steps")
        scaled_percentiles(res, window_percentiles(windows),
                           [speed.factor(k) for k in range(len(windows))],
                           sum(w.size for w in windows),
                           f"ControlLoop.step timed by the caller, {n}-step windows")
        schedule_diagnostics(res, np.concatenate(windows))
        return
    traced_s, ns, calls = control_traced_passes(rig, chunks, share)
    layer = {key: total / 1e3 / calls[key] if calls[key] else 0.0
             for key, total in ns.items()}
    steps = calls["streams.frames_us"]
    layer["blend.blended_share"] = calls["dynamics.torque_blended_us"] / steps
    layer["control.traced_steps"] = steps
    k = len(traced_s)
    layer["trace.run_s"] = sum(traced_s) / k
    layer["trace.untraced_run_s"] = sum(pass_s) / len(pass_s)
    layer["other_s"] = (sum(traced_s) - sum(ns.values()) / 1e9) / k
    res.extra["layer"] = layer
    res.extra["layer_n"] = {"passes": k, **{key: calls[key] for key in CONTROL_CALLS},
                            "blend.blended_share": steps}


# ---------------------------------------------------------------------------
# analyze-gait, analyze-physio, sim-write
# ---------------------------------------------------------------------------


def quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def split_passes(args, body, min_passes):
    """Untraced passes, then (with --trace 1) traced ones.  Returns the
    untraced pass times with their reference readings, the traced pass
    times and the tracer."""
    if not args.trace:
        plain, speed = timed_passes(body, args.seconds, min_passes)
        return plain, speed, [], None
    plain, speed = timed_passes(body, args.seconds / 2, 1)
    with SpanTracer() as tracer:
        traced, _ = timed_passes(lambda k: body(len(plain) + k),
                                 args.seconds / 2, 1)
    return plain, speed, traced, tracer


def span_layers(res, plain, traced, tracer):
    """Per-layer self seconds and calls per traced pass, raw."""
    k = len(traced)
    total = sum(traced)
    layer = {}
    for name, self_s in tracer.self_s.items():
        layer[f"{name}_s"] = self_s / k
        layer[f"{name}_calls"] = tracer.calls[name] / k
    for name, value in tracer.counters.items():
        layer[name] = value / k
    layer["other_s"] = (total - sum(tracer.self_s.values())) / k
    layer["trace.run_s"] = total / k
    layer["trace.untraced_run_s"] = sum(plain) / len(plain)
    res.extra["layer"] = layer
    res.extra["layer_n"] = {"passes": k}
    for target in tracer.missing:
        res.diagnostics.append(f"trace target not found: {target}")


def subject_slices(report, sid):
    return json.dumps([report[section]["subjects"].get(sid)
                       for section in ("physiology", "psychophysiology",
                                       "questionnaire", "controller")],
                      sort_keys=True)


def run_analyze(res, args, inputs):
    facts = json.loads((inputs / "inputs.json").read_text())["facts"]
    frames = facts["gait_frames"]
    subjects = sorted(frames)
    set_dir = inputs / "set"
    out = args.work / "report.json"
    sidecar = out.with_name("report.timing.json")
    res.setup_s.append(0.0)   # analyze has no set-up beyond the import
    outputs = []

    def body(_k):
        rc = quiet_cli(["analyze", str(set_dir), "--out", str(out)])
        outputs.append((rc, out.read_bytes() if rc == 0 else b"",
                        sidecar.read_text() if rc == 0 else "{}"))

    plain, speed, traced, tracer = split_passes(args, body, 2)
    first = {}
    step_pct, step_factor, steps = [], [], 0
    for k, (rc, data, timing) in enumerate(outputs):
        res.attempted += len(subjects)
        if rc != 0:
            res.failed += len(subjects)
            res.check(f"pass {k}: exobench analyze exits 0", False, f"exit {rc}")
            continue
        report = json.loads(data)
        if not first:
            first = {"data": data, "report": report}
        bad = set()
        for sid in subjects:
            ctrl = report["controller"]["subjects"].get(sid, {})
            if ctrl.get("commands", 0) + ctrl.get("dropped_frames", 0) != frames[sid]:
                bad.add(sid)
            if subject_slices(report, sid) != subject_slices(first["report"], sid):
                bad.add(sid)
        if data != first["data"] and not bad:
            bad.add("set")
        res.failed += len(bad)
        if bad:
            res.check(f"pass {k}: report matches pass 0 and the inputs", False,
                      f"differs for {sorted(bad)}")
        if k < len(plain):
            for t in json.loads(timing)["subjects"].values():
                step_pct.append([t["p50_us"], t["p99_us"]])
                step_factor.append(speed.factor(k))
                steps += t["steps"]
    digest = hashlib.sha256(first.get("data", b"")).hexdigest()
    res.check("passes give a byte-identical report.json",
              len({d for rc, d, _ in outputs if rc == 0}) == 1,
              f"{len(outputs)} passes, report sha256 {digest}")
    res.extra["output_sha256"] = digest
    if args.trace:
        span_layers(res, plain, traced, tracer)
        return
    scaled_pass(res, plain, speed, sum(frames.values()),
                f"exobench analyze over {len(subjects)} subjects")
    scaled_percentiles(res, np.array(step_pct), step_factor, steps,
                       "analyze's timing sidecar, one window per subject and pass")


def readback_probe(res, set_dir: Path, frames: int):
    """Replay the start of the first generated gait stream through a control
    loop built from the generated calibration and training recording, in
    windows of PROBE_WINDOW steps; returns per-window [p50, p99] and scale
    factors."""
    subject = sorted((set_dir / "subjects").iterdir())[0]
    params, tables = load_calibration(set_dir / "calibration.json")
    regressor = train(training_session_builder(
        SensorStream.load_csv(subject / "training.csv")))
    stream = SensorStream.load_csv(subject / "gait_stream.csv")
    loop = ControlLoop(StanceModel("left", params), StanceModel("right", params),
                       regressor, tables, rate=CONTROL_RATE_HZ)
    probe = list(stream.frames())[:frames]
    for frame in probe[:PROBE_WINDOW // 10]:
        loop.step(frame)
    loop.reset()
    clock = time.perf_counter_ns
    finite = True
    windows = []

    def one_window(k):
        nonlocal finite
        step_ns = []
        for frame in probe[k * PROBE_WINDOW:(k + 1) * PROBE_WINDOW]:
            t0 = clock()
            cmd = loop.step(frame)
            step_ns.append(clock() - t0)
            finite = finite and bool(np.all(np.isfinite(cmd.tau)))
        windows.append(np.asarray(step_ns) / 1e3)

    _, speed = timed_passes(one_window, 0.0, max(1, len(probe) // PROBE_WINDOW))
    res.check("generated gait stream reads back and replays to finite torques",
              finite, f"{len(probe)} steps of {subject.name}")
    if not finite:
        res.failed += 1
    return window_percentiles(windows), [speed.factor(k) for k in range(len(windows))]


def run_sim(res, args, inputs):
    size = SIZES[args.size]
    subjects = size["sim_subjects"]
    res.setup_s.append(0.0)   # sim has no set-up beyond the import
    outputs = []

    def body(k):
        out = args.work / f"sim_{k}"
        rc = quiet_cli(["sim", "--kind", "session-set", "--out", str(out),
                        "--subjects", str(subjects), "--seed", str(args.seed)])
        outputs.append((rc, out))

    plain, speed, traced, tracer = split_passes(args, body, 2)
    digests = []
    frames = 0
    for k, (rc, out) in enumerate(outputs):
        res.attempted += subjects
        if rc != 0:
            res.failed += subjects
            res.check(f"pass {k}: exobench sim exits 0", False, f"exit {rc}")
            digests.append({})
            continue
        digests.append(tree_digests(out))
        if k == 0:
            for path in sorted(out.glob("subjects/*/gait_stream.csv")):
                with open(path, "rb") as f:
                    frames += sum(1 for _ in f) - 1
        if k > 0:
            shutil.rmtree(out)
    ref = digests[0]
    for k, d in enumerate(digests[1:], start=1):
        diff = {p.split("/")[1] if p.startswith("subjects/") else "set"
                for p in set(ref) | set(d) if ref.get(p) != d.get(p)}
        failed = subjects if "set" in diff else len(diff)
        res.failed += failed
        if diff:
            res.check(f"pass {k}: files identical to pass 0", False,
                      f"differs for {sorted(diff)}")
    combined = hashlib.sha256(json.dumps(ref, sort_keys=True).encode()).hexdigest()
    res.check("same seed writes identical files",
              all(d == ref for d in digests),
              f"{len(digests)} generations, {len(ref)} files, "
              f"combined sha256 {combined}")
    res.extra["output_sha256"] = combined
    res.extra["generated_sha256"] = ref
    pct, factors = readback_probe(res, outputs[0][1], size["probe_frames"])
    if args.trace:
        span_layers(res, plain, traced, tracer)
        return
    scaled_pass(res, plain, speed, frames, f"exobench sim over {subjects} subjects")
    scaled_percentiles(res, pct, factors, size["probe_frames"],
                       "read-back replay of the generated stream after the passes")


RUNNERS = {
    "control-5khz": run_control,
    "analyze-gait": run_analyze,
    "analyze-physio": run_analyze,
    "sim-write": run_sim,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="exobench benchmark worker")
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--inputs", type=Path, default=None)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    res = Result()
    RUNNERS[args.workload](res, args, args.inputs)
    res.metric("peak_rss_mb", peak_rss_mb(), "MB", 1, "worker ru_maxrss")
    res.extra["provenance"] = {
        "torque_backend": backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "exobench": exobench.__version__,
    }
    if args.trace:
        for name in per_layer_units():
            res.extra["layer"].setdefault(name, 0.0)
    args.result.write_text(json.dumps(res.to_dict(), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
