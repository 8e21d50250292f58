"""Synthetic full-session data: physiology, questionnaire answers, gait.

Everything here is seed-reproducible desk-scale data for exercising the
analysis pipeline end to end: a three-phase physiological recording with
plausible trends (heart and respiration rates climb during walking, vagal
variability drops, skin conductance events become more frequent), a
positive-leaning questionnaire response set, and per-subject gait streams
for the controller.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from .biosignal import (ECG_FS, GSR_FS, PHASE_SIT, PHASE_SIT_EXO, PHASE_WALK,
                        RESP_FS, SIT_DURATION_S, WALK_DURATION_S,
                        PhysioSession)
from .dynamics import CompensationTables, ExoParams, save_calibration
from .fuzzy import default_fuzzy_model
from .questionnaire import (EQDefinition, QuestionnaireResponse, TIE,
                            default_definition, reverse_map,
                            save_preferences_csv, save_responses_csv)
from .simulator import (GaitPattern, check_size, generate_cycle,
                        generate_training_protocol)
from .streams import write_json

SET_SCHEMA_VERSION = 1

SIT_EXO_DURATION_S = 180.0

SCR_RISE_S = 0.6     # skin-conductance response rise time constant
SCR_DECAY_S = 2.8    # and its recovery time constant
LEVEL_BLEND_S = 45.0  # width of the tanh crossfade between phase levels
# from this long after its onset a response's rise factor
# 1 - exp(-dt / SCR_RISE_S) rounds to exactly 1.0: exp(-40) < 2**-54, half
# an ulp of 1, so multiplying by it there would change no bit
_RISE_SETTLED_S = 40 * SCR_RISE_S


def _scr_bumps(t, onsets, amplitudes):
    """Sum over the ``onsets`` (s), in the order given, of
    ``amp * ((1 - exp(-dt / SCR_RISE_S)) * exp(-dt / SCR_DECAY_S))`` at the
    samples of the ascending grid ``t`` (s) after each onset, ``dt`` being
    the time since it.  The same products are taken in commuted order
    (``dt / -c`` is ``-dt / c`` exactly), and the rise factor only within
    ``_RISE_SETTLED_S`` of the onset, where it is not exactly 1.0."""
    x = np.zeros_like(t)
    bump = np.empty_like(t)
    rise = np.empty_like(t)
    for onset, amp in zip(onsets, amplitudes):
        start = np.searchsorted(t, onset, side="right")   # t ascends
        b = np.subtract(t[start:], onset, out=bump[start:])   # dt, ascending
        k = np.searchsorted(b, _RISE_SETTLED_S)
        r = np.divide(b[:k], -SCR_RISE_S, out=rise[:k])
        np.subtract(1.0, np.exp(r, out=r), out=r)
        np.exp(np.divide(b, -SCR_DECAY_S, out=b), out=b)      # the decay
        b[:k] *= r
        b *= amp
        x[start:] += b
    return x


def _stamp_beats(ecg, beats, fs, half, width):
    """Add to the ``fs`` Hz ``ecg`` a Gaussian of ``width`` s at each of the
    ``beats`` (s), over the ``2 * half + 1`` samples around the beat's own
    that lie in the recording, in beat order as a loop over beats adds."""
    at = (beats * fs).astype(np.intp)[:, None] + np.arange(-half, half + 1)
    inside = (at >= 0) & (at < ecg.size)
    bump = np.exp(-0.5 * ((at / fs - beats[:, None]) / width) ** 2)
    np.add.at(ecg, at[inside], bump[inside])


def _smooth_level(t, boundaries, levels):
    """Piecewise level with tanh crossfades at the phase boundaries."""
    out = np.full_like(t, levels[0], dtype=float)
    for b, (lo, hi) in zip(boundaries, zip(levels, levels[1:])):
        out += (hi - lo) * 0.5 * (1.0 + np.tanh((t - b) / (LEVEL_BLEND_S / 2.0)))
    return out


def synth_physio_session(seed: int = 0) -> PhysioSession:
    """One subject's recording with the protocol's phase structure and
    channel rates."""
    rng = np.random.default_rng(seed)
    t_sit_exo = SIT_DURATION_S
    t_walk = t_sit_exo + SIT_EXO_DURATION_S
    total = t_walk + WALK_DURATION_S

    hr_sit = 76.0 + rng.uniform(0.0, 5.0)
    hr_walk = 112.0 + rng.uniform(0.0, 9.0)

    def hr_at(t):
        if t < t_walk:
            return hr_sit + (1.5 if t >= t_sit_exo else 0.0)
        return hr_walk - (hr_walk - hr_sit - 6.0) * np.exp(-(t - t_walk) / 150.0)

    def hrv_amps(t):
        # (LF at 0.1 Hz, respiratory at 0.28 Hz, jitter), all in ms
        if t < t_walk:
            return 22.0, 16.0, 2.5
        return 9.0, 6.0, 1.5

    beats = [0.35]
    while beats[-1] < total:
        t = beats[-1]
        lf_amp, hf_amp, jitter = hrv_amps(t)
        interval_ms = (60000.0 / hr_at(t)
                       + lf_amp * np.sin(2 * np.pi * 0.1 * t)
                       + hf_amp * np.sin(2 * np.pi * 0.28 * t)
                       + rng.normal(scale=jitter))
        beats.append(t + interval_ms / 1000.0)
    beats = np.asarray(beats[:-1])

    n_ecg = int(total * ECG_FS)
    t_ecg = np.arange(n_ecg) / ECG_FS
    ecg = rng.normal(scale=0.02, size=n_ecg)
    ecg += 0.05 * np.sin(2 * np.pi * 0.33 * t_ecg)  # baseline wander
    _stamp_beats(ecg, beats, ECG_FS, half=int(0.06 * ECG_FS), width=0.012)

    rr_sit = 18.0 + rng.uniform(0.0, 2.0)
    rr_walk = 29.0 + rng.uniform(0.0, 3.0)
    n_resp = int(total * RESP_FS)
    t_resp = np.arange(n_resp) / RESP_FS
    rr_profile = _smooth_level(t_resp, [t_sit_exo, t_walk],
                               [rr_sit, rr_sit + 1.0, rr_walk])
    phase = 2 * np.pi * np.cumsum(rr_profile / 60.0) / RESP_FS
    resp = np.sin(phase) + rng.normal(scale=0.05, size=n_resp)

    n_gsr = int(total * GSR_FS)
    t_gsr = np.arange(n_gsr) / GSR_FS
    scl_sit = 4.6 + rng.uniform(0.0, 0.5)
    scl = _smooth_level(t_gsr, [t_sit_exo, t_walk],
                        [scl_sit, scl_sit - 0.1, scl_sit + 0.6])
    onsets = []
    amps = []
    cursor = 5.0
    while cursor < total - 8.0:
        rate_per_min = 4.0 if cursor < t_walk else 7.0
        cursor += rng.exponential(60.0 / rate_per_min)
        if cursor < total - 8.0:
            onsets.append(cursor)
            amps.append(rng.uniform(0.1, 0.25))
    gsr = scl + _scr_bumps(t_gsr, onsets, amps)
    gsr += rng.normal(scale=0.002, size=n_gsr)
    gsr = np.maximum(gsr, 0.05)

    markers = {PHASE_SIT: (0.0, t_sit_exo),
               PHASE_SIT_EXO: (t_sit_exo, t_walk),
               PHASE_WALK: (t_walk, total)}
    return PhysioSession(markers=markers, ecg=ecg, respiration=resp, gsr=gsr)


def synth_questionnaire_response(definition: EQDefinition, seed: int = 0,
                                 subject_id: str = "s01") -> QuestionnaireResponse:
    """Positive-leaning answers with consistent control twins."""
    rng = np.random.default_rng(seed)
    factor_tone = {f: rng.uniform(4.2, 5.8) for f in definition.factors}
    latent = {}
    scores = {}
    for item in definition.items:
        tone = factor_tone[definition.sub_factor_to_factor[item.sub_factor]]
        value = int(np.clip(round(rng.normal(loc=tone, scale=0.9)), 1, 7))
        latent[item.id] = value
        scores[item.id] = reverse_map(value, item.reversed)
    for pair in definition.control_pairs:
        # control twin lands within one point of its original most times
        twin = int(np.clip(latent[pair.original] + rng.integers(-1, 2), 1, 7))
        scores[pair.control] = reverse_map(
            twin, definition.item(pair.control).reversed)
    preferences = {}
    for factor in definition.factors:
        subs = definition.sub_factors_of(factor)
        order = list(rng.permutation(subs))
        pairs = []
        for a, b in itertools.combinations(subs, 2):
            if rng.random() < 0.1:
                pairs.append((a, b, TIE))
            else:
                winner = a if order.index(a) < order.index(b) else b
                pairs.append((a, b, winner))
        preferences[factor] = pairs
    return QuestionnaireResponse(subject_id=subject_id, scores=scores,
                                 preferences=preferences)


def synth_session_set(root, subjects: int = 5, seed: int = 0,
                      gait_seconds: float = 10.0,
                      control_rate: float = 5000.0) -> dict:
    """Write a complete multi-subject session set under ``root``.

    Layout: shared definition/model/calibration files at the top,
    per-subject directories with the physiological recording, the
    regressor training stream, and a gait stream for controller replay.
    Returns the manifest dict (also written to set_manifest.json).
    """
    if subjects < 1:
        raise ValueError(f"subjects must be at least 1, got {subjects}")
    check_size(control_rate, gait_seconds)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    definition = default_definition()
    definition.save(root / "eq_definition.json")
    write_json(root / "fuzzy_model.json", default_fuzzy_model().to_dict())
    save_calibration(root / "calibration.json", ExoParams(),
                     CompensationTables.default_synthetic())

    subject_ids = [f"s{k + 1:02d}" for k in range(subjects)]
    responses = []
    for sid in subject_ids:
        sdir = root / "subjects" / sid
        sdir.mkdir(parents=True, exist_ok=True)
        sub_seed = int(rng.integers(2**31))
        session = synth_physio_session(seed=sub_seed)
        session.save(sdir / "physio")
        pattern = GaitPattern(cadence=float(rng.uniform(95.0, 105.0)))
        protocol = generate_training_protocol(pattern,
                                              seed=int(rng.integers(2**31)))
        protocol.save_csv(sdir / "training.csv")
        cycles = max(1, round(gait_seconds / pattern.cycle_duration))
        stream = generate_cycle(pattern, rate=control_rate, cycles=cycles,
                                seed=int(rng.integers(2**31)), stage="gait")
        stream.save_csv(sdir / "gait_stream.csv")
        responses.append(synth_questionnaire_response(
            definition, seed=int(rng.integers(2**31)), subject_id=sid))
    save_responses_csv(root / "questionnaire_responses.csv", responses)
    save_preferences_csv(root / "questionnaire_preferences.csv", responses)

    manifest = {
        "schema_version": SET_SCHEMA_VERSION,
        "seed": seed,
        "subjects": subject_ids,
        "files": {
            "eq_definition": "eq_definition.json",
            "fuzzy_model": "fuzzy_model.json",
            "calibration": "calibration.json",
            "responses": "questionnaire_responses.csv",
            "preferences": "questionnaire_preferences.csv",
        },
    }
    write_json(root / "set_manifest.json", manifest)
    return manifest
