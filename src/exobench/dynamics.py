"""Planar sagittal rigid-body model of the exoskeleton.

The device is modelled, for each single-stance configuration, as a serial
chain of five links rooted at the grounded ankle:

    stance shank -> stance thigh -> back -> swing thigh -> swing shank

Links are uniform rods (configurable centre-of-mass fraction, rod inertia
about the COM); the swing-side foot rides as a point mass fixed to the
swing shank.  Joint angles are relative, measured so that a fully vertical
chain is q = 0, and the chain tips toward +x for positive angles.

There is one torque evaluator plus a test oracle; they share only the
link parameters:

* ``PlanarChain.torque`` is one recursive Newton-Euler pass at qd = 0
  over links lumped into mass, first and second moment (point masses
  included), O(n) per chain (Luh, Walker & Paul 1980; Featherstone 2008,
  ch. 5).  Its source is type-generic: native floats with ``math``
  sin/cos for the 5 kHz step, or ``(6, m)`` column stacks with
  ``np.sin``/``np.cos`` for m frames at once, bit-identically;
  ``blended_torque``, ``blended_torque_array`` and ``stance_torque`` all
  route through it.
* ``inertia_matrix`` / ``gravity_vector`` build the dense Lagrangian
  operators B(q) and G(q) from each body's reach coefficients with
  vectorised numpy: the oracle of the tests and the benchmark.

The inertial term's qd/qdd come from ``AccelerationEstimator``, one
critically damped alpha-beta-gamma tracker per joint, silent for a 0.1 s
warm-up; ``estimate_array`` is ``push`` applied row by row.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SchemaError
from .streams import canonical_json

JOINTS = ("RH", "RK", "RA", "LH", "LK", "LA")
ACTUATED_JOINTS = ("RH", "RK", "LH", "LK")
ACTUATED_MASK = tuple(j in ACTUATED_JOINTS for j in JOINTS)

# permutation from the 6-joint sensor vector to the 5-joint stance chain
# (grounded ankle, grounded knee, grounded hip, swing hip, swing knee)
LEFT_STANCE_PERM = (5, 4, 3, 0, 1)
RIGHT_STANCE_PERM = (2, 1, 0, 3, 4)

CALIBRATION_SCHEMA_VERSION = 1

TRACKER_RATE = 80.0  # 1/s, pole rate of the qd/qdd tracker
# No estimate for this long after the first sample: the shortest multiple
# of 1/TRACKER_RATE after which, on the noise-free acceptance corpus, the
# inertial term switches on with a step (1.29 Nm) about the size of the
# largest steady jump (1.25 Nm); after 2/TRACKER_RATE the step is 4.5 Nm.
WARMUP_S = 8 / TRACKER_RATE

# friction and ripple of the synthetic device (see default_synthetic)
FRICTION_VISCOUS = 0.6     # Nm per rad/s
FRICTION_COULOMB = 0.8     # Nm
FRICTION_SMOOTH_VEL = 0.2  # rad/s, tanh width of the Coulomb step
RIPPLE_AMPLITUDE = 0.25    # Nm
RIPPLE_CYCLES = 9.0        # per rad


@dataclass(frozen=True)
class ExoParams:
    """Link geometry and mass distribution of the device.

    Lengths are joint-to-joint distances; ``foot_height`` is the ankle
    height above the ground contact plane.  ``back_mass`` defaults to the
    battery pack (4.3 kg) plus minimal structure and may be set anywhere
    in the supported [1.2, 8] kg range.
    """

    back_length: float = 0.474
    thigh_length: float = 0.407
    shank_length: float = 0.402
    foot_height: float = 0.095
    thigh_mass: float = 4.1
    shank_mass: float = 2.9
    foot_mass: float = 0.2
    back_mass: float = 4.3 + 1.2
    com_fraction: float = 0.5
    gravity: float = 9.81

    def __post_init__(self):
        for name in ("back_length", "thigh_length", "shank_length", "foot_height"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("thigh_mass", "shank_mass", "foot_mass", "back_mass"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 1.2 <= self.back_mass <= 8.0:
            raise ValueError("back_mass must lie in [1.2, 8] kg")
        if not 0.0 <= self.com_fraction <= 1.0:
            raise ValueError("com_fraction must lie in [0, 1]")
        if self.gravity <= 0:
            raise ValueError("gravity must be positive")


@dataclass(frozen=True)
class JointState:
    """Angle/velocity/acceleration snapshot of all six sagittal joints.

    Ordering is ``(RH, RK, RA, LH, LK, LA)``.
    """

    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        for name in ("q", "qd", "qdd"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (6,):
                raise ValueError(f"{name} must have shape (6,)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)


class PlanarChain:
    """Serial chain of rigid rods in a vertical plane, revolute joints.

    ``point_masses`` is a list of ``(link_index, distance, mass)`` tuples:
    point masses rigidly attached to a link at a given distance from its
    proximal joint.
    """

    def __init__(self, lengths, masses, com_fractions=None, inertias=None,
                 point_masses=(), gravity=9.81):
        self.lengths = tuple(float(v) for v in lengths)
        self.masses = tuple(float(v) for v in masses)
        n = len(self.lengths)
        if len(self.masses) != n:
            raise ValueError("lengths and masses must have the same size")
        if com_fractions is None:
            com_fractions = [0.5] * n
        self.com_fractions = tuple(float(v) for v in com_fractions)
        if inertias is None:
            # uniform rod about its COM
            inertias = [m * l * l / 12.0 for m, l in zip(self.masses, self.lengths)]
        self.inertias = tuple(float(v) for v in inertias)
        self.point_masses = tuple((int(k), float(d), float(m)) for k, d, m in point_masses)
        self.gravity = float(gravity)
        self.n = n
        self._precompute()

    def _precompute(self):
        n = self.n
        # a body at distance d along link k sits at
        # sum_{j<k} l_j u(phi_j) + d u(phi_k): its reach coefficients over
        # the joints feed the oracle, and its mass, first moment m*d and
        # second moment m*d^2 about joint k lump into link k for ``torque``
        bodies = [(k, f * l, m) for k, (f, l, m) in enumerate(
            zip(self.com_fractions, self.lengths, self.masses))]
        bodies += self.point_masses
        coefs = []
        lumped = [(0.0, 0.0, inertia) for inertia in self.inertias]
        for k, d, m in bodies:
            if not 0 <= k < n:
                raise ValueError("point mass attached to unknown link")
            coefs.append(self.lengths[:k] + (d,) + (0.0,) * (n - 1 - k))
            mass, first, second = lumped[k]
            lumped[k] = (mass + m, first + m * d, second + m * d * d)
        self._links = tuple((l, *lk) for l, lk in zip(self.lengths, lumped))
        C = np.asarray(coefs)
        m = np.asarray([body[2] for body in bodies])
        # oracle only: quadratic mass coupling and gravity weights
        self._P = (C.T * m) @ C
        self._w = m @ C
        # rotational inertia coupling: joints i and i' both spin every link
        # k >= max(i, i')
        tail = np.flip(np.cumsum(np.flip(np.asarray(self.inertias))))
        idx = np.arange(n)
        self._R = tail[np.maximum.outer(idx, idx)]

    # -- reference (vectorised) evaluators ---------------------------------

    def inertia(self, q) -> np.ndarray:
        """Joint-space inertia matrix, shape (n, n)."""
        q = self._check_q(q)
        phi = np.cumsum(q)
        s, c = np.sin(phi), np.cos(phi)
        cosd = np.multiply.outer(c, c) + np.multiply.outer(s, s)
        M = self._P * cosd
        Bv = np.flip(np.flip(M).cumsum(0).cumsum(1))
        return Bv + self._R

    def gravity_torque(self, q) -> np.ndarray:
        """Joint torques balancing gravity: the gradient of potential energy."""
        q = self._check_q(q)
        phi = np.cumsum(q)
        ws = self._w * np.sin(phi)
        return -self.gravity * np.flip(np.cumsum(np.flip(ws)))

    def potential_energy(self, q) -> float:
        q = self._check_q(q)
        phi = np.cumsum(q)
        return self.gravity * float(self._w @ np.cos(phi))

    def _check_q(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n,):
            raise ValueError(f"expected {self.n} joint angles")
        if not np.all(np.isfinite(q)):
            raise ValueError("joint angles must be finite")
        return q

    # -- recursive Newton-Euler evaluator (control-loop hot path) ----------

    def torque(self, q, qdd, perm, sin=math.sin, cos=math.cos):
        """B(q) @ qdd + G(q) as a list of per-joint values, by one
        Newton-Euler pass at qd = 0 over the lumped links.

        Base to tip: each link's absolute angle phi, angular acceleration
        alpha and proximal-joint acceleration (ax, ay), from an upward base
        acceleration g that stands in for gravity.  Tip to base: the force
        (fx, fy) each subtree needs and its moment about its joint, which
        is that joint's torque.

        Joint i of the chain reads ``q[perm[i]]`` and ``qdd[perm[i]]``, so
        6-joint sensor vectors go in without a copy.  Accepts any indexable
        float sequences and performs no validation.  Accumulators are
        rebound rather than updated in place, so ``q``/``qdd`` may also be
        (6, m) arrays evaluated with ``sin=np.sin, cos=np.cos``; each column
        then gets the scalar result bit for bit.
        """
        phi = alpha = ax = 0.0
        ay = self.gravity
        fwd = []
        for k, (l, mass, first, second) in zip(perm, self._links):
            phi = phi + q[k]
            alpha = alpha + qdd[k]
            s, c = sin(phi), cos(phi)
            fwd.append((l, mass, first, second, s, c, alpha, ax, ay))
            ax = ax + l * alpha * c
            ay = ay - l * alpha * s
        fx = fy = moment = 0.0
        tau = []
        for l, mass, first, second, s, c, alpha, ax, ay in reversed(fwd):
            moment = (moment + l * (c * fx - s * fy)
                      + first * (c * ax - s * ay) + second * alpha)
            tau.append(moment)
            fx = fx + mass * ax + first * alpha * c
            fy = fy + mass * ay - first * alpha * s
        tau.reverse()
        return tau


class StanceModel:
    """Single-stance chain for one grounded side plus its joint permutation."""

    def __init__(self, side: str, params: ExoParams | None = None):
        side = side.lower()
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.side = side
        self.params = params or ExoParams()
        p = self.params
        self.perm = LEFT_STANCE_PERM if side == "left" else RIGHT_STANCE_PERM
        # the grounded foot is part of the fixed base; the swing foot rides
        # the swing shank as a point mass at ankle height past the knee span
        self.chain = PlanarChain(
            lengths=[p.shank_length, p.thigh_length, p.back_length,
                     p.thigh_length, p.shank_length],
            masses=[p.shank_mass, p.thigh_mass, p.back_mass,
                    p.thigh_mass, p.shank_mass],
            com_fractions=[p.com_fraction] * 5,
            point_masses=[(4, p.shank_length + p.foot_height, p.foot_mass)],
            gravity=p.gravity,
        )


def inertia_matrix(model: StanceModel, q5) -> np.ndarray:
    """Configuration-dependent 5x5 joint-space inertia matrix (kg m^2)."""
    return model.chain.inertia(q5)


def gravity_vector(model: StanceModel, q5) -> np.ndarray:
    """Gravity-balancing torques for the 5-joint stance chain (Nm)."""
    return model.chain.gravity_torque(q5)


# ---------------------------------------------------------------------------
# lookup-table compensation (friction and torque ripple)
# ---------------------------------------------------------------------------


class LookupTable1D:
    """Piecewise-linear table with endpoint clamping."""

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        val = np.asarray(values, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if val.shape != bp.shape:
            raise ValueError("values must match breakpoints in length")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(val))):
            raise ValueError("table entries must be finite")
        self.breakpoints = bp
        self.values = val
        self._bp = bp.tolist()
        self._val = val.tolist()

    def __call__(self, x: float) -> float:
        xs = self._bp
        ys = self._val
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        i = bisect.bisect_right(xs, x) - 1
        try:
            t = (x - xs[i]) / (xs[i + 1] - xs[i])
        except IndexError:   # only NaN passes both clamps; bisect puts it last
            return x
        return ys[i] + t * (ys[i + 1] - ys[i])

    def evaluate_array(self, x) -> np.ndarray:
        """``__call__`` applied to every entry of a float array, with the
        same interval search, interpolation formula and end clamps.  The
        interpolation runs on ``x`` clipped to the table, so an infinite
        entry never meets a flat end segment as ``inf * 0``."""
        xs = self.breakpoints
        ys = self.values
        xc = np.clip(x, xs[0], xs[-1])
        i = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, xs.size - 2)
        x0 = xs[i]
        y0 = ys[i]
        t = (xc - x0) / (xs[i + 1] - x0)
        y = y0 + t * (ys[i + 1] - y0)
        return np.where(x <= xs[0], ys[0], np.where(x >= xs[-1], ys[-1], y))

    def to_dict(self) -> dict:
        return {"breakpoints": self.breakpoints.tolist(),
                "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "LookupTable1D":
        return cls(d["breakpoints"], d["values"])


@dataclass
class CompensationTables:
    """Per-joint friction (velocity) and ripple (position) tables.

    Tables are required for every actuated joint; the passive ankles
    contribute zero.
    """

    friction: dict = field(default_factory=dict)
    ripple: dict = field(default_factory=dict)

    def __post_init__(self):
        for joint in ACTUATED_JOINTS:
            if joint not in self.friction:
                raise ConfigurationError(f"missing friction table for joint {joint}")
            if joint not in self.ripple:
                raise ConfigurationError(f"missing ripple table for joint {joint}")
        # bound methods: calling them skips the instance __call__ lookup
        self._fr = tuple(
            (JOINTS.index(j), self.friction[j].__call__,
             self.ripple[j].__call__)
            for j in ACTUATED_JOINTS
        )

    def evaluate_scalar(self, q, qd):
        """Compensation torques as a list of 6 floats (ankles zero)."""
        out = [0.0] * 6
        for idx, ftab, rtab in self._fr:
            out[idx] = ftab(qd[idx]) + rtab(q[idx])
        return out

    def evaluate_array(self, q, qd) -> np.ndarray:
        """``evaluate_scalar`` over (n, 6) rows, as an (n, 6) array."""
        out = np.zeros(np.shape(q))
        for joint in ACTUATED_JOINTS:
            idx = JOINTS.index(joint)
            out[:, idx] = (self.friction[joint].evaluate_array(qd[:, idx])
                           + self.ripple[joint].evaluate_array(q[:, idx]))
        return out

    @classmethod
    def zeroed(cls) -> "CompensationTables":
        flat = LookupTable1D([-10.0, 10.0], [0.0, 0.0])
        return cls(friction={j: flat for j in ACTUATED_JOINTS},
                   ripple={j: flat for j in ACTUATED_JOINTS})

    @classmethod
    def default_synthetic(cls) -> "CompensationTables":
        """Viscous + smoothed-Coulomb friction and sinusoidal ripple,
        sampled onto tables.  Stands in for a device calibration file."""
        qd_grid = np.linspace(-4.0, 4.0, 81)
        fric = (FRICTION_VISCOUS * qd_grid
                + FRICTION_COULOMB * np.tanh(qd_grid / FRICTION_SMOOTH_VEL))
        q_grid = np.linspace(-1.6, 1.6, 81)
        rip = RIPPLE_AMPLITUDE * np.sin(RIPPLE_CYCLES * q_grid)
        ftab = LookupTable1D(qd_grid, fric)
        rtab = LookupTable1D(q_grid, rip)
        return cls(friction={j: ftab for j in ACTUATED_JOINTS},
                   ripple={j: rtab for j in ACTUATED_JOINTS})


def friction_ripple(tables: CompensationTables, q, qd) -> np.ndarray:
    """Summed friction + ripple compensation over all six joints (Nm)."""
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    if q.shape != (6,) or qd.shape != (6,):
        raise ValueError("q and qd must have shape (6,)")
    return np.asarray(tables.evaluate_scalar(q, qd))


# ---------------------------------------------------------------------------
# canonical full-torque evaluation
# ---------------------------------------------------------------------------


def blended_torque(q, qd, qdd, gamma_l: float, gamma_r: float,
                   left: StanceModel, right: StanceModel,
                   tables: CompensationTables) -> np.ndarray:
    """Gain-weighted mix of the two stance compensations plus the
    (unblended) friction/ripple terms, over all six joints.

    A side whose gain is exactly zero is skipped entirely, so saturated
    gains reproduce the corresponding single-stance torque bit for bit.
    """
    tau6 = [0.0] * 6
    if gamma_l > 0.0:
        perm = left.perm
        for k, x in zip(perm, left.chain.torque(q, qdd, perm)):
            tau6[k] += gamma_l * x
    if gamma_r > 0.0:
        perm = right.perm
        for k, x in zip(perm, right.chain.torque(q, qdd, perm)):
            tau6[k] += gamma_r * x
    return np.asarray([a + b for a, b in
                       zip(tau6, tables.evaluate_scalar(q, qd))])


def blended_torque_array(q, qd, qdd, gamma_l, gamma_r, left: StanceModel,
                         right: StanceModel,
                         tables: CompensationTables) -> np.ndarray:
    """``blended_torque`` for every row of (n, 6) arrays, bit for bit.

    Each side's chain runs ``PlanarChain.torque`` once, on (6, m) column
    stacks of the m rows whose gain is positive, and the terms are summed
    in the scalar path's order: gained stance torques into zeros, then the
    full six-wide compensation (zero ankle columns included).
    """
    tau = np.zeros(np.shape(q))
    for gain, model in ((gamma_l, left), (gamma_r, right)):
        rows = gain > 0.0
        if not rows.any():
            continue
        perm = model.perm
        parts = model.chain.torque(q[rows].T, qdd[rows].T, perm,
                                   sin=np.sin, cos=np.cos)
        g = gain[rows]
        for k, x in zip(perm, parts):
            tau[rows, k] += g * x
    return tau + tables.evaluate_array(q, qd)


def stance_torque(model: StanceModel, state: JointState,
                  tables: CompensationTables) -> np.ndarray:
    """Full single-stance compensation torque in the 6-joint space.

    Inertia and gravity act in the 5-joint stance space and are scattered
    back (swing-side ankle entry zero); friction and ripple are added per
    joint.  Passive ankle entries are informational: see ``ACTUATED_MASK``.
    """
    return blended_torque(state.q, state.qd, state.qdd, 1.0, 0.0,
                          model, model, tables)


# ---------------------------------------------------------------------------
# acceleration estimation
# ---------------------------------------------------------------------------


class AccelerationEstimator:
    """Joint velocity and acceleration from a steady-state alpha-beta-gamma
    tracker: per joint, angle x, velocity v and acceleration a predict the
    next sample as ``xp = x + dt*(v + dt/2*a)``, and the residual
    ``e = z - xp`` corrects all three with the gains of ``_tracker_gains``.
    The first sample seeds x with v = a = 0; no estimate is given until
    ``WARMUP_S`` after it, while that start-up transient decays.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self._x = None

    def push(self, t: float, q):
        """Ingest one sample; returns (qd, qdd) lists, or (None, None) until
        ``WARMUP_S`` has passed since the first sample."""
        if self._x is None:
            self._t0 = self._t = t
            self._x = list(q)
            self._v = self._a = [0.0] * len(self._x)
            return None, None
        dt = t - self._t
        if not dt > 0:   # NaN included
            raise ValueError("timestamps must be strictly increasing")
        ka, kv, kacc, h = _tracker_gains(dt)
        xs, vs, accs = [], [], []
        for x, v, a, z in zip(self._x, self._v, self._a, q):
            xp = x + dt * (v + h * a)
            e = z - xp
            xs.append(xp + ka * e)
            vs.append(v + dt * a + kv * e)
            accs.append(a + kacc * e)
        self._t = t
        self._x, self._v, self._a = xs, vs, accs
        if t - self._t0 < WARMUP_S:
            return None, None
        return vs, accs

    def estimate_array(self, t, q):
        """``(qd, qdd, ready)`` for every row of a stream: what a fresh
        estimator's ``push`` returns row by row, with ``ready`` False and
        zero rows where it returns None.  This estimator is left alone."""
        est = AccelerationEstimator()
        qd = np.zeros(np.shape(q))
        qdd = np.zeros(np.shape(q))
        ready = np.zeros(len(t), dtype=bool)
        for i, (ti, qi) in enumerate(zip(np.asarray(t).tolist(),
                                         np.asarray(q).tolist())):
            v, a = est.push(ti, qi)
            if v is not None:
                qd[i] = v
                qdd[i] = a
                ready[i] = True
        return qd, qdd, ready


@functools.lru_cache(maxsize=64)   # a uniform 5 kHz stream has 17 steps
def _tracker_gains(dt: float):
    """``(alpha, beta/dt, gamma/dt**2, dt/2)`` of the tracker for a step dt:
    with r = exp(-TRACKER_RATE*dt), alpha = 1 - r**3, beta = 1.5*(1-r)**2
    *(1+r) and gamma = (1-r)**3 put a triple, critically damped pole at r."""
    r = math.exp(-TRACKER_RATE * dt)
    u = 1.0 - r
    return (1.0 - r * r * r, 1.5 * u * u * (1.0 + r) / dt,
            u * u * u / (dt * dt), 0.5 * dt)


# ---------------------------------------------------------------------------
# calibration file
# ---------------------------------------------------------------------------


def save_calibration(path, params: ExoParams, tables: CompensationTables):
    doc = {
        "schema_version": CALIBRATION_SCHEMA_VERSION,
        "link_parameters": {
            "back_length": params.back_length,
            "thigh_length": params.thigh_length,
            "shank_length": params.shank_length,
            "foot_height": params.foot_height,
            "thigh_mass": params.thigh_mass,
            "shank_mass": params.shank_mass,
            "foot_mass": params.foot_mass,
            "back_mass": params.back_mass,
            "com_fraction": params.com_fraction,
            "gravity": params.gravity,
        },
        "friction_tables": {j: tables.friction[j].to_dict() for j in ACTUATED_JOINTS},
        "ripple_tables": {j: tables.ripple[j].to_dict() for j in ACTUATED_JOINTS},
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(canonical_json(doc))


def load_calibration(path):
    """Read a calibration file; returns (ExoParams, CompensationTables)."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema_version") != CALIBRATION_SCHEMA_VERSION:
        raise SchemaError(f"unsupported calibration schema_version "
                          f"{doc.get('schema_version')!r}")
    try:
        params = ExoParams(**doc["link_parameters"])
        friction = {j: LookupTable1D.from_dict(d)
                    for j, d in doc["friction_tables"].items()}
        ripple = {j: LookupTable1D.from_dict(d)
                  for j, d in doc["ripple_tables"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed calibration file: {exc}") from exc
    return params, CompensationTables(friction=friction, ripple=ripple)
