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
  ch. 5).  It adds each joint's torque, times a gain, into a six-wide
  output.  Its source is type-generic: native floats with ``math``
  sin/cos for the 5 kHz step, or ``(6, m)`` column stacks with
  ``np.sin``/``np.cos`` for m frames at once, bit-identically;
  ``blended_torque`` and ``blended_torque_array`` route through it, and
  gains (1, 0) give the single-stance compensation of one side.
* ``inertia_matrix`` / ``gravity_vector`` build the dense Lagrangian
  operators B(q) and G(q) from each body's reach coefficients with
  vectorised numpy: the oracle of the tests and the benchmark, imported
  from this module and not exported by the package.

Friction and ripple come from ``CompensationTables`` in one scalar form,
the ``ftab(qd[i]) + rtab(q[i])`` sum over ``_fr`` that ``friction_ripple``
and the control step compute, and one array form, ``evaluate_array``; a
hypothesis test pins the two bit for bit.

The inertial term's qd/qdd come from ``AccelerationEstimator``, one
critically damped alpha-beta-gamma tracker per joint, silent for a 0.1 s
warm-up.  ``push`` takes one sample of every joint for the control step;
``estimate_array`` continues it one joint column at a time over a block of
rows, and a hypothesis test pins the twins bit for bit.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigurationError
from .streams import read_json, write_json

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
        for name in ("back_length", "thigh_length", "shank_length",
                     "foot_height", "thigh_mass", "shank_mass", "foot_mass",
                     "back_mass"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 1.2 <= self.back_mass <= 8.0:
            raise ValueError("back_mass must lie in [1.2, 8] kg")
        if not 0.0 <= self.com_fraction <= 1.0:
            raise ValueError("com_fraction must lie in [0, 1]")
        if self.gravity <= 0:
            raise ValueError("gravity must be positive")


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

    def torque(self, q, qdd, perm, gain, out, sin=math.sin, cos=math.cos):
        """Add ``gain`` times B(q) @ qdd + G(q) into ``out``, by one
        Newton-Euler pass at qd = 0 over the lumped links.

        Base to tip: each link's absolute angle phi, angular acceleration
        alpha and proximal-joint acceleration (ax, ay), from an upward base
        acceleration g that stands in for gravity.  Tip to base: the force
        (fx, fy) each subtree needs and its moment about its joint, which
        is that joint's torque, added into ``out`` as soon as it is known.

        Joint i of the chain reads ``q[perm[i]]`` and ``qdd[perm[i]]`` and
        adds into ``out[perm[i]]``, so 6-joint vectors need no copy.
        Accepts any indexable float sequences and performs no validation.
        Accumulators are rebound rather than updated in place, so ``q``
        and ``qdd`` may also be (6, m) arrays, as may ``out`` with ``gain``
        an m-vector, with ``sin=np.sin, cos=np.cos``; each column then gets
        the scalar result bit for bit.
        """
        phi = alpha = ax = 0.0
        ay = self.gravity
        fwd = []
        for k, (l, mass, first, second) in zip(perm, self._links):
            phi = phi + q[k]
            alpha = alpha + qdd[k]
            s, c = sin(phi), cos(phi)
            fwd.append((k, l, mass, first, second, s, c, alpha, ax, ay))
            la = l * alpha
            ax = ax + la * c
            ay = ay - la * s
        fx = fy = moment = 0.0
        for k, l, mass, first, second, s, c, alpha, ax, ay in reversed(fwd):
            moment = (moment + l * (c * fx - s * fy)
                      + first * (c * ax - s * ay) + second * alpha)
            out[k] += gain * moment
            fa = first * alpha
            fx = fx + mass * ax + fa * c
            fy = fy + mass * ay - fa * s


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
    """Piecewise-linear table with endpoint clamping.

    A scalar query starts its interval search at ``_hint``, the interval
    the previous scalar query landed in, and takes it only when the query
    lies strictly inside it; otherwise it clamps and bisects as if there
    were no hint.  The hint is where a search starts and never decides a
    result, so a table shared by several joints stays correct and only
    searches more often.
    """

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
        # interval widths and rises, the differences the interpolation uses
        self._dx = np.diff(bp).tolist()
        self._dy = np.diff(val).tolist()
        self._hint = 0

    def __call__(self, x: float) -> float:
        xs = self._bp
        i = self._hint
        if not xs[i] < x < xs[i + 1]:
            ys = self._val
            if x <= xs[0]:
                return ys[0]
            if x >= xs[-1]:
                return ys[-1]
            i = bisect.bisect_right(xs, x) - 1
            # only NaN passes both clamps; bisect puts it past the last span
            if i == len(self._dx):
                return x
            self._hint = i
        return self._val[i] + (x - xs[i]) / self._dx[i] * self._dy[i]

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
        """The keyword arguments that rebuild this table."""
        return {"breakpoints": self.breakpoints.tolist(),
                "values": self.values.tolist()}


@dataclass
class CompensationTables:
    """Per-joint friction (velocity) and ripple (position) tables.

    Tables are required for every actuated joint; the passive ankles
    contribute zero.  Each table remembers the interval of its last scalar
    query as the start of the next search (see ``LookupTable1D``), so a
    table object shared by several joints gives the same torques and only
    searches more often; ``default_synthetic`` builds one per joint.
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

    def evaluate_array(self, q, qd) -> np.ndarray:
        """``friction_ripple`` of each of the (n, 6) rows of ``q`` and
        ``qd``, bit for bit, as an (n, 6) array with zero ankle columns."""
        out = np.zeros(np.shape(q))
        for joint in ACTUATED_JOINTS:
            idx = JOINTS.index(joint)
            out[:, idx] = (self.friction[joint].evaluate_array(qd[:, idx])
                           + self.ripple[joint].evaluate_array(q[:, idx]))
        return out

    @classmethod
    def default_synthetic(cls) -> "CompensationTables":
        """Viscous + smoothed-Coulomb friction and sinusoidal ripple,
        sampled onto tables.  Stands in for a device calibration file."""
        qd_grid = np.linspace(-4.0, 4.0, 81)
        fric = (FRICTION_VISCOUS * qd_grid
                + FRICTION_COULOMB * np.tanh(qd_grid / FRICTION_SMOOTH_VEL))
        q_grid = np.linspace(-1.6, 1.6, 81)
        rip = RIPPLE_AMPLITUDE * np.sin(RIPPLE_CYCLES * q_grid)
        return cls(friction={j: LookupTable1D(qd_grid, fric)
                             for j in ACTUATED_JOINTS},
                   ripple={j: LookupTable1D(q_grid, rip)
                           for j in ACTUATED_JOINTS})


def friction_ripple(tables: CompensationTables, q, qd) -> np.ndarray:
    """Summed friction + ripple compensation over all six joints (Nm)."""
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    if q.shape != (6,) or qd.shape != (6,):
        raise ValueError("q and qd must have shape (6,)")
    out = np.zeros(6)
    for i, ftab, rtab in tables._fr:
        out[i] = ftab(qd[i]) + rtab(q[i])
    return out


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
    Passive ankle entries are informational: see ``ACTUATED_MASK``.
    """
    return np.asarray(_blended_tau(q, qd, qdd, gamma_l, gamma_r, left, right,
                                   tables))


def _blended_tau(q, qd, qdd, gamma_l, gamma_r, left, right, tables):
    """``blended_torque`` as the 6-tuple ``AssistCommand.tau`` stores.  The
    sum starts at +0.0 and so never holds -0.0: leaving out the ankles'
    ``+ 0.0`` changes no bit."""
    tau6 = [0.0] * 6
    if gamma_l > 0.0:
        left.chain.torque(q, qdd, left.perm, gamma_l, tau6)
    if gamma_r > 0.0:
        right.chain.torque(q, qdd, right.perm, gamma_r, tau6)
    for i, ftab, rtab in tables._fr:
        tau6[i] += ftab(qd[i]) + rtab(q[i])
    return tuple(tau6)


def blended_torque_array(q, qd, qdd, gamma_l, gamma_r, left: StanceModel,
                         right: StanceModel,
                         tables: CompensationTables) -> np.ndarray:
    """``blended_torque`` for every row of (n, 6) arrays, bit for bit.

    Each side's chain runs ``PlanarChain.torque`` once, adding into (6, m)
    column stacks of the m rows whose gain is positive, and the terms are
    summed in the scalar path's order: gained stance torques into zeros,
    then the full six-wide compensation (zero ankle columns included).
    """
    tau = np.zeros(np.shape(q))
    for gain, model in ((gamma_l, left), (gamma_r, right)):
        rows = gain > 0.0
        if not rows.any():
            continue
        part = tau[rows].T
        model.chain.torque(q[rows].T, qdd[rows].T, model.perm, gain[rows],
                           part, sin=np.sin, cos=np.cos)
        tau[rows] = part.T
    return tau + tables.evaluate_array(q, qd)


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
    ``last_t`` is the time of the last sample taken, None before the first.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self._x = self.last_t = None

    def push(self, t: float, q):
        """Ingest one sample; returns (qd, qdd) lists, or (None, None) until
        ``WARMUP_S`` has passed since the first sample.  ``estimate_array``
        is its batch twin: keep the two recursions statement for statement
        alike."""
        if self._x is None:
            self._t0 = self.last_t = t
            self._x = list(q)
            self._v = self._a = [0.0] * len(self._x)
            return None, None
        dt = t - self.last_t
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
        self.last_t = t
        self._x, self._v, self._a = xs, vs, accs
        if t - self._t0 < WARMUP_S:
            return None, None
        return vs, accs

    def estimate_array(self, t, q):
        """``(qd, qdd, ready)`` for the rows of ``(t, q)``: exactly ``push``
        applied to each row in turn, from this estimator's state (the first
        row seeds a fresh one) to where the last ``push`` leaves it, with
        ``ready`` False and zero rows where ``push`` returns None.  A step
        that is not positive raises ``push``'s ``ValueError`` before any
        state changes.  It runs ``push``'s statements in order one joint
        column at a time, so every value is bit for bit the same."""
        ts = np.asarray(t).tolist()
        cols = np.asarray(q).T.tolist()
        qd = np.zeros(np.shape(q))
        qdd = np.zeros(np.shape(q))
        if not ts:
            return qd, qdd, np.zeros(0, dtype=bool)
        if self._x is None:   # the first row seeds x with v = a = 0
            t0, last, start = ts[0], ts[0], 1
            state = [(col[0], 0.0, 0.0) for col in cols]
        else:
            t0, last, start = self._t0, self.last_t, 0
            state = list(zip(self._x, self._v, self._a))
        dts = [b - a for a, b in zip([last] + ts[start:], ts[start:])]
        if not all(dt > 0 for dt in dts):   # NaN included
            raise ValueError("timestamps must be strictly increasing")
        gains = [_tracker_gains(dt) for dt in dts]
        for j, (col, (x, v, a)) in enumerate(zip(cols, state)):
            vs, accs = [], []
            for dt, (ka, kv, kacc, h), z in zip(dts, gains, col[start:]):
                xp = x + dt * (v + h * a)
                e = z - xp
                x = xp + ka * e
                v = v + dt * a + kv * e
                a = a + kacc * e
                vs.append(v)
                accs.append(a)
            qd[start:, j] = vs
            qdd[start:, j] = accs
            state[j] = x, v, a
        self._t0, self.last_t = t0, ts[-1]
        self._x, self._v, self._a = map(list, zip(*state))
        ready = ~(np.array(ts, dtype=float) - t0 < WARMUP_S)
        ready[:start] = False
        qd[~ready] = 0.0
        qdd[~ready] = 0.0
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
    write_json(path, {
        "schema_version": CALIBRATION_SCHEMA_VERSION,
        "link_parameters": asdict(params),
        "friction_tables": {j: tables.friction[j].to_dict() for j in ACTUATED_JOINTS},
        "ripple_tables": {j: tables.ripple[j].to_dict() for j in ACTUATED_JOINTS},
    })


def load_calibration(path):
    """Read a calibration file; returns (ExoParams, CompensationTables)."""
    return read_json(path, CALIBRATION_SCHEMA_VERSION, _calibration)


def _calibration(doc: dict):
    params = ExoParams(**doc["link_parameters"])
    friction = {j: LookupTable1D(**d) for j, d in doc["friction_tables"].items()}
    ripple = {j: LookupTable1D(**d) for j, d in doc["ripple_tables"].items()}
    return params, CompensationTables(friction=friction, ripple=ripple)
