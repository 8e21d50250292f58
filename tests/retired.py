"""The control step and the estimator update as plain Python, in the forms
the compiled ``ControlLoop.step`` and ``AccelerationEstimator.push``
replaced: the bitwise references the tests pin the generated code to."""

from math import isfinite

from exobench.blend import AssistCommand, _new_command, gains
from exobench.dynamics import WARMUP_S, _tracker_gains, blended_torque
from exobench.errors import OutOfOrderFrameError
from exobench.streams import ANGLE_LIMIT, angle_error

_ZERO6 = (0.0,) * 6


def retired_push(est, t, q):
    """``est.push(t, q)`` as a loop over the joints: (qd, qdd) lists, or
    (None, None) inside the warm-up."""
    if est._x is None:
        est._t0 = est.last_t = t
        est._x = list(q)
        est._v = est._a = [0.0] * len(est._x)
        return None, None
    dt = t - est.last_t
    ka, kv, kacc, h = _tracker_gains(dt)   # raises for a bad step
    xs, vs, accs = [], [], []
    for x, v, a, z in zip(est._x, est._v, est._a, q):
        xp = x + dt * (v + h * a)
        e = z - xp
        xs.append(xp + ka * e)
        vs.append(v + dt * a + kv * e)
        accs.append(a + kacc * e)
    est.last_t = t
    est._x, est._v, est._a = xs, vs, accs
    if t - est._t0 < WARMUP_S:
        return None, None
    return vs, accs


def retired_step(loop, frame) -> AssistCommand:
    """``loop.step(frame)`` composed of its public pieces, on ``loop``'s
    estimator: ``retired_push``, then ``phase``, ``gains`` and
    ``blended_torque``."""
    t = frame.t
    if not isfinite(t):
        raise ValueError(f"frame timestamp must be finite, got {t}")
    last = loop.estimator.last_t
    if last is not None and t <= last:
        raise OutOfOrderFrameError(f"frame at t={t} after t={last}")
    q = frame.q
    raw = loop.regressor.phase(q)
    gl, gr = gains(raw)
    if not (abs(q[0]) <= ANGLE_LIMIT and abs(q[1]) <= ANGLE_LIMIT
            and abs(q[2]) <= ANGLE_LIMIT and abs(q[3]) <= ANGLE_LIMIT
            and abs(q[4]) <= ANGLE_LIMIT and abs(q[5]) <= ANGLE_LIMIT):
        raise angle_error(q)
    qd, qdd = retired_push(loop.estimator, t, q)
    degraded = qd is None
    if degraded:
        qd = qdd = _ZERO6
    tau = blended_torque(q, qd, qdd, gl, gr, loop.left, loop.right,
                         loop.tables)
    return _new_command((t, tuple(tau.tolist()), raw, gl, gr, degraded,
                         tuple(qd), tuple(qdd)))
