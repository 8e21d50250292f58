import bisect
import itertools
import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from exobench.blend import ControlLoop
from exobench.dynamics import (
    ACTUATED_JOINTS,
    ACTUATED_MASK,
    WARMUP_S,
    AccelerationEstimator,
    CompensationTables,
    ExoParams,
    LookupTable1D,
    PlanarChain,
    StanceModel,
    blended_torque,
    blended_torque_array,
    friction_ripple,
    gravity_vector,
    inertia_matrix,
    load_calibration,
    save_calibration,
)
from exobench.errors import ConfigurationError
from exobench.segmentation import GaitRegressor
from exobench.simulator import GaitPattern, generate_cycle
from exobench.streams import SensorFrame


def two_link_textbook_inertia(m1, l1, m2, l2, q2, c=0.5):
    """Independent oracle: the classic planar two-link inertia matrix with
    COM at fraction c of each rod and rod inertia m l^2 / 12."""
    r1, r2 = c * l1, c * l2
    i1, i2 = m1 * l1 * l1 / 12.0, m2 * l2 * l2 / 12.0
    b11 = m1 * r1**2 + i1 + m2 * (l1**2 + r2**2 + 2 * l1 * r2 * math.cos(q2)) + i2
    b12 = m2 * (r2**2 + l1 * r2 * math.cos(q2)) + i2
    b22 = m2 * r2**2 + i2
    return np.array([[b11, b12], [b12, b22]])


class TestInertiaMatrix:
    def test_point_mass_pendulum(self):
        # single massless rod carrying a point mass at distance l
        m, l = 1.7, 0.6
        chain = PlanarChain(lengths=[1.0], masses=[1e-12],
                            com_fractions=[0.5], inertias=[0.0],
                            point_masses=[(0, l, m)])
        for q in (0.0, 0.4, -1.2, 2.9):
            B = chain.inertia([q])
            assert B[0, 0] == pytest.approx(m * l * l, rel=1e-12)

    def test_two_link_matches_textbook(self):
        chain = PlanarChain(lengths=[1.0, 1.0], masses=[1.0, 1.0])
        B = chain.inertia([0.0, 0.0])
        expected = two_link_textbook_inertia(1.0, 1.0, 1.0, 1.0, 0.0)
        np.testing.assert_allclose(B, expected, rtol=1e-12)

    def test_two_link_textbook_random_configs(self):
        rng = np.random.default_rng(7)
        chain = PlanarChain(lengths=[0.9, 0.6], masses=[2.1, 1.3])
        for _ in range(50):
            q = rng.uniform(-math.pi, math.pi, 2)
            expected = two_link_textbook_inertia(2.1, 0.9, 1.3, 0.6, q[1])
            np.testing.assert_allclose(chain.inertia(q), expected, rtol=1e-10)

    def test_symmetric_positive_definite_random(self):
        model = StanceModel("left")
        rng = np.random.default_rng(42)
        for _ in range(200):
            q5 = rng.uniform(-math.pi, math.pi, 5)
            B = inertia_matrix(model, q5)
            assert np.max(np.abs(B - B.T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(B)) > 0

    def test_rejects_nonfinite(self):
        model = StanceModel("left")
        with pytest.raises(ValueError):
            inertia_matrix(model, [0.0, np.nan, 0.0, 0.0, 0.0])


class TestGravityVector:
    def test_vertical_chain_is_equilibrium(self):
        model = StanceModel("right")
        np.testing.assert_allclose(gravity_vector(model, np.zeros(5)),
                                    np.zeros(5), atol=1e-12)

    def test_horizontal_thigh_pendulum(self):
        # analytic oracle m*g*l*c for a single rod held horizontal
        p = ExoParams()
        chain = PlanarChain(lengths=[p.thigh_length], masses=[p.thigh_mass],
                            com_fractions=[0.5], gravity=9.81)
        expected = p.thigh_mass * 9.81 * 0.5 * p.thigh_length
        g_pos = chain.gravity_torque([math.pi / 2])
        assert abs(g_pos[0]) == pytest.approx(8.185, abs=1e-3)
        assert g_pos[0] == pytest.approx(-expected, rel=1e-12)
        assert chain.gravity_torque([-math.pi / 2])[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_potential_energy_gradient(self):
        model = StanceModel("left")
        chain = model.chain
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(50):
            q5 = rng.uniform(-math.pi, math.pi, 5)
            G = gravity_vector(model, q5)
            fd = np.zeros(5)
            for i in range(5):
                qp, qm = q5.copy(), q5.copy()
                qp[i] += h
                qm[i] -= h
                fd[i] = (chain.potential_energy(qp) - chain.potential_energy(qm)) / (2 * h)
            scale = max(1.0, np.max(np.abs(G)))
            assert np.max(np.abs(G - fd)) / scale < 1e-6


def lookup_reference(tab, x):
    """A stateless ``LookupTable1D.__call__``: the end clamps, a bisection
    over all breakpoints and the interpolation of every query from
    scratch; the reference for the search that starts at the last
    interval."""
    xs = tab.breakpoints.tolist()
    ys = tab.values.tolist()
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    i = bisect.bisect_right(xs, x) - 1
    if i == len(xs) - 1:   # NaN
        return x
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return ys[i] + t * (ys[i + 1] - ys[i])


@st.composite
def lookup_tables(draw):
    """Random tables; values drawn often from a few repeats give flat
    segments, and both signed zeros."""
    xs = sorted(draw(st.lists(st.floats(-50.0, 50.0), min_size=2,
                              max_size=12, unique=True)))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.5]),
                      st.floats(-10.0, 10.0))
    ys = draw(st.lists(value, min_size=len(xs), max_size=len(xs)))
    return LookupTable1D(xs, ys)


@st.composite
def lookup_queries(draw, tab):
    """A query sequence mixing a random walk, jumps, and exact
    breakpoints, their neighbours, the ends, values beyond them, signed
    zeros, NaN and infinities."""
    xs = tab.breakpoints.tolist()
    lo, hi = xs[0], xs[-1]
    span = hi - lo
    specials = [lo - span, hi + span, 0.0, -0.0, math.nan, math.inf,
                -math.inf]
    for b in xs:
        specials += [b, math.nextafter(b, -math.inf),
                     math.nextafter(b, math.inf)]
    moves = st.one_of(
        st.tuples(st.just("walk"), st.floats(-0.02, 0.02)),
        st.tuples(st.just("jump"), st.floats(lo - 0.5 * span, hi + 0.5 * span)),
        st.tuples(st.just("special"), st.sampled_from(specials)))
    walk = draw(st.floats(lo, hi))
    out = []
    for kind, value in draw(st.lists(moves, min_size=1, max_size=60)):
        if kind == "special":
            out.append(value)
            continue
        walk = walk + value * span if kind == "walk" else value
        out.append(walk)
    return out


def float_bits(values):
    return [struct.pack("d", v) for v in values]


class TestLookupTables:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_hinted_search_matches_stateless_reference(self, data):
        tab = data.draw(lookup_tables())
        first = data.draw(lookup_queries(tab))
        second = data.draw(lookup_queries(tab))
        # one stream, then two interleaved ones, as a table shared by
        # several joints is queried, all on the same table object
        mixed = [x for pair in zip(first, second) for x in pair]
        for stream in (first, mixed):
            got = [tab(x) for x in stream]
            expected = [lookup_reference(tab, x) for x in stream]
            assert float_bits(got) == float_bits(expected)

    def test_breakpoint_after_a_query_inside_its_interval(self):
        # each interval's midpoint sets the hint, then both of its ends are
        # queried: on these values the formula run from the wrong side of
        # a breakpoint rounds (10 + (1e-20 - 10) is 0) or, at the first
        # breakpoint, loses the sign of -0.0
        xs = [-2.0, -1.0, 0.0, 0.5, 3.0, 7.0]
        tab = LookupTable1D(xs, [-0.0, 0.0, 10.0, 1e-20, -0.0, 0.0])
        for lo, hi in zip(xs, xs[1:]):
            for x in (0.5 * (lo + hi), lo, 0.5 * (lo + hi), hi):
                assert float_bits([tab(x)]) == float_bits(
                    [lookup_reference(tab, x)])

    def test_walk_inside_one_interval_searches_once(self, monkeypatch):
        tab = LookupTable1D([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 4.0, 9.0])
        queries = [1.1, 1.5, 1.9, 1.2, 2.5, 2.0, 5.0, 2.25]
        expected = [lookup_reference(tab, x) for x in queries]
        searches = []
        bisect_right = bisect.bisect_right
        monkeypatch.setattr(bisect, "bisect_right", lambda xs, x: (
            searches.append(x) or bisect_right(xs, x)))
        assert [tab(x) for x in queries] == expected
        # a new interval and an exact breakpoint search; a clamp and a
        # query back inside the last interval do not
        assert searches == [1.1, 2.5, 2.0]

    def test_zero_at_zero_breakpoint(self):
        tab = LookupTable1D([-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0])
        assert tab(0.0) == 0.0

    def test_midway_interpolation(self):
        tab = LookupTable1D([0.0, 1.0], [1.0, 2.0])
        assert tab(0.5) == pytest.approx(1.5)

    def test_clamps_beyond_range(self):
        tab = LookupTable1D([0.0, 1.0], [1.0, 2.0])
        assert tab(5.0) == 2.0
        assert tab(-5.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LookupTable1D([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            LookupTable1D([0.0, 1.0], [1.0])

    def test_array_lookup_matches_scalar_bit_for_bit(self):
        bp = np.linspace(-4.0, 4.0, 81)
        tab = LookupTable1D(bp, np.tanh(bp / 0.2))
        # tanh saturates in float64: both end segments are flat
        assert tab(-4.0) == tab(-3.9) == -1.0 and tab(3.9) == tab(4.0) == 1.0
        rng = np.random.default_rng(3)
        # breakpoints, signed zeros, both ends, beyond them, NaN of either
        # sign, infinities, and random
        x = np.concatenate([bp, [0.0, -0.0, -4.0, 4.0, -9.0, 9.0],
                            [np.nan, -np.nan, np.inf, -np.inf],
                            np.nextafter(bp, np.inf),
                            rng.uniform(-5, 5, 100_000)])
        expected = np.array([tab(v) for v in x.tolist()])
        with np.errstate(invalid="raise"):   # no inf * 0 on a flat end
            assert tab.evaluate_array(x).tobytes() == expected.tobytes()
        assert math.isnan(tab(math.nan))

    def test_missing_actuated_table_is_configuration_error(self):
        flat = LookupTable1D([-1.0, 1.0], [0.0, 0.0])
        friction = {j: flat for j in ACTUATED_JOINTS if j != "LK"}
        with pytest.raises(ConfigurationError, match="LK"):
            CompensationTables(friction=friction,
                               ripple={j: flat for j in ACTUATED_JOINTS})

    def test_friction_ripple_sums_tables_and_zeroes_ankles(self):
        tables = CompensationTables.default_synthetic()
        q = np.full(6, 0.2)
        qd = np.full(6, 1.0)
        out = friction_ripple(tables, q, qd)
        expected = tables.friction["RH"](1.0) + tables.ripple["RH"](0.2)
        for j, name in enumerate(("RH", "RK", "RA", "LH", "LK", "LA")):
            if name in ACTUATED_JOINTS:
                assert out[j] == pytest.approx(expected)
            else:
                assert out[j] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(*[arrays(np.float64, 6, elements=st.floats(-5.0, 5.0)
                    | st.floats(allow_nan=False))] * 2)
    def test_friction_ripple_matches_evaluate_array_bit_for_bit(self, q, qd):
        # finite values inside and outside the tables, and +-inf
        tables = CompensationTables.default_synthetic()
        row = tables.evaluate_array(q[None], qd[None])[0]
        assert (friction_ripple(tables, q, qd).view(np.uint64).tolist()
                == row.view(np.uint64).tolist())


class TestChainTorque:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_generic_chain_matches_oracle(self, n):
        # random rods with free COM fractions and inertias, one point mass
        # on the root link and two more on the tip link; scalar and column
        # evaluations both against B(q) @ qdd + G(q)
        rng = np.random.default_rng(20 + n)
        point_masses = [(0, rng.uniform(0.0, 0.6), rng.uniform(0.1, 2.0)),
                        (n - 1, rng.uniform(0.0, 0.9), rng.uniform(0.1, 2.0)),
                        (n - 1, rng.uniform(0.0, 0.9), rng.uniform(0.1, 2.0))]
        chain = PlanarChain(lengths=rng.uniform(0.2, 0.8, n),
                            masses=rng.uniform(0.5, 6.0, n),
                            com_fractions=rng.uniform(0.0, 1.0, n),
                            inertias=rng.uniform(0.0, 0.3, n),
                            point_masses=point_masses, gravity=9.81)
        perm = range(n)
        q = rng.uniform(-1.0, 1.0, (n, 25))
        qdd = rng.uniform(-20.0, 20.0, (n, 25))
        columns = np.zeros((n, 25))
        chain.torque(q, qdd, perm, 1.0, columns, sin=np.sin, cos=np.cos)
        for j in range(25):
            expected = (chain.inertia(q[:, j]) @ qdd[:, j]
                        + chain.gravity_torque(q[:, j]))
            scalar = [0.0] * n
            chain.torque(q[:, j].tolist(), qdd[:, j].tolist(), perm, 1.0,
                         scalar)
            # |tau| reaches 4e3 Nm on the longer chains, hence the rtol
            for tau in (scalar, columns[:, j]):
                np.testing.assert_allclose(tau, expected, rtol=1e-12,
                                           atol=1e-12)


class TestStanceTorque:
    def test_static_pose_zero_tables_reduces_to_gravity(self, zero_tables):
        model = StanceModel("left")
        q = np.array([0.2, -0.1, 0.05, 0.3, -0.25, 0.1])
        tau = blended_torque(q, np.zeros(6), np.zeros(6), 1.0, 0.0,
                             model, model, zero_tables)
        perm = list(model.perm)
        expected = np.zeros(6)
        expected[perm] = gravity_vector(model, q[perm])
        np.testing.assert_allclose(tau, expected, atol=1e-12)
        # the swing-side ankle entry stays zero
        assert tau[2] == 0.0  # RA is the swing ankle for left stance

    def test_vertical_static_pose_is_zero(self, zero_tables):
        model = StanceModel("right")
        zero = np.zeros(6)
        tau = blended_torque(zero, zero, zero, 1.0, 0.0, model, model,
                             zero_tables)
        np.testing.assert_allclose(tau, np.zeros(6), atol=1e-12)

    def test_compositional_oracle(self):
        # full output equals the scatter of B(q5) qdd5 + G(q5) plus the
        # per-joint table sum, each validated independently above
        model = StanceModel("left")
        tables = CompensationTables.default_synthetic()
        rng = np.random.default_rng(11)
        for _ in range(25):
            q = rng.uniform(-1.0, 1.0, 6)
            qd = rng.uniform(-3.0, 3.0, 6)
            qdd = rng.uniform(-20.0, 20.0, 6)
            tau = blended_torque(q, qd, qdd, 1.0, 0.0, model, model, tables)
            perm = list(model.perm)
            q5 = q[perm]
            expected = friction_ripple(tables, q, qd)
            expected[perm] += inertia_matrix(model, q5) @ qdd[perm] + gravity_vector(model, q5)
            np.testing.assert_allclose(tau, expected, atol=1e-12)

    def test_linear_in_acceleration(self):
        model = StanceModel("right")
        tables = CompensationTables.default_synthetic()
        rng = np.random.default_rng(5)
        q = rng.uniform(-1.0, 1.0, 6)
        qd = rng.uniform(-2.0, 2.0, 6)
        qdd = rng.uniform(-10.0, 10.0, 6)
        alpha = 3.7
        tau0, tau1, tau_a = (
            blended_torque(q, qd, a, 1.0, 0.0, model, model, tables)
            for a in (np.zeros(6), qdd, alpha * qdd))
        np.testing.assert_allclose(tau_a - tau0, alpha * (tau1 - tau0),
                                    rtol=1e-9, atol=1e-9)

    def test_left_right_mirror_symmetry(self):
        left = StanceModel("left")
        right = StanceModel("right")
        tables = CompensationTables.default_synthetic()
        swap = [3, 4, 5, 0, 1, 2]
        rng = np.random.default_rng(8)
        for _ in range(10):
            q = rng.uniform(-1.0, 1.0, 6)
            qd = rng.uniform(-2.0, 2.0, 6)
            qdd = rng.uniform(-10.0, 10.0, 6)
            tau_l = blended_torque(q, qd, qdd, 1.0, 0.0, left, left, tables)
            tau_r = blended_torque(q[swap], qd[swap], qdd[swap], 1.0, 0.0,
                                   right, right, tables)
            np.testing.assert_allclose(tau_l, tau_r[swap], atol=1e-12)


def _pushed(samples, dt=2e-4):
    """(t, qd, qdd) of every push of ``samples`` (one value for all six
    joints) at a uniform step."""
    est = AccelerationEstimator()
    out = []
    for k, z in enumerate(samples):
        t = k * dt
        out.append((t, *est.push(t, (z,) * 6)))
    return out


# a 1 us step, the 5 kHz step, or any step up to 0.05 s: a stream of a few
# hundred rows meets more distinct steps than _tracker_gains caches, and
# crosses the warm-up
_STEPS = st.one_of(st.just(1e-6), st.just(2e-4), st.floats(1e-6, 0.05))


@st.composite
def _tracker_streams(draw, min_rows=0):
    """``(t, q)``: strictly increasing timestamps at irregular steps, and a
    column of angles in [-2pi, 2pi] for each joint."""
    n = draw(st.integers(min_rows, 400))
    steps = draw(st.lists(_STEPS, min_size=max(n - 1, 0),
                          max_size=max(n - 1, 0)))
    t = list(itertools.accumulate(steps, initial=draw(st.floats(-10, 10))))
    angles = st.floats(-2 * math.pi, 2 * math.pi)
    q = [draw(arrays(np.float64, n, elements=angles)) for _ in range(6)]
    return np.array(t[:n]), np.column_stack(q).reshape(n, 6)


def _pushed_rows(t, q):
    """``(qd, qdd, ready)`` of a fresh estimator's ``push`` on each row,
    with zero rows where it returns None."""
    est = AccelerationEstimator()
    rows = [est.push(ti, qi) for ti, qi in zip(t.tolist(), q.tolist())]
    zeros = [0.0] * 6
    return (np.array([v or zeros for v, _ in rows]).reshape(q.shape),
            np.array([a or zeros for _, a in rows]).reshape(q.shape),
            np.array([v is not None for v, _ in rows], dtype=bool))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


# a stance gain: off, full, or strictly between
_GAINS = st.one_of(st.just(0.0), st.just(1.0),
                   st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


class TestAccumulatingTorque:
    """``PlanarChain.torque`` adds ``gain`` times its torque into ``out``,
    scalar or column-wise, and the control step and the batch replay sum
    the two sides through it into the same bits."""

    @settings(max_examples=80, deadline=None)
    @given(side=st.sampled_from(["left", "right"]), m=st.integers(1, 6),
           data=st.data())
    def test_adds_the_gained_torque_bit_for_bit(self, side, m, data):
        model = StanceModel(side)
        chain, perm = model.chain, model.perm
        q, qdd, out0 = (
            data.draw(arrays(np.float64, (6, m), elements=st.floats(-x, x)))
            for x in (2 * math.pi, 1e3, 1e3))
        gain = np.array(data.draw(st.lists(_GAINS, min_size=m, max_size=m)))
        columns = out0.copy()
        chain.torque(q, qdd, perm, gain, columns, sin=np.sin, cos=np.cos)
        for j in range(m):
            # -0.0 is the exact additive identity, so ``alone`` holds each
            # moment's own bits; starting at +0.0 would turn -0.0 into +0.0
            alone = [-0.0] * 6
            chain.torque(q[:, j].tolist(), qdd[:, j].tolist(), perm, 1.0,
                         alone)
            out = out0[:, j].tolist()
            chain.torque(q[:, j].tolist(), qdd[:, j].tolist(), perm,
                         float(gain[j]), out)
            expected = out0[:, j] + gain[j] * np.array(alone)
            assert np.array_equal(_bits(out), _bits(expected))
            assert np.array_equal(_bits(columns[:, j]), _bits(out))

    @settings(max_examples=40, deadline=None)
    @given(stream=_tracker_streams(min_rows=1),
           weights=arrays(np.float64, 6, elements=st.floats(-5.0, 5.0)))
    def test_control_step_matches_the_array_row(self, stream, weights):
        # regressor weights up to 5 put the phase past +-1 as well as
        # inside it, so both gains take 0, 1 and values between
        t, q = stream
        left, right = StanceModel("left"), StanceModel("right")
        tables = CompensationTables.default_synthetic()
        loop = ControlLoop(left, right, GaitRegressor(weights=weights,
                                                      rmse=0.1), tables)
        cmds = [loop.step(SensorFrame(ti, tuple(qi)))
                for ti, qi in zip(t.tolist(), q.tolist())]
        gl = np.array([c.gamma_l for c in cmds])
        gr = np.array([c.gamma_r for c in cmds])
        qd = np.array([c.qd for c in cmds])
        qdd = np.array([c.qdd for c in cmds])
        batch = blended_torque_array(q, qd, qdd, gl, gr, left, right, tables)
        assert np.array_equal(_bits([c.tau for c in cmds]), _bits(batch))


class TestAccelerationEstimator:
    def test_constant_input_gives_exact_zeros(self):
        for _, qd, qdd in _pushed([0.3] * 1000)[500:]:
            assert qd == [0.0] * 6 and qdd == [0.0] * 6

    def test_quadratic_recovers_acceleration(self):
        a = 4.2
        dt = 2e-4
        out = _pushed([0.5 * a * (k * dt) ** 2 for k in range(2500)], dt)
        for t, qd, qdd in out:
            if t >= 2 * WARMUP_S:
                np.testing.assert_allclose(qdd, np.full(6, a), rtol=1e-3)
                np.testing.assert_allclose(qd, np.full(6, a * t), rtol=1e-3)
        np.testing.assert_allclose(out[-1][2], np.full(6, a), rtol=1e-9)

    def test_linear_ramp_gives_zero_acceleration(self):
        v = 1.3
        dt = 2e-4
        out = _pushed([v * k * dt for k in range(2500)], dt)
        for t, qd, qdd in out:
            if t >= 3 * WARMUP_S:
                np.testing.assert_allclose(qdd, np.zeros(6), atol=1e-5)
                np.testing.assert_allclose(qd, np.full(6, v), rtol=1e-6)
        np.testing.assert_allclose(out[-1][2], np.zeros(6), atol=1e-9)

    def test_not_ready_until_warmup(self):
        dt = 1e-3
        out = _pushed([0.1 * k for k in range(200)], dt)
        for t, qd, qdd in out:
            if t < WARMUP_S:
                assert qd is None and qdd is None
            else:
                assert len(qd) == 6 and len(qdd) == 6
        assert sum(qd is None for _, qd, _ in out) == round(WARMUP_S / dt)

    def test_array_matches_push(self):
        samples = [0.1 * k * k for k in range(200)]
        out = _pushed(samples, 1e-3)
        t = np.array([t for t, _, _ in out])
        q = np.repeat(np.array(samples)[:, None], 6, axis=1)
        qd, qdd, ready = AccelerationEstimator().estimate_array(t, q)
        assert ready.tolist() == [v is not None for _, v, _ in out]
        for k, (_, v, a) in enumerate(out):
            assert qd[k].tolist() == (v or [0.0] * 6)
            assert qdd[k].tolist() == (a or [0.0] * 6)

    @settings(max_examples=60, deadline=None)
    @given(stream=_tracker_streams())
    def test_array_is_push_bit_for_bit(self, stream):
        t, q = stream
        assert (np.diff(t) > 0).all()
        qd, qdd, ready = AccelerationEstimator().estimate_array(t, q)
        qd_ref, qdd_ref, ready_ref = _pushed_rows(t, q)
        assert qd.dtype == qdd.dtype == np.float64
        assert np.array_equal(qd.view(np.uint64), qd_ref.view(np.uint64))
        assert np.array_equal(qdd.view(np.uint64), qdd_ref.view(np.uint64))
        assert np.array_equal(ready, ready_ref)

    @settings(max_examples=60, deadline=None)
    @given(stream=_tracker_streams(), data=st.data())
    def test_array_continues_across_calls(self, stream, data):
        # successive calls on one estimator, over the pieces of a stream
        # cut at random rows, give one call's output and push's
        t, q = stream
        n = len(t)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
        est = AccelerationEstimator()
        pieces = [est.estimate_array(t[a:b], q[a:b])
                  for a, b in zip([0] + cuts, cuts + [n])]
        joined = [np.concatenate(parts) for parts in zip(*pieces)]
        for ref in (AccelerationEstimator().estimate_array(t, q),
                    _pushed_rows(t, q)):
            for got, want in zip(joined[:2], ref[:2]):
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
            assert np.array_equal(joined[2], ref[2])
        # a rejected block changes no state: the next call, and a push
        # after it, return what they return after pushes alone
        pushes = AccelerationEstimator()
        for ti, qi in zip(t.tolist(), q.tolist()):
            pushes.push(ti, qi)
        step, late = data.draw(_STEPS), data.draw(_STEPS)
        t1 = (float(t[-1]) if n else 0.0) + step
        q1, q2 = (data.draw(arrays(np.float64, 6, elements=st.floats(-1, 1)))
                  for _ in range(2))
        bad = data.draw(st.sampled_from([t1, math.nan, t1 - step]))
        with pytest.raises(ValueError, match="strictly increasing"):
            est.estimate_array(np.array([t1, bad]), np.stack([q1, q1]))
        qd, qdd, ready = est.estimate_array(np.array([t1]), q1[None, :])
        v, a = pushes.push(t1, q1.tolist())
        assert ready.tolist() == [v is not None]
        assert np.array_equal(_bits(qd[0]), _bits(v or [0.0] * 6))
        assert np.array_equal(_bits(qdd[0]), _bits(a or [0.0] * 6))
        after, ref = (e.push(t1 + late, q2.tolist()) for e in (est, pushes))
        assert [x is None for x in after] == [x is None for x in ref]
        if ref[0] is not None:
            assert np.array_equal(_bits(after), _bits(ref))

    @settings(max_examples=40, deadline=None)
    @given(stream=_tracker_streams(min_rows=2), nan=st.booleans(),
           place=st.floats(0.0, 1.0, exclude_max=True))
    def test_array_rejects_what_push_rejects(self, stream, nan, place):
        # one repeated or NaN timestamp
        t, q = stream
        k = int(place * len(t)) if nan else 1 + int(place * (len(t) - 1))
        t[k] = math.nan if nan else t[k - 1]
        message = "^timestamps must be strictly increasing$"
        with pytest.raises(ValueError, match=message):
            _pushed_rows(t, q)
        with pytest.raises(ValueError, match=message):
            AccelerationEstimator().estimate_array(t, q)

    def test_rejects_backward_time(self):
        est = AccelerationEstimator()
        est.push(0.0, (0.0,) * 6)
        with pytest.raises(ValueError):
            est.push(-0.1, (0.0,) * 6)
        with pytest.raises(ValueError):
            est.push(float("nan"), (0.0,) * 6)
        with pytest.raises(ValueError):
            AccelerationEstimator().estimate_array(np.array([0.0, 0.0]),
                                                   np.zeros((2, 6)))

    def test_noisy_stream_torque_error(self, zero_tables):
        # the inertial term from noisy angles must beat leaving it out
        # (about 119 Nm RMS here) against the noise-free torque
        pattern = GaitPattern()
        noisy = generate_cycle(pattern, rate=5000, cycles=10, seed=4)
        clean = generate_cycle(replace(pattern, angle_noise=0.0,
                                       load_noise=0.0),
                               rate=5000, cycles=10, seed=4)
        t = noisy.t
        gl = 0.5 * (1.0 + np.sin(2 * np.pi * t / pattern.cycle_duration))
        models = (StanceModel("left"), StanceModel("right"), zero_tables)
        qd, qdd, _ = AccelerationEstimator().estimate_array(t, noisy.q)
        tau = blended_torque_array(noisy.q, qd, qdd, gl, 1.0 - gl, *models)
        qd_ref = np.gradient(clean.q, t, axis=0)
        qdd_ref = np.gradient(qd_ref, t, axis=0)
        ref = blended_torque_array(clean.q, qd_ref, qdd_ref, gl, 1.0 - gl,
                                   *models)
        err = (tau - ref)[t >= 0.5][:, list(ACTUATED_MASK)]
        assert np.sqrt(np.mean(err ** 2)) <= 60.0


class TestParamsAndCalibration:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            ExoParams(back_mass=0.5)
        with pytest.raises(ValueError):
            ExoParams(back_mass=9.0)
        with pytest.raises(ValueError):
            ExoParams(thigh_length=-1.0)
        with pytest.raises(ValueError):
            ExoParams(com_fraction=1.5)

    def test_positive_fields_are_checked_in_order(self):
        names = ["back_length", "thigh_length", "shank_length",
                 "foot_height", "thigh_mass", "shank_mass", "foot_mass",
                 "back_mass"]
        for k, name in enumerate(names):
            bad = dict.fromkeys(names[k:], 0.0)
            with pytest.raises(ValueError, match=f"^{name} must be positive$"):
                ExoParams(**bad)

    def test_calibration_round_trip(self, tmp_path):
        path = tmp_path / "calibration.json"
        params = ExoParams(back_mass=6.0, com_fraction=0.45)
        tables = CompensationTables.default_synthetic()
        save_calibration(path, params, tables)
        loaded_params, loaded_tables = load_calibration(path)
        assert loaded_params == params
        for j in ACTUATED_JOINTS:
            np.testing.assert_array_equal(loaded_tables.friction[j].values,
                                          tables.friction[j].values)

    def test_calibration_rejects_bad_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        from exobench.errors import SchemaError
        with pytest.raises(SchemaError):
            load_calibration(path)
