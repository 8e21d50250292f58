import numpy as np
import pytest

import exobench.blend
from exobench.blend import BlendGains, ControlLoop, blend_gains, gains
from exobench.dynamics import (ACTUATED_MASK, WARMUP_S, CompensationTables,
                               JointState, StanceModel, blended_torque,
                               stance_torque)
from exobench.errors import OutOfOrderFrameError
from exobench.segmentation import GaitRegressor
from exobench.simulator import GaitPattern, generate_cycle, replay
from exobench.streams import SensorFrame


@pytest.fixture(scope="module")
def rig():
    left = StanceModel("left")
    right = StanceModel("right")
    tables = CompensationTables.default_synthetic()
    reg = GaitRegressor(weights=np.array([-0.7, 2.2, -2.3, 0.7, -2.2, 2.3]),
                        rmse=0.1)
    return left, right, reg, tables


def _switch(reg):
    """``reg`` with its weights scaled by 1e6: the gains saturate to 0 or 1
    within a frame, a hard switch between the stance models."""
    return GaitRegressor(weights=reg.weights * 1e6, rmse=reg.rmse)


class TestGains:
    def test_endpoints(self):
        assert gains(1.0) == BlendGains(1.0, 0.0)
        assert gains(-1.0) == BlendGains(0.0, 1.0)

    def test_midpoint(self):
        assert gains(0.0) == BlendGains(0.5, 0.5)

    def test_clamps_out_of_range(self):
        assert gains(1.4) == BlendGains(1.0, 0.0)
        assert gains(-3.0) == BlendGains(0.0, 1.0)

    def test_partition_of_unity_exact(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(-2.5, 2.5, 10000)
        gl, gr = blend_gains(raw)
        assert np.all(gl + gr == 1.0)
        assert np.all((gl >= 0) & (gl <= 1))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            gains(float("nan"))
        with pytest.raises(ValueError):
            blend_gains(np.array([0.0, np.inf]))


def _assist(state, left, right, regressor, tables):
    """Gains and torque for a fully known joint state, assembled as
    ``ControlLoop.step`` assembles them."""
    g = gains(regressor.phase(state.q))
    return g, blended_torque(state.q, state.qd, state.qdd, g.gamma_l,
                             g.gamma_r, left, right, tables)


class TestAssist:
    def test_endpoint_reproduces_left_stance_exactly(self, rig):
        left, right, reg, tables = rig
        rng = np.random.default_rng(1)
        # choose a posture whose raw phase saturates at +1
        for _ in range(20):
            q = rng.uniform(-0.8, 0.8, 6)
            raw = reg.phase(tuple(q))
            if raw < 1.0:
                continue
            state = JointState(q, rng.uniform(-2, 2, 6), rng.uniform(-5, 5, 6))
            g, tau = _assist(state, left, right, reg, tables)
            expected = stance_torque(left, state, tables)
            assert np.array_equal(tau, expected)
            assert g.gamma_l == 1.0 and g.gamma_r == 0.0

    def test_midphase_static_pose_averages_gravity(self, rig):
        left, right, reg, tables = rig
        zero_tables = CompensationTables.zeroed()
        zero_reg = GaitRegressor(weights=np.zeros(6), rmse=0.0)  # raw phase 0
        q = np.array([0.2, -0.1, 0.05, 0.3, -0.25, 0.1])
        state = JointState(q, np.zeros(6), np.zeros(6))
        _, tau = _assist(state, left, right, zero_reg, zero_tables)
        half = 0.5 * (stance_torque(left, state, zero_tables)
                      + stance_torque(right, state, zero_tables))
        np.testing.assert_allclose(tau, half, atol=1e-12)

    def test_affine_in_phase_along_fixed_state(self, rig):
        # with the state frozen, tau is an affine function of the gain,
        # hence of the (clamped) phase: check against the two endpoints
        from exobench.dynamics import friction_ripple

        left, right, reg, tables = rig
        rng = np.random.default_rng(2)
        q = rng.uniform(-0.5, 0.5, 6)
        qd = rng.uniform(-2, 2, 6)
        qdd = rng.uniform(-5, 5, 6)
        state = JointState(q, qd, qdd)
        tau_left = stance_torque(left, state, tables)
        tau_right = stance_torque(right, state, tables)
        fr = friction_ripple(tables, q, qd)
        for raw in np.linspace(-1, 1, 21):
            gl = 0.5 * (raw + 1)
            tau = blended_torque(tuple(q), tuple(qd), tuple(qdd), gl, 1 - gl,
                                 left, right, tables)
            expected = gl * (tau_left - fr) + (1 - gl) * (tau_right - fr) + fr
            np.testing.assert_allclose(tau, expected, atol=1e-9)


class TestControlLoop:
    def make_loop(self, rig, regressor="trained"):
        left, right, reg, tables = rig
        if regressor == "scaled":
            reg = _switch(reg)
        return ControlLoop(left, right, reg, tables)

    def test_steps_produce_monotone_timestamps(self, rig):
        loop = self.make_loop(rig)
        pattern = GaitPattern(angle_noise=0.0, load_noise=0.0)
        stream = generate_cycle(pattern, rate=1000, cycles=2, seed=3)
        result = replay(stream, loop)
        assert result.commands == len(stream)
        assert np.all(np.diff(result.t) > 0)
        assert result.dropped_frames == 0

    def test_out_of_order_frame_dropped(self, rig):
        loop = self.make_loop(rig)
        f0 = SensorFrame(0.0, (0.0,) * 6)
        f1 = SensorFrame(0.001, (0.0,) * 6)
        loop.step(f0)
        loop.step(f1)
        with pytest.raises(OutOfOrderFrameError):
            loop.step(SensorFrame(0.0005, (0.0,) * 6))
        # later frames continue normally
        cmd = loop.step(SensorFrame(0.002, (0.0,) * 6))
        assert cmd.t == 0.002

    def test_determinism_same_stream_identical_commands(self, rig):
        pattern = GaitPattern()
        stream = generate_cycle(pattern, rate=500, cycles=2, seed=4)
        r1 = replay(stream, self.make_loop(rig))
        r2 = replay(stream, self.make_loop(rig))
        assert np.array_equal(r1.tau, r2.tau)
        assert np.array_equal(r1.raw_phase, r2.raw_phase)

    def test_identical_frames_at_steady_state_give_identical_tau(self, rig):
        loop = self.make_loop(rig)
        q = (0.2, 0.3, -0.1, 0.15, 0.4, 0.05)
        dt = 1 / 5000
        taus = []
        for k in range(700):
            cmd = loop.step(SensorFrame(k * dt, q))
            taus.append(cmd.tau)
        # past the estimator's warm-up, identical frames map to identical
        # commands
        assert not cmd.degraded and taus[-1] == taus[-2]

    def test_degraded_until_acceleration_ready(self, rig):
        loop = self.make_loop(rig)
        dt = 1 / 5000
        q = (0.1,) * 6
        cmds = [loop.step(SensorFrame(k * dt, q))
                for k in range(600)]
        # degraded exactly during the estimator's time-based warm-up
        assert [c.degraded for c in cmds] == [c.t < WARMUP_S for c in cmds]
        assert cmds[499].degraded and not cmds[500].degraded
        assert all(c.qd == c.qdd == (0.0,) * 6 for c in cmds)
        # default policy keeps gravity support active during warm-up
        assert any(v != 0.0 for v in cmds[0].tau)

    def test_saturated_regressor_switches_models(self, rig):
        left, right, reg, tables = rig
        pattern = GaitPattern(angle_noise=0.0, load_noise=0.0)
        stream = generate_cycle(pattern, rate=1000, cycles=2, seed=5)
        smooth = replay(stream, ControlLoop(left, right, reg, tables))
        result = replay(stream, ControlLoop(left, right, _switch(reg), tables))
        assert set(np.unique(result.gamma_l)) <= {0.0, 1.0}
        np.testing.assert_array_equal(
            result.gamma_l, np.where(result.raw_phase > 0.0, 1.0, 0.0))
        # the switch falls where the trained phase changes sign
        np.testing.assert_array_equal(result.raw_phase > 0.0,
                                      smooth.raw_phase > 0.0)
        assert np.any((smooth.gamma_l > 0.0) & (smooth.gamma_l < 1.0))

    def test_saturated_regressor_rejects_infinite_phase(self, rig):
        loop = self.make_loop(rig, "scaled")
        bad = (0.1, float("inf"), 0.1, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError, match="raw_phase must be finite"):
            loop.step(SensorFrame(0.0, bad))

    @pytest.mark.parametrize("regressor", ["trained", "scaled"])
    def test_nan_angle_raises_before_torque(self, rig, regressor,
                                            monkeypatch):
        loop = self.make_loop(rig, regressor)
        dt = 1 / 5000
        q = (0.1,) * 6
        for k in range(3):
            loop.step(SensorFrame(k * dt, q))

        def no_torque(*args):
            raise AssertionError("torque evaluated for a NaN frame")

        monkeypatch.setattr(exobench.blend, "blended_torque", no_torque)
        bad = (0.1, float("nan"), 0.1, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError, match="raw_phase must be finite"):
            loop.step(SensorFrame(3 * dt, bad))

    def test_rejected_nan_frame_changes_no_state(self, rig):
        pattern = GaitPattern()
        frames = list(generate_cycle(pattern, rate=5000, cycles=1,
                                     seed=9).frames())[:1100]
        clean = self.make_loop(rig)
        expected = [clean.step(f) for f in frames]
        loop = self.make_loop(rig)
        got = [loop.step(f) for f in frames[:1000]]
        # between frames 999 and 1000, past the estimator's warm-up
        bad = frames[999]._replace(t=0.5 * (frames[999].t + frames[1000].t),
                                   q=(float("nan"),) + frames[999].q[1:])
        with pytest.raises(ValueError, match="raw_phase must be finite"):
            loop.step(bad)
        got += [loop.step(f) for f in frames[1000:]]
        for a, b in zip(got, expected, strict=True):
            a.step_time_us = b.step_time_us = 0.0
            assert a == b

    @pytest.mark.parametrize("regressor", ["trained", "scaled"])
    @pytest.mark.parametrize("bad_t", [float("nan"), float("inf")])
    def test_nonfinite_timestamp_raises_before_torque(self, rig, bad_t,
                                                      regressor, monkeypatch):
        loop = self.make_loop(rig, regressor)
        dt = 1 / 5000
        q = (0.1,) * 6
        for k in range(3):
            loop.step(SensorFrame(k * dt, q))

        def no_torque(*args):
            raise AssertionError("torque evaluated for a bad timestamp")

        monkeypatch.setattr(exobench.blend, "blended_torque", no_torque)
        with pytest.raises(ValueError, match="timestamp must be finite"):
            loop.step(SensorFrame(bad_t, q))

    def test_actuated_mask(self):
        assert ACTUATED_MASK == (True, True, False, True, True, False)
