import json
import math
from dataclasses import replace

import numpy as np
import pytest

from exobench.dynamics import (
    ACTUATED_JOINTS,
    ACTUATED_MASK,
    WARMUP_S,
    AccelerationEstimator,
    CompensationTables,
    ExoParams,
    JointState,
    LookupTable1D,
    PlanarChain,
    StanceModel,
    blended_torque_array,
    friction_ripple,
    gravity_vector,
    inertia_matrix,
    load_calibration,
    save_calibration,
    stance_torque,
)
from exobench.errors import ConfigurationError
from exobench.simulator import GaitPattern, generate_cycle


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


class TestLookupTables:
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
        columns = chain.torque(q, qdd, perm, sin=np.sin, cos=np.cos)
        for j in range(25):
            expected = (chain.inertia(q[:, j]) @ qdd[:, j]
                        + chain.gravity_torque(q[:, j]))
            scalar = chain.torque(q[:, j].tolist(), qdd[:, j].tolist(), perm)
            # |tau| reaches 4e3 Nm on the longer chains, hence the rtol
            for tau in (scalar, [x[j] for x in columns]):
                np.testing.assert_allclose(tau, expected, rtol=1e-12,
                                           atol=1e-12)


class TestStanceTorque:
    def test_static_pose_zero_tables_reduces_to_gravity(self):
        model = StanceModel("left")
        tables = CompensationTables.zeroed()
        q = np.array([0.2, -0.1, 0.05, 0.3, -0.25, 0.1])
        state = JointState(q, np.zeros(6), np.zeros(6))
        tau = stance_torque(model, state, tables)
        perm = list(model.perm)
        expected = np.zeros(6)
        expected[perm] = gravity_vector(model, q[perm])
        np.testing.assert_allclose(tau, expected, atol=1e-12)
        # the swing-side ankle entry stays zero
        assert tau[2] == 0.0  # RA is the swing ankle for left stance

    def test_vertical_static_pose_is_zero(self):
        model = StanceModel("right")
        tables = CompensationTables.zeroed()
        zero = np.zeros(6)
        tau = stance_torque(model, JointState(zero, zero, zero), tables)
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
            state = JointState(q, qd, qdd)
            tau = stance_torque(model, state, tables)
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
        tau0 = stance_torque(model, JointState(q, qd, np.zeros(6)), tables)
        tau1 = stance_torque(model, JointState(q, qd, qdd), tables)
        tau_a = stance_torque(model, JointState(q, qd, alpha * qdd), tables)
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
            tau_l = stance_torque(left, JointState(q, qd, qdd), tables)
            state_sw = JointState(q[swap], qd[swap], qdd[swap])
            tau_r = stance_torque(right, state_sw, tables)
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

    def test_noisy_stream_torque_error(self):
        # the inertial term from noisy angles must beat leaving it out
        # (about 119 Nm RMS here) against the noise-free torque
        pattern = GaitPattern()
        noisy = generate_cycle(pattern, rate=5000, cycles=10, seed=4)
        clean = generate_cycle(replace(pattern, angle_noise=0.0,
                                       load_noise=0.0),
                               rate=5000, cycles=10, seed=4)
        t = noisy.t
        gl = 0.5 * (1.0 + np.sin(2 * np.pi * t / pattern.cycle_duration))
        models = (StanceModel("left"), StanceModel("right"),
                  CompensationTables.zeroed())
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
