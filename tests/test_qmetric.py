import math

import numpy as np
import pytest
import scipy.linalg

from qiprune.linalg import haar_unitary, pure_trace_distance, random_state
from qiprune.qmetric import (
    Tolerance,
    build_geometry,
    calibrate_epsilon,
    d_q,
    d_q_per_state,
    drift_rhs,
    q_inner,
    reduced_distances,
    reduced_matrices,
    statewise_deviation_bound,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def basis(n, i):
    s = np.zeros(1 << n, dtype=complex)
    s[i] = 1.0
    return s


class TestBuildGeometry:
    def test_q1_is_identity(self):
        for n in (1, 3, 5):
            geo = build_geometry(n, 1.0)
            np.testing.assert_array_equal(geo.g_diag, np.ones(1 << n))
            assert geo.m_q == geo.M_q == 1.0

    def test_q2_n1_weight_rule(self):
        # oracle: direct evaluation of q^(w - n) per index, then rescale
        geo = build_geometry(1, 2.0)
        expected = np.array([2.0 ** (0 - 1), 2.0 ** (1 - 1)])
        expected /= expected.max()
        np.testing.assert_allclose(geo.g_diag, expected, atol=1e-15)
        assert geo.m_q == 0.5 and geo.M_q == 1.0

    def test_hamming_extremes_at_q_e(self):
        geo = build_geometry(2, math.e)
        assert geo.M_q == 1.0
        assert geo.m_q == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_independent_hamming_oracle(self):
        geo = build_geometry(4, 1.3)
        for i in range(16):
            w = sum((i >> k) & 1 for k in range(4))
            assert geo.g_diag[i] == pytest.approx(1.3 ** (w - 4), rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_weights_bitwise_equal_to_bin_count(self, n):
        # the Hamming weights come from array code; they must equal bin(i).count("1")
        weights = np.array([bin(i).count("1") for i in range(1 << n)])
        for q in (0.7, math.exp(0.03), 2.5):
            want = q ** (weights - float(n))
            np.testing.assert_array_equal(build_geometry(n, q).g_diag, want / want.max())

    def test_bounds_hold(self):
        geo = build_geometry(3, 2.5)
        assert np.all(geo.g_diag >= geo.m_q) and np.all(geo.g_diag <= geo.M_q)

    def test_errors(self):
        with pytest.raises(ValueError, match="positive"):
            build_geometry(2, 0.0)
        for q in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                build_geometry(2, q)
        with pytest.raises(ValueError, match="qubit"):
            build_geometry(0, 1.0)
        # q^(w - n) underflows to a zero weight, or overflows to a NaN one
        with pytest.raises(ValueError, match="q = 1e\\+300 .* on 8 qubits"):
            build_geometry(8, 1e300)
        with pytest.raises(ValueError, match="q = 1e-300 .* on 4 qubits"):
            build_geometry(4, 1e-300)


class TestQInner:
    def test_unit_state_identity_geometry(self):
        psi = random_state(2, np.random.default_rng(1))
        assert q_inner(psi, psi, build_geometry(2, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support(self):
        geo = build_geometry(1, 1.7)
        assert q_inner(basis(1, 0), basis(1, 1), geo) == 0.0

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(4)
        geo = build_geometry(1, 2.0)
        phi, psi = random_state(1, rng), random_state(1, rng)
        expected = sum(np.conj(phi[i]) * geo.g_diag[i] * psi[i] for i in range(2))
        assert q_inner(phi, psi, geo) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            q_inner(basis(1, 0), basis(2, 0), build_geometry(1, 1.0))


class TestDq:
    def test_identical_operator_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        geo = build_geometry(2, 1.5)
        u = haar_unitary(4, rng)
        ens = np.array([random_state(2, rng) for _ in range(5)])
        assert d_q(u, u.copy(), ens, geo) == 0.0

    def test_global_phase_killed(self):
        geo = build_geometry(1, 1.0)
        assert d_q(np.eye(2, dtype=complex), Z, [basis(1, 0)], geo) == 0.0

    def test_identity_vs_x_on_zero(self):
        geo = build_geometry(1, 1.0)
        # <0|X|0> = 0 by direct evaluation, so arccos(0) = pi/2
        assert d_q(np.eye(2, dtype=complex), X, [basis(1, 0)], geo) == pytest.approx(math.pi / 2)

    def test_symmetry_at_q1(self):
        rng = np.random.default_rng(6)
        geo = build_geometry(2, 1.0)
        for _ in range(20):
            u, v = haar_unitary(4, rng), haar_unitary(4, rng)
            ens = np.array([random_state(2, rng) for _ in range(4)])
            assert abs(d_q(u, v, ens, geo) - d_q(v, u, ens, geo)) <= 1e-12

    def test_wire_embedding_matches_kron_oracle(self):
        from oracles import embed_kron

        rng = np.random.default_rng(13)
        geo = build_geometry(3, 1.2)
        ens = np.array([random_state(3, rng) for _ in range(6)])
        u, v = haar_unitary(2, rng), haar_unitary(2, rng)
        for wire in range(3):
            direct = d_q(u, v, ens, geo, wires=[wire])
            embedded = d_q(embed_kron(u, [wire], 3), embed_kron(v, [wire], 3), ens, geo)
            assert direct == pytest.approx(embedded, abs=1e-12)

    @pytest.mark.parametrize("q", [1.0, 1.03, 1.5, pytest.param(math.exp(0.3), id="e^0.3")])
    def test_block_comparator_matches_apply_reference(self, q):
        # reduced_matrices + reduced_distances on every wire for n = 1..6,
        # against the two-pass d_q_per_state; near pairs (V = U exp(i t H))
        # reach d down to ~1e-4
        rng = np.random.default_rng(int(100 * q))
        for n in range(1, 7):
            geo = build_geometry(n, q)
            ens = np.array([random_state(n, rng) for _ in range(5)])
            for wire in range(n):
                R = reduced_matrices(ens, geo, wire)
                assert R.shape == (len(ens), 2, 2)
                u = haar_unitary(2, rng)
                h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                h = (h + h.conj().T) / 2.0
                for t in (1e-4, 1e-2, 1.0):
                    v = u @ scipy.linalg.expm(1j * t * h)
                    ref = d_q_per_state(u, v, ens, geo, wires=[wire])
                    got = reduced_distances(R, u, v)
                    np.testing.assert_allclose(np.cos(got), np.cos(ref), rtol=0, atol=1e-13)
                    far = ref >= 1e-3
                    np.testing.assert_allclose(got[far], ref[far], rtol=0, atol=1e-12)
                np.testing.assert_array_equal(reduced_distances(R, u, u.copy()), np.zeros(len(ens)))

    @pytest.mark.parametrize("wires", [[1], [2, 0]])
    def test_block_comparator_stack_matches_member_calls(self, wires):
        # one block of five gates per wire, R stacked over `wires` as prune
        # stacks it over qubits; the 5x5 pair tables come from one broadcast
        # call and must match per-pair calls
        rng = np.random.default_rng(24)
        geo = build_geometry(3, 1.2)
        ens = np.array([random_state(3, rng) for _ in range(7)])
        R = np.array([reduced_matrices(ens, geo, w) for w in wires])
        blocks = np.array([[haar_unitary(2, rng) for _ in range(4)] for _ in wires])
        blocks = np.concatenate([blocks, blocks[:, 1:2].copy()], axis=1)
        table = reduced_distances(R[:, None, None], blocks[:, :, None], blocks[:, None])
        assert table.shape == (len(wires), 5, 5, len(ens))
        for i in range(len(wires)):
            for a in range(5):
                for b in range(5):
                    member = reduced_distances(R[i], blocks[i, a], blocks[i, b])
                    np.testing.assert_allclose(table[i, a, b], member, rtol=0, atol=1e-15)
            # identical gates give exact zeros: the diagonal and the duplicated pair
            for a, b in [(j, j) for j in range(5)] + [(1, 4), (4, 1)]:
                np.testing.assert_array_equal(table[i, a, b], np.zeros(len(ens)))
            assert np.all(table[i, 0, 1:4] > 0.0)
        # reference rows, one reference slot per wire, as prune scores them
        ref = np.arange(len(wires)) % 5
        rows = reduced_distances(R[:, None], blocks[np.arange(len(wires)), ref][:, None], blocks)
        np.testing.assert_allclose(rows, table[np.arange(len(wires)), ref], rtol=0, atol=1e-15)

    def test_clamp_keeps_arccos_total_for_deformed_q(self):
        rng = np.random.default_rng(23)
        geo = build_geometry(2, math.e)
        for _ in range(50):
            val = d_q(haar_unitary(4, rng), haar_unitary(4, rng),
                      np.array([random_state(2, rng) for _ in range(4)]), geo)
            assert np.isfinite(val) and 0.0 <= val <= math.pi / 2 + 1e-12

    def test_errors(self):
        geo = build_geometry(1, 1.0)
        with pytest.raises(ValueError, match="nonempty"):
            d_q(X, X, np.zeros((0, 2)), geo)
        with pytest.raises(ValueError, match="dimension"):
            d_q(X, X.copy() + 1e-3, [basis(2, 0)], geo)

    def test_overlap_domination_exact_at_q1(self):
        rng = np.random.default_rng(17)
        geo = build_geometry(3, 1.0)
        for _ in range(200):
            psi = random_state(3, rng)
            w = haar_unitary(8, rng)
            std = abs(np.vdot(psi, w @ psi))
            assert std >= abs(q_inner(psi, w @ psi, geo)) / geo.M_q - 1e-12


class TestCalibrate:
    def test_half_delta(self):
        geo = build_geometry(2, 1.0)
        tol = calibrate_epsilon(0.01, geo, rule="half_delta_rule")
        assert tol.epsilon_q == 0.005 and tol.delta == 0.01

    def test_arcsin(self):
        geo = build_geometry(2, 1.0)
        tol = calibrate_epsilon(0.02, geo, rule="arcsin_rule")
        assert tol.epsilon_q == pytest.approx(math.asin(0.01), abs=1e-15)

    def test_rules_agree_to_first_order(self):
        geo = build_geometry(3, 1.0)
        for delta in (1e-4, 1e-3):
            a = calibrate_epsilon(delta, geo, rule="arcsin_rule").epsilon_q
            h = calibrate_epsilon(delta, geo, rule="half_delta_rule").epsilon_q
            assert a == pytest.approx(h, rel=1e-6)

    def test_errors(self):
        geo = build_geometry(2, 1.0)
        with pytest.raises(ValueError, match="delta"):
            calibrate_epsilon(1.5, geo)
        with pytest.raises(ValueError, match="rule"):
            calibrate_epsilon(0.01, geo, rule="nope")


class TestDriftRhs:
    def test_table_reference_points(self):
        # mnist-scale row: L = 60% of 480 = 288 at delta = 0.01
        raw, clip = drift_rhs(288, 0.005)
        assert raw == pytest.approx(2.88, abs=0.01)
        assert clip == 1.0
        # bas-scale row: L = 59.79% of 240 at delta = 0.01
        raw, clip = drift_rhs(143.496, 0.005)
        assert raw == pytest.approx(1.435, abs=0.01)
        assert clip == 1.0

    def test_nothing_replaced(self):
        assert drift_rhs(0, 0.005) == (0.0, 0.0)

    def test_negative_L_rejected(self):
        with pytest.raises(ValueError):
            drift_rhs(-1, 0.01)


class TestStatewiseBound:
    def test_endpoints(self):
        assert statewise_deviation_bound(0.0, 1.0) == 0.0
        assert statewise_deviation_bound(math.pi / 2, 1.0) == pytest.approx(2.0)

    def test_small_epsilon(self):
        assert statewise_deviation_bound(0.005, 1.0) == pytest.approx(2.0 * math.sin(0.005), abs=1e-12)

    def test_radicand_clamped(self):
        assert statewise_deviation_bound(0.0, 0.5) == 0.0

    def test_trace_distance_bounded_at_q1(self):
        # premise measured per state with the standard overlap (q = 1)
        rng = np.random.default_rng(31)
        for _ in range(200):
            u = haar_unitary(4, rng)
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (h + h.conj().T) / 2.0
            h /= max(abs(np.linalg.eigvalsh(h)))
            v = u @ scipy.linalg.expm(1j * rng.uniform(0, 0.05) * h)
            psi = random_state(2, rng)
            eps = math.acos(min(1.0, abs(np.vdot(psi, u.conj().T @ (v @ psi)))))
            td = pure_trace_distance(u @ psi, v @ psi)
            assert td <= statewise_deviation_bound(eps, 1.0) + 1e-9

    def test_average_observable_drift_bounded_at_q1(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            u = haar_unitary(4, rng)
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (h + h.conj().T) / 2.0
            h /= max(abs(np.linalg.eigvalsh(h)))
            v = u @ scipy.linalg.expm(1j * rng.uniform(0, 0.05) * h)
            obs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            obs = (obs + obs.conj().T) / 2.0
            op_norm = max(abs(np.linalg.eigvalsh(obs)))
            states = [random_state(2, rng) for _ in range(20)]
            eps, drift = 0.0, 0.0
            for psi in states:
                eps = max(eps, math.acos(min(1.0, abs(np.vdot(psi, u.conj().T @ (v @ psi))))))
                ea = np.real(np.vdot(u @ psi, obs @ (u @ psi)))
                eb = np.real(np.vdot(v @ psi, obs @ (v @ psi)))
                drift += abs(ea - eb) / len(states)
            assert drift <= op_norm * 2.0 * math.sin(eps) + 1e-9


def test_per_state_terms_mean_equals_dq():
    rng = np.random.default_rng(41)
    geo = build_geometry(2, 1.4)
    u, v = haar_unitary(4, rng), haar_unitary(4, rng)
    ens = np.array([random_state(2, rng) for _ in range(7)])
    terms = d_q_per_state(u, v, ens, geo)
    assert terms.shape == (7,)
    assert d_q(u, v, ens, geo) == pytest.approx(float(np.mean(terms)), abs=1e-15)


def test_tolerance_is_plain_record():
    tol = Tolerance(delta=0.01, epsilon_q=0.005, rule="half_delta_rule")
    assert tol.epsilon_q == 0.005
