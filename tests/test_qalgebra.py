import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qiprune.qalgebra import (
    DeformationParams,
    T_3,
    T_MINUS,
    T_PLUS,
    build_Uq,
    build_cnot_q,
    commutator_contraction_check,
    pauli_x_q,
    q_exp,
    q_factorial,
    q_number,
    su2_generators,
)


class TestDeformationParams:
    def test_lambda_one_gives_q_one(self):
        assert abs(DeformationParams(1.0, beta=2.0).q - 1.0) <= 1e-15

    def test_lambda_zero_gives_exp_beta(self):
        assert DeformationParams(0.0, beta=1.0).q == pytest.approx(math.e, abs=1e-15)

    def test_from_noise_matches_benchmark_defaults(self):
        p = DeformationParams.from_noise(gamma=0.05, alpha=0.6)
        assert p.lam == pytest.approx(0.97)
        assert p.q == pytest.approx(math.exp(0.03))

    def test_validation(self):
        with pytest.raises(ValueError, match="lambda"):
            DeformationParams(1.5)
        with pytest.raises(ValueError, match="beta"):
            DeformationParams(0.5, beta=0.0)

    def test_overflowing_q_names_beta_and_lambda(self):
        with pytest.raises(ValueError, match=r"overflows for beta = 100000.0, lambda = 0.97"):
            DeformationParams.from_noise(gamma=0.05, alpha=0.6, beta=1e5)
        assert DeformationParams(1.0, beta=1e5).q == 1.0
        for beta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="beta must be positive and finite"):
                DeformationParams(0.5, beta=beta)


class TestQNumber:
    @pytest.mark.parametrize("x", [1.0, 2.0, 5.0])
    def test_classical_limit(self, x):
        assert q_number(x, 1.0) == x
        assert abs(q_number(x, 1.0 + 1e-4) - x) / x <= 1e-6

    def test_q2_identity(self):
        # (q^2 - q^-2)/(q - q^-1) = q + 1/q
        assert q_number(2.0, 2.0) == pytest.approx(2.5, abs=1e-14)

    def test_zero(self):
        for q in (0.5, 1.0, 2.0, math.e):
            assert q_number(0.0, q) == 0.0

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            q_number(1.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.1, 6.0), st.floats(-1e-4, 1e-4))
    def test_limit_consistency_near_one(self, x, dq):
        assert q_number(x, 1.0 + dq) == pytest.approx(x, rel=1e-6)

    def test_inversion_symmetry(self):
        # [x]_q = [x]_{1/q}
        assert q_number(3.0, 2.0) == pytest.approx(q_number(3.0, 0.5), rel=1e-12)


class TestQFactorial:
    def test_empty_product(self):
        for q in (0.5, 1.0, 3.0):
            assert q_factorial(0, q) == 1.0

    def test_classical_limit(self):
        assert q_factorial(3, 1.0) == pytest.approx(6.0)

    def test_derived_product(self):
        # [1]_2 * [2]_2 = 1 * 2.5
        assert q_factorial(2, 2.0) == pytest.approx(2.5, abs=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_factorial(-1, 1.0)


class TestQExp:
    def test_zero_matrix(self):
        mat, order = q_exp(np.zeros((2, 2), dtype=complex), q=1.7)
        np.testing.assert_array_equal(mat, np.eye(2))
        assert order == 1

    def test_classical_limit_vs_expm_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = 1j * (h + h.conj().T) / 2.0
            ours, _ = q_exp(a, 1.0)
            np.testing.assert_allclose(ours, scipy.linalg.expm(a), atol=1e-8)

    def test_diagonal_generator_closed_form(self):
        mat, _ = q_exp(1j * math.pi * T_3, q=1.0)
        expected = np.diag([np.exp(0.5j * math.pi), np.exp(-0.5j * math.pi)])
        np.testing.assert_allclose(mat, expected, atol=1e-12)

    def test_divergence_guard(self):
        with pytest.raises(RuntimeError, match="did not converge"):
            q_exp(100.0 * np.eye(2, dtype=complex), q=1.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="tol"):
            q_exp(np.eye(2, dtype=complex), 1.0, tol=0.0)
        with pytest.raises(ValueError, match="square"):
            q_exp(np.zeros((2, 3)), 1.0)


class TestBuildUq:
    def test_zero_angles_identity(self):
        for lam in (0.0, 0.5, 1.0):
            mat, dev = build_Uq((0.0, 0.0, 0.0), DeformationParams(lam))
            np.testing.assert_array_equal(mat, np.eye(2))
            assert dev == 0.0

    def test_lambda_zero_always_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta = tuple(rng.uniform(-math.pi, math.pi, size=3))
            mat, dev = build_Uq(theta, DeformationParams(0.0))
            np.testing.assert_allclose(mat, np.eye(2), atol=1e-14)
            assert dev <= 1e-12

    def test_classical_hermitian_combination_is_unitary(self):
        # theta_+ = theta_- real and theta_3 real make the exponent anti-Hermitian
        rng = np.random.default_rng(8)
        params = DeformationParams(1.0)
        assert params.q == 1.0
        for _ in range(20):
            a, b = rng.uniform(-1.5, 1.5, size=2)
            mat, dev = build_Uq((a, a, b), params)
            assert dev <= 1e-10
            arg = 1j * (a * (T_PLUS + T_MINUS) + b * T_3)
            np.testing.assert_allclose(mat, scipy.linalg.expm(arg), atol=1e-8)


class TestContraction:
    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.97, 1.0])
    def test_residual_within_bilinearity(self, lam):
        assert commutator_contraction_check(DeformationParams(lam)) <= 1e-12

    def test_lambda_zero_kills_commutators(self):
        gen = su2_generators(0.0)
        comm = gen.t_plus @ gen.t_minus - gen.t_minus @ gen.t_plus
        np.testing.assert_array_equal(comm, np.zeros((2, 2)))

    def test_scaled_generators_flagged(self):
        gen = su2_generators(0.5)
        assert gen.lambda_scaled
        base = su2_generators()
        assert not base.lambda_scaled
        np.testing.assert_allclose(gen.t_3, 0.5 * base.t_3, atol=0)

    def test_ladder_relations_unscaled(self):
        gen = su2_generators()
        for sign, t in ((1.0, gen.t_plus), (-1.0, gen.t_minus)):
            comm = gen.t_3 @ t - t @ gen.t_3
            assert np.max(np.abs(comm - sign * t)) <= 1e-12


class TestCnotQ:
    def test_lambda_one_is_identity(self):
        for reading in ("two_qubit", "control"):
            mat, dev = build_cnot_q(DeformationParams(1.0), projectors=reading)
            np.testing.assert_array_equal(mat, np.eye(4))
            assert dev == 0.0

    def test_x_q_reduces_to_pauli_x_at_q1(self):
        np.testing.assert_allclose(pauli_x_q(1.0), np.array([[0, 1], [1, 0]]), atol=1e-15)
        np.testing.assert_allclose(pauli_x_q(1.0), T_PLUS + T_MINUS, atol=1e-15)

    def test_two_qubit_reading_vs_brute_force_oracle(self):
        # independent construction: explicit outer products and a dense
        # 4x4 product for the deviation
        params = DeformationParams(0.0, beta=1e-12)  # q = 1 to double precision
        lam, q = params.lam, params.q
        e = np.eye(4, dtype=complex)
        ket00 = e[:, [0]]
        ket11 = e[:, [3]]
        p00 = ket00 @ ket00.conj().T
        p11 = ket11 @ ket11.conj().T
        x_q = np.array([[0.0, q**0.5], [q**0.5, 0.0]], dtype=complex)
        expected = e + (lam - 1.0) * p00 + (1.0 - lam) * (np.kron(np.eye(2), x_q) @ p11)
        prod = expected @ expected.conj().T
        expected_dev = float(np.max(np.abs(prod - e)))

        mat, dev = build_cnot_q(params, projectors="two_qubit")
        np.testing.assert_allclose(mat, expected, atol=1e-12)
        assert dev == pytest.approx(expected_dev, abs=1e-12)
        # unitarity genuinely fails at lambda = 0: the deviation is ~1
        assert dev == pytest.approx(1.0, abs=1e-9)

    def test_control_reading_vs_brute_force_oracle(self):
        params = DeformationParams(0.5, beta=0.2)
        lam, q = params.lam, params.q
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        x_q = np.array([[0.0, q**0.5], [q**0.5, 0.0]], dtype=complex)
        expected = (
            np.eye(4, dtype=complex)
            + (lam - 1.0) * np.kron(p0, np.eye(2))
            + (1.0 - lam) * np.kron(p1, x_q)
        )
        mat, dev = build_cnot_q(params, projectors="control")
        np.testing.assert_allclose(mat, expected, atol=1e-12)
        prod = expected @ expected.conj().T
        assert dev == pytest.approx(float(np.max(np.abs(prod - np.eye(4)))), abs=1e-12)

    def test_unknown_reading(self):
        with pytest.raises(ValueError, match="projector"):
            build_cnot_q(DeformationParams(0.5), projectors="bogus")
