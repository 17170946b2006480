import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qiprune.linalg import (
    apply_matrix,
    apply_observable,
    expectation,
    haar_unitary,
    n_qubits_of,
    operator_norm,
    pure_trace_distance,
    random_state,
    unitarity_deviation,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def basis(n_qubits, index):
    s = np.zeros(1 << n_qubits, dtype=complex)
    s[index] = 1.0
    return s


class TestApplyGate:
    def test_identity_leaves_state_unchanged(self):
        rng = np.random.default_rng(7)
        psi = random_state(3, rng)
        for wire in range(3):
            out = apply_matrix(psi, np.eye(2, dtype=complex), [wire], 3)
            np.testing.assert_allclose(out, psi, atol=1e-14)

    def test_x_on_qubit0_flips_most_significant_bit(self):
        out = apply_matrix(basis(2, 0b00), X, [0], 2)
        np.testing.assert_allclose(out, basis(2, 0b10), atol=1e-14)

    def test_hadamard_on_single_qubit(self):
        out = apply_matrix(basis(1, 0), H, [0], 1)
        np.testing.assert_allclose(out, np.array([1, 1]) / math.sqrt(2), atol=1e-14)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_norm_preserved_for_random_unitaries(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, min(n, 2) + 1))
            wires = list(rng.choice(n, size=k, replace=False))
            psi = random_state(n, rng)
            out = apply_matrix(psi, haar_unitary(1 << k, rng), wires, n)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_disjoint_wires_commute(self):
        rng = np.random.default_rng(3)
        psi = random_state(2, rng)
        a, b = haar_unitary(2, rng), haar_unitary(2, rng)
        ab = apply_matrix(apply_matrix(psi, a, [0], 2), b, [1], 2)
        ba = apply_matrix(apply_matrix(psi, b, [1], 2), a, [0], 2)
        np.testing.assert_allclose(ab, ba, atol=1e-10)

    def test_matches_kron_embedding_oracle(self):
        from oracles import embed_kron

        rng = np.random.default_rng(11)
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        cycle = np.eye(4, dtype=complex)[[1, 2, 3, 0]]  # not its own inverse, unlike CNOT and SWAP
        # each must take the generic path: a gather would drop the sign, an entry or a row sum
        signed_perm = np.diag([1, 1, 1, -1]).astype(complex) @ cnot
        with_fraction = cnot + 0.5 * np.eye(4)[[1, 0, 2, 3]]
        repeated_column = np.eye(4, dtype=complex)[[0, 0, 2, 3]]
        extra_one = np.eye(4, dtype=complex) + np.eye(4, k=1)
        cases = []
        for n in range(1, 7):
            for w in range(n):
                non_unitary = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                cases += [(haar_unitary(2, rng), [w], n), (non_unitary, [w], n)]
        for n in (2, 3, 5):
            pairs = {(0, 1), (1, 0), (0, n - 1), (n - 1, 0), (n - 1, n // 2)}
            for wires in sorted(p for p in pairs if p[0] != p[1]):
                for mat in (cnot, swap, cycle, signed_perm, with_fraction, repeated_column, extra_one, haar_unitary(4, rng)):
                    cases.append((mat, list(wires), n))
        for lead in ((), (5,), (6, 5)):
            for mat, wires, n in cases:
                states = rng.standard_normal(lead + (1 << n,)) + 1j * rng.standard_normal(lead + (1 << n,))
                expected = states @ embed_kron(mat, wires, n).T
                got = apply_matrix(states, mat, wires, n)
                assert got.shape == states.shape
                np.testing.assert_allclose(got, expected, atol=1e-12, err_msg=f"{wires} on {n} qubits")

    def test_errors(self):
        psi = basis(2, 0)
        with pytest.raises(ValueError, match="does not match"):
            apply_matrix(psi, np.eye(4, dtype=complex), [0], 2)
        with pytest.raises(ValueError, match="out of range"):
            apply_matrix(psi, X, [2], 2)
        with pytest.raises(ValueError, match="distinct"):
            apply_matrix(psi, np.eye(4, dtype=complex), [0, 0], 2)
        with pytest.raises(ValueError, match="power of two"):
            n_qubits_of(np.zeros(3))


class TestPermutationMemo:
    """`apply_matrix` checks each distinct matrix for being a permutation once."""

    CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]

    def test_near_permutation_takes_dense_path(self, monkeypatch):
        from qiprune import linalg

        psi = random_state(2, np.random.default_rng(1))
        apply_matrix(psi, self.CNOT, [0, 1], 2)  # the memo now holds CNOT
        near = self.CNOT.copy()
        near[0, 1] = 1e-17
        dense_calls = []
        dense = linalg._apply_dense

        def counted(*args):
            dense_calls.append(1)
            return dense(*args)

        monkeypatch.setattr(linalg, "_apply_dense", counted)
        apply_matrix(psi, near, [0, 1], 2)
        assert dense_calls == [1]
        apply_matrix(psi, self.CNOT, [0, 1], 2)
        assert dense_calls == [1]

    def test_copy_hits_the_memo(self):
        from qiprune import linalg

        psi = random_state(2, np.random.default_rng(2))
        want = apply_matrix(psi, self.CNOT, [0, 1], 2)
        before = linalg._memoised_permutation_check.cache_info()
        got = apply_matrix(psi, np.array(self.CNOT), [0, 1], 2)
        after = linalg._memoised_permutation_check.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        np.testing.assert_array_equal(got, want)

    def test_in_place_edit_is_not_answered_from_a_stale_entry(self):
        from oracles import embed_kron

        rng = np.random.default_rng(3)
        psi = random_state(2, rng)
        mat = self.CNOT.copy()
        np.testing.assert_array_equal(apply_matrix(psi, mat, [0, 1], 2), psi[[0, 1, 3, 2]])
        mat[2:, 2:] = haar_unitary(2, rng)
        np.testing.assert_allclose(
            apply_matrix(psi, mat, [0, 1], 2), embed_kron(mat, [0, 1], 2) @ psi, atol=1e-12
        )


class TestPureTraceDistance:
    def test_identical_states(self):
        psi = random_state(2, np.random.default_rng(0))
        assert pure_trace_distance(psi, psi) == 0.0

    def test_orthogonal_states(self):
        assert pure_trace_distance(basis(1, 0), basis(1, 1)) == 2.0

    def test_zero_plus_pair(self):
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        # closed form: 2 sqrt(1 - 1/2) = sqrt(2)
        assert pure_trace_distance(basis(1, 0), plus) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pure_trace_distance(basis(1, 0), basis(2, 0))

    def test_batches_along_the_last_axis(self):
        rng = np.random.default_rng(3)
        a = np.array([[random_state(2, rng) for _ in range(4)] for _ in range(3)])
        b = np.array([[random_state(2, rng) for _ in range(4)] for _ in range(3)])
        b[1, 2] = a[1, 2]
        tds = pure_trace_distance(a, b)
        assert tds.shape == (3, 4)
        assert tds[1, 2] == 0.0
        for i, j in np.ndindex(3, 4):
            assert tds[i, j] == pure_trace_distance(a[i, j], b[i, j])
        assert type(pure_trace_distance(a[0, 0], b[0, 0])) is float

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_symmetry_and_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_state(2, rng) for _ in range(3))
        assert pure_trace_distance(a, b) == pytest.approx(pure_trace_distance(b, a), abs=1e-12)
        assert pure_trace_distance(a, c) <= pure_trace_distance(a, b) + pure_trace_distance(b, c) + 1e-9


class TestOperatorNorm:
    def test_identity(self):
        for dim in (2, 4, 8):
            assert operator_norm(np.eye(dim, dtype=complex)) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_spectrum(self):
        assert operator_norm(np.diag([3.0, -1.0]).astype(complex)) == pytest.approx(3.0, abs=1e-9)

    def test_pauli_zz(self):
        zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])).astype(complex)
        # oracle: enumerate the eigenvalues of the 4x4 directly
        assert max(abs(np.linalg.eigvalsh(zz))) == pytest.approx(1.0)
        assert operator_norm(zz) == pytest.approx(1.0, abs=1e-10)

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            expected = float(np.linalg.svd(m, compute_uv=False)[0])
            assert operator_norm(m) == pytest.approx(expected, rel=1e-8)

    def test_unitary_products_have_norm_one(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            u = haar_unitary(4, rng) @ haar_unitary(4, rng) @ haar_unitary(4, rng)
            assert operator_norm(u) == pytest.approx(1.0, abs=1e-9)

    def test_complex_diagonal_is_exact(self):
        # the 1-D form of diag(3j, -1, 0.5) takes max |entry|, with no SVD
        assert operator_norm(np.array([3j, -1.0, 0.5])) == 3.0
        assert operator_norm(np.zeros(0)) == 0.0

    def test_off_diagonal_entry_takes_the_svd(self):
        op = np.diag([3j, -1.0, 0.5])
        op[0, 1] = 1e-3
        assert operator_norm(op) == pytest.approx(np.linalg.norm(op, 2), rel=1e-14)
        assert operator_norm(op) > 3.0

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 3), dtype=complex)) == 0.0
        assert operator_norm(np.zeros((0, 0))) == 0.0

    def test_shape_error(self):
        with pytest.raises(ValueError, match="square"):
            operator_norm(np.zeros((2, 3)))


class TestExpectation:
    @pytest.mark.parametrize("lead", [(), (5,), (2, 5)], ids=["single", "batch", "stacked"])
    @pytest.mark.parametrize("form", ["diagonal", "matrix"])
    def test_matches_einsum_reference(self, lead, form):
        rng = np.random.default_rng(len(lead))
        states = rng.standard_normal(lead + (8,)) + 1j * rng.standard_normal(lead + (8,))
        if form == "diagonal":
            observable = rng.standard_normal(8)
            dense = np.diag(observable)
        else:
            h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            observable = dense = (h + h.conj().T) / 2.0
        applied = np.einsum("ij,...j->...i", dense, states)
        want = np.einsum("...i,ij,...j->...", np.conj(states), dense, states).real
        got = apply_observable(states, observable)
        assert got.shape == states.shape
        np.testing.assert_allclose(got, applied, rtol=0, atol=1e-12)
        values = expectation(states, observable)
        assert np.shape(values) == lead
        np.testing.assert_allclose(values, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "observable",
        [np.ones(1), np.ones(4), np.eye(4), np.ones((8, 4)), np.ones((8, 8, 8))],
        ids=["length_1", "short_diagonal", "small_matrix", "not_square", "3d"],
    )
    def test_wrong_shape_rejected_naming_both_lengths(self, observable):
        # a length-1 diagonal would broadcast over any state without the check
        states = np.ones((3, 8), dtype=complex) / math.sqrt(8)
        shape = re.escape(str(observable.shape))
        with pytest.raises(ValueError, match=f"shape {shape} does not match state length 8"):
            expectation(states, observable)


def test_unitarity_deviation_flags_non_unitary():
    assert unitarity_deviation(np.eye(2, dtype=complex)) == 0.0
    assert unitarity_deviation(2.0 * np.eye(2, dtype=complex)) == pytest.approx(3.0)
