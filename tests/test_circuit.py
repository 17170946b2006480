import cmath
import math

import numpy as np
import pytest

from oracles import circuit_unitary

from qiprune.circuit import (
    BLOCK_SIZE,
    CNOT,
    ROT,
    Circuit,
    Gate,
    apply_gate_sequence,
    block_centers,
    block_products,
    block_walk,
    build_ansatz,
    compile_gate,
    rot_derivatives,
    rot_matrix,
    run,
    run_fused,
    zyz_angles,
)
from qiprune.linalg import apply_matrix, random_state, unitarity_deviation
from qiprune.pruner import merge_adjacent_duplicates


def basis(n, i):
    s = np.zeros(1 << n, dtype=complex)
    s[i] = 1.0
    return s


class TestCompileGate:
    def test_zero_rot_is_identity(self):
        g = Gate(id=0, kind=ROT, layer=0, slot=0, qubit=0, angles=(0.0, 0.0, 0.0))
        np.testing.assert_allclose(compile_gate(g), np.eye(2), atol=1e-15)

    def test_pure_y_rotation(self):
        # closed form: Ry(pi) = [[0, -1], [1, 0]]
        g = Gate(id=0, kind=ROT, layer=0, slot=0, qubit=0, angles=(0.0, math.pi, 0.0))
        np.testing.assert_allclose(compile_gate(g), np.array([[0, -1], [1, 0]]), atol=1e-15)

    def test_cnot_truth_table(self):
        g = Gate(id=0, kind=CNOT, layer=0, slot=0, control=0, target=1)
        out = apply_gate_sequence(basis(2, 0b10), (g,), 2)
        np.testing.assert_allclose(out, basis(2, 0b11), atol=1e-15)

    def test_rot_unitarity_1000_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            a, b, c = rng.uniform(-math.pi, math.pi, size=3)
            assert unitarity_deviation(rot_matrix(a, b, c)) <= 1e-10

    def test_closed_form_matches_zyz_product(self):
        def rz(t):
            return np.diag([cmath.exp(-0.5j * t), cmath.exp(0.5j * t)])

        def ry(t):
            return np.array([[math.cos(t / 2), -math.sin(t / 2)], [math.sin(t / 2), math.cos(t / 2)]])

        rng = np.random.default_rng(3)
        for a, b, c in rng.uniform(-2 * math.pi, 2 * math.pi, size=(1000, 3)):
            np.testing.assert_allclose(rot_matrix(a, b, c), rz(c) @ ry(b) @ rz(a), rtol=0, atol=1e-15)

    def test_angle_arrays_equal_scalar_calls(self):
        # exact equality: equal angles must give bit-identical matrices wherever
        # they sit in the array, which prune's exact-zero comparisons rely on
        rng = np.random.default_rng(5)
        angles = rng.uniform(-math.pi, math.pi, size=(37, 3))
        angles[20:] = angles[3]
        stack = rot_matrix(*angles.T)
        assert stack.shape == (37, 2, 2)
        for k, triple in enumerate(angles):
            np.testing.assert_array_equal(stack[k], rot_matrix(*triple))
        for stacked, single in zip(rot_derivatives(*angles.T), rot_derivatives(*angles[7])):
            np.testing.assert_allclose(stacked[7], single, rtol=0, atol=1e-15)
        grid = rot_matrix(angles[:4, 0][:, None], angles[:3, 1], 0.25)
        assert grid.shape == (4, 3, 2, 2)
        np.testing.assert_array_equal(grid[2, 1], rot_matrix(angles[2, 0], angles[1, 1], 0.25))

    def test_rot_derivatives_match_central_differences(self):
        # oracle: (rot_matrix(angle + h) - rot_matrix(angle - h)) / 2h per angle
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(50):
            angles = rng.uniform(-math.pi, math.pi, size=3)
            for a, deriv in enumerate(rot_derivatives(*angles)):
                step = h * np.eye(3)[a]
                fd = (rot_matrix(*(angles + step)) - rot_matrix(*(angles - step))) / (2 * h)
                np.testing.assert_allclose(deriv, fd, atol=1e-9)


class TestBuildAnsatz:
    @pytest.mark.parametrize("n,depth,expected_rot", [(8, 12, 480), (4, 12, 240)])
    def test_benchmark_gate_counts(self, n, depth, expected_rot):
        circ = build_ansatz(n, depth, sigma=0.001, seed=0)
        assert circ.n_rot == expected_rot
        assert len(circ.gates) == expected_rot + n * depth

    def test_gate_ids_strictly_increasing(self):
        circ = build_ansatz(3, 2, sigma=0.01, seed=1)
        ids = [g.id for g in circ.gates]
        assert ids == list(range(len(ids)))

    def test_sigma_zero_blocks_equal_center(self):
        centers = np.random.default_rng(5).uniform(-1, 1, size=(2, 3, 3))
        circ = build_ansatz(2, 3, centers=centers, sigma=0.0, seed=7)
        for g in circ.gates:
            if g.kind != ROT:
                continue
            np.testing.assert_array_equal(g.angles, centers[g.qubit, g.layer])

    def test_noise_directions_shared_across_sigma(self):
        centers = np.zeros((2, 2, 3))
        c1 = build_ansatz(2, 2, centers=centers, sigma=0.001, seed=3)
        c2 = build_ansatz(2, 2, centers=centers, sigma=0.003, seed=3)
        for g1, g2 in zip(c1.gates, c2.gates):
            if g1.kind != ROT:
                continue
            np.testing.assert_allclose(np.array(g2.angles), 3.0 * np.array(g1.angles), rtol=1e-12)

    def test_single_qubit_has_no_entangler(self):
        circ = build_ansatz(1, 2, sigma=0.0, seed=0)
        assert all(g.kind == ROT for g in circ.gates)

    def test_determinism(self):
        assert build_ansatz(3, 2, sigma=0.01, seed=9) == build_ansatz(3, 2, sigma=0.01, seed=9)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_ansatz(0, 1)
        with pytest.raises(ValueError):
            build_ansatz(2, 1, sigma=-0.1)
        with pytest.raises(ValueError, match="centers"):
            build_ansatz(2, 1, centers=np.zeros((1, 1, 3)))

    def test_block_centers_roundtrip(self):
        centers = np.random.default_rng(8).uniform(-2, 2, size=(3, 2, 3))
        circ = build_ansatz(3, 2, centers=centers, sigma=0.0, seed=0)
        np.testing.assert_array_equal(block_centers(circ), centers)


class TestRun:
    def test_empty_circuit(self):
        psi = random_state(2, np.random.default_rng(1))
        np.testing.assert_array_equal(apply_gate_sequence(psi, (), 2), psi)

    def test_x_equivalent_rot_flips_zero(self):
        g = Gate(id=0, kind=ROT, layer=0, slot=0, qubit=0, angles=(0.0, math.pi, 0.0))
        out = apply_gate_sequence(basis(1, 0), (g,), 1)
        assert abs(np.vdot(out, basis(1, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_identity_blocks_leave_ring_permutation(self):
        from oracles import cnot_ring_bits

        n, depth = 3, 2
        circ = build_ansatz(n, depth, centers=np.zeros((n, depth, 3)), sigma=0.0, seed=0)
        for idx in range(1 << n):
            bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
            for _ in range(depth):
                bits = cnot_ring_bits(bits)
            expected_index = int("".join(map(str, bits)), 2)
            out = run(circ, basis(n, idx))
            np.testing.assert_allclose(np.abs(out), np.abs(basis(n, expected_index)), atol=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        circ = build_ansatz(4, 3, sigma=0.2, seed=11)
        for _ in range(5):
            out = run(circ, random_state(4, rng))
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_batch_leading_axis(self):
        rng = np.random.default_rng(6)
        circ = build_ansatz(2, 2, sigma=0.1, seed=2)
        batch = np.array([random_state(2, rng) for _ in range(4)])
        out = run(circ, batch)
        for k in range(4):
            np.testing.assert_allclose(out[k], run(circ, batch[k]), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            run(build_ansatz(2, 1), basis(3, 0))


def _block_circuit(blocks):
    """Circuit of Rot blocks given per layer, per qubit as a list of BLOCK_SIZE angle triples."""
    return Circuit(np.swapaxes(np.array(blocks, dtype=float), 0, 1))


def _oracle_outputs(circ, states):
    """Each state through the circuit's full unitary (oracles.circuit_unitary)."""
    return states @ circuit_unitary(circ.gates, circ.n_qubits, compile_gate).T


class TestBlockMembers:
    def test_reads_member_angles_by_qubit_layer_and_slot(self):
        circ = build_ansatz(3, 2, sigma=0.2, seed=12)
        assert circ.members.shape == (3, 2, 5, 3)
        for g in circ.gates:
            if g.kind == ROT:
                assert tuple(circ.members[g.qubit, g.layer, g.slot]) == g.angles

    @pytest.mark.parametrize(
        "shape",
        [(2, 5, 3), (2, 1, 4, 3), (2, 1, 5, 2), (0, 1, 5, 3), (2, 0, 5, 3)],
        ids=["ndim", "slot_count", "angle_count", "zero_qubits", "zero_depth"],
    )
    def test_shapes_outside_the_layout_rejected(self, shape):
        with pytest.raises(ValueError, match=r"members must have shape \(n_qubits >= 1, depth >= 1, 5, 3\)"):
            Circuit(np.zeros(shape))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "neg_inf"])
    def test_non_finite_angles_rejected(self, bad):
        members = np.zeros((2, 1, BLOCK_SIZE, 3))
        members[1, 0, 3, 2] = bad
        with pytest.raises(ValueError, match="member angles must be finite"):
            Circuit(members)

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            build_ansatz(2, 1, sigma=float("nan"))

    def test_members_are_a_read_only_copy(self):
        members = np.random.default_rng(13).uniform(-1, 1, size=(2, 1, 5, 3))
        circ = Circuit(members)
        members[0, 0, 0] = 9.0
        assert circ.members[0, 0, 0, 0] != 9.0
        assert circ == Circuit(circ.members) and circ != Circuit(members)
        with pytest.raises(ValueError, match="read-only"):
            circ.members[0, 0, 0, 0] = 9.0

    def test_gates_view_matches_gate_by_gate_construction(self):
        # the Gate tuple build_ansatz built before circuits held member arrays:
        # per layer each qubit's five Rot gates, then the CNOT ring; ids are positions
        n, depth, sigma, seed = 3, 2, 0.01, 5
        centers = np.random.default_rng([seed, 1]).uniform(-math.pi, math.pi, size=(n, depth, 3))
        xi = np.random.default_rng([seed, 0]).standard_normal(size=(depth, n, BLOCK_SIZE, 3))
        expected = []
        for layer in range(depth):
            for q in range(n):
                for slot in range(BLOCK_SIZE):
                    angles = tuple((centers[q, layer] + sigma * xi[layer, q, slot]).tolist())
                    expected.append(Gate(len(expected), ROT, layer, slot, qubit=q, angles=angles))
            for i in range(n):
                expected.append(Gate(len(expected), CNOT, layer, i, control=i, target=(i + 1) % n))
        circ = build_ansatz(n, depth, sigma=sigma, seed=seed)
        assert circ.gates == tuple(expected)
        assert circ.gates is circ.gates


class TestFuseBlocks:
    """Block fusion: `run_fused` applies each block as one product matrix, and
    `merge_adjacent_duplicates` joins runs of identical adjacent gates."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_unitary_oracle_on_random_depth2(self, n, seed):
        circ = build_ansatz(n, 2, sigma=0.4, seed=seed)
        basis_states = np.eye(1 << n, dtype=complex)
        np.testing.assert_allclose(
            run_fused(circ, basis_states), _oracle_outputs(circ, basis_states), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("beta", [0.0, math.pi])
    def test_diagonal_and_antidiagonal_products(self, beta):
        # qubit 0's block product has beta = 0 (diagonal) or beta = pi
        # (anti-diagonal)
        rng = np.random.default_rng(6)
        special = [(a, 0.0, c) for a, c in rng.uniform(-math.pi, math.pi, size=(4, 2))]
        special.insert(2, (0.4, beta, -1.1))
        generic = rng.uniform(-math.pi, math.pi, size=(5, 3))
        circ = _block_circuit([[special, generic], [generic, special]])
        product = rot_matrix(*np.array(special[::-1]).T)
        product = product[0] @ product[1] @ product[2] @ product[3] @ product[4]
        assert abs(product[1, 0] if beta == 0.0 else product[0, 0]) < 1e-12
        states = np.array([random_state(2, np.random.default_rng(k)) for k in range(4)])
        got = run_fused(circ, states)
        np.testing.assert_allclose(got, run(circ, states), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, _oracle_outputs(circ, states), rtol=0, atol=1e-12)

    def test_run_broken_by_another_wire_is_not_joined(self):
        a = tuple(np.random.default_rng(7).uniform(-math.pi, math.pi, size=3))
        gates = (
            Gate(0, ROT, 0, 0, qubit=0, angles=a),
            Gate(1, ROT, 0, 1, qubit=0, angles=a),
            Gate(2, CNOT, 0, 0, control=1, target=0),
            Gate(3, ROT, 0, 2, qubit=0, angles=a),
        )
        merged, removed = merge_adjacent_duplicates(gates)
        assert removed == 1
        assert [g.kind for g in merged] == [ROT, CNOT, ROT]
        assert merged[2].angles == a
        np.testing.assert_allclose(
            circuit_unitary(merged, 2, compile_gate), circuit_unitary(gates, 2, compile_gate), rtol=0, atol=1e-12
        )

    def test_circuit_without_rot_gates_is_unchanged(self):
        gates = tuple(Gate(i, CNOT, 0, i, control=i, target=(i + 1) % 3) for i in range(3))
        assert merge_adjacent_duplicates(gates) == (gates, 0)
        assert merge_adjacent_duplicates(()) == ((), 0)


class TestBlockWalk:
    """`block_walk` forward and in reverse: both follow `_layout`."""

    @staticmethod
    def _blocks(n, depth, seed):
        circ = build_ansatz(n, depth, sigma=0.3, seed=seed)
        return block_products(rot_matrix(*np.moveaxis(circ.members, -1, 0)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_reverse_walk_of_the_adjoints_undoes_the_forward_walk(self, n, depth):
        blocks = self._blocks(n, depth, seed=10 * n + depth)
        inverse = np.conj(np.swapaxes(blocks, -1, -2))
        rng = np.random.default_rng(n + depth)
        batch = np.array([random_state(n, rng) for _ in range(3)])
        for states in (batch[0], batch, np.stack([batch, batch[::-1]])):
            out = block_walk(blocks, states)
            assert np.max(np.abs(out - states)) > 1e-3
            back = block_walk(inverse, out, reverse=True)
            np.testing.assert_allclose(back, states, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, depth", [(1, 2), (3, 2), (4, 3)])
    def test_reverse_visits_are_the_forward_visits_reversed(self, n, depth):
        blocks = self._blocks(n, depth, seed=3)
        state = random_state(n, np.random.default_rng(4))
        seen = {False: [], True: []}
        for reverse in seen:
            block_walk(blocks, state, lambda q, layer, _, r=reverse: seen[r].append((q, layer)), reverse=reverse)
        assert seen[False] == [(q, layer) for layer in range(depth) for q in range(n)]
        assert seen[True] == seen[False][::-1]

    def test_reverse_visit_sees_the_states_leaving_the_block(self):
        # forward visits see the states entering a block; walking the adjoints
        # back, a visit sees the forward states right after that block
        n, depth = 3, 2
        blocks = self._blocks(n, depth, seed=5)
        inverse = np.conj(np.swapaxes(blocks, -1, -2))
        state = random_state(n, np.random.default_rng(6))
        entering, leaving = {}, {}
        final = block_walk(blocks, state, lambda q, layer, s: entering.__setitem__((q, layer), s))
        block_walk(inverse, final, lambda q, layer, s: leaving.__setitem__((q, layer), s), reverse=True)
        assert entering.keys() == leaving.keys()
        for (q, layer), s in entering.items():
            expected = apply_matrix(s, blocks[q, layer], [q], n)
            np.testing.assert_allclose(leaving[q, layer], expected, rtol=0, atol=1e-12)


class TestRunFused:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_run_on_random_depth2(self, n, seed):
        circ = build_ansatz(n, 2, sigma=0.4, seed=seed)
        rng = np.random.default_rng(seed)
        states = np.array([random_state(n, rng) for _ in range(4)])
        got = run_fused(circ, states)
        np.testing.assert_allclose(got, run(circ, states), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, _oracle_outputs(circ, states), rtol=0, atol=1e-12)

    def test_cnot_only_and_empty_circuits(self):
        # outside the ansatz layout: no Circuit holds them (no Rot slots, no
        # layer), and apply_gate_sequence executes them
        rng = np.random.default_rng(16)
        states = np.array([random_state(3, rng) for _ in range(3)])
        gates = tuple(Gate(i, CNOT, 0, i, control=i, target=(i + 1) % 3) for i in range(3))
        for members in (np.zeros((3, 1, 0, 3)), np.zeros((3, 0, BLOCK_SIZE, 3))):
            with pytest.raises(ValueError, match="members must have shape"):
                Circuit(members)
        for seq in (gates, ()):
            np.testing.assert_allclose(
                apply_gate_sequence(states, seq, 3), states @ circuit_unitary(seq, 3, compile_gate).T, rtol=0, atol=1e-12
            )

    def test_single_state_and_dimension_check(self):
        circ = build_ansatz(2, 1, sigma=0.1, seed=4)
        psi = random_state(2, np.random.default_rng(17))
        out = run_fused(circ, psi)
        assert out.shape == (4,)
        np.testing.assert_allclose(out, run(circ, psi), rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="does not match"):
            run_fused(circ, basis(3, 0))


@pytest.mark.parametrize(
    "overrides",
    [{"task": "tfim", "n_qubits": 3, "vqe_iters": 1}, {"task": "bas", "train_epochs": 1}],
)
def test_grid_point_builds_no_euler_angles_or_rot_matrices_one_by_one(monkeypatch, overrides):
    # training, VQE and every output pass work on member arrays and apply
    # block_walk's products: no Gate is built, no gate goes through
    # compile_gate and no product goes back to ZYZ angles
    import qiprune.circuit
    import qiprune.pruner
    from qiprune import cli

    built, compiled, angles = [], [], []
    init_original = Gate.__init__
    compile_original, zyz_original = qiprune.circuit.compile_gate, qiprune.pruner.zyz_angles

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init_original(self, *args, **kwargs)

    def counted_compile(g):
        compiled.append(g.kind)
        return compile_original(g)

    def counted_zyz(mat):
        angles.append(1)
        return zyz_original(mat)

    monkeypatch.setattr(Gate, "__init__", counted_init)
    monkeypatch.setattr(qiprune.circuit, "compile_gate", counted_compile)
    # merge_adjacent_duplicates is zyz_angles' only caller
    monkeypatch.setattr(qiprune.pruner, "zyz_angles", counted_zyz)
    ctx = cli.prepare_task(cli.RunConfig(depth=1, M=4, seed=0, **overrides))
    result = cli.run_grid_point(ctx, 0.02, 0.003)
    assert result["report"].L > 0
    assert built == [] and angles == [] and compiled == []
    # the counter sees Gates built outside the grid point
    assert len(build_ansatz(1, 1).gates) == len(built) == BLOCK_SIZE


class TestZyzAngles:
    def test_reconstructs_random_products(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            mats = [rot_matrix(*rng.uniform(-math.pi, math.pi, size=3)) for _ in range(3)]
            prod = mats[0] @ mats[1] @ mats[2]
            np.testing.assert_allclose(rot_matrix(*zyz_angles(prod)), prod, atol=1e-12)

    def test_diagonal_case(self):
        mat = rot_matrix(0.7, 0.0, 0.0)
        np.testing.assert_allclose(rot_matrix(*zyz_angles(mat)), mat, atol=1e-12)

    def test_antidiagonal_case(self):
        mat = rot_matrix(0.4, math.pi, 0.0)
        np.testing.assert_allclose(rot_matrix(*zyz_angles(mat)), mat, atol=1e-12)

    def test_minus_identity(self):
        np.testing.assert_allclose(rot_matrix(*zyz_angles(-np.eye(2, dtype=complex))), -np.eye(2), atol=1e-12)
