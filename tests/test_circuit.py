import cmath
import math
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from oracles import circuit_unitary

from qiprune.circuit import (
    CNOT,
    ROT,
    Circuit,
    Gate,
    block_centers,
    block_members,
    build_ansatz,
    compile_gate,
    rot_derivatives,
    rot_matrix,
    run,
    run_fused,
    zyz_angles,
)
from qiprune.linalg import random_state, unitarity_deviation
from qiprune.pruner import certify, merge_adjacent_duplicates, partition, prune
from qiprune.qmetric import build_geometry, calibrate_epsilon
from qiprune.tasks import z0_observable


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
        out = run(Circuit(2, 1, (g,)), basis(2, 0b10))
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
        np.testing.assert_array_equal(run(Circuit(2, 1, ()), psi), psi)

    def test_x_equivalent_rot_flips_zero(self):
        g = Gate(id=0, kind=ROT, layer=0, slot=0, qubit=0, angles=(0.0, math.pi, 0.0))
        out = run(Circuit(1, 1, (g,)), basis(1, 0))
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


def _block_circuit(n_qubits, blocks):
    """Rot blocks (per layer, per qubit a list of angle triples), each layer closed by a CNOT ring."""
    gates = []
    for layer, per_qubit in enumerate(blocks):
        for qubit, members in enumerate(per_qubit):
            for slot, angles in enumerate(members):
                gates.append(Gate(len(gates), ROT, layer, slot, qubit=qubit, angles=tuple(angles)))
        for i in range(n_qubits):
            gates.append(Gate(len(gates), CNOT, layer, i, control=i, target=(i + 1) % n_qubits))
    return Circuit(n_qubits, len(blocks), tuple(gates))


def _oracle_outputs(circ, states):
    """Each state through the circuit's full unitary (oracles.circuit_unitary)."""
    return states @ circuit_unitary(circ, compile_gate).T


def _with_gates(circ, gates):
    """`circ` with another gate sequence, ids renumbered to positions."""
    return Circuit(circ.n_qubits, circ.depth, tuple(dc_replace(g, id=i) for i, g in enumerate(gates)))


def _cnot_inside_block():
    circ = build_ansatz(2, 1, sigma=0.1, seed=3)
    cnot = circ.gates[-1]
    return _with_gates(circ, circ.gates[:2] + (cnot,) + circ.gates[2:-1])


def _missing_ring():
    circ = build_ansatz(2, 2, sigma=0.1, seed=3)
    return _with_gates(circ, circ.gates[:10] + circ.gates[12:])


OUTSIDE_LAYOUT = {
    "cnot_inside_block": _cnot_inside_block,
    "missing_ring": _missing_ring,
    "empty": lambda: Circuit(1, 1, ()),
}


class TestBlockMembers:
    def test_reads_member_angles_by_qubit_layer_and_slot(self):
        circ = build_ansatz(3, 2, sigma=0.2, seed=12)
        members = block_members(circ)
        assert members.shape == (3, 2, 5, 3)
        for g in circ.gates:
            if g.kind == ROT:
                assert tuple(members[g.qubit, g.layer, g.slot]) == g.angles

    @pytest.mark.parametrize("name", sorted(OUTSIDE_LAYOUT))
    def test_error_names_the_first_offending_gate(self, name):
        message = {
            "cnot_inside_block": r"gate 2 is cnot \(layer 0, slot 1, wires 1->0\), not rot \(layer 0, slot 2, qubit 0\)",
            "missing_ring": r"gate 10 is rot \(layer 1, slot 0, qubit 0\), not cnot \(layer 0, slot 0, wires 0->1\)",
            "empty": r"gate 0 is absent, not rot \(layer 0, slot 0, qubit 0\)",
        }[name]
        with pytest.raises(ValueError, match=message):
            block_members(OUTSIDE_LAYOUT[name]())

    def test_gate_past_the_last_layer_rejected(self):
        circ = build_ansatz(1, 1, sigma=0.1, seed=0)
        extra = Gate(5, ROT, 1, 0, qubit=0, angles=(0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match=r"gate 5 is rot \(layer 1, slot 0, qubit 0\), not absent"):
            block_members(Circuit(1, 1, circ.gates + (extra,)))


def _block_circuit(n_qubits, blocks):
    """Rot blocks (per layer, per qubit a list of angle triples), each layer closed by a CNOT ring."""
    gates = []
    for layer, per_qubit in enumerate(blocks):
        for qubit, members in enumerate(per_qubit):
            for slot, angles in enumerate(members):
                gates.append(Gate(len(gates), ROT, layer, slot, qubit=qubit, angles=tuple(angles)))
        for i in range(n_qubits):
            gates.append(Gate(len(gates), CNOT, layer, i, control=i, target=(i + 1) % n_qubits))
    return Circuit(n_qubits, len(blocks), tuple(gates))


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
        circ = _block_circuit(2, [[special, generic], [generic, special]])
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
        circ = Circuit(2, 1, gates)
        merged, removed = merge_adjacent_duplicates(circ)
        assert removed == 1
        assert [g.kind for g in merged.gates] == [ROT, CNOT, ROT]
        assert merged.gates[2].angles == a
        np.testing.assert_allclose(
            circuit_unitary(merged, compile_gate), circuit_unitary(circ, compile_gate), rtol=0, atol=1e-12
        )

    def test_circuit_without_rot_gates_is_unchanged(self):
        gates = tuple(Gate(i, CNOT, 0, i, control=i, target=(i + 1) % 3) for i in range(3))
        circ = Circuit(3, 1, gates)
        assert merge_adjacent_duplicates(circ) == (circ, 0)
        assert merge_adjacent_duplicates(Circuit(2, 1, ())) == (Circuit(2, 1, ()), 0)


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
        # outside the ansatz layout: run_fused refuses them, run executes them
        rng = np.random.default_rng(16)
        states = np.array([random_state(3, rng) for _ in range(3)])
        gates = tuple(Gate(i, CNOT, 0, i, control=i, target=(i + 1) % 3) for i in range(3))
        for circ in (Circuit(3, 1, gates), Circuit(3, 1, ())):
            with pytest.raises(ValueError, match="not a 3-qubit depth-1 ansatz"):
                run_fused(circ, states)
            np.testing.assert_allclose(run(circ, states), _oracle_outputs(circ, states), rtol=0, atol=1e-12)

    def test_single_state_and_dimension_check(self):
        circ = build_ansatz(2, 1, sigma=0.1, seed=4)
        psi = random_state(2, np.random.default_rng(17))
        out = run_fused(circ, psi)
        assert out.shape == (4,)
        np.testing.assert_allclose(out, run(circ, psi), rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="does not match"):
            run_fused(circ, basis(3, 0))


def _certify_alone(circ):
    """certify with `circ` as both the original and the pruned circuit."""
    n = circ.n_qubits
    geo = build_geometry(n, 1.0)
    ens = np.array([random_state(n, np.random.default_rng(18))])
    _, report = prune(build_ansatz(n, circ.depth), ens, geo, calibrate_epsilon(0.01, geo))
    return certify(report, circ, circ, ens, z0_observable(n))


@pytest.mark.parametrize("name", sorted(OUTSIDE_LAYOUT))
@pytest.mark.parametrize(
    "entry",
    [
        lambda c: run_fused(c, np.eye(c.dim, dtype=complex)),
        partition,
        _certify_alone,
        block_centers,
    ],
    ids=["run_fused", "partition", "certify", "block_centers"],
)
def test_layout_users_reject_circuits_outside_the_layout(entry, name):
    circ = OUTSIDE_LAYOUT[name]()
    with pytest.raises(ValueError, match="ansatz"):
        entry(circ)
    run(circ, np.eye(circ.dim, dtype=complex))


@pytest.mark.parametrize(
    "overrides",
    [{"task": "tfim", "n_qubits": 3, "vqe_iters": 1}, {"task": "bas", "train_epochs": 0}],
)
def test_grid_point_builds_no_euler_angles_or_rot_matrices_one_by_one(monkeypatch, overrides):
    # every output pass applies block_walk's products: no gate goes through
    # compile_gate and no product goes back to ZYZ angles
    import qiprune.circuit
    import qiprune.pruner
    from qiprune import cli

    ctx = cli.prepare_task(cli.RunConfig(depth=1, M=4, seed=0, **overrides))
    compiled, angles = [], []
    compile_original, zyz_original = qiprune.circuit.compile_gate, qiprune.pruner.zyz_angles

    def counted_compile(g):
        compiled.append(g.kind)
        return compile_original(g)

    def counted_zyz(mat):
        angles.append(1)
        return zyz_original(mat)

    monkeypatch.setattr(qiprune.circuit, "compile_gate", counted_compile)
    # merge_adjacent_duplicates is zyz_angles' only caller
    monkeypatch.setattr(qiprune.pruner, "zyz_angles", counted_zyz)
    result = cli.run_grid_point(ctx, 0.02, 0.003)
    assert result["report"].L > 0
    assert angles == [] and compiled == []


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
