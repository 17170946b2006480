import itertools
import json
import math
import struct

import numpy as np
import pytest

from qiprune.circuit import (
    BLOCK_SIZE,
    ROT,
    Circuit,
    block_centers,
    block_products,
    block_walk,
    build_ansatz,
    rot_matrix,
    run,
)
from qiprune.linalg import expectation, operator_norm, random_state
from qiprune.tasks import (
    EncodedDataset,
    _expectations_and_grads,
    _shared_members,
    build_ensemble,
    build_tfim,
    dataset_to_json,
    downsample_28_to_16,
    encode_amplitude,
    evaluate_classifier,
    generate_bas,
    load_idx,
    margins,
    run_vqe,
    train_classifier,
    vqe_energy,
    z0_observable,
    zero_state,
)
from oracles import checkpointed_expectations_and_grads, z0_expectation


def write_idx_files(tmp_path, images: np.ndarray, labels: np.ndarray):
    n, rows, cols = images.shape
    img_path = tmp_path / "images-idx3-ubyte"
    lab_path = tmp_path / "labels-idx1-ubyte"
    img_path.write_bytes(struct.pack(">IIII", 2051, n, rows, cols) + images.astype(np.uint8).tobytes())
    lab_path.write_bytes(struct.pack(">II", 2049, n) + labels.astype(np.uint8).tobytes())
    return img_path, lab_path


def synthetic_images(n, seed, lo=1, hi=255):
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi, size=(n, 28, 28), dtype=np.uint8)


class TestEncodeAmplitude:
    def test_basis_vector(self):
        out = encode_amplitude([1.0, 0.0, 0.0, 0.0], 2)
        np.testing.assert_array_equal(out, np.array([1, 0, 0, 0], dtype=complex))

    def test_uniform(self):
        out = encode_amplitude([1.0, 1.0, 1.0, 1.0], 2)
        np.testing.assert_allclose(out, 0.5 * np.ones(4), atol=1e-15)

    def test_zero_padding(self):
        out = encode_amplitude([3.0, 4.0], 2)
        np.testing.assert_allclose(out, [0.6, 0.8, 0.0, 0.0], atol=1e-15)

    def test_truncation(self):
        out = encode_amplitude([1.0, 1.0, 1.0], 1)
        np.testing.assert_allclose(out, [1, 1] / np.sqrt(2), atol=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            encode_amplitude([0.0, 0.0], 1)

    def test_image_norm_contract(self):
        img = synthetic_images(1, 3)[0]
        state = encode_amplitude(downsample_28_to_16(img).ravel(), 8)
        assert state.shape == (256,)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-10


class TestDownsample:
    def test_block_average_oracle(self):
        img = np.arange(28 * 28, dtype=float).reshape(28, 28)
        out = downsample_28_to_16(img)
        padded = np.zeros((32, 32))
        padded[2:30, 2:30] = img
        for r, c in itertools.product(range(16), range(16)):
            expected = padded[2 * r : 2 * r + 2, 2 * c : 2 * c + 2].mean()
            assert out[r, c] == pytest.approx(expected)

    def test_shape_check(self):
        with pytest.raises(ValueError, match="28x28"):
            downsample_28_to_16(np.zeros((16, 16)))


class TestGenerateBas:
    def test_pattern_count(self):
        assert len(generate_bas(4)) == 28

    def test_set_equality_with_enumeration_oracle(self):
        # oracle: build all column and row patterns with itertools and sets
        data = generate_bas(4)
        oracle = set()
        for bits in itertools.product((0, 1), repeat=4):
            if all(bits) or not any(bits):
                continue
            col_img = tuple(tuple(bits[c] for c in range(4)) for _ in range(4))
            row_img = tuple(tuple(bits[r] for _ in range(4)) for r in range(4))
            oracle.add((col_img, 1))
            oracle.add((row_img, -1))
        assert len(oracle) == 28
        built = set()
        for state, label in zip(data.states, data.labels):
            flat = np.real(state)
            flat = flat / flat.max()
            img = tuple(tuple(int(round(x)) for x in flat[4 * r : 4 * r + 4]) for r in range(4))
            built.add((img, int(label)))
        assert built == oracle

    def test_single_column_is_a_bar(self):
        data = generate_bas(4)
        col = np.zeros((4, 4))
        col[:, 2] = 1.0
        target = encode_amplitude(col.ravel(), 4)
        hit = [i for i, s in enumerate(data.states) if np.allclose(s, target)]
        assert len(hit) == 1 and data.labels[hit[0]] == 1

    def test_unit_norms(self):
        data = generate_bas(4)
        np.testing.assert_allclose(np.linalg.norm(data.states, axis=1), 1.0, atol=1e-10)

    def test_side_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            generate_bas(3)


class TestLoadIdx:
    def test_filters_and_labels(self, tmp_path):
        images = synthetic_images(30, 0)
        labels = np.array([4, 9, 1] * 10)
        img_path, lab_path = write_idx_files(tmp_path, images, labels)
        data = load_idx(img_path, lab_path, (4, 9), 8)
        # oracle: count the kept classes straight from the label array
        assert len(data) == int(np.sum(labels == 4) + np.sum(labels == 9))
        assert int(np.sum(data.labels == 1)) == int(np.sum(labels == 4))
        np.testing.assert_allclose(np.linalg.norm(data.states, axis=1), 1.0, atol=1e-10)
        assert data.states.shape == (20, 256)

    def test_split_is_every_fifth(self, tmp_path):
        images = synthetic_images(25, 1)
        labels = np.array([4, 9] * 12 + [4])
        img_path, lab_path = write_idx_files(tmp_path, images, labels)
        data = load_idx(img_path, lab_path, (4, 9), 8)
        assert set(data.val_idx) == {i for i in range(25) if i % 5 == 0}
        assert set(data.train_idx) | set(data.val_idx) == set(range(25))

    def test_absent_class(self, tmp_path):
        images = synthetic_images(6, 2)
        labels = np.full(6, 4)
        img_path, lab_path = write_idx_files(tmp_path, images, labels)
        with pytest.raises(ValueError, match="class absent"):
            load_idx(img_path, lab_path, (4, 9), 8)

    def test_bad_magic(self, tmp_path):
        images = synthetic_images(3, 3)
        labels = np.array([4, 9, 4])
        img_path, lab_path = write_idx_files(tmp_path, images, labels)
        raw = bytearray(img_path.read_bytes())
        raw[3] = 9
        img_path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            load_idx(img_path, lab_path, (4, 9), 8)

    def test_truncated_payload(self, tmp_path):
        images = synthetic_images(3, 4)
        labels = np.array([4, 9, 4])
        img_path, lab_path = write_idx_files(tmp_path, images, labels)
        img_path.write_bytes(img_path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_idx(img_path, lab_path, (4, 9), 8)

    def test_generic_image_shape_flattens_and_pads(self, tmp_path):
        rng = np.random.default_rng(6)
        images = rng.integers(1, 255, size=(4, 3, 3), dtype=np.uint8)
        img_path, lab_path = write_idx_files(tmp_path, images, np.array([4, 9, 4, 9]))
        data = load_idx(img_path, lab_path, (4, 9), 4)
        assert data.states.shape == (4, 16)
        np.testing.assert_allclose(np.linalg.norm(data.states, axis=1), 1.0, atol=1e-10)
        # 9 pixels, then zeros up to 16
        assert np.all(data.states[:, 9:] == 0)

    def test_count_mismatch(self, tmp_path):
        images = synthetic_images(3, 5)
        img_path, _ = write_idx_files(tmp_path, images, np.array([4, 9, 4]))
        short_lab = tmp_path / "short-labels-idx1-ubyte"
        short_lab.write_bytes(struct.pack(">II", 2049, 2) + bytes([4, 9]))
        with pytest.raises(ValueError, match="count"):
            load_idx(img_path, short_lab, (4, 9), 8)


def test_dataset_json_round_trip():
    data = generate_bas(4)
    doc = json.loads(dataset_to_json(data))
    assert doc["name"] == data.name and doc["n_qubits"] == data.n_qubits
    np.testing.assert_array_equal([x["amplitudes"] for x in doc["samples"]], data.states.real)
    np.testing.assert_array_equal([x["label"] for x in doc["samples"]], data.labels)
    np.testing.assert_array_equal(doc["split"]["train"], data.train_idx)
    np.testing.assert_array_equal(doc["split"]["validation"], data.val_idx)


#: one-qubit depth-1 ansatz whose five Rot gates are all the identity
IDENTITY = build_ansatz(1, 1, centers=np.zeros((1, 1, 3)))


class TestClassifierEvaluation:
    def test_z0_observable(self):
        np.testing.assert_array_equal(z0_observable(1), [1, -1])
        np.testing.assert_array_equal(z0_observable(2), [1, 1, -1, -1])

    def _toy(self, labels):
        states = np.array([[1, 0], [0, 1]], dtype=complex)
        idx = np.arange(2)
        return EncodedDataset("toy", 1, states, np.array(labels), idx, idx.copy())

    def test_all_correct(self):
        # identity ansatz: margins are +1 for |0> and -1 for |1>
        circ = IDENTITY
        assert evaluate_classifier(circ, self._toy([1, -1])) == 1.0

    def test_label_flip_symmetry(self):
        circ = IDENTITY
        acc = evaluate_classifier(circ, self._toy([1, -1]))
        flipped = evaluate_classifier(circ, self._toy([-1, 1]))
        assert flipped == pytest.approx(1.0 - acc)

    def test_zero_margin_counts_as_plus_one(self):
        plus = np.array([[1, 1]], dtype=complex) / math.sqrt(2)
        data = EncodedDataset("t", 1, plus, np.array([1]), np.arange(1), np.arange(1))
        assert evaluate_classifier(IDENTITY, data) == 1.0

    def test_global_phase_invariance(self):
        circ = build_ansatz(2, 1, sigma=0.1, seed=0)
        rng = np.random.default_rng(0)
        states = np.array([random_state(2, rng) for _ in range(4)])
        m1 = margins(circ, states)
        m2 = margins(circ, states * np.exp(0.7j))
        np.testing.assert_allclose(m1, m2, atol=1e-12)

    def test_empty_dataset(self):
        empty = EncodedDataset("e", 1, np.zeros((0, 2), complex), np.zeros(0), np.zeros(0, int), np.zeros(0, int))
        with pytest.raises(ValueError, match="empty"):
            evaluate_classifier(IDENTITY, empty)

    def test_empty_validation_split(self):
        data = self._toy([1, -1])
        data.val_idx = np.zeros(0, int)
        with pytest.raises(ValueError, match="empty validation split"):
            evaluate_classifier(IDENTITY, data)


def summed_onto_centers(circuit, grads, rot_positions):
    """Per-occurrence oracle gradients (n_rot, 3, B) summed onto (qubit, layer)."""
    out = np.zeros((circuit.n_qubits, circuit.depth) + grads.shape[1:])
    for idx, pos in enumerate(rot_positions):
        g = circuit.gates[pos]
        out[g.qubit, g.layer] += grads[idx]
    return out


class TestParameterShift:
    """The adjoint gradients against the parameter-shift reference in `oracles`."""

    def test_gradient_matches_finite_differences(self):
        # oracle: central differences on full forward passes, all five block
        # members shifted together, which is what moving the block center does
        circ = build_ansatz(2, 2, sigma=0.3, seed=2)
        rng = np.random.default_rng(5)
        states = np.array([random_state(2, rng) for _ in range(3)])

        values, grads, final = _expectations_and_grads(circ.members, states, z0_observable(2))
        np.testing.assert_allclose(values, z0_expectation(run(circ, states)), atol=1e-12)
        np.testing.assert_allclose(final, run(circ, states), atol=1e-12)

        h = 1e-6
        for qubit, layer in itertools.product(range(2), range(2)):
            for a in range(3):
                shifted = []
                for sign in (+h, -h):
                    step = sign * np.eye(3)[a]
                    members = circ.members.copy()
                    members[qubit, layer] += step
                    shifted.append(z0_expectation(run(Circuit(members), states)))
                fd = (shifted[0] - shifted[1]) / (2 * h)
                np.testing.assert_allclose(grads[qubit, layer, a], fd, atol=1e-6)

    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_forward_walk_bitwise_equals_checkpointed_reference(self, n, depth, batch):
        # the forward pass applies one product matrix per block, not the
        # reference's per-gate kernel sequence, so final states, values and
        # gradients are all compared at 1e-12
        circ = build_ansatz(n, depth, sigma=0.2, seed=10 * n + depth)
        rng = np.random.default_rng([n, depth, batch])
        states = np.array([random_state(n, rng) for _ in range(batch)])
        values, grads, final = _expectations_and_grads(
            circ.members, states, z0_observable(n)
        )
        want_values, want_grads, rot_positions, want_final = checkpointed_expectations_and_grads(
            circ, states, z0_expectation
        )
        np.testing.assert_allclose(final, want_final, rtol=0, atol=1e-12)
        np.testing.assert_allclose(values, want_values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            grads, summed_onto_centers(circ, want_grads, rot_positions), rtol=0, atol=1e-12
        )

    def test_dense_observable_matches_reference(self):
        ham = build_tfim(4).hamiltonian
        circ = build_ansatz(4, 2, sigma=0.2, seed=3)
        state = random_state(4, np.random.default_rng(8))[None]
        values, grads, final = _expectations_and_grads(circ.members, state, ham)
        want_values, want_grads, rot_positions, want_final = checkpointed_expectations_and_grads(
            circ, state, lambda phi: np.real(np.einsum("...i,ij,...j->...", np.conj(phi), ham, phi))
        )
        np.testing.assert_allclose(final, want_final, rtol=0, atol=1e-12)
        np.testing.assert_allclose(values, want_values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            grads, summed_onto_centers(circ, want_grads, rot_positions), rtol=0, atol=1e-12
        )

    def test_kernel_calls_per_gradient(self, monkeypatch):
        # adjoint sweep on one product per block: per block 1 forward, 1 reverse
        # (psi and lambda stacked) and 3 derivative calls; per CNOT 1 forward and
        # 1 reverse. The per-gate sweep it replaced made 792 calls on this
        # circuit, the parameter-shift walk before it 9,684. No Rot compiles on
        # its own.
        import qiprune.circuit
        import qiprune.tasks

        calls, compiled_kinds = [], []
        kernel = qiprune.tasks.apply_matrix
        compile_gate = qiprune.circuit.compile_gate

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        def counted_compile(gate):
            compiled_kinds.append(gate.kind)
            return compile_gate(gate)

        for module in (qiprune.circuit, qiprune.tasks):
            monkeypatch.setattr(module, "apply_matrix", counted)
        monkeypatch.setattr(qiprune.circuit, "compile_gate", counted_compile)
        circ = build_ansatz(4, 6, sigma=0.0, seed=0)
        states = generate_bas(4).states
        _expectations_and_grads(circ.members, states, z0_observable(4))
        n_blocks = circ.n_rot // BLOCK_SIZE
        n_cnot = len(circ.gates) - circ.n_rot
        assert len(calls) == 5 * n_blocks + 2 * n_cnot == 168
        assert ROT not in compiled_kinds


class TestTrainClassifier:
    def test_zero_epochs_unchanged(self):
        circ = build_ansatz(2, 2, sigma=0.0, seed=3)
        data = generate_bas(4)
        small = EncodedDataset("b", 2, data.states[:4, :4] * 0 + np.eye(4, dtype=complex)[:4], np.array([1, -1, 1, -1]), np.arange(4), np.arange(4))
        trained = train_classifier(circ, small, epochs=0, lr=0.1, seed=0)
        assert trained == circ

    def test_one_qubit_separable_reaches_full_accuracy(self):
        # labels oppose the initial margin, so training must learn a flip;
        # closed form: margins are cos(2t) under the identity circuit
        ts = np.array([0.1, 0.25, 1.3, 1.45])
        states = np.stack([np.cos(ts), np.sin(ts)], axis=1).astype(complex)
        labels = np.array([-1, -1, 1, 1])
        idx = np.arange(4)
        data = EncodedDataset("toy1q", 1, states, labels, idx, idx.copy())
        circ = build_ansatz(1, 1, centers=np.zeros((1, 1, 3)), sigma=0.0, seed=0)
        assert evaluate_classifier(circ, data) == 0.0
        # lr 0.1: five block members share one centre, so lr 0.2 steps by 1.0
        # and never settles; checking several epochs keeps this off a lucky end point
        for epochs in (25, 50, 100):
            trained = train_classifier(circ, data, epochs=epochs, lr=0.1, seed=1)
            assert evaluate_classifier(trained, data) == 1.0, epochs

    def test_bas_beats_majority_baseline(self):
        data = generate_bas(4)
        circ = build_ansatz(4, 12, sigma=0.0, seed=0)
        trained = train_classifier(circ, data, epochs=6, lr=0.2, seed=0)
        assert evaluate_classifier(trained, data) > 0.5

    def test_determinism(self):
        data = generate_bas(4)
        circ = build_ansatz(4, 2, sigma=0.0, seed=4)
        t1 = train_classifier(circ, data, epochs=2, lr=0.3, seed=7)
        t2 = train_classifier(circ, data, epochs=2, lr=0.3, seed=7)
        assert t1 == t2

    def test_sample_cap_below_split_draws_a_seeded_subset(self):
        data = generate_bas(4)
        circ = build_ansatz(4, 2, sigma=0.0, seed=4)
        assert len(data.train_idx) == 28

        def train(seed, cap):
            return train_classifier(circ, data, epochs=2, lr=0.3, seed=seed, max_train_samples=cap)

        capped = train(7, 10)
        assert capped == train(7, 10)
        assert capped != train(7, None)
        assert capped != train(8, 10)

    @pytest.mark.parametrize("cap", [28, 100])
    def test_sample_cap_at_or_above_split_is_no_cap(self, cap):
        data = generate_bas(4)
        circ = build_ansatz(4, 2, sigma=0.0, seed=4)
        capped = train_classifier(circ, data, epochs=2, lr=0.3, seed=7, max_train_samples=cap)
        np.testing.assert_array_equal(
            capped.members, train_classifier(circ, data, epochs=2, lr=0.3, seed=7).members
        )


    @pytest.mark.parametrize(
        "knob, value",
        [("epochs", -1), ("batch_size", -1), ("batch_size", 0), ("max_train_samples", 0)],
    )
    def test_out_of_range_argument_is_named(self, knob, value):
        circ = build_ansatz(2, 1, sigma=0.0, seed=0)
        small = EncodedDataset("b", 2, np.eye(4, dtype=complex), np.array([1, -1, 1, -1]), np.arange(4), np.arange(4))
        with pytest.raises(ValueError, match=f"{knob} must be >= "):
            train_classifier(circ, small, **{"epochs": 1, knob: value})

    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf")], ids=["zero", "negative", "nan", "inf"])
    def test_bad_learning_rate_rejected(self, lr):
        circ = build_ansatz(2, 1, sigma=0.0, seed=0)
        small = EncodedDataset("b", 2, np.eye(4, dtype=complex), np.array([1, -1, 1, -1]), np.arange(4), np.arange(4))
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            train_classifier(circ, small, epochs=1, lr=lr)

    def test_empty_training_split(self):
        circ = build_ansatz(2, 1, sigma=0.0, seed=0)
        data = EncodedDataset("b", 2, np.eye(4, dtype=complex), np.array([1, -1, 1, -1]), np.zeros(0, int), np.arange(4))
        with pytest.raises(ValueError, match="empty training split"):
            train_classifier(circ, data, epochs=1)
        assert train_classifier(circ, data, epochs=0) == circ


def test_training_loops_build_no_circuit(monkeypatch):
    # the loops keep the centres as an array; only the returned circuit is built
    import qiprune.tasks

    calls = []
    for name in ("Circuit", "run_fused"):
        original = getattr(qiprune.tasks, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(qiprune.tasks, name, counted)
    circ = build_ansatz(4, 2, sigma=0.0, seed=1)
    train_classifier(circ, generate_bas(4), epochs=2, lr=0.3, seed=0, batch_size=7)
    assert calls == ["Circuit"]
    calls.clear()
    run_vqe(build_tfim(4), circ, iters=4, lr=0.1)
    assert calls == ["Circuit"]


class TestTfim:
    def test_two_qubit_zero_field_spectrum(self):
        spec = build_tfim(2, j=1.0, g=0.0)
        # oracle: dense diagonalization of -Z(x)Z
        eigs = np.sort(np.linalg.eigvalsh(spec.hamiltonian))
        np.testing.assert_allclose(eigs, [-1, -1, 1, 1], atol=1e-12)

    def test_hermitian(self):
        spec = build_tfim(3, j=1.0, g=1.0)
        assert np.max(np.abs(spec.hamiltonian - spec.hamiltonian.conj().T)) <= 1e-12

    def test_strong_field_ground_state_is_x_product(self):
        spec = build_tfim(3, j=1.0, g=100.0)
        vals, vecs = np.linalg.eigh(spec.hamiltonian)
        ground = vecs[:, 0]
        plus = np.ones(8, dtype=complex) / math.sqrt(8)
        assert abs(np.vdot(plus, ground)) > 0.999

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_tfim(1)


def vqe_walking_every_step(spec, circuit, iters, lr=0.1, max_backtracks=10):
    """(energies, snapshots) of `run_vqe` with a snapshot per iteration, where
    every gradient and the final energy walk the circuit afresh: the same
    arithmetic on the same block matrices, so the same bits."""
    ham, state0 = spec.hamiltonian, zero_state(circuit.n_qubits)
    centers = block_centers(circuit).copy()

    def output_at(c):
        return block_walk(block_products(rot_matrix(*np.moveaxis(_shared_members(c), -1, 0))), state0)

    energies, snaps = [], []
    for _ in range(iters):
        e, grads, final = _expectations_and_grads(_shared_members(centers), state0[None], ham)
        energies.append(float(e[0]))
        snaps.append(final[0])
        step = lr
        for _ in range(max_backtracks + 1):
            trial = centers - step * grads[..., 0]
            if expectation(output_at(trial), ham) <= energies[-1] + 1e-12:
                centers = trial
                break
            step *= 0.5
    energies.append(float(expectation(output_at(centers), ham)))
    return tuple(energies), np.array(snaps)


class TestRunVqe:
    def test_zero_iterations(self):
        spec = build_tfim(2)
        circ = build_ansatz(2, 1, sigma=0.0, seed=5)
        res = run_vqe(spec, circ, iters=0, lr=0.1)
        assert len(res.energies) == 1
        assert res.energies[0] == pytest.approx(vqe_energy(circ, spec.hamiltonian), abs=1e-12)
        assert res.trained == circ
        assert res.snapshots.shape[0] == 1

    def test_energy_trace_monotone_small_lr(self):
        spec = build_tfim(2)
        circ = build_ansatz(2, 2, sigma=0.0, seed=6)
        res = run_vqe(spec, circ, iters=30, lr=0.02)
        diffs = np.diff(res.energies)
        assert np.all(diffs <= 1e-6)

    def test_energy_trace_monotone_when_every_backtrack_fails(self):
        # at lr 50 some line searches find no step that lowers the energy:
        # the centers must stay rather than take an untested step
        spec = build_tfim(4)
        res = run_vqe(spec, build_ansatz(4, 2, seed=0), iters=6, lr=50.0, max_backtracks=2)
        assert np.all(np.diff(res.energies) <= 1e-12)
        assert res.energies[-1] == pytest.approx(vqe_energy(res.trained, spec.hamiltonian), abs=1e-12)

    def test_variational_lower_bound(self):
        spec = build_tfim(4)
        ground = float(np.min(np.linalg.eigvalsh(spec.hamiltonian)))
        circ = build_ansatz(4, 2, sigma=0.0, seed=7)
        res = run_vqe(spec, circ, iters=15, lr=0.1)
        assert all(e >= ground - 1e-9 for e in res.energies)

    def test_snapshot_budget(self):
        spec = build_tfim(2)
        circ = build_ansatz(2, 1, sigma=0.0, seed=8)
        res = run_vqe(spec, circ, iters=12, lr=0.05, snapshots=5)
        assert res.snapshots.shape == (5, 4)

    def test_determinism(self):
        spec = build_tfim(2)
        circ = build_ansatz(2, 1, sigma=0.0, seed=9)
        r1 = run_vqe(spec, circ, iters=5, lr=0.1)
        r2 = run_vqe(spec, circ, iters=5, lr=0.1)
        assert r1.energies == r2.energies
        np.testing.assert_array_equal(r1.snapshots, r2.snapshots)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="iters must be >= 0"):
            run_vqe(build_tfim(2), build_ansatz(2, 1, sigma=0.0, seed=5), iters=-2)

    @pytest.mark.parametrize("snapshots", [0, -1])
    def test_snapshot_budget_below_one_rejected(self, snapshots):
        with pytest.raises(ValueError, match=f"snapshots must be >= 1, got {snapshots}"):
            run_vqe(build_tfim(2), build_ansatz(2, 1, sigma=0.0, seed=5), iters=3, snapshots=snapshots)

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"max_backtracks": -1}, "max_backtracks must be >= 0"),
            ({"lr": -0.1}, "lr must be positive and finite"),
            ({"lr": 0.0}, "lr must be positive and finite"),
            ({"lr": float("nan")}, "lr must be positive and finite"),
        ],
        ids=["negative_backtracks", "negative_lr", "zero_lr", "nan_lr"],
    )
    def test_knobs_that_would_never_step_rejected(self, knobs, message):
        # each used to return an untrained circuit with a flat energy trace
        with pytest.raises(ValueError, match=message):
            run_vqe(build_tfim(2), build_ansatz(2, 1, seed=0), iters=3, **knobs)

    def test_normalized_energy(self):
        spec = build_tfim(2)
        circ = build_ansatz(2, 1, sigma=0.0, seed=10)
        norm = operator_norm(spec.hamiltonian)
        raw = vqe_energy(circ, spec.hamiltonian)
        assert vqe_energy(circ, spec.hamiltonian / norm) == pytest.approx(raw / norm, rel=1e-9)

    def test_energy_against_local_formula(self):
        spec = build_tfim(3)
        circ = build_ansatz(3, 1, sigma=0.1, seed=12)
        out = run(circ, np.eye(8, dtype=complex)[0])
        assert vqe_energy(circ, spec.hamiltonian) == pytest.approx(
            np.vdot(out, spec.hamiltonian @ out).real, abs=1e-12
        )

    # at lr 1 some line searches backtrack; either way the four repeated walks
    # (three gradient forward passes and the final energy) are 192 calls
    @pytest.mark.parametrize("lr, walked_every_step, reused", [(0.1, 1104, 912), (1.0, 1344, 1152)])
    def test_accepted_walk_feeds_the_next_gradient_and_the_final_energy(self, monkeypatch, lr, walked_every_step, reused):
        import qiprune.circuit
        import qiprune.tasks

        calls = []
        kernel = qiprune.circuit.apply_matrix

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        for module in (qiprune.circuit, qiprune.tasks):
            monkeypatch.setattr(module, "apply_matrix", counted)
        spec, circ = build_tfim(4), build_ansatz(4, 6)
        energies, snapshots = vqe_walking_every_step(spec, circ, iters=4, lr=lr)
        assert len(calls) == walked_every_step
        calls.clear()
        res = run_vqe(spec, circ, iters=4, lr=lr)
        assert len(calls) == reused == walked_every_step - 4 * 48
        assert res.energies == energies
        np.testing.assert_array_equal(res.snapshots, snapshots)

    @pytest.mark.parametrize("hamiltonian", [build_tfim(3).hamiltonian, np.ones(1), np.ones(8)])
    def test_wrong_size_hamiltonian_rejected(self, hamiltonian):
        # a length-1 diagonal would otherwise broadcast over any state
        circ = build_ansatz(2, 1, sigma=0.0, seed=10)
        with pytest.raises(ValueError, match=rf"shape \({len(hamiltonian)},.*state length 4"):
            vqe_energy(circ, hamiltonian)


class TestBuildEnsemble:
    def test_default_m_50_with_replacement_flag(self):
        data = generate_bas(4)
        ens = build_ensemble(data, M=50, seed=0)
        assert ens.M == 50 and ens.states.shape == (50, 16)
        assert ens.with_replacement  # 28 validation states < 50
        assert ens.source == "validation_sample"

    def test_singleton(self):
        data = generate_bas(4)
        ens = build_ensemble(data, M=1, seed=1)
        assert ens.states.shape == (1, 16)

    def test_without_replacement_when_pool_large(self):
        pool = np.array([random_state(2, np.random.default_rng(k)) for k in range(10)])
        ens = build_ensemble(pool, M=4, seed=2)
        assert not ens.with_replacement
        assert ens.source == "custom"

    def test_vqe_source(self):
        spec = build_tfim(2)
        res = run_vqe(spec, build_ansatz(2, 1, sigma=0.0, seed=11), iters=6, lr=0.05)
        ens = build_ensemble(res, M=10, seed=3)
        assert ens.source == "vqe_trajectory"
        assert ens.states.shape == (10, 4)

    def test_same_seed_identical(self):
        data = generate_bas(4)
        e1 = build_ensemble(data, M=20, seed=5)
        e2 = build_ensemble(data, M=20, seed=5)
        np.testing.assert_array_equal(e1.states, e2.states)

    def test_empty_source(self):
        with pytest.raises(ValueError, match="empty"):
            build_ensemble(np.zeros((0, 4)), M=3, seed=0)

    def test_m_below_one_rejected(self):
        with pytest.raises(ValueError, match="M must be >= 1, got 0"):
            build_ensemble(generate_bas(4), M=0, seed=0)
