"""Benchmark tasks: amplitude-encoded toy classification and the TFIM VQE.

Classification margins are <Z> on qubit 0; a sample is predicted +1 when the
margin is >= 0. Training optimizes the per-block center angles of the ansatz
(all five block members share the center during training, i.e. sigma = 0)
with plain gradient descent; gradients come from the exact two-term
parameter-shift rule applied to every elementary rotation occurrence.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import (
    Circuit,
    ROT,
    apply_gate_sequence,
    block_centers,
    build_ansatz,
    compile_gate,
    expectation,
    rot_matrix,
    run,
)
from .linalg import apply_matrix, as_ensemble, n_qubits_of, operator_norm

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


@dataclass
class EncodedDataset:
    """Unit-norm amplitude-encoded samples with +-1 labels and a fixed split."""

    name: str
    n_qubits: int
    states: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class TaskEnsemble:
    """Task-conditioned state ensemble used for redundancy decisions."""

    states: np.ndarray
    M: int
    source: str
    with_replacement: bool


@dataclass(frozen=True)
class TfimSpec:
    """Open-chain transverse-field Ising model H = -J sum ZZ - g sum X."""

    n_qubits: int
    j: float
    g: float
    hamiltonian: np.ndarray


@dataclass(frozen=True)
class VqeResult:
    """Energy trace (length iters + 1), trajectory snapshots, trained circuit."""

    energies: tuple[float, ...]
    snapshots: np.ndarray
    trained: Circuit


def encode_amplitude(raw, n_qubits: int) -> np.ndarray:
    """Pad with zeros (or truncate) to length 2**n and normalize to unit norm."""
    vec = np.asarray(raw, dtype=float).ravel()
    if not np.all(np.isfinite(vec)):
        raise ValueError("input vector has non-finite entries")
    dim = 1 << n_qubits
    if vec.size >= dim:
        vec = vec[:dim]
    else:
        vec = np.concatenate([vec, np.zeros(dim - vec.size)])
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValueError("cannot amplitude-encode an all-zero vector")
    return (vec / norm).astype(complex)


def downsample_28_to_16(img: np.ndarray) -> np.ndarray:
    """28x28 -> 16x16 by zero-padding to 32x32 and 2x2 block averaging."""
    img = np.asarray(img, dtype=float)
    if img.shape != (28, 28):
        raise ValueError(f"expected a 28x28 image, got {img.shape}")
    padded = np.zeros((32, 32))
    padded[2:30, 2:30] = img
    return padded.reshape(16, 2, 16, 2).mean(axis=(1, 3))


def generate_bas(side: int = 4) -> EncodedDataset:
    """All bar (column, label +1) and stripe (row, label -1) patterns.

    The two constant images are excluded (they belong to both classes); the
    remaining patterns are unique, giving 2 * (2^side - 2) samples. The
    dataset is exhaustive and tiny, so train and validation both cover it.
    """
    n_qubits = (side * side).bit_length() - 1
    if 1 << n_qubits != side * side:
        raise ValueError(f"side^2 = {side * side} must be a power of two")
    states, labels = [], []
    for label, as_columns in ((1, True), (-1, False)):
        for mask in range(1 << side):
            bits = np.array([(mask >> k) & 1 for k in range(side)], dtype=float)
            if bits.all() or not bits.any():
                continue
            img = np.tile(bits, (side, 1))
            if not as_columns:
                img = img.T
            states.append(encode_amplitude(img.ravel(), n_qubits))
            labels.append(label)
    idx = np.arange(len(states))
    return EncodedDataset(
        name="bas",
        n_qubits=n_qubits,
        states=np.array(states),
        labels=np.array(labels),
        train_idx=idx,
        val_idx=idx.copy(),
    )


def _read_idx(path, magic_expected: int, header_fields: int) -> tuple[tuple[int, ...], np.ndarray]:
    data = Path(path).read_bytes()
    header_len = 4 * header_fields
    if len(data) < header_len:
        raise ValueError(f"{path}: truncated IDX header")
    header = struct.unpack(f">{header_fields}I", data[:header_len])
    if header[0] != magic_expected:
        raise ValueError(f"{path}: bad IDX magic {header[0]} (expected {magic_expected})")
    count = 1
    for d in header[1:]:
        count *= d
    if len(data) < header_len + count:
        raise ValueError(f"{path}: truncated IDX payload")
    return header[1:], np.frombuffer(data[header_len : header_len + count], dtype=np.uint8)


def load_idx(
    images_path,
    labels_path,
    keep_labels: tuple[int, int],
    n_qubits: int,
    name: str | None = None,
) -> EncodedDataset:
    """Two-class dataset from big-endian IDX image/label files.

    keep_labels[0] maps to +1 and keep_labels[1] to -1. 28x28 images at
    n_qubits = 8 go through the 16x16 downsampler; any other shape is
    flattened and padded/truncated by the encoder. Every 5th filtered sample
    forms the validation split.
    """
    (n_img, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, 4)
    (n_lab,), labels_raw = _read_idx(labels_path, IDX_LABEL_MAGIC, 2)
    if n_img != n_lab:
        raise ValueError(f"image count {n_img} != label count {n_lab}")
    images = pixels.reshape(n_img, rows, cols)

    mask = np.isin(labels_raw, keep_labels)
    for cls in keep_labels:
        if not np.any(labels_raw == cls):
            raise ValueError(f"class absent from label file: {cls}")
    images = images[mask]
    kept = labels_raw[mask]

    states = []
    for img in images:
        if (rows, cols) == (28, 28) and n_qubits == 8:
            flat = downsample_28_to_16(img).ravel()
        else:
            flat = img.astype(float).ravel()
        states.append(encode_amplitude(flat, n_qubits))
    labels = np.where(kept == keep_labels[0], 1, -1)
    idx = np.arange(len(states))
    return EncodedDataset(
        name=name or f"idx_{keep_labels[0]}v{keep_labels[1]}",
        n_qubits=n_qubits,
        states=np.array(states),
        labels=labels,
        train_idx=idx[idx % 5 != 0],
        val_idx=idx[idx % 5 == 0],
    )


def dataset_to_json(data: EncodedDataset) -> str:
    """Cache schema: {name, n_qubits, samples: [{amplitudes, label}], split}."""
    if np.max(np.abs(data.states.imag)) > 0.0:
        raise ValueError("cache format stores real amplitude encodings only")
    return json.dumps(
        {
            "name": data.name,
            "n_qubits": data.n_qubits,
            "samples": [
                {"amplitudes": s.real.tolist(), "label": int(l)}
                for s, l in zip(data.states, data.labels)
            ],
            "split": {
                "train": data.train_idx.tolist(),
                "validation": data.val_idx.tolist(),
            },
        },
        sort_keys=True,
    )


def dataset_from_json(text: str) -> EncodedDataset:
    doc = json.loads(text)
    states = np.array([s["amplitudes"] for s in doc["samples"]], dtype=complex)
    labels = np.array([s["label"] for s in doc["samples"]])
    return EncodedDataset(
        name=doc["name"],
        n_qubits=doc["n_qubits"],
        states=states,
        labels=labels,
        train_idx=np.array(doc["split"]["train"]),
        val_idx=np.array(doc["split"]["validation"]),
    )


def z0_diagonal(n_qubits: int) -> np.ndarray:
    """Diagonal of Z on qubit 0 (the most-significant bit)."""
    dim = 1 << n_qubits
    z = np.ones(dim)
    z[dim // 2 :] = -1.0
    return z


def z0_observable(n_qubits: int) -> np.ndarray:
    return np.diag(z0_diagonal(n_qubits)).astype(complex)


def z0_expectation(states: np.ndarray) -> np.ndarray:
    """<Z0> of each state in a batch (the last axis is the state)."""
    return np.sum(z0_diagonal(n_qubits_of(states)) * np.abs(states) ** 2, axis=-1)


def zero_state(n_qubits: int) -> np.ndarray:
    """The computational basis state |0...0>."""
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def margins(circuit: Circuit, states: np.ndarray) -> np.ndarray:
    """<Z0> per sample for a batch of input states."""
    return z0_expectation(run(circuit, states))


def evaluate_classifier(circuit: Circuit, data: EncodedDataset, split: str = "validation") -> float:
    """Accuracy of sign(<Z0>) against labels; a zero margin predicts +1."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if split == "validation":
        sel = data.val_idx
    elif split == "train":
        sel = data.train_idx
    elif split == "all":
        sel = np.arange(len(data))
    else:
        raise ValueError(f"unknown split {split!r}")
    m = margins(circuit, data.states[sel])
    pred = np.where(m >= 0.0, 1, -1)
    return float(np.mean(pred == data.labels[sel]))


def _expectations_and_grads(circuit: Circuit, states: np.ndarray, expect_fn):
    """Per-sample expectations and parameter-shift gradients for every Rot angle.

    Each elementary ZYZ rotation has half-integer generator spectrum, so the
    exact derivative is (E(theta + pi/2) - E(theta - pi/2)) / 2. One forward
    walk over the gates: at each Rot gate the six shifted variants branch off
    the current state and run through the suffix as one batch.

    Returns (values (B,), grads (n_rot, 3, B), rot_positions, final_states).
    """
    gates = circuit.gates
    n = circuit.n_qubits
    rot_positions = [pos for pos, g in enumerate(gates) if g.kind == ROT]
    grads = np.zeros((len(rot_positions), 3) + states.shape[:-1])
    cur = states
    idx = 0
    for pos, g in enumerate(gates):
        if g.kind == ROT:
            variants = np.empty((6,) + cur.shape, dtype=complex)
            k = 0
            for a in range(3):
                for sign in (1.0, -1.0):
                    shifted = list(g.angles)
                    shifted[a] += sign * math.pi / 2.0
                    variants[k] = apply_matrix(cur, rot_matrix(*shifted), [g.qubit], n)
                    k += 1
            ev = expect_fn(apply_gate_sequence(variants, gates[pos + 1 :], n))
            for a in range(3):
                grads[idx, a] = 0.5 * (ev[2 * a] - ev[2 * a + 1])
            idx += 1
        cur = apply_matrix(cur, compile_gate(g), g.wires(), n)
    return expect_fn(cur), grads, rot_positions, cur


def _center_gradient(circuit: Circuit, rot_positions, grads, coeff: np.ndarray) -> np.ndarray:
    """Accumulate per-occurrence gradients onto block centers, averaged over samples."""
    out = np.zeros((circuit.n_qubits, circuit.depth, 3))
    for idx, pos in enumerate(rot_positions):
        g = circuit.gates[pos]
        out[g.qubit, g.layer] += grads[idx] @ coeff / coeff.shape[0]
    return out


def train_classifier(
    circuit: Circuit,
    data: EncodedDataset,
    epochs: int = 10,
    lr: float = 0.5,
    seed: int = 0,
    batch_size: int | None = None,
    max_train_samples: int | None = None,
) -> Circuit:
    """Hinge training of block centers on the margin y * <Z0>.

    Expects a sigma = 0 circuit (block centers read from slot-0 gates).
    Returns a fresh sigma = 0 circuit with the trained centers; resample the
    candidate pools around it afterwards. Deterministic given seed.
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    n, depth = circuit.n_qubits, circuit.depth
    centers = block_centers(circuit).copy()
    rng = np.random.default_rng(seed)

    idx = np.array(data.train_idx)
    if max_train_samples is not None and idx.size > max_train_samples:
        idx = np.sort(rng.choice(idx, size=max_train_samples, replace=False))
    states = data.states[idx]
    labels = data.labels[idx].astype(float)
    bs = batch_size or idx.size
    for _ in range(epochs):
        order = rng.permutation(idx.size)
        for start in range(0, idx.size, bs):
            sel = order[start : start + bs]
            c = build_ansatz(n, depth, centers=centers, sigma=0.0, seed=0)
            m, grads, rot_pos, _ = _expectations_and_grads(c, states[sel], z0_expectation)
            if not np.all(np.isfinite(m)):
                raise RuntimeError("training diverged: non-finite margins")
            y = labels[sel]
            coeff = np.where(1.0 - y * m > 0.0, -y, 0.0)
            centers -= lr * _center_gradient(c, rot_pos, grads, coeff)
    return build_ansatz(n, depth, centers=centers, sigma=0.0, seed=0)


def _pauli_chain(ops: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Dense kron product with 2x2 factors at given qubits (qubit 0 leftmost)."""
    eye = np.eye(2, dtype=complex)
    out = np.array([[1.0 + 0.0j]])
    for q in range(n):
        out = np.kron(out, ops.get(q, eye))
    return out


def build_tfim(n: int, j: float = 1.0, g: float = 1.0) -> TfimSpec:
    """H = -j sum_i Z_i Z_{i+1} (open chain) - g sum_i X_i as a dense matrix."""
    if n < 2:
        raise ValueError(f"TFIM needs at least 2 qubits, got {n}")
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    dim = 1 << n
    ham = np.zeros((dim, dim), dtype=complex)
    for i in range(n - 1):
        ham -= j * _pauli_chain({i: z, i + 1: z}, n)
    for i in range(n):
        ham -= g * _pauli_chain({i: x}, n)
    return TfimSpec(n_qubits=n, j=j, g=g, hamiltonian=ham)


def run_vqe(
    spec: TfimSpec,
    circuit: Circuit,
    iters: int = 40,
    lr: float = 0.1,
    snapshots: int = 50,
    max_backtracks: int = 10,
) -> VqeResult:
    """Gradient descent on <H> from |0...0>, recording the optimization trajectory.

    Steps are accepted only if they do not raise the energy; otherwise the
    step is halved (up to max_backtracks times), so the trace is
    non-increasing per accepted step. The energy trace has one entry per
    iteration plus the final energy. Output states of the evolving circuit
    are snapshotted at evenly spaced iterations (at most `snapshots` of
    them) for ensemble construction.
    """
    if spec.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"hamiltonian is on {spec.n_qubits} qubits, circuit on {circuit.n_qubits}"
        )
    n, depth = circuit.n_qubits, circuit.depth
    centers = block_centers(circuit).copy()
    ham = spec.hamiltonian
    state0 = zero_state(n)

    def expect(phi):
        return np.real(np.einsum("...i,ij,...j->...", np.conj(phi), ham, phi))

    def energy_at(c: np.ndarray) -> float:
        return vqe_energy(build_ansatz(n, depth, centers=c, sigma=0.0, seed=0), spec)

    snap_iters = set(
        int(t) for t in np.linspace(0, max(iters - 1, 0), num=min(snapshots, max(iters, 1))).round()
    )
    energies: list[float] = []
    snaps: list[np.ndarray] = []
    for t in range(iters):
        c = build_ansatz(n, depth, centers=centers, sigma=0.0, seed=0)
        e, grads, rot_pos, final = _expectations_and_grads(c, state0[None], expect)
        if not np.isfinite(e[0]):
            raise RuntimeError("VQE diverged: non-finite energy")
        energies.append(float(e[0]))
        if t in snap_iters:
            snaps.append(final[0])
        direction = _center_gradient(c, rot_pos, grads, np.ones(1))
        step = lr
        trial = centers - step * direction
        for _ in range(max_backtracks):
            if energy_at(trial) <= energies[-1] + 1e-12:
                break
            step *= 0.5
            trial = centers - step * direction
        centers = trial
    trained = build_ansatz(n, depth, centers=centers, sigma=0.0, seed=0)
    energies.append(vqe_energy(trained, spec))
    if not snaps:
        snaps.append(run(trained, state0))
    return VqeResult(energies=tuple(energies), snapshots=np.array(snaps), trained=trained)


def vqe_energy(circuit: Circuit, spec: TfimSpec, normalized: bool = False) -> float:
    """<H> of the circuit output on |0...0>; optionally divided by ||H||_op."""
    e = expectation(circuit, zero_state(circuit.n_qubits), spec.hamiltonian)
    if normalized:
        e /= operator_norm(spec.hamiltonian)
    return e


def build_ensemble(source, M: int = 50, seed: int = 0) -> TaskEnsemble:
    """M task states drawn from the source; validation encodings for
    classification datasets, trajectory snapshots for VQE results.

    Sources smaller than M are sampled with replacement and flagged.
    """
    if isinstance(source, EncodedDataset):
        pool = source.states[source.val_idx]
        src = "validation_sample"
    elif isinstance(source, VqeResult):
        pool = source.snapshots
        src = "vqe_trajectory"
    else:
        pool = source
        src = "custom"
    pool = as_ensemble(pool)
    with_replacement = pool.shape[0] < M
    rng = np.random.default_rng(seed)
    idx = rng.choice(pool.shape[0], size=M, replace=with_replacement)
    return TaskEnsemble(
        states=pool[idx], M=M, source=src, with_replacement=bool(with_replacement)
    )
