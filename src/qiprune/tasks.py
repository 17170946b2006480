"""Benchmark tasks: amplitude-encoded toy classification and the TFIM VQE.

Classification margins are <Z> on qubit 0; a sample is predicted +1 when the
margin is >= 0. Training optimizes the per-block center angles of the ansatz
(all five block members share the center during training, i.e. sigma = 0)
with plain gradient descent; gradients come from one adjoint sweep over one
product matrix per block (a forward `circuit.block_walk`, then a reverse one
that un-applies each block and CNOT from psi and lambda stacked together),
5 kernel calls per block and 2 per CNOT. Output-only passes (`margins`,
`vqe_energy`, the VQE line search) walk the same `circuit.block_products`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import (
    BLOCK_SIZE,
    Circuit,
    block_centers,
    block_products,
    block_walk,
    rot_derivatives,
    rot_matrix,
    run_fused,
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
    return _encode_rows(np.asarray(raw, dtype=float).reshape(1, -1), n_qubits)[0]


def _encode_rows(rows: np.ndarray, n_qubits: int) -> np.ndarray:
    """`encode_amplitude` of each row of a 2-D float array, in one pass."""
    if not np.all(np.isfinite(rows)):
        raise ValueError("input vector has non-finite entries")
    dim = 1 << n_qubits
    rows = rows[:, :dim]
    if rows.shape[1] < dim:
        rows = np.concatenate([rows, np.zeros((len(rows), dim - rows.shape[1]))], axis=1)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot amplitude-encode an all-zero vector")
    return (rows / norms).astype(complex)


def downsample_28_to_16(img: np.ndarray) -> np.ndarray:
    """28x28 -> 16x16 by zero-padding to 32x32 and 2x2 block averaging.

    The 2-pixel pad fills only the outer ring of output blocks, so the image's
    own 14x14 blocks land inside a zero ring. A stack of shape (..., 28, 28)
    is downsampled image by image.
    """
    img = np.asarray(img, dtype=float)
    if img.shape[-2:] != (28, 28):
        raise ValueError(f"expected a 28x28 image, got {img.shape}")
    out = np.zeros(img.shape[:-2] + (16, 16))
    # pairwise sums: a mean over two strided length-2 axes is several times slower
    rows = img[..., 0::2, :] + img[..., 1::2, :]
    out[..., 1:15, 1:15] = (rows[..., 0::2] + rows[..., 1::2]) / 4
    return out


def generate_bas(side: int = 4) -> EncodedDataset:
    """All bar (column, label +1) and stripe (row, label -1) patterns.

    The two constant images are excluded (they belong to both classes); the
    remaining patterns are unique, giving 2 * (2^side - 2) samples. The
    dataset is exhaustive and tiny, so train and validation both cover it.
    """
    n_qubits = (side * side).bit_length() - 1
    if 1 << n_qubits != side * side:
        raise ValueError(f"side^2 = {side * side} must be a power of two")
    images, labels = [], []
    for label, as_columns in ((1, True), (-1, False)):
        for mask in range(1 << side):
            bits = np.array([(mask >> k) & 1 for k in range(side)], dtype=float)
            if bits.all() or not bits.any():
                continue
            img = np.tile(bits, (side, 1))
            if not as_columns:
                img = img.T
            images.append(img.ravel())
            labels.append(label)
    idx = np.arange(len(images))
    return EncodedDataset(
        name="bas",
        n_qubits=n_qubits,
        states=_encode_rows(np.array(images), n_qubits),
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

    if (rows, cols) == (28, 28) and n_qubits == 8:
        images = downsample_28_to_16(images)
    states = _encode_rows(images.reshape(len(images), -1).astype(float), n_qubits)
    labels = np.where(kept == keep_labels[0], 1, -1)
    idx = np.arange(len(states))
    return EncodedDataset(
        name=name or f"idx_{keep_labels[0]}v{keep_labels[1]}",
        n_qubits=n_qubits,
        states=states,
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
    """<Z0> per sample for a batch of input states, one product per block (exact)."""
    return z0_expectation(run_fused(circuit, states))


def evaluate_classifier(circuit: Circuit, data: EncodedDataset) -> float:
    """Validation accuracy of sign(<Z0>) against labels; a zero margin predicts +1."""
    sel = data.val_idx
    if len(sel) == 0:
        raise ValueError("cannot evaluate on an empty validation split")
    m = margins(circuit, data.states[sel])
    pred = np.where(m >= 0.0, 1, -1)
    return float(np.mean(pred == data.labels[sel]))


def _check_at_least(name: str, value, low: int) -> None:
    if value is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_lr(lr: float) -> None:
    if not 0.0 < lr < np.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")


def _shared_members(centers: np.ndarray) -> np.ndarray:
    """Member angles (n_qubits, depth, BLOCK_SIZE, 3) of sigma = 0 blocks: every
    member sits at its block centre (a read-only view of `centers`)."""
    return np.broadcast_to(centers[:, :, None, :], centers.shape[:2] + (BLOCK_SIZE, 3))


def _expectations_and_grads(members: np.ndarray, states: np.ndarray, observe):
    """Per-sample expectations <O> and their gradients with respect to the block centers.

    `members` holds the member angles in `build_ansatz`'s layout, shape
    (n_qubits, depth, BLOCK_SIZE, 3); `observe` applies the observable O to a
    batch of states. Adjoint sweep (Jones & Gacon, arXiv:2009.02823) on one
    product matrix B = R_4 ... R_0 per block: `block_walk` applies each B and
    CNOT ring forward, then walks psi and lambda = O psi back as one stack
    with every B^dag (a CNOT is its own inverse). Entering a block on the way
    back, both are the states after it, so centre angle a gets
    2 Re <lambda|D_a B^dag psi>. D_a = sum_s (R_4 ... R_{s+1}) dR_s/da
    (R_{s-1} ... R_0) comes from the recurrence D <- R_s D + dR_s P,
    P <- R_s P over the slots, for all blocks at once. That is 5 kernel
    calls per block and 2 per CNOT.

    Returns (values (B,), grads (n_qubits, depth, 3, B), final_states).
    """
    n, depth = members.shape[:2]
    angles = np.moveaxis(members, -1, 0)
    mats = rot_matrix(*angles)
    derivs = np.stack(rot_derivatives(*angles))
    prod, dprod = mats[:, :, 0], derivs[:, :, :, 0]
    for s in range(1, BLOCK_SIZE):
        dprod = mats[:, :, s] @ dprod + derivs[:, :, :, s] @ prod
        prod = mats[:, :, s] @ prod
    final = block_walk(prod, states)
    lam = observe(final)
    values = np.real(np.sum(np.conj(final) * lam, axis=-1))
    grads = np.zeros((n, depth, 3) + states.shape[:-1])
    inverse = np.conj(np.swapaxes(prod, -1, -2))
    tangents = dprod @ inverse

    def score(q: int, layer: int, pair: np.ndarray) -> None:
        psi, lam = pair
        for a in range(3):
            d_psi = apply_matrix(psi, tangents[a, q, layer], [q], n)
            grads[q, layer, a] = 2.0 * np.real(np.sum(np.conj(lam) * d_psi, axis=-1))

    block_walk(inverse, np.stack([final, lam]), score, reverse=True)
    return values, grads, final


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

    Expects a sigma = 0 circuit (block centers read from the slot-0 members).
    Returns a fresh sigma = 0 circuit with the trained centers; resample the
    candidate pools around it afterwards. Deterministic given seed. Raises
    ValueError for epochs < 0, batch_size or max_train_samples < 1, an lr
    that is not positive and finite, and an empty dataset or (with
    epochs >= 1) an empty training split.
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    _check_at_least("epochs", epochs, 0)
    _check_lr(lr)
    _check_at_least("batch_size", batch_size, 1)
    _check_at_least("max_train_samples", max_train_samples, 1)
    n = circuit.n_qubits
    centers = block_centers(circuit).copy()
    rng = np.random.default_rng(seed)

    idx = np.array(data.train_idx)
    if epochs and idx.size == 0:
        raise ValueError("cannot train on an empty training split")
    if max_train_samples is not None and idx.size > max_train_samples:
        idx = np.sort(rng.choice(idx, size=max_train_samples, replace=False))
    states = data.states[idx]
    labels = data.labels[idx].astype(float)
    zdiag = z0_diagonal(n)
    bs = idx.size if batch_size is None else batch_size
    for _ in range(epochs):
        order = rng.permutation(idx.size)
        for start in range(0, idx.size, bs):
            sel = order[start : start + bs]
            m, grads, _ = _expectations_and_grads(
                _shared_members(centers), states[sel], lambda phi: zdiag * phi
            )
            if not np.all(np.isfinite(m)):
                raise RuntimeError("training diverged: non-finite margins")
            y = labels[sel]
            coeff = np.where(1.0 - y * m > 0.0, -y, 0.0)
            centers -= lr * (grads @ coeff) / len(sel)
    return Circuit(_shared_members(centers))


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
    step is halved (up to max_backtracks times), and when no step passes the
    centers stay, so the trace is non-increasing. The energy trace has one
    entry per iteration plus the final energy. Output states of the evolving
    circuit are snapshotted at evenly spaced iterations (at most `snapshots`
    of them) for ensemble construction. Raises ValueError for iters or
    max_backtracks < 0 and an lr that is not positive and finite.
    """
    _check_at_least("iters", iters, 0)
    _check_at_least("max_backtracks", max_backtracks, 0)
    _check_lr(lr)
    if spec.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"hamiltonian is on {spec.n_qubits} qubits, circuit on {circuit.n_qubits}"
        )
    n = circuit.n_qubits
    centers = block_centers(circuit).copy()
    ham = spec.hamiltonian
    state0 = zero_state(n)

    def output_at(c: np.ndarray) -> np.ndarray:
        mats = rot_matrix(*np.moveaxis(_shared_members(c), -1, 0))
        return block_walk(block_products(mats), state0)

    def energy_of(out: np.ndarray) -> float:
        return float(np.real(np.vdot(out, ham @ out)))

    snap_iters = set(
        int(t) for t in np.linspace(0, max(iters - 1, 0), num=min(snapshots, max(iters, 1))).round()
    )
    energies: list[float] = []
    snaps: list[np.ndarray] = []
    for t in range(iters):
        e, grads, final = _expectations_and_grads(
            _shared_members(centers), state0[None], lambda phi: phi @ ham.T
        )
        if not np.isfinite(e[0]):
            raise RuntimeError("VQE diverged: non-finite energy")
        energies.append(float(e[0]))
        if t in snap_iters:
            snaps.append(final[0])
        direction = grads[..., 0]
        step = lr
        for _ in range(max_backtracks + 1):
            trial = centers - step * direction
            if energy_of(output_at(trial)) <= energies[-1] + 1e-12:
                centers = trial
                break
            step *= 0.5
    out = output_at(centers)
    energies.append(energy_of(out))
    if not snaps:
        snaps.append(out)
    trained = Circuit(_shared_members(centers))
    return VqeResult(energies=tuple(energies), snapshots=np.array(snaps), trained=trained)


def vqe_energy(circuit: Circuit, spec: TfimSpec, normalized: bool = False) -> float:
    """<H> of the circuit output on |0...0>, run with one product per block
    (exact); optionally divided by ||H||_op."""
    out = run_fused(circuit, zero_state(circuit.n_qubits))
    e = float(np.real(np.vdot(out, spec.hamiltonian @ out)))
    if normalized:
        e /= operator_norm(spec.hamiltonian)
    return e


def build_ensemble(source, M: int = 50, seed: int = 0) -> TaskEnsemble:
    """M task states drawn from the source; validation encodings for
    classification datasets, trajectory snapshots for VQE results.

    Sources smaller than M are sampled with replacement and flagged. Raises
    ValueError for M < 1.
    """
    _check_at_least("M", M, 1)
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
