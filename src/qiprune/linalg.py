"""Dense complex kernel for small Hilbert spaces (2^1 .. 2^10).

Bit convention used everywhere in this package: qubit 0 is the
most-significant bit of the basis-state index, so |10> on two qubits is
basis index 2. A state is a complex ndarray of length 2**n (unit 2-norm),
a gate is a dense unitary ndarray of size 2^k x 2^k.
"""

from __future__ import annotations

import math

import numpy as np

#: absolute tolerance for unitarity / norm assertions throughout the package
ATOL = 1e-10


def n_qubits_of(state: np.ndarray) -> int:
    """Number of qubits for a state of length 2**n."""
    dim = state.shape[-1]
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"state length {dim} is not a power of two")
    return n


def as_ensemble(states, dim: int | None = None) -> np.ndarray:
    """Validated (M, dim) complex batch of task states; a 1-D state is a batch of one.

    Raises ValueError unless the ensemble is nonempty, has the given state
    dimension (any width when `dim` is None), and every state is finite and
    unit-norm within ATOL: the drift bounds assume unit-norm pure states.
    """
    arr = np.asarray(states, dtype=complex)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("ensemble must be a nonempty list of state vectors")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"ensemble dimension {arr.shape[1]} does not match dim {dim}")
    norms = np.linalg.norm(arr, axis=1)
    # a NaN or inf entry makes the norm fail this comparison as well
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= ATOL))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"ensemble states must be finite and unit-norm; state {k} has norm {float(norms[k])}"
        )
    return arr


def apply_matrix(states: np.ndarray, mat: np.ndarray, wires: list[int], n_qubits: int) -> np.ndarray:
    """Apply a 2^k x 2^k matrix on `wires` of every state in `states`.

    `states` may carry arbitrary leading batch axes; the last axis must have
    length 2**n_qubits. wires[0] is the most-significant bit of the matrix
    basis index. Works for non-unitary matrices as well (used by the
    deformed-algebra checks).
    """
    k = len(wires)
    if mat.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {mat.shape} does not match {k} wires")
    if len(set(wires)) != k:
        raise ValueError(f"wire indices must be distinct, got {wires}")
    if any(w < 0 or w >= n_qubits for w in wires):
        raise ValueError(f"wire index out of range for {n_qubits} qubits: {wires}")
    if states.shape[-1] != 1 << n_qubits:
        raise ValueError(
            f"state length {states.shape[-1]} does not match {n_qubits} qubits"
        )

    lead = states.shape[:-1]
    nb = len(lead)
    arr = states.reshape(lead + (2,) * n_qubits)
    src = [nb + w for w in wires]
    dst = list(range(arr.ndim - k, arr.ndim))
    arr = np.moveaxis(arr, src, dst)
    kept = arr.shape[:-k]
    arr = arr.reshape(kept + (1 << k,))
    arr = arr @ mat.T
    arr = arr.reshape(kept + (2,) * k)
    arr = np.moveaxis(arr, dst, src)
    return arr.reshape(lead + (1 << n_qubits,))


def apply_gate(state: np.ndarray, gate_matrix: np.ndarray, wires: list[int]) -> np.ndarray:
    """Apply a gate on the given wires of a single state vector."""
    n = n_qubits_of(state)
    return apply_matrix(np.asarray(state, dtype=complex), np.asarray(gate_matrix, dtype=complex), list(wires), n)


def pure_trace_distance(phi: np.ndarray, psi: np.ndarray) -> float:
    """Trace distance ||phi><phi| - |psi><psi||_1 = 2 sqrt(1 - |<phi|psi>|^2).

    Both inputs are unit-norm pure states; the overlap magnitude is clamped
    to [0, 1] before the square root.
    """
    if phi.shape != psi.shape:
        raise ValueError(f"dimension mismatch: {phi.shape} vs {psi.shape}")
    if phi is psi or np.array_equal(phi, psi):
        return 0.0
    ov = min(1.0, abs(np.vdot(phi, psi)))
    return 2.0 * math.sqrt(max(0.0, 1.0 - ov * ov))


def operator_norm(op: np.ndarray, rel_tol: float = 1e-10, max_iter: int = 100_000) -> float:
    """Largest singular value via power iteration on op^dagger op."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"operator_norm needs a square matrix, got {op.shape}")
    if not np.any(op):
        return 0.0
    b = op.conj().T @ op
    # fixed seed: the result must not depend on external RNG state
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(b.shape[0]) + 1j * rng.standard_normal(b.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = b @ v
        lam_new = float(np.real(np.vdot(v, w)))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(lam_new - lam) <= rel_tol * max(abs(lam_new), 1e-300):
            lam = lam_new
            break
        lam = lam_new
    return math.sqrt(max(lam, 0.0))


def unitarity_deviation(mat: np.ndarray) -> float:
    """Max-entry magnitude of M M^dagger - I."""
    mat = np.asarray(mat, dtype=complex)
    eye = np.eye(mat.shape[0])
    return float(np.max(np.abs(mat @ mat.conj().T - eye)))


def is_unitary(mat: np.ndarray, atol: float = ATOL) -> bool:
    return unitarity_deviation(mat) <= atol


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized Gaussian-random state on n qubits."""
    v = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
    return v / np.linalg.norm(v)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
