"""Dense complex kernel for small Hilbert spaces (2^1 .. 2^10).

Bit convention used everywhere in this package: qubit 0 is the
most-significant bit of the basis-state index, so |10> on two qubits is
basis index 2. A state is a complex ndarray of length 2**n (unit 2-norm),
a gate is a dense unitary ndarray of size 2^k x 2^k.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: absolute tolerance for unitarity / norm assertions throughout the package
ATOL = 1e-10

#: the kernel's range is 2^1 .. 2^MAX_QUBITS; the CLI rejects larger runs
MAX_QUBITS = 10


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

    The path is chosen from the matrix: a 2x2 multiplies the wire's two
    half-slices as one (2, N) slab, with no moveaxis; a 0/1 permutation
    matrix (CNOT, SWAP) is a gather over a cached basis-index permutation,
    with no arithmetic, and the permutation check is memoised for small
    matrices; any other matrix goes through moveaxis + matmul.
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

    if k == 1:
        return _apply_one_qubit(states, mat, wires[0], n_qubits)
    local = _local_permutation(mat)
    if local is not None:
        return states[..., _basis_permutation(local, tuple(wires), n_qubits)]
    return _apply_dense(states, mat, wires, n_qubits)


def _apply_dense(states: np.ndarray, mat: np.ndarray, wires: list[int], n_qubits: int) -> np.ndarray:
    """Generic path: move `wires` to the last axes and multiply by mat^T."""
    k = len(wires)
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


def _apply_one_qubit(states: np.ndarray, mat: np.ndarray, wire: int, n_qubits: int) -> np.ndarray:
    """2x2 on one wire: the wire's two half-slices, stacked as a (2, N) slab, times `mat`."""
    x = states.reshape(-1, 2, 1 << (n_qubits - wire - 1))
    y = mat @ x.transpose(1, 0, 2).reshape(2, -1)
    return y.reshape(2, x.shape[0], x.shape[2]).transpose(1, 0, 2).reshape(states.shape)


#: largest matrix (entries) whose permutation check is memoised; 8x8 keys are 1 KiB
_MEMO_MAX_ENTRIES = 64


def _local_permutation(mat: np.ndarray) -> tuple[int, ...] | None:
    """Source column of each row when `mat` is a 0/1 permutation matrix, else None.

    Matrices up to 8x8 are memoised on their exact bytes, so each distinct
    matrix is checked once; a copy hits the memo and an edited array is a new key.
    """
    if mat.size > _MEMO_MAX_ENTRIES:
        return _permutation_check(mat)
    return _memoised_permutation_check(mat.dtype, mat.shape, mat.tobytes())


# small on purpose: circuits repeat a few matrices (CNOT), while verify's
# checks stream hundreds of distinct random ones through here
@functools.lru_cache(maxsize=16)
def _memoised_permutation_check(dtype: np.dtype, shape: tuple[int, ...], data: bytes) -> tuple[int, ...] | None:
    return _permutation_check(np.frombuffer(data, dtype=dtype).reshape(shape))


def _permutation_check(mat: np.ndarray) -> tuple[int, ...] | None:
    ones = mat == 1
    if np.count_nonzero(mat) == len(mat) and (ones.sum(axis=0) == 1).all() and (ones.sum(axis=1) == 1).all():
        return tuple(ones.argmax(axis=1).tolist())
    return None


@functools.lru_cache(maxsize=256)
def _basis_permutation(local: tuple[int, ...], wires: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Read-only gather index for the permutation matrix with rows I[local] on `wires`.

    It is that matrix applied, on the generic path, to the basis indices
    themselves (integer arithmetic, so exact).
    """
    mat = np.eye(len(local), dtype=np.int64)[list(local)]
    perm = _apply_dense(np.arange(1 << n_qubits), mat, list(wires), n_qubits)
    perm.setflags(write=False)
    return perm


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


def operator_norm(op: np.ndarray) -> float:
    """Largest singular value (spectral norm) of a square matrix.

    A diagonal matrix (every nonzero entry on the diagonal) takes max |diag|,
    which is exact and costs one pass; any other matrix takes an SVD.
    """
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"operator_norm needs a square matrix, got {op.shape}")
    diag = np.diagonal(op)
    if np.count_nonzero(op) == np.count_nonzero(diag):
        return float(np.max(np.abs(diag), initial=0.0))
    return float(np.linalg.norm(op, 2))


def unitarity_deviation(mat: np.ndarray) -> float:
    """Max-entry magnitude of M M^dagger - I."""
    mat = np.asarray(mat, dtype=complex)
    eye = np.eye(mat.shape[0])
    return float(np.max(np.abs(mat @ mat.conj().T - eye)))


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
