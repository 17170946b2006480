"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own tensor-contraction
machinery: gates are embedded with explicit Kronecker products and circuits
are multiplied out as full-dimension unitaries, so tests compare two
genuinely different computation paths. The one exception is
`checkpointed_expectations_and_grads`, a bitwise reference that shares the
package's kernel on purpose.
"""

import math

import numpy as np

from qiprune.circuit import ROT, apply_gate_sequence, compile_gate, rot_matrix
from qiprune.linalg import apply_matrix


def embed_kron(mat: np.ndarray, wires: list[int], n_qubits: int) -> np.ndarray:
    """Embed a 2^k x 2^k gate into the full space via kron + wire permutation.

    Builds the operator on wires (wires[0] = most significant gate bit)
    followed by identities, then conjugates with the permutation matrix that
    maps that ordering onto the circuit's qubit ordering.
    """
    k = len(wires)
    dim = 1 << n_qubits
    rest = [q for q in range(n_qubits) if q not in wires]
    order = list(wires) + rest
    big = np.kron(mat, np.eye(1 << (n_qubits - k)))
    perm = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        src = 0
        for pos, q in enumerate(order):
            src = (src << 1) | bits[q]
        perm[idx, src] = 1.0
    return perm @ big @ perm.T


def circuit_unitary(circuit, compile_fn) -> np.ndarray:
    """Full unitary of a circuit by multiplying kron-embedded gate matrices."""
    dim = 1 << circuit.n_qubits
    total = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        total = embed_kron(compile_fn(g), g.wires(), circuit.n_qubits) @ total
    return total


def cnot_ring_bits(bits: list[int]) -> list[int]:
    """Classical action of the CNOT ring (control i, target i+1 mod n) in i order."""
    out = list(bits)
    n = len(out)
    for i in range(n):
        out[(i + 1) % n] ^= out[i]
    return out


def checkpointed_expectations_and_grads(circuit, states, expect_fn):
    """Layer-checkpointed parameter-shift walk, the reference for
    `tasks._expectations_and_grads`.

    Each Rot gate's prefix is rebuilt from the state at the start of its
    layer with the same kernel calls in the same order as the single forward
    walk, so the two must agree bit for bit.
    """
    gates = circuit.gates
    n = circuit.n_qubits
    layer_start: dict[int, int] = {}
    for pos, g in enumerate(gates):
        layer_start.setdefault(g.layer, pos)

    ckpt: dict[int, np.ndarray] = {}
    cur = states
    for pos, g in enumerate(gates):
        if layer_start[g.layer] == pos:
            ckpt[g.layer] = cur
        cur = apply_matrix(cur, compile_gate(g), g.wires(), n)
    values = expect_fn(cur)

    rot_positions = [pos for pos, g in enumerate(gates) if g.kind == ROT]
    grads = np.zeros((len(rot_positions), 3) + values.shape)
    for idx, pos in enumerate(rot_positions):
        g = gates[pos]
        prefix = apply_gate_sequence(ckpt[g.layer], gates[layer_start[g.layer] : pos], n)
        variants = np.empty((6,) + prefix.shape, dtype=complex)
        k = 0
        for a in range(3):
            for sign in (1.0, -1.0):
                shifted = list(g.angles)
                shifted[a] += sign * math.pi / 2.0
                variants[k] = apply_matrix(prefix, rot_matrix(*shifted), [g.qubit], n)
                k += 1
        variants = apply_gate_sequence(variants, gates[pos + 1 :], n)
        ev = expect_fn(variants)
        for a in range(3):
            grads[idx, a] = 0.5 * (ev[2 * a] - ev[2 * a + 1])
    return values, grads, rot_positions, cur
