"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own tensor-contraction
machinery: gates are embedded with explicit Kronecker products and circuits
are multiplied out as full-dimension unitaries, so tests compare two
genuinely different computation paths. The one exception is
`checkpointed_expectations_and_grads`, the parameter-shift reference for the
package's adjoint gradients: it shares the package's kernel but walks the
circuit gate by gate, while the package walks one product per block, so
final states, values and gradients are compared at 1e-12.
"""

import math

import numpy as np

from qiprune.circuit import ROT, apply_gate_sequence, compile_gate, rot_matrix
from qiprune.linalg import apply_matrix
from qiprune.qmetric import d_q_per_state


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


def circuit_unitary(gates, n_qubits: int, compile_fn) -> np.ndarray:
    """Full unitary of a gate sequence by multiplying kron-embedded gate matrices."""
    total = np.eye(1 << n_qubits, dtype=complex)
    for g in gates:
        total = embed_kron(compile_fn(g), g.wires(), n_qubits) @ total
    return total


def cnot_ring_bits(bits: list[int]) -> list[int]:
    """Classical action of the CNOT ring (control i, target i+1 mod n) in i order."""
    out = list(bits)
    n = len(out)
    for i in range(n):
        out[(i + 1) % n] ^= out[i]
    return out


def checkpointed_expectations_and_grads(circuit, states, expect_fn):
    """Layer-checkpointed parameter-shift gradients, the reference for
    `tasks._expectations_and_grads`.

    Each elementary ZYZ rotation has half-integer generator spectrum, so the
    exact derivative is (E(theta + pi/2) - E(theta - pi/2)) / 2. Each Rot
    gate's prefix is rebuilt from the state at the start of its layer, and
    its six shifted variants run through the suffix as one batch.

    Returns (values (B,), grads (n_rot, 3, B), rot_positions, final_states).
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


def per_member_dq_values(circuit, states, geo, mode) -> dict[int, float]:
    """d_q of every non-reference Rot gate against its block's reference, the
    reference for `pruner.prune`'s batched comparisons.

    The ensemble is walked gate by gate and every pair goes through the
    two-pass `d_q_per_state`, one call per pair, on the states at the block's
    first gate. The reference is the block's first gate, or in
    "pairwise_medoid" mode the member with the smallest summed distance to
    the others (ties to the smallest id).
    """
    n = circuit.n_qubits
    blocks: dict[tuple[int, int], list] = {}
    for g in circuit.gates:
        if g.kind == ROT:
            blocks.setdefault((g.layer, g.qubit), []).append(g)
    out = {}
    cur = states
    for g in circuit.gates:
        if g.kind == ROT and g.slot == 0:
            mats = {m.id: compile_gate(m) for m in blocks[(g.layer, g.qubit)]}

            def dist(a, b):
                return float(np.mean(d_q_per_state(mats[a], mats[b], cur, geo, wires=[g.qubit])))

            ref = min(mats)
            if mode == "pairwise_medoid":
                # each pair is scored once, smaller id first (d_q is not symmetric at q != 1)
                ref = min(mats, key=lambda a: (sum(dist(min(a, b), max(a, b)) for b in mats if b != a), a))
            out.update((gid, dist(ref, gid)) for gid in mats if gid != ref)
        cur = apply_matrix(cur, compile_gate(g), g.wires(), n)
    return out
