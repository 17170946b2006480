"""Hardware-efficient ansatz, gate compilation and execution.

The benchmark ansatz places, per layer and per qubit, a block of five Rot
gates (the candidate pool) sampled around a per-block center, followed by a
ring of CNOTs. Rot(alpha, beta, gamma) compiles to Rz(gamma) Ry(beta)
Rz(alpha) (ZYZ, alpha applied first). Pool noise is drawn once per seed as
unit normals and scaled by sigma, so sweeps over sigma with a fixed seed
share the same perturbation directions. `fuse_blocks` joins each run of
adjacent same-wire Rot gates into one Rot for output-only passes; `run`
itself applies one kernel call per gate of the circuit it is given.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import apply_matrix

ROT = "rot"
CNOT = "cnot"

#: Rot gates per (qubit, layer) block; fixed by the benchmark gate counts
BLOCK_SIZE = 5

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@dataclass(frozen=True)
class Gate:
    """One circuit entry; `kind` is "rot" (qubit, angles) or "cnot" (control, target)."""

    id: int
    kind: str
    layer: int
    slot: int
    qubit: int | None = None
    angles: tuple[float, float, float] | None = None
    control: int | None = None
    target: int | None = None

    def wires(self) -> list[int]:
        if self.kind == ROT:
            return [self.qubit]
        return [self.control, self.target]


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    depth: int
    gates: tuple[Gate, ...]

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def n_rot(self) -> int:
        return sum(1 for g in self.gates if g.kind == ROT)


def rot_matrix(alpha, beta, gamma) -> np.ndarray:
    """ZYZ Euler rotation Rz(gamma) Ry(beta) Rz(alpha) in closed form; det = 1.

    Diagonal entries e^{-+i(alpha+gamma)/2} cos(beta/2), off-diagonal
    -+e^{+-i(alpha-gamma)/2} sin(beta/2). Angle arrays broadcast to a
    (..., 2, 2) stack, so a whole circuit's Rot gates compile in one call.
    """
    alpha, beta, gamma = (np.asarray(x, dtype=float) for x in (alpha, beta, gamma))
    e_sum = np.exp(-0.5j * (alpha + gamma))
    e_diff = np.exp(0.5j * (alpha - gamma))
    c, s = np.cos(0.5 * beta), np.sin(0.5 * beta)
    out = np.empty(np.broadcast_shapes(e_sum.shape, c.shape) + (2, 2), dtype=complex)
    out[..., 0, 0] = e_sum * c
    out[..., 0, 1] = -e_diff * s
    out[..., 1, 0] = e_diff.conj() * s
    out[..., 1, 1] = e_sum.conj() * c
    return out


def rot_derivatives(alpha, beta, gamma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d rot_matrix / d(alpha, beta, gamma); angle arrays broadcast as in rot_matrix.

    The Z generator -i Z / 2 multiplies from the right for alpha (applied
    first) and from the left for gamma; d/dbeta is rot_matrix at beta + pi,
    halved.
    """
    mat = rot_matrix(alpha, beta, gamma)
    dz = np.diag([-0.5j, 0.5j])
    return mat @ dz, 0.5 * rot_matrix(alpha, beta + math.pi, gamma), dz @ mat


def zyz_angles(mat: np.ndarray) -> tuple[float, float, float]:
    """Euler angles (alpha, beta, gamma) with rot_matrix(...) == mat for det-1 matrices."""
    a00, a10 = mat[0, 0], mat[1, 0]
    beta = 2.0 * math.atan2(abs(a10), abs(a00))
    if abs(a10) < 1e-12:
        # diagonal: only alpha + gamma is determined
        return -2.0 * cmath.phase(a00), beta, 0.0
    if abs(a00) < 1e-12:
        # anti-diagonal: only alpha - gamma is determined
        return -2.0 * cmath.phase(a10), beta, 0.0
    p00, p10 = cmath.phase(a00), cmath.phase(a10)
    return -(p00 + p10), beta, p10 - p00


def compile_gate(gate: Gate) -> np.ndarray:
    """Unitary matrix of a gate (2x2 for Rot, 4x4 for CNOT)."""
    if gate.kind == ROT:
        return rot_matrix(*gate.angles)
    if gate.kind == CNOT:
        return CNOT_MATRIX
    raise ValueError(f"unknown gate kind: {gate.kind!r}")


def build_ansatz(
    n_qubits: int,
    depth: int,
    centers: np.ndarray | None = None,
    sigma: float = 0.0,
    seed: int = 0,
) -> Circuit:
    """Layered ansatz: per (qubit, layer) a 5-Rot candidate block, then a CNOT ring.

    `centers` has shape (n_qubits, depth, 3); when omitted, block centers are
    drawn uniformly from [-pi, pi]^3 on a stream separate from the pool
    noise. Each block member is center + sigma * xi with xi ~ N(0, I3) drawn
    from `seed` independently of sigma.
    """
    if n_qubits < 1 or depth < 1:
        raise ValueError(f"need n_qubits >= 1 and depth >= 1, got {n_qubits}, {depth}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if centers is None:
        center_rng = np.random.default_rng([seed, 1])
        centers = center_rng.uniform(-math.pi, math.pi, size=(n_qubits, depth, 3))
    else:
        centers = np.asarray(centers, dtype=float)
        if centers.shape != (n_qubits, depth, 3):
            raise ValueError(
                f"centers shape {centers.shape} != {(n_qubits, depth, 3)}"
            )
    noise_rng = np.random.default_rng([seed, 0])
    xi = noise_rng.standard_normal(size=(depth, n_qubits, BLOCK_SIZE, 3))

    gates: list[Gate] = []
    gid = 0
    for layer in range(depth):
        for qubit in range(n_qubits):
            for slot in range(BLOCK_SIZE):
                angles = centers[qubit, layer] + sigma * xi[layer, qubit, slot]
                gates.append(
                    Gate(
                        id=gid,
                        kind=ROT,
                        layer=layer,
                        slot=slot,
                        qubit=qubit,
                        angles=tuple(float(a) for a in angles),
                    )
                )
                gid += 1
        for i, (control, target) in enumerate(cnot_ring(n_qubits)):
            gates.append(
                Gate(id=gid, kind=CNOT, layer=layer, slot=i, control=control, target=target)
            )
            gid += 1
    return Circuit(n_qubits=n_qubits, depth=depth, gates=tuple(gates))


def cnot_ring(n_qubits: int) -> list[list[int]]:
    """[control, target] wires of one layer's CNOT ring (i -> i + 1 mod n), in
    order; empty on one qubit."""
    if n_qubits < 2:
        return []
    return [[i, (i + 1) % n_qubits] for i in range(n_qubits)]


def block_centers(circuit: Circuit) -> np.ndarray:
    """Per-block center angles read from slot-0 gates; exact for sigma = 0 circuits."""
    centers = np.zeros((circuit.n_qubits, circuit.depth, 3))
    for g in circuit.gates:
        if g.kind == ROT and g.slot == 0:
            centers[g.qubit, g.layer] = g.angles
    return centers


def rot_matrices(gates) -> dict[int, np.ndarray]:
    """Position -> matrix of every Rot gate in `gates`, compiled in one rot_matrix call."""
    positions = [p for p, g in enumerate(gates) if g.kind == ROT]
    angles = np.array([gates[p].angles for p in positions], dtype=float).reshape(-1, 3)
    return dict(zip(positions, rot_matrix(*angles.T)))


def joined_runs(gates, mats: dict[int, np.ndarray], joins=None):
    """Yield (first gate, length, matrix) for each maximal run of adjacent Rot
    gates on one wire and layer, whose neighbours also satisfy `joins(prev,
    next)` when it is given. The matrix is the product of the run's `mats`
    (position -> matrix), later gates on the left; any other gate is a run of
    one with its compiled matrix.
    """
    start, mat = 0, None
    for p, g in enumerate(gates):
        prev = gates[p - 1] if p else None
        if (
            prev is not None
            and g.kind == ROT == prev.kind
            and (g.qubit, g.layer) == (prev.qubit, prev.layer)
            and (joins is None or joins(prev, g))
        ):
            mat = mats[p] @ mat
            continue
        if p:
            yield gates[start], p - start, mat
        start, mat = p, mats[p] if g.kind == ROT else compile_gate(g)
    if gates:
        yield gates[start], len(gates) - start, mat


def _fuse(circuit: Circuit, joins) -> tuple[Circuit, int]:
    """Each joined run as one gate carrying the ZYZ angles of its product
    (ids renumbered), and the number of gates removed."""
    fused: list[Gate] = []
    for g, length, mat in joined_runs(circuit.gates, rot_matrices(circuit.gates), joins):
        angles = zyz_angles(mat) if length > 1 else g.angles
        # the constructor, not dataclasses.replace, which costs several times more
        fused.append(Gate(len(fused), g.kind, g.layer, g.slot, g.qubit, angles, g.control, g.target))
    return Circuit(circuit.n_qubits, circuit.depth, tuple(fused)), len(circuit.gates) - len(fused)


def fuse_blocks(circuit: Circuit) -> Circuit:
    """The circuit with each maximal run of adjacent same-wire Rot gates of a
    layer joined into one Rot; CNOTs are kept. Lossless: a product of det-1
    rotations is a det-1 rotation. Ids are renumbered.
    """
    return _fuse(circuit, None)[0]


def merge_adjacent_duplicates(circuit: Circuit) -> tuple[Circuit, int]:
    """Join only runs of identical adjacent Rot gates, like `fuse_blocks`;
    returns the merged circuit and the number of gates removed."""
    return _fuse(circuit, lambda prev, g: prev.angles == g.angles)


def apply_gate_sequence(states: np.ndarray, gates, n_qubits: int) -> np.ndarray:
    """Apply compiled gates in order; `states` may carry leading batch axes."""
    for g in gates:
        states = apply_matrix(states, compile_gate(g), g.wires(), n_qubits)
    return states


def run(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Forward pass through all gates. Accepts a single state or a batch."""
    state = np.asarray(state, dtype=complex)
    if state.shape[-1] != circuit.dim:
        raise ValueError(
            f"state dimension {state.shape[-1]} does not match circuit dim {circuit.dim}"
        )
    return apply_gate_sequence(state, circuit.gates, circuit.n_qubits)


def expectation(circuit: Circuit, state: np.ndarray, observable: np.ndarray) -> float:
    """Real expectation <psi| C^dag O C |psi> of a Hermitian observable."""
    out = run(circuit, state)
    return float(np.real(np.vdot(out, observable @ out)))
