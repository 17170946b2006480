"""Hardware-efficient ansatz, gate compilation and execution.

The benchmark ansatz places, per layer and per qubit, a block of five Rot
gates (the candidate pool) sampled around a per-block center, followed by a
ring of CNOTs. Rot(alpha, beta, gamma) compiles to Rz(gamma) Ry(beta)
Rz(alpha) (ZYZ, alpha applied first). Pool noise is drawn once per seed as
unit normals and scaled by sigma, so sweeps over sigma with a fixed seed
share the same perturbation directions. `run` applies one kernel call per
gate; output-only passes use `run_fused`, which applies each run of adjacent
same-wire Rot gates as one product matrix (exact, no Gate objects built).
`fuse_blocks` returns that fused circuit as Gates when one is wanted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain

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

    # (depth, n_qubits, BLOCK_SIZE, 3) member angles as Python floats in one call
    members = (np.swapaxes(centers, 0, 1)[:, :, None, :] + sigma * xi).tolist()

    gates: list[Gate] = []
    gid = 0
    for layer in range(depth):
        for qubit in range(n_qubits):
            for slot in range(BLOCK_SIZE):
                gates.append(Gate(gid, ROT, layer, slot, qubit, tuple(members[layer][qubit][slot])))
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


def rot_matrices(gates) -> np.ndarray:
    """(len(gates), 2, 2) array whose row p is the matrix of the Rot gate at
    position p (zero elsewhere), every Rot compiled in one rot_matrix call."""
    positions = [p for p, g in enumerate(gates) if g.kind == ROT]
    angles = np.fromiter(chain.from_iterable(gates[p].angles for p in positions), float, 3 * len(positions))
    mats = np.zeros((len(gates), 2, 2), dtype=complex)
    mats[positions] = rot_matrix(*angles.reshape(-1, 3).T)
    return mats


def same_run(prev: Gate, g: Gate) -> bool:
    """Whether `g` directly after `prev` extends a run: both Rot, same wire and layer."""
    return g.kind == ROT == prev.kind and (g.qubit, g.layer) == (prev.qubit, prev.layer)


def joined_runs(gates, mats: np.ndarray, joins=None):
    """Yield (first gate, length, matrix) for each maximal run of adjacent Rot
    gates on one wire and layer (`same_run`), whose neighbours also satisfy
    `joins(prev, next)` when it is given. The matrix is the product of the
    run's rows of `mats` (`rot_matrices`), later gates on the left; any other
    gate is a run of one with its compiled matrix. All runs multiply
    together, one batched product per position within a run.
    """
    starts, lengths = [], []
    prev = None
    for p, g in enumerate(gates):
        if prev is not None and same_run(prev, g) and (joins is None or joins(prev, g)):
            lengths[-1] += 1
        else:
            starts.append(p)
            lengths.append(1)
        prev = g
    first, size = np.array(starts, dtype=int), np.array(lengths, dtype=int)
    products = mats[first]
    for offset in range(1, max(lengths, default=0)):
        sel = np.flatnonzero(size > offset)
        products[sel] = mats[first[sel] + offset] @ products[sel]
    for p, length, mat in zip(starts, lengths, products):
        g = gates[p]
        yield g, length, mat if g.kind == ROT else compile_gate(g)


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


def _checked_states(circuit: Circuit, state) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.shape[-1] != circuit.dim:
        raise ValueError(
            f"state dimension {state.shape[-1]} does not match circuit dim {circuit.dim}"
        )
    return state


def run(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Forward pass through all gates, one kernel call per gate. Accepts a
    single state or a batch."""
    return apply_gate_sequence(_checked_states(circuit, state), circuit.gates, circuit.n_qubits)


def run_fused(circuit: Circuit, states: np.ndarray) -> np.ndarray:
    """Forward pass with each maximal run of adjacent same-wire Rot gates
    applied as one product matrix (`joined_runs`): the output of
    `run(fuse_blocks(circuit), states)` without building Gates or Euler
    angles. Accepts a single state or a batch."""
    states = _checked_states(circuit, states)
    for g, _, mat in joined_runs(circuit.gates, rot_matrices(circuit.gates)):
        states = apply_matrix(states, mat, g.wires(), circuit.n_qubits)
    return states
