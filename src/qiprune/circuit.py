"""Hardware-efficient ansatz, gate compilation and execution.

The benchmark ansatz places, per layer and per qubit, a block of five Rot
gates (the candidate pool) sampled around a per-block center, followed by a
ring of CNOTs. Rot(alpha, beta, gamma) compiles to Rz(gamma) Ry(beta)
Rz(alpha) (ZYZ, alpha applied first). Pool noise is drawn once per seed as
unit normals and scaled by sigma, so sweeps over sigma with a fixed seed
share the same perturbation directions.

That gate order is the one block layout the package computes on. A
`Circuit` is its (n_qubits, depth, BLOCK_SIZE, 3) member-angle array, so a
circuit outside the layout cannot be built; `Circuit.gates` derives the
per-gate view in execution order. `block_products` multiplies each block's
member matrices into one 2x2 product, and `block_walk` applies the products
and the CNOT rings in execution order, one kernel call each, or in reverse
order for the adjoint gradient. `_layout` is the only definition of that
order. `run_fused` is the forward walk; training, VQE and `pruner.prune`
use the same two. `run` applies one kernel call per gate of `Circuit.gates`,
and `apply_gate_sequence` runs any gate sequence.
"""

from __future__ import annotations

import cmath
import functools
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


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ansatz circuit as its member angles (n_qubits, depth, BLOCK_SIZE, 3):
    members[q, layer, slot] are the Rot angles of qubit q's block in `layer`.

    Stores a read-only float copy; raises ValueError for any other shape,
    for n_qubits or depth < 1, and for non-finite angles. Equality compares
    the member values.
    """

    members: np.ndarray

    def __post_init__(self):
        members = np.array(self.members, dtype=float)
        if members.ndim != 4 or members.shape[2:] != (BLOCK_SIZE, 3) or min(members.shape[:2]) < 1:
            raise ValueError(
                f"members must have shape (n_qubits >= 1, depth >= 1, {BLOCK_SIZE}, 3), got {members.shape}"
            )
        if not np.all(np.isfinite(members)):
            raise ValueError("member angles must be finite")
        members.flags.writeable = False
        object.__setattr__(self, "members", members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return np.array_equal(self.members, other.members)

    @property
    def n_qubits(self) -> int:
        return self.members.shape[0]

    @property
    def depth(self) -> int:
        return self.members.shape[1]

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def n_rot(self) -> int:
        return self.n_qubits * self.depth * BLOCK_SIZE

    @functools.cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The gates in execution order (`_layout`); ids are positions."""
        rows = iter(self.members.swapaxes(0, 1).reshape(-1, 3).tolist())
        return tuple(
            Gate(gid, kind, layer, slot, qubit, tuple(next(rows)) if kind == ROT else None, control, target)
            for gid, (kind, layer, slot, qubit, control, target) in enumerate(_layout(self.n_qubits, self.depth))
        )


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
    return Circuit(centers[:, :, None] + sigma * np.swapaxes(xi, 0, 1))


@functools.lru_cache(maxsize=16)
def _layout(n_qubits: int, depth: int) -> tuple[tuple, ...]:
    """(kind, layer, slot, qubit, control, target) of every gate of the ansatz
    layout in execution order: per layer, each qubit's BLOCK_SIZE Rot gates
    in slot order, then the layer's CNOT ring (i -> i + 1 mod n, in order;
    none on one qubit). The only definition of the walk order."""
    ring = [(i, (i + 1) % n_qubits) for i in range(n_qubits)] if n_qubits > 1 else []
    entries: list[tuple] = []
    for layer in range(depth):
        entries += [(ROT, layer, slot, q, None, None) for q in range(n_qubits) for slot in range(BLOCK_SIZE)]
        entries += [(CNOT, layer, i, None, c, t) for i, (c, t) in enumerate(ring)]
    return tuple(entries)


def block_centers(circuit: Circuit) -> np.ndarray:
    """Per-block center angles (n_qubits, depth, 3), the slot-0 members; exact for
    sigma = 0 circuits."""
    return circuit.members[:, :, 0]


def block_products(mats: np.ndarray) -> np.ndarray:
    """Each block's product R_4 ... R_0, (n_qubits, depth, 2, 2), of its member
    matrices (n_qubits, depth, BLOCK_SIZE, 2, 2)."""
    prod = mats[:, :, 0]
    for s in range(1, BLOCK_SIZE):
        prod = mats[:, :, s] @ prod
    return prod


def block_walk(blocks: np.ndarray, states: np.ndarray, visit=None, reverse=False) -> np.ndarray:
    """Apply per-block matrices (n_qubits, depth, 2, 2) in `_layout` order, or
    in its reverse order when `reverse` is set: each block at its slot-0
    entry and each CNOT at its own, one kernel call each. `visit(qubit,
    layer, states)`, when given, sees the states just before each block is
    applied; walking the adjoint products in reverse, those are the forward
    states just after the block."""
    n, depth = blocks.shape[:2]
    layout = _layout(n, depth)
    for kind, layer, slot, qubit, control, target in reversed(layout) if reverse else layout:
        if kind == CNOT:
            states = apply_matrix(states, CNOT_MATRIX, [control, target], n)
        elif slot == 0:
            if visit is not None:
                visit(qubit, layer, states)
            states = apply_matrix(states, blocks[qubit, layer], [qubit], n)
    return states


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
    """Forward pass with each block applied as one product matrix: `block_walk`
    over the `block_products` of the circuit's members. Equal to `run` up to
    rounding, without building Gates or Euler angles. Accepts a single state
    or a batch."""
    states = _checked_states(circuit, states)
    mats = rot_matrix(*np.moveaxis(circuit.members, -1, 0))
    return block_walk(block_products(mats), states)
