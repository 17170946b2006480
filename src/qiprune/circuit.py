"""Hardware-efficient ansatz, gate compilation, execution, prefix extraction.

The benchmark ansatz places, per layer and per qubit, a block of five Rot
gates (the candidate pool) sampled around a per-block center, followed by a
ring of CNOTs. Rot(alpha, beta, gamma) compiles to Rz(gamma) Ry(beta)
Rz(alpha) (ZYZ, alpha applied first). Pool noise is drawn once per seed as
unit normals and scaled by sigma, so sweeps over sigma with a fixed seed
share the same perturbation directions.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import apply_matrix, as_ensemble

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

    def rot_gates(self) -> list[Gate]:
        return [g for g in self.gates if g.kind == ROT]

    @property
    def n_rot(self) -> int:
        return sum(1 for g in self.gates if g.kind == ROT)


def rz(theta: float) -> np.ndarray:
    return np.array([[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rot_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """ZYZ Euler rotation Rz(gamma) Ry(beta) Rz(alpha); det = 1."""
    return rz(gamma) @ ry(beta) @ rz(alpha)


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
        if n_qubits >= 2:
            for i in range(n_qubits):
                gates.append(
                    Gate(
                        id=gid,
                        kind=CNOT,
                        layer=layer,
                        slot=i,
                        control=i,
                        target=(i + 1) % n_qubits,
                    )
                )
                gid += 1
    return Circuit(n_qubits=n_qubits, depth=depth, gates=tuple(gates))


def block_centers(circuit: Circuit) -> np.ndarray:
    """Per-block center angles read from slot-0 gates; exact for sigma = 0 circuits."""
    centers = np.zeros((circuit.n_qubits, circuit.depth, 3))
    for g in circuit.gates:
        if g.kind == ROT and g.slot == 0:
            centers[g.qubit, g.layer] = g.angles
    return centers


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


def prefix_states(circuit: Circuit, ensemble, position: int) -> np.ndarray:
    """Ensemble propagated through all gates with id strictly before `position`.

    position = 0 returns the inputs unchanged; position = len(gates) equals a
    full forward pass.
    """
    if not 0 <= position <= len(circuit.gates):
        raise ValueError(f"invalid gate position {position} for {len(circuit.gates)} gates")
    states = as_ensemble(ensemble, circuit.dim)
    out = apply_gate_sequence(states, circuit.gates[:position], circuit.n_qubits)
    return out[0] if np.ndim(ensemble) == 1 else out


def expectation(circuit: Circuit, state: np.ndarray, observable: np.ndarray) -> float:
    """Real expectation <psi| C^dag O C |psi> of a Hermitian observable."""
    out = run(circuit, state)
    return float(np.real(np.vdot(out, observable @ out)))


def to_json_dict(circuit: Circuit) -> dict:
    """JSON schema: {n_qubits, depth, gates: [{id, kind, params, qubit, layer, slot}
    | {id, kind, control, target, layer, slot}]}."""
    gates = []
    for g in circuit.gates:
        entry: dict = {"id": g.id, "kind": g.kind, "layer": g.layer, "slot": g.slot}
        if g.kind == ROT:
            entry["params"] = list(g.angles)
            entry["qubit"] = g.qubit
        else:
            entry["control"] = g.control
            entry["target"] = g.target
        gates.append(entry)
    return {"n_qubits": circuit.n_qubits, "depth": circuit.depth, "gates": gates}


def from_json_dict(doc: dict) -> Circuit:
    gates = []
    for entry in doc["gates"]:
        if entry["kind"] == ROT:
            gates.append(
                Gate(
                    id=entry["id"],
                    kind=ROT,
                    layer=entry["layer"],
                    slot=entry["slot"],
                    qubit=entry["qubit"],
                    angles=tuple(entry["params"]),
                )
            )
        elif entry["kind"] == CNOT:
            gates.append(
                Gate(
                    id=entry["id"],
                    kind=CNOT,
                    layer=entry["layer"],
                    slot=entry["slot"],
                    control=entry["control"],
                    target=entry["target"],
                )
            )
        else:
            raise ValueError(f"unknown gate kind in document: {entry['kind']!r}")
    return Circuit(n_qubits=doc["n_qubits"], depth=doc["depth"], gates=tuple(gates))


def to_json(circuit: Circuit) -> str:
    return json.dumps(to_json_dict(circuit), sort_keys=True)


def from_json(text: str) -> Circuit:
    return from_json_dict(json.loads(text))
