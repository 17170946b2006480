"""Task-conditioned overlap geometry: weighted inner product, distance, bounds.

The weight operator G_q is diagonal in the computational basis with entries
q^(w(i) - n) (w = Hamming weight of the basis index), rescaled so the largest
entry M_q equals 1. q = 1 gives the identity exactly. The distance

    d_q(U, V) = mean_k arccos( |<psi_k| U^dag V |psi_k>_q| / ||psi_k||_q^2 )

is a task-conditioned similarity measure, not a metric; the arccos argument
is clamped to [0, 1] since the weighted overlap ratio can exceed 1 for q != 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qalgebra
from .linalg import apply_matrix, as_ensemble, n_qubits_of

EPSILON_RULES = ("arcsin_rule", "half_delta_rule")


@dataclass(frozen=True)
class QGeometry:
    """Diagonal weight operator with its spectral bounds m_q <= . <= M_q."""

    q: float
    g_diag: np.ndarray
    m_q: float
    M_q: float

    @property
    def dim(self) -> int:
        return self.g_diag.shape[0]


@dataclass(frozen=True)
class Tolerance:
    """Pruning threshold epsilon_q derived from the task tolerance delta."""

    delta: float
    epsilon_q: float
    rule: str


def build_geometry(n_qubits: int, q: float) -> QGeometry:
    """Hamming-weight diagonal geometry, normalized to M_q = 1."""
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if q <= 0.0:
        raise ValueError(f"q must be positive, got {q}")
    weights = np.array([bin(i).count("1") for i in range(1 << n_qubits)])
    g = q ** (weights - float(n_qubits))
    g = g / g.max()
    return QGeometry(q=q, g_diag=g, m_q=float(g.min()), M_q=float(g.max()))


def q_inner(phi: np.ndarray, psi: np.ndarray, geo: QGeometry) -> complex:
    """Weighted inner product <phi|G_q|psi>."""
    if phi.shape != psi.shape or phi.shape[-1] != geo.dim:
        raise ValueError(
            f"dimension mismatch: {phi.shape} vs {psi.shape} vs geometry dim {geo.dim}"
        )
    return complex(np.sum(np.conj(phi) * geo.g_diag * psi))


def q_norm_sq(psi: np.ndarray, geo: QGeometry) -> float:
    """||psi||_q^2 = <psi|G_q|psi> (real and positive for G_q > 0)."""
    return float(np.sum(geo.g_diag * np.abs(psi) ** 2))


def d_q_per_state(
    U: np.ndarray,
    V: np.ndarray,
    ensemble,
    geo: QGeometry,
    wires: list[int] | None = None,
) -> np.ndarray:
    """Per-state arccos terms of d_q; `wires` embeds 2^k x 2^k gates.

    Identical operator arrays short-circuit to exact zeros (arccos(1) = 0),
    so sigma = 0 candidate pools report distance 0 bit-exactly.
    """
    states = as_ensemble(ensemble, geo.dim)
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if U.shape != V.shape:
        raise ValueError(f"operator shapes differ: {U.shape} vs {V.shape}")
    if np.array_equal(U, V):
        return np.zeros(states.shape[0])

    n = n_qubits_of(states[0])
    if wires is None:
        if U.shape[0] != states.shape[1]:
            raise ValueError(
                f"operator dim {U.shape[0]} does not match state dim {states.shape[1]}"
            )
        wires = list(range(n))
    moved = apply_matrix(states, V, wires, n)
    moved = apply_matrix(moved, U.conj().T, wires, n)
    num = np.abs(np.sum(np.conj(states) * geo.g_diag * moved, axis=1))
    den = np.sum(geo.g_diag * np.abs(states) ** 2, axis=1)
    ratio = np.clip(num / den, 0.0, 1.0)
    return np.arccos(ratio)


def d_q(
    U: np.ndarray,
    V: np.ndarray,
    ensemble,
    geo: QGeometry,
    wires: list[int] | None = None,
) -> float:
    """Ensemble-mean task-conditioned overlap distance between two operators."""
    return float(np.mean(d_q_per_state(U, V, ensemble, geo, wires=wires)))


def calibrate_epsilon(delta: float, geo: QGeometry, rule: str = "half_delta_rule") -> Tolerance:
    """Threshold epsilon_q from delta: arcsin(delta*M_q/2) or plainly delta/2."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if rule == "arcsin_rule":
        if delta * geo.M_q > 2.0:
            raise ValueError(f"arcsin rule needs delta*M_q <= 2, got {delta * geo.M_q}")
        eps = math.asin(delta * geo.M_q / 2.0)
    elif rule == "half_delta_rule":
        eps = delta / 2.0
    else:
        raise ValueError(f"unknown epsilon rule: {rule!r} (expected one of {EPSILON_RULES})")
    return Tolerance(delta=delta, epsilon_q=eps, rule=rule)


def drift_rhs(L: int, epsilon_q: float, M_q: float = 1.0, op_norm: float = 1.0) -> tuple[float, float]:
    """Analytic drift bound op_norm * (2L/M_q) sin(eps) and its clip min(1, .)."""
    if L < 0:
        raise ValueError(f"replaced-location count must be nonnegative, got {L}")
    raw = op_norm * (2.0 * L / M_q) * math.sin(epsilon_q)
    return raw, min(1.0, raw)


def statewise_deviation_bound(epsilon: float, M_q: float) -> float:
    """Single-replacement trace-distance bound 2 sqrt(1 - cos^2(eps)/M_q^2)."""
    radicand = 1.0 - math.cos(epsilon) ** 2 / M_q**2
    return 2.0 * math.sqrt(max(0.0, radicand))


def q_weighted_param_norm(theta_i, theta_j, q: float) -> float:
    """Angle-space heuristic distance with coordinate weights [t]_q, t = 1..d."""
    a = np.asarray(theta_i, dtype=float)
    b = np.asarray(theta_j, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    weights = np.array([qalgebra.q_number(t, q) for t in range(1, a.size + 1)])
    diff = (a - b).ravel()
    return math.sqrt(float(np.sum(diff * diff * weights)))
