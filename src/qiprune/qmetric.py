"""Task-conditioned overlap geometry: weighted inner product, distance, bounds.

The weight operator G_q is diagonal in the computational basis with entries
q^(w(i) - n) (w = Hamming weight of the basis index), rescaled so the largest
entry M_q equals 1. q = 1 gives the identity exactly. The distance

    d_q(U, V) = mean_k arccos( |<psi_k| U^dag V |psi_k>_q| / ||psi_k||_q^2 )

is a task-conditioned similarity measure, not a metric; the arccos argument
is clamped to [0, 1] since the weighted overlap ratio can exceed 1 for q != 1.
`d_q_per_state` computes it with two passes over the 2^n amplitudes and is
the reference. For 2x2 gates on one wire, `reduced_matrices` reduces each
state to a weighted 2x2 matrix once, and `reduced_distances` then compares
any number of gate pairs at O(M) per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Hamming-weight diagonal geometry, normalized to M_q = 1.

    Raises ValueError when a weight under- or overflows, that is when q is so
    far from 1 that q^n_qubits leaves the float range.
    """
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if not 0.0 < q < math.inf:
        raise ValueError(f"q must be positive and finite, got {q}")
    weights = np.array([bin(i).count("1") for i in range(1 << n_qubits)])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        g = q ** (weights - float(n_qubits))
        g = g / g.max()
    if not np.all(np.isfinite(g) & (g > 0.0)):
        raise ValueError(f"q = {q} gives a zero or non-finite weight on {n_qubits} qubits")
    return QGeometry(q=q, g_diag=g, m_q=float(g.min()), M_q=float(g.max()))


def q_inner(phi: np.ndarray, psi: np.ndarray, geo: QGeometry) -> complex:
    """Weighted inner product <phi|G_q|psi>."""
    if phi.shape != psi.shape or phi.shape[-1] != geo.dim:
        raise ValueError(
            f"dimension mismatch: {phi.shape} vs {psi.shape} vs geometry dim {geo.dim}"
        )
    return complex(np.sum(np.conj(phi) * geo.g_diag * psi))


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


def reduced_matrices(states: np.ndarray, geo: QGeometry, wire: int) -> np.ndarray:
    """Each state's weighted reduced matrix on one wire, (M, 2, 2).

    R_ab = sum_r conj(psi_ar) g_ar psi_br, where a, b index the wire's two
    basis states and r runs over the other qubits, so that
    <psi|U^dag V|psi>_q = sum_ab R_ab (U^dag V)_ab and ||psi||_q^2 = tr R
    for 2x2 gates U, V on `wire`. `states` must be a batch already checked
    by `linalg.as_ensemble`; nothing is validated here.
    """
    m = states.shape[0]
    psi = states.reshape(m, 1 << wire, 2, -1).swapaxes(1, 2).reshape(m, 2, -1)
    g = geo.g_diag.reshape(1 << wire, 2, -1).swapaxes(0, 1).reshape(2, -1)
    return np.conj(g * psi) @ psi.swapaxes(1, 2)


def reduced_distances(R: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Per-state d_q terms arccos(clip(|sum_ab R_ab (U^dag V)_ab| / tr R, 0, 1)).

    R is (..., M, 2, 2) from `reduced_matrices`, U and V are (..., 2, 2);
    the leading axes broadcast and the result is (..., M), equal to
    d_q_per_state(U, V, states, geo, [wire]) up to rounding at O(M) per
    pair. Identical U and V give exact zeros, as there.
    """
    W = np.swapaxes(U, -1, -2).conj() @ V
    num = np.abs(R.reshape(R.shape[:-2] + (4,)) @ W.reshape(W.shape[:-2] + (4, 1)))[..., 0]
    ratio = np.clip(num / np.real(R[..., 0, 0] + R[..., 1, 1]), 0.0, 1.0)
    return np.where(np.all(U == V, axis=(-2, -1))[..., None], 0.0, np.arccos(ratio))


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
