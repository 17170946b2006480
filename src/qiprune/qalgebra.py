"""Deformed su(2) machinery: q-numbers, q-exponential gates, contraction scaling.

The deformation strength is a real q > 0 derived from an engineering knob
lambda in [0, 1] through q = exp(beta * (1 - lambda)); lambda = 1 is the
undeformed limit q = 1, lambda = 0 the fully contracted (commutative) limit.
Generators are fixed in the spin-1/2 representation:

    T3 = diag(1/2, -1/2),  T+ = [[0,1],[0,0]],  T- = [[0,0],[1,0]]

Operators produced by the q-exponential are generally NOT unitary; they are
kept out of circuit execution and exist for algebra verification. Executed
circuits use compiled unitary gates only (see `circuit`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import unitarity_deviation

T_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
T_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
T_3 = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)

#: below this |q - 1| the q-number switches to its analytic limit (cancellation guard)
Q_ONE_CUTOFF = 1e-8


@dataclass(frozen=True)
class DeformationParams:
    """Deformation knobs: lam in [0,1], beta > 0, derived q = exp(beta*(1-lam))."""

    lam: float
    beta: float = 1.0
    q: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        try:
            q = math.exp(self.beta * (1.0 - self.lam))
        except OverflowError:
            raise ValueError(
                f"q = exp(beta * (1 - lambda)) overflows for beta = {self.beta}, lambda = {self.lam}"
            ) from None
        object.__setattr__(self, "q", q)

    @classmethod
    def from_noise(cls, gamma: float, alpha: float, beta: float = 1.0) -> "DeformationParams":
        """Contraction parameter from the noise proxy: lambda = 1 - gamma*alpha."""
        return cls(lam=1.0 - gamma * alpha, beta=beta)


@dataclass(frozen=True)
class SuqGenerators:
    """Spin-1/2 generator triple, optionally scaled by lambda."""

    t_plus: np.ndarray
    t_minus: np.ndarray
    t_3: np.ndarray
    lambda_scaled: bool


def su2_generators(lam: float | None = None) -> SuqGenerators:
    """Generators; pass lam to get the lambda-scaled triple T'_k = lam * T_k."""
    if lam is None:
        return SuqGenerators(T_PLUS.copy(), T_MINUS.copy(), T_3.copy(), lambda_scaled=False)
    return SuqGenerators(lam * T_PLUS, lam * T_MINUS, lam * T_3, lambda_scaled=True)


def q_number(x: float, q: float) -> float:
    """[x]_q = (q^x - q^-x) / (q - q^-1), with the x limit taken as q -> 1."""
    if q <= 0.0:
        raise ValueError(f"q must be positive, got {q}")
    if abs(q - 1.0) < Q_ONE_CUTOFF:
        return float(x)
    return (q**x - q**-x) / (q - 1.0 / q)


def q_factorial(n: int, q: float) -> float:
    """[n]_q! as the product of [m]_q for m = 1..n; empty product for n = 0."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    out = 1.0
    for m in range(1, n + 1):
        out *= q_number(m, q)
    return out


def q_exp(x: np.ndarray, q: float, tol: float = 1e-14, max_terms: int = 200) -> tuple[np.ndarray, int]:
    """Deformed exponential sum_n x^n / [n]_q!, truncated by term magnitude.

    Returns (matrix, order) where order is the highest power included.
    Raises RuntimeError if max_terms fail to push the term below tol.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"q_exp needs a square matrix, got shape {x.shape}")
    total = np.eye(x.shape[0], dtype=complex)
    term = np.eye(x.shape[0], dtype=complex)
    for n in range(1, max_terms + 1):
        term = term @ x / q_number(n, q)
        total = total + term
        if np.max(np.abs(term)) < tol:
            return total, n
    raise RuntimeError(f"q-exponential series did not converge within {max_terms} terms")


def build_Uq(theta: tuple[float, float, float], params: DeformationParams, tol: float = 1e-14) -> tuple[np.ndarray, float]:
    """Gate-family operator exp_q(i sum_k theta_k * lam * T_k), k in (+, -, 3).

    Not unitary in general; returns (matrix, max-entry deviation of U U^dag
    from the identity). theta order is (plus, minus, three).
    """
    gen = su2_generators(params.lam)
    arg = 1j * (theta[0] * gen.t_plus + theta[1] * gen.t_minus + theta[2] * gen.t_3)
    mat, _ = q_exp(arg, params.q, tol=tol)
    return mat, unitarity_deviation(mat)


_PAIR_LABELS = (("+", "-"), ("3", "+"), ("3", "-"))


def commutator_contraction_check(
    params: DeformationParams,
    pairs: tuple[tuple[str, str], ...] = _PAIR_LABELS,
) -> float:
    """Max entrywise |[lam*Ti, lam*Tj] - lam^2 [Ti, Tj]| over generator pairs."""
    base = {"+": T_PLUS, "-": T_MINUS, "3": T_3}
    lam = params.lam
    worst = 0.0
    for i, j in pairs:
        a, b = base[i], base[j]
        scaled = (lam * a) @ (lam * b) - (lam * b) @ (lam * a)
        plain = lam * lam * (a @ b - b @ a)
        worst = max(worst, float(np.max(np.abs(scaled - plain))))
    return worst


def pauli_x_q(q: float) -> np.ndarray:
    """Deformed X operator q^{T3} T+ + q^{-T3} T-; equals sqrt(q) * X at spin 1/2."""
    if q <= 0.0:
        raise ValueError(f"q must be positive, got {q}")
    q_t3 = np.diag([q**0.5, q**-0.5]).astype(complex)
    q_t3_inv = np.diag([q**-0.5, q**0.5]).astype(complex)
    return q_t3 @ T_PLUS + q_t3_inv @ T_MINUS


def build_cnot_q(params: DeformationParams, projectors: str = "two_qubit") -> tuple[np.ndarray, float]:
    """Deformed CNOT on two qubits; returns (matrix, unitarity deviation).

    The construction I + (lam-1) P00 (x) I + (1-lam) P11 (x) X_q admits two
    readings of the projectors, both provided:

    * ``two_qubit`` (literal): P00 = |00><00| and P11 = |11><11| are 4x4
      projectors on both qubits; the X_q factor acts on the target leg of
      the projected state, i.e. the last term is (I (x) X_q) P11.
    * ``control``: P00 -> |0><0| and P11 -> |1><1| on the control qubit only,
      giving I + (lam-1) |0><0| (x) I + (1-lam) |1><1| (x) X_q.

    Neither reading is unitary away from lam = 1 (at lam = 1 both collapse
    to the identity exactly). The deviation is therefore measured and
    reported, never asserted to vanish.
    """
    lam = params.lam
    eye2 = np.eye(2, dtype=complex)
    eye4 = np.eye(4, dtype=complex)
    x_q = pauli_x_q(params.q)
    if projectors == "two_qubit":
        p00 = np.zeros((4, 4), dtype=complex)
        p00[0, 0] = 1.0
        p11 = np.zeros((4, 4), dtype=complex)
        p11[3, 3] = 1.0
        mat = eye4 + (lam - 1.0) * p00 + (1.0 - lam) * (np.kron(eye2, x_q) @ p11)
    elif projectors == "control":
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        mat = eye4 + (lam - 1.0) * np.kron(p0, eye2) + (1.0 - lam) * np.kron(p1, x_q)
    else:
        raise ValueError(f"unknown projector reading: {projectors!r}")
    return mat, unitarity_deviation(mat)
