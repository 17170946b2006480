"""Executable verification suite: one numeric check per analytic claim, plus
the published-table arithmetic regression.

Checks are either assertion-mode (their bound participates in pass/fail) or
measurement-mode (bound = inf; the measured value is telemetry only).
Measurement mode covers the claims whose general-q form does not hold
numerically: the overlap-domination inequality and the distance symmetry are
exact at q = 1 and merely monitored at q != 1.

The three checks that compare against `scipy.linalg.expm` import scipy
themselves, so importing the package loads numpy alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import qalgebra, qmetric
from .circuit import build_ansatz
from .linalg import haar_unitary, pure_trace_distance, operator_norm, random_state
from .pruner import certify, partition, prune
from .qalgebra import DeformationParams, T_3, T_MINUS, T_PLUS
from .qmetric import build_geometry, calibrate_epsilon, drift_rhs
from .tasks import z0_observable


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    slack: float
    trials: int
    seed: int

    @classmethod
    def make(cls, name, measured, bound, trials, seed, tolerance=0.0) -> "CheckResult":
        return cls(
            name=name,
            passed=bool(measured <= bound + tolerance),
            measured=float(measured),
            bound=float(bound),
            slack=float(bound - measured),
            trials=trials,
            seed=seed,
        )


# Published benchmark tables. Fields per row:
#   sigma, metric_base, metric_pruned, metric_drop, replace_pct,
#   rhs_raw (as printed), clip_shown (row printed with the ->1 clip), dq_max
# Dataset key maps to (rotation-gate count, rows-per-delta dict).
PUBLISHED_TABLES: dict[str, dict] = {
    "mnist49": {
        "n_rot": 480,
        "rows": {
            0.01: [
                (0.001, 72.77, 72.90, -0.13, 60.00, 2.88, True, 0.0040),
                (0.003, 72.62, 72.80, -0.18, 50.02, 2.41, True, 0.0049),
                (0.006, 72.37, 73.10, -0.73, 19.79, 0.95, False, 0.0050),
                (0.010, 72.30, 72.60, -0.30, 7.50, 0.36, False, 0.0048),
            ],
            0.02: [
                (0.001, 72.77, 72.90, -0.13, 60.00, 5.76, True, 0.0040),
                (0.003, 72.62, 72.80, -0.18, 60.00, 5.76, True, 0.0079),
                (0.006, 72.37, 73.10, -0.73, 51.98, 4.99, True, 0.0098),
                (0.010, 72.30, 72.60, -0.30, 26.67, 2.56, True, 0.0099),
            ],
        },
    },
    "fashion_sb": {
        "n_rot": 480,
        "rows": {
            0.01: [
                (0.001, 82.32, 82.48, -0.16, 60.00, 2.88, True, 0.0042),
                (0.003, 82.30, 82.50, -0.20, 51.56, 2.48, True, 0.0049),
                (0.006, 81.85, 82.55, -0.70, 21.35, 1.03, True, 0.0049),
                (0.010, 81.77, 81.95, -0.18, 7.92, 0.38, False, 0.0048),
            ],
            0.02: [
                (0.001, 82.32, 82.48, -0.16, 60.00, 5.76, True, 0.0041),
                (0.003, 82.30, 82.50, -0.20, 60.00, 5.76, True, 0.0080),
                (0.006, 81.85, 82.55, -0.70, 52.60, 5.05, True, 0.0099),
                (0.010, 81.77, 81.95, -0.18, 27.60, 2.65, True, 0.0099),
            ],
        },
    },
    "bas": {
        "n_rot": 240,
        "rows": {
            0.01: [
                (0.001, 64.05, 64.05, 0.00, 59.79, 1.435, True, 0.0034),
                (0.003, 64.05, 64.05, 0.00, 53.13, 1.28, True, 0.0048),
                (0.006, 64.05, 64.05, 0.00, 26.88, 0.65, False, 0.0049),
                (0.010, 64.05, 62.50, 1.55, 11.04, 0.27, False, 0.0047),
            ],
            0.02: [
                (0.001, 64.05, 64.05, 0.00, 60.00, 2.88, True, 0.0042),
                (0.003, 64.05, 64.05, 0.00, 59.79, 2.87, True, 0.0070),
                # the last two rows print the raw bound without the ->1 clip
                (0.006, 64.05, 64.05, 0.00, 53.33, 2.56, False, 0.0097),
                (0.010, 64.05, 62.50, 1.55, 32.08, 1.54, False, 0.0098),
            ],
        },
    },
    "tfim": {
        "n_rot": 240,
        "rows": {
            0.01: [
                (0.001, 0.3976, 0.3970, 0.0006, 60.00, 1.44, True, 0.0029),
                (0.003, 0.3983, 0.3964, 0.0019, 52.92, 1.27, True, 0.0049),
                (0.006, 0.3992, 0.3955, 0.0037, 24.38, 0.59, False, 0.0049),
                (0.010, 0.4003, 0.3940, 0.0063, 10.63, 0.26, False, 0.0047),
            ],
            0.02: [
                (0.001, 0.3976, 0.3970, 0.0006, 60.00, 2.88, True, 0.0028),
                (0.003, 0.3983, 0.3964, 0.0019, 60.00, 2.88, True, 0.0068),
                (0.006, 0.3992, 0.3955, 0.0037, 53.33, 2.56, True, 0.0098),
                (0.010, 0.4003, 0.3940, 0.0063, 30.42, 1.46, True, 0.0099),
            ],
        },
    },
}

RHS_ATOL = 0.01


def table_rows() -> list[dict]:
    """All published rows as flat dicts."""
    out = []
    for dataset, spec in PUBLISHED_TABLES.items():
        for delta, rows in spec["rows"].items():
            for sigma, base, pruned, drop, pct, rhs, clip_shown, dq_max in rows:
                out.append(
                    {
                        "dataset": dataset,
                        "n_rot": spec["n_rot"],
                        "delta": delta,
                        "sigma": sigma,
                        "metric_base": base,
                        "metric_pruned": pruned,
                        "metric_drop": drop,
                        "replace_pct": pct,
                        "rhs_raw": rhs,
                        "clip_shown": clip_shown,
                        "dq_max": dq_max,
                    }
                )
    return out


def regress_tables(rows: list[dict] | None = None, seed: int = 0) -> list[CheckResult]:
    """Re-derive RHS_raw = 2 L sin(delta/2) and the min(1, .) clip for every row.

    Asserts the recomputed raw bound within +-0.01 of the printed value, the
    clip rule against the printed effective bound, and dq_max <= delta/2.
    """
    rows = table_rows() if rows is None else rows
    results = []
    for row in rows:
        L = row["replace_pct"] / 100.0 * row["n_rot"]
        raw, clip = drift_rhs(L, row["delta"] / 2.0)
        name = f"table:{row['dataset']}:d{row['delta']}:s{row['sigma']}"
        results.append(
            CheckResult.make(f"{name}:rhs_raw", abs(raw - row["rhs_raw"]), RHS_ATOL, 1, seed)
        )
        clip_published = min(1.0, row["rhs_raw"])
        clip_err = 0.0 if clip == 1.0 == clip_published else abs(clip - clip_published)
        results.append(CheckResult.make(f"{name}:rhs_clip", clip_err, RHS_ATOL, 1, seed))
        results.append(
            CheckResult.make(
                f"{name}:dq_max", row["dq_max"], row["delta"] / 2.0, 1, seed, tolerance=1e-12
            )
        )
    return results


def _check_lambda_contraction(seed: int) -> list[CheckResult]:
    worst = 0.0
    for lam in (0.0, 0.25, 0.5, 0.97, 1.0):
        worst = max(worst, qalgebra.commutator_contraction_check(DeformationParams(lam)))
    return [CheckResult.make("lambda_contraction_residual", worst, 1e-12, 5, seed)]


def _check_q_number_limits(seed: int) -> list[CheckResult]:
    worst = 0.0
    for x in (1.0, 2.0, 5.0):
        worst = max(worst, abs(qalgebra.q_number(x, 1.0 + 1e-4) - x) / x)
    res = [CheckResult.make("q_number_classical_limit_rel", worst, 1e-6, 3, seed)]
    exact = max(abs(qalgebra.q_number(x, 1.0) - x) for x in (1.0, 2.0, 5.0))
    res.append(CheckResult.make("q_number_limit_branch", exact, 0.0, 3, seed))
    return res


def _check_q_exp_limit(seed: int) -> list[CheckResult]:
    import scipy.linalg

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (h + h.conj().T) / 2.0
        a = 1j * h
        ours, _ = qalgebra.q_exp(a, 1.0)
        ref = scipy.linalg.expm(a)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    return [CheckResult.make("q_exp_classical_limit_vs_expm", worst, 1e-8, 50, seed)]


def _check_uq_identity(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for lam in (0.0, 0.5, 0.97, 1.0):
        params = DeformationParams(lam)
        mat, _ = qalgebra.build_Uq((0.0, 0.0, 0.0), params)
        worst = max(worst, float(np.max(np.abs(mat - np.eye(2)))))
    # lam = 0 scales every generator to zero: identity for any angles
    params0 = DeformationParams(0.0)
    for _ in range(10):
        theta = tuple(rng.uniform(-math.pi, math.pi, size=3))
        mat, _ = qalgebra.build_Uq(theta, params0)
        worst = max(worst, float(np.max(np.abs(mat - np.eye(2)))))
    return [CheckResult.make("uq_identity_cases", worst, 1e-12, 14, seed)]


def _check_drinfeld_jimbo_spin_half(seed: int) -> list[CheckResult]:
    # at spin 1/2, [T+, T-] equals the q-number of 2*T3 for every q > 0
    worst = 0.0
    comm = T_PLUS @ T_MINUS - T_MINUS @ T_PLUS
    for q in (1.0, 1.03, 1.5, math.e):
        rhs = np.diag([qalgebra.q_number(1.0, q), qalgebra.q_number(-1.0, q)])
        worst = max(worst, float(np.max(np.abs(comm - rhs))))
    ladder = max(
        float(np.max(np.abs(T_3 @ T_PLUS - T_PLUS @ T_3 - T_PLUS))),
        float(np.max(np.abs(T_3 @ T_MINUS - T_MINUS @ T_3 + T_MINUS))),
    )
    return [
        CheckResult.make("drinfeld_jimbo_spin_half", worst, 1e-12, 4, seed),
        CheckResult.make("ladder_commutators", ladder, 1e-12, 2, seed),
    ]


def _check_overlap_domination(seed: int) -> list[CheckResult]:
    """|<psi|W|psi>| >= |<psi|W|psi>_q| / M_q: exact at q = 1, monitored at q != 1."""
    rng = np.random.default_rng(seed)
    results = []
    for q, assert_mode in ((1.0, True), (1.03, False), (1.5, False), (math.e, False)):
        geo = build_geometry(3, q)
        worst = -math.inf
        for _ in range(200):
            psi = random_state(3, rng)
            w = haar_unitary(8, rng)
            std = abs(np.vdot(psi, w @ psi))
            weighted = abs(qmetric.q_inner(psi, w @ psi, geo))
            worst = max(worst, weighted / geo.M_q - std)
        name = f"overlap_domination_q{q:.2f}" + ("" if assert_mode else "_measured")
        bound = 1e-12 if assert_mode else math.inf
        results.append(CheckResult.make(name, worst, bound, 200, seed))
    return results


def _check_statewise_bound(seed: int) -> list[CheckResult]:
    """Trace distance vs 2 sqrt(1 - cos^2 eps) at q = 1, premise measured per state."""
    import scipy.linalg

    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(200):
        u = haar_unitary(4, rng)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (h + h.conj().T) / 2.0
        h /= np.max(np.abs(np.linalg.eigvalsh(h)))
        v = u @ scipy.linalg.expm(1j * rng.uniform(0.0, 0.05) * h)
        psi = random_state(2, rng)
        eps = math.acos(min(1.0, abs(np.vdot(psi, u.conj().T @ (v @ psi)))))
        td = pure_trace_distance(u @ psi, v @ psi)
        worst = max(worst, td - qmetric.statewise_deviation_bound(eps, 1.0))
    return [CheckResult.make("statewise_deviation_bound_q1", worst, 0.0, 200, seed, tolerance=1e-9)]


def _check_average_bound(seed: int) -> list[CheckResult]:
    import scipy.linalg

    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(50):
        u = haar_unitary(4, rng)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (h + h.conj().T) / 2.0
        h /= np.max(np.abs(np.linalg.eigvalsh(h)))
        v = u @ scipy.linalg.expm(1j * rng.uniform(0.0, 0.05) * h)
        obs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obs = (obs + obs.conj().T) / 2.0
        states = np.array([random_state(2, rng) for _ in range(20)])
        eps = 0.0
        drift = 0.0
        for psi in states:
            eps = max(eps, math.acos(min(1.0, abs(np.vdot(psi, u.conj().T @ (v @ psi))))))
            ea = np.real(np.vdot(u @ psi, obs @ (u @ psi)))
            eb = np.real(np.vdot(v @ psi, obs @ (v @ psi)))
            drift += abs(ea - eb) / len(states)
        worst = max(worst, drift - operator_norm(obs) * 2.0 * math.sin(eps))
    return [CheckResult.make("average_task_deviation_bound_q1", worst, 0.0, 50, seed, tolerance=1e-9)]


def _random_prune_run(rng: np.random.Generator):
    n = int(rng.integers(2, 4))
    depth = int(rng.integers(1, 3))
    sigma = float(rng.choice([0.0, 0.002, 0.01, 0.05]))
    delta = float(rng.uniform(0.005, 0.05))
    seed = int(rng.integers(0, 2**31))
    circ = build_ansatz(n, depth, sigma=sigma, seed=seed)
    geo = build_geometry(n, math.exp(0.03))
    ens = np.array([random_state(n, rng) for _ in range(8)])
    tol = calibrate_epsilon(delta, geo)
    mode = str(rng.choice(["reference_only", "pairwise_medoid"]))
    pruned, report = prune(circ, ens, geo, tol, mode=mode)
    return circ, pruned, report, ens


def _check_completeness(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = 0
    for _ in range(20):
        _, _, report, _ = _random_prune_run(rng)
        worst = max(worst, report.violations)
        worst = max(
            worst,
            sum(1 for g in report.replaced if report.dq_values[g] > report.epsilon_q),
        )
    return [CheckResult.make("completeness_zero_violations", worst, 0.0, 20, seed)]


def _check_comparison_count(seed: int) -> list[CheckResult]:
    circ = build_ansatz(3, 2, sigma=0.01, seed=seed)
    groups = partition(circ)
    geo = build_geometry(3, 1.0)
    rng = np.random.default_rng(seed)
    ens = np.array([random_state(3, rng) for _ in range(4)])
    tol = calibrate_epsilon(0.01, geo)
    _, rep_ref = prune(circ, ens, geo, tol, mode="reference_only")
    _, rep_med = prune(circ, ens, geo, tol, mode="pairwise_medoid")
    n_rot, r = circ.n_rot, len(groups)
    expected_pairs = sum(len(g) * (len(g) - 1) // 2 for g in groups)
    err = abs(rep_ref.comparisons - (n_rot - r)) + abs(rep_ref.selection_comparisons)
    err += abs(rep_med.comparisons - (n_rot - r)) + abs(
        rep_med.selection_comparisons - expected_pairs
    )
    return [CheckResult.make("comparison_count_exact", err, 0.0, 2, seed)]


def _check_certificates(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = -math.inf
    slacks = []
    for sigma, delta in ((0.002, 0.01), (0.01, 0.02)):
        circ = build_ansatz(4, 3, sigma=sigma, seed=seed)
        geo = build_geometry(4, math.exp(0.03))
        ens = np.array([random_state(4, rng) for _ in range(12)])
        tol = calibrate_epsilon(delta, geo)
        pruned, report = prune(circ, ens, geo, tol)
        cert = certify(report, circ, pruned, ens, z0_observable(4))
        worst = max(
            worst,
            cert.max_trace_distance - cert.trace_bound,
            cert.max_obs_drift - cert.obs_bound,
        )
        slacks.append(cert.slack_trace)
    results = [CheckResult.make("circuit_drift_certificates", worst, 0.0, 2, seed, tolerance=1e-9)]
    results.append(
        CheckResult.make("certificate_median_slack_measured", float(np.median(slacks)), math.inf, 2, seed)
    )
    return results


def _check_dq_symmetry(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    for q, assert_mode in ((1.0, True), (1.03, False), (1.5, False)):
        geo = build_geometry(2, q)
        worst = 0.0
        for _ in range(50):
            u = haar_unitary(4, rng)
            v = haar_unitary(4, rng)
            ens = np.array([random_state(2, rng) for _ in range(5)])
            worst = max(worst, abs(qmetric.d_q(u, v, ens, geo) - qmetric.d_q(v, u, ens, geo)))
        name = f"dq_symmetry_q{q:.2f}" + ("" if assert_mode else "_measured")
        results.append(CheckResult.make(name, worst, 1e-12 if assert_mode else math.inf, 50, seed))
    return results


def _check_cnot_q(seed: int) -> list[CheckResult]:
    _, dev1 = qalgebra.build_cnot_q(DeformationParams(1.0))
    results = [CheckResult.make("cnot_q_identity_at_lambda1", dev1, 1e-12, 1, seed)]
    for lam in (0.0, 0.5, 0.97):
        for reading in ("two_qubit", "control"):
            _, dev = qalgebra.build_cnot_q(DeformationParams(lam), projectors=reading)
            results.append(
                CheckResult.make(f"cnot_q_deviation_l{lam}_{reading}_measured", dev, math.inf, 1, seed)
            )
    return results


CHECKS = (
    _check_lambda_contraction,
    _check_q_number_limits,
    _check_q_exp_limit,
    _check_uq_identity,
    _check_drinfeld_jimbo_spin_half,
    _check_overlap_domination,
    _check_statewise_bound,
    _check_average_bound,
    _check_completeness,
    _check_comparison_count,
    _check_certificates,
    _check_dq_symmetry,
    _check_cnot_q,
)


def check_all(seed: int = 0) -> list[CheckResult]:
    """Run every registered analytic check; failures are results, not errors."""
    results: list[CheckResult] = []
    for fn in CHECKS:
        results.extend(fn(seed))
    return results


def results_to_json(results: list[CheckResult]) -> str:
    def fix(r: dict) -> dict:
        # inf is not valid JSON; measurement-mode bounds serialize as null
        if math.isinf(r["bound"]):
            r["bound"] = None
            r["slack"] = None
        return r

    payload = {
        "passed": all(r.passed for r in results),
        "n_checks": len(results),
        "checks": [fix(asdict(r)) for r in results],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
