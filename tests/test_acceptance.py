"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

The sweep fixture runs the production pipeline (cli.prepare_task /
cli.run_grid_point) over the full 2x4 delta-sigma grid for all four tasks
with three seeds. The IDX-backed tasks run on synthetic image files written
by the fixture: every criterion below is a structural property of the
pruning protocol and does not depend on what the images contain. Training
budgets are kept small for the same reason.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from oracles import circuit_unitary, write_synthetic_idx_tree

from qiprune.circuit import build_ansatz, compile_gate, run
from qiprune.cli import RunConfig, prepare_task, run_grid_point
from qiprune.linalg import random_state
from qiprune.pruner import certify, prune
from qiprune.qalgebra import DeformationParams, commutator_contraction_check, q_exp, q_number
from qiprune.qmetric import build_geometry, calibrate_epsilon
from qiprune.tasks import z0_observable
from qiprune.verify import regress_tables, table_rows

DELTAS = (0.01, 0.02)
SIGMAS = (0.001, 0.003, 0.006, 0.01)
SEEDS = (0, 1, 2)
TASKS = ("bas", "tfim", "mnist49", "fashion_sb")

CERT_TOL = 1e-9


def _criterion(name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {name}: {status}")
    assert not failures, f"{name}: {failures[:5]}"


@pytest.fixture(scope="session")
def sweep_results(tmp_path_factory):
    data_root = tmp_path_factory.mktemp("idx_data")
    write_synthetic_idx_tree(data_root, "mnist", (4, 9))
    write_synthetic_idx_tree(data_root, "fashion", (5, 9))

    budgets = {
        "bas": {"train_epochs": 2, "train_lr": 0.2},
        "mnist49": {"train_epochs": 0, "data_dir": str(data_root)},
        "fashion_sb": {"train_epochs": 0, "data_dir": str(data_root)},
        "tfim": {"vqe_iters": 12, "vqe_lr": 0.1},
    }
    results: dict[tuple, list[dict]] = {}
    for task in TASKS:
        for seed in SEEDS:
            config = RunConfig(task=task, seed=seed, **budgets[task])
            ctx = prepare_task(config)
            runs = []
            for delta in DELTAS:
                for sigma in SIGMAS:
                    out = run_grid_point(ctx, delta, sigma)
                    runs.append(
                        {
                            "delta": delta,
                            "sigma": sigma,
                            "report": out["report"],
                            "certificate": out["certificate"],
                            "row": out["row"],
                        }
                    )
            results[(task, seed)] = runs
    return results


def test_table_arithmetic_regression():
    start = time.perf_counter()
    rows = table_rows()
    results = regress_tables(rows)
    elapsed = time.perf_counter() - start
    failures = [r.name for r in results if not r.passed]
    if len(rows) != 32:
        failures.append(f"expected the 32 published rows, saw {len(rows)}")
    if elapsed >= 1.0:
        failures.append(f"regression took {elapsed:.3f}s (must be < 1s)")
    # spot check the quoted reference row: mnist49 delta=0.01 sigma=0.001
    raw = 2.0 * (0.60 * 480) * math.sin(0.005)
    if abs(raw - 2.88) > 0.01 or min(1.0, raw) != 1.0:
        failures.append("mnist49 reference row does not reproduce 2.88 -> 1")
    _criterion("table-arithmetic-regression", failures)


def test_zero_violation_completeness(sweep_results):
    failures = []
    for (task, seed), runs in sweep_results.items():
        for r in runs:
            rep = r["report"]
            if rep.violations != 0:
                failures.append(f"{task}/seed{seed}/d{r['delta']}/s{r['sigma']}: {rep.violations}")
            for gid in rep.replaced:
                if rep.dq_values[gid] > rep.epsilon_q:
                    failures.append(f"{task}/seed{seed}: gate {gid} above threshold")
    _criterion("zero-violation-completeness", failures)


def test_drift_certificate(sweep_results):
    failures = []
    for (task, seed), runs in sweep_results.items():
        for r in runs:
            rep, cert = r["report"], r["certificate"]
            trace_bound = min(2.0, 2.0 * rep.L * math.sin(rep.epsilon_q) / rep.M_q)
            obs_bound = cert.op_norm * (2.0 * rep.L / rep.M_q) * math.sin(rep.epsilon_q)
            tag = f"{task}/seed{seed}/d{r['delta']}/s{r['sigma']}"
            if cert.max_trace_distance > trace_bound + CERT_TOL:
                failures.append(f"{tag}: trace {cert.max_trace_distance} > {trace_bound}")
            if cert.max_obs_drift > obs_bound + CERT_TOL:
                failures.append(f"{tag}: obs {cert.max_obs_drift} > {obs_bound}")
            if not cert.passed:
                failures.append(f"{tag}: certificate flagged failed")
            # task-metric substitution: the reported drop stays within the
            # clipped certified bound (accuracy drop taken as a fraction)
            drop = abs(rep.metric_drop)
            if rep.metric_name == "accuracy_pct":
                drop /= 100.0
            if drop > rep.rhs_clip + CERT_TOL:
                failures.append(f"{tag}: metric drop {drop} > clipped bound {rep.rhs_clip}")
    _criterion("drift-certificate", failures)


def test_monotone_trends(sweep_results):
    failures = []
    for (task, seed), runs in sweep_results.items():
        by_delta: dict[float, list] = {}
        by_sigma: dict[float, list] = {}
        for r in runs:
            by_delta.setdefault(r["delta"], []).append(r)
            by_sigma.setdefault(r["sigma"], []).append(r)
        for delta, group in by_delta.items():
            group.sort(key=lambda r: r["sigma"])
            pcts = [g["report"].replace_pct for g in group]
            if any(b > a + 1e-12 for a, b in zip(pcts, pcts[1:])):
                failures.append(f"{task}/seed{seed}/d{delta}: replace_pct not non-increasing {pcts}")
            dq_maxes = [g["report"].dq_max_repl for g in group]
            eps = group[0]["report"].epsilon_q
            if any(d > eps for d in dq_maxes):
                failures.append(f"{task}/seed{seed}/d{delta}: dq_max exceeds epsilon")
            # approach from below: the gap to epsilon must not grow as sigma
            # does (5% saturation tolerance) and must end close to epsilon
            if dq_maxes[-1] < dq_maxes[0] - 0.05 * eps:
                failures.append(
                    f"{task}/seed{seed}/d{delta}: dq_max does not approach epsilon {dq_maxes}"
                )
            if dq_maxes[-1] < 0.8 * eps:
                failures.append(
                    f"{task}/seed{seed}/d{delta}: dq_max stays far from epsilon {dq_maxes}"
                )
        for sigma, group in by_sigma.items():
            group.sort(key=lambda r: r["delta"])
            pcts = [g["report"].replace_pct for g in group]
            if any(b < a - 1e-12 for a, b in zip(pcts, pcts[1:])):
                failures.append(f"{task}/seed{seed}/s{sigma}: replace_pct not non-decreasing {pcts}")
    _criterion("monotone-trends", failures)


def test_algebra_suite(sweep_results):
    failures = []
    for lam in (0.0, 0.25, 0.5, 0.97, 1.0):
        residual = commutator_contraction_check(DeformationParams(lam))
        if residual > 1e-12:
            failures.append(f"contraction residual {residual} at lambda={lam}")
    for x in (1.0, 2.0, 5.0):
        if abs(q_number(x, 1.0 + 1e-4) - x) / x > 1e-6:
            failures.append(f"q-number limit off at x={x}")
    rng = np.random.default_rng(0)
    for _ in range(25):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = 1j * (h + h.conj().T) / 2.0
        ours, _ = q_exp(a, 1.0)
        if np.max(np.abs(ours - scipy.linalg.expm(a))) > 1e-8:
            failures.append("q-exp disagrees with the matrix-exponential oracle")
    for (task, seed), runs in sweep_results.items():
        for r in runs:
            rep = r["report"]
            expected = rep.n_rot - rep.n_rot // 5
            if rep.comparisons != expected:
                failures.append(
                    f"{task}/seed{seed}: comparisons {rep.comparisons} != {expected}"
                )
    _criterion("algebra-suite", failures)


def test_small_instance_oracle_equivalence():
    failures = []
    for seed in SEEDS:
        circ = build_ansatz(2, 2, sigma=0.005, seed=seed)
        geo = build_geometry(2, math.exp(0.03))
        tol = calibrate_epsilon(0.02, geo)
        rng = np.random.default_rng(seed)
        ens = np.array([random_state(2, rng) for _ in range(8)])
        pruned, report = prune(circ, ens, geo, tol)
        u_orig = circuit_unitary(circ.gates, 2, compile_gate)
        u_pruned = circuit_unitary(pruned.gates, 2, compile_gate)
        for k, psi in enumerate(ens):
            if np.max(np.abs(run(circ, psi) - u_orig @ psi)) > 1e-10:
                failures.append(f"seed{seed}: original outputs disagree with the oracle")
            if np.max(np.abs(run(pruned, psi) - u_pruned @ psi)) > 1e-10:
                failures.append(f"seed{seed}: pruned outputs disagree with the oracle")
        cert = certify(report, circ, pruned, ens, z0_observable(2))
        if not cert.passed:
            failures.append(f"seed{seed}: certificate failed on the small instance")
    _criterion("small-instance-oracle-equivalence", failures)
