"""Pruning a TFIM VQE ansatz with an ensemble sampled from the optimization
trajectory, certified against the energy-drift bound.

Run:  python demos/04_prune_tfim_vqe.py    (a few seconds)
"""

import math

import numpy as np

from qiprune import (
    build_ansatz,
    build_ensemble,
    build_geometry,
    build_tfim,
    calibrate_epsilon,
    certify,
    prune,
    run_vqe,
)
from qiprune.circuit import block_centers
from qiprune.linalg import operator_norm
from qiprune.tasks import vqe_energy

SEED = 0
N, DEPTH = 4, 12

print("=== the model and the variational baseline ===")
spec = build_tfim(N, j=1.0, g=1.0)
ground = float(np.min(np.linalg.eigvalsh(spec.hamiltonian)))
print(f"TFIM open chain, n={N}, J=1, g=1; exact ground energy {ground:.4f}")

circ0 = build_ansatz(N, DEPTH, sigma=0.0, seed=SEED)
vqe = run_vqe(spec, circ0, iters=25, lr=0.1)
print(f"VQE: 25 gradient-descent iterations (adjoint gradients), energy {vqe.energies[0]:.4f} -> {vqe.energies[-1]:.4f}")
print(f"trajectory snapshots recorded: {vqe.snapshots.shape[0]}")

ensemble = build_ensemble(vqe, M=50, seed=SEED)
print(f"task ensemble: M={ensemble.M} trajectory states "
      f"(with replacement: {ensemble.with_replacement})")

geo = build_geometry(N, math.exp(0.03))
h_norm = spec.hamiltonian / operator_norm(spec.hamiltonian)

print("\n=== pruning the pool circuit across the grid ===")
print(f"{'delta':>6} {'sigma':>6} {'Replace%':>9} {'RHS raw->clip':>14} "
      f"{'dq_max':>8} {'E_base':>8} {'E_pruned':>9} {'|dE|<=bound':>11}")
for delta in (0.01, 0.02):
    for sigma in (0.001, 0.003, 0.006, 0.01):
        baseline = build_ansatz(N, DEPTH, centers=block_centers(vqe.trained), sigma=sigma, seed=SEED)
        tol = calibrate_epsilon(delta, geo, rule="half_delta_rule")
        pruned, report = prune(baseline, ensemble.states, geo, tol)
        cert = certify(report, baseline, pruned, ensemble.states, h_norm)
        e_b = vqe_energy(baseline, h_norm)
        e_p = vqe_energy(pruned, h_norm)
        ok = abs(e_b - e_p) <= report.rhs_raw + 1e-9 and cert.passed
        print(f"{delta:>6} {sigma:>6} {report.replace_pct:>9.2f} "
              f"{report.rhs_raw:>7.3f}->{report.rhs_clip:<5.3f} "
              f"{report.dq_max_repl:>8.4f} {e_b:>8.4f} {e_p:>9.4f} {str(ok):>11}")

print("\nEnergies are reported normalized by the Hamiltonian operator norm, so")
print("the observable drift bound applies with ||O||_op = 1. The bound is a")
print("conservative sanity guarantee; the empirical drift is far smaller.")
