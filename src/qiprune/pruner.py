"""One-shot structured pruning: block partition, reference choice, replacement.

Decisions use the ensemble-average distance d_q computed on each block's
prefix ensemble (states propagated through the original circuit to the
block's first gate); the report additionally records the per-state maximum
so the state-wise bound can be certified. Every Rot matrix is compiled once
(`circuit.rot_matrices`) and serves both the comparisons, one batched
`block_comparator` call per block, and the prefix walk, which applies each
block's adjacent members as one product: one kernel call per block.
Replacement is structural: a pruned gate keeps its circuit location but
carries the reference's unitary. `certify` runs both circuits with
`circuit.run_fused` (one product per block, exact). The reported merged
gate count joins only runs of identical adjacent gates (the count that
`merge_adjacent_duplicates` gives), so it never drops below the one Rot per
block that lossless fusion leaves without pruning anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (  # noqa: F401  merge_adjacent_duplicates is re-exported by name
    ROT,
    Circuit,
    Gate,
    joined_runs,
    merge_adjacent_duplicates,
    rot_matrices,
    run_fused,
    same_run,
)
from .linalg import ATOL, apply_matrix, as_ensemble, operator_norm
from .qmetric import QGeometry, Tolerance, block_comparator, drift_rhs

MODES = ("reference_only", "pairwise_medoid")


@dataclass
class PruneReport:
    kept: tuple[int, ...]
    replaced: tuple[int, ...]
    L: int
    replace_pct: float
    dq_values: dict[int, float]
    dq_max_replaced: float
    dq_per_state_max_replaced: float
    epsilon_q: float
    M_q: float
    rhs_raw: float
    rhs_clip: float
    comparisons: int
    selection_comparisons: int
    violations: int
    n_rot: int
    mode: str
    merged_gate_count: int
    merged_removed: int
    metric_name: str | None = None
    metric_base: float | None = None
    metric_pruned: float | None = None
    metric_drop: float | None = None
    seed: int | None = None
    config_hash: str | None = None

    def to_json_dict(self) -> dict:
        """Every field, with the table's short names for the two replaced-gate
        maxima and str keys for dq_values."""
        doc = dict(vars(self))
        doc["dq_max_repl"] = doc.pop("dq_max_replaced")
        doc["dq_per_state_max_repl"] = doc.pop("dq_per_state_max_replaced")
        doc["dq_values"] = {str(k): v for k, v in sorted(self.dq_values.items())}
        return doc


@dataclass(frozen=True)
class CertificateRecord:
    """Empirical drift vs the analytic bound, per ensemble state."""

    trace_distances: tuple[float, ...]
    obs_drifts: tuple[float, ...]
    trace_bound: float
    obs_bound: float
    max_trace_distance: float
    max_obs_drift: float
    slack_trace: float
    slack_obs: float
    op_norm: float
    L: int
    epsilon_q: float
    passed: bool

    def to_json_dict(self) -> dict:
        """Every field except the per-state tuples."""
        doc = dict(vars(self))
        del doc["trace_distances"], doc["obs_drifts"]
        return doc


#: slack added to the analytic side of certificate comparisons (float noise)
CERT_TOL = 1e-9


def partition(circuit: Circuit) -> tuple[tuple[int, ...], ...]:
    """One group of Rot-gate ids per (layer, qubit) block, in ascending id order.

    A group's first id is its default reference. Single-qubit rotation
    blocks are closed under composition and inversion by construction. CNOT
    gates are never pruning candidates.
    """
    # gate ids double as indices into circuit.gates throughout this module
    for pos, g in enumerate(circuit.gates):
        if g.id != pos:
            raise ValueError(
                f"gate ids must equal execution positions (gate {g.id} at position {pos})"
            )
    blocks: dict[tuple[int, int], list[int]] = {}
    for g in circuit.gates:
        if g.kind == ROT:
            blocks.setdefault((g.layer, g.qubit), []).append(g.id)
    if not blocks:
        raise ValueError("circuit has no rotation gates to partition")
    groups = []
    for key in sorted(blocks):
        ids = sorted(blocks[key])
        slots = sorted(circuit.gates[i].slot for i in ids)
        if slots != list(range(len(ids))):
            raise ValueError(f"block {key} has non-contiguous slots {slots}")
        groups.append(tuple(ids))
    return tuple(groups)


def _medoid(group: tuple[int, ...], mats: np.ndarray, compare) -> tuple[int, int]:
    """Gate minimizing summed d_q to the rest of the group; ties -> smallest id.

    `mats` holds the matrices by gate id and `compare` is the block's
    `block_comparator`; each gate is compared with all later ones in one
    call. Returns (gate id, number of pairwise evaluations performed).
    """
    sums = {gid: 0.0 for gid in group}
    count = 0
    ids = sorted(group)
    for i, a in enumerate(ids[:-1]):
        rest = ids[i + 1 :]
        for b, d in zip(rest, compare(mats[a], mats[rest]).mean(axis=1).tolist()):
            sums[a] += d
            sums[b] += d
            count += 1
    best = min(ids, key=lambda gid: (sums[gid], gid))
    return best, count


def prune(
    circuit: Circuit,
    ensemble,
    geo: QGeometry,
    tol: Tolerance,
    mode: str = "reference_only",
    max_replace_per_group: int | None = None,
) -> tuple[Circuit, PruneReport]:
    """One-shot redundancy pruning with structured replacement.

    Partitions the circuit into blocks (`partition`), then walks it once,
    propagating the ensemble through the original gates; at each block it
    compares every non-reference member against the reference (the block's
    first gate, or its medoid in "pairwise_medoid" mode) on the block-prefix
    ensemble and replaces it when the mean distance is within epsilon_q. `max_replace_per_group` optionally caps
    replacements per block (smallest distances first); the default replaces
    every qualifying gate.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (expected one of {MODES})")
    if max_replace_per_group is not None and max_replace_per_group < 1:
        raise ValueError(
            f"max_replace_per_group must be >= 1 when set, got {max_replace_per_group}"
        )
    groups = partition(circuit)
    states = as_ensemble(ensemble, circuit.dim)
    if geo.dim != circuit.dim:
        raise ValueError(f"geometry dim {geo.dim} does not match circuit dim {circuit.dim}")

    group_at = {group[0]: group for group in groups}
    eps = tol.epsilon_q

    new_angles: dict[int, tuple[float, float, float]] = {}
    dq_values: dict[int, float] = {}
    per_state_max: dict[int, float] = {}
    replaced: list[int] = []
    kept: list[int] = []
    comparisons = 0
    selection_comparisons = 0

    mats = rot_matrices(circuit.gates)
    for g, _, run_mat in joined_runs(circuit.gates, mats):
        if g.id in group_at:
            group = group_at[g.id]
            compare = block_comparator(states, geo, [g.qubit])
            if mode == "pairwise_medoid":
                ref_id, n_pairs = _medoid(group, mats, compare)
                selection_comparisons += n_pairs
            else:
                ref_id = group[0]
            members = [gid for gid in group if gid != ref_id]
            rows = compare(mats[ref_id], mats[members])
            comparisons += len(members)

            candidates: list[tuple[float, int]] = []
            for gid, d, worst in zip(members, rows.mean(axis=1).tolist(), rows.max(axis=1).tolist()):
                dq_values[gid] = d
                per_state_max[gid] = worst
                if d <= eps:
                    candidates.append((d, gid))
                else:
                    kept.append(gid)
            candidates.sort()
            cap = len(candidates) if max_replace_per_group is None else max_replace_per_group
            for _, gid in candidates[:cap]:
                replaced.append(gid)
                new_angles[gid] = circuit.gates[ref_id].angles
            for _, gid in candidates[cap:]:
                kept.append(gid)
            kept.append(ref_id)
        # prefixes for later blocks always come from the original circuit,
        # one kernel call per run of adjacent same-wire gates
        states = apply_matrix(states, run_mat, g.wires(), circuit.n_qubits)

    # the constructor, not dataclasses.replace, which costs several times more
    pruned_gates = tuple(
        Gate(g.id, ROT, g.layer, g.slot, g.qubit, new_angles[g.id]) if g.id in new_angles else g
        for g in circuit.gates
    )
    pruned = Circuit(n_qubits=circuit.n_qubits, depth=circuit.depth, gates=pruned_gates)

    L = len(replaced)
    n_rot = circuit.n_rot
    rhs_raw, rhs_clip = drift_rhs(L, eps, geo.M_q)
    violations = sum(1 for gid in replaced if dq_values[gid] > eps)
    # merge_adjacent_duplicates(pruned)[1] without building the merged circuit
    removed = sum(
        1 for prev, g in zip(pruned_gates, pruned_gates[1:]) if same_run(prev, g) and prev.angles == g.angles
    )

    report = PruneReport(
        kept=tuple(sorted(kept)),
        replaced=tuple(sorted(replaced)),
        L=L,
        replace_pct=100.0 * L / n_rot,
        dq_values=dq_values,
        dq_max_replaced=max((dq_values[g] for g in replaced), default=0.0),
        dq_per_state_max_replaced=max((per_state_max[g] for g in replaced), default=0.0),
        epsilon_q=eps,
        M_q=geo.M_q,
        rhs_raw=rhs_raw,
        rhs_clip=rhs_clip,
        comparisons=comparisons,
        selection_comparisons=selection_comparisons,
        violations=violations,
        n_rot=n_rot,
        mode=mode,
        merged_gate_count=len(pruned_gates) - removed,
        merged_removed=removed,
    )
    return pruned, report


def _checked_observable(observable, dim: int) -> np.ndarray:
    observable = np.asarray(observable)
    if observable.shape != (dim, dim):
        raise ValueError(f"observable shape {observable.shape} is not ({dim}, {dim})")
    if not np.all(np.isfinite(observable)):
        raise ValueError("observable has non-finite entries")
    adjoint = observable.conj().T
    # exact equality first: it is several times cheaper than the difference
    if not np.array_equal(observable, adjoint):
        asymmetry = float(np.max(np.abs(observable - adjoint)))
        if asymmetry > ATOL:
            raise ValueError(f"observable is not Hermitian (max |O - O^dag| = {asymmetry:.3g})")
    return observable


def certify(
    report: PruneReport,
    circuit: Circuit,
    pruned: Circuit,
    ensemble,
    observable: np.ndarray,
) -> CertificateRecord:
    """Empirical per-state drift between original and pruned outputs vs bounds.

    Trace-distance bound: min(2, 2 L sin(eps)/M_q); observable bound:
    ||O||_op * (2L/M_q) sin(eps). The raw bound is never asserted to stay
    below 1; slack records how loose the certificate is. Empirical values
    use the standard inner product (the bound's airtight regime) regardless
    of the q used for the pruning decision. Both circuits run with
    `run_fused` (one product matrix per block), which is exact, so the
    certificate describes the circuits as given. Raises ValueError unless
    `observable` is a finite Hermitian (within ATOL) matrix of the
    circuit's dimension.
    """
    if circuit.n_qubits != pruned.n_qubits or len(circuit.gates) != len(pruned.gates):
        raise ValueError("original and pruned circuits do not match the report")
    states = as_ensemble(ensemble, circuit.dim)
    observable = _checked_observable(observable, circuit.dim)

    out_a = run_fused(circuit, states)
    out_b = run_fused(pruned, states)
    # pure-state trace distance 2 sqrt(1 - |<a|b>|^2); bit-identical outputs give exactly 0
    overlap = np.minimum(1.0, np.abs(np.sum(np.conj(out_a) * out_b, axis=1)))
    tds = 2.0 * np.sqrt(np.maximum(0.0, 1.0 - overlap * overlap))
    tds[np.all(out_a == out_b, axis=1)] = 0.0
    tds = tuple(float(x) for x in tds)
    ev_a = np.real(np.sum(np.conj(out_a) * (out_a @ observable.T), axis=1))
    ev_b = np.real(np.sum(np.conj(out_b) * (out_b @ observable.T), axis=1))
    drifts = tuple(float(x) for x in np.abs(ev_a - ev_b))

    op = operator_norm(observable)
    trace_bound = min(2.0, report.rhs_raw)
    obs_bound = op * report.rhs_raw
    max_td = max(tds)
    max_dr = max(drifts)
    passed = max_td <= trace_bound + CERT_TOL and max_dr <= obs_bound + CERT_TOL
    return CertificateRecord(
        trace_distances=tds,
        obs_drifts=drifts,
        trace_bound=trace_bound,
        obs_bound=obs_bound,
        max_trace_distance=max_td,
        max_obs_drift=max_dr,
        slack_trace=trace_bound - max_td,
        slack_obs=obs_bound - max_dr,
        op_norm=op,
        L=report.L,
        epsilon_q=report.epsilon_q,
        passed=passed,
    )
