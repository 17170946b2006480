"""One-shot structured pruning: block partition, reference choice, replacement.

Decisions use the ensemble-average distance d_q computed on each block's
prefix ensemble (states propagated to the block's first gate); the report
additionally records the per-state maximum so the state-wise bound can be
certified. Replacement is structural: a pruned gate keeps its circuit
location but carries the reference's unitary. A post-pass merges runs of
identical adjacent gates inside a block into one compiled unitary and
reports the resulting gate-count reduction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace as dc_replace

import numpy as np

from .circuit import ROT, Circuit, Gate, compile_gate, apply_gate_sequence, rot_matrix, run, zyz_angles
from .linalg import as_ensemble, operator_norm, pure_trace_distance
from .qmetric import QGeometry, Tolerance, d_q, d_q_per_state, drift_rhs

MODES = ("reference_only", "pairwise_medoid")


@dataclass(frozen=True)
class SubgroupPartition:
    """Disjoint Rot-gate groups (one per qubit-layer block) with a reference each."""

    groups: tuple[tuple[int, ...], ...]
    reference: dict[int, int]


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
        doc = asdict(self)
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
        doc = asdict(self)
        del doc["trace_distances"], doc["obs_drifts"]
        return doc


#: slack added to the analytic side of certificate comparisons (float noise)
CERT_TOL = 1e-9


def _check_positional_ids(circuit: Circuit) -> None:
    # gate ids double as indices into circuit.gates throughout this module
    for pos, g in enumerate(circuit.gates):
        if g.id != pos:
            raise ValueError(
                f"gate ids must equal execution positions (gate {g.id} at position {pos})"
            )


def partition(circuit: Circuit) -> SubgroupPartition:
    """One group per (layer, qubit) block of Rot gates, reference = smallest id.

    Single-qubit rotation blocks are closed under composition and inversion
    by construction. CNOT gates are never pruning candidates.
    """
    _check_positional_ids(circuit)
    blocks: dict[tuple[int, int], list[int]] = {}
    for g in circuit.gates:
        if g.kind == ROT:
            blocks.setdefault((g.layer, g.qubit), []).append(g.id)
    if not blocks:
        raise ValueError("circuit has no rotation gates to partition")
    groups = []
    reference = {}
    for idx, key in enumerate(sorted(blocks)):
        ids = sorted(blocks[key])
        slots = sorted(circuit.gates[i].slot for i in ids)
        if slots != list(range(len(ids))):
            raise ValueError(f"block {key} has non-contiguous slots {slots}")
        groups.append(tuple(ids))
        reference[idx] = ids[0]
    return SubgroupPartition(groups=tuple(groups), reference=reference)


def _medoid(
    circuit: Circuit,
    group: tuple[int, ...],
    prefix: np.ndarray,
    geo: QGeometry,
) -> tuple[int, int]:
    """Gate minimizing summed d_q to the rest of the group; ties -> smallest id.

    Returns (gate id, number of pairwise evaluations performed).
    """
    mats = {gid: compile_gate(circuit.gates[gid]) for gid in group}
    wires = [circuit.gates[group[0]].qubit]
    sums = {gid: 0.0 for gid in group}
    count = 0
    ids = sorted(group)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            d = d_q(mats[a], mats[b], prefix, geo, wires=wires)
            sums[a] += d
            sums[b] += d
            count += 1
    best = min(ids, key=lambda gid: (sums[gid], gid))
    return best, count


def prune(
    circuit: Circuit,
    part: SubgroupPartition,
    ensemble,
    geo: QGeometry,
    tol: Tolerance,
    mode: str = "reference_only",
    max_replace_per_group: int | None = None,
) -> tuple[Circuit, PruneReport]:
    """One-shot redundancy pruning with structured replacement.

    Walks the circuit once, propagating the ensemble through the original
    gates; at each block it compares every non-reference member against the
    reference on the block-prefix ensemble and replaces it when the mean
    distance is within epsilon_q. `max_replace_per_group` optionally caps
    replacements per block (smallest distances first); the default replaces
    every qualifying gate.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (expected one of {MODES})")
    if max_replace_per_group is not None and max_replace_per_group < 1:
        raise ValueError(
            f"max_replace_per_group must be >= 1 when set, got {max_replace_per_group}"
        )
    _check_positional_ids(circuit)
    states = as_ensemble(ensemble, circuit.dim)
    if geo.dim != circuit.dim:
        raise ValueError(f"geometry dim {geo.dim} does not match circuit dim {circuit.dim}")

    group_of_first = {min(group): gi for gi, group in enumerate(part.groups)}
    eps = tol.epsilon_q

    new_angles: dict[int, tuple[float, float, float]] = {}
    dq_values: dict[int, float] = {}
    per_state_max: dict[int, float] = {}
    replaced: list[int] = []
    kept: list[int] = []
    comparisons = 0
    selection_comparisons = 0

    for g in circuit.gates:
        if g.id in group_of_first:
            gi = group_of_first[g.id]
            group = part.groups[gi]
            prefix = states
            if mode == "pairwise_medoid":
                ref_id, n_pairs = _medoid(circuit, group, prefix, geo)
                selection_comparisons += n_pairs
            else:
                ref_id = part.reference[gi]
                if ref_id not in group:
                    raise ValueError(f"reference {ref_id} not in group {group}")
            ref_gate = circuit.gates[ref_id]
            ref_mat = compile_gate(ref_gate)
            wires = [ref_gate.qubit]

            candidates: list[tuple[float, int, float]] = []
            for gid in group:
                if gid == ref_id:
                    continue
                terms = d_q_per_state(
                    ref_mat, compile_gate(circuit.gates[gid]), prefix, geo, wires=wires
                )
                d = float(np.mean(terms))
                comparisons += 1
                dq_values[gid] = d
                per_state_max[gid] = float(np.max(terms))
                if d <= eps:
                    candidates.append((d, gid, per_state_max[gid]))
                else:
                    kept.append(gid)
            candidates.sort(key=lambda t: (t[0], t[1]))
            cap = len(candidates) if max_replace_per_group is None else max_replace_per_group
            for d, gid, _ in candidates[:cap]:
                replaced.append(gid)
                new_angles[gid] = ref_gate.angles
            for d, gid, _ in candidates[cap:]:
                kept.append(gid)
            kept.append(ref_id)
        # prefixes for later blocks always come from the original circuit
        states = apply_gate_sequence(states, [g], circuit.n_qubits)

    pruned_gates = tuple(
        dc_replace(g, angles=new_angles[g.id]) if g.id in new_angles else g
        for g in circuit.gates
    )
    pruned = Circuit(n_qubits=circuit.n_qubits, depth=circuit.depth, gates=pruned_gates)

    L = len(replaced)
    n_rot = circuit.n_rot
    rhs_raw, rhs_clip = drift_rhs(L, eps, geo.M_q)
    violations = sum(1 for gid in replaced if dq_values[gid] > eps)
    merged, removed = merge_adjacent_duplicates(pruned)

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
        merged_gate_count=len(merged.gates),
        merged_removed=removed,
    )
    return pruned, report


def merge_adjacent_duplicates(circuit: Circuit) -> tuple[Circuit, int]:
    """Merge runs of identical adjacent Rot gates within a block into one gate.

    The merged gate carries the ZYZ angles of the run's matrix power, so the
    compressed circuit stays inside the native gate set and is exactly
    equivalent (products of det-1 rotations are det-1). Returns the merged
    circuit (ids renumbered) and the number of gates removed.
    """
    merged: list[Gate] = []
    i = 0
    gates = circuit.gates
    removed = 0
    while i < len(gates):
        g = gates[i]
        if g.kind != ROT:
            merged.append(g)
            i += 1
            continue
        j = i + 1
        while (
            j < len(gates)
            and gates[j].kind == ROT
            and gates[j].qubit == g.qubit
            and gates[j].layer == g.layer
            and gates[j].angles == g.angles
        ):
            j += 1
        run = j - i
        if run == 1:
            merged.append(g)
        else:
            mat = np.linalg.matrix_power(rot_matrix(*g.angles), run)
            merged.append(dc_replace(g, angles=zyz_angles(mat)))
            removed += run - 1
        i = j
    renumbered = tuple(dc_replace(g, id=k) for k, g in enumerate(merged))
    return Circuit(circuit.n_qubits, circuit.depth, renumbered), removed


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
    of the q used for the pruning decision.
    """
    if circuit.n_qubits != pruned.n_qubits or len(circuit.gates) != len(pruned.gates):
        raise ValueError("original and pruned circuits do not match the report")
    states = as_ensemble(ensemble, circuit.dim)

    out_a = run(circuit, states)
    out_b = run(pruned, states)
    tds = tuple(
        pure_trace_distance(out_a[k], out_b[k]) for k in range(states.shape[0])
    )
    ev_a = np.real(np.einsum("ki,ij,kj->k", np.conj(out_a), observable, out_a))
    ev_b = np.real(np.einsum("ki,ij,kj->k", np.conj(out_b), observable, out_b))
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
