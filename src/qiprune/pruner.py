"""One-shot structured pruning: block partition, reference choice, replacement.

Blocks are those of the ansatz layout in `circuit`, and a `Circuit` is its
member-angle array, so `partition` only names each block's gate ids.
`prune` is `decide` on a `score`. `score` makes one `circuit.block_walk`
over the original circuit's `block_products`; it stores each block's prefix
ensemble (the states entering the block in the original circuit) as its
`qmetric.reduced_matrices`, one (n_qubits, depth, M, 2, 2) array. Two
`qmetric.reduced_distances` calls over that array then give the score
table: the reference slots (n_qubits, depth) and, per member, the
ensemble-mean and per-state max d_q against its block's reference, each
(n_qubits, depth, 5). The walk may carry more states than the ensemble
(`rows` picks the ensemble's), and its final states are the circuit's
outputs, kept in the `Score`. `decide` is array code over the table for
one tolerance; it uses the mean, and the per-state max is reported so the
state-wise bound can be certified. A score serves every delta.
Replacement is structural: a pruned member keeps its place but takes the
reference's angles. `certify_outputs` computes the certificate from both
circuits' outputs; `certify` runs both circuits with `circuit.run_fused`
(one product per block, exact) and calls it. The reported merged gate
count joins only runs of identical adjacent members (the count that
`merge_adjacent_duplicates` gives on `Circuit.gates`), so it never drops
below the one Rot per block that lossless fusion leaves without pruning
anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .circuit import (
    BLOCK_SIZE,
    ROT,
    Circuit,
    Gate,
    _layout,
    block_products,
    block_walk,
    rot_matrix,
    run_fused,
    zyz_angles,
)
from .linalg import ATOL, as_ensemble, expectation, operator_norm, pure_trace_distance
from .qmetric import QGeometry, Tolerance, drift_rhs, reduced_distances, reduced_matrices

MODES = ("reference_only", "pairwise_medoid")


@dataclass(frozen=True)
class PruneReport:
    kept: tuple[int, ...]
    replaced: tuple[int, ...]
    L: int
    replace_pct: float
    dq_values: dict[int, float]
    dq_max_repl: float
    dq_per_state_max_repl: float
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
        """Every field, with str keys for dq_values."""
        doc = dict(vars(self))
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
    """One group of Rot-gate ids per (layer, qubit) block, in execution order.

    A group's first id is its default reference. Single-qubit rotation
    blocks are closed under composition and inversion by construction. CNOT
    gates are never pruning candidates. Ids are positions in `Circuit.gates`.
    """
    # a block's BLOCK_SIZE Rot entries are adjacent in the layout
    rot_ids = [gid for gid, entry in enumerate(_layout(circuit.n_qubits, circuit.depth)) if entry[0] == ROT]
    return tuple(tuple(rot_ids[i : i + BLOCK_SIZE]) for i in range(0, len(rot_ids), BLOCK_SIZE))


@dataclass(frozen=True, eq=False)
class Score:
    """A circuit's score table over one ensemble, and its outputs.

    `ref` holds each block's reference slot (n_qubits, depth); `mean` and
    `worst` the ensemble-mean and per-state max d_q of every member against
    its block's reference (n_qubits, depth, BLOCK_SIZE). `outputs` are the
    circuit's outputs of the walked states, one row each. Only `decide`'s
    tolerance and cap are left to choose, so one score serves every delta.
    """

    circuit: Circuit
    mode: str
    M_q: float
    ref: np.ndarray
    mean: np.ndarray
    worst: np.ndarray
    outputs: np.ndarray


def score(circuit: Circuit, states, geo: QGeometry, mode: str = "reference_only", rows=None) -> Score:
    """Score every block of `circuit` on the ensemble `states[rows]` (all of
    `states` when `rows` is None) in one walk over `states`.

    Validates `states` once. One `block_walk` over the circuit's
    `block_products` stores each block's reduced matrices of the ensemble
    rows, and the score table (see the module docstring) compares each
    block's reference (its first member, or its medoid in "pairwise_medoid"
    mode) with the whole block, all blocks in one array call. The walk's
    final states are the outputs of every row, so a caller that walks the
    ensemble together with other inputs gets their outputs as well.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (expected one of {MODES})")
    states = as_ensemble(states, circuit.dim)
    if geo.dim != circuit.dim:
        raise ValueError(f"geometry dim {geo.dim} does not match circuit dim {circuit.dim}")
    rows = np.arange(len(states)) if rows is None else np.asarray(rows, dtype=int)
    members = circuit.members

    # every member compiled in one call, for the comparisons and the walk alike
    mats = rot_matrix(*np.moveaxis(members, -1, 0))
    R = np.empty(members.shape[:2] + (len(rows), 2, 2), dtype=complex)

    def store(qubit: int, layer: int, prefix: np.ndarray) -> None:
        # one matrix per walked state, then one per ensemble row (repeats share it)
        R[qubit, layer] = reduced_matrices(prefix, geo, qubit)[rows]

    # prefixes for later blocks always come from the original circuit
    outputs = block_walk(block_products(mats), states, store)

    ref = np.zeros(members.shape[:2], dtype=int)
    if mode == "pairwise_medoid":
        # each pair once, earlier slot first; the medoid minimizes the summed
        # distance to the rest of the block, ties to the smallest slot
        table = reduced_distances(R[:, :, None, None], mats[:, :, :, None], mats[:, :, None])
        pair = np.triu(table.mean(axis=-1), 1)
        ref = np.argmin((pair + pair.swapaxes(-1, -2)).sum(axis=-1), axis=-1)
    # the reference's own row is an exact 0
    table = reduced_distances(R[:, :, None], np.take_along_axis(mats, ref[:, :, None, None, None], axis=2), mats)
    arrays = ref, table.mean(axis=-1), table.max(axis=-1), outputs
    for arr in arrays:
        arr.setflags(write=False)
    return Score(circuit, mode, geo.M_q, *arrays)


def decide(scored: Score, tol: Tolerance, max_replace_per_group: int | None = None) -> tuple[Circuit, PruneReport]:
    """Replace every non-reference member whose mean distance is within
    epsilon_q; `max_replace_per_group` (an int >= 1) caps replacements per
    block, smallest (distance, slot) first, and the default replaces every
    qualifying gate. Array code over the score table; no state is touched."""
    cap = max_replace_per_group
    if cap is not None and (isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1):
        raise ValueError(f"max_replace_per_group must be an int >= 1 when set, got {cap!r}")
    circuit, ref, mean = scored.circuit, scored.ref, scored.mean
    members = circuit.members
    eps = tol.epsilon_q
    ids = np.array(partition(circuit)).reshape(circuit.depth, circuit.n_qubits, BLOCK_SIZE).swapaxes(0, 1)
    scored_slots = np.arange(BLOCK_SIZE) != ref[..., None]
    within = scored_slots & (mean <= eps)
    # rank candidates by (distance, slot): a stable sort keeps slot order on ties
    rank = np.argsort(np.argsort(np.where(within, mean, np.inf), axis=-1, kind="stable"), axis=-1)
    replace = within & (rank < (BLOCK_SIZE if cap is None else cap))
    ref_members = np.take_along_axis(members, ref[:, :, None, None], axis=2)
    pruned_members = np.where(replace[..., None], ref_members, members)

    L = int(replace.sum())
    rhs_raw, rhs_clip = drift_rhs(L, eps, scored.M_q)
    # merge_adjacent_duplicates(pruned.gates)[1]: equal adjacent members of a block
    removed = int(np.all(pruned_members[:, :, 1:] == pruned_members[:, :, :-1], axis=-1).sum())
    dq_values = dict(sorted(zip(ids[scored_slots].tolist(), mean[scored_slots].tolist())))

    report = PruneReport(
        kept=tuple(sorted(ids[~replace].tolist())),
        replaced=tuple(sorted(ids[replace].tolist())),
        L=L,
        replace_pct=100.0 * L / circuit.n_rot,
        dq_values=dq_values,
        dq_max_repl=float(mean[replace].max(initial=0.0)),
        dq_per_state_max_repl=float(scored.worst[replace].max(initial=0.0)),
        epsilon_q=eps,
        M_q=scored.M_q,
        rhs_raw=rhs_raw,
        rhs_clip=rhs_clip,
        # one comparison with the reference per scored member
        comparisons=len(dq_values),
        selection_comparisons=ref.size * BLOCK_SIZE * (BLOCK_SIZE - 1) // 2 if scored.mode == "pairwise_medoid" else 0,
        violations=int((mean[replace] > eps).sum()),
        n_rot=circuit.n_rot,
        mode=scored.mode,
        merged_gate_count=len(_layout(circuit.n_qubits, circuit.depth)) - removed,
        merged_removed=removed,
    )
    return Circuit(pruned_members), report


def prune(
    circuit: Circuit,
    ensemble,
    geo: QGeometry,
    tol: Tolerance,
    mode: str = "reference_only",
    max_replace_per_group: int | None = None,
) -> tuple[Circuit, PruneReport]:
    """One-shot redundancy pruning with structured replacement: `decide` on
    the `score` of the circuit over the ensemble."""
    return decide(score(circuit, ensemble, geo, mode), tol, max_replace_per_group)


def merge_adjacent_duplicates(gates) -> tuple[tuple[Gate, ...], int]:
    """The gate sequence with each run of identical adjacent Rot gates on one
    wire and layer joined into one Rot carrying the `zyz_angles` of the run's
    product (lossless), and the number of gates removed. Other gates are
    kept; ids are renumbered. Takes any gate sequence, such as
    `Circuit.gates`; run the result with `circuit.apply_gate_sequence`."""
    merged: list[Gate] = []
    runs = groupby(
        enumerate(gates),
        key=lambda pg: (pg[1].qubit, pg[1].layer, pg[1].angles) if pg[1].kind == ROT else pg[0],
    )
    for _, run in runs:
        (_, g), *rest = run
        angles = g.angles
        if rest:
            mat = prod = rot_matrix(*angles)
            for _ in rest:
                prod = mat @ prod
            angles = zyz_angles(prod)
        merged.append(Gate(len(merged), g.kind, g.layer, g.slot, g.qubit, angles, g.control, g.target))
    return tuple(merged), len(gates) - len(merged)


def observable_norm(observable, dim: int) -> float:
    """||O||_op of an observable of dimension `dim`. Raises ValueError unless
    `observable` is a finite Hermitian (within ATOL) matrix of that
    dimension, or the real (within ATOL) diagonal of one as a 1-D array."""
    observable = np.asarray(observable)
    if observable.shape not in ((dim,), (dim, dim)):
        raise ValueError(f"observable shape {observable.shape} is neither ({dim},) nor ({dim}, {dim})")
    if not np.all(np.isfinite(observable)):
        raise ValueError("observable has non-finite entries")
    adjoint = observable.conj().T
    # exact equality first: it is several times cheaper than the difference
    if not np.array_equal(observable, adjoint):
        asymmetry = float(np.max(np.abs(observable - adjoint)))
        if asymmetry > ATOL:
            raise ValueError(f"observable is not Hermitian (max |O - O^dag| = {asymmetry:.3g})")
    return operator_norm(observable)


def certify(
    report: PruneReport,
    circuit: Circuit,
    pruned: Circuit,
    ensemble,
    observable: np.ndarray,
) -> CertificateRecord:
    """Empirical per-state drift between original and pruned outputs vs bounds.

    Runs both circuits over the ensemble with `run_fused` (one product
    matrix per block), which is exact, so the certificate describes the
    circuits as given, and compares the outputs with `certify_outputs`.
    Raises ValueError for an ensemble `linalg.as_ensemble` rejects and for
    an observable `observable_norm` rejects.
    """
    if circuit.members.shape != pruned.members.shape:
        raise ValueError("original and pruned circuits do not match the report")
    states = as_ensemble(ensemble, circuit.dim)
    op_norm = observable_norm(observable, circuit.dim)
    return certify_outputs(report, run_fused(circuit, states), run_fused(pruned, states), observable, op_norm)


def certify_outputs(
    report: PruneReport,
    out_a: np.ndarray,
    out_b: np.ndarray,
    observable: np.ndarray,
    op_norm: float,
) -> CertificateRecord:
    """The certificate from the original and pruned circuits' outputs of the
    same ensemble, one state per row, for an observable of norm `op_norm`.

    Trace-distance bound: min(2, 2 L sin(eps)/M_q); observable bound:
    ||O||_op * (2L/M_q) sin(eps). The raw bound is never asserted to stay
    below 1; slack records how loose the certificate is. Empirical values
    use the standard inner product (the bound's airtight regime) regardless
    of the q used for the pruning decision. Nothing is validated here:
    `certify` is the checked entry point.
    """
    tds = tuple(float(x) for x in pure_trace_distance(out_a, out_b))
    drifts = tuple(float(x) for x in np.abs(expectation(out_a, observable) - expectation(out_b, observable)))

    trace_bound = min(2.0, report.rhs_raw)
    obs_bound = op_norm * report.rhs_raw
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
        op_norm=op_norm,
        L=report.L,
        epsilon_q=report.epsilon_q,
        passed=passed,
    )
