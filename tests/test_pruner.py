import math

import numpy as np
import pytest

from oracles import circuit_unitary

from qiprune.circuit import CNOT, ROT, Circuit, Gate, build_ansatz, compile_gate, run
from qiprune.linalg import random_state
from qiprune.pruner import (
    certify,
    merge_adjacent_duplicates,
    partition,
    prune,
)
from qiprune.qmetric import Tolerance, build_geometry, calibrate_epsilon, d_q
from qiprune.tasks import z0_observable


def ensemble(n, m, seed):
    rng = np.random.default_rng(seed)
    return np.array([random_state(n, rng) for _ in range(m)])


class TestPartition:
    @pytest.mark.parametrize("n,depth,groups", [(8, 12, 96), (4, 12, 48)])
    def test_benchmark_group_counts(self, n, depth, groups):
        circ = build_ansatz(n, depth, sigma=0.001, seed=0)
        part = partition(circ)
        assert len(part.groups) == groups
        assert all(len(g) == 5 for g in part.groups)

    def test_members_share_qubit_and_layer(self):
        circ = build_ansatz(3, 2, sigma=0.01, seed=1)
        part = partition(circ)
        for group in part.groups:
            qubits = {circ.gates[i].qubit for i in group}
            layers = {circ.gates[i].layer for i in group}
            assert len(qubits) == 1 and len(layers) == 1

    def test_groups_disjoint_and_cover_rot_gates(self):
        circ = build_ansatz(2, 3, sigma=0.01, seed=2)
        part = partition(circ)
        seen = [i for g in part.groups for i in g]
        assert sorted(seen) == sorted(g.id for g in circ.rot_gates())
        assert len(seen) == len(set(seen))

    def test_default_reference_is_smallest_id(self):
        circ = build_ansatz(2, 2, sigma=0.01, seed=3)
        part = partition(circ)
        for gi, group in enumerate(part.groups):
            assert part.reference[gi] == min(group)

    def test_no_rot_gates_rejected(self):
        circ = Circuit(2, 1, (Gate(id=0, kind=CNOT, layer=0, slot=0, control=0, target=1),))
        with pytest.raises(ValueError, match="no rotation gates"):
            partition(circ)

    def test_non_positional_ids_rejected(self):
        gates = (
            Gate(id=5, kind=ROT, layer=0, slot=0, qubit=0, angles=(0.1, 0.2, 0.3)),
        )
        with pytest.raises(ValueError, match="positions"):
            partition(Circuit(1, 1, gates))


def _single_block_circuit(angle_sets):
    gates = tuple(
        Gate(id=i, kind=ROT, layer=0, slot=i, qubit=0, angles=tuple(a))
        for i, a in enumerate(angle_sets)
    )
    return Circuit(1, 1, gates)


class TestSelectReference:
    """Medoid reference choice through prune(mode="pairwise_medoid"); a
    tolerance of pi/2 bounds every d_q, so all non-medoid members are replaced."""

    @staticmethod
    def _prune_wide(circ, ens, geo):
        wide = Tolerance(delta=0.0, epsilon_q=math.pi / 2, rule="half_delta_rule")
        return prune(circ, partition(circ), ens, geo, wide, mode="pairwise_medoid")

    def test_duplicate_pair_wins(self):
        # two identical gates among three scattered ones: the duplicates'
        # summed distance is strictly smaller (oracle: brute-force table)
        angle_sets = [(0.3, 0.4, -0.2), (0.3, 0.4, -0.2), (2.0, 1.0, 0.5), (-1.5, 2.2, 0.8), (0.9, -2.0, 1.7)]
        circ = _single_block_circuit(angle_sets)
        geo = build_geometry(1, 1.0)
        ens = ensemble(1, 6, 1)
        sums = {}
        for i in range(5):
            sums[i] = sum(
                d_q(compile_gate(circ.gates[i]), compile_gate(circ.gates[j]), ens, geo, wires=[0])
                for j in range(5)
                if j != i
            )
        expected = min(sums, key=lambda k: (sums[k], k))
        assert expected == 0
        pruned, report = self._prune_wide(circ, ens, geo)
        assert all(g.angles == angle_sets[expected] for g in pruned.gates)
        assert report.replaced == (1, 2, 3, 4)

    def test_all_identical_tie_break(self):
        circ = _single_block_circuit([(0.5, 0.5, 0.5)] * 5)
        pruned, report = self._prune_wide(circ, ensemble(1, 4, 2), build_geometry(1, 1.0))
        assert all(g.angles == (0.5, 0.5, 0.5) for g in pruned.gates)
        assert report.replaced == (1, 2, 3, 4)


class TestPrune:
    def test_sigma_zero_replaces_four_fifths(self):
        circ = build_ansatz(2, 2, sigma=0.0, seed=4)
        geo = build_geometry(2, math.exp(0.03))
        ens = ensemble(2, 8, 4)
        tol = calibrate_epsilon(0.01, geo)
        pruned, report = prune(circ, partition(circ), ens, geo, tol)
        assert report.replace_pct == 80.0
        assert report.dq_max_replaced == 0.0
        assert report.violations == 0
        # replacement of identical gates is a no-op
        assert pruned == circ

    def test_sigma_zero_with_cap_three_gives_sixty_pct(self):
        circ = build_ansatz(2, 2, sigma=0.0, seed=5)
        geo = build_geometry(2, math.exp(0.03))
        tol = calibrate_epsilon(0.01, geo)
        _, report = prune(circ, partition(circ), ensemble(2, 6, 5), geo, tol, max_replace_per_group=3)
        assert report.replace_pct == 60.0

    def test_zero_epsilon_keeps_everything_distinct(self):
        circ = build_ansatz(2, 2, sigma=0.05, seed=6)
        geo = build_geometry(2, 1.0)
        tol = Tolerance(delta=0.0, epsilon_q=0.0, rule="half_delta_rule")
        pruned, report = prune(circ, partition(circ), ensemble(2, 6, 6), geo, tol)
        assert report.L == 0 and report.replaced == ()
        assert report.rhs_raw == 0.0 and report.rhs_clip == 0.0
        assert pruned == circ

    def test_completeness_and_kept_side(self):
        circ = build_ansatz(3, 2, sigma=0.02, seed=7)
        geo = build_geometry(3, math.exp(0.03))
        tol = calibrate_epsilon(0.01, geo)
        _, report = prune(circ, partition(circ), ensemble(3, 8, 7), geo, tol)
        assert report.violations == 0
        for gid in report.replaced:
            assert report.dq_values[gid] <= tol.epsilon_q
        part = partition(circ)
        references = set(part.reference.values())
        for gid in report.kept:
            if gid not in references:
                # uncapped run: every kept non-reference gate failed the test
                assert report.dq_values[gid] > tol.epsilon_q

    def test_comparison_counts(self):
        circ = build_ansatz(3, 2, sigma=0.01, seed=8)
        part = partition(circ)
        geo = build_geometry(3, 1.0)
        ens = ensemble(3, 5, 8)
        tol = calibrate_epsilon(0.01, geo)
        _, ref = prune(circ, part, ens, geo, tol, mode="reference_only")
        n_rot, r = circ.n_rot, len(part.groups)
        assert ref.comparisons == n_rot - r
        assert ref.selection_comparisons == 0
        _, med = prune(circ, part, ens, geo, tol, mode="pairwise_medoid")
        assert med.comparisons == n_rot - r
        assert med.selection_comparisons == sum(len(g) * (len(g) - 1) // 2 for g in part.groups)

    def test_determinism(self):
        circ = build_ansatz(2, 2, sigma=0.01, seed=9)
        geo = build_geometry(2, math.exp(0.03))
        ens = ensemble(2, 5, 9)
        tol = calibrate_epsilon(0.02, geo)
        out1 = prune(circ, partition(circ), ens, geo, tol)
        out2 = prune(circ, partition(circ), ens, geo, tol)
        assert out1 == out2

    def test_replaced_gates_carry_reference_angles(self):
        circ = build_ansatz(2, 1, sigma=0.001, seed=10)
        part = partition(circ)
        geo = build_geometry(2, 1.0)
        tol = calibrate_epsilon(0.02, geo)
        pruned, report = prune(circ, part, ensemble(2, 5, 10), geo, tol)
        ref_by_group = {gid: part.reference[gi] for gi, grp in enumerate(part.groups) for gid in grp}
        for gid in report.replaced:
            assert pruned.gates[gid].angles == circuit_gate_angles(circ, ref_by_group[gid])

    def test_mode_validation(self):
        circ = build_ansatz(2, 1, sigma=0.01, seed=11)
        geo = build_geometry(2, 1.0)
        with pytest.raises(ValueError, match="mode"):
            prune(circ, partition(circ), ensemble(2, 3, 11), geo, calibrate_epsilon(0.01, geo), mode="boom")

    @pytest.mark.parametrize("cap", [0, -2])
    def test_cap_validation(self, cap):
        circ = build_ansatz(2, 1, sigma=0.0, seed=11)
        geo = build_geometry(2, 1.0)
        tol = calibrate_epsilon(0.01, geo)
        with pytest.raises(ValueError, match="max_replace_per_group"):
            prune(circ, partition(circ), ensemble(2, 3, 11), geo, tol, max_replace_per_group=cap)

    def test_dimension_validation(self):
        circ = build_ansatz(2, 1, sigma=0.01, seed=12)
        geo = build_geometry(3, 1.0)
        with pytest.raises(ValueError, match="dim"):
            prune(circ, partition(circ), ensemble(2, 3, 12), geo, calibrate_epsilon(0.01, geo))


def circuit_gate_angles(circ, gid):
    return circ.gates[gid].angles


class TestMerge:
    def test_full_replacement_merges_blocks(self):
        circ = build_ansatz(2, 1, sigma=0.0, seed=13)
        geo = build_geometry(2, 1.0)
        tol = calibrate_epsilon(0.01, geo)
        pruned, report = prune(circ, partition(circ), ensemble(2, 4, 13), geo, tol)
        merged, removed = merge_adjacent_duplicates(pruned)
        # two blocks of five identical gates collapse to one gate each
        assert removed == 8
        assert report.merged_removed == 8
        assert report.merged_gate_count == len(pruned.gates) - 8
        psi = random_state(2, np.random.default_rng(13))
        np.testing.assert_allclose(run(merged, psi), run(pruned, psi), atol=1e-10)

    def test_partial_runs(self):
        angles_a, angles_b = (0.3, -0.4, 0.9), (1.2, 0.1, -0.7)
        circ = _single_block_circuit([angles_a, angles_a, angles_b, angles_a, angles_a])
        merged, removed = merge_adjacent_duplicates(circ)
        assert removed == 2
        assert [g.id for g in merged.gates] == [0, 1, 2]
        psi = random_state(1, np.random.default_rng(14))
        np.testing.assert_allclose(run(merged, psi), run(circ, psi), atol=1e-12)

    def test_no_duplicates_is_identity(self):
        circ = build_ansatz(2, 1, sigma=0.5, seed=15)
        merged, removed = merge_adjacent_duplicates(circ)
        assert removed == 0
        assert merged == circ


class TestCertify:
    def test_nothing_replaced_zero_drift(self):
        circ = build_ansatz(2, 2, sigma=0.05, seed=16)
        geo = build_geometry(2, 1.0)
        tol = Tolerance(delta=0.0, epsilon_q=0.0, rule="half_delta_rule")
        ens = ensemble(2, 5, 16)
        pruned, report = prune(circ, partition(circ), ens, geo, tol)
        cert = certify(report, circ, pruned, ens, z0_observable(2))
        assert cert.max_trace_distance == 0.0
        assert cert.max_obs_drift == 0.0
        assert cert.trace_bound == 0.0 and cert.obs_bound == 0.0
        assert cert.passed

    def test_sigma_zero_full_replacement_zero_drift(self):
        circ = build_ansatz(2, 2, sigma=0.0, seed=17)
        geo = build_geometry(2, 1.0)
        tol = calibrate_epsilon(0.01, geo)
        ens = ensemble(2, 5, 17)
        pruned, report = prune(circ, partition(circ), ens, geo, tol)
        cert = certify(report, circ, pruned, ens, z0_observable(2))
        assert cert.max_trace_distance == 0.0
        assert cert.passed

    def test_small_instance_against_full_unitary_oracle(self):
        # n = 2, depth = 2: build both circuits' full 4x4 unitaries
        # independently and compare every ensemble output entrywise
        circ = build_ansatz(2, 2, sigma=0.01, seed=18)
        geo = build_geometry(2, math.exp(0.03))
        tol = calibrate_epsilon(0.02, geo)
        ens = ensemble(2, 6, 18)
        pruned, report = prune(circ, partition(circ), ens, geo, tol)
        assert report.L > 0
        u_orig = circuit_unitary(circ, compile_gate)
        u_pruned = circuit_unitary(pruned, compile_gate)
        for psi in ens:
            np.testing.assert_allclose(run(circ, psi), u_orig @ psi, atol=1e-10)
            np.testing.assert_allclose(run(pruned, psi), u_pruned @ psi, atol=1e-10)
        cert = certify(report, circ, pruned, ens, z0_observable(2))
        assert cert.passed
        assert cert.max_trace_distance <= cert.trace_bound + 1e-9

    def test_single_replacement_per_step_bound(self):
        # replacing one gate changes each output by at most 2 sin(eps_state),
        # with eps_state measured at the replacement site (q = 1 premise)
        from dataclasses import replace as dc_replace

        from qiprune.circuit import prefix_states
        from qiprune.linalg import pure_trace_distance
        from qiprune.qmetric import d_q_per_state

        circ = build_ansatz(2, 2, sigma=0.02, seed=22)
        geo = build_geometry(2, 1.0)
        ens = ensemble(2, 6, 22)
        part = partition(circ)
        group = part.groups[1]
        ref_gate = circ.gates[part.reference[1]]
        target = circ.gates[group[2]]
        site_prefix = prefix_states(circ, ens, target.id)
        terms = d_q_per_state(
            compile_gate(ref_gate), compile_gate(target), site_prefix, geo, wires=[target.qubit]
        )
        gates = list(circ.gates)
        gates[target.id] = dc_replace(target, angles=ref_gate.angles)
        replaced = Circuit(2, 2, tuple(gates))
        for k in range(len(ens)):
            td = pure_trace_distance(run(circ, ens[k]), run(replaced, ens[k]))
            assert td <= 2.0 * math.sin(float(np.max(terms))) + 1e-9
            assert td <= 2.0 * math.sin(terms[k]) + 1e-9

    def test_bounds_hold_on_random_runs(self):
        rng = np.random.default_rng(19)
        for trial in range(10):
            n = int(rng.integers(2, 4))
            sigma = float(rng.choice([0.001, 0.01, 0.05]))
            circ = build_ansatz(n, 2, sigma=sigma, seed=trial)
            geo = build_geometry(n, math.exp(0.03))
            tol = calibrate_epsilon(float(rng.uniform(0.005, 0.05)), geo)
            ens = ensemble(n, 6, 100 + trial)
            pruned, report = prune(circ, partition(circ), ens, geo, tol)
            cert = certify(report, circ, pruned, ens, z0_observable(n))
            assert cert.max_trace_distance <= cert.trace_bound + 1e-9
            assert cert.max_obs_drift <= cert.obs_bound + 1e-9

    def test_mismatched_circuits_rejected(self):
        circ = build_ansatz(2, 1, sigma=0.01, seed=20)
        geo = build_geometry(2, 1.0)
        tol = calibrate_epsilon(0.01, geo)
        ens = ensemble(2, 3, 20)
        pruned, report = prune(circ, partition(circ), ens, geo, tol)
        other = build_ansatz(3, 1, sigma=0.01, seed=20)
        with pytest.raises(ValueError, match="do not match"):
            certify(report, other, pruned, ens, z0_observable(3))


def test_report_json_dict_round_trips_through_json():
    import json

    circ = build_ansatz(2, 1, sigma=0.01, seed=21)
    geo = build_geometry(2, 1.0)
    tol = calibrate_epsilon(0.01, geo)
    _, report = prune(circ, partition(circ), ensemble(2, 4, 21), geo, tol)
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["L"] == report.L
    assert doc["replace_pct"] == report.replace_pct
    assert set(doc) >= {"metric_base", "metric_pruned", "metric_drop", "replace_pct", "rhs_raw", "rhs_clip", "dq_max_repl"}


REPORT_KEYS = {
    "kept", "replaced", "L", "replace_pct", "dq_values", "dq_max_repl",
    "dq_per_state_max_repl", "epsilon_q", "M_q", "rhs_raw", "rhs_clip", "comparisons",
    "selection_comparisons", "violations", "n_rot", "mode", "merged_gate_count",
    "merged_removed", "metric_name", "metric_base", "metric_pruned", "metric_drop", "seed",
    "config_hash",
}
CERTIFICATE_KEYS = {
    "trace_bound", "obs_bound", "max_trace_distance", "max_obs_drift", "slack_trace",
    "slack_obs", "op_norm", "L", "epsilon_q", "passed",
}


def test_record_schemas_pinned():
    # report files are byte-compared across runs; a renamed or added field must show here
    circ = build_ansatz(2, 1, sigma=0.01, seed=22)
    geo = build_geometry(2, 1.0)
    ens = ensemble(2, 4, 22)
    pruned, report = prune(circ, partition(circ), ens, geo, calibrate_epsilon(0.01, geo))
    doc = report.to_json_dict()
    assert len(REPORT_KEYS) == 24 and set(doc) == REPORT_KEYS
    assert doc["dq_values"] and all(isinstance(k, str) for k in doc["dq_values"])
    assert doc["dq_max_repl"] == report.dq_max_replaced
    cert = certify(report, circ, pruned, ens, z0_observable(2))
    assert len(CERTIFICATE_KEYS) == 10 and set(cert.to_json_dict()) == CERTIFICATE_KEYS
