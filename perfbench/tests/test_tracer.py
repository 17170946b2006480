"""Tracer hygiene: wrappers reach by-value imports, leave no trace, self time is exact."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import qiprune  # noqa: E402
from qiprune import circuit, linalg, qmetric, tasks  # noqa: E402

import run  # noqa: E402
from tracer import SPAN_ATTR, Tracer, self_times, traced_bindings  # noqa: E402


def test_self_time_on_hand_built_tree():
    # root [0, 10] with children a [1, 4], b [3, 6] (overlapping a) and c [8, 12]
    # (clipped to the root's end); a has one child g [2, 3]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    own = self_times(starts, ends, parents)
    assert own == pytest.approx([10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 4.0, 1.0])


def test_wrappers_reach_every_by_value_import():
    original = linalg.apply_matrix
    circ = circuit.build_ansatz(2, 1, sigma=0.0, seed=0)
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (linalg, circuit, qmetric, tasks):
            assert getattr(mod.apply_matrix, SPAN_ATTR) == "linalg.apply_matrix"
        assert getattr(qiprune.run, SPAN_ATTR) == "circuit.run"
        circuit.run(circ, state)
    finally:
        tracer.uninstall()
    assert traced_bindings() == []
    assert circuit.apply_matrix is original and tasks.apply_matrix is original

    spans = tracer.spans()
    names = [s[0] for s in spans]
    run_idx = names.index("circuit.run")
    kernel = [s for s in spans if s[0] == "linalg.apply_matrix"]
    assert len(kernel) == len(circ.gates)
    summary = tracer.summary()
    assert summary["linalg.apply_matrix"]["calls"] == len(circ.gates)
    assert summary["circuit.compile_gate"]["calls"] == len(circ.gates)
    # every kernel call sits under apply_gate_sequence, which sits under run
    seq_idx = names.index("circuit.apply_gate_sequence")
    assert spans[seq_idx][3] == run_idx
    assert all(s[3] == seq_idx for s in kernel)
    # run is the only root, so the self times of all spans add up to its duration
    assert [s[3] for s in spans].count(-1) == 1
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    assert sum(own) == pytest.approx(spans[run_idx][2] - spans[run_idx][1])


def test_uninstall_after_an_exception():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            linalg.apply_matrix(np.zeros((1, 4), dtype=complex), np.eye(4), [0], 2)
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert traced_bindings() == []
    assert tracer.summary()["linalg.apply_matrix"]["calls"] == 1


def test_benchmark_json_lists_the_emitted_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
