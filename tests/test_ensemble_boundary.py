"""Every public entry point that takes a task ensemble validates it with
linalg.as_ensemble: the drift bounds hold only for finite unit-norm states."""

import numpy as np
import pytest

from qiprune.circuit import build_ansatz, compile_gate, prefix_states
from qiprune.linalg import ATOL, as_ensemble, random_state
from qiprune.pruner import certify, partition, prune
from qiprune.qmetric import build_geometry, calibrate_epsilon, d_q_per_state
from qiprune.tasks import build_ensemble, z0_observable


def good_ensemble():
    rng = np.random.default_rng(0)
    return np.array([random_state(2, rng) for _ in range(4)])


def scaled():
    return 10.0 * good_ensemble()


def one_nan():
    ens = good_ensemble()
    ens[1, 0] = np.nan
    return ens


def one_zero():
    ens = good_ensemble()
    ens[2] = 0.0
    return ens


def call_prune(ens):
    circ = build_ansatz(2, 1, sigma=0.01, seed=0)
    geo = build_geometry(2, 1.0)
    prune(circ, partition(circ), ens, geo, calibrate_epsilon(0.01, geo))


def call_certify(ens):
    circ = build_ansatz(2, 1, sigma=0.01, seed=0)
    geo = build_geometry(2, 1.0)
    pruned, report = prune(circ, partition(circ), good_ensemble(), geo, calibrate_epsilon(0.01, geo))
    certify(report, circ, pruned, ens, z0_observable(2))


def call_d_q_per_state(ens):
    circ = build_ansatz(2, 1, sigma=0.01, seed=0)
    u, v = compile_gate(circ.gates[0]), compile_gate(circ.gates[1])
    d_q_per_state(u, v, ens, build_geometry(2, 1.0), wires=[0])


def call_prefix_states(ens):
    prefix_states(build_ansatz(2, 1, sigma=0.01, seed=0), ens, 3)


def call_build_ensemble(ens):
    build_ensemble(ens, M=3, seed=0)


@pytest.mark.parametrize("bad", [scaled, one_nan, one_zero])
@pytest.mark.parametrize(
    "entry", [call_prune, call_certify, call_d_q_per_state, call_prefix_states, call_build_ensemble]
)
def test_entry_points_reject_invalid_states(entry, bad):
    with pytest.raises(ValueError, match="finite and unit-norm"):
        entry(bad())


class TestAsEnsemble:
    def test_single_state_becomes_batch_of_one(self):
        psi = good_ensemble()[0]
        out = as_ensemble(psi, 4)
        assert out.shape == (1, 4)
        np.testing.assert_array_equal(out[0], psi)

    def test_valid_batch_passes_unchanged(self):
        ens = good_ensemble()
        assert as_ensemble(ens, 4) is ens

    def test_norm_tolerance_is_atol(self):
        ens = good_ensemble()
        as_ensemble(ens * (1.0 + ATOL / 2), 4)
        with pytest.raises(ValueError, match="unit-norm"):
            as_ensemble(ens * (1.0 + 10 * ATOL), 4)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="nonempty"):
            as_ensemble(np.zeros((0, 4)), 4)
        with pytest.raises(ValueError, match="nonempty"):
            as_ensemble(np.zeros((2, 2, 4)), 4)
        with pytest.raises(ValueError, match="dimension"):
            as_ensemble(good_ensemble(), 8)
