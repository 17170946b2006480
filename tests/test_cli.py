import csv
import itertools
import json
import math
import struct
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import qiprune.cli as cli
import qiprune.verify as verify
from qiprune.cli import (
    CSV_COLUMNS,
    ConfigError,
    RunConfig,
    build_parser,
    main,
)
from qiprune.circuit import build_ansatz
from qiprune.pruner import MODES, certify, prune
from qiprune.qalgebra import DeformationParams
from qiprune.qmetric import calibrate_epsilon
from qiprune.tasks import evaluate_classifier, vqe_energy


@pytest.fixture
def no_training(monkeypatch):
    def refuse(config):
        raise AssertionError("a rejected config reached prepare_task")

    monkeypatch.setattr(cli, "prepare_task", refuse)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_synthetic_idx_tree(root, subdir, classes, n=40, seed=0):
    rng = np.random.default_rng(seed)
    d = root / subdir
    d.mkdir(parents=True)
    images = rng.integers(1, 255, size=(n, 28, 28), dtype=np.uint8)
    labels = np.array([classes[i % 2] for i in range(n)], dtype=np.uint8)
    (d / "t10k-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 2051, n, 28, 28) + images.tobytes()
    )
    (d / "t10k-labels-idx1-ubyte").write_bytes(struct.pack(">II", 2049, n) + labels.tobytes())


class TestRunConfig:
    def test_task_defaults(self):
        assert RunConfig(task="mnist49").n_qubits == 8
        assert RunConfig(task="bas").n_qubits == 4

    def test_lambda_and_q(self):
        cfg = RunConfig(task="bas")
        assert cfg.lam == pytest.approx(0.97)
        assert cfg.q == pytest.approx(math.exp(0.03))
        params = DeformationParams.from_noise(0.05, 0.6, 1.0)
        assert (cfg.lam, cfg.q) == (params.lam, params.q)

    def test_hash_excludes_paths(self):
        a = RunConfig(task="bas", out_dir="x")
        b = RunConfig(task="bas", out_dir="y")
        assert a.hash() == b.hash()
        c = RunConfig(task="bas", delta=0.02)
        assert a.hash() != c.hash()

    def test_validation(self):
        with pytest.raises(ConfigError, match="task"):
            RunConfig(task="nope")
        with pytest.raises(ConfigError, match="sigma"):
            RunConfig(task="bas", sigma=-1.0)
        with pytest.raises(ConfigError, match="delta"):
            RunConfig(task="bas", delta=0.0)

    @pytest.mark.parametrize(
        "knob,match",
        [
            ({"mode": "nope"}, "mode"),
            ({"epsilon_rule": "nope"}, "epsilon rule"),
            ({"max_replace_per_group": -2}, "max_replace_per_group"),
            ({"max_replace_per_group": 0}, "max_replace_per_group"),
            ({"max_replace_per_group": 2.5}, "max_replace_per_group"),
            ({"depth": 0}, "depth"),
            ({"M": 0}, "M must"),
            ({"seed": -1}, "seed must"),
            ({"train_epochs": -1}, "train_epochs must"),
            ({"vqe_iters": -3}, "vqe_iters must"),
            ({"train_batch": 0}, "train_batch must"),
            ({"train_batch": -4}, "train_batch must"),
            ({"max_train_samples": 0}, "max_train_samples must"),
        ],
        ids=[
            "mode", "epsilon_rule", "cap_negative", "cap_zero", "cap_fractional", "depth", "M", "seed_negative",
            "train_epochs_negative", "vqe_iters_negative", "train_batch_zero", "train_batch_negative",
            "max_train_samples_zero",
        ],
    )
    def test_out_of_range_knobs_rejected(self, knob, match):
        with pytest.raises(ConfigError, match=match):
            RunConfig(task="bas", **knob)

    @pytest.mark.parametrize(
        "flags",
        [["--train-epochs", "-1"], ["--vqe-iters", "-3"], ["--train-batch", "0"], ["--max-train-samples", "0"]],
        ids=["train_epochs", "vqe_iters", "train_batch", "max_train_samples"],
    )
    def test_out_of_range_training_knob_is_usage_error_before_training(self, flags, no_training, capsys):
        assert main(["prune", "--task", "bas", *flags]) == 2
        assert f"{flags[0][2:].replace('-', '_')} must be >= " in capsys.readouterr().err

    def test_zero_epochs_and_iterations_stay_valid(self):
        RunConfig(task="mnist49", train_epochs=0)
        RunConfig(task="tfim", vqe_iters=0)

    @pytest.mark.parametrize(
        "knob",
        [{"M": 2.5}, {"M": True}, {"depth": None}, {"task": 3}, {"sigma": "0.1"}],
        ids=["int_gets_float", "int_gets_bool", "int_gets_none", "str_gets_int", "float_gets_str"],
    )
    def test_wrong_value_types_rejected(self, knob):
        with pytest.raises(ConfigError, match=f"{next(iter(knob))} must be"):
            RunConfig(**{"task": "bas", **knob})

    def test_int_for_float_field_hashes_like_the_float(self):
        cfg = RunConfig(task="bas", sigma=0)
        assert type(cfg.sigma) is float
        assert cfg.hash() == RunConfig(task="bas", sigma=0.0).hash()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--task", "tfim", "--tfim-g", "nan", "--vqe-iters", "1"],
            ["--task", "tfim", "--tfim-g", "inf", "--vqe-iters", "1"],
            ["--task", "bas", "--train-lr", "nan", "--train-epochs", "1"],
            ["--task", "bas", "--train-lr=-inf", "--train-epochs", "1"],
        ],
        ids=["tfim_g_nan", "tfim_g_inf", "train_lr_nan", "train_lr_neg_inf"],
    )
    def test_non_finite_knob_is_usage_error_before_training(self, flags, no_training, capsys):
        assert main(["prune", "--depth", "1", *flags]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--gamma", "5"],
            ["--beta", "-1"],
            ["--beta", "1e5"],
            ["--depth", "1", "--gamma", "1", "--alpha", "1", "--beta", "700", "--train-epochs", "0"],
        ],
        ids=["lambda_negative", "beta_negative", "q_overflows", "weights_underflow"],
    )
    def test_bad_deformation_is_usage_error_before_training(self, flags, no_training, capsys):
        assert main(["prune", "--task", "bas", *flags]) == 2
        assert "deformation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--task", "bas", "--train-lr", "0"], "train_lr must be positive"),
            (["--task", "tfim", "--vqe-lr=-0.1"], "vqe_lr must be positive"),
        ],
        ids=["train_lr_zero", "vqe_lr_negative"],
    )
    def test_nonpositive_learning_rate_is_usage_error(self, flags, message, no_training, capsys):
        assert main(["prune", "--depth", "1", *flags]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n_qubits", ["0", "11", "16"])
    def test_out_of_range_n_qubits_is_usage_error_before_training(self, n_qubits, no_training, capsys):
        assert main(["prune", "--task", "tfim", "--depth", "1", "--n-qubits", n_qubits]) == 2
        assert f"n_qubits must be in 1..10, got {n_qubits}" in capsys.readouterr().err

    def test_hash_pinned(self):
        # every report records config_hash; it must not move when RunConfig code does
        assert RunConfig(task="bas").hash() == "b3bd703dd2ed9aaf"
        assert RunConfig(task="mnist49").hash() == "0b9b0872dcdc34b1"

    @pytest.mark.parametrize("command", ["prune", "sweep"])
    def test_one_flag_per_field(self, command):
        dests = vars(build_parser().parse_args([command]))
        assert {f.name for f in fields(RunConfig)} <= set(dests)


class TestPruneCommand:
    def test_bas_end_to_end(self, tmp_path, capsys):
        code = main(
            [
                "prune",
                "--task",
                "bas",
                "--delta",
                "0.01",
                "--sigma",
                "0.001",
                "--seed",
                "0",
                "--train-epochs",
                "1",
                "--train-lr",
                "0.1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        row_csv = tmp_path / "row_bas_d0.01_s0.001_seed0.csv"
        report_json = tmp_path / "report_bas_d0.01_s0.001_seed0.json"
        assert row_csv.exists() and report_json.exists()
        rows = read_rows(row_csv)
        assert len(rows) == 1
        assert tuple(rows[0].keys()) == CSV_COLUMNS
        doc = json.loads(report_json.read_text())
        assert doc["report"]["violations"] == 0
        assert doc["certificate"]["passed"] is True
        assert doc["config_hash"] == doc["report"]["config_hash"]
        assert "replace=" in capsys.readouterr().out

    def test_sigma_zero_gives_eighty_pct_and_zero_drift(self, tmp_path):
        code = main(
            [
                "prune",
                "--task",
                "bas",
                "--sigma",
                "0",
                "--train-epochs",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        row = read_rows(tmp_path / "row_bas_d0.01_s0.0_seed0.csv")[0]
        assert float(row["replace_pct"]) == 80.0
        assert float(row["metric_drop"]) == 0.0
        doc = json.loads((tmp_path / "report_bas_d0.01_s0.0_seed0.json").read_text())
        assert doc["certificate"]["max_trace_distance"] == 0.0

    def test_rerun_reproduces_bytes(self, tmp_path):
        args = [
            "prune",
            "--task",
            "bas",
            "--train-epochs",
            "1",
            "--out",
            str(tmp_path),
        ]
        assert main(args) == 0
        first = {
            p.name: p.read_bytes() for p in tmp_path.iterdir()
        }
        assert main(args) == 0
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert first == second

    def test_unknown_task_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["prune", "--task", "unknown"])
        assert exc.value.code == 2

    def test_missing_task_config_error(self, capsys):
        assert main(["prune"]) == 2
        assert "task is required" in capsys.readouterr().err

    def test_negative_cap_is_usage_error(self, tmp_path, capsys):
        args = ["prune", "--task", "bas", "--max-replace-per-group", "-2", "--out", str(tmp_path)]
        assert main(args) == 2
        assert "max_replace_per_group" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_data_dir_for_idx_task(self, capsys):
        assert main(["prune", "--task", "mnist49"]) == 2
        assert "data" in capsys.readouterr().err

    def test_config_file_wrong_type_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "bas", "depth": 1, "train_epochs": 0, "M": 2.5}))
        assert main(["prune", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "M must be int" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_csv_row_matches_report_json(self, tmp_path):
        args = ["prune", "--task", "bas", "--depth", "2", "--train-epochs", "0", "--out", str(tmp_path)]
        assert main(args) == 0
        row = read_rows(tmp_path / "row_bas_d0.01_s0.001_seed0.csv")[0]
        report = json.loads((tmp_path / "report_bas_d0.01_s0.001_seed0.json").read_text())["report"]
        assert {c: float(row[c]) for c in CSV_COLUMNS[3:]} == {c: report[c] for c in CSV_COLUMNS[3:]}

    @pytest.mark.parametrize("kind", ["directory", "list", "null"])
    def test_malformed_config_file_is_usage_error(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_text({"list": "[1, 2]", "null": "null"}[kind])
        assert main(["prune", "--task", "bas", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "bas", "sigma": 0.0, "train_epochs": 0}))
        code = main(
            ["prune", "--config", str(cfg), "--delta", "0.02", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out" / "row_bas_d0.02_s0.0_seed0.csv").exists()


class TestSweepCommand:
    def test_default_grid_matches_table_shape(self, tmp_path):
        code = main(
            ["sweep", "--task", "bas", "--train-epochs", "0", "--seeds", "0", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_rows(tmp_path / "results_bas_seed0.csv")
        # 2 deltas x 4 sigmas: the per-dataset shape of the published tables
        assert len(rows) == 8
        assert [r["delta"] for r in rows] == ["0.01"] * 4 + ["0.02"] * 4
        assert len(list(tmp_path.glob("report_bas_*.json"))) == 8

    def test_multi_seed_files(self, tmp_path):
        code = main(
            [
                "sweep",
                "--task",
                "bas",
                "--train-epochs",
                "0",
                "--deltas",
                "0.01",
                "--sigmas",
                "0.001,0.01",
                "--seeds",
                "0,1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "results_bas_seed0.csv").exists()
        assert (tmp_path / "results_bas_seed1.csv").exists()


    @pytest.mark.parametrize(
        "grid,match",
        [
            (["--deltas", "0.01,1.5"], "delta"),
            (["--sigmas", "nan"], "sigma must be finite"),
            (["--seeds", "0,-1"], "seed must"),
            (["--deltas", ""], "--deltas lists no values"),
            (["--sigmas", ""], "--sigmas lists no values"),
            (["--seeds", ""], "--seeds lists no values"),
        ],
        ids=["delta_out_of_range", "sigma_nan", "seed_negative", "no_deltas", "no_sigmas", "no_seeds"],
    )
    def test_bad_grid_is_usage_error_before_training(self, grid, match, tmp_path, no_training, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--task", "bas", "--depth", "2", *grid, "--out", str(out)]) == 2
        assert match in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_exit_zero_and_report(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--seed", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True

    def test_corrupted_fixture_exits_one_but_writes_report(self, tmp_path, monkeypatch):
        monkeypatch.setitem(verify.PUBLISHED_TABLES["bas"], "n_rot", 9999)
        out = tmp_path / "verify.json"
        assert main(["verify", "--seed", "0", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["passed"] is False


class TestReportCommand:
    def _sweep_csv(self, tmp_path):
        path = tmp_path / "results.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for delta in (0.01, 0.02):
                for sigma in (0.001, 0.01):
                    writer.writerow(
                        ["bas", delta, sigma, 64.0, 64.0, 0.0, 50.0, 1.2, 1.0, 0.004]
                    )
        return path

    def test_three_panels(self, tmp_path):
        path = self._sweep_csv(tmp_path)
        out = tmp_path / "panels"
        assert main(["report", str(path), "--out", str(out)]) == 0
        panels = sorted(p.name for p in out.iterdir())
        assert panels == ["panel_dq_max_repl.csv", "panel_metric_drop.csv", "panel_replace_pct.csv"]
        rows = read_rows(out / "panel_replace_pct.csv")
        assert len(rows) == 4

    def test_missing_column_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("dataset,delta\nbas,0.01\n")
        assert main(["report", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "missing columns" in capsys.readouterr().err

    def test_deterministic_bytes(self, tmp_path):
        path = self._sweep_csv(tmp_path)
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        main(["report", str(path), "--out", str(out1)])
        main(["report", str(path), "--out", str(out2)])
        for name in ("panel_replace_pct.csv", "panel_metric_drop.csv", "panel_dq_max_repl.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestDatasetCommand:
    def test_generate_bas(self, tmp_path):
        out = tmp_path / "bas.json"
        assert main(["dataset", "generate", "--task", "bas", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["name"] == "bas" and len(doc["samples"]) == 28

    def test_inspect_bas(self, capsys):
        assert main(["dataset", "inspect", "--task", "bas"]) == 0
        out = capsys.readouterr().out
        assert "28 samples" in out and "+1: 14" in out

    def test_inspect_idx_with_synthetic_tree(self, tmp_path, capsys):
        write_synthetic_idx_tree(tmp_path, "mnist", (4, 9))
        assert main(["dataset", "inspect", "--task", "mnist49", "--data-dir", str(tmp_path)]) == 0
        assert "40 samples" in capsys.readouterr().out

    def test_vqe_task_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["dataset", "inspect", "--task", "tfim"])
        assert exc.value.code == 2

    def test_generate_requires_out(self, capsys):
        assert main(["dataset", "generate", "--task", "bas"]) == 2
        assert "--out" in capsys.readouterr().err


def test_env_var_data_dir(tmp_path, monkeypatch, capsys):
    write_synthetic_idx_tree(tmp_path, "fashion", (5, 9))
    monkeypatch.setenv("QIPRUNE_DATA_DIR", str(tmp_path))
    assert main(["dataset", "inspect", "--task", "fashion_sb"]) == 0
    assert "40 samples" in capsys.readouterr().out


def test_task_context_and_grid_point_report_are_frozen():
    from dataclasses import FrozenInstanceError

    ctx = cli.prepare_task(RunConfig(task="bas", depth=1, M=4, train_epochs=0))
    with pytest.raises(FrozenInstanceError):
        ctx.metric_name = "other"
    report = cli.run_grid_point(ctx, 0.02, 0.003)["report"]
    assert report.metric_name == "accuracy_pct" and report.seed == 0
    with pytest.raises(FrozenInstanceError):
        report.seed = 1


@pytest.mark.parametrize(
    "task, overrides, form",
    [("bas", {"train_epochs": 0}, (16,)), ("tfim", {"vqe_iters": 2}, (16, 16))],
)
def test_grid_point_norms_the_prepared_observable_once(monkeypatch, task, overrides, form):
    # prepare_task fixes the task observable (the Z0 diagonal, or H / ||H||_op)
    # and checks and norms it once; a grid point reads the norm off the context
    from qiprune.linalg import operator_norm as norm
    from qiprune.pruner import observable_norm as checked_norm

    seen, checked = [], []

    def counted(op):
        seen.append(op)
        return norm(op)

    def counted_check(op, dim):
        checked.append(np.shape(op))
        return checked_norm(op, dim)

    # every package module that binds either, as perfbench's tracer finds them
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qiprune":
            for attr, original, wrapper in (("operator_norm", norm, counted), ("observable_norm", checked_norm, counted_check)):
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, wrapper)
    ctx = cli.prepare_task(RunConfig(task=task, depth=1, M=4, **overrides))
    assert ctx.observable.shape == form
    # tfim also norms H, to normalize it, before it norms H / ||H||_op
    assert sum(op is ctx.observable for op in seen) == 1 and checked == [form]
    seen.clear()
    checked.clear()
    result = cli.run_grid_point(ctx, 0.02, 0.003)
    assert seen == [] and checked == []
    assert result["certificate"].op_norm == ctx.op_norm == norm(ctx.observable)
    assert ctx.op_norm == pytest.approx(1.0, abs=1e-12)


def _composed_grid_point(ctx, delta, sigma):
    """A grid point as `prune` + `certify` + the task metric, each walking its
    own circuits over the full ensemble or the metric's inputs."""
    config = replace(ctx.config, delta=delta, sigma=sigma)
    baseline = build_ansatz(config.n_qubits, config.depth, centers=ctx.trained_centers, sigma=sigma, seed=config.seed)
    tol = calibrate_epsilon(delta, config.geometry, rule=config.epsilon_rule)
    pruned, report = prune(
        baseline, ctx.ensemble_states, config.geometry, tol, mode=config.mode,
        max_replace_per_group=config.max_replace_per_group,
    )
    if ctx.data is not None:
        metrics = [100.0 * evaluate_classifier(c, ctx.data) for c in (baseline, pruned)]
    else:
        metrics = [vqe_energy(c, ctx.observable) for c in (baseline, pruned)]
    return report, metrics, certify(report, baseline, pruned, ctx.ensemble_states, ctx.observable)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "task, overrides",
    [
        ("bas", {"depth": 2, "train_epochs": 1}),
        ("tfim", {"depth": 2, "vqe_iters": 3}),
        # 8 validation states drawn 12 times: the ensemble repeats states
        ("mnist49", {"depth": 1, "train_epochs": 0}),
    ],
)
def test_grid_point_equals_prune_certify_and_metric(tmp_path, task, overrides, mode):
    write_synthetic_idx_tree(tmp_path, "mnist", (4, 9))
    ctx = cli.prepare_task(RunConfig(task=task, M=12, mode=mode, data_dir=str(tmp_path), **overrides))
    for delta, sigma in itertools.product(cli.DEFAULT_DELTAS, (0.003, 0.01)):
        got = cli.run_grid_point(ctx, delta, sigma)
        report, metrics, cert = _composed_grid_point(ctx, delta, sigma)
        for name in ("replaced", "kept", "L", "dq_values", "comparisons", "violations"):
            assert getattr(got["report"], name) == getattr(report, name), name
        assert [got["report"].metric_base, got["report"].metric_pruned] == pytest.approx(metrics, abs=1e-12)
        got_cert, want_cert = got["certificate"].to_json_dict(), cert.to_json_dict()
        assert got_cert.keys() == want_cert.keys() and got_cert["passed"] == want_cert["passed"]
        for name, value in want_cert.items():
            assert got_cert[name] == pytest.approx(value, abs=1e-12), name


def test_grid_reports_do_not_depend_on_point_order(tmp_path, monkeypatch):
    # each sigma's baseline is walked and scored once, by whichever point
    # comes first; every point then walks only its pruned circuit
    import qiprune.circuit

    walk, calls = qiprune.circuit.block_walk, []

    def counted(*args, **kwargs):
        calls.append(1)
        return walk(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qiprune" and getattr(module, "block_walk", None) is walk:
            monkeypatch.setattr(module, "block_walk", counted)
    grid = list(itertools.product(cli.DEFAULT_DELTAS, cli.DEFAULT_SIGMAS))
    orders = {
        "delta_first": grid,
        "sigma_first": sorted(grid, key=lambda point: point[::-1]),
        "reversed": grid[::-1],
    }
    reports = {}
    for label, points in orders.items():
        ctx = cli.prepare_task(RunConfig(task="bas", depth=2, M=12, train_epochs=1))
        calls.clear()
        for delta, sigma in points:
            cli.write_report_json(tmp_path / label / f"{delta}_{sigma}.json", cli.run_grid_point(ctx, delta, sigma))
        assert len(calls) == len(cli.DEFAULT_SIGMAS) + len(grid) == 12
        reports[label] = {path.name: path.read_bytes() for path in (tmp_path / label).iterdir()}
    assert len(reports["delta_first"]) == len(grid)
    assert reports["delta_first"] == reports["sigma_first"] == reports["reversed"]


def _benchmark_workloads():
    # the benchmark's own fixture builder, imported as perfbench/tests does
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    return workloads


def _mnist49_point(work, seed, delta, sigma):
    workloads = _benchmark_workloads()
    config = workloads.make_inputs(workloads.WORKLOADS["grid-mnist49"], seed, work)
    return cli.run_grid_point(cli.prepare_task(config), delta, sigma)


@pytest.mark.parametrize(
    "seed",
    [
        # L = 1: trace distance 0.0163 against 0.0100, per-state max d 0.0041 <= eps 0.005
        pytest.param(4, marks=pytest.mark.xfail(
            strict=True, reason="members are scored on the block's entry states, not at their own site")),
        # L = 2: trace distance 0.0208 against 0.0200, per-state max d 0.0063 > eps 0.005
        pytest.param(19, marks=pytest.mark.xfail(
            strict=True, reason="decisions use the ensemble-mean d, the bound needs every per-state d")),
    ],
)
def test_benchmark_mnist49_certificate_at_delta_sigma_001(tmp_path, seed):
    assert _mnist49_point(tmp_path, seed, 0.01, 0.01)["certificate"].passed


def test_report_bytes_do_not_depend_on_the_data_path(tmp_path):
    paths = []
    for where in ("a", "b"):
        result = _mnist49_point(tmp_path / where, 0, 0.01, 0.001)
        paths.append(tmp_path / where / "report.json")
        cli.write_report_json(paths[-1], result)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    config = json.loads(paths[0].read_text())["config"]
    assert "data_dir" not in config and "out_dir" not in config
