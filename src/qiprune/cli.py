"""Command-line pipeline: train a baseline, prune it, certify, emit tables.

Subcommands: prune, sweep, verify, report, dataset. Every run is fully
determined by a RunConfig (JSON file and/or flags); the config hash is
recorded in all outputs and re-running a config reproduces them
byte-identically. Exit codes: 0 ok, 1 verification failure, 2 usage or
config error.

`prepare_task` trains the baseline once per seed and fixes the task's
inputs, the ensemble's pool together with the metric's inputs, with the
rows of the ensemble and of the metric in them, and the observable with
its checked norm. A grid point makes one `circuit.block_walk` per circuit
over those inputs. The baseline at each sigma is walked and scored once
(`pruner.score`, memoised on the context), since only the decision
depends on delta; each point then runs `pruner.decide`, walks its pruned
circuit, and reads the metric and `pruner.certify_outputs` off both
circuits' outputs by row. A 2x4 sweep makes 12 walks: 4 baselines and 8
pruned circuits.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace as dc_replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .circuit import block_centers, build_ansatz, run_fused
from .linalg import MAX_QUBITS, expectation, operator_norm
from .pruner import MODES, Score, certify_outputs, decide, observable_norm, score
from .qalgebra import DeformationParams
from .qmetric import EPSILON_RULES, QGeometry, build_geometry, calibrate_epsilon
from .tasks import (
    EncodedDataset,
    accuracy,
    build_ensemble,
    build_tfim,
    dataset_to_json,
    generate_bas,
    load_idx,
    run_vqe,
    train_classifier,
    z0_observable,
    zero_state,
)
from .verify import check_all, regress_tables, results_to_json

ENV_DATA_DIR = "QIPRUNE_DATA_DIR"

CSV_COLUMNS = (
    "dataset",
    "delta",
    "sigma",
    "metric_base",
    "metric_pruned",
    "metric_drop",
    "replace_pct",
    "rhs_raw",
    "rhs_clip",
    "dq_max_repl",
)

DEFAULT_DELTAS = (0.01, 0.02)
DEFAULT_SIGMAS = (0.001, 0.003, 0.006, 0.01)

TASK_INFO = {
    "mnist49": {"n_qubits": 8, "kind": "classification", "keep_labels": (4, 9), "subdir": "mnist"},
    "fashion_sb": {"n_qubits": 8, "kind": "classification", "keep_labels": (5, 9), "subdir": "fashion"},
    "bas": {"n_qubits": 4, "kind": "classification"},
    "tfim": {"n_qubits": 4, "kind": "vqe"},
}
CLASSIFICATION_TASKS = tuple(sorted(t for t, info in TASK_INFO.items() if info["kind"] == "classification"))


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    task: str
    delta: float = 0.01
    sigma: float = 0.001
    n_qubits: int | None = None
    depth: int = 12
    gamma: float = 0.05
    alpha: float = 0.6
    beta: float = 1.0
    M: int = 50
    seed: int = 0
    epsilon_rule: str = "half_delta_rule"
    mode: str = "reference_only"
    max_replace_per_group: int | None = None
    data_dir: str | None = None
    out_dir: str = "runs"
    train_epochs: int = 10
    train_lr: float = 0.5
    train_batch: int | None = None
    max_train_samples: int | None = 512
    vqe_iters: int = 40
    vqe_lr: float = 0.1
    tfim_j: float = 1.0
    tfim_g: float = 1.0

    def __post_init__(self) -> None:
        for name, (kind, optional) in FIELD_KINDS.items():
            value = getattr(self, name)
            if value is None and optional:
                continue
            if kind is float and type(value) is int:
                value = float(value)
                object.__setattr__(self, name, value)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.task not in TASK_INFO:
            raise ConfigError(f"unknown task {self.task!r} (expected one of {sorted(TASK_INFO)})")
        if self.sigma < 0.0:
            raise ConfigError(f"sigma must be nonnegative, got {self.sigma}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
        for name in ("train_lr", "vqe_lr"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name, low in (
            ("depth", 1), ("M", 1), ("max_replace_per_group", 1), ("train_batch", 1),
            ("max_train_samples", 1), ("seed", 0), ("train_epochs", 0), ("vqe_iters", 0),
        ):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if self.epsilon_rule not in EPSILON_RULES:
            raise ConfigError(
                f"unknown epsilon rule {self.epsilon_rule!r} (expected one of {EPSILON_RULES})"
            )
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r} (expected one of {MODES})")
        if self.n_qubits is None:
            object.__setattr__(self, "n_qubits", TASK_INFO[self.task]["n_qubits"])
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigError(f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}")
        try:
            deformation = DeformationParams.from_noise(self.gamma, self.alpha, self.beta)
        except ValueError as exc:
            raise ConfigError(f"deformation knobs (lambda = 1 - gamma * alpha): {exc}") from exc
        object.__setattr__(self, "_deformation", deformation)
        try:
            object.__setattr__(self, "_geometry", build_geometry(self.n_qubits, self.q))
        except ValueError as exc:
            raise ConfigError(f"deformation knobs (q = exp(beta * (1 - lambda))): {exc}") from exc

    @property
    def lam(self) -> float:
        return self._deformation.lam

    @property
    def q(self) -> float:
        return self._deformation.q

    @property
    def geometry(self) -> QGeometry:
        return self._geometry

    def _semantics(self) -> dict:
        """Every field except the environment paths data_dir and out_dir."""
        doc = asdict(self)
        doc.pop("data_dir")
        doc.pop("out_dir")
        return doc

    def hash(self) -> str:
        """Hash of the run semantics; environment paths are excluded."""
        return hashlib.sha256(json.dumps(self._semantics(), sort_keys=True).encode()).hexdigest()[:16]


def _field_kind(hint) -> tuple[type, bool]:
    """(value type, None allowed) of a RunConfig annotation such as `int | None`."""
    args = get_args(hint)
    return next((t for t in args if t is not type(None)), hint), type(None) in args


#: per RunConfig field: its value type (int, float or str) and whether None is allowed
FIELD_KINDS = {name: _field_kind(hint) for name, hint in get_type_hints(RunConfig).items()}


@dataclass(frozen=True)
class TaskContext:
    """Trained baseline, task inputs and observable (Z0's diagonal, or H / ||H||_op).

    `inputs` holds the states a grid point runs: the pool the ensemble was
    drawn from and the metric's inputs, which for classification are both
    the validation states, and for VQE the trajectory snapshots, then
    |0...0>. `build_ensemble` checked the pool; `ensemble_rows` and
    `metric_rows` index `inputs`.
    `op_norm` is the checked observable's norm. `scores` memoises, per
    sigma, the baseline's `pruner.Score` over `inputs`; the first grid
    point at a sigma fills it, whatever the order of the points.
    """

    config: RunConfig
    data: EncodedDataset | None
    trained_centers: np.ndarray
    inputs: np.ndarray
    ensemble_rows: np.ndarray
    metric_rows: np.ndarray
    observable: np.ndarray
    op_norm: float
    metric_name: str
    scores: dict = field(default_factory=dict, repr=False)

    @property
    def ensemble_states(self) -> np.ndarray:
        """The task ensemble, (M, dim), repeats included."""
        return self.inputs[self.ensemble_rows]


def _resolve_idx_paths(config: RunConfig) -> tuple[Path, Path]:
    root = config.data_dir or os.environ.get(ENV_DATA_DIR)
    if not root:
        raise ConfigError(
            f"task {config.task!r} needs IDX data: pass --data-dir or set {ENV_DATA_DIR}"
        )
    sub = Path(root) / TASK_INFO[config.task]["subdir"]
    images = sub / "t10k-images-idx3-ubyte"
    labels = sub / "t10k-labels-idx1-ubyte"
    for p in (images, labels):
        if not p.exists():
            raise ConfigError(f"missing data file: {p}")
    return images, labels


def load_dataset(config: RunConfig) -> EncodedDataset:
    """The classification task's dataset: generated for bas, read from IDX files otherwise."""
    if config.task == "bas":
        return generate_bas(4)
    images, labels = _resolve_idx_paths(config)
    return load_idx(images, labels, TASK_INFO[config.task]["keep_labels"], config.n_qubits, name=config.task)


def prepare_task(config: RunConfig) -> TaskContext:
    """Load or generate the dataset, train the baseline centers, build the
    ensemble, and fix the task's inputs and observable (checked and normed once)."""
    info = TASK_INFO[config.task]
    n = config.n_qubits
    base = build_ansatz(n, config.depth, centers=None, sigma=0.0, seed=config.seed)
    if info["kind"] == "classification":
        data = load_dataset(config)
        trained = train_classifier(
            base,
            data,
            epochs=config.train_epochs,
            lr=config.train_lr,
            seed=config.seed,
            batch_size=config.train_batch,
            max_train_samples=config.max_train_samples,
        )
        ensemble = build_ensemble(data, M=config.M, seed=config.seed)
        # the ensemble's pool is the validation split, the metric's inputs
        inputs, metric_rows = ensemble.pool, np.arange(len(ensemble.pool))
        observable = z0_observable(n)
        metric_name = "accuracy_pct"
    else:
        data = None
        spec = build_tfim(n, j=config.tfim_j, g=config.tfim_g)
        vqe = run_vqe(spec, base, iters=config.vqe_iters, lr=config.vqe_lr)
        trained = vqe.trained
        ensemble = build_ensemble(vqe, M=config.M, seed=config.seed)
        # the trajectory snapshots, then |0...0>, the metric's input
        inputs = np.concatenate([ensemble.pool, zero_state(n)[None]])
        metric_rows = np.array([len(ensemble.pool)])
        observable = spec.hamiltonian / operator_norm(spec.hamiltonian)
        metric_name = "energy_normalized"
    for arr in (inputs, ensemble.rows, metric_rows):
        arr.setflags(write=False)
    return TaskContext(
        config=config,
        data=data,
        trained_centers=block_centers(trained),
        inputs=inputs,
        ensemble_rows=ensemble.rows,
        metric_rows=metric_rows,
        observable=observable,
        op_norm=observable_norm(observable, 1 << n),
        metric_name=metric_name,
    )


def _baseline_score(ctx: TaskContext, config: RunConfig) -> Score:
    """The baseline at config.sigma and its score over the task inputs, memoised per sigma."""
    sigma = config.sigma
    if sigma not in ctx.scores:
        baseline = build_ansatz(config.n_qubits, config.depth, centers=ctx.trained_centers, sigma=sigma, seed=config.seed)
        ctx.scores[sigma] = score(baseline, ctx.inputs, config.geometry, config.mode, rows=ctx.ensemble_rows)
    return ctx.scores[sigma]


def _task_metric(ctx: TaskContext, outputs: np.ndarray) -> float:
    """Validation accuracy in percent, or the normalized energy, from a
    circuit's outputs of the task inputs."""
    values = expectation(outputs[ctx.metric_rows], ctx.observable)
    if ctx.data is not None:
        return 100.0 * accuracy(values, ctx.data.labels[ctx.data.val_idx])
    return float(values[0])


def run_grid_point(ctx: TaskContext, delta: float, sigma: float) -> dict:
    """Prune one (delta, sigma) point against the shared baseline; returns the
    CSV row plus the full report and certificate documents. The baseline's
    score comes from `ctx.scores` (see the module docstring)."""
    config = dc_replace(ctx.config, delta=delta, sigma=sigma)
    scored = _baseline_score(ctx, config)
    tol = calibrate_epsilon(delta, config.geometry, rule=config.epsilon_rule)
    pruned, report = decide(scored, tol, config.max_replace_per_group)
    out_pruned = run_fused(pruned, ctx.inputs)
    m_base = _task_metric(ctx, scored.outputs)
    m_pruned = _task_metric(ctx, out_pruned)
    report = dc_replace(
        report,
        metric_name=ctx.metric_name,
        metric_base=m_base,
        metric_pruned=m_pruned,
        metric_drop=m_base - m_pruned,
        seed=config.seed,
        config_hash=config.hash(),
    )
    rows = ctx.ensemble_rows
    cert = certify_outputs(report, scored.outputs[rows], out_pruned[rows], ctx.observable, ctx.op_norm)

    doc = report.to_json_dict()
    row = {"dataset": config.task, "delta": delta, "sigma": sigma}
    row.update((c, doc[c]) for c in CSV_COLUMNS[3:])
    return {"row": row, "report": report, "certificate": cert, "config": config}


def _format_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_rows_csv(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in CSV_COLUMNS])


def write_report_json(path: Path, result: dict) -> None:
    config: RunConfig = result["config"]
    doc = {
        "config": config._semantics(),
        "config_hash": config.hash(),
        "lambda": config.lam,
        "q": config.q,
        "report": result["report"].to_json_dict(),
        "certificate": result["certificate"].to_json_dict(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))


def _point_name(config: RunConfig, delta: float, sigma: float) -> str:
    return f"{config.task}_d{delta}_s{sigma}_seed{config.seed}"


def cmd_prune(config: RunConfig) -> int:
    ctx = prepare_task(config)
    result = run_grid_point(ctx, config.delta, config.sigma)
    out = Path(config.out_dir)
    name = _point_name(config, config.delta, config.sigma)
    write_report_json(out / f"report_{name}.json", result)
    write_rows_csv(out / f"row_{name}.csv", [result["row"]])
    row = result["row"]
    print(
        f"{config.task}: delta={config.delta} sigma={config.sigma} "
        f"replace={row['replace_pct']:.2f}% rhs={row['rhs_raw']:.3f}->"
        f"{row['rhs_clip']:.3f} dq_max={row['dq_max_repl']:.4f} "
        f"metric {row['metric_base']:.4f} -> {row['metric_pruned']:.4f}"
    )
    return 0


def cmd_sweep(config: RunConfig, deltas, sigmas, seeds) -> int:
    for flag, values in (("--deltas", deltas), ("--sigmas", sigmas), ("--seeds", seeds)):
        if not values:
            raise ConfigError(f"{flag} lists no values")
    # reject any bad grid point before training or writing anything
    for seed, delta, sigma in itertools.product(seeds, deltas, sigmas):
        dc_replace(config, delta=delta, sigma=sigma, seed=seed)
    out = Path(config.out_dir)
    for seed in seeds:
        seed_config = dc_replace(config, seed=seed)
        ctx = prepare_task(seed_config)
        rows = []
        for delta in deltas:
            for sigma in sigmas:
                result = run_grid_point(ctx, delta, sigma)
                rows.append(result["row"])
                write_report_json(
                    out / f"report_{_point_name(seed_config, delta, sigma)}.json", result
                )
        write_rows_csv(out / f"results_{config.task}_seed{seed}.csv", rows)
        print(f"{config.task} seed {seed}: wrote {len(rows)} rows")
    return 0


def cmd_verify(seed: int, out_path: Path | None) -> int:
    results = check_all(seed) + regress_tables(seed=seed)
    text = results_to_json(results)
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text)
    failed = [r for r in results if not r.passed]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        bound = "measured-only" if math.isinf(r.bound) else f"bound={r.bound:.3g}"
        print(f"[{mark}] {r.name}: measured={r.measured:.3g} {bound}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


PANEL_METRICS = ("replace_pct", "metric_drop", "dq_max_repl")


def cmd_report(csv_paths: list[Path], out_dir: Path) -> int:
    rows: list[dict] = []
    for path in csv_paths:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
            if missing:
                raise ConfigError(f"{path}: missing columns {sorted(missing)}")
            rows.extend(reader)
    if not rows:
        raise ConfigError("no input rows")
    grouped: dict[tuple, list[dict]] = {}
    for row in rows:
        grouped.setdefault((row["dataset"], float(row["delta"]), float(row["sigma"])), []).append(row)
    out_dir.mkdir(parents=True, exist_ok=True)
    for metric in PANEL_METRICS:
        path = out_dir / f"panel_{metric}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "delta", "sigma", metric])
            for key in sorted(grouped):
                vals = [float(r[metric]) for r in grouped[key]]
                writer.writerow(
                    [key[0], _format_cell(key[1]), _format_cell(key[2]), _format_cell(sum(vals) / len(vals))]
                )
        print(f"wrote {path}")
    return 0


def cmd_dataset(action: str, out_path: Path | None, config: RunConfig) -> int:
    data = load_dataset(config)
    if action == "generate":
        if out_path is None:
            raise ConfigError("dataset generate needs --out")
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(dataset_to_json(data))
        print(f"wrote {out_path} ({len(data)} samples)")
        return 0
    pos = int(np.sum(data.labels == 1))
    print(
        f"{data.name}: {len(data)} samples on {data.n_qubits} qubits "
        f"(+1: {pos}, -1: {len(data) - pos}; train {len(data.train_idx)}, "
        f"validation {len(data.val_idx)})"
    )
    return 0


#: RunConfig fields whose flag is not the field name in dashed form
FLAG_NAMES = {"out_dir": "--out"}
#: allowed values per field; RunConfig validates against the same constants
FIELD_CHOICES = {"task": sorted(TASK_INFO), "epsilon_rule": EPSILON_RULES, "mode": MODES}


def _load_config(args) -> RunConfig:
    doc: dict = {}
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object, got {type(loaded).__name__}")
        doc.update(loaded)
    for name in FIELD_KINDS:
        val = getattr(args, name, None)
        if val is not None:
            doc[name] = val
    if "task" not in doc:
        raise ConfigError("a task is required (flag --task or config file)")
    try:
        return RunConfig(**doc)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field, typed by the field's annotation."""
    # --task may come from the config file instead; _load_config enforces presence
    p.add_argument("--config", help="JSON file with RunConfig fields; flags override")
    for name, (kind, _) in FIELD_KINDS.items():
        flag = FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        p.add_argument(flag, dest=name, type=kind, choices=FIELD_CHOICES.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qiprune", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_prune = sub.add_parser("prune", help="train a baseline, prune one (delta, sigma) point")
    _add_config_flags(p_prune)

    p_sweep = sub.add_parser("sweep", help="prune a delta x sigma grid, one CSV per seed")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--deltas", default=",".join(str(d) for d in DEFAULT_DELTAS))
    p_sweep.add_argument("--sigmas", default=",".join(str(s) for s in DEFAULT_SIGMAS))
    p_sweep.add_argument("--seeds", default="0")

    p_verify = sub.add_parser("verify", help="run the analytic check suite and table regression")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", dest="out_path", default=None)

    p_report = sub.add_parser("report", help="project sweep CSVs into plot-ready panel CSVs")
    p_report.add_argument("csvs", nargs="+")
    p_report.add_argument("--out", dest="out_dir", default="report")

    p_dataset = sub.add_parser("dataset", help="generate or inspect encoded datasets")
    p_dataset.add_argument("action", choices=("generate", "inspect"))
    p_dataset.add_argument("--task", choices=CLASSIFICATION_TASKS, required=True)
    p_dataset.add_argument("--out", dest="out_path", default=None)
    p_dataset.add_argument("--data-dir", dest="data_dir")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "prune":
            return cmd_prune(_load_config(args))
        if args.command == "sweep":
            deltas = [float(x) for x in args.deltas.split(",") if x]
            sigmas = [float(x) for x in args.sigmas.split(",") if x]
            seeds = [int(x) for x in args.seeds.split(",") if x]
            return cmd_sweep(_load_config(args), deltas, sigmas, seeds)
        if args.command == "verify":
            out = Path(args.out_path) if args.out_path else None
            return cmd_verify(args.seed, out)
        if args.command == "report":
            return cmd_report([Path(p) for p in args.csvs], Path(args.out_dir))
        if args.command == "dataset":
            cfg = RunConfig(task=args.task, data_dir=args.data_dir)
            return cmd_dataset(args.action, Path(args.out_path) if args.out_path else None, cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
