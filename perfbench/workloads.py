"""Benchmark workloads: generated inputs, one full sweep, the verify suite.

Every workload runs the real pipeline through the public API: one seed's
`cli.prepare_task`, every point of the paper's 2x4 delta x sigma grid through
`cli.run_grid_point`, a `cli.write_report_json` per point, and
`verify.check_all` + `verify.regress_tables` over VERIFY_SEEDS seeds starting
at the workload seed. Inputs are made from the workload seed only; nothing is
downloaded.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qiprune import cli, verify
from qiprune.circuit import build_ansatz
from qiprune.cli import DEFAULT_DELTAS, DEFAULT_SIGMAS, RunConfig
from qiprune.tasks import build_tfim, generate_bas, load_idx

#: ensemble size M of the paper's sweep
ENSEMBLE_M = 50
VERIFY_SEEDS = 3

#: synthetic IDX fixture: 300 images, every 6th of label 1 (filtered out), the
#: rest alternating 4 / 9, so exactly 250 are kept and the every-5th
#: validation split holds 50 = M states, drawn without repeats
IDX_IMAGES = 300


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    depth: int
    budget: dict
    why: str

    def config(self, seed: int, data_dir: str | None) -> RunConfig:
        return RunConfig(
            task=self.task, depth=self.depth, M=ENSEMBLE_M, seed=seed, data_dir=data_dir, **self.budget
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-mnist49",
            task="mnist49",
            depth=1,
            budget={"train_epochs": 0},
            why="8 qubits at batch 50 with no training: kernel, prune and certify do nearly all "
            "the work, so a kernel change must show here and a training change must not",
        ),
        Workload(
            name="train-bas",
            task="bas",
            depth=6,
            budget={"train_epochs": 1},
            why="one full-batch epoch on the 28 bas samples is most of the sweep, so a gradient "
            "change shows here; its ensemble repeats states (a dedup change shows here)",
        ),
        Workload(
            name="vqe-tfim",
            task="tfim",
            depth=6,
            budget={"vqe_iters": 4},
            why="the same kernel and gradient code at batch 1 with a dense-Hamiltonian "
            "expectation and line search: per-call overhead rules; ensemble highly repeated",
        ),
    )
}


def write_idx_fixture(root: Path, seed: int) -> tuple[Path, Path]:
    """Sparse 28x28 images and labels in the big-endian IDX format; returns their paths."""
    rng = np.random.default_rng([seed, 49])
    ink = rng.integers(1, 256, size=(IDX_IMAGES, 28, 28), dtype=np.uint8)
    mask = rng.random((IDX_IMAGES, 28, 28)) < 0.2
    images = np.where(mask, ink, 0).astype(np.uint8)
    images[:, 14, 14] = 255  # no image is blank, so every one amplitude-encodes
    labels = np.array([1 if i % 6 == 5 else (4, 9)[i % 2] for i in range(IDX_IMAGES)], dtype=np.uint8)
    sub = root / cli.TASK_INFO["mnist49"]["subdir"]
    sub.mkdir(parents=True, exist_ok=True)
    image_path, label_path = sub / "t10k-images-idx3-ubyte", sub / "t10k-labels-idx1-ubyte"
    image_path.write_bytes(struct.pack(">IIII", 2051, IDX_IMAGES, 28, 28) + images.tobytes())
    label_path.write_bytes(struct.pack(">II", 2049, IDX_IMAGES) + labels.tobytes())
    return image_path, label_path


def make_inputs(workload: Workload, seed: int, work: Path) -> RunConfig:
    """Write the workload's fixtures under `work` and load its dataset once."""
    if workload.task == "mnist49":
        data_dir = work / "data"
        images, labels = write_idx_fixture(data_dir, seed)
        config = workload.config(seed, str(data_dir))
        data = load_idx(images, labels, cli.TASK_INFO["mnist49"]["keep_labels"], config.n_qubits)
        if len(data.val_idx) != ENSEMBLE_M:
            raise RuntimeError(f"fixture validation split has {len(data.val_idx)} states, not {ENSEMBLE_M}")
        return config
    config = workload.config(seed, None)
    if workload.task == "bas":
        generate_bas(4)
    else:
        build_tfim(config.n_qubits, j=config.tfim_j, g=config.tfim_g)
    return config


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass
class Sweep:
    sweep_s: float
    prepare_s: float
    point_s: list[float]
    decisions: str
    reports: str
    ensemble_unique: int


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def run_sweep(config: RunConfig, out_dir: Path, tally: Tally) -> Sweep | None:
    """prepare_task, every grid point with its report file; None if prepare raised.

    A grid point fails when it raises, its certificate does not pass, or it
    has violations; each is one attempted operation.
    """
    n_points = len(DEFAULT_DELTAS) * len(DEFAULT_SIGMAS)
    t0 = time.perf_counter()
    try:
        ctx = cli.prepare_task(config)
    except Exception:
        traceback.print_exc()
        for _ in range(n_points):
            tally.record(False, "prepare_task raised")
        return None
    prepare_s = time.perf_counter() - t0
    point_s, decisions, paths = [], [], []
    for delta in DEFAULT_DELTAS:
        for sigma in DEFAULT_SIGMAS:
            path = out_dir / f"report_{config.task}_d{delta}_s{sigma}.json"
            try:
                t = time.perf_counter()
                result = cli.run_grid_point(ctx, delta, sigma)
                point_s.append(time.perf_counter() - t)
                cli.write_report_json(path, result)
            except Exception:
                traceback.print_exc()
                tally.record(False, f"grid point d={delta} s={sigma} raised")
                continue
            report, cert = result["report"], result["certificate"]
            tally.record(
                cert.passed and report.violations == 0,
                f"grid point d={delta} s={sigma}: passed={cert.passed} violations={report.violations}",
            )
            decisions.append([delta, sigma, list(report.replaced)])
            paths.append(path)
    sweep_s = time.perf_counter() - t0
    return Sweep(
        sweep_s=sweep_s,
        prepare_s=prepare_s,
        point_s=point_s,
        decisions=_digest([json.dumps(decisions).encode()]),
        reports=_digest(p.read_bytes() for p in paths),
        ensemble_unique=len({s.tobytes() for s in ctx.ensemble_states}),
    )


def time_prepare(config: RunConfig) -> float:
    t = time.perf_counter()
    cli.prepare_task(config)
    return time.perf_counter() - t


def run_verify(seed: int, tally: Tally) -> tuple[float, str]:
    """check_all + regress_tables over VERIFY_SEEDS consecutive seeds from `seed`.

    Returns (seconds, digest of the results). Several seeds even out how much
    work one seed's random instances happen to need.
    """
    t = time.perf_counter()
    results = []
    for s in range(seed, seed + VERIFY_SEEDS):
        results += verify.check_all(s) + verify.regress_tables(seed=s)
    elapsed = time.perf_counter() - t
    for r in results:
        tally.record(r.passed, f"check {r.name} seed {r.seed}: measured={r.measured} bound={r.bound}")
    return elapsed, _digest([verify.results_to_json(results).encode()])


def check_repeat(label: str, first: str, again: str, tally: Tally) -> None:
    """A digest that differs between repeats of the same code is a failure."""
    tally.record(first == again, f"{label} digest changed on repeat: {first} != {again}")


def properties(workload: Workload, config: RunConfig, sweep: Sweep | None) -> dict:
    """Input properties the measured costs depend on, recorded beside the numbers."""
    props = {
        "task": workload.task,
        "n_qubits": config.n_qubits,
        "depth": config.depth,
        "n_rot": build_ansatz(config.n_qubits, config.depth).n_rot,
        "grid": f"{len(DEFAULT_DELTAS)}x{len(DEFAULT_SIGMAS)} delta={list(DEFAULT_DELTAS)} "
        f"sigma={list(DEFAULT_SIGMAS)}",
        "ensemble_M": config.M,
        "budget": workload.budget,
        "why": workload.why,
    }
    if sweep is not None:
        props["ensemble_unique"] = sweep.ensemble_unique
        props["ensemble_unique_frac"] = sweep.ensemble_unique / config.M
    return props

