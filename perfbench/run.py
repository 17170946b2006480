"""qiprune benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload grid-mnist49 --seed 0 --seconds 36 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off, and times one
verify (check_all + regress_tables) that is printed but not gated. `--trace 1` is
the separate traced run: it times the kernel lane, then alternates untraced
and traced passes (sweep + verify) and reports per-layer metrics per traced
pass, with the tracing overhead as traced minus untraced wall time. Every
metric is printed by name with its unit; the last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`. Fixtures, report files,
the full result record and the spans go under `.perfbench/`.

BLAS threads are capped at the number of usable cores here, before numpy
is imported, and all load comes from this one process (the set-up samples
run one at a time in child processes so that each pays the imports).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".perfbench")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: an untraced run makes at least this many rounds of set-up and sweep
MIN_ROUNDS = 3
#: seconds of prepare_task samples taken per round at least
PREPARE_MIN_S = 0.3
KERNEL_BATCH = 50
KERNEL_BLOCKS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("prepare_s", "s"),
    ("grid_point_s_p50", "s"),
    ("grid_points_per_s", "1/s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: printed by untraced runs but not gated: on a shared 2-vCPU machine its
#: run-to-run spread reached 0.27 of the median, over the largest bound allowed
NOT_GATED = (("verify_s", "s"),)

#: per traced pass; `<func>.calls|.s|.self_s` and `<module>.self_s` come from the spans.
#: A pass includes verify, so pruner.* also counts the prune calls of its checks.
PER_LAYER = (
    ("linalg.apply_matrix.calls", "count"),
    ("linalg.apply_matrix.s", "s"),
    ("linalg.apply_matrix.bytes_computed", "B"),
    ("linalg.operator_norm.s", "s"),
    ("linalg.self_s", "s"),
    ("linalg.apply_matrix.us.n4_b50.rot", "us"),
    ("linalg.apply_matrix.us.n4_b50.cnot", "us"),
    ("linalg.apply_matrix.us.n8_b50.rot", "us"),
    ("linalg.apply_matrix.us.n8_b50.cnot", "us"),
    ("linalg.apply_matrix.bytes_per_call.n4_b50", "B"),
    ("linalg.apply_matrix.bytes_per_call.n8_b50", "B"),
    ("circuit.run.calls", "count"),
    ("circuit.run.s", "s"),
    ("circuit.compile_gate.calls", "count"),
    ("circuit.build_ansatz.s", "s"),
    ("circuit.apply_gate_sequence.s", "s"),
    ("circuit.self_s", "s"),
    ("qmetric.d_q_per_state.calls", "count"),
    ("qmetric.d_q_per_state.s", "s"),
    ("qmetric.self_s", "s"),
    ("pruner.prune.s", "s"),
    ("pruner.prune.self_s", "s"),
    ("pruner.certify.s", "s"),
    ("pruner.certify.self_s", "s"),
    ("pruner.partition.s", "s"),
    ("pruner.merge_adjacent_duplicates.s", "s"),
    ("pruner.comparisons", "count"),
    ("pruner.replaced_frac", "ratio"),
    ("pruner.self_s", "s"),
    ("tasks.train_classifier.s", "s"),
    ("tasks.train_classifier.self_s", "s"),
    ("tasks.run_vqe.s", "s"),
    ("tasks.run_vqe.self_s", "s"),
    ("tasks.evaluate_classifier.s", "s"),
    ("tasks.vqe_energy.s", "s"),
    ("tasks.build_ensemble.s", "s"),
    ("tasks.load_idx.s", "s"),
    ("tasks.ensemble_unique_frac", "ratio"),
    ("tasks.self_s", "s"),
    ("cli.prepare_task.s", "s"),
    ("cli.run_grid_point.s", "s"),
    ("cli.write_report_json.s", "s"),
    ("cli.self_s", "s"),
    ("verify.check_all.s", "s"),
    ("verify.regress_tables.s", "s"),
    ("verify.self_s", "s"),
    ("qalgebra.q_exp.calls", "count"),
    ("qalgebra.q_exp.s", "s"),
    ("qalgebra.build_Uq.s", "s"),
    ("qalgebra.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)


def cap_blas_threads() -> None:
    """At most one BLAS/OpenMP thread per usable core; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, NPROC))
        except ValueError:
            wanted = NPROC
        os.environ[var] = str(max(1, min(wanted, NPROC)))


def fail(message: str) -> None:
    """Exit with code 2 and no result line."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    """Import qiprune from this checkout's src/, or fail."""
    if not (SRC / "qiprune" / "__init__.py").is_file():
        fail(f"no qiprune package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qiprune

    if Path(qiprune.__file__).resolve().parent != (SRC / "qiprune").resolve():
        fail(f"imported qiprune from {qiprune.__file__}, not from {SRC}")


def setup(workload_name: str, seed: int):
    """Import, fixture generation and dataset load; returns (seconds, wl, workload, config, work)."""
    t0 = time.perf_counter()
    import_package()
    import workloads as wl

    if workload_name not in wl.WORKLOADS:
        fail(f"unknown workload {workload_name!r} (expected one of {sorted(wl.WORKLOADS)})")
    workload = wl.WORKLOADS[workload_name]
    work = OUT / f"{workload_name}-seed{seed}"
    config = wl.make_inputs(workload, seed, work)
    return time.perf_counter() - t0, wl, workload, config, work


def setup_in_child(workload_name: str, seed: int) -> float:
    """One set-up timed in a fresh interpreter, which pays every import again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"set-up in a child process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def git_commit() -> str:
    """Commit of this checkout read from .git, without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def kernel_lane(seed: int, tally) -> dict:
    """Direct linalg.apply_matrix calls at 4 and 8 qubits on a batch of 50.

    One-wire 2x2 rotations cycle over every wire and two-wire CNOTs over the
    ring, each call feeding the next; microseconds per call are the median
    over blocks. Bytes per call are computed from array sizes (the batch read
    once and written once), not measured.
    """
    import numpy as np
    from qiprune.circuit import CNOT_MATRIX, rot_matrix
    from qiprune.linalg import apply_matrix

    rng = np.random.default_rng([seed, 7])
    out = {}
    for n, cycles in ((4, 100), (8, 4)):
        states = rng.standard_normal((KERNEL_BATCH, 1 << n)) + 1j * rng.standard_normal((KERNEL_BATCH, 1 << n))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        rot = rot_matrix(*rng.uniform(-np.pi, np.pi, size=3))
        lanes = (
            ("rot", rot, [[w] for w in range(n)]),
            ("cnot", CNOT_MATRIX, [[w, (w + 1) % n] for w in range(n)]),
        )
        for kind, mat, wire_sets in lanes:
            per_call = []
            for _ in range(KERNEL_BLOCKS):
                t = time.perf_counter()
                for _ in range(cycles):
                    for wires in wire_sets:
                        states = apply_matrix(states, mat, wires, n)
                per_call.append((time.perf_counter() - t) / (cycles * len(wire_sets)))
            out[f"linalg.apply_matrix.us.n{n}_b{KERNEL_BATCH}.{kind}"] = 1e6 * median(per_call)
        norm_err = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
        tally.record(norm_err < 1e-9, f"kernel lane n={n}: norm drifted by {norm_err}")
        out[f"linalg.apply_matrix.bytes_per_call.n{n}_b{KERNEL_BATCH}"] = float(2 * states.nbytes)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_untraced(wl, workload, config, work: Path, seconds: float, tally, setup_s: list):
    """Rounds of (set-up in a child process, sweep) while they fit in `seconds`, then one verify.

    Spreading every metric's samples over the whole run keeps a short burst of
    machine load from landing on one metric only. Each round also repeats
    prepare_task until PREPARE_MIN_S of prepare samples, so a millisecond
    prepare still gets a steady median. At least MIN_ROUNDS rounds run, so
    decisions and report bytes are compared across repeats.
    """
    start = time.perf_counter()
    prepare_s, sweeps = [], []
    while True:
        t_round = time.perf_counter()
        setup_s.append(setup_in_child(workload.name, config.seed))
        sweep = wl.run_sweep(config, work / "reports", tally)
        if sweep is None:
            break
        if sweeps:
            wl.check_repeat("decisions", sweeps[0].decisions, sweep.decisions, tally)
            wl.check_repeat("reports", sweeps[0].reports, sweep.reports, tally)
        sweeps.append(sweep)
        round_prepare = [sweep.prepare_s]
        while sum(round_prepare) < PREPARE_MIN_S:
            round_prepare.append(wl.time_prepare(config))
        prepare_s.extend(round_prepare)
        now = time.perf_counter()
        if len(sweeps) >= MIN_ROUNDS and now - start + (now - t_round) > seconds:
            break
    verify_s, verify_digest = wl.run_verify(config.seed, tally)
    points = [s for sweep in sweeps for s in sweep.point_s]
    metrics = {
        "setup_s": median(setup_s),
        "prepare_s": median(prepare_s) if prepare_s else None,
        "grid_point_s_p50": median(points) if points else None,
        "grid_points_per_s": len(points) / sum(points) if points else None,
        "sweep_s": median(s.sweep_s for s in sweeps) if sweeps else None,
        "peak_rss_mb": peak_rss_mb(),
        "verify_s": verify_s,
    }
    samples = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "prepare_s": f"median of {len(prepare_s)} calls",
        "grid_point_s_p50": f"median of {len(points)} grid points",
        "grid_points_per_s": f"{len(points)} points over their summed latency",
        "sweep_s": f"median of {len(sweeps)} sweeps",
        "verify_s": f"one run over {wl.VERIFY_SEEDS} seeds; not gated",
    }
    digests = {"decisions": sweeps[0].decisions, "reports": sweeps[0].reports} if sweeps else {}
    digests["verify"] = verify_digest
    return metrics, {"samples": samples, "digests": digests}, sweeps[0] if sweeps else None


def measure_traced(wl, config, work: Path, seconds: float, tally, spans_path: Path):
    """Kernel lane, then untraced/traced pass pairs while they fit in `seconds`.

    A pass is one sweep plus one verify; the order inside a pair alternates.
    Per-layer figures are per traced pass; the spans are written to `spans_path`.
    """
    from tracer import Tracer, traced_bindings

    metrics = kernel_lane(config.seed, tally)
    tracer = Tracer()
    walls = {False: [], True: []}
    first_sweep = first = None
    start = time.perf_counter()
    pair = 0
    while True:
        t_pair = time.perf_counter()
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            elif traced_bindings():
                raise RuntimeError(f"tracing wrappers left installed: {traced_bindings()}")
            try:
                t = time.perf_counter()
                sweep = wl.run_sweep(config, work / "reports", tally)
                _, verify_digest = wl.run_verify(config.seed, tally)
                walls[traced].append(time.perf_counter() - t)
            finally:
                tracer.uninstall()
            if sweep is None:
                raise RuntimeError("prepare_task raised; see the traceback above")
            digests = (sweep.decisions, sweep.reports, verify_digest)
            if first is None:
                first_sweep, first = sweep, digests
            else:
                for label, a, b in zip(("decisions", "reports", "verify results"), first, digests):
                    wl.check_repeat(label, a, b, tally)
        pair += 1
        now = time.perf_counter()
        if now - start + (now - t_pair) > seconds:
            break

    passes = len(walls[True])
    summary = tracer.summary()
    counters = tracer.counters
    for name, _ in PER_LAYER:
        key, field = name.rsplit(".", 1)
        if name not in metrics and field in ("calls", "s", "self_s"):
            metrics[name] = summary.get(key, {}).get(field, 0.0) / passes
    metrics["linalg.apply_matrix.bytes_computed"] = counters["linalg.apply_matrix.bytes_computed"] / passes
    metrics["pruner.comparisons"] = counters["pruner.comparisons"] / passes
    metrics["pruner.replaced_frac"] = counters["pruner.replaced"] / max(counters["pruner.comparisons"], 1)
    metrics["tasks.ensemble_unique_frac"] = counters["tasks.ensemble_unique"] / max(counters["tasks.ensemble_states"], 1)
    metrics["trace.spans"] = len(tracer.starts) / passes
    untraced, traced = median(walls[False]), median(walls[True])
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    batches = {k.split(".", 1)[1]: v / passes for k, v in sorted(counters.items()) if k.startswith("kernel_batch.")}
    detail = {
        "passes": {"untraced_s": walls[False], "traced_s": walls[True]},
        "kernel_calls_by_batch": batches,
        "digests": dict(zip(("decisions", "reports", "verify"), first)),
    }
    write_spans(spans_path, tracer)
    return metrics, detail, first_sweep


def write_spans(path: Path, tracer) -> None:
    """Spans as [name, start, end, parent] rows, times in seconds from the first start."""
    spans = tracer.spans()
    t0 = spans[0][1] if spans else 0.0
    rows = [[name, round(s - t0, 9), round(e - t0, 9), parent] for name, s, e, parent in spans]
    path.write_text(json.dumps({"columns": ["name", "start_s", "end_s", "parent"], "spans": rows}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    os.chdir(ROOT)  # fixture paths are relative, so report bytes do not depend on the checkout path
    cap_blas_threads()

    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
        return 0

    own_setup_s, wl, workload, config, work = setup(args.workload, args.seed)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    tally = wl.Tally()
    env = environment()
    if args.trace:
        units = shown = dict(PER_LAYER)
        metrics, detail, sweep = measure_traced(
            wl, config, work, args.seconds, tally, results / f"{stem}-spans.json"
        )
    else:
        units = dict(END_TO_END)
        shown = dict(END_TO_END + NOT_GATED)
        metrics, detail, sweep = measure_untraced(
            wl, workload, config, work, args.seconds, tally, [own_setup_s]
        )
    props = wl.properties(workload, config, sweep)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("properties " + json.dumps(props, sort_keys=True))
    for key, value in detail.items():
        print(f"{key} " + json.dumps(value, sort_keys=True))
    samples = detail.get("samples", {})
    for name, unit in shown.items():
        value = metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:44s} {shown:>12s} {unit}{note}")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':44s} {failed_frac:12.6g} ratio  ({tally.failed} of {tally.attempted} operations)")
    for note in tally.notes:
        print(f"  FAILED: {note}")

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "properties": props, **detail,
        "metrics": metrics, "attempted": tally.attempted, "failed": tally.failed, "failures": tally.notes,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))

    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
