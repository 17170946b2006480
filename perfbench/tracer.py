"""Span tracer that wraps public functions of the qiprune modules from outside.

`Tracer.install` replaces each target function with a recording wrapper in
every loaded `qiprune` module that holds a reference to it, so names bound by
value (`from .linalg import apply_matrix` in `circuit`, `qmetric` and `tasks`)
are traced as well as attribute lookups. `Tracer.uninstall` puts every
original back. Spans live in flat in-memory arrays (name, start, end, parent)
and are summarised after the traced work has finished.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

#: module -> public functions wrapped; one span per call at these boundaries
TARGETS: dict[str, tuple[str, ...]] = {
    "cli": ("prepare_task", "run_grid_point", "write_report_json"),
    "tasks": (
        "load_idx",
        "generate_bas",
        "build_tfim",
        "train_classifier",
        "run_vqe",
        "build_ensemble",
        "evaluate_classifier",
        "vqe_energy",
    ),
    "pruner": ("partition", "prune", "merge_adjacent_duplicates", "certify"),
    "qmetric": ("build_geometry", "d_q_per_state"),
    "circuit": ("build_ansatz", "compile_gate", "apply_gate_sequence", "run"),
    "linalg": ("apply_matrix", "operator_norm"),
    "qalgebra": ("q_exp", "build_Uq"),
    "verify": ("check_all", "regress_tables"),
}

PACKAGE = "qiprune"

#: attribute carried by every tracing wrapper, holding its span name
SPAN_ATTR = "_perfbench_span"


def _package_modules() -> list:
    return [
        m for key, m in sorted(sys.modules.items())
        if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def traced_bindings() -> list[str]:
    """`module.attr` names in loaded qiprune modules still bound to a tracing wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in _package_modules()
        for attr, value in vars(mod).items()
        if hasattr(value, SPAN_ATTR)
    ]


def self_times(starts, ends, parents) -> list[float]:
    """Per span: its duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx in range(len(starts)):
        lo, hi = starts[idx], ends[idx]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(idx, ()), key=lambda k: starts[k]):
            c_lo, c_hi = max(starts[c], lo), min(ends[c], hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def _count_kernel(counters: Counter, args, kwargs, result) -> None:
    states = args[0] if args else kwargs["states"]
    # read the input batch once and write the output batch once (computed, not measured)
    counters["linalg.apply_matrix.bytes_computed"] += states.nbytes + result.nbytes
    batch = states.size // states.shape[-1]
    counters[f"kernel_batch.n{states.shape[-1].bit_length() - 1}_b{batch}"] += 1


def _count_prune(counters: Counter, args, kwargs, result) -> None:
    report = result[1]
    counters["pruner.comparisons"] += report.comparisons
    counters["pruner.replaced"] += report.L


def _count_ensemble(counters: Counter, args, kwargs, result) -> None:
    counters["tasks.ensemble_states"] += result.states.shape[0]
    counters["tasks.ensemble_unique"] += len({s.tobytes() for s in result.states})


#: counters read from arguments or results at the same boundaries as the spans
HOOKS = {
    "linalg.apply_matrix": _count_kernel,
    "pruner.prune": _count_prune,
    "tasks.build_ensemble": _count_ensemble,
}


class Tracer:
    """Records one span per call of every target function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.parents: array = array("i")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        name_of, starts, ends, parents, stack = (
            self.name_of, self.starts, self.ends, self.parents, self._stack
        )
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_of.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        setattr(traced, SPAN_ATTR, qualname)
        return traced

    def install(self) -> None:
        """Wrap every target in each loaded qiprune module that binds it."""
        if self.installed:
            raise RuntimeError("tracer is already installed")
        homes = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in TARGETS}
        modules = _package_modules()
        for mod_name, funcs in TARGETS.items():
            home = homes[mod_name]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def spans(self) -> list[tuple[str, float, float, int]]:
        """All spans as (name, start, end, parent index); -1 marks a root."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_of, self.starts, self.ends, self.parents)
        ]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function `module.func`: calls, inclusive seconds and self seconds.

        Per module `module`: self seconds summed over its functions (the only
        per-module figure that does not count nested calls twice).
        """
        own = self_times(self.starts, self.ends, self.parents)
        out: dict[str, dict[str, float]] = {}
        for idx, name_id in enumerate(self.name_of):
            name = self.names[name_id]
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += self.ends[idx] - self.starts[idx]
            rec["self_s"] += own[idx]
            layer = out.setdefault(name.split(".")[0], {"self_s": 0.0})
            layer["self_s"] += own[idx]
        return out
