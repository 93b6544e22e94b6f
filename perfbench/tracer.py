"""Out-of-process-code tracer: spans around calls into opvec's public functions.

The tracer wraps each listed function from outside the library, in every
``opvec`` module namespace that binds it (``from .simulator import ...``
makes a second binding that patching ``opvec.simulator`` alone would miss),
records one span per call in memory and derives per-layer metrics when the
run ends. Nothing under ``src/opvec`` is modified on disk.

A span's self time is its duration minus the durations of its direct child
spans; time spent in functions that are not listed stays with the nearest
listed caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "pauli", "vectorize", "simulator", "superop", "estimators", "oracle", "lattice2d")


def _amp_bytes(state) -> int:
    return int(state.amplitudes.nbytes)


def _apply_circuit(a, result) -> dict:
    gates = a["circuit"].num_gates()
    # computed: each gate reads and writes the whole register once
    return {"gates": gates, "bytes": 2 * gates * _amp_bytes(a["state"])}


def _born_sample(a, result) -> dict:
    return {"shots": a["shots"], "outcome_space": 2 ** a["state"].k}


def _dense_unitary(a, result) -> dict:
    c = a["circuit"]
    return {"column_gates": 2**c.k * c.num_gates()}


def _channel_dual(a, result) -> dict:
    return {"keep_prob": result[1]} if result is not None else {}


def _bell_transform(a, result) -> dict:
    return {"bytes": 2 * _amp_bytes(a["state"])}


def _estimate_loe2(a, result) -> dict:
    # computed: the joint two-copy register the swap test allocates
    return {"register_bytes": 16 * 4 ** (2 * a["state_a"].n)}


def _shots_drawn(a, result) -> dict:
    """Shots an estimator call reports drawing (``estimators.shots``)."""
    if result is None:
        return {}
    rep = result[0] if isinstance(result, list) else getattr(result, "purity", result)
    return {"shots": int(rep.shots)}


@dataclass(frozen=True)
class Target:
    """One traced function: ``layer.name`` (``name`` may be ``Class.method``),
    the workload on which it must record calls, and an optional hook that
    derives computed work counts from the bound arguments and the result
    (``None`` when the call raised)."""

    layer: str
    name: str
    workload: str
    hook: Callable | None = None

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"


D, C, F = "doubled_n7", "cap_n7_oracle", "families_n5"

TARGETS = (
    Target("cli", "validate_config", F),
    Target("cli", "run", F),
    Target("pauli", "PauliSum.to_dense", F),
    Target("pauli", "PauliSum.from_text", F),
    Target("vectorize", "vectorize", D),
    Target("vectorize", "bell_transform", D, _bell_transform),
    Target("vectorize", "save_state", D),
    Target("simulator", "gate_matrix", D),
    Target("simulator", "apply_circuit", D, _apply_circuit),
    Target("simulator", "heisenberg_doubled", D),
    Target("simulator", "super_propagator_circuit", D),
    Target("simulator", "trotter_circuit", D),
    Target("simulator", "born_sample", D, _born_sample),
    Target("simulator", "dense_unitary", C, _dense_unitary),
    Target("simulator", "interferometric_state", C),
    Target("simulator", "channel_dual_postselect", F, _channel_dual),
    Target("superop", "classify_commuting_set", F),
    Target("superop", "common_eigenbasis_circuit", F),
    Target("superop", "conjugate_through", F),
    Target("superop", "expectation", F),
    Target("superop", "builtin_diagonal", F),
    Target("superop", "DiagonalSuperop.lam_vector", F),
    Target("estimators", "allocate_shots", F),
    Target("estimators", "sample_pauli_dist", F, _shots_drawn),
    Target("estimators", "mc_diagonal", F),
    Target("estimators", "estimate_otoc_group", F, _shots_drawn),
    Target("estimators", "estimate_superop_grouped", F, _shots_drawn),
    Target("estimators", "estimate_ose", F, _shots_drawn),
    Target("estimators", "estimate_loe2", C, _estimate_loe2),
    Target("estimators", "estimate_corr_interferometric", F, _shots_drawn),
    Target("estimators", "nqubit_sample", C),
    Target("estimators", "nqubit_otoc", C, _shots_drawn),
    Target("oracle", "propagator", C),
    Target("oracle", "pauli_probabilities", C),
    Target("oracle", "exact_otoc", C),
    Target("oracle", "exact_ose", C),
    Target("oracle", "exact_loe", F),
    Target("oracle", "exact_channel_dual", C),
    Target("lattice2d", "embed", F),
    Target("lattice2d", "trotter_step_schedule", F),
    Target("lattice2d", "validate", F),
    Target("lattice2d", "schedule_to_circuit", F),
)

# Computed counters: (metric name, target key, hook field, "sum" or "mean").
COUNTERS = (
    ("simulator.apply_circuit.gates", "simulator.apply_circuit", "gates", "sum"),
    ("simulator.apply_circuit.bytes", "simulator.apply_circuit", "bytes", "sum"),
    ("simulator.born_sample.shots", "simulator.born_sample", "shots", "sum"),
    ("simulator.born_sample.outcome_space", "simulator.born_sample", "outcome_space", "sum"),
    ("simulator.dense_unitary.column_gates", "simulator.dense_unitary", "column_gates", "sum"),
    ("simulator.channel_dual_postselect.keep_prob", "simulator.channel_dual_postselect",
     "keep_prob", "mean"),
    ("vectorize.bell_transform.bytes", "vectorize.bell_transform", "bytes", "sum"),
    ("estimators.estimate_loe2.register_bytes", "estimators.estimate_loe2",
     "register_bytes", "sum"),
    ("estimators.shots", None, "shots", "sum"),
)


class Span:
    __slots__ = ("key", "start", "end", "parent", "experiment", "error", "counts")

    def __init__(self, key: str, parent: int, experiment: int):
        self.key = key
        self.parent = parent
        self.experiment = experiment
        self.error = False
        self.counts = None


class Tracer:
    """Collects spans in memory while installed; ``uninstall`` restores
    every binding it replaced."""

    def __init__(self):
        self.spans: list[Span] = []
        self.experiment = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn: Callable, hook: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(key, stack[-1] if stack else -1, self.experiment)
            stack.append(len(spans))
            spans.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = hook(bound.arguments, None if span.error else result)

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "opvec" or name.startswith("opvec."))]
        for t in TARGETS:
            # importlib, not attribute access: ``opvec.vectorize`` on the
            # package is the function of that name, not the module.
            mod = importlib.import_module(f"opvec.{t.layer}")
            if "." in t.name:
                cls_name, attr = t.name.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(t.key, raw.__func__, t.hook))
                else:
                    new = self._wrap(t.key, raw, t.hook)
                self._replace(cls, attr, raw, new)
                continue
            orig = getattr(mod, t.name)
            wrapper = self._wrap(t.key, orig, t.hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._replace(m, attr, orig, wrapper)

    def _replace(self, owner, attr: str, old, new) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def bindings(self) -> list[str]:
        """``module.attr`` of every namespace entry the tracer replaced."""
        return [f"{owner.__name__}.{attr}" for owner, attr, _ in self._restore]

    def metrics(self) -> dict[str, float]:
        """Per-function calls and self time, computed counters, and
        per-layer self-time and error rollups."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for t in TARGETS:
            out[f"{t.key}.calls"] = 0
            out[f"{t.key}.self_s"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        sums: dict[tuple[str, str], float] = {}
        for i, s in enumerate(self.spans):
            self_s = s.end - s.start - child[i]
            layer = s.key.split(".", 1)[0]
            out[f"{s.key}.calls"] += 1
            out[f"{s.key}.self_s"] += self_s
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.errors"] += s.error
            for field, value in (s.counts or {}).items():
                k = (s.key, field)
                sums[k] = sums.get(k, 0) + value
        estimator_shots = sum(v for (key, f), v in sums.items()
                              if f == "shots" and key.startswith("estimators."))
        for name, key, field, how in COUNTERS:
            if key is None:
                out[name] = estimator_shots
            elif how == "mean":
                calls = out[f"{key}.calls"]
                out[name] = sums.get((key, field), 0.0) / calls if calls else 0.0
            else:
                out[name] = sums.get((key, field), 0)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip): key, start, end,
        parent index, experiment index, error flag."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps([s.key, s.start, s.end, s.parent, s.experiment,
                                     s.error]) + "\n")


def metric_names() -> list[str]:
    """Every per-layer metric ``Tracer.metrics`` reports, plus the tracing
    overhead the worker adds."""
    names = [f"{t.key}.{m}" for t in TARGETS for m in ("calls", "self_s")]
    names += [c[0] for c in COUNTERS]
    names += [f"{layer}.{m}" for layer in LAYERS for m in ("self_s", "errors")]
    names.append("trace.overhead_s")
    return names
