"""Spans and counters around the calls into each isacdeploy module.

The tracer works from outside the program: `install` replaces every binding of
a hooked function in the loaded isacdeploy modules with a wrapper, and
`uninstall` puts the originals back, so untraced rounds run the program as is.
A hooked function that no longer exists is reported in `missing`; the run goes
on without its span.

Span times are busy time: each span reads the CPU clock of the calling thread.
The benchmark runs the program with its own `threads` at 1 and BLAS pinned to
one thread, so all of the program's work lands on that thread. A span's self
time is its time minus that of its direct child spans.
"""

from __future__ import annotations

import functools
import gc
import math
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

MB = float(2**20)


@dataclass(frozen=True)
class Hook:
    """Span name for one program function, found by module and attribute name."""

    span: str
    module: str
    function: str


HOOKS = (
    Hook("geometry.steering", "isacdeploy.geometry", "steering_matrix"),
    Hook("correlation.codebook", "isacdeploy.correlation", "build_codebook"),
    Hook("correlation.metric", "isacdeploy.correlation", "max_weighted_correlation"),
    Hook("ga.run", "isacdeploy.ga", "run_ga"),
    Hook("ga.fitness", "isacdeploy.ga", "fitness"),
    Hook("signals.normal", "isacdeploy.signals", "complex_normal"),
    Hook("music.rmse_map", "isacdeploy.music", "rmse_map"),
    Hook("experiments.run", "isacdeploy.experiments", "run_experiment"),
    Hook("cli.main", "isacdeploy.cli", "main"),
)

COUNTS = (
    "geometry.steering_calls",
    "geometry.steering_columns",
    "correlation.codebook_calls",
    "correlation.metric_calls",
    "correlation.pairs_scored",
    "ga.generations",
    "ga.evaluations",
    "ga.repeat_evaluations",
    "signals.normal_calls",
    "signals.normals_drawn",
    "music.rmse_map_calls",
    "music.localizations",
    "trace.missing_hooks",
)
"""Per-layer metrics that must repeat exactly from one traced round to the next."""


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters of one traced round; with `memory`, also its traced allocations."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.metric_peak = 0
        self.retained = 0
        self._memory_base = 0
        self._genes_seen: set[bytes] = set()

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every hooked function wherever an isacdeploy module binds it."""
        modules = [m for name, m in sys.modules.items() if name == "isacdeploy" or name.startswith("isacdeploy.")]
        for hook in HOOKS:
            original = getattr(sys.modules.get(hook.module), hook.function, None)
            if original is None:
                self.missing.append(f"{hook.module}.{hook.function}")
                continue
            wrapper = self._wrap(hook, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def start(self) -> None:
        """Install the hooks and, with `memory`, start tracing allocations."""
        self.install()
        if self.memory:
            tracemalloc.start()
            self._memory_base = tracemalloc.get_traced_memory()[0]

    def stop(self) -> None:
        """Record what the round left allocated, stop tracing and unhook."""
        if self.memory:
            gc.collect()
            self.retained = max(0, tracemalloc.get_traced_memory()[0] - self._memory_base)
            tracemalloc.stop()
        self.uninstall()

    # -- spans ------------------------------------------------------------

    def _wrap(self, hook: Hook, original):
        # A hook's counters are the optional `_enter_<span>` / `_leave_<span>` methods below.
        enter = getattr(self, "_enter_" + hook.span.replace(".", "_"), None)
        leave = getattr(self, "_leave_" + hook.span.replace(".", "_"), None)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = enter(args, kwargs) if enter else None
            stack = self._stack
            frame = [time.thread_time(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = time.thread_time() - frame[0]
                if stack:
                    stack[-1][1] += elapsed
                self.total[hook.span] += elapsed
                self.self_time[hook.span] += elapsed - frame[1]
            if leave:
                leave(args, kwargs, result, state)
            return result

        return wrapper

    def _add(self, counts: dict[str, int]) -> None:
        for name, value in counts.items():
            self.counts[name] += int(value)

    # -- per-hook counters ------------------------------------------------

    def _leave_geometry_steering(self, args, kwargs, result, state):
        self._add({"geometry.steering_calls": 1, "geometry.steering_columns": result.shape[1]})

    def _enter_correlation_codebook(self, args, kwargs):
        self._add({"correlation.codebook_calls": 1})

    def _enter_correlation_metric(self, args, kwargs):
        n = _arg(args, kwargs, 0, "codebook").steering.shape[1]
        self._add({"correlation.metric_calls": 1, "correlation.pairs_scored": n * (n - 1) // 2})
        if not self.memory:
            return None
        current = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return current

    def _leave_correlation_metric(self, args, kwargs, result, before):
        if before is None:
            return
        peak = tracemalloc.get_traced_memory()[1] - before
        self.metric_peak = max(self.metric_peak, peak)

    def _enter_ga_run(self, args, kwargs):
        self._genes_seen = set()

    def _leave_ga_run(self, args, kwargs, result, state):
        self._genes_seen = set()
        self._add({"ga.generations": result.trace.size - 1})

    def _enter_ga_fitness(self, args, kwargs):
        genes = np.asarray(_arg(args, kwargs, 0, "chromosome"), dtype=float).tobytes()
        repeat = genes in self._genes_seen
        self._genes_seen.add(genes)
        self._add({"ga.evaluations": 1, "ga.repeat_evaluations": repeat})

    def _enter_signals_normal(self, args, kwargs):
        shape = _arg(args, kwargs, 1, "shape")
        variance = _arg(args, kwargs, 2, "variance")
        self._add({"signals.normal_calls": 1, "signals.normals_drawn": 2 * math.prod(shape) if variance > 0 else 0})

    def _leave_music_rmse_map(self, args, kwargs, result, state):
        self._add({"music.rmse_map_calls": 1, "music.localizations": result.per_point_rmse.size * result.trials_per_point})

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this round, except those the workload adds."""
        total, own, counts = self.total, self.self_time, self.counts
        evaluations = counts["ga.evaluations"]
        values = {name: counts[name] for name in COUNTS}
        values.update(
            {
                "trace.missing_hooks": len(self.missing),
                "geometry.steering_s": total["geometry.steering"],
                "correlation.codebook_s": total["correlation.codebook"],
                "correlation.metric_s": total["correlation.metric"],
                "correlation.metric_peak_mb": self.metric_peak / MB,
                "correlation.retained_mb": self.retained / MB,
                "ga.useful_eval_ratio": (evaluations - counts["ga.repeat_evaluations"]) / evaluations if evaluations else 0.0,
                "ga.fitness_s": total["ga.fitness"],
                "ga.self_s": own["ga.run"],
                "signals.normal_s": total["signals.normal"],
                "music.rmse_map_s": total["music.rmse_map"],
                "music.self_s": own["music.rmse_map"],
                "experiments.self_s": own["experiments.run"],
                "cli.self_s": own["cli.main"],
            }
        )
        return values
