"""Timing wrappers for the traced run, installed from the benchmark side.

``LayerTrace`` swaps chosen public functions and methods of ``repro`` for
thin wrappers that add their wall time to a per-layer total, and puts every
original back on exit.  Only the outermost wrapped call on the stack is
timed, so a layer that calls another (``value_of_schedule`` calls
``energies_of_schedule``) is not counted twice and the layer totals can be
summed against the end-to-end time.  The untraced run never constructs one.

The wrappers patch the *consumer's* module namespace (``repro.solvers.
builtin.execute_schedule``, not ``repro.sim.engine.execute_schedule``),
because the solvers import these names with ``from ... import``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: (module, attribute path, layer).  Attribute paths with a dot are class
#: members; ``network`` is a property and is wrapped as one.
LAYER_TARGETS = (
    ("repro.solvers.prepared", "PreparedNetwork.network", "prepare.network"),
    ("repro.solvers.prepared", "PreparedNetwork.objective", "prepare.objective"),
    ("repro.offline.centralized", "CentralizedScheduler.run", "offline.schedule"),
    ("repro.solvers.builtin", "smooth_switches", "offline.smooth"),
    ("repro.solvers.builtin", "execute_schedule", "sim.execute"),
    ("repro.online.runtime", "execute_schedule", "sim.execute"),
    ("repro.objective.haste", "HasteObjective.energies_of_schedule", "online.bank"),
    ("repro.online.runtime", "negotiate_window", "online.negotiate"),
    ("repro.objective.haste", "HasteObjective.value_of_schedule", "online.score"),
    ("repro.online.runtime", "smooth_switches", "online.smooth"),
    ("repro.solvers.builtin", "greedy_utility_schedule_batch", "batch.schedule"),
    ("repro.solvers.builtin", "greedy_cover_schedule_batch", "batch.schedule"),
    ("repro.solvers.builtin", "execute_schedule_batch", "batch.execute"),
)


class LayerTrace:
    """Context manager: per-layer seconds and call counts while active."""

    def __init__(self, targets=LAYER_TARGETS) -> None:
        self.targets = targets
        self.seconds: dict[str, float] = defaultdict(float)
        #: OfflineResult scan counters, summed over wrapped ``run`` calls.
        self.offline_counts: dict[str, int] = defaultdict(int)
        self._depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _timed(self, layer: str, fn):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if trace._depth:
                return fn(*args, **kwargs)
            trace._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                trace.seconds[layer] += time.perf_counter() - start
                trace._depth -= 1
            if layer == "offline.schedule":
                trace.offline_counts["fresh_scans"] += result.fresh_scans
                trace.offline_counts["pruned_skips"] += result.pruned_skips
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def __enter__(self) -> "LayerTrace":
        for module_name, path, layer in self.targets:
            owner, attr, original = _resolve(module_name, path)
            if isinstance(original, property):
                patched = property(self._timed(layer, original.fget))
            else:
                patched = self._timed(layer, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _resolve(module_name: str, path: str):
    """``(owner, attribute, current value)`` of one target; class members
    are read from the class ``__dict__`` so properties stay properties."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, value


def surviving_wrappers(targets=LAYER_TARGETS) -> list[str]:
    """Targets that are still wrapped (must be empty outside a trace)."""
    left = []
    for module_name, path, _layer in targets:
        value = _resolve(module_name, path)[2]
        fn = value.fget if isinstance(value, property) else value
        if getattr(fn, "__perfbench_wrapper__", False):
            left.append(f"{module_name}.{path}")
    return left
