"""Simulation configuration — the paper's §7.1 setup as a dataclass.

Paper defaults: a 50 m × 50 m field, ``n = 50`` chargers and ``m = 200``
tasks uniformly distributed, ``α = 10000``, ``β = 40``, ``D = 20 m``,
``w_j = 1/200``, ``T_s = 1 min``, ``ρ = 1/12``, ``τ = 1``,
``A_s = A_o = π/3``, required energy uniform in ``[5, 20] kJ`` and task
duration uniform in ``[10, 120] min``.  Release times are not specified in
the paper; we draw them uniformly so each task fits inside the horizon
(documented substitution — see DESIGN.md).

Three presets:

* :meth:`SimulationConfig.paper` — the full §7.1 parameters (slow in pure
  Python; used for spot checks),
* the default constructor — a proportionally scaled-down configuration
  whose sweeps keep the paper's qualitative shapes at a fraction of the
  cost (used for the recorded EXPERIMENTS.md runs),
* :meth:`SimulationConfig.quick` — a tiny instance for unit tests and
  pytest benchmarks,
* :meth:`SimulationConfig.small_scale` — the paper's §7.3.1 small-network
  setup (5 chargers, 10 tasks, 10 m field) used for the optimality-ratio
  figures 8–9.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_HORIZON_SLOTS",
    "MAX_NUM_COLORS",
    "MAX_NUM_SAMPLES",
    "SimulationConfig",
]

# Sizes no host could serve, refused at the boundary (instances and solver
# specs).  Each is far above (≥ 30×) what any shipped config, experiment or
# benchmark uses: at most 100 samples, 8 colors and a 120-slot horizon.
#: Monte Carlo color samples ``S`` (an ``S × m`` energy matrix per sweep).
MAX_NUM_SAMPLES: int = 4096
#: TabularGreedy colors ``C`` (one full partition sweep each).
MAX_NUM_COLORS: int = 256
#: Horizon ``K`` in slots (per-slot policy and schedule arrays).
MAX_HORIZON_SLOTS: int = 10_000


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulated HASTE scenario."""

    field_size: float = 50.0
    num_chargers: int = 25
    num_tasks: int = 100
    alpha: float = 10000.0
    beta: float = 40.0
    radius: float = 20.0
    charging_angle: float = np.pi / 3
    receiving_angle: float = np.pi / 3
    slot_seconds: float = 60.0
    rho: float = 1.0 / 12.0
    tau: int = 1
    energy_min: float = 5_000.0
    energy_max: float = 20_000.0
    duration_slots_min: int = 10
    duration_slots_max: int = 60
    horizon_slots: int = 60
    num_colors: int = 4
    num_samples: int = 24
    task_weight: float | None = None  # None → 1 / num_tasks

    def __post_init__(self) -> None:
        if self.num_chargers < 0 or self.num_tasks < 0:
            raise ValueError("num_chargers / num_tasks must be non-negative")
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.energy_min <= 0 or self.energy_max < self.energy_min:
            raise ValueError("invalid energy range")
        if self.duration_slots_min < 1 or self.duration_slots_max < self.duration_slots_min:
            raise ValueError("invalid duration range")
        if self.horizon_slots < self.duration_slots_max:
            raise ValueError(
                "horizon_slots must accommodate the longest task "
                f"({self.horizon_slots} < {self.duration_slots_max})"
            )

    @property
    def weight(self) -> float:
        """Per-task weight ``w_j`` (defaults to ``1/m`` as in the paper)."""
        if self.task_weight is not None:
            return self.task_weight
        return 1.0 / max(self.num_tasks, 1)

    def replace(self, **overrides) -> "SimulationConfig":
        """A copy with the given fields overridden."""
        return dataclasses.replace(self, **overrides)

    @classmethod
    def paper(cls) -> "SimulationConfig":
        """The full §7.1 parameterization (expensive)."""
        return cls(
            num_chargers=50,
            num_tasks=200,
            duration_slots_min=10,
            duration_slots_max=120,
            horizon_slots=120,
            num_samples=24,
        )

    @classmethod
    def quick(cls) -> "SimulationConfig":
        """A tiny instance for tests and micro-benchmarks."""
        return cls(
            num_chargers=8,
            num_tasks=24,
            energy_min=500.0,
            energy_max=2_000.0,
            duration_slots_min=2,
            duration_slots_max=8,
            horizon_slots=10,
            num_samples=16,
        )

    @classmethod
    def small_scale(cls) -> "SimulationConfig":
        """§7.3.1's small-network setting for optimality comparisons.

        5 chargers and 10 tasks on a 10 m × 10 m field, durations 1–5 min,
        required energy 200–800 J (the paper's "[200 J 800 kJ]" contains an
        evident typo; 200–800 J keeps utilities in the informative
        mid-range as in Fig. 8).
        """
        return cls(
            field_size=10.0,
            num_chargers=5,
            num_tasks=10,
            energy_min=200.0,
            energy_max=800.0,
            # The paper assumes every task lasts at least 2τ slots
            # (§3.1, t_e − t_r ≥ 2τT_s with τ = 1).
            duration_slots_min=2,
            duration_slots_max=5,
            horizon_slots=5,
            num_samples=24,
        )
