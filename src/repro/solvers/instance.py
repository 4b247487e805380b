"""Serializable problem instances: network + tasks + config + seed.

An :class:`Instance` captures one concrete HASTE scenario — charger and
task placements, windows, energies, the power model, and the
:class:`~repro.sim.config.SimulationConfig` that generated it — in plain
arrays.  It round-trips through JSON and NPZ exactly (dtype, shape, and
bit-for-bit values), hashes canonically, and rebuilds a
:class:`~repro.core.network.ChargerNetwork` that is indistinguishable from
the original: all network precomputation is deterministic in the entity
fields, so ``Instance.from_network(net).network()`` schedules identically
to ``net``.

This is the unit of work for replay and shipping: the CLI can ``instance
sample`` a scenario to disk, ``solve`` can run any registered solver on it
in another process, and the resulting utilities match the in-process run
bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.charger import Charger
from ..core.network import ChargerNetwork
from ..core.power import AnisotropicPowerModel, PowerModel
from ..core.task import ChargingTask
from ..sim.config import SimulationConfig
from ..sim.workload import sample_entities
from .artifact import decode_array, encode_array

__all__ = ["Instance", "clear_network_cache", "network_cache_info"]

INSTANCE_FORMAT = "repro-haste-instance-v1"


# The PR 5 ad-hoc network LRU that lived here was folded into the
# prepared-state cache (:mod:`repro.solvers.prepared`): one cache, one
# eviction policy, keyed by :meth:`Instance.content_hash`.  These two
# names remain the public cache-control surface for network consumers.
def clear_network_cache() -> None:
    """Drop every cached prepare/network (tests; memory pressure at large n)."""
    from .prepared import clear_prepared_cache

    clear_prepared_cache()


def network_cache_info() -> dict:
    """Cache occupancy + counters (``size``/``capacity``/``hits``/…)."""
    from .prepared import prepared_cache_info

    return prepared_cache_info()

_ARRAY_FIELDS = (
    "charger_xy",
    "charger_angle",
    "charger_radius",
    "task_xy",
    "task_orientation",
    "release_slots",
    "end_slots",
    "required_energy",
    "receiving_angle",
    "weights",
)


@dataclass
class Instance:
    """One fully specified charging scenario, ready to save or solve.

    Entity arrays (not the generating distribution) are authoritative:
    ``config`` is carried along because solvers read defaults (``ρ``,
    ``τ``, colors, samples) from it, and ``seed`` records provenance when
    the instance was sampled rather than hand-built.
    """

    config: SimulationConfig
    seed: int | None = None
    charger_xy: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    charger_angle: np.ndarray = field(default_factory=lambda: np.zeros(0))
    charger_radius: np.ndarray = field(default_factory=lambda: np.zeros(0))
    task_xy: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    task_orientation: np.ndarray = field(default_factory=lambda: np.zeros(0))
    release_slots: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    end_slots: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    required_energy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    receiving_angle: np.ndarray = field(default_factory=lambda: np.zeros(0))
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    alpha: float = 10000.0
    beta: float = 40.0
    gain_exponent: float | None = None  # None → the paper's binary receiver
    slot_seconds: float = 60.0

    @property
    def n(self) -> int:
        return int(self.charger_xy.shape[0])

    @property
    def m(self) -> int:
        return int(self.task_xy.shape[0])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def sample(cls, config: SimulationConfig, seed: int, **sample_kwargs) -> "Instance":
        """Sample a fresh scenario from ``config`` with a pinned seed.

        ``sample_kwargs`` pass through to
        :func:`~repro.sim.workload.sample_entities` (position overrides,
        energy/duration ranges).  Sampling is network-free: the entity
        arrays are built directly, so instances far beyond global-network
        memory limits (``n = 10⁴–10⁶``, sharded solving) can be sampled,
        saved, and solved.  The rng stream matches
        :func:`~repro.sim.workload.sample_network`, so the same seed still
        denotes the same scenario (pinned by the instance tests).
        """
        entities = sample_entities(config, np.random.default_rng(seed), **sample_kwargs)
        return cls(
            config=config,
            seed=seed,
            alpha=float(config.alpha),
            beta=float(config.beta),
            gain_exponent=None,
            slot_seconds=float(config.slot_seconds),
            **entities,
        )

    @classmethod
    def from_network(
        cls,
        network: ChargerNetwork,
        *,
        config: SimulationConfig | None = None,
        seed: int | None = None,
    ) -> "Instance":
        """Snapshot an existing network into a serializable instance."""
        cfg = config if config is not None else SimulationConfig(
            num_chargers=network.n,
            num_tasks=network.m,
            slot_seconds=network.slot_seconds,
        )
        gain = getattr(network.power_model, "gain_exponent", None)
        return cls(
            config=cfg,
            seed=seed,
            charger_xy=np.array([[c.x, c.y] for c in network.chargers], dtype=float).reshape(network.n, 2),
            charger_angle=np.array(
                [c.charging_angle for c in network.chargers], dtype=float
            ),
            charger_radius=np.array([c.radius for c in network.chargers], dtype=float),
            task_xy=np.array([[t.x, t.y] for t in network.tasks], dtype=float).reshape(network.m, 2),
            task_orientation=np.array(
                [t.orientation for t in network.tasks], dtype=float
            ),
            release_slots=np.array(
                [t.release_slot for t in network.tasks], dtype=np.int64
            ),
            end_slots=np.array([t.end_slot for t in network.tasks], dtype=np.int64),
            required_energy=np.array(
                [t.required_energy for t in network.tasks], dtype=float
            ),
            receiving_angle=np.array(
                [t.receiving_angle for t in network.tasks], dtype=float
            ),
            weights=np.array([t.weight for t in network.tasks], dtype=float),
            alpha=float(network.power_model.alpha),
            beta=float(network.power_model.beta),
            gain_exponent=None if gain is None else float(gain),
            slot_seconds=float(network.slot_seconds),
        )

    def network(self, *, cached: bool = False) -> ChargerNetwork:
        """Rebuild the charger network (deterministic in the stored arrays).

        Task orientations were wrapped into ``[0, 2π)`` at original
        construction and ``wrap_angle`` is idempotent there, so the rebuilt
        entities carry bit-identical floats and every precomputed matrix
        matches the original network's.

        ``cached=True`` consults the process-wide prepared-state LRU keyed
        by :meth:`content_hash` — callers share the returned network, so
        the cached path is for read-only consumers (every solver; nothing
        in the repo mutates a built network).
        """
        if cached:
            from .prepared import PREPARED_CACHE

            prepared, hit = PREPARED_CACHE.get_or_prepare(self)
            if obs.enabled():
                obs.inc(
                    "instance.network_cache_hits"
                    if hit
                    else "instance.network_cache_misses"
                )
            return prepared.network
        chargers = [
            Charger(
                id=i,
                x=float(self.charger_xy[i, 0]),
                y=float(self.charger_xy[i, 1]),
                charging_angle=float(self.charger_angle[i]),
                radius=float(self.charger_radius[i]),
            )
            for i in range(self.n)
        ]
        tasks = [
            ChargingTask(
                id=j,
                x=float(self.task_xy[j, 0]),
                y=float(self.task_xy[j, 1]),
                orientation=float(self.task_orientation[j]),
                release_slot=int(self.release_slots[j]),
                end_slot=int(self.end_slots[j]),
                required_energy=float(self.required_energy[j]),
                receiving_angle=float(self.receiving_angle[j]),
                weight=float(self.weights[j]),
            )
            for j in range(self.m)
        ]
        if self.gain_exponent is None:
            model = PowerModel(alpha=self.alpha, beta=self.beta)
        else:
            model = AnisotropicPowerModel(
                alpha=self.alpha, beta=self.beta, gain_exponent=self.gain_exponent
            )
        return ChargerNetwork(
            chargers=chargers,
            tasks=tasks,
            power_model=model,
            slot_seconds=self.slot_seconds,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {
            "format": INSTANCE_FORMAT,
            "config": dataclasses.asdict(self.config),
            "seed": self.seed,
            "alpha": float(self.alpha),
            "beta": float(self.beta),
            "gain_exponent": (
                None if self.gain_exponent is None else float(self.gain_exponent)
            ),
            "slot_seconds": float(self.slot_seconds),
        }
        for name in _ARRAY_FIELDS:
            payload[name] = encode_array(getattr(self, name))
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Instance":
        """Rebuild an instance; refuse one with non-finite data.

        Every violation :meth:`validate` finds is listed in one
        ``ValueError`` (the serve protocol maps it to a single 400).
        """
        if payload.get("format") != INSTANCE_FORMAT:
            raise ValueError(f"unknown instance format {payload.get('format')!r}")
        arrays = {name: decode_array(payload[name]) for name in _ARRAY_FIELDS}
        instance = cls(
            config=SimulationConfig(**payload["config"]),
            seed=payload.get("seed"),
            alpha=float(payload["alpha"]),
            beta=float(payload["beta"]),
            gain_exponent=(
                None
                if payload.get("gain_exponent") is None
                else float(payload["gain_exponent"])
            ),
            slot_seconds=float(payload["slot_seconds"]),
            **arrays,
        )
        errors = instance.validate()
        if errors:
            raise ValueError(
                f"{len(errors)} invalid instance field(s): " + "; ".join(errors)
            )
        return instance

    def validate(self) -> list[str]:
        """Every non-finite value in the instance's float data, by field.

        Geometry, angles, energies, weights, the power model (α, β, gain
        exponent), the slot length and the config's float parameters must
        all be finite: solved, a NaN position reads as a plausible utility
        and an infinite weight as a NaN one.  Returns one message per
        offending field — empty when the instance is sound.
        """
        errors = []
        for name in _ARRAY_FIELDS:
            arr = np.asarray(getattr(self, name))
            if arr.dtype.kind not in "fc":
                continue
            bad = np.argwhere(~np.isfinite(arr))
            if len(bad):
                where = ", ".join(str([int(i) for i in idx]) for idx in bad[:3])
                more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
                errors.append(
                    f"{name} has {len(bad)} non-finite value(s) at {where}{more}"
                )
        scalars = [
            (name, getattr(self, name))
            for name in ("alpha", "beta", "gain_exponent", "slot_seconds")
        ] + [
            (f"config.{f.name}", getattr(self.config, f.name))
            for f in dataclasses.fields(self.config)
        ]
        for name, value in scalars:
            if isinstance(value, float) and not math.isfinite(value):
                errors.append(f"{name} is non-finite ({value!r})")
        return errors

    def save(self, path) -> None:
        """Write to ``path`` — JSON for ``.json``, NPZ for ``.npz``."""
        path = str(path)
        if path.endswith(".npz"):
            header = self.to_dict()
            arrays = {name: getattr(self, name) for name in _ARRAY_FIELDS}
            for name in _ARRAY_FIELDS:
                del header[name]
            np.savez(
                path,
                __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                **arrays,
            )
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "Instance":
        """Read an instance written by :meth:`save` (suffix-dispatched)."""
        path = str(path)
        if path.endswith(".npz"):
            with np.load(path) as data:
                header = json.loads(bytes(data["__header__"]).decode())
                if header.get("format") != INSTANCE_FORMAT:
                    raise ValueError(
                        f"unknown instance format {header.get('format')!r}"
                    )
                for name in _ARRAY_FIELDS:
                    header[name] = encode_array(data[name])
                return cls.from_dict(header)
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def content_hash(self) -> str:
        """sha256 of the canonical JSON form — stable across JSON/NPZ trips."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def describe(self) -> str:
        model = (
            "isotropic"
            if self.gain_exponent is None
            else f"anisotropic(κ={self.gain_exponent:g})"
        )
        horizon = int(self.end_slots.max()) if self.m else 0
        return (
            f"Instance(n={self.n}, m={self.m}, K={horizon}, "
            f"field={self.config.field_size:g}m, model={model}, "
            f"seed={self.seed}, hash={self.content_hash()[:12]})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        if (
            self.config != other.config
            or self.seed != other.seed
            or (self.alpha, self.beta, self.slot_seconds)
            != (other.alpha, other.beta, other.slot_seconds)
            or self.gain_exponent != other.gain_exponent
        ):
            return False
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            and getattr(self, name).dtype == getattr(other, name).dtype
            for name in _ARRAY_FIELDS
        )
