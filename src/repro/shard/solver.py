"""Sharded solving: tile-parallel HASTE with boundary reconciliation.

Entry point for the ``shards=…`` solver-spec parameter.  The offline path
runs Algorithm 2 per tile (through the same process-pool machinery the
sweep runner uses), re-negotiates the exact boundary set with Algorithm 3
over the fault layer's message bus — in task-disjoint parallel stages,
see :mod:`~repro.shard.reconcile` — and accounts the merged schedule
globally; the online path routes every arrival to its owning tile and runs
the full τ-delayed online runtime per tile.

Scale properties (the reason this module exists):

* the global ``(n, m)`` geometry matrices and dense per-policy blocks are
  never built — memory is ``O(Σ tile)``, not ``O(n · m)``,
* each tile is an ordinary sub-solve whose wall time depends on tile area,
  not field area, so a fixed-tile-size sweep scales linearly in ``n`` and
  the tile solves are pool-parallel,
* ``shards=1`` routes to the untouched unsharded code path (bit-identical
  by construction, pinned by the shard tests).

Workers are module-level functions taking picklable payloads (sliced
:class:`~repro.solvers.instance.Instance` objects + seed sequences), the
same pattern :mod:`repro.sim.runner` uses for sweep workers.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from .. import obs
from ..faults.model import FaultModel
from ..offline.centralized import CentralizedScheduler
from ..offline.smoothing import smooth_switches
from ..online.runtime import run_online_haste
from ..sim.parallel import parallel_starmap
from ..solvers.artifact import RunArtifact
from ..solvers.instance import Instance
from ..solvers.registry import SolverError
from .execute import ChargerPlan, charger_plans_from_network, execute_merged
from .reconcile import find_boundary_chargers, reconcile_boundary
from .subproblem import (
    activity_matrix_from_arrays,
    slice_instance,
    utility_from_arrays,
)
from .tiles import make_partition

__all__ = [
    "solve_sharded",
    "solve_offline_sharded",
    "solve_online_sharded",
    "fingerprint_from_plans",
]


def fingerprint_from_plans(
    plans_by_charger: dict[int, ChargerPlan], n: int, num_slots: int
) -> str:
    """The global :func:`~repro.core.policy.network_fingerprint`, assembled
    from per-charger policy orientations without the global network.

    Valid because every plan's source net contained the charger's complete
    receivable set, so its policy list (count and orientations) is exactly
    the global one — pinned against the real fingerprint by the shard
    tests.
    """
    parts = [f"n={n}", f"K={num_slots}"]
    for i in range(n):
        orients = np.round(
            np.nan_to_num(plans_by_charger[i].orientations, nan=-1.0), 6
        )
        parts.append(f"{i}:{orients.size}:{orients.tolist()!r}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _resolve_shard_params(params, config, *, online: bool) -> dict:
    colors = params["c"] if params["c"] is not None else config.num_colors
    samples = (
        params["samples"] if params["samples"] is not None else config.num_samples
    )
    shards = params["shards"]
    if not isinstance(shards, (int, np.integer)) or isinstance(shards, bool) or shards < 1:
        raise SolverError(f"shards must be a positive integer, got {shards!r}")
    procs = params.get("shard_procs", 0)
    opts = {
        "colors": int(colors),
        "samples": int(samples),
        "final_draws": int(params["final_draws"]),
        "sparse": bool(params["sparse"]),
        "rho": float(config.rho),
        "shards": int(shards),
        "halo": params["halo"],
        "procs": None if int(procs) <= 0 else int(procs),
    }
    if online:
        tau = params["tau"] if params["tau"] is not None else config.tau
        opts["tau"] = int(tau)
    else:
        opts["smooth"] = bool(params["smooth"])
        opts["utility"] = params["utility"]
        opts["gamma"] = float(params["gamma"])
    return opts


def _partition_instance(instance: Instance, opts):
    try:
        return make_partition(
            instance.charger_xy,
            instance.task_xy,
            instance.charger_radius,
            shards=opts["shards"],
            halo=opts["halo"],
        )
    except ValueError as exc:
        raise SolverError(str(exc)) from None


def _partition_and_subs(instance: Instance, opts, prepared=None):
    """The tile partition + sliced per-tile sub-instances for this solve.

    With a :class:`~repro.solvers.prepared.PreparedNetwork` the state is
    computed once per ``(shards, halo)`` and cached on the prepared object
    — the sharded path's prepare phase (tile slicing is deterministic in
    the instance arrays, and the workers never mutate the subs).  Without
    one, the partition is built fresh and slicing happens per job, exactly
    the pre-refactor path.
    """
    if prepared is not None:
        try:
            state = prepared.shard_state(opts["shards"], opts["halo"])
        except ValueError as exc:
            raise SolverError(str(exc)) from None
        return state["partition"], state["subs"]
    return _partition_instance(instance, opts), None


def _idle_plans(sub: Instance, charger_ids, task_ids, num_slots) -> list[ChargerPlan]:
    """All-idle plans for a tile that has chargers but nothing to solve."""
    net = sub.network()
    sel = np.zeros((net.n, net.num_slots), dtype=np.int32)
    return charger_plans_from_network(net, charger_ids, task_ids, sel, num_slots)


# ----------------------------------------------------------------------
# Pool workers (module-level: they cross process boundaries)
# ----------------------------------------------------------------------
def _offline_tile_worker(
    sub: Instance,
    charger_ids: np.ndarray,
    task_ids: np.ndarray,
    seed_seq,
    opts: dict,
    num_slots: int,
) -> dict:
    if sub.m == 0:
        return {
            "plans": _idle_plans(sub, charger_ids, task_ids, num_slots),
            "objective_value": 0.0,
            "plan_s": 0.0,
        }
    net = sub.network()
    util = (
        None
        if opts["utility"] is None
        else utility_from_arrays(net.required_energy, opts["utility"], opts["gamma"])
    )
    rng = np.random.default_rng(seed_seq)
    start = time.perf_counter()
    result = CentralizedScheduler(net, utility=util, use_sparse=opts["sparse"]).run(
        opts["colors"],
        num_samples=opts["samples"],
        rng=rng,
        final_draws=opts["final_draws"],
    )
    schedule = result.schedule
    if opts["smooth"]:
        schedule = smooth_switches(net, schedule, rho=opts["rho"], utility=util)
    plan_s = time.perf_counter() - start
    return {
        "plans": charger_plans_from_network(
            net, charger_ids, task_ids, schedule.sel, num_slots
        ),
        "objective_value": float(result.objective_value),
        "plan_s": plan_s,
    }


def _online_tile_worker(
    sub: Instance,
    charger_ids: np.ndarray,
    task_ids: np.ndarray,
    seed_seq,
    opts: dict,
    num_slots: int,
    fault_model: FaultModel | None,
) -> dict:
    if sub.m == 0:
        return {
            "plans": _idle_plans(sub, charger_ids, task_ids, num_slots),
            "events": 0,
            "stats": None,
            "faults": None,
            "plan_s": 0.0,
        }
    net = sub.network()
    rng = np.random.default_rng(seed_seq)
    start = time.perf_counter()
    run = run_online_haste(
        net,
        num_colors=opts["colors"],
        num_samples=opts["samples"],
        tau=opts["tau"],
        rho=opts["rho"],
        rng=rng,
        final_draws=opts["final_draws"],
        use_sparse=opts["sparse"],
        fault_model=fault_model,
    )
    plan_s = time.perf_counter() - start
    return {
        "plans": charger_plans_from_network(
            net, charger_ids, task_ids, run.schedule.sel, num_slots
        ),
        "events": int(run.events),
        "stats": run.stats.as_dict(),
        "faults": run.fault_stats.as_dict() if run.fault_stats is not None else None,
        "plan_s": plan_s,
    }


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def _tile_jobs(instance, partition, seeds, opts, num_slots, extra=(), subs=None):
    jobs = []
    tile_index = []
    for t in range(partition.num_tiles):
        chargers = partition.tile_chargers[t]
        if chargers.size == 0:
            continue
        tasks = partition.tile_tasks[t]
        sub = (
            subs[t]
            if subs is not None
            else slice_instance(instance, chargers, tasks)
        )
        jobs.append((sub, chargers, tasks, seeds[t], opts, num_slots) + tuple(extra))
        tile_index.append(t)
    return jobs, tile_index


def _shard_meta(partition, opts, tile_index, tile_plan_s):
    return {
        "shards": opts["shards"],
        "grid": list(partition.grid),
        "halo": float(partition.halo),
        "tiles": partition.num_tiles,
        "empty_tiles": len(partition.empty_tiles()),
        "solved_tiles": [int(t) for t in tile_index],
        "tile_plan_s": [float(s) for s in tile_plan_s],
        "tile_plan_s_max": float(max(tile_plan_s, default=0.0)),
    }


def solve_offline_sharded(
    instance: Instance, params, rng: np.random.Generator, config, prepared=None
) -> RunArtifact:
    """Sharded Algorithm 2: per-tile solves + boundary negotiation."""
    opts = _resolve_shard_params(params, config, online=False)
    start = time.perf_counter()
    partition, subs = _partition_and_subs(instance, opts, prepared)
    num_slots = int(instance.end_slots.max()) if instance.m else 0
    root = int(rng.integers(0, 2**63 - 1))
    seeds = np.random.SeedSequence(root).spawn(partition.num_tiles + 1)

    with obs.span("shard.run", setting="offline", shards=opts["shards"]):
        jobs, tile_index = _tile_jobs(
            instance, partition, seeds, opts, num_slots, subs=subs
        )
        with obs.span("shard.tile_solve", tiles=len(jobs)):
            results = parallel_starmap(
                _offline_tile_worker, jobs, processes=opts["procs"]
            )
        plans = [p for r in results for p in r["plans"]]
        plans_by_charger = {p.charger: p for p in plans}

        boundary = find_boundary_chargers(plans, partition.owner, instance.m)
        boundary_set = set(int(i) for i in boundary)
        interior_plans = [p for p in plans if p.charger not in boundary_set]

        active = activity_matrix_from_arrays(
            instance.release_slots, instance.end_slots, num_slots
        )
        util = utility_from_arrays(
            instance.required_energy, opts["utility"], opts["gamma"]
        )
        interior_exec = execute_merged(
            interior_plans,
            active=active,
            weights=instance.weights,
            utility=util,
            rho=0.0,
            slot_seconds=instance.slot_seconds,
            num_chargers=instance.n,
        )
        with obs.span("shard.reconcile", boundary=int(boundary.size)):
            recon = reconcile_boundary(
                instance,
                plans_by_charger,
                boundary,
                partition.owner,
                interior_exec.relaxed_energies,
                np.random.default_rng(seeds[-1]),
                num_colors=opts["colors"],
                num_samples=opts["samples"],
                final_draws=opts["final_draws"],
                use_sparse=opts["sparse"],
                utility_family=opts["utility"],
                gamma=opts["gamma"],
                num_slots=num_slots,
                processes=opts["procs"],
            )
        final_plans = interior_plans + list(recon.plans)
        if len(final_plans) != instance.n:  # pragma: no cover - invariant
            raise RuntimeError(
                f"merged plan covers {len(final_plans)} of {instance.n} chargers"
            )
        plan_s = time.perf_counter() - start
        with obs.span("shard.execute"):
            merged = execute_merged(
                final_plans,
                active=active,
                weights=instance.weights,
                utility=util,
                rho=float(config.rho),
                slot_seconds=instance.slot_seconds,
                num_chargers=instance.n,
            )

    tile_plan_s = [r["plan_s"] for r in results]
    # What the run would cost with one worker per tile / per stage group:
    # serial residue + slowest tile + the staged reconciliation path.
    critical_path_s = (
        plan_s
        - sum(tile_plan_s)
        - recon.serial_s
        + max(tile_plan_s, default=0.0)
        + recon.path_s
    )
    meta = {
        "plan_s": plan_s,
        "shard": {
            **_shard_meta(partition, opts, tile_index, tile_plan_s),
            "boundary_chargers": int(boundary.size),
            "interior_chargers": int(instance.n - boundary.size),
            "reconcile_tasks": int(recon.task_ids.size),
            "reconcile_groups": recon.group_sizes,
            "reconcile_stages": [list(stage) for stage in recon.stages],
            "reconcile_group_s": recon.group_s,
            "reconcile_path_s": recon.path_s,
            "reconcile_serial_s": recon.serial_s,
            "critical_path_s": float(critical_path_s),
            "tile_objective_values": [
                float(r["objective_value"]) for r in results
            ],
        },
    }
    if obs.enabled():
        obs.inc("shard.runs")
        obs.inc("shard.tiles", len(jobs))
        obs.inc("shard.empty_tiles", partition.num_tiles - len(jobs))
        obs.inc("shard.boundary_chargers", int(boundary.size))
        obs.inc("shard.interior_chargers", int(instance.n - boundary.size))
    return RunArtifact(
        total_utility=merged.total_utility,
        relaxed_utility=merged.relaxed_utility,
        objective_value=None,
        energies=merged.energies,
        task_utilities=merged.task_utilities,
        schedule_sel=merged.schedule_sel,
        fingerprint=fingerprint_from_plans(plans_by_charger, instance.n, num_slots),
        switch_count=merged.switch_count,
        message_stats=recon.message_stats,
        meta=meta,
    )


def _merge_stat_dicts(dicts):
    merged: dict = {}
    for d in dicts:
        if not d:
            continue
        for key, value in d.items():
            merged[key] = merged.get(key, 0) + value
    return merged or None


def solve_online_sharded(
    instance: Instance, params, rng: np.random.Generator, config, prepared=None
) -> RunArtifact:
    """Sharded HASTE-DO: every arrival handled by its owning tile."""
    opts = _resolve_shard_params(params, config, online=True)
    base_model = FaultModel(
        loss=float(params["loss"]),
        duplicate=float(params["dup"]),
        delay=float(params["delay"]),
        crash=int(params["crash"]),
        crash_len=int(params["crash_len"]),
        timeout=int(params["fault_timeout"]),
        retry=int(params["fault_retry"]),
        max_rounds=int(params["fault_rounds"]),
        seed=int(params["fault_seed"]),
    )
    start = time.perf_counter()
    partition, subs = _partition_and_subs(instance, opts, prepared)
    num_slots = int(instance.end_slots.max()) if instance.m else 0
    root = int(rng.integers(0, 2**63 - 1))
    seeds = np.random.SeedSequence(root).spawn(partition.num_tiles)

    with obs.span("shard.run", setting="online", shards=opts["shards"]):
        jobs = []
        tile_index = []
        for t in range(partition.num_tiles):
            chargers = partition.tile_chargers[t]
            if chargers.size == 0:
                continue
            tasks = partition.tile_tasks[t]
            model = (
                None
                if base_model.is_null()
                else FaultModel.from_dict(
                    {**base_model.as_dict(), "seed": base_model.seed + t}
                )
            )
            sub = (
                subs[t]
                if subs is not None
                else slice_instance(instance, chargers, tasks)
            )
            jobs.append((sub, chargers, tasks, seeds[t], opts, num_slots, model))
            tile_index.append(t)
        with obs.span("shard.tile_solve", tiles=len(jobs)):
            results = parallel_starmap(
                _online_tile_worker, jobs, processes=opts["procs"]
            )
        plans = [p for r in results for p in r["plans"]]
        plans_by_charger = {p.charger: p for p in plans}
        active = activity_matrix_from_arrays(
            instance.release_slots, instance.end_slots, num_slots
        )
        util = utility_from_arrays(instance.required_energy, None, 0.5)
        plan_s = time.perf_counter() - start
        with obs.span("shard.execute"):
            merged = execute_merged(
                plans,
                active=active,
                weights=instance.weights,
                utility=util,
                rho=float(config.rho),
                slot_seconds=instance.slot_seconds,
                num_chargers=instance.n,
            )

    events = int(sum(r["events"] for r in results))
    tile_plan_s = [r["plan_s"] for r in results]
    meta = {
        "plan_s": plan_s,
        "shard": {
            **_shard_meta(partition, opts, tile_index, tile_plan_s),
            "tile_events": [int(r["events"]) for r in results],
            "arrival_s_mean": (sum(tile_plan_s) / events) if events else 0.0,
            "critical_path_s": float(
                plan_s - sum(tile_plan_s) + max(tile_plan_s, default=0.0)
            ),
        },
    }
    faults = _merge_stat_dicts(r["faults"] for r in results)
    if faults is not None:
        meta["faults"] = faults
    if obs.enabled():
        obs.inc("shard.runs")
        obs.inc("shard.tiles", len(jobs))
        obs.inc("shard.empty_tiles", partition.num_tiles - len(jobs))
        obs.inc("shard.events", events)
    return RunArtifact(
        total_utility=merged.total_utility,
        relaxed_utility=merged.relaxed_utility,
        objective_value=None,
        energies=merged.energies,
        task_utilities=merged.task_utilities,
        schedule_sel=merged.schedule_sel,
        fingerprint=fingerprint_from_plans(plans_by_charger, instance.n, num_slots),
        switch_count=merged.switch_count,
        events=events,
        message_stats=_merge_stat_dicts(r["stats"] for r in results),
        meta=meta,
    )


def solve_sharded(
    setting: str,
    instance: Instance,
    params,
    rng: np.random.Generator,
    config,
    *,
    prepared=None,
) -> RunArtifact:
    """Dispatch a sharded solve by solver setting (``offline``/``online``).

    ``prepared`` (a :class:`~repro.solvers.prepared.PreparedNetwork`)
    supplies cached per-tile state — partition + sliced sub-instances —
    so warm repeated solves of one ``content_hash`` skip the slicing; the
    global network is never built either way.
    """
    if setting == "offline":
        return solve_offline_sharded(instance, params, rng, config, prepared)
    if setting == "online":
        return solve_online_sharded(instance, params, rng, config, prepared)
    raise SolverError(f"sharding is not supported for setting {setting!r}")
