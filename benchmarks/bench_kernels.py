"""Micro-benchmarks for the library's hot kernels.

Not tied to a paper figure: these track the cost of the operations the
profiling pass identified as dominant (per the optimization guides —
measure, don't guess): network precomputation, dominant-set extraction,
the vectorized per-partition marginal scan, whole-schedule execution, one
centralized scheduling run, and one distributed negotiation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coverage import dominant_sets_from_arcs
from repro.objective import HasteObjective
from repro.offline import CentralizedScheduler, schedule_offline
from repro.online import negotiate_window
from repro.sim import SimulationConfig, execute_schedule, sample_network


@pytest.fixture(scope="module")
def network():
    cfg = SimulationConfig(
        num_chargers=16,
        num_tasks=60,
        duration_slots_min=5,
        duration_slots_max=20,
        horizon_slots=24,
    )
    return sample_network(cfg, np.random.default_rng(0))


def test_network_precompute(benchmark):
    cfg = SimulationConfig.quick()
    rng = np.random.default_rng(1)

    def build():
        return sample_network(cfg, np.random.default_rng(1))

    net = benchmark(build)
    assert net.n == cfg.num_chargers


def test_dominant_set_extraction(benchmark):
    rng = np.random.default_rng(2)
    azimuths = rng.uniform(0, 2 * np.pi, 64)
    idx = np.arange(64)

    result = benchmark(dominant_sets_from_arcs, idx, azimuths, np.pi / 3)
    assert result


def test_partition_gain_scan(benchmark, network):
    obj = HasteObjective(network)
    energies = obj.zero_energy((24,))
    i = next(i for i in range(network.n) if network.policy_count(i) > 1)
    k = int(network.relevant_slots(i)[0])

    gains = benchmark(obj.partition_gains, energies, i, k)
    assert gains.shape == (24, network.policy_count(i))


def test_schedule_execution(benchmark, network):
    res = schedule_offline(network, 1, rng=np.random.default_rng(3))

    ex = benchmark(execute_schedule, network, res.schedule, rho=1 / 12)
    assert ex.total_utility > 0


def test_centralized_c1(benchmark, network):
    scheduler = CentralizedScheduler(network)

    res = benchmark(scheduler.run, 1, rng=np.random.default_rng(4))
    assert res.objective_value > 0


def test_centralized_c4(benchmark, network):
    scheduler = CentralizedScheduler(network)

    res = benchmark.pedantic(
        lambda: scheduler.run(4, num_samples=16, rng=np.random.default_rng(5)),
        rounds=1,
        iterations=1,
    )
    assert res.objective_value > 0


def test_distributed_negotiation(benchmark, network):
    obj = HasteObjective(network)
    slots = [int(k) for k in range(min(6, network.num_slots))]

    res = benchmark.pedantic(
        lambda: negotiate_window(
            network, obj, slots, 1, rng=np.random.default_rng(6)
        ),
        rounds=1,
        iterations=1,
    )
    assert res.stats.negotiations > 0


# ----------------------------------------------------------------------
# Fast-path kernels: sparse policy matrices vs the dense reference, the
# centralized sweep, and the incremental per-arrival constructors.
# ----------------------------------------------------------------------
def _first_partition(network):
    i = next(i for i in range(network.n) if network.policy_count(i) > 1)
    return i, int(network.relevant_slots(i)[0])


@pytest.mark.parametrize("use_sparse", [False, True], ids=["dense", "sparse"])
def test_gain_kernel(benchmark, network, use_sparse):
    """Column-compressed gain scan vs the dense full-width reference."""
    obj = HasteObjective(network, use_sparse=use_sparse)
    energies = obj.zero_energy((24,))
    i, k = _first_partition(network)
    rows = np.arange(0, 24, 3)

    gains = benchmark(obj.partition_gains_rows, energies, rows, i, k)
    assert gains.shape == (rows.size, network.policy_count(i))


@pytest.mark.parametrize("use_sparse", [False, True], ids=["dense", "sparse"])
def test_apply_kernel(benchmark, network, use_sparse):
    """In-place policy application on matched sample rows."""
    obj = HasteObjective(network, use_sparse=use_sparse)
    energies = obj.zero_energy((24,))
    i, k = _first_partition(network)
    rows = np.arange(0, 24, 3)
    # Pick a policy that actually delivers energy at (i, k).
    policy = int(obj.added_energy(i, k).sum(axis=1).argmax())

    benchmark(obj.apply_rows, energies, rows, i, k, policy)
    assert energies.sum() > 0


@pytest.mark.parametrize("use_sparse", [False, True], ids=["dense", "sparse"])
def test_energies_of_schedule(benchmark, network, use_sparse):
    """Whole-schedule energy accumulation via the sparse column kernels."""
    res = schedule_offline(network, 1, rng=np.random.default_rng(7))
    obj = HasteObjective(network, use_sparse=use_sparse)

    energies = benchmark(obj.energies_of_schedule, res.schedule)
    assert energies.shape == (network.m,)


def test_centralized_sweep(benchmark, network):
    """Full C=4 TabularGreedy sweep."""
    scheduler = CentralizedScheduler(network)

    res = benchmark.pedantic(
        lambda: scheduler.run(4, num_samples=16, rng=np.random.default_rng(8)),
        rounds=1,
        iterations=1,
    )
    assert res.objective_value > 0


def test_masked_view_construction(benchmark, network):
    """Per-arrival knowledge masking via the incremental constructor."""
    base = HasteObjective(network)
    known = network.release_slots <= int(np.median(network.release_slots))

    view = benchmark(base.masked_view, known)
    assert view.network is network


def test_fresh_masked_objective(benchmark, network):
    """Reference for masked_view: rebuilding the objective from scratch."""
    known = network.release_slots <= int(np.median(network.release_slots))

    obj = benchmark(lambda: HasteObjective(network, task_mask=known))
    assert obj.network is network
