"""Seeded equivalence of the fast-path kernels against the reference path.

The perf layer (sparse column-compressed kernels, incremental sub-network
restriction, shared masked objectives) must be a pure optimization: same
seeds → same schedules and objective values as the dense reference
implementations it replaces.  These tests pin that on
several random instances, offline (C ∈ {1, 4}) and online.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import network_fingerprint
from repro.objective import HasteObjective
from repro.offline.centralized import CentralizedScheduler
from repro.online import run_online_haste
from repro.sim import SimulationConfig, sample_network

SEEDS = [7, 19, 123]


def make_net(seed: int):
    return sample_network(SimulationConfig.quick(), np.random.default_rng(seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("num_colors", [1, 4])
class TestOfflineEquivalence:
    def test_same_schedule_and_value(self, seed, num_colors):
        net = make_net(seed)
        ref = CentralizedScheduler(net, use_sparse=False).run(
            num_colors, rng=np.random.default_rng(seed)
        )
        opt = CentralizedScheduler(net).run(
            num_colors, rng=np.random.default_rng(seed)
        )
        assert np.array_equal(ref.schedule.sel, opt.schedule.sel)
        assert ref.objective_value == opt.objective_value
        assert ref.table == opt.table

    def test_lazy_counters_account_for_every_visit(self, seed, num_colors):
        # The scan counters the lazy sweep once split three ways still
        # account for every visit; with one eager sweep each is fresh.
        net = make_net(seed)
        opt = CentralizedScheduler(net).run(
            num_colors, rng=np.random.default_rng(seed)
        )
        assert opt.candidate_scans > 0
        assert opt.fresh_scans == opt.candidate_scans
        assert opt.pruned_skips == 0


@pytest.mark.parametrize("seed", SEEDS)
class TestSparseKernelEquivalence:
    def test_partition_gains_match_dense(self, seed):
        net = make_net(seed)
        sparse = HasteObjective(net)
        dense = HasteObjective(net, use_sparse=False)
        assert sparse.use_sparse and not dense.use_sparse
        rng = np.random.default_rng(seed)
        energies = rng.uniform(0.0, 2000.0, size=(5, net.m))
        for i in range(net.n):
            if net.policy_count(i) <= 1:
                continue
            for k in net.relevant_slots(i)[:3]:
                k = int(k)
                np.testing.assert_allclose(
                    sparse.partition_gains(energies[0], i, k),
                    dense.partition_gains(energies[0], i, k),
                    rtol=1e-12,
                    atol=1e-15,
                )
                rows = np.array([0, 2, 4])
                np.testing.assert_allclose(
                    sparse.partition_gains_rows(energies, rows, i, k),
                    dense.partition_gains(energies[rows], i, k),
                    rtol=1e-12,
                    atol=1e-15,
                )

    def test_apply_and_schedule_energy_bit_identical(self, seed):
        net = make_net(seed)
        sparse = HasteObjective(net)
        dense = HasteObjective(net, use_sparse=False)
        e_sparse = sparse.zero_energy((3,))
        e_dense = dense.zero_energy((3,))
        rng = np.random.default_rng(seed)
        for i in range(net.n):
            slots = net.relevant_slots(i)
            if net.policy_count(i) <= 1 or slots.size == 0:
                continue
            k = int(slots[0])
            p = int(rng.integers(1, net.policy_count(i)))
            rows = np.array([0, 2])
            sparse.apply_rows(e_sparse, rows, i, k, p)
            dense.apply_rows(e_dense, rows, i, k, p)
            sparse.apply(e_sparse[1], i, k, p)
            dense.apply(e_dense[1], i, k, p)
        assert np.array_equal(e_sparse, e_dense)

        res = CentralizedScheduler(net).run(1, rng=np.random.default_rng(seed))
        assert np.array_equal(
            sparse.energies_of_schedule(res.schedule),
            dense.energies_of_schedule(res.schedule),
        )
        assert sparse.value_of_schedule(res.schedule) == dense.value_of_schedule(
            res.schedule
        )


@pytest.mark.parametrize("seed", SEEDS)
class TestIncrementalRestriction:
    def test_matches_full_reconstruction(self, seed):
        net = make_net(seed)
        rng = np.random.default_rng(seed)
        ids = sorted(
            int(j) for j in rng.choice(net.m, size=max(net.m // 2, 1), replace=False)
        )
        fast = net.restricted_to_tasks(ids)
        full = net.restricted_to_tasks(ids, incremental=False)
        assert fast.task_origin == full.task_origin == ids
        assert fast.num_slots == full.num_slots
        for attr in (
            "dist",
            "azimuth",
            "receivable",
            "power",
            "active",
            "weights",
            "required_energy",
            "release_slots",
            "end_slots",
            "task_xy",
        ):
            assert np.array_equal(getattr(fast, attr), getattr(full, attr)), attr
        for i in range(net.n):
            assert np.array_equal(fast.cover_masks[i], full.cover_masks[i])
            assert np.array_equal(fast.policy_power[i], full.policy_power[i])
            assert np.array_equal(
                fast.policy_orientations[i],
                full.policy_orientations[i],
                equal_nan=True,
            )
            assert np.array_equal(fast.policy_tasks[i], full.policy_tasks[i])
            assert np.array_equal(fast.sparse_power[i], full.sparse_power[i])
        assert fast.neighbors == full.neighbors
        assert network_fingerprint(fast) == network_fingerprint(full)

    def test_restricted_network_schedules_identically(self, seed):
        net = make_net(seed)
        ids = list(range(0, net.m, 2))
        fast = net.restricted_to_tasks(ids)
        full = net.restricted_to_tasks(ids, incremental=False)
        r_fast = CentralizedScheduler(fast).run(1, rng=np.random.default_rng(seed))
        r_full = CentralizedScheduler(full).run(1, rng=np.random.default_rng(seed))
        assert np.array_equal(r_fast.schedule.sel, r_full.schedule.sel)
        assert r_fast.objective_value == r_full.objective_value


@pytest.mark.parametrize("seed", SEEDS)
class TestOnlineEquivalence:
    def test_arrival_trace_matches_reference(self, seed):
        net = make_net(seed)
        ref = run_online_haste(
            net, rng=np.random.default_rng(seed), use_sparse=False
        )
        opt = run_online_haste(net, rng=np.random.default_rng(seed))
        assert np.array_equal(ref.schedule.sel, opt.schedule.sel)
        assert ref.total_utility == opt.total_utility
        assert ref.events == opt.events

    def test_masked_view_matches_fresh_masked_objective(self, seed):
        net = make_net(seed)
        known = net.release_slots <= int(np.median(net.release_slots))
        view = HasteObjective(net).masked_view(known)
        fresh = HasteObjective(net, task_mask=known)
        assert np.array_equal(view.active, fresh.active)
        assert np.array_equal(view.weights, fresh.weights)
        energies = np.zeros(net.m)
        for i in range(net.n):
            slots = view.relevant_slots(i)
            assert np.array_equal(slots, fresh.relevant_slots(i))
            if net.policy_count(i) <= 1 or slots.size == 0:
                continue
            k = int(slots[0])
            assert np.array_equal(
                view.partition_gains(energies, i, k),
                fresh.partition_gains(energies, i, k),
            )


needs_ckernel = pytest.mark.skipif(
    __import__("repro.online.distributed", fromlist=["_C"])._C is None,
    reason="compiled negotiation kernels unavailable",
)


@needs_ckernel
class TestCKernelBitwise:
    """The compiled negotiation kernels against their NumPy formulas.

    ``fill`` and ``fold`` are element-wise IEEE operations and must match
    bit-for-bit; ``finish`` replicates NumPy's sequential axis-0 sum, so
    its verdict must equal the reference argmax exactly.
    """

    def test_fill_matches_numpy_elementwise(self):
        from repro.online import distributed

        rng = np.random.default_rng(0)
        S, m, R, P, t = 24, 40, 7, 5, 9
        view = rng.uniform(0.0, 2.0, (S, m))
        rows = np.sort(rng.choice(S, R, replace=False)).astype(np.intp)
        cols = np.sort(rng.choice(m, t, replace=False)).astype(np.intp)
        add = rng.uniform(0.0, 1.0, (P, t))
        E = rng.uniform(0.5, 3.0, t)
        tens = np.empty((R, P, t))
        distributed._C.fill(view, tens, rows, None, cols, add, E)
        cur = view[rows[:, None], cols][:, None, :]
        ref = np.minimum((cur + add) / E, 1.0) - np.minimum(cur / E, 1.0)
        assert np.array_equal(tens, ref)
        # Dirty-row refresh after the view changed under two rows.
        view[rows[1]] += 0.25
        view[rows[4]] += 0.5
        distributed._C.fill(view, tens, rows, [1, 4], cols, add, E)
        cur = view[rows[:, None], cols][:, None, :]
        ref = np.minimum((cur + add) / E, 1.0) - np.minimum(cur / E, 1.0)
        assert np.array_equal(tens, ref)

    def test_finish_matches_numpy_sum_argmax(self):
        from repro.online import distributed

        rng = np.random.default_rng(1)
        for R, P in [(1, 2), (6, 4), (24, 12)]:
            rg = rng.uniform(0.0, 1.0, (R, P))
            best_p, best_v = distributed._C.finish(rg, 24)
            total = rg.sum(axis=0) / 24
            assert best_p == int(total.argmax())
            assert best_v == float(total[best_p])

    def test_fold_matches_numpy_scatter(self):
        from repro.online import distributed

        rng = np.random.default_rng(2)
        n, S, m, R, t = 5, 8, 30, 4, 6
        views = rng.uniform(0.0, 1.0, (n, S, m))
        ref = views.copy()
        rows = np.sort(rng.choice(S, R, replace=False)).astype(np.intp)
        cols = np.sort(rng.choice(m, t, replace=False)).astype(np.intp)
        vals = rng.uniform(0.0, 1.0, t)
        distributed._C.fold(views, [0, 3, 4], rows, cols, vals)
        obs = np.array([0, 3, 4])
        ref[obs[:, None, None], rows[None, :, None], cols[None, None, :]] += vals
        assert np.array_equal(views, ref)


@needs_ckernel
@pytest.mark.parametrize("seed", SEEDS)
class TestCKernelProtocolEquivalence:
    """Same seeds → same negotiation outcome with and without the C path."""

    def test_negotiation_identical_without_c(self, seed, monkeypatch):
        from repro.online import distributed
        from repro.online.distributed import negotiate_window

        net = make_net(seed)
        slots = [int(k) for k in range(min(6, net.num_slots))]
        res_c = negotiate_window(
            net, HasteObjective(net), slots, 2,
            rng=np.random.default_rng(seed), num_samples=8,
        )
        monkeypatch.setattr(distributed, "_C", None)
        res_py = negotiate_window(
            net, HasteObjective(net), slots, 2,
            rng=np.random.default_rng(seed), num_samples=8,
        )
        assert res_c.table == res_py.table
        assert res_c.stats == res_py.stats
        assert res_c.commit_trace == res_py.commit_trace

    def test_online_run_identical_without_c(self, seed, monkeypatch):
        from repro.online import distributed

        net = make_net(seed)
        opt = run_online_haste(net, rng=np.random.default_rng(seed))
        monkeypatch.setattr(distributed, "_C", None)
        ref = run_online_haste(net, rng=np.random.default_rng(seed))
        assert np.array_equal(ref.schedule.sel, opt.schedule.sel)
        assert ref.total_utility == opt.total_utility
        assert ref.stats == opt.stats
