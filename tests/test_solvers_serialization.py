"""Round-trip tests for :class:`Instance` and :class:`RunArtifact`.

Both formats (JSON and NPZ) must preserve every array exactly — dtype,
shape, and bit-for-bit values — because replayed runs are asserted
bit-identical to in-process ones.  Property-style tests sample instances
across seeds and shapes; edge cases (zero tasks, a single charger) get
explicit coverage.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SimulationConfig
from repro.sim.workload import sample_network
from repro.solvers import Instance, RunArtifact, solve_instance
from repro.solvers.artifact import decode_array, encode_array

QUICK = SimulationConfig.quick()


def _assert_instances_identical(a: Instance, b: Instance) -> None:
    assert a == b  # includes per-array dtype and value equality
    assert a.content_hash() == b.content_hash()
    assert a.config == b.config
    assert a.seed == b.seed


def _assert_artifacts_identical(a: RunArtifact, b: RunArtifact) -> None:
    for name in ("energies", "task_utilities", "schedule_sel"):
        xa, xb = getattr(a, name), getattr(b, name)
        assert xa.dtype == xb.dtype, name
        assert xa.shape == xb.shape, name
        assert np.array_equal(xa, xb), name
    assert a.solver == b.solver
    assert a.total_utility == b.total_utility
    assert a.relaxed_utility == b.relaxed_utility
    assert a.objective_value == b.objective_value
    assert a.switch_count == b.switch_count
    assert a.events == b.events
    assert a.message_stats == b.message_stats
    assert a.fingerprint == b.fingerprint
    assert a.content_hash() == b.content_hash()


class TestEncodeArray:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e9,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
                width=64,
            ),
            min_size=0,
            max_size=16,
        ),
        st.sampled_from([np.float64, np.int64, np.int32]),
    )
    def test_roundtrip_exact(self, values, dtype):
        arr = np.asarray(values, dtype=np.float64).astype(dtype)
        back = decode_array(encode_array(arr))
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_2d_and_empty_shapes(self):
        for arr in (
            np.zeros((0, 2)),
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.zeros(0, dtype=np.int64),
        ):
            back = decode_array(encode_array(arr))
            assert back.dtype == arr.dtype and back.shape == arr.shape
            assert np.array_equal(back, arr)


class TestInstanceRoundTrip:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_sampled_instance_roundtrips_both_formats(self, seed, tmp_path_factory):
        inst = Instance.sample(QUICK, seed)
        tmp = tmp_path_factory.mktemp("inst")
        for suffix in (".json", ".npz"):
            path = tmp / f"i{suffix}"
            inst.save(path)
            _assert_instances_identical(inst, Instance.load(path))

    def test_hash_stable_across_formats(self, tmp_path):
        inst = Instance.sample(QUICK, 5)
        inst.save(tmp_path / "a.json")
        inst.save(tmp_path / "a.npz")
        assert (
            Instance.load(tmp_path / "a.json").content_hash()
            == Instance.load(tmp_path / "a.npz").content_hash()
            == inst.content_hash()
        )

    def test_zero_task_instance(self, tmp_path):
        inst = Instance.sample(QUICK.replace(num_tasks=0), 1)
        assert inst.m == 0
        for suffix in (".json", ".npz"):
            path = tmp_path / f"z{suffix}"
            inst.save(path)
            loaded = Instance.load(path)
            _assert_instances_identical(inst, loaded)
            assert loaded.network().m == 0

    def test_single_charger_instance(self, tmp_path):
        inst = Instance.sample(QUICK.replace(num_chargers=1, num_tasks=3), 2)
        assert inst.n == 1
        for suffix in (".json", ".npz"):
            path = tmp_path / f"s{suffix}"
            inst.save(path)
            _assert_instances_identical(inst, Instance.load(path))

    def test_anisotropic_model_roundtrips(self, tmp_path):
        from repro.core.power import AnisotropicPowerModel

        net = sample_network(QUICK, np.random.default_rng(9))
        from repro.core.network import ChargerNetwork

        aniso = ChargerNetwork(
            net.chargers,
            net.tasks,
            power_model=AnisotropicPowerModel(
                alpha=QUICK.alpha, beta=QUICK.beta, gain_exponent=2.0
            ),
            slot_seconds=net.slot_seconds,
        )
        inst = Instance.from_network(aniso, config=QUICK)
        path = tmp_path / "aniso.npz"
        inst.save(path)
        loaded = Instance.load(path)
        _assert_instances_identical(inst, loaded)
        assert loaded.gain_exponent == 2.0
        assert np.array_equal(loaded.network().power, aniso.power)

    def test_rebuilt_network_is_bit_identical(self):
        net = sample_network(QUICK, np.random.default_rng(13))
        rebuilt = Instance.from_network(net, config=QUICK).network()
        assert np.array_equal(rebuilt.power, net.power)
        assert np.array_equal(rebuilt.receivable, net.receivable)
        assert np.array_equal(rebuilt.policy_power_flat, net.policy_power_flat)

    def test_bad_format_rejected(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="unknown instance format"):
            Instance.load(path)


class TestInstanceValidation:
    def test_sampled_instances_are_finite(self):
        for seed in range(3):
            assert Instance.sample(QUICK, seed).validate() == []

    def test_every_non_finite_field_is_listed(self, tmp_path):
        inst = Instance.sample(QUICK, 5)
        inst.charger_angle = inst.charger_angle.copy()
        inst.charger_angle[0] = np.nan
        inst.required_energy = inst.required_energy.copy()
        inst.required_energy[[1, 2, 3, 4]] = -np.inf
        inst.beta = float("nan")
        errors = inst.validate()
        assert len(errors) == 3
        assert any("required_energy has 4" in e and "1 more" in e for e in errors)
        path = tmp_path / "bad.npz"
        inst.save(path)  # saving is allowed; loading it back is refused
        with pytest.raises(ValueError, match="3 invalid instance field") as err:
            Instance.load(path)
        for name in ("charger_angle", "required_energy", "beta"):
            assert name in str(err.value)


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("spec", ["greedy-utility", "online-haste:c=1"])
    def test_solved_artifact_roundtrips_both_formats(self, spec, tmp_path):
        inst = Instance.sample(QUICK, 21)
        art = solve_instance(spec, inst)
        for suffix in (".json", ".npz"):
            path = tmp_path / f"a{suffix}"
            art.save(path)
            _assert_artifacts_identical(art, RunArtifact.load(path))

    def test_schedule_sel_dtype_preserved(self, tmp_path):
        art = solve_instance("static", Instance.sample(QUICK, 3))
        assert art.schedule_sel.dtype == np.int32
        art.save(tmp_path / "a.npz")
        assert RunArtifact.load(tmp_path / "a.npz").schedule_sel.dtype == np.int32
        art.save(tmp_path / "a.json")
        assert RunArtifact.load(tmp_path / "a.json").schedule_sel.dtype == np.int32

    def test_zero_task_artifact(self, tmp_path):
        # Schedulers require at least one task, but the artifact container
        # itself must round-trip the degenerate shape.
        art = RunArtifact(
            solver="static",
            total_utility=0.0,
            relaxed_utility=0.0,
            objective_value=None,
            energies=np.zeros(0),
            task_utilities=np.zeros(0),
            schedule_sel=np.zeros((2, 0), dtype=np.int32),
            fingerprint="empty",
            switch_count=0,
        )
        assert art.energies.shape == (0,)
        for suffix in (".json", ".npz"):
            path = tmp_path / f"z{suffix}"
            art.save(path)
            _assert_artifacts_identical(art, RunArtifact.load(path))

    def test_content_hash_ignores_timing_but_not_results(self):
        inst = Instance.sample(QUICK, 4)
        a = solve_instance("greedy-utility", inst)
        b = solve_instance("greedy-utility", inst)
        assert a.wall_time_s != b.wall_time_s or a.wall_time_s >= 0.0
        assert a.content_hash() == b.content_hash()
        c = solve_instance("greedy-cover", inst)
        assert c.content_hash() != a.content_hash()

    def test_optimal_artifact_keeps_objective(self, tmp_path):
        inst = Instance.sample(SimulationConfig.small_scale(), 6)
        art = solve_instance("offline-optimal", inst)
        assert art.objective_value is not None
        art.save(tmp_path / "o.json")
        loaded = RunArtifact.load(tmp_path / "o.json")
        assert loaded.objective_value == art.objective_value
        assert loaded.meta.get("status") == art.meta.get("status")


def _assert_meta_bit_exact(a: dict, b: dict) -> None:
    """Equality plus float-representation identity (catches -0.0 vs 0.0
    and any rounding a lossy encoder would introduce)."""
    assert a == b
    assert (json.dumps(a, sort_keys=True, allow_nan=False)
            == json.dumps(b, sort_keys=True, allow_nan=False))


_FAULT_KEYS = (
    "drops", "crash_drops", "duplicates", "delayed", "retransmits",
    "acks", "giveups", "expiries", "aborts", "crashed_skips",
)
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_fault_meta = st.dictionaries(
    st.sampled_from(_FAULT_KEYS), st.integers(0, 2**53 - 1), min_size=1
)
_shard_meta = st.fixed_dictionaries(
    {
        "shards": st.integers(1, 64),
        "grid": st.lists(st.integers(1, 8), min_size=2, max_size=2),
        "halo": _finite,
        "tiles": st.integers(0, 64),
        "empty_tiles": st.integers(0, 64),
        "solved_tiles": st.lists(st.integers(0, 63), max_size=8),
        "tile_plan_s": st.lists(_finite, max_size=8),
        "tile_events": st.lists(st.integers(0, 10**6), max_size=8),
        "arrival_s_mean": _finite,
        "critical_path_s": _finite,
    }
)


class TestArtifactMetaRoundTrip:
    """Hypothesis: ``meta["faults"]`` and the shard metadata dict survive
    both serialization formats bit-exactly."""

    @settings(max_examples=30, deadline=None)
    @given(faults=_fault_meta, shard=_shard_meta, plan_s=_finite)
    def test_generated_meta_roundtrips_both_formats(
        self, faults, shard, plan_s, tmp_path_factory
    ):
        art = RunArtifact(
            solver="online-haste:c=1,shards=2",
            total_utility=0.5,
            relaxed_utility=0.5,
            objective_value=None,
            energies=np.arange(3, dtype=np.float64),
            task_utilities=np.zeros(3),
            schedule_sel=np.zeros((2, 3), dtype=np.int32),
            fingerprint="meta-roundtrip",
            switch_count=1,
            meta={"plan_s": plan_s, "faults": faults, "shard": shard},
        )
        back = RunArtifact.from_dict(art.to_dict())
        _assert_artifacts_identical(art, back)
        _assert_meta_bit_exact(art.meta, back.meta)
        tmp = tmp_path_factory.mktemp("meta")
        for suffix in (".json", ".npz"):
            path = tmp / f"m{suffix}"
            art.save(path)
            loaded = RunArtifact.load(path)
            _assert_artifacts_identical(art, loaded)
            _assert_meta_bit_exact(art.meta, loaded.meta)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_solved_fault_and_shard_meta_roundtrip(self, seed, tmp_path_factory):
        inst = Instance.sample(QUICK, seed)
        tmp = tmp_path_factory.mktemp("solved")
        for spec in ("online-haste:fault_seed=5,loss=0.2",
                     "online-haste:c=1,shards=2"):
            art = solve_instance(spec, inst)
            assert "faults" in art.meta or "shard" in art.meta
            for suffix in (".json", ".npz"):
                path = tmp / f"s{suffix}"
                art.save(path)
                loaded = RunArtifact.load(path)
                _assert_artifacts_identical(art, loaded)
                _assert_meta_bit_exact(
                    {k: v for k, v in art.meta.items() if k != "plan_s"},
                    {k: v for k, v in loaded.meta.items() if k != "plan_s"},
                )
