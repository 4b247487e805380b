"""Tests for the traffic generator, harness, report, and SLO gate.

Covers the ISSUE acceptance list: seeded determinism (identical arrival
trace digests and bit-identical ``TrafficReport`` content hashes),
windowed-percentile plumbing, zero-arrival and single-slot-burst edge
cases, spec pass-through (``shards=S`` and fault-injected specs run
under the generator unchanged), and the gate's pass/fail semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.sim.config import SimulationConfig
from repro.traffic import (
    Calibration,
    DiurnalProcess,
    MMPPProcess,
    PoissonProcess,
    TrafficModel,
    TrafficReport,
    drive_stream,
    evaluate_slo,
    make_process,
    run_traffic,
    update_baseline,
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Traffic runs borrow the global registry; leave it as found."""
    obs.shutdown()
    obs.get_registry().reset()
    yield
    obs.shutdown()
    obs.get_registry().reset()


CFG = SimulationConfig.quick()

#: A narrow-spread host calibration of 50 ms for baselines built in tests.
QUIET_CALIB = Calibration(seconds=0.05, spread=0.0)


def tiny_model(**overrides) -> TrafficModel:
    params = dict(process="mmpp", rate=1.5, horizon_slots=8, seed=7)
    params.update(overrides)
    return TrafficModel(**params)


class TestArrivalProcesses:
    def test_poisson_counts_and_phases(self):
        counts, phases = PoissonProcess(rate=3.0).sample(
            50, np.random.default_rng(0)
        )
        assert counts.shape == (50,)
        assert phases == ["steady"] * 50
        assert 1.0 < counts.mean() < 5.0

    def test_mmpp_has_two_phases_and_burstier_tail(self):
        proc = MMPPProcess(rate=2.0, burst_factor=8.0, burst_prob=0.3)
        counts, phases = proc.sample(400, np.random.default_rng(1))
        assert set(phases) == {"calm", "burst"}
        burst = counts[[p == "burst" for p in phases]]
        calm = counts[[p == "calm" for p in phases]]
        assert burst.mean() > 2.0 * calm.mean()

    def test_diurnal_envelope_and_labels(self):
        proc = DiurnalProcess(rate=2.0, period_slots=24, amplitude=0.8)
        rates = proc.rates(48)
        assert rates.min() >= 0.0
        assert rates.max() == pytest.approx(2.0 * 1.8)
        labels = proc.phase_labels(48)
        assert set(labels) == {"peak", "offpeak"}
        # The envelope is periodic (labels at sin-zero boundaries may
        # flip on floating-point noise, so compare the rates).
        np.testing.assert_allclose(rates[:24], rates[24:48], atol=1e-9)
        assert labels[1:12] == ["peak"] * 11
        assert labels[13:24] == ["offpeak"] * 11

    def test_make_process_dispatch_and_validation(self):
        assert isinstance(make_process("poisson", 1.0), PoissonProcess)
        assert isinstance(make_process("mmpp", 1.0), MMPPProcess)
        assert isinstance(make_process("diurnal", 1.0), DiurnalProcess)
        with pytest.raises(ValueError, match="unknown arrival process"):
            make_process("pareto", 1.0)
        with pytest.raises(ValueError, match="rate"):
            PoissonProcess(rate=-1.0)


class TestTrafficModelValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="process"):
            TrafficModel(process="nope")
        with pytest.raises(ValueError, match="load"):
            TrafficModel(load=-0.5)
        with pytest.raises(ValueError, match="fleet_scale"):
            TrafficModel(fleet_scale=0.0)
        with pytest.raises(ValueError, match="hotspot_frac"):
            TrafficModel(hotspot_frac=1.5)

    def test_round_trips_as_dict(self):
        model = tiny_model(hotspot_frac=0.4, fleet_scale=2.0)
        assert TrafficModel.from_dict(model.as_dict()) == model


class TestStreamDeterminism:
    def test_same_seed_same_digest(self):
        a = tiny_model().stream(CFG)
        b = tiny_model().stream(CFG)
        assert a.digest() == b.digest()
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.phases == b.phases
        assert a.instance.content_hash() == b.instance.content_hash()

    def test_different_seed_different_digest(self):
        assert (
            tiny_model(seed=1).stream(CFG).digest()
            != tiny_model(seed=2).stream(CFG).digest()
        )

    def test_load_changes_stream_not_topology(self):
        a = tiny_model().stream(CFG)
        b = tiny_model().with_load(3.0).stream(CFG)
        assert b.arrivals > a.arrivals
        np.testing.assert_array_equal(
            a.instance.charger_xy, b.instance.charger_xy
        )

    def test_release_slots_follow_counts(self):
        s = tiny_model().stream(CFG)
        release = s.instance.release_slots
        for k in range(s.horizon):
            assert int(np.sum(release == k)) == int(s.counts[k])

    def test_fleet_scale_grows_chargers_constant_density(self):
        base = tiny_model().stream(CFG)
        big = tiny_model(fleet_scale=4.0).stream(CFG)
        assert big.instance.n == 4 * base.instance.n
        assert big.config.field_size == pytest.approx(2.0 * CFG.field_size)

    def test_hotspot_concentrates_tasks(self):
        model = tiny_model(
            process="poisson", rate=8.0, hotspot_frac=1.0, hotspot_radius=0.1
        )
        s = model.stream(CFG)
        xy = s.instance.task_xy
        # Everything lands inside one disc of radius 0.1 × field.
        spread = np.linalg.norm(xy - xy.mean(axis=0), axis=1).max()
        assert spread <= 2 * 0.1 * s.config.field_size


class TestEdgeCases:
    def test_zero_arrival_stream(self):
        report = run_traffic(
            tiny_model(process="poisson", rate=0.0), CFG, telemetry=True
        )
        point = report.points[0]
        assert point["arrivals"] == 0
        assert point["events"] == 0
        assert point["utility"] == 0.0
        assert point["latency"]["count"] == 0

    def test_single_slot_burst(self):
        model = tiny_model(process="poisson", rate=6.0, horizon_slots=1)
        s = model.stream(CFG)
        assert s.horizon == 1
        assert (s.instance.release_slots == 0).all()
        report = run_traffic(model, CFG, telemetry=True)
        assert report.points[0]["arrivals"] == s.arrivals
        # One release slot → at most one negotiation event.
        assert report.points[0]["events"] <= 1

    def test_phase_of_slot_clamps(self):
        s = tiny_model().stream(CFG)
        assert s.phase_of_slot(-5) == s.phases[0]
        assert s.phase_of_slot(10_000) == s.phases[-1]


class TestHarness:
    def test_report_bit_identical_across_telemetry_modes(self):
        model = tiny_model()
        loads = (0.5, 1.0)
        with_obs = run_traffic(model, CFG, loads=loads, telemetry=True)
        without = run_traffic(model, CFG, loads=loads, telemetry=False)
        assert with_obs.content_hash() == without.content_hash()
        # And a straight replay reproduces the hash again.
        replay = run_traffic(model, CFG, loads=loads, telemetry=True)
        assert replay.content_hash() == with_obs.content_hash()

    def test_latency_sources_by_mode(self):
        model = tiny_model()
        live = run_traffic(model, CFG, telemetry=True)
        assert live.points[0]["latency"]["source"] == "spans"
        assert live.points[0]["latency"]["count"] == live.points[0]["events"]
        off = run_traffic(model, CFG, telemetry=False)
        assert off.points[0]["latency"]["source"] == "fallback"

    def test_phases_in_report_cover_stream_phases(self):
        model = tiny_model(seed=2043)  # seed with calm + burst slots
        s = model.stream(CFG)
        report = run_traffic(model, CFG, telemetry=True)
        assert set(report.points[0]["phase_arrivals"]) == set(s.phases)

    def test_harness_leaves_registry_as_found(self):
        assert not obs.enabled()
        run_traffic(tiny_model(), CFG, telemetry=True)
        assert not obs.enabled()
        reg = obs.configure()
        before = len(reg.sinks)
        run_traffic(tiny_model(), CFG, telemetry=True)
        assert obs.enabled()
        assert len(reg.sinks) == before

    def test_sharded_and_fault_specs_run_unchanged(self):
        model = tiny_model()
        plain = run_traffic(model, CFG, spec="online-haste", telemetry=True)
        sharded = run_traffic(
            model, CFG, spec="online-haste:shards=2", telemetry=True
        )
        faulty = run_traffic(
            model, CFG, spec="online-haste:loss=0.3,fault_seed=5",
            telemetry=True,
        )
        assert sharded.points[0]["digest"] == plain.points[0]["digest"]
        assert faulty.points[0]["digest"] == plain.points[0]["digest"]
        for rep in (plain, sharded, faulty):
            assert np.isfinite(rep.points[0]["utility"])
        assert sharded.spec == "online-haste:shards=2"

    def test_drive_stream_seed_default_is_model_seed(self):
        s = tiny_model().stream(CFG)
        a = drive_stream(s, telemetry=False)
        b = drive_stream(s, telemetry=False)
        assert a.artifact.content_hash() == b.artifact.content_hash()

    def test_queue_gauges_recorded(self):
        obs.configure()
        run_traffic(tiny_model(), CFG, telemetry=True)
        snap = obs.get_registry().snapshot()
        assert "online.inflight_tasks" in snap["gauges"]
        assert snap["histograms"]["online.arrival_backlog"]["count"] > 0


class TestReport:
    def test_round_trip_and_curves(self, tmp_path):
        report = run_traffic(
            tiny_model(), CFG, loads=(0.5, 1.0), telemetry=False
        )
        path = tmp_path / "report.json"
        report.save(path)
        loaded = TrafficReport.load(path)
        assert loaded.content_hash() == report.content_hash()
        assert [l for l, _ in loaded.utility_vs_load()] == [0.5, 1.0]
        assert len(loaded.latency_vs_load()) == 2
        with pytest.raises(KeyError):
            loaded.point(9.9)

    def test_summary_mentions_phases(self):
        report = run_traffic(tiny_model(seed=2043), CFG, telemetry=True)
        text = report.summary()
        assert "burst" in text and "calm" in text


class TestSLOGate:
    def _report_and_baseline(self):
        report = run_traffic(tiny_model(), CFG, loads=(1.0,), telemetry=True)
        baseline = update_baseline(None, report, QUIET_CALIB)
        return report, baseline

    def test_passes_against_own_baseline(self):
        report, baseline = self._report_and_baseline()
        result = evaluate_slo(report, baseline, calib_s=0.05)
        assert result.passed, result.summary()

    def test_fails_on_utility_regression(self):
        report, baseline = self._report_and_baseline()
        baseline["modes"][report.kernel]["points"][0]["utility"] *= 1.10
        result = evaluate_slo(report, baseline, calib_s=0.05)
        assert not result.passed
        assert any("utility regression" in f for f in result.failures)

    def test_fails_on_latency_regression(self):
        report, baseline = self._report_and_baseline()
        # Shrink the recorded baseline so the measured p99 blows the
        # budget even after the relative slack and absolute floor.
        point = baseline["modes"][report.kernel]["points"][0]
        point["p99_s"] = 1e-9
        report.points[0]["latency"]["p99"] = 1.0
        result = evaluate_slo(report, baseline, calib_s=0.05)
        assert not result.passed
        assert any("p99 latency regression" in f for f in result.failures)

    def test_fails_on_digest_mismatch(self):
        report, baseline = self._report_and_baseline()
        baseline["modes"][report.kernel]["points"][0]["digest"] = "0" * 64
        result = evaluate_slo(report, baseline, calib_s=0.05)
        assert not result.passed
        assert any("digest mismatch" in f for f in result.failures)

    def test_fails_on_missing_kernel_mode(self):
        report, baseline = self._report_and_baseline()
        baseline["modes"] = {}
        result = evaluate_slo(report, baseline, calib_s=0.05)
        assert not result.passed
        assert any("no entry for kernel mode" in f for f in result.failures)

    def test_calibration_scales_latency_budget(self):
        report, baseline = self._report_and_baseline()
        base_point = baseline["modes"][report.kernel]["points"][0]
        base_point["p99_s"] = 0.010
        report.points[0]["latency"]["p99"] = 0.020
        # On an equal-speed host 20ms > 10ms×1.15 + 5ms floor → fail …
        slow = evaluate_slo(report, baseline, calib_s=0.05)
        assert not slow.passed
        # … but a 2× slower host stretches the budget above 20ms → pass.
        fast = evaluate_slo(report, baseline, calib_s=0.10)
        assert fast.passed, fast.summary()

    def test_update_baseline_rejects_model_mismatch(self):
        report, baseline = self._report_and_baseline()
        other = run_traffic(
            tiny_model(seed=99), CFG, loads=(1.0,), telemetry=False
        )
        with pytest.raises(ValueError, match="does not match"):
            update_baseline(baseline, other, QUIET_CALIB)


class TestCalibration:
    """Host-speed calibration: warm-up, min-of-N, refused wide spreads."""

    @staticmethod
    def _fake_samples(monkeypatch, values, then=None):
        """Replace the timed workload with scripted sample durations."""
        from repro.traffic import slo

        it = iter(values)
        calls = []

        def sample(_a):
            calls.append(1)
            return next(it, then)

        monkeypatch.setattr(slo, "_calibration_sample", sample)
        return calls

    def test_slow_first_samples_do_not_skew_the_calibration(self, monkeypatch):
        from repro.traffic import measure_calibration

        # A fresh process whose first calls run ~40x slow: a median of
        # three samples without a warm-up reads 0.39 s on this sequence.
        self._fake_samples(
            monkeypatch, [0.39, 0.39, 0.39, 0.0101, 0.0100, 0.0102]
        )
        cal = measure_calibration()
        assert cal.seconds == 0.0100
        assert cal.spread == pytest.approx(0.02)  # median 0.0102

    def test_wide_spread_is_retried_then_refused(self, monkeypatch):
        from repro.traffic import measure_calibration
        from repro.traffic.slo import CALIB_ATTEMPTS, CALIB_SPREAD_MAX

        busy = [0.01, 0.4, 0.4, 0.4, 0.01, 0.01]  # warm-up + 5, median slow
        calls = self._fake_samples(monkeypatch, busy * CALIB_ATTEMPTS)
        cal = measure_calibration()
        assert len(calls) == 6 * CALIB_ATTEMPTS  # every attempt was made
        assert cal.spread > CALIB_SPREAD_MAX
        report = run_traffic(tiny_model(), CFG, loads=(1.0,), telemetry=False)
        with pytest.raises(ValueError, match="spread"):
            update_baseline(None, report, cal)

    def test_spread_is_recorded_in_the_baseline(self):
        report = run_traffic(tiny_model(), CFG, loads=(1.0,), telemetry=False)
        baseline = update_baseline(None, report, Calibration(0.05, 0.1))
        assert baseline["modes"][report.kernel]["calib_spread"] == 0.1

    def test_cli_baseline_survives_slow_first_samples(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        self._fake_samples(monkeypatch, [0.39, 0.39, 0.39], then=0.01)
        baseline = tmp_path / "baseline.json"
        argv = [
            "traffic", "--process", "poisson", "--rate", "1.0",
            "--loads", "1.0", "--horizon", "4", "--seed", "3",
            "--scale", "quick",
        ]
        assert main(argv + ["--update-baseline", str(baseline)]) == 0
        assert main(argv + ["--baseline", str(baseline)]) == 0
        assert "PASS" in capsys.readouterr().out


class TestCLI:
    def test_bad_spec_exits_2(self, capsys):
        from repro.cli import main

        assert main(["traffic", "--spec", "no-such-solver"]) == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_bad_loads_exit_2(self, capsys):
        from repro.cli import main

        assert main(["traffic", "--loads", "abc"]) == 2

    def test_traffic_run_with_report_and_baseline(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "report.json"
        baseline = tmp_path / "baseline.json"
        argv = [
            "traffic", "--process", "poisson", "--rate", "1.0",
            "--loads", "1.0", "--horizon", "4", "--seed", "3",
            "--scale", "quick",
        ]
        assert main(argv + [
            "--save-report", str(report), "--update-baseline", str(baseline),
        ]) == 0
        assert report.exists() and baseline.exists()
        assert main(argv + ["--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "SLO gate" in out and "PASS" in out
