"""repro.traffic — production-style workload generation + SLO telemetry.

The paper evaluates HASTE on static batches; this package turns the
online scheduler into something a production readiness review can
interrogate: a seeded, replayable arrival stream
(:class:`~repro.traffic.model.TrafficModel` → ``stream()`` →
:class:`~repro.traffic.model.TrafficStream`, digest-pinned like
:class:`~repro.faults.model.FaultModel` traces), a harness that drives
any registered online solver spec with it while capturing per-arrival
latency into per-load-phase windowed histograms
(:func:`~repro.traffic.harness.run_traffic` →
:class:`~repro.traffic.report.TrafficReport`), and an SLO regression
gate (:func:`~repro.traffic.slo.evaluate_slo`) that CI runs against the
committed ``benchmarks/slo_baseline.json`` in both kernel modes.

Quick start::

    from repro.traffic import TrafficModel, run_traffic

    model = TrafficModel(process="mmpp", rate=2.0, seed=7)
    report = run_traffic(model, spec="online-haste",
                         loads=(0.5, 1.0, 2.0))
    print(report.summary())
"""

from .harness import (
    ArrivalLatencyCollector,
    DriveResult,
    drive_stream,
    kernel_mode,
    run_traffic,
)
from .model import TrafficModel, TrafficStream
from .processes import (
    PROCESS_NAMES,
    ArrivalProcess,
    DiurnalProcess,
    MMPPProcess,
    PoissonProcess,
    make_process,
)
from .report import TrafficReport
from .slo import (
    Calibration,
    SLOResult,
    evaluate_slo,
    load_baseline,
    measure_calibration,
    save_baseline,
    update_baseline,
)

__all__ = [
    "ArrivalLatencyCollector",
    "ArrivalProcess",
    "Calibration",
    "DiurnalProcess",
    "DriveResult",
    "MMPPProcess",
    "PROCESS_NAMES",
    "PoissonProcess",
    "SLOResult",
    "TrafficModel",
    "TrafficReport",
    "TrafficStream",
    "drive_stream",
    "evaluate_slo",
    "kernel_mode",
    "load_baseline",
    "make_process",
    "measure_calibration",
    "run_traffic",
    "save_baseline",
    "update_baseline",
]
