"""The traced run: the layer ledger (part 1), then the workload under
load twice — tracing off, then with ``repro.obs`` on and the service
calls timed (part 2).  Reports every per-layer metric."""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro import obs

from drive import (SERVER_SERVICE_KWARGS, Tally, TimedService, median,
                   run_phase, warmup_s)
from ledger import run_ledger
from workloads import MACHINE, Inputs, Workload, stream

#: obs counters that record a recovery: service retries and fallbacks,
#: engine fallbacks, overload-ladder rungs (sub-reason counters excluded
#: so nothing is counted twice)
RECOVERY = re.compile(r"^(service\.failures|service\.fallback"
                      r"|exec\.[a-z_]+_fallback|server\.overload\.[a-z_]+)$")


def _p50_ms(values: List[float]) -> float:
    """Median in ms; 0 when the call is not on this workload's path."""
    return median(values) * 1e3 if values else 0.0


def traced_run(workload: Workload, inputs: Inputs, seed: int,
               seconds: float) -> Tuple[Dict[str, float], List[Tally]]:
    ledger_tally = Tally()
    metrics = run_ledger(workload, inputs, ledger_tally)

    half = seconds / 2
    plain = run_phase(workload, inputs, stream(workload, seed), half,
                      warmup_s(half))

    def make_service() -> TimedService:
        kwargs = SERVER_SERVICE_KWARGS if workload.served else {}
        return TimedService(MACHINE, **kwargs)

    def before_timed(service: TimedService) -> None:
        service.reset()
        obs.enable(reset=True)

    try:
        traced = run_phase(workload, inputs, stream(workload, seed),
                           half, warmup_s(half), make_service=make_service,
                           before_timed=before_timed)
        counters = obs.snapshot()["metrics"]["counters"]
    finally:
        obs.disable()
    service: TimedService = traced.service
    tally = traced.timed
    calls = service.calls
    mean_latency = sum(tally.latencies) / len(tally.latencies)
    if workload.served:
        in_service = service.batch_job_s / service.batched_jobs
        busy = sum(calls["compile_many"]) + sum(calls["run_many"])
    else:
        in_service = sum(calls["run"]) / len(calls["run"])
        busy = sum(calls["run"])
    stats = service.stats()
    lookups = stats["hits"] + stats["misses"]
    loaded = [plain.warm, plain.timed, traced.warm, tally]
    tallies = [ledger_tally] + loaded
    attempted = sum(t.attempted for t in tallies)
    metrics.update({
        "server.batch_size_mean": sum(tally.batch_sizes)
        / len(tally.batch_sizes),
        "server.wait_ms_mean": (mean_latency - in_service) * 1e3,
        "service.compile_many.ms_p50": _p50_ms(calls["compile_many"]),
        "service.run_many.ms_p50": _p50_ms(calls["run_many"]),
        "service.run.ms_p50": _p50_ms(calls["run"]),
        "service.busy_frac": busy / (tally.wall_s * traced.workers),
        "cache.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
        "faults.recoveries": float(sum(
            v for k, v in counters.items() if RECOVERY.match(k))),
        "exact_frac": sum(t.exact for t in loaded)
        / sum(t.completed for t in loaded),
        "trace_overhead": tally.rps() / plain.timed.rps(),
        "failed_frac": sum(t.failed for t in tallies) / attempted,
    })
    return metrics, tallies


__all__ = ["traced_run"]
