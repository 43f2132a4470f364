"""An asyncio load generator for the stencil server.

Drives a deterministic mixed-tenant request schedule at the server —
every request is a seeded :class:`~repro.server.core.StencilJob`, so
the correct answer for each one is known in advance — and reports what
a capacity test needs: p50/p99 latency, goodput, the rejection split by
reason, and **bitwise correctness** of every completed response against
the numpy reference :func:`~repro.stencils.reference.apply_steps` — an
oracle independent of the service and executor that serve the request.

``benchmarks/bench_service.py`` gates SLOs on these reports;
``repro chaos --stages server`` compares two of them (clean vs faulted)
response-by-response; ``repro serve --selftest`` prints one.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ReproError
from ..stencils import library
from ..stencils.grid import Grid
from ..stencils.reference import apply_steps
from .admission import ServerOverloaded
from .core import JobResult, StencilJob, StencilServer


def percentile(values: List[float], pct: float) -> float:
    """The nearest-rank percentile of ``values`` (NaN when empty).

    The rank is ``ceil(pct * n / 100)`` computed on the near-integer
    product ``pct * n`` — dividing first (``ceil(pct/100 * n)``) rounds
    up spuriously whenever ``pct/100`` lands above its decimal value in
    binary: ``ceil(28/100 * 25)`` gave 8 where the exact rank is 7, so
    p28 of 25 samples read one rank too high.  The rank is clamped to
    ``[1, n]`` so pct=0 and pct=100 hit the min and max exactly.
    """
    if not 0.0 <= pct <= 100.0:
        raise ReproError(f"pct must be within [0, 100], got {pct!r}")
    if not values:
        return float("nan")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(round(pct * n, 6) / 100.0))
    return ordered[min(rank, n) - 1]


@dataclass(frozen=True)
class LoadConfig:
    """One deterministic request schedule (see :func:`request_schedule`)."""

    requests: int = 1000
    tenants: int = 4
    kernels: Tuple[str, ...] = ("heat-2d", "box-2d9p")
    shape: Tuple[int, ...] = (32, 32)
    steps: int = 2
    seeds: int = 3
    deadline_s: Optional[float] = None
    keep_results: bool = False

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ReproError("requests must be >= 1")
        if self.tenants < 1:
            raise ReproError("tenants must be >= 1")
        if self.seeds < 1:
            raise ReproError("seeds must be >= 1")
        if not self.kernels:
            raise ReproError("at least one kernel required")


@dataclass
class LoadReport:
    """The outcome of one generated load (all latencies in ms)."""

    requests: int
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    reject_reasons: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    deadline_misses: int = 0
    p50_ms: float = float("nan")
    p99_ms: float = float("nan")
    mean_ms: float = float("nan")
    max_ms: float = float("nan")
    reject_p50_ms: float = float("nan")
    reject_p99_ms: float = float("nan")
    wall_s: float = 0.0
    goodput_rps: float = 0.0
    batch_mean: float = float("nan")
    results: Dict[str, np.ndarray] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def bitwise_ok(self) -> bool:
        return not self.mismatches

    @property
    def ok(self) -> bool:
        return self.bitwise_ok and not self.failed

    def to_dict(self) -> Dict:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "reject_reasons": dict(sorted(self.reject_reasons.items())),
            "mismatches": len(self.mismatches),
            "deadline_misses": self.deadline_misses,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "reject_p50_ms": self.reject_p50_ms,
            "reject_p99_ms": self.reject_p99_ms,
            "wall_s": self.wall_s,
            "goodput_rps": self.goodput_rps,
            "batch_mean": self.batch_mean,
            "bitwise_ok": self.bitwise_ok,
            "ok": self.ok,
        }

    def summary(self) -> str:
        lines = [
            f"requests        {self.requests} "
            f"({self.completed} completed, {self.rejected} rejected, "
            f"{self.failed} failed)",
            f"latency         p50 {self.p50_ms:.1f} ms, "
            f"p99 {self.p99_ms:.1f} ms, max {self.max_ms:.1f} ms",
            f"goodput         {self.goodput_rps:.0f} req/s over "
            f"{self.wall_s:.2f} s (mean batch {self.batch_mean:.1f})",
        ]
        if self.rejected:
            detail = ", ".join(f"{k}={v}" for k, v in
                               sorted(self.reject_reasons.items()))
            lines.append(f"rejections      {detail}; p99 "
                         f"{self.reject_p99_ms:.2f} ms")
        if self.deadline_misses:
            lines.append(f"deadline misses {self.deadline_misses}")
        lines.append("bitwise         "
                     + ("all responses correct" if self.bitwise_ok else
                        f"{len(self.mismatches)} MISMATCH(ES)"))
        return "\n".join(lines)


def request_schedule(cfg: LoadConfig) -> List[Tuple[str, StencilJob, str]]:
    """The deterministic ``(label, job, tenant)`` list for one config:
    requests round-robin over kernels, seeds and tenants."""
    out = []
    for i in range(cfg.requests):
        kernel = cfg.kernels[i % len(cfg.kernels)]
        seed = (i // len(cfg.kernels)) % cfg.seeds
        tenant = f"t{i % cfg.tenants}"
        spec = library.get(kernel)
        job = StencilJob(spec, cfg.shape, cfg.steps, seed=seed)
        out.append((f"{i:05d}:{kernel}:s{seed}:{tenant}", job, tenant))
    return out


def reference_results(cfg: LoadConfig
                      ) -> Dict[Tuple[str, int], np.ndarray]:
    """The expected interior per distinct ``(kernel, seed)``, computed by
    the numpy reference :func:`~repro.stencils.reference.apply_steps`.
    The serving sweep kernel is byte-identical to it for every schedule,
    so any server response must match these exactly."""
    out: Dict[Tuple[str, int], np.ndarray] = {}
    for kernel in cfg.kernels:
        spec = library.get(kernel)
        for seed in range(cfg.seeds):
            grid = Grid.random(cfg.shape, spec.radius, seed=seed)
            out[(kernel, seed)] = apply_steps(
                spec, grid, cfg.steps).interior.copy()
    return out


async def run_load(server: StencilServer, cfg: LoadConfig, *,
                   references: Optional[Dict] = None) -> LoadReport:
    """Fire the whole schedule concurrently at ``server`` and collect a
    :class:`LoadReport`.  ``references`` (from
    :func:`reference_results`) enables the bitwise check; pass ``None``
    to skip it (the chaos stage compares two reports instead)."""
    schedule = request_schedule(cfg)
    report = LoadReport(requests=cfg.requests)
    latencies: List[float] = []
    reject_lat: List[float] = []
    batch_sizes: List[float] = []

    async def one(label: str, job: StencilJob, tenant: str):
        t0 = time.monotonic()
        try:
            res = await server.submit(job, tenant=tenant,
                                      deadline_s=cfg.deadline_s)
        except ServerOverloaded as exc:
            return label, exc, (time.monotonic() - t0)
        except Exception as exc:  # noqa: BLE001 - collected per request
            return label, exc, (time.monotonic() - t0)
        return label, res, (time.monotonic() - t0)

    t_start = time.monotonic()
    outcomes = await asyncio.gather(
        *(one(label, job, tenant) for label, job, tenant in schedule))
    report.wall_s = time.monotonic() - t_start

    for (label, job, tenant), (_, outcome, dt) in zip(schedule, outcomes):
        if isinstance(outcome, ServerOverloaded):
            report.rejected += 1
            report.reject_reasons[outcome.reason] = \
                report.reject_reasons.get(outcome.reason, 0) + 1
            reject_lat.append(dt * 1e3)
            continue
        if isinstance(outcome, BaseException):
            report.failed += 1
            report.errors.append(f"{label}: {outcome}")
            continue
        assert isinstance(outcome, JobResult)
        report.completed += 1
        latencies.append(outcome.latency_s * 1e3)
        batch_sizes.append(outcome.batch_size)
        if not outcome.deadline_met:
            report.deadline_misses += 1
        interior = outcome.grid.interior
        kernel, seed = job.spec.name, job.seed
        if references is not None:
            ref = references[(kernel, seed)]
            if (interior.dtype != ref.dtype
                    or not np.array_equal(interior, ref)):
                report.mismatches.append(label)
        if cfg.keep_results:
            report.results[label] = interior.copy()

    report.p50_ms = percentile(latencies, 50)
    report.p99_ms = percentile(latencies, 99)
    report.mean_ms = (sum(latencies) / len(latencies)
                      if latencies else float("nan"))
    report.max_ms = max(latencies) if latencies else float("nan")
    report.reject_p50_ms = percentile(reject_lat, 50)
    report.reject_p99_ms = percentile(reject_lat, 99)
    report.batch_mean = (sum(batch_sizes) / len(batch_sizes)
                         if batch_sizes else float("nan"))
    if report.wall_s > 0:
        report.goodput_rps = report.completed / report.wall_s
    return report


def run_load_sync(cfg: LoadConfig, *,
                  server: Optional[StencilServer] = None,
                  references: Optional[Dict] = None,
                  **server_kwargs) -> LoadReport:
    """Build a server, run one load against it on a fresh event loop,
    tear it down.  The synchronous entry the benchmark and CLI use."""
    if server is not None and server_kwargs:
        raise ReproError("pass either a server or construction keywords")

    async def main() -> LoadReport:
        srv = server or StencilServer(**server_kwargs)
        async with srv:
            return await run_load(srv, cfg, references=references)

    return asyncio.run(main())


__all__ = ["LoadConfig", "LoadReport", "percentile", "reference_results",
           "request_schedule", "run_load", "run_load_sync"]
