"""Set-up, warm-up and the measured loops: one back-to-back caller for
sweep-large, an asyncio closed loop for the serve-* workloads, and the
timed service wrapper the traced run hands the server.

Every call into the system goes through a public entry point:
``KernelService.compile_many`` / ``run``, ``StencilServer.start`` /
``submit`` / ``stop``.
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.server import StencilJob, StencilServer
from repro.service import CompileRequest, KernelService, SweepJob
from repro.stencils import library

from workloads import MACHINE, Inputs, Kind, Workload

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 15

#: a timed phase is cut into this many windows of equal length; the
#: end-to-end metrics come from the least-stolen ones (Tally.least_stolen)
WINDOWS = 10

#: window steal up to this share is tick-level noise: such windows are
#: always kept
STEAL_FLOOR = 0.01

#: share of a phase spent warming caches and allocators before timing
WARMUP_SHARE = 0.1

#: the settings StencilServer gives the KernelService it builds itself
#: (the shipped ``repro serve`` configuration)
SERVER_SERVICE_KWARGS = {"failure_policy": "degrade", "retries": 2}


def cpu_ticks() -> List[int]:
    """The host's aggregate ``/proc/stat`` CPU tick counters (empty where
    there are none)."""
    try:
        with open("/proc/stat") as f:
            return [int(t) for t in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_frac(before: List[int], after: List[int]) -> float:
    """Share of CPU ticks between two readings that the hypervisor gave
    to other guests (0 where the host does not report steal)."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0


@dataclass
class Tally:
    """Outcomes of one measured phase, one entry per oracle-correct
    completion."""

    attempted: int = 0
    failed: int = 0
    exact: int = 0
    latencies: List[float] = field(default_factory=list)
    works: List[int] = field(default_factory=list)
    #: completion times, seconds since the phase opened
    done: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    #: the time the rates divide by
    wall_s: float = 0.0
    #: window edges: (seconds since the phase opened, cpu_ticks())
    edges: List[Tuple[float, List[int]]] = field(default_factory=list)
    #: rates divide by summed job time rather than window length
    #: (sweep-large, so the oracle checks between jobs are not charged)
    busy: bool = False

    def record(self, inputs: Inputs, kind: Kind, g: int,
               interior: np.ndarray, latency_s: float, done_s: float,
               batch_size: int = 1) -> None:
        ok, exact = inputs.check(kind, g, interior)
        if not ok:
            self.fail(f"{kind.label}#{g}: outside the apply_steps tolerance")
            return
        self.exact += exact
        self.latencies.append(latency_s)
        self.works.append(kind.work)
        self.done.append(done_s)
        self.batch_sizes.append(batch_size)

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: failure: {why}", file=sys.stderr)

    def edge(self, at_s: float) -> None:
        self.edges.append((at_s, cpu_ticks()))

    @property
    def completed(self) -> int:
        return len(self.latencies)

    def rps(self) -> float:
        return self.completed / self.wall_s

    def gstencil_s(self) -> float:
        return sum(self.works) / self.wall_s / 1e9

    def pct_ms(self, pct: float) -> float:
        return float(np.percentile(self.latencies, pct)) * 1e3

    def least_stolen(self) -> "Tally":
        """The completions of the windows whose CPU steal is at most the
        median window's, or at most STEAL_FLOOR.  On a shared host the
        hypervisor takes the CPUs away in bursts, and a burst of a few
        percent steal slows the serving loop by a fifth; keeping the
        quieter windows measures the system rather than its neighbours."""
        spans = list(zip(self.edges, self.edges[1:]))
        steal = [steal_frac(a, b) for (_, a), (_, b) in spans]
        cut = max(statistics.median(steal), STEAL_FLOOR)
        out = Tally(busy=self.busy)
        for ((lo, _), (hi, _)), s in zip(spans, steal):
            if s > cut:
                continue
            for i, t in enumerate(self.done):
                if lo < t <= hi:
                    out.latencies.append(self.latencies[i])
                    out.works.append(self.works[i])
                    out.batch_sizes.append(self.batch_sizes[i])
            out.wall_s += hi - lo
        if self.busy:
            out.wall_s = sum(out.latencies)
        return out


class TimedService(KernelService):
    """A KernelService whose ``compile_many``, ``run_many`` and ``run``
    calls are timed from outside (traced runs only).

    Each ``run_many`` call is paired with the ``compile_many`` call the
    same executor thread made just before it for the same batch, so
    ``batch_job_s`` sums jobs x (compile + run time of their batch) —
    the service share of the mean request latency, split exactly."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: Dict[str, List[float]] = {
                "compile_many": [], "run_many": [], "run": []}
            self.batch_job_s = 0.0
            self.batched_jobs = 0

    def _timed(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            with self._lock:
                self.calls[name].append(dt)
            if name == "compile_many":
                self._local.compile_s = dt
            elif name == "run_many":
                jobs = len(args[0])
                with self._lock:
                    self.batch_job_s += jobs * (
                        dt + getattr(self._local, "compile_s", 0.0))
                    self.batched_jobs += jobs
                self._local.compile_s = 0.0

    def compile_many(self, requests, **kwargs):
        return self._timed("compile_many", super().compile_many, requests,
                           **kwargs)

    def run_many(self, jobs):
        return self._timed("run_many", super().run_many, jobs)

    def run(self, job):
        return self._timed("run", super().run, job)


def compile_all(service: KernelService, workload: Workload) -> None:
    service.compile_many([CompileRequest(library.get(name), shape)
                          for name, shape in workload.compile_keys()])


# -- sweep-large: one back-to-back caller -------------------------------------

def build_service(workload: Workload, make_service=None
                  ) -> Tuple[KernelService, float]:
    """Construct a service (``KernelService`` defaults unless
    ``make_service`` is given) and compile every job key; returns the
    service and the wall time (``setup_s``)."""
    t0 = time.perf_counter()
    service = make_service() if make_service else KernelService(MACHINE)
    compile_all(service, workload)
    return service, time.perf_counter() - t0


def sweep_jobs(workload: Workload, inputs: Inputs
               ) -> Dict[Tuple[Kind, int], SweepJob]:
    return {(k, g): SweepJob(k.spec, inputs.grids[(k, g)], k.steps)
            for k in workload.kinds for g in range(workload.grid_seeds)}


def sweep_loop(service: KernelService, jobs, inputs: Inputs, it,
               seconds: float, *, rounds: int = 0) -> Tally:
    """Run jobs back to back for ``seconds`` (or exactly ``rounds`` passes
    over every job), always ending on a whole pass so every kind runs
    equally often.  ``wall_s`` sums the per-job call times, so the oracle
    checks between jobs are not charged to the system."""
    tally = Tally(busy=True)
    start = time.perf_counter()
    t_end = start + seconds
    n = rounds * len(jobs)
    tally.edge(0.0)
    while (tally.attempted < n if rounds else
           time.perf_counter() < t_end or tally.attempted % len(jobs)):
        kind, g, _ = next(it)
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = service.run(jobs[(kind, g)])
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            tally.fail(f"{kind.label}#{g}: {exc!r}")
            continue
        t1 = time.perf_counter()
        tally.wall_s += t1 - t0
        tally.record(inputs, kind, g, out.interior, t1 - t0, t1 - start)
        # windows close on whole passes, so each keeps the workload's mix
        if (tally.attempted % len(jobs) == 0 and len(tally.edges) < WINDOWS
                and t1 - start >= len(tally.edges) * seconds / WINDOWS):
            tally.edge(t1 - start)
    tally.edge(time.perf_counter() - start)
    return tally


# -- serve-*: asyncio closed loop ---------------------------------------------

async def build_server(workload: Workload, make_service=None
                       ) -> Tuple[StencilServer, float]:
    """Construct and start a server with the shipped defaults (handed the
    service ``make_service`` builds, if given), then compile every job
    key; returns the ready server and the wall time (``setup_s``)."""
    t0 = time.perf_counter()
    if make_service is None:
        server = StencilServer(machine=MACHINE)
    else:
        server = StencilServer(service=make_service())
    await server.start()
    compile_all(server.service, workload)
    return server, time.perf_counter() - t0


def stencil_jobs(workload: Workload, inputs: Inputs
                 ) -> Dict[Tuple[Kind, int], StencilJob]:
    return {(k, g): StencilJob(k.spec, k.shape, k.steps,
                               grid=inputs.grids[(k, g)])
            for k in workload.kinds for g in range(workload.grid_seeds)}


async def closed_loop(server: StencilServer, workload: Workload, jobs,
                      inputs: Inputs, it, seconds: float) -> Tally:
    """``workload.outstanding`` clients, each submitting its next request
    as soon as the previous one is in hand, until ``seconds`` pass.
    Latency runs from the ``submit`` call to the result."""
    tally = Tally()
    start = time.perf_counter()
    t_end = start + seconds

    async def client() -> None:
        while time.perf_counter() < t_end:
            kind, g, tenant = next(it)
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                res = await server.submit(jobs[(kind, g)], tenant=tenant)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                tally.fail(f"{kind.label}#{g}: {exc!r}")
                continue
            t1 = time.perf_counter()
            tally.record(inputs, kind, g, res.grid.interior, t1 - t0,
                         t1 - start, res.batch_size)

    async def windows() -> None:
        # the last edge closes the timed window: requests still draining
        # after it fall in no window
        tally.edge(0.0)
        for k in range(1, WINDOWS + 1):
            await asyncio.sleep(start + k * seconds / WINDOWS
                                - time.perf_counter())
            tally.edge(time.perf_counter() - start)

    await asyncio.gather(windows(), *(client() for _ in
                                      range(workload.outstanding)))
    tally.wall_s = time.perf_counter() - start
    return tally


@dataclass
class Phase:
    """One loaded phase: its set-ups, warm-up and timed window."""

    setup_s: List[float]
    warm: Tally
    timed: Tally
    service: KernelService
    #: threads the system runs jobs on (server executor, or the caller)
    workers: int


def run_phase(workload: Workload, inputs: Inputs, it, seconds: float,
              warm_s: float, *, setups: int = 1, make_service=None,
              before_timed=None) -> Phase:
    """Set up ``setups`` times (the last system stays up), warm up, then
    measure for ``seconds``.  ``before_timed(service)`` runs between the
    warm-up and the timed window, with nothing in flight."""
    if not workload.served:
        built = [build_service(workload, make_service)
                 for _ in range(setups)]
        service = built[-1][0]
        jobs = sweep_jobs(workload, inputs)
        # one full pass: the first pass runs measurably slower
        warm = sweep_loop(service, jobs, inputs, it, 0, rounds=1)
        if before_timed:
            before_timed(service)
        timed = sweep_loop(service, jobs, inputs, it, seconds)
        return Phase([dt for _, dt in built], warm, timed, service, 1)

    async def main() -> Phase:
        setup_s = []
        for i in range(setups):
            server, dt = await build_server(workload, make_service)
            setup_s.append(dt)
            if i + 1 < setups:
                await server.stop()
        try:
            jobs = stencil_jobs(workload, inputs)
            warm = await closed_loop(server, workload, jobs, inputs, it,
                                     warm_s)
            if before_timed:
                before_timed(server.service)
            timed = await closed_loop(server, workload, jobs, inputs, it,
                                      seconds)
        finally:
            await server.stop()
        return Phase(setup_s, warm, timed, server.service,
                     server.executor_workers)

    return asyncio.run(main())


def warmup_s(seconds: float) -> float:
    """Closed-loop warm-up before a timed window of ``seconds``
    (sweep-large instead warms with one full pass over its jobs)."""
    return max(1.0, WARMUP_SHARE * seconds)


def median(values) -> float:
    return float(statistics.median(values))


__all__ = ["Phase", "SETUP_REPEATS", "SERVER_SERVICE_KWARGS", "Tally",
           "TimedService", "compile_all", "median", "run_phase", "warmup_s"]
