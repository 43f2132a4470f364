"""Traced run, part 1: the layer ledger.

Times one job at a time, on an otherwise idle process, at each layer's
public entry point, for every job kind of the workload.  Throughputs are
Eq. 3 GStencil/s summed over the kinds (sum of interior points x steps
over sum of times); overheads are sums of times over sums of times of
the layer below.  Every output is checked against the ``apply_steps``
oracle.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List, Tuple

from repro.parallel import run_parallel
from repro.server import StencilJob, StencilServer
from repro.server.net import interior_checksum, request_tcp, serve_tcp
from repro.service import KernelService, SweepJob
from repro.stencils import Grid, apply_steps, library

from drive import Tally, compile_all, median
from workloads import MACHINE, Inputs, Kind, Workload

#: the fixed job the codegen-over-interp ratio is taken on (the interp
#: engine is far too slow for the large kinds)
INTERP_KIND = Kind("heat-2d", (32, 32), 2)

#: per (layer, kind): one untimed warm-up call, then at least
#: MIN_REPEATS timed calls, and more until MIN_TIMED_S has been spent or
#: MAX_REPEATS calls were made
MIN_REPEATS = 3
MIN_TIMED_S = 0.02
MAX_REPEATS = 9


def _more(times: List[float]) -> bool:
    return len(times) < MIN_REPEATS or (len(times) < MAX_REPEATS
                                        and sum(times) < MIN_TIMED_S)


def _time_calls(fn: Callable[[], object], check: Callable[[object], None]
                ) -> float:
    """Median seconds per call of ``fn`` after one warm-up call; every
    output goes to ``check``."""
    check(fn())
    times: List[float] = []
    while _more(times):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        check(out)
    return median(times)


async def _time_async(fn, check) -> float:
    """:func:`_time_calls` for a coroutine function."""
    check(await fn())
    times: List[float] = []
    while _more(times):
        t0 = time.perf_counter()
        out = await fn()
        times.append(time.perf_counter() - t0)
        check(out)
    return median(times)


def _checker(tally: Tally, inputs: Inputs, kind: Kind):
    def check(out: Grid) -> None:
        tally.attempted += 1
        ok, _ = inputs.check(kind, 0, out.interior)
        if not ok:
            tally.fail(f"ledger {kind.label}: outside the tolerance")
    return check


def _kernel_grid(inputs: Inputs, kind: Kind, kernel) -> Grid:
    """The kind's input interior, with the halo ``kernel`` needs."""
    return Grid.random(kind.shape, kernel.halo(),
                       seed=inputs.grid_seed(kind, 0))


def _kernel_layers(inputs: Inputs, kind: Kind, service: KernelService,
                   tally: Tally) -> Dict[str, float]:
    """Seconds per job of ``kind`` at every synchronous layer."""
    spec, grid, steps = kind.spec, inputs.grids[(kind, 0)], kind.steps
    kernel = service.compile(spec, kind.shape)
    if steps % kernel.plan.time_fusion:
        kernel = service.compile(spec, kind.shape, time_fusion=1)
    kgrid = _kernel_grid(inputs, kind, kernel)
    check = _checker(tally, inputs, kind)
    job = SweepJob(spec, grid, steps)
    return {
        "reference": _time_calls(lambda: apply_steps(spec, grid, steps),
                                 check),
        "core_numpy": _time_calls(lambda: kernel.run_numpy(kgrid, steps),
                                  check),
        "machine_codegen": _time_calls(
            lambda: kernel.run(kgrid, steps, backend="codegen"), check),
        "parallel": _time_calls(lambda: run_parallel(spec, grid, steps),
                                check),
        "parallel_w1": _time_calls(
            lambda: run_parallel(spec, grid, steps, workers=1), check),
        "shard": _time_calls(
            lambda: run_parallel(spec, grid, steps, shards=2), check),
        "service_run": _time_calls(lambda: service.run(job), check),
    }


def _codegen_over_interp(service: KernelService, seed: int,
                         tally: Tally) -> float:
    kind = INTERP_KIND
    inputs = Inputs(Workload("interp", (kind,), grid_seeds=1,
                             outstanding=0, tenants=1), seed)
    kernel = service.compile(kind.spec, kind.shape)
    grid = _kernel_grid(inputs, kind, kernel)
    check = _checker(tally, inputs, kind)
    t = {backend: _time_calls(
        lambda b=backend: kernel.run(grid, kind.steps, backend=b), check)
        for backend in ("codegen", "interp")}
    return t["interp"] / t["codegen"]


def _compile_ms(workload: Workload) -> Tuple[float, float]:
    """Mean cold (fresh cache) and warm (cached) ``KernelService.compile``
    milliseconds over the workload's distinct compile keys."""
    service = KernelService(MACHINE)
    cold: List[float] = []
    warm: List[float] = []
    for name, shape in workload.compile_keys():
        spec = library.get(name)
        for bucket in (cold, warm):
            t0 = time.perf_counter()
            service.compile(spec, shape)
            bucket.append((time.perf_counter() - t0) * 1e3)
    return sum(cold) / len(cold), sum(warm) / len(warm)


async def _server_layers(workload: Workload, inputs: Inputs, tally: Tally
                         ) -> Tuple[float, float]:
    """``(submit overhead, TCP overhead)`` on an idle default server."""
    server = StencilServer(machine=MACHINE)
    await server.start()
    try:
        compile_all(server.service, workload)
        tcp = await serve_tcp(server)
        port = tcp.sockets[0].getsockname()[1]
        try:
            submit_s = base_s = tcp_s = seeded_s = 0.0
            for kind in workload.kinds:
                spec, steps = kind.spec, kind.steps
                grid = inputs.grids[(kind, 0)]
                check = _checker(tally, inputs, kind)
                job = StencilJob(spec, kind.shape, steps, grid=grid)
                submit_s += await _time_async(
                    lambda: _grid_of(server.submit(job)), check)
                base_s += _time_calls(
                    lambda: server.service.compile(spec, kind.shape),
                    lambda _: None)
                base_s += _time_calls(
                    lambda: server.service.run(SweepJob(spec, grid, steps)),
                    check)
                # the wire carries seeds, so compare against a seeded
                # submit (both materialize the same grid in the server)
                seed = inputs.grid_seed(kind, 0)
                seeded = StencilJob(spec, kind.shape, steps, seed=seed)
                expect = interior_checksum(
                    (await server.submit(seeded)).grid.interior)
                seeded_s += await _time_async(
                    lambda: _grid_of(server.submit(seeded)), check)
                payload = {"kernel": kind.kernel, "shape": list(kind.shape),
                           "steps": steps, "seed": seed}

                def check_wire(resp) -> None:
                    tally.attempted += 1
                    if not (resp.get("ok") and resp.get("checksum")
                            == expect):
                        tally.fail(f"ledger tcp {kind.label}: {resp}")
                tcp_s += await _time_async(
                    lambda: _first(request_tcp("127.0.0.1", port,
                                               [payload])), check_wire)
        finally:
            tcp.close()
            await tcp.wait_closed()
    finally:
        await server.stop()
    return submit_s / base_s, tcp_s / seeded_s


async def _grid_of(awaitable) -> Grid:
    return (await awaitable).grid


async def _first(awaitable):
    return (await awaitable)[0]


def run_ledger(workload: Workload, inputs: Inputs, tally: Tally
               ) -> Dict[str, float]:
    """Every ``ledger.*`` and ``vectorize.*`` per-layer metric."""
    service = KernelService(MACHINE)
    compile_all(service, workload)
    totals: Dict[str, float] = {}
    for kind in workload.kinds:
        for layer, t in _kernel_layers(inputs, kind, service, tally).items():
            totals[layer] = totals.get(layer, 0.0) + t
    work = sum(k.work for k in workload.kinds)
    out = {f"ledger.{layer}.gstencil_s": work / totals[layer] / 1e9
           for layer in ("reference", "core_numpy", "machine_codegen",
                         "parallel", "parallel_w1", "shard")}
    out["ledger.service_run.overhead"] = (totals["service_run"]
                                          / totals["parallel"])
    out["ledger.machine_codegen_over_interp"] = _codegen_over_interp(
        service, inputs.seed, tally)
    cold, warm = _compile_ms(workload)
    out["ledger.service_compile.cold_ms"] = cold
    out["ledger.service_compile.warm_ms"] = warm
    submit, tcp = asyncio.run(_server_layers(workload, inputs, tally))
    out["ledger.server_submit.overhead"] = submit
    out["ledger.net_tcp.overhead"] = tcp
    mixes = [service.compile(library.get(name), shape).per_vector_mix()
             for name, shape in workload.compile_keys()]
    for metric, classes in (("loads", "L"), ("shuffles", "CI"),
                            ("fma", "A")):
        out[f"vectorize.{metric}_per_vector"] = sum(
            sum(m[c] for c in classes) for m in mixes) / len(mixes)
    return out


__all__ = ["INTERP_KIND", "run_ledger"]
