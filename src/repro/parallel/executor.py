"""Real shared-memory parallel execution of stencil sweeps.

Runs each phase of a :class:`~repro.tiling.schedule.TileSchedule`
concurrently, with a barrier between phases — the OpenMP structure the
paper's runs use, in Python form.  Jacobi sweeps with distinct in/out
buffers make every tile of a sweep independent, so the default schedule is
a single phase.

Two backends:

* ``"thread"`` (default) — a :class:`~concurrent.futures.ThreadPoolExecutor`
  writing tiles directly into the shared output buffer (numpy ufuncs
  release the GIL, so tiles genuinely overlap);
* ``"process"`` (opt-in) — a
  :class:`~concurrent.futures.ProcessPoolExecutor`: each worker computes
  its tile on a pickled copy of the input grid and returns the tile patch,
  which the parent writes back.  Heavier per-sweep traffic, but immune to
  GIL-bound tile kernels (pure-Python inner work) and a building block for
  multi-node dispatch.

Under the default tiling the thread backend sizes its dispatch to the
job: one task per :data:`MIN_TASK_WORK` tap-points, capped at
``workers``.  A sweep too small for two tasks (or any run with
``workers=1``) runs *inline* in the calling thread — no pool, the same
task body and the same after-barrier retries — because creating and
feeding a pool costs more than such a sweep.  ``parallel.dispatch.inline``
and ``parallel.dispatch.pooled`` count the choice per run.

Both backends are bitwise deterministic: a tile's result depends only on
the input grid, never on scheduling, and patches land in disjoint output
slices — so any worker count, and either backend, produces identical
grids from the same inputs (guarded by ``tests/test_parallel.py``).

Failure model (see ``docs/architecture.md``): a tile task that fails with
a :class:`~repro.errors.ReproError` (which includes injected faults) is
recomputed serially in the parent — :func:`apply_tile` zeroes its output
slice first, so recomputation is idempotent and bitwise identical.  A
crashed process pool (``BrokenProcessPool``, e.g. a killed worker) is
restarted up to ``pool_restarts`` times with the phase's unfinished tiles
resubmitted; past that budget the parent computes the stragglers itself.
Phases completed before a crash are never redone — the per-phase barrier
doubles as a recovery checkpoint.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults, obs
from ..errors import ReproError, TilingError
from ..stencils.boundary import fill_halo
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from ..tiling.blocks import Tile
from ..tiling.schedule import TileSchedule, build_schedule

#: executor backends accepted by :func:`run_parallel`.
BACKENDS: Tuple[str, ...] = ("thread", "process")

#: Smallest sweep work (interior points x taps) worth one thread-pool
#: task under the default tiling.  A task's dispatch cost ``d`` (pool
#: creation + submit + result, per task) must stay within 5% of the
#: sweep work ``w / r`` it carries, so ``MIN_TASK_WORK = 20 * d * r``.
#: ``benchmarks/bench_parallel.py`` measures both: on a 2-vCPU x86-64
#: host (Python 3.11), d = 50-75 us with a 4-thread pool and
#: r = 3.7-5.5e8 tap-points/s for ``apply_tile``, implying 0.4-0.7 M
#: over repeated runs.  A pooled run with k tasks carries at least
#: k * MIN_TASK_WORK, so even with no overlap at all its dispatch costs
#: at most 5%; a sweep below 2 * MIN_TASK_WORK cannot fill two tasks and
#: runs inline.
MIN_TASK_WORK = 500_000


def default_tasks(spec: StencilSpec, shape: Sequence[int],
                  workers: int) -> int:
    """Thread-pool tasks the default tiling splits one sweep of ``spec``
    over ``shape`` into: one per :data:`MIN_TASK_WORK` tap-points of
    work, capped at ``workers``.  ``1`` means the sweep runs inline."""
    work = math.prod(shape) * len(spec.offsets)
    return max(1, min(workers, work // MIN_TASK_WORK))


@functools.lru_cache(maxsize=256)
def _default_schedule(shape: Tuple[int, ...], tasks: int) -> TileSchedule:
    """The default tiling: ``tasks`` outer-axis slabs in one phase
    (cached: schedules are immutable, and building one costs as much as
    a small sweep)."""
    chunk = max(1, -(-shape[0] // tasks))
    return build_schedule(shape, (chunk,) + shape[1:])


def pool_context() -> multiprocessing.context.BaseContext:
    """The pinned multiprocessing context every process pool uses.

    Defaults to ``forkserver`` where available, else ``spawn`` — both are
    spawn-safe: workers start from a fresh interpreter, so nothing leaks
    in by fork (an inherited fault injector, a half-held lock) and tasks
    must be picklable, which is exactly the contract the fault-shipping
    protocol and the shard runner rely on.  ``fork`` made all of that
    platform-dependent (macOS/Windows never had it for pools).

    ``REPRO_MP_START`` overrides the method (``fork`` included, for
    benchmarking against the cheaper-but-unsafe default).
    """
    method = os.environ.get("REPRO_MP_START")
    if not method:
        method = ("forkserver"
                  if "forkserver" in multiprocessing.get_all_start_methods()
                  else "spawn")
    if method not in multiprocessing.get_all_start_methods():
        raise TilingError(
            f"unsupported start method {method!r} (REPRO_MP_START); "
            f"available: {multiprocessing.get_all_start_methods()}"
        )
    return multiprocessing.get_context(method)


def apply_tile(spec: StencilSpec, grid: Grid, out: Grid, tile: Tile) -> None:
    """One Jacobi sweep restricted to ``tile`` (halo must be filled).
    Zeroes the output slice first, so a retried tile is idempotent."""
    faults.fault_point("tile.sweep")
    dst = out.data[tile.slices(out.halo)]
    dst.fill(0.0)
    for off, c in zip(spec.offsets, spec.coeffs):
        sl = tuple(
            slice(h + a + o, h + b + o)
            for h, a, b, o in zip(grid.halo, tile.start, tile.stop, off)
        )
        np.add(dst, c * grid.data[sl], out=dst)


def _sweep_tile_patch(args) -> np.ndarray:
    """Process-pool worker: compute one tile's sweep on a private copy of
    the grid and return the dense patch (module-level for picklability).

    ``actions`` are faults the *parent* decided at submission time —
    workers cannot see the parent's injector, so triggered actions ride
    along with the task and are replayed here (the only place a ``kill``
    fault really exits)."""
    spec, grid, tile, actions = args
    for action in actions:
        faults.perform_shipped(action)
    out = grid.like()
    apply_tile(spec, grid, out, tile)
    return np.ascontiguousarray(out.data[tile.slices(out.halo)])


def _retry_tile(spec: StencilSpec, grid: Grid, out: Grid, tile: Tile,
                retries: int) -> None:
    """Serial in-parent recomputation of a failed tile, with a bounded
    retry budget (later attempts count fresh fault-site hits, so a rule
    with a finite ``times`` eventually lets the tile through)."""
    obs.counter("parallel.task_retries").inc()
    last: Optional[ReproError] = None
    for _ in range(retries + 1):
        try:
            apply_tile(spec, grid, out, tile)
            return
        except ReproError as exc:
            last = exc
    raise last  # retry budget exhausted: surface the final failure


class _PoolBox:
    """Holder for a restartable process pool (a crashed
    ``ProcessPoolExecutor`` is unusable; recovery needs a fresh one)."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.pool = ProcessPoolExecutor(max_workers=workers,
                                        mp_context=pool_context())

    def restart(self) -> None:
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = ProcessPoolExecutor(max_workers=self.workers,
                                        mp_context=pool_context())

    def shutdown(self) -> None:
        self.pool.shutdown()


def _decide_task_faults(inj) -> Tuple[faults.FaultAction, ...]:
    """Consume this task's fault-site hits in the parent, in submission
    order — the deterministic stand-in for worker-side ``fault_point``
    calls the injector cannot observe across the process boundary."""
    if inj is None:
        return ()
    actions = []
    for site in ("pool.task_start", "tile.sweep"):
        action = inj.decide(site)
        if action is not None:
            actions.append(action)
    return tuple(actions)


def _run_phase_process(box: _PoolBox, spec: StencilSpec, cur: Grid,
                       nxt: Grid, phase: Sequence[Tile], retries: int,
                       restarts_left: int) -> int:
    """One phase on the process pool; returns the remaining restart
    budget (negative = degraded to in-parent execution for the rest of
    the run).  Loops until every tile of the phase has landed."""
    if restarts_left < 0:
        for tile in phase:
            _retry_tile(spec, cur, nxt, tile, retries)
        return restarts_left
    pending: List[Tile] = list(phase)
    while pending:
        inj = faults.active()
        futures: List[Tuple] = []
        unsubmitted: List[Tile] = []
        try:
            for tile in pending:
                futures.append((box.pool.submit(
                    _sweep_tile_patch,
                    (spec, cur, tile, _decide_task_faults(inj))), tile))
        except BrokenProcessPool:
            # the pool died before this phase's submissions finished
            unsubmitted = pending[len(futures):]
        still_pending: List[Tile] = list(unsubmitted)
        broken = bool(unsubmitted)
        for fut, tile in futures:
            try:
                patch = fut.result()
            except faults.FaultInjected:
                # the worker replayed a raise-style fault: recompute here
                _retry_tile(spec, cur, nxt, tile, retries)
            except BrokenProcessPool:
                broken = True
                still_pending.append(tile)
            else:
                nxt.data[tile.slices(nxt.halo)] = patch
        pending = still_pending
        if broken and pending:
            obs.counter("parallel.pool_restarts").inc()
            obs.counter("parallel.fallback.reason.worker_lost").inc()
            if restarts_left > 0:
                restarts_left -= 1
                box.restart()
            else:
                # restart budget exhausted: degrade to the parent for
                # this phase and every later one
                restarts_left = -1
                for tile in pending:
                    _retry_tile(spec, cur, nxt, tile, retries)
                pending = []
    return restarts_left


class _Inline:
    """``pool.submit`` for inline dispatch: runs ``fn`` in the calling
    thread at once and holds a tile failure for a pool-style
    ``result()`` (anything else propagates at once)."""

    __slots__ = ("_exc",)

    def __init__(self, fn: Callable, *args) -> None:
        self._exc: Optional[ReproError] = None
        try:
            fn(*args)
        except ReproError as exc:
            self._exc = exc

    def result(self) -> None:
        if self._exc is not None:
            raise self._exc


def _run_phase_thread(submit: Callable, spec: StencilSpec,
                      cur: Grid, nxt: Grid, phase: Sequence[Tile],
                      retries: int) -> None:
    """One phase through ``submit`` (a thread pool's, or
    :class:`_Inline`); failed tiles are recomputed serially in the
    caller after the barrier."""

    def task(tile: Tile) -> None:
        faults.fault_point("pool.task_start")
        apply_tile(spec, cur, nxt, tile)

    futures = [(submit(task, tile), tile) for tile in phase]
    failed: List[Tile] = []
    for fut, tile in futures:
        try:
            fut.result()
        except ReproError:
            failed.append(tile)
    for tile in failed:
        _retry_tile(spec, cur, nxt, tile, retries)


def run_parallel(
    spec: StencilSpec,
    grid: Grid,
    steps: int,
    *,
    tile_shape: Optional[Sequence[int]] = None,
    workers: int = 4,
    boundary: str = "periodic",
    value: float = 0.0,
    schedule: Optional[TileSchedule] = None,
    backend: str = "thread",
    retries: int = 2,
    pool_restarts: int = 2,
    shards: Optional[int] = None,
    temporal_block: int = 1,
) -> Grid:
    """``steps`` parallel Jacobi sweeps; returns a new grid.

    ``tile_shape`` defaults to splitting the outermost axis into
    :func:`default_tasks` tiles; on the thread backend a single default
    tile, or ``workers=1``, runs inline without a pool.  A custom
    ``schedule`` overrides the default single-phase blocking.
    ``backend`` selects the executor (see the module docstring); results
    are bitwise identical across backends, worker counts and dispatch
    modes.  ``retries`` bounds in-parent recomputations of a
    failed tile; ``pool_restarts`` bounds process-pool resurrections
    after a worker loss (past it, the parent computes remaining tiles
    itself).  Every recovery path is bitwise identical to a clean run.

    ``shards=N`` switches to the halo-exchange shard runner
    (:mod:`repro.shard`): the grid is partitioned into N outer-axis
    slabs, each swept privately with ghost rows exchanged at every
    synchronization point; ``temporal_block=s`` widens the exchanged
    halo to ``radius*s`` so ``s`` sweeps run per exchange.  Interiors
    stay bitwise identical to the unsharded path.
    """
    if steps < 0:
        raise TilingError("steps must be non-negative")
    if shards is None and temporal_block != 1:
        raise TilingError("temporal_block requires shards=N")
    if shards is not None:
        if tile_shape is not None or schedule is not None:
            raise TilingError(
                "shards= is mutually exclusive with tile_shape/schedule "
                "(shards partition the outer axis themselves)"
            )
        from ..shard.runner import run_sharded  # lazy: avoids an import cycle
        return run_sharded(
            spec, grid, steps, shards=shards,
            temporal_block=temporal_block, executor=backend,
            workers=workers, boundary=boundary, value=value,
            retries=retries, pool_restarts=pool_restarts,
        )
    if workers < 1:
        raise TilingError("workers must be >= 1")
    if backend not in BACKENDS:
        raise TilingError(
            f"unknown executor backend {backend!r}; known: {BACKENDS}"
        )
    if retries < 0:
        raise TilingError("retries must be >= 0")
    if pool_restarts < 0:
        raise TilingError("pool_restarts must be >= 0")
    tasks = workers  # an explicit tiling shares the caller's workers
    if schedule is None:
        if tile_shape is None:
            if backend == "thread":
                tasks = default_tasks(spec, grid.shape, workers)
            schedule = _default_schedule(grid.shape, tasks)
        else:
            schedule = build_schedule(grid.shape, tile_shape)
    inline = backend == "thread" and tasks == 1
    obs.counter("parallel.dispatch.inline" if inline
                else "parallel.dispatch.pooled").inc()
    cur = grid.copy()
    nxt = grid.like()
    if backend == "process":
        box = _PoolBox(workers)
        restarts_left = pool_restarts
        try:
            for _ in range(steps):
                fill_halo(cur, boundary, value=value)
                for phase in schedule.phases:
                    # barrier per phase: every tile lands before the next
                    # phase starts, and a completed phase is never redone.
                    restarts_left = _run_phase_process(
                        box, spec, cur, nxt, phase, retries, restarts_left)
                cur, nxt = nxt, cur
        finally:
            box.shutdown()
        return cur
    with (nullcontext() if inline
          else ThreadPoolExecutor(max_workers=workers)) as pool:
        submit = _Inline if inline else pool.submit
        for _ in range(steps):
            fill_halo(cur, boundary, value=value)
            for phase in schedule.phases:
                _run_phase_thread(submit, spec, cur, nxt, phase, retries)
            cur, nxt = nxt, cur
    return cur
