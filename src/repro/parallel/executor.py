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
recomputed serially in the parent — :func:`apply_tile` overwrites its
whole output slice, never accumulating into it, so recomputation is
idempotent and bitwise identical.  A crashed process pool (``BrokenProcessPool``, e.g. a killed
worker) is restarted up to ``pool_restarts`` times with the phase's
unfinished tiles resubmitted; past that budget the parent computes the
stragglers itself.  Phases completed before a crash are never redone —
the per-phase barrier doubles as a recovery checkpoint.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import struct
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

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
#: host (Python 3.11), d = 40-90 us with a 4-thread pool and
#: r = 1.0-1.5e9 tap-points/s for ``apply_tile``'s coefficient-shared
#: kernel, implying 1.0-2.0 M over repeated runs.  The constant was set
#: for the tap-by-tap kernel (r = 3.7-5.5e8, implying 0.4-0.7 M) and now
#: sits below that range: a task at the cutoff spends 8-27% of its
#: sweep on dispatch.  A pooled run with k tasks carries at least
#: k * MIN_TASK_WORK; a sweep below 2 * MIN_TASK_WORK cannot fill two
#: tasks and runs inline.
MIN_TASK_WORK = 500_000

#: Bytes one :func:`sweep_tile` row block may touch: the product
#: windows of its distinct coefficients plus the accumulator, so a
#: block's products are still in a per-core L2 when its taps read them.
#: Every thread that sweeps keeps a scratch of up to this size.
#: Measured with ``perfbench/run.py`` (25 s runs, 3 alternating rounds)
#: on a 2-vCPU x86-64 host with 2 MiB L2 per core, against the
#: tap-by-tap loop this kernel replaced: sweep-large ``gstencil_s`` rose
#: 68-80% at 1 MiB, 55-64% at 768 KiB and 13-32% at 512 KiB, where the
#: 96^3 slabs fall to the block-row floor and ``job_ms_p90`` got worse
#: than before.  serve-diverse ``rss_peak_mb`` (four service threads
#: each keep a scratch) rose 16-25% at 1 MiB, 11-22% at 768 KiB and
#: 9-11% at 512 KiB, where its ``latency_ms_p99`` got 10-28% worse.
SWEEP_BLOCK_BYTES = 768 << 10


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


class _SweepPlan(NamedTuple):
    """How :func:`sweep_tile` walks one tile shape: the distinct
    coefficients, the scratch size and, per outer-axis row block, the
    block's rows, its accumulator's ``(scratch span, shape)``, one
    ``(scratch span, window shape, input slices)`` product window per
    coefficient, and the first and remaining ``(window index, window
    slices)`` tap views, in spec order.  Input slices index the tile's
    haloed input box."""

    coeffs: Tuple[float, ...]
    scratch: int
    blocks: Tuple[Tuple, ...]


@functools.lru_cache(maxsize=256)
def _sweep_plan(offsets: Tuple[Tuple[int, ...], ...], coeff_bits: bytes,
                halo: Tuple[int, ...], shape: Tuple[int, ...],
                itemsize: int) -> _SweepPlan:
    """Build (and cache: set-up costs more than a small sweep) the plan
    for one tile shape.  Taps share a product window when their
    coefficients have the same bit pattern — not ``==``, which merges
    ``0.0`` and ``-0.0`` — and a window spans its taps' offset bounding
    box."""
    coeffs = struct.unpack(f"{len(offsets)}d", coeff_bits)
    distinct: dict = {}  # coefficient bits -> (window index, value)
    group = [distinct.setdefault(c.hex(), (len(distinct), c))[0]
             for c in coeffs]
    members = [[off for off, h in zip(offsets, group) if h == g]
               for g in range(len(distinct))]
    lo = [[min(axis) for axis in zip(*offs)] for offs in members]
    hi = [[max(axis) for axis in zip(*offs)] for offs in members]
    n0, inner = shape[0], shape[1:]
    # row elements of each window, and its rows beyond the block's
    widths = [math.prod(n + h - l for n, l, h in zip(inner, lg[1:], hg[1:]))
              for lg, hg in zip(lo, hi)]
    extra = [hg[0] - lg[0] for lg, hg in zip(lo, hi)]
    budget = SWEEP_BLOCK_BYTES // itemsize - sum(
        e * w for e, w in zip(extra, widths))
    rows = budget // max(1, sum(widths) + math.prod(inner))
    # the floor: a block never recomputes more halo rows than it outputs
    nblocks = max(1, min(-(-n0 // max(1, rows)), n0 // max(1, *extra)))
    bounds = [n0 * i // nblocks for i in range(nblocks + 1)]
    rows = max(b - a for a, b in zip(bounds, bounds[1:]))
    starts, size = [], 0
    for e, w in zip(extra, widths):
        starts.append(size)
        size += (rows + e) * w
    acc = size
    size += rows * math.prod(inner)
    blocks = []
    for r0, r1 in zip(bounds, bounds[1:]):
        n = (r1 - r0,) + inner
        corner = (r0,) + (0,) * len(inner)
        windows = []
        for at, lg, hg in zip(starts, lo, hi):
            wshape = tuple(m + h - l for m, l, h in zip(n, lg, hg))
            windows.append((
                slice(at, at + math.prod(wshape)), wshape,
                tuple(slice(hd + c + l, hd + c + m + h)
                      for hd, c, m, l, h in zip(halo, corner, n, lg, hg))))
        taps = tuple(
            (g, tuple(slice(o - l, o - l + m)
                      for o, l, m in zip(off, lo[g], n)))
            for off, g in zip(offsets, group))
        blocks.append((slice(r0, r1), slice(acc, acc + math.prod(n)), n,
                       tuple(windows), taps[0], taps[1:]))
    return _SweepPlan(tuple(c for _, c in distinct.values()), size,
                      tuple(blocks))


_thread_scratch = threading.local()


def _scratch(size: int, dtype) -> np.ndarray:
    """``size`` uninitialised elements of ``dtype`` for one sweep, from a
    buffer the calling thread reuses (it grows on demand): a buffer
    freed after each sweep is returned to the OS and page-faulted back
    in by the next, measured up to 2x slower on 1-D sweeps.  A scratch
    past :data:`SWEEP_BLOCK_BYTES` (a block at its row floor) is not
    kept."""
    buf = getattr(_thread_scratch, "buf", None)
    if buf is not None and buf.size >= size and buf.dtype == dtype:
        return buf[:size]
    buf = np.empty(size, dtype)
    if buf.nbytes <= SWEEP_BLOCK_BYTES:
        _thread_scratch.buf = buf
    return buf


def sweep_tile(spec: StencilSpec, grid: Grid, out: Grid, tile: Tile) -> None:
    """One Jacobi sweep restricted to ``tile`` (halo must be filled),
    bitwise what :func:`~repro.stencils.reference.apply_numpy` writes
    there.  Walks outer-axis row blocks sized to
    :data:`SWEEP_BLOCK_BYTES`: per block, one product window
    ``c * X[block + offsets]`` per distinct coefficient, then every tap
    adds a shifted view of its window in spec order into a contiguous
    accumulator (numpy adds into one run up to 2-3x faster than into
    the haloed output's strided rows), which is copied out.  The first
    tap writes ``0.0 + y``, so the output slice is fully overwritten
    and a retried tile is idempotent."""
    shape = tile.shape
    plan = _sweep_plan(
        spec.offsets, struct.pack(f"{len(spec.coeffs)}d", *spec.coeffs),
        grid.halo, shape, grid.data.itemsize)
    src = grid.data[tuple(slice(a, a + n + 2 * h) for a, n, h
                          in zip(tile.start, shape, grid.halo))]
    dst = out.data[tile.slices(out.halo)]
    scratch = _scratch(plan.scratch, src.dtype)
    for rows, acc_span, n, windows, (g, sl), taps in plan.blocks:
        bufs = []
        for c, (span, wshape, window) in zip(plan.coeffs, windows):
            buf = scratch[span].reshape(wshape)
            np.multiply(c, src[window], out=buf)
            bufs.append(buf)
        acc = scratch[acc_span].reshape(n)
        np.add(0.0, bufs[g][sl], out=acc)
        for g, sl in taps:
            np.add(acc, bufs[g][sl], out=acc)
        dst[rows] = acc


def apply_tile(spec: StencilSpec, grid: Grid, out: Grid, tile: Tile) -> None:
    """One Jacobi sweep restricted to ``tile`` (halo must be filled):
    :func:`sweep_tile` behind the ``tile.sweep`` fault point."""
    faults.fault_point("tile.sweep")
    sweep_tile(spec, grid, out, tile)


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
