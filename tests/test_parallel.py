"""Tests for topology, the multicore model, and the real executor."""

import multiprocessing
import struct
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import AMD_EPYC_7V13, GENERIC_AVX2, INTEL_XEON_6230R
from repro.errors import ModelError, TilingError
from repro.faults import FaultPlan, FaultRule, inject
from repro.parallel import executor
from repro.parallel.executor import (MIN_TASK_WORK, SWEEP_BLOCK_BYTES,
                                     apply_tile, default_tasks,
                                     pool_context, run_parallel)
from repro.parallel.simulator import MulticoreModel, ParallelSetup
from repro.parallel.topology import (allocate_cores, partition_axis,
                                     shard_neighbors)
from repro.schemes import model_cost
from repro.stencils import apply_numpy, apply_steps, library
from repro.stencils.boundary import fill_halo
from repro.stencils.grid import Grid
from repro.stencils.library import table3_config
from repro.stencils.spec import StencilSpec
from repro.tiling.blocks import Tile
from repro.tiling.schedule import build_schedule


class TestTopology:
    def test_alternate_round_robin(self):
        alloc = allocate_cores(INTEL_XEON_6230R, 5, policy="alternate")
        assert alloc.per_socket == (3, 2)
        assert alloc.sockets_used == 2

    def test_compact_fills_first_socket(self):
        alloc = allocate_cores(INTEL_XEON_6230R, 20, policy="compact")
        assert alloc.per_socket == (20, 0)
        assert alloc.remote_fraction == 0.0

    def test_remote_fraction_two_sockets(self):
        alloc = allocate_cores(INTEL_XEON_6230R, 4, policy="alternate")
        assert alloc.remote_fraction == pytest.approx(0.5)

    def test_single_socket_no_remote(self):
        alloc = allocate_cores(AMD_EPYC_7V13, 8)
        assert alloc.remote_fraction == 0.0

    def test_bounds_checked(self):
        with pytest.raises(ModelError):
            allocate_cores(AMD_EPYC_7V13, 0)
        with pytest.raises(ModelError):
            allocate_cores(AMD_EPYC_7V13, 25)

    def test_unknown_policy(self):
        with pytest.raises(ModelError):
            allocate_cores(AMD_EPYC_7V13, 2, policy="nope")


class TestShardTopology:
    def test_even_partition(self):
        slabs = partition_axis(16, 4)
        assert [s.rows for s in slabs] == [4, 4, 4, 4]
        assert [(s.start, s.stop) for s in slabs] == [
            (0, 4), (4, 8), (8, 12), (12, 16)]
        assert [s.index for s in slabs] == [0, 1, 2, 3]

    def test_remainder_spread_over_leading_slabs(self):
        slabs = partition_axis(17, 5)
        assert [s.rows for s in slabs] == [4, 4, 3, 3, 3]
        # contiguous, gap-free cover of [0, extent)
        assert slabs[0].start == 0 and slabs[-1].stop == 17
        for a, b in zip(slabs, slabs[1:]):
            assert a.stop == b.start

    def test_degenerate_single_shard(self):
        (slab,) = partition_axis(9, 1)
        assert (slab.start, slab.stop, slab.rows) == (0, 9, 9)
        assert shard_neighbors(0, 1) == (0, 0)  # its own ring neighbor
        assert shard_neighbors(0, 1, periodic=False) == (None, None)

    def test_one_row_per_shard(self):
        slabs = partition_axis(3, 3)
        assert [s.rows for s in slabs] == [1, 1, 1]

    def test_partition_validation(self):
        with pytest.raises(TilingError):
            partition_axis(8, 0)
        with pytest.raises(TilingError):
            partition_axis(3, 4)  # more shards than rows

    def test_ring_neighbors(self):
        assert shard_neighbors(0, 4) == (3, 1)
        assert shard_neighbors(2, 4) == (1, 3)
        assert shard_neighbors(3, 4) == (2, 0)

    def test_chain_neighbors(self):
        assert shard_neighbors(0, 4, periodic=False) == (None, 1)
        assert shard_neighbors(2, 4, periodic=False) == (1, 3)
        assert shard_neighbors(3, 4, periodic=False) == (2, None)

    def test_neighbor_validation(self):
        with pytest.raises(TilingError):
            shard_neighbors(4, 4)
        with pytest.raises(TilingError):
            shard_neighbors(-1, 4)
        with pytest.raises(TilingError):
            shard_neighbors(0, 0)


class TestPoolContext:
    """The process pool must be pinned to a spawn-safe start method:
    fork copies the parent's locks/injector stack mid-state and is not
    deterministic under threads, so the executor never relies on the
    platform default."""

    def test_default_is_spawn_safe(self, monkeypatch):
        monkeypatch.delenv("REPRO_MP_START", raising=False)
        ctx = pool_context()
        assert ctx.get_start_method() in ("forkserver", "spawn")
        assert ctx.get_start_method() != "fork"

    def test_env_override_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        assert pool_context().get_start_method() == "spawn"

    def test_unsupported_method_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "mpi")
        with pytest.raises(TilingError):
            pool_context()

    def test_fork_allowed_as_explicit_override(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork")
        monkeypatch.setenv("REPRO_MP_START", "fork")
        assert pool_context().get_start_method() == "fork"


class TestMulticoreModel:
    @pytest.fixture
    def setup(self):
        cfg = table3_config("box-2d9p")
        return cfg, model_cost("jigsaw", cfg.spec, AMD_EPYC_7V13)

    def test_scaling_is_monotone(self, setup):
        cfg, cost = setup
        model = MulticoreModel(AMD_EPYC_7V13)
        curve = model.scaling_curve(
            cost, cfg.spec, points=cfg.grid_points(), steps=100,
            core_counts=[1, 2, 4, 8, 16, 24],
            setup=ParallelSetup(tile_shape=cfg.tile_shape,
                                time_depth=cfg.time_depth),
        )
        gs = [r.gstencil_s for r in curve]
        assert all(b >= a for a, b in zip(gs, gs[1:]))

    def test_scaling_at_most_linear(self, setup):
        cfg, cost = setup
        model = MulticoreModel(AMD_EPYC_7V13)
        r1 = model.estimate(cost, cfg.spec, points=cfg.grid_points(),
                            steps=100, cores=1)
        r24 = model.estimate(cost, cfg.spec, points=cfg.grid_points(),
                             steps=100, cores=24)
        assert r24.gstencil_s <= 24 * r1.gstencil_s * 1.001

    def test_3d_saturates_earlier_than_1d(self):
        model = MulticoreModel(AMD_EPYC_7V13)
        effs = {}
        for kernel in ("heat-1d", "heat-3d"):
            cfg = table3_config(kernel)
            cost = model_cost("jigsaw", cfg.spec, AMD_EPYC_7V13)
            setup = ParallelSetup(tile_shape=cfg.tile_shape,
                                  time_depth=cfg.time_depth)
            r1 = model.estimate(cost, cfg.spec, points=cfg.grid_points(),
                                steps=cfg.time_steps, cores=1, setup=setup)
            r24 = model.estimate(cost, cfg.spec, points=cfg.grid_points(),
                                 steps=cfg.time_steps, cores=24, setup=setup)
            effs[kernel] = r24.gstencil_s / (24 * r1.gstencil_s)
        assert effs["heat-3d"] < effs["heat-1d"]

    def test_numa_hurts_intel_dram_runs(self):
        cfg = table3_config("heat-3d")
        cost = model_cost("jigsaw", cfg.spec, INTEL_XEON_6230R)
        model = MulticoreModel(INTEL_XEON_6230R)
        # untiled, memory-bound: alternate placement pays the NUMA penalty
        alt = model.estimate(cost, cfg.spec, points=cfg.grid_points(),
                             steps=10, cores=8,
                             setup=ParallelSetup(placement="alternate"))
        compact = model.estimate(cost, cfg.spec, points=cfg.grid_points(),
                                 steps=10, cores=8,
                                 setup=ParallelSetup(placement="compact"))
        assert alt.gstencil_s <= compact.gstencil_s

    def test_time_depth_amortizes_dram(self, setup):
        cfg, cost = setup
        model = MulticoreModel(AMD_EPYC_7V13)
        shallow = model.estimate(
            cost, cfg.spec, points=cfg.grid_points(), steps=100, cores=24,
            setup=ParallelSetup(tile_shape=cfg.tile_shape, time_depth=1))
        deep = model.estimate(
            cost, cfg.spec, points=cfg.grid_points(), steps=100, cores=24,
            setup=ParallelSetup(tile_shape=cfg.tile_shape, time_depth=50))
        assert deep.gstencil_s >= shallow.gstencil_s

    def test_bad_setup_rejected(self):
        with pytest.raises(ModelError):
            ParallelSetup(time_depth=0)


class TestExecutor:
    @pytest.mark.parametrize("kernel", ["heat-1d", "heat-2d", "box-2d9p",
                                        "heat-3d"])
    def test_matches_reference(self, kernel):
        spec = library.get(kernel)
        shape = (16,) * spec.ndim
        g = Grid.random(shape, spec.radius, seed=1)
        got = run_parallel(spec, g, 3, workers=4,
                           tile_shape=(8,) * spec.ndim)
        ref = apply_steps(spec, g, 3)
        assert np.allclose(got.interior, ref.interior, rtol=1e-12, atol=1e-14)

    def test_dirichlet(self):
        spec = library.get("heat-2d")
        g = Grid.random((16, 16), 1, seed=2)
        got = run_parallel(spec, g, 2, workers=2, tile_shape=(8, 8),
                           boundary="dirichlet", value=0.5)
        ref = apply_steps(spec, g, 2, boundary="dirichlet", value=0.5)
        assert np.allclose(got.interior, ref.interior, rtol=1e-12)

    def test_default_tiling_splits_outer_axis(self):
        spec = library.get("heat-2d")
        g = Grid.random((16, 16), 1, seed=3)
        got = run_parallel(spec, g, 2, workers=4)
        ref = apply_steps(spec, g, 2)
        assert np.allclose(got.interior, ref.interior, rtol=1e-12)

    def test_custom_schedule(self):
        spec = library.get("heat-2d")
        g = Grid.random((16, 16), 1, seed=4)
        sched = build_schedule((16, 16), (8, 8), time_depth=2)
        got = run_parallel(spec, g, 2, workers=2, schedule=sched)
        ref = apply_steps(spec, g, 2)
        assert np.allclose(got.interior, ref.interior, rtol=1e-12)

    def test_input_untouched(self):
        spec = library.get("heat-1d")
        g = Grid.random((32,), 1, seed=5)
        before = g.data.copy()
        run_parallel(spec, g, 2, workers=2)
        assert np.array_equal(g.data, before)

    def test_validation(self):
        spec = library.get("heat-1d")
        g = Grid.random((32,), 1, seed=6)
        with pytest.raises(TilingError):
            run_parallel(spec, g, -1)
        with pytest.raises(TilingError):
            run_parallel(spec, g, 1, workers=0)


class TestExecutorDeterminism:
    """run_parallel must be bitwise deterministic: tiles are independent
    and land in disjoint output slices, so worker count and backend can
    never change a single bit of the result."""

    SPEC = library.get("heat-2d")

    def _grid(self, seed=7):
        return Grid.random((48, 48), 1, seed=seed)

    def test_worker_count_bitwise_identical(self):
        g = self._grid()
        a = run_parallel(self.SPEC, g, 3, workers=1)
        b = run_parallel(self.SPEC, g, 3, workers=8)
        assert np.array_equal(a.data, b.data)

    def test_thread_vs_process_backend_bitwise_identical(self):
        g = self._grid(seed=8)
        a = run_parallel(self.SPEC, g, 2, workers=4, backend="thread")
        b = run_parallel(self.SPEC, g, 2, workers=4, backend="process")
        assert np.array_equal(a.data, b.data)

    def test_process_backend_worker_count_bitwise_identical(self):
        g = self._grid(seed=9)
        a = run_parallel(self.SPEC, g, 2, workers=1, backend="process")
        b = run_parallel(self.SPEC, g, 2, workers=4, backend="process")
        assert np.array_equal(a.data, b.data)

    def test_process_backend_matches_reference(self):
        spec = library.get("box-2d9p")
        g = Grid.random((32, 32), 1, seed=10)
        got = run_parallel(spec, g, 2, workers=3, backend="process")
        ref = apply_steps(spec, g, 2)
        assert np.allclose(got.interior, ref.interior, rtol=1e-12)

    def test_process_backend_input_untouched(self):
        g = self._grid(seed=11)
        before = g.data.copy()
        run_parallel(self.SPEC, g, 2, workers=2, backend="process")
        assert np.array_equal(g.data, before)

    def test_unknown_backend_rejected(self):
        with pytest.raises(TilingError):
            run_parallel(self.SPEC, self._grid(), 1, backend="mpi")

    def test_3d_process_backend(self):
        spec = library.get("heat-3d")
        g = Grid.random((12, 12, 12), 1, seed=12)
        a = run_parallel(spec, g, 2, workers=4, backend="thread",
                         tile_shape=(4, 12, 12))
        b = run_parallel(spec, g, 2, workers=4, backend="process",
                         tile_shape=(4, 12, 12))
        assert np.array_equal(a.data, b.data)


def _straddle(kernel: str, work: int, side: str) -> tuple:
    """A grid shape for ``kernel`` whose sweep work (points x taps) sits
    just below or just above ``work``: rows of a fixed inner extent."""
    spec = library.get(kernel)
    inner = {1: (), 2: (256,), 3: (32, 32)}[spec.ndim]
    per_row = len(spec.offsets) * int(np.prod(inner, dtype=np.int64))
    rows = (work - 1) // per_row + (side == "above")
    return (rows,) + inner


@pytest.fixture()
def observing():
    was = obs.enabled()
    obs.enable(reset=True)
    try:
        yield
    finally:
        if not was:
            obs.disable()


def _dispatch_counts() -> tuple:
    counters = obs.snapshot()["metrics"]["counters"]
    return (counters.get("parallel.dispatch.inline", 0),
            counters.get("parallel.dispatch.pooled", 0))


class TestSizeAwareDispatch:
    """Default-tiled thread runs pick inline vs pooled dispatch from the
    sweep's size alone.  Both paths must stay bitwise identical to
    apply_steps, and an inline run must never start a thread."""

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("kernel", ["heat-1d", "heat-2d", "heat-3d"])
    @pytest.mark.parametrize("work, side, tasks", [
        (MIN_TASK_WORK, "below", 1),
        (MIN_TASK_WORK, "above", 1),
        (2 * MIN_TASK_WORK, "below", 1),
        (2 * MIN_TASK_WORK, "above", 2),
    ])
    def test_bitwise_across_cutoff(self, observing, kernel, boundary, work,
                                   side, tasks):
        spec = library.get(kernel)
        shape = _straddle(kernel, work, side)
        assert default_tasks(spec, shape, 4) == tasks
        g = Grid.random(shape, spec.radius, seed=13)
        ref = apply_steps(spec, g, 2, boundary=boundary, value=0.5)
        runs = {}
        for workers in (1, 2, 4, 8):
            obs.reset()
            runs[workers] = run_parallel(spec, g, 2, workers=workers,
                                         boundary=boundary, value=0.5)
            pooled = default_tasks(spec, shape, workers) > 1
            assert _dispatch_counts() == ((0, 1) if pooled else (1, 0))
            assert np.array_equal(runs[workers].interior, ref.interior)
        for workers in (2, 4, 8):
            assert np.array_equal(runs[workers].data, runs[1].data)

    def test_default_tasks_capped_by_workers(self):
        spec = library.get("heat-2d")
        big = _straddle("heat-2d", 64 * MIN_TASK_WORK, "above")
        assert default_tasks(spec, big, 4) == 4
        assert default_tasks(spec, big, 1) == 1
        assert default_tasks(spec, (32, 32), 8) == 1

    @pytest.mark.parametrize("kernel", ["heat-1d", "heat-2d", "heat-3d"])
    def test_below_cutoff_starts_no_thread(self, monkeypatch, kernel):
        def no_pool(*args, **kwargs):
            raise AssertionError("an inline run created a thread pool")

        monkeypatch.setattr(executor, "ThreadPoolExecutor", no_pool)
        spec = library.get(kernel)
        g = Grid.random(_straddle(kernel, 2 * MIN_TASK_WORK, "below"),
                        spec.radius, seed=14)
        ref = apply_steps(spec, g, 2)
        for workers in (1, 2, 4, 8):
            got = run_parallel(spec, g, 2, workers=workers)
            assert np.array_equal(got.interior, ref.interior)
        # workers=1 runs inline whatever the tiling
        got = run_parallel(spec, g, 2, workers=1,
                           tile_shape=(1,) + g.shape[1:])
        assert np.array_equal(got.interior, ref.interior)
        # and the patch is live: a pooled-size run does reach it
        big = Grid.random(_straddle(kernel, 2 * MIN_TASK_WORK, "above"),
                          spec.radius, seed=14)
        with pytest.raises(AssertionError, match="thread pool"):
            run_parallel(spec, big, 1)

    def _recording_pools(self, monkeypatch) -> list:
        made = []
        real_thread, real_box = executor.ThreadPoolExecutor, executor._PoolBox

        def thread_pool(*args, **kwargs):
            made.append("thread")
            return real_thread(*args, **kwargs)

        def process_box(*args, **kwargs):
            made.append("process")
            return real_box(*args, **kwargs)

        monkeypatch.setattr(executor, "ThreadPoolExecutor", thread_pool)
        monkeypatch.setattr(executor, "_PoolBox", process_box)
        return made

    def test_explicit_tiling_and_process_backend_keep_their_pool(
            self, monkeypatch, observing):
        spec = library.get("heat-2d")
        g = Grid.random((16, 16), spec.radius, seed=15)
        ref = apply_steps(spec, g, 2)
        made = self._recording_pools(monkeypatch)
        runs = [
            run_parallel(spec, g, 2, workers=4, tile_shape=(16, 16)),
            run_parallel(spec, g, 2, workers=2,
                         schedule=build_schedule((16, 16), (16, 16))),
            run_parallel(spec, g, 2, workers=2, backend="process"),
        ]
        assert made == ["thread", "thread", "process"]
        assert _dispatch_counts() == (0, 3)
        for got in runs:
            assert np.array_equal(got.interior, ref.interior)


@contextmanager
def _block_bytes(nbytes: int):
    """Run with ``SWEEP_BLOCK_BYTES`` set to ``nbytes`` (the plan cache is
    cleared on the way in and out, since plans bake the block size in)."""
    executor._sweep_plan.cache_clear()
    executor.SWEEP_BLOCK_BYTES = nbytes
    try:
        yield
    finally:
        executor.SWEEP_BLOCK_BYTES = SWEEP_BLOCK_BYTES
        executor._sweep_plan.cache_clear()


def _tile_bytes(spec, grid, tile) -> bytes:
    """``apply_tile``'s bytes over ``tile``, written into an output whose
    stale contents are NaN (so an unwritten point cannot pass)."""
    out = grid.like()
    out.data[...] = np.nan
    apply_tile(spec, grid, out, tile)
    return out.data[tile.slices(out.halo)].tobytes()


# signed zeros, and 0.3 beside the double one ulp above it
_COEFFS = (st.sampled_from([0.0, -0.0, 0.3, float(np.nextafter(0.3, 1.0)),
                            -0.3, 1.0, 0.125])
           | st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def _sweep_cases(draw):
    ndim = draw(st.integers(1, 3))
    offsets = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * ndim),
                            min_size=1, max_size=9, unique=True))
    # a small pool of coefficients, so taps repeat them
    pool = draw(st.lists(_COEFFS, min_size=1, max_size=3))
    coeffs = [draw(st.sampled_from(pool)) for _ in offsets]
    spec = StencilSpec("prop", ndim, offsets, coeffs)
    halo = tuple(r + draw(st.integers(0, 2)) for r in spec.radius)
    shape = tuple(draw(st.integers(max(h, 1), max(h, 1) + 9))
                  for h in halo)
    start = tuple(draw(st.integers(0, n - 1)) for n in shape)
    stop = tuple(draw(st.integers(a + 1, n)) for a, n in zip(start, shape))
    return spec, halo, shape, Tile(start, stop)


class TestSweepKernel:
    """``apply_tile`` shares one product window per distinct coefficient
    and walks row blocks; none of that may change a bit of what the
    naive ``apply_numpy`` oracle writes over the tile."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_sweep_cases(),
           boundary=st.sampled_from(["periodic", "dirichlet"]),
           dtype=st.sampled_from([np.float64, np.float32]),
           block_bytes=st.sampled_from([8, 512, SWEEP_BLOCK_BYTES]),
           seed=st.integers(0, 2**16))
    def test_bitwise_matches_apply_numpy(self, case, boundary, dtype,
                                         block_bytes, seed):
        spec, halo, shape, tile = case
        grid = Grid.random(shape, halo, seed=seed, low=-1.0, high=1.0,
                           dtype=dtype)
        # signed zeros in the input as well as in the coefficients
        rng = np.random.default_rng(seed)
        grid.interior[rng.random(shape) < 0.2] = 0.0
        grid.interior[rng.random(shape) < 0.2] = -0.0
        fill_halo(grid, boundary, value=-0.5)
        ref = apply_numpy(spec, grid)
        with _block_bytes(block_bytes):
            got = _tile_bytes(spec, grid, tile)
        assert got == ref.data[tile.slices(ref.halo)].tobytes()

    def test_signed_zero_coefficients_not_merged(self):
        # 0.0 == -0.0, but -0.0 * x and 0.0 * x differ in sign: the two
        # taps must get separate product windows
        spec = StencilSpec("zeros", 1, [(-1,), (0,), (1,)], [0.0, -0.0, 0.0])
        plan = executor._sweep_plan(
            spec.offsets, struct.pack("3d", *spec.coeffs), (1,), (8,), 8)
        assert [c.hex() for c in plan.coeffs] == [
            (0.0).hex(), (-0.0).hex()]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel", library.names())
    def test_library_multi_block_bitwise(self, kernel, dtype):
        spec = library.get(kernel)
        shape = {1: (20000,), 2: (150, 40), 3: (24, 16, 12)}[spec.ndim]
        grid = Grid.random(shape, spec.radius, seed=3, low=-1.0,
                           dtype=dtype)
        fill_halo(grid, "periodic")
        tile = Tile((0,) * spec.ndim, shape)
        with _block_bytes(16 << 10):
            plan = executor._sweep_plan(
                spec.offsets, struct.pack(f"{spec.npoints}d", *spec.coeffs),
                grid.halo, shape, grid.data.itemsize)
            assert len(plan.blocks) > 1
            got = _tile_bytes(spec, grid, tile)
        ref = apply_numpy(spec, grid)
        assert got == ref.interior.tobytes()

    def test_huge_plane_block_floor(self):
        # one 3-D plane's windows overflow the budget: blocks fall back to
        # the floor, never fewer output rows than recomputed halo rows
        spec = library.get("star-3d13p")
        shape = (11, 64, 64)
        grid = Grid.random(shape, spec.radius, seed=4)
        fill_halo(grid, "periodic")
        tile = Tile((0, 0, 0), shape)
        with _block_bytes(64 << 10):
            plan = executor._sweep_plan(
                spec.offsets, struct.pack("13d", *spec.coeffs), grid.halo,
                shape, 8)
            got = _tile_bytes(spec, grid, tile)
        rows = [block[0].stop - block[0].start for block in plan.blocks]
        assert sum(rows) == shape[0] and len(rows) > 1
        assert min(rows) >= 2 * spec.radius[0]
        assert got == apply_numpy(spec, grid).interior.tobytes()

    def test_retried_tile_fault_bitwise(self, observing):
        """A ``tile.sweep`` fault then its retry rewrite a tile whose
        output buffer holds a stale sweep: bytes equal the clean run."""
        spec = library.get("star-2d13p")
        grid = Grid.random((40, 40), spec.radius, seed=8, low=-1.0)
        clean = run_parallel(spec, grid, 3, workers=2, tile_shape=(20, 40))
        with inject(FaultPlan(rules=(FaultRule("tile.sweep", after=1,
                                               times=2),))) as inj:
            faulted = run_parallel(spec, grid, 3, workers=2,
                                   tile_shape=(20, 40))
        assert inj.injected_by_site() == {"tile.sweep": 2}
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["parallel.task_retries"] >= 1
        assert faulted.data.tobytes() == clean.data.tobytes()
        assert np.array_equal(faulted.interior,
                              apply_steps(spec, grid, 3).interior)

    def test_concurrent_sweeps_share_plans_safely(self):
        """Threads sweeping one tile shape share a cached plan; each call
        must keep its own scratch, so no thread sees another's products."""
        spec = library.get("box-2d9p")
        grids = []
        for seed in range(8):
            grid = Grid.random((48, 40), spec.radius, seed=seed, low=-1.0)
            fill_halo(grid, "periodic")
            grids.append(grid)
        want = [apply_numpy(spec, g).interior.tobytes() for g in grids]
        tile = Tile((0, 0), (48, 40))
        bad = []

        def worker(i: int) -> None:
            out = grids[i].like()
            for _ in range(30):
                apply_tile(spec, grids[i], out, tile)
                if out.interior.tobytes() != want[i]:
                    bad.append(i)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _block_bytes(2048):  # many blocks: many switch points
                threads = [threading.Thread(target=worker, args=(i,))
                           for i in range(len(grids))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not bad
