"""Per-shard sweep workers (module-level, picklable, spawn-safe).

A worker receives one shard's local window — the slab plus ``r0*s``
gathered context rows per side — and advances it ``s`` sub-steps without
talking to anyone, then returns exactly the slab rows.  Two engines:

* **reference** — the tile executor's sweep kernel
  (:func:`~repro.parallel.executor.sweep_tile`, bitwise the reference
  :mod:`repro.stencils.reference`), computing a collar that shrinks one
  radius per sub-step (:meth:`~repro.shard.plan.ShardPlan.margins`), so
  the result is *bitwise* what the serial reference produces for those
  rows;
* **program** — the compiled vector pipeline: a local program is lowered
  for the window's geometry (memoized per worker process) and driven by
  :func:`~repro.vectorize.driver.run_program` with its
  codegen → interp degradation ladder.  The local boundary fill
  writes garbage into neighbor-fed ghosts, but garbage creeps inward at
  one fused radius per sweep and the pad is sized to absorb exactly
  ``s`` sub-steps of creep, so the slab stays bitwise exact.

Shipped ``actions`` are faults the parent decided at submission time
(workers cannot see the parent's injector; see
:mod:`repro.faults.injector`) — replayed first, before any array is
touched, so a faulted task is all-or-nothing and recomputation is
idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .. import faults
from ..config import MachineConfig
from ..parallel.executor import sweep_tile
from ..stencils.boundary import fill_halo
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from ..tiling.blocks import Tile


@dataclass(frozen=True)
class KernelRecipe:
    """Everything a worker needs to rebuild the compiled pipeline for its
    own window geometry (hashable: keys the per-process program memo)."""

    spec: StencilSpec
    machine: MachineConfig
    time_fusion: int               #: resolved ITM depth (an int, not "auto")
    use_sdf: bool
    exec_backend: str


@dataclass(frozen=True)
class ShardJob:
    """One shard-superstep task (picklable; the payload rides separately)."""

    index: int
    s_eff: int                     #: sub-steps this superstep advances
    lo_pad: int                    #: in-domain context rows below the slab
    hi_pad: int                    #: in-domain context rows above the slab
    lo_edge: bool                  #: low side is a dirichlet domain edge
    hi_edge: bool
    boundary: str
    value: float
    recipe: Optional[KernelRecipe] = None  #: None = reference engine
    exec_backend: str = "auto"


def _machine_dtype(machine: MachineConfig):
    return np.float32 if machine.element_bytes == 4 else np.float64


@lru_cache(maxsize=64)
def _local_program(recipe: KernelRecipe, shape: Tuple[int, ...]):
    """The compiled vector program for one window geometry, plus the halo
    it binds.  Planning is deterministic, so every worker process lowers
    the same program the parent would."""
    from ..core.jigsaw import generate_jigsaw, required_halo
    from ..core.planner import plan as make_plan
    p = make_plan(recipe.spec, recipe.machine,
                  time_fusion=recipe.time_fusion, use_sdf=recipe.use_sdf)
    halo = required_halo(recipe.spec, recipe.machine,
                         time_fusion=p.time_fusion)
    grid = Grid(shape, halo, dtype=_machine_dtype(recipe.machine))
    program = generate_jigsaw(recipe.spec, recipe.machine, grid,
                              time_fusion=p.time_fusion, terms=p.terms,
                              scheme=p.scheme)
    return program, halo


def _reference_sweep(spec: StencilSpec, job: ShardJob,
                     payload: np.ndarray) -> np.ndarray:
    """``s_eff`` shrinking-collar sub-steps of the tile sweep kernel."""
    cur = Grid.from_array(payload, spec.radius)
    nxt = cur.like()
    r0 = spec.radius[0]
    extent = payload.shape[0]
    inner = cur.shape[1:]
    for k in range(1, job.s_eff + 1):
        # the halo fill serves double duty: inner-axis ghosts are exact
        # (full rows travel with the window), and the outer-axis ghost is
        # the dirichlet constant on domain-edge sides — neighbor-fed
        # sides never read theirs (the collar keeps reads off it)
        fill_halo(cur, job.boundary, value=job.value)
        shrink = r0 * (job.s_eff - k)
        m_lo = 0 if job.lo_edge else job.lo_pad - shrink
        m_hi = 0 if job.hi_edge else job.hi_pad - shrink
        sweep_tile(spec, cur, nxt, Tile(start=(m_lo,) + (0,) * len(inner),
                                        stop=(extent - m_hi,) + inner))
        cur, nxt = nxt, cur
    slab = extent - job.lo_pad - job.hi_pad
    return np.ascontiguousarray(
        cur.interior[job.lo_pad:job.lo_pad + slab])


def _program_sweep(job: ShardJob, payload: np.ndarray) -> np.ndarray:
    """``s_eff`` sub-steps through the compiled pipeline on the local
    window (codegen preferred, full degradation ladder)."""
    program, halo = _local_program(job.recipe, payload.shape)
    grid = Grid.from_array(payload, halo)
    out = run_program_local(program, grid, job)
    slab = payload.shape[0] - job.lo_pad - job.hi_pad
    return np.ascontiguousarray(
        out.interior[job.lo_pad:job.lo_pad + slab])


def run_program_local(program, grid: Grid, job: ShardJob) -> Grid:
    from ..vectorize.driver import run_program
    return run_program(program, grid, job.s_eff, boundary=job.boundary,
                       value=job.value, backend=job.exec_backend)


def run_shard_task(args) -> np.ndarray:
    """Pool entry point: replay shipped faults, sweep, return the slab."""
    spec, job, payload, actions = args
    for action in actions:
        faults.perform_shipped(action)
    if job.recipe is not None:
        return _program_sweep(job, payload)
    return _reference_sweep(spec, job, payload)
