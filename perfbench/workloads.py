"""The benchmark workloads: job kinds, seeded inputs, request streams
and the independent ``apply_steps`` oracle.  ``BENCHMARK.json`` runs
sweep-large and serve-diverse; serve-small is run by name only.

Everything here is the benchmark's own input generation.  It runs before
any timer starts and is excluded from every metric; the system under test
only ever receives the finished jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.config import PAPER_MACHINES
from repro.stencils import Grid, apply_steps, library
from repro.stencils.spec import StencilSpec

#: the machine model ``repro serve`` plans for by default; every workload
#: compiles for it so the served and the simulation paths share plans.
MACHINE = PAPER_MACHINES[0]

#: ``validate``'s scaled tolerance: |got - ref| <= TOL * max|ref|.
TOL = 1e-11


@dataclass(frozen=True)
class Kind:
    """One job kind: ``steps`` sweeps of a library kernel on ``shape``."""

    kernel: str
    shape: Tuple[int, ...]
    steps: int

    @property
    def spec(self) -> StencilSpec:
        return library.get(self.kernel)

    @property
    def work(self) -> int:
        """Eq. 3 numerator: interior points x time steps."""
        return int(np.prod(self.shape)) * self.steps

    @property
    def compile_key(self) -> Tuple[str, Tuple[int, ...]]:
        return (self.kernel, self.shape)

    @property
    def label(self) -> str:
        return f"{self.kernel}:{'x'.join(map(str, self.shape))}:{self.steps}"


def _diverse_kinds() -> List[Kind]:
    shapes = {1: ((4096,), (16384,)),
              2: ((64, 64), (192, 192)),
              3: ((16, 16, 16), (32, 32, 32))}
    return [Kind(name, shape, steps)
            for name in library.names()
            for shape in shapes[library.get(name).ndim]
            for steps in (1, 4)]


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: Tuple[Kind, ...]
    #: distinct input grids per kind (grid seeds derive from --seed)
    grid_seeds: int
    #: closed-loop outstanding requests; 0 = one back-to-back caller
    outstanding: int
    tenants: int

    @property
    def served(self) -> bool:
        return self.outstanding > 0

    def compile_keys(self) -> List[Tuple[str, Tuple[int, ...]]]:
        return sorted({k.compile_key for k in self.kinds})


WORKLOADS: Dict[str, Workload] = {
    "sweep-large": Workload(
        "sweep-large",
        (Kind("heat-2d", (1024, 1024), 4),
         Kind("box-2d9p", (1024, 1024), 4),
         Kind("star-2d13p", (1024, 1024), 4),
         Kind("heat-3d", (96, 96, 96), 4)),
        grid_seeds=1, outstanding=0, tenants=1),
    "serve-small": Workload(
        "serve-small",
        (Kind("heat-2d", (32, 32), 2), Kind("box-2d9p", (32, 32), 2)),
        grid_seeds=3, outstanding=64, tenants=4),
    "serve-diverse": Workload(
        "serve-diverse", tuple(_diverse_kinds()),
        grid_seeds=2, outstanding=16, tenants=4),
}


class Inputs:
    """Seeded input grids plus their oracle answers, one per
    ``(kind, grid index)``.  Grids are shared by kinds that differ only in
    ``steps``; nothing here is ever handed back mutated (every layer
    copies its input grid)."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.seed = seed
        self.grids: Dict[Tuple[Kind, int], Grid] = {}
        self._refs: Dict[Tuple[Kind, int], Tuple[np.ndarray, float]] = {}
        self._keys = workload.compile_keys()
        by_input: Dict[Tuple, Grid] = {}
        for kind in workload.kinds:
            spec = kind.spec
            for g in range(workload.grid_seeds):
                seed = self.grid_seed(kind, g)
                if seed not in by_input:
                    by_input[seed] = Grid.random(kind.shape, spec.radius,
                                                 seed=seed)
                grid = by_input[seed]
                self.grids[(kind, g)] = grid
                ref = apply_steps(spec, grid, kind.steps).interior.copy()
                scale = float(np.max(np.abs(ref))) or 1.0
                self._refs[(kind, g)] = (ref, scale)

    def grid_seed(self, kind: Kind, g: int) -> int:
        """Deterministic per-input seed: same --seed, same inputs.  Kinds
        differing only in ``steps`` share their inputs."""
        key = self._keys.index(kind.compile_key)
        return (self.seed * 7919 + key * 31 + g) % (2 ** 31)

    def check(self, kind: Kind, g: int, interior: np.ndarray
              ) -> Tuple[bool, bool]:
        """``(within tolerance, bitwise exact)`` against ``apply_steps``."""
        ref, scale = self._refs[(kind, g)]
        if interior.shape != ref.shape:
            return False, False
        if np.array_equal(interior, ref):
            return True, True
        err = float(np.max(np.abs(interior - ref)))
        return err <= TOL * scale, False


def stream(workload: Workload, seed: int) -> Iterator[Tuple[Kind, int, str]]:
    """The seeded request stream ``(kind, grid index, tenant)``.

    The back-to-back caller walks seeded permutations of every
    ``(kind, grid)`` pair, so each round does the same work; the served
    workloads draw uniformly and independently per request."""
    rng = np.random.default_rng(seed)
    pairs = [(k, g) for k in workload.kinds
             for g in range(workload.grid_seeds)]
    while True:
        if not workload.served:
            for i in rng.permutation(len(pairs)):
                yield pairs[i] + ("t0",)
            continue
        k, g = pairs[int(rng.integers(len(pairs)))]
        yield k, g, f"t{int(rng.integers(workload.tenants))}"


__all__ = ["Inputs", "Kind", "MACHINE", "TOL", "WORKLOADS", "Workload",
           "stream"]
