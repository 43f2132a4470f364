"""The end-to-end correctness matrix, as a library function.

``validate()`` sweeps (scheme x kernel x SIMD width x boundary) and checks
every generated instruction stream against the dense numpy reference on
the SIMD-machine interpreter — the same guarantee the test suite gives,
packaged for users who change kernels, machines, or generator code and
want a one-call audit (``python -m repro validate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .config import (
    GENERIC_AVX2,
    GENERIC_AVX2_F32,
    GENERIC_AVX512,
    GENERIC_AVX512_F32,
    GENERIC_SSE,
    GENERIC_SSE_F32,
    MachineConfig,
)
from .errors import ReproError
from .schemes import SCHEMES, generate, scheme_halo
from .stencils import apply_steps, library
from .stencils.grid import Grid
from .stencils.spec import StencilSpec
from .vectorize.driver import run_program

DEFAULT_KERNELS: Tuple[str, ...] = (
    "heat-1d", "star-1d5p", "star-1d7p", "heat-2d", "box-2d9p",
    "star-2d9p", "heat-3d", "box-3d27p",
)
DEFAULT_MACHINES: Tuple[MachineConfig, ...] = (
    GENERIC_SSE, GENERIC_AVX2, GENERIC_AVX512,
    GENERIC_SSE_F32, GENERIC_AVX2_F32, GENERIC_AVX512_F32,
)


@dataclass(frozen=True)
class ValidationCase:
    scheme: str
    kernel: str
    machine: str
    boundary: str
    ok: bool
    max_error: float
    detail: str = ""

    @property
    def label(self) -> str:
        return f"{self.scheme}/{self.kernel}/{self.machine}/{self.boundary}"


@dataclass(frozen=True)
class ValidationReport:
    cases: Tuple[ValidationCase, ...]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.ok)

    @property
    def failed(self) -> Tuple[ValidationCase, ...]:
        return tuple(c for c in self.cases if not c.ok)

    @property
    def all_ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        lines = [f"{self.passed}/{len(self.cases)} cases passed"]
        for c in self.failed:
            lines.append(f"  FAIL {c.label}: {c.detail or c.max_error}")
        return "\n".join(lines)


def _check_one(scheme: str, spec: StencilSpec, machine: MachineConfig,
               boundary: str, *, seed: int, tol: float) -> ValidationCase:
    try:
        halo = scheme_halo(scheme, spec, machine)
        nx = 6 * max(machine.vector_elems, 4) + 3  # exercise the epilogue
        if scheme == "folding":
            nx = 3 * machine.vector_elems ** 2 + 3
        # outer extents cover the halo: a periodic fill wraps at most
        # one interior extent
        shape = tuple(max(4, h) for h in halo[:-1]) + (nx,)
        dtype = np.float32 if machine.element_bytes == 4 else np.float64
        if machine.element_bytes == 4:
            tol = max(tol, 5e-4)  # single-precision round-off
        grid = Grid.random(shape, halo, seed=seed, dtype=dtype)
        prog = generate(scheme, spec, machine, grid)
        steps = prog.steps_per_iter
        if steps > 1 and boundary != "periodic":
            return ValidationCase(scheme, spec.name, machine.name, boundary,
                                  True, 0.0, "skipped: fused + non-periodic")
        got = run_program(prog, grid, steps, boundary=boundary, value=0.25)
        ref = apply_steps(spec, grid, steps, boundary=boundary, value=0.25)
        err = float(np.max(np.abs(got.interior - ref.interior)))
        scale = float(np.max(np.abs(ref.interior))) or 1.0
        ok = err <= tol * scale
        return ValidationCase(scheme, spec.name, machine.name, boundary,
                              ok, err)
    except ReproError as exc:
        # schemes legitimately refuse some (kernel, machine) combos
        reason = str(exc)
        benign = any(key in reason for key in (
            "folding", "x-radius", "1-D kernels only", "centro-symmetric",
        ))
        return ValidationCase(scheme, spec.name, machine.name, boundary,
                              benign, float("nan"),
                              f"{'unsupported' if benign else 'ERROR'}: "
                              f"{reason}")


def validate(
    *,
    schemes: Sequence[str] = SCHEMES,
    kernels: Sequence[str] = DEFAULT_KERNELS,
    machines: Iterable[MachineConfig] = DEFAULT_MACHINES,
    boundaries: Sequence[str] = ("periodic", "dirichlet"),
    seed: int = 0,
    tol: float = 1e-11,
) -> ValidationReport:
    """Run the full correctness matrix; returns a report (no raising)."""
    cases: List[ValidationCase] = []
    for machine in machines:
        for kernel in kernels:
            spec = library.get(kernel)
            for scheme in schemes:
                for boundary in boundaries:
                    cases.append(_check_one(scheme, spec, machine, boundary,
                                            seed=seed, tol=tol))
    return ValidationReport(cases=tuple(cases))
