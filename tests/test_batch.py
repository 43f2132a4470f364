"""Retirement tests for the batched execution backend.

The batch engine (``repro.machine.batch``) was deleted: ``run_program``
now degrades codegen -> interp.  This file keeps the guarantees the
batch engine used to give, pinned on the engine that replaced it — the
emitted-source codegen backend, which also runs every loop iteration at
once as batched numpy rows — and checks that stale references to the
batch engine (the module, the ``"batch"`` backend name) fail loudly.
The carried-register, overlapping-store and ``steps=0`` cases moved to
``tests/test_codegen.py``.
"""

import importlib
import warnings

import numpy as np
import pytest

from repro.config import GENERIC_AVX2
from repro.errors import VectorizeError
from repro.machine.codegen import CodegenFallback, CodegenProgram, get_codegen
from repro.machine.isa import Affine
from repro.machine.machine import SimdMachine
from repro.machine.trace import analytic_trace
from repro.schemes import generate, scheme_halo
from repro.stencils.grid import Grid
from repro.stencils.spec import star
from repro.vectorize.driver import EXEC_BACKENDS, run_program
from repro.vectorize.program import Loop, ProgramBuilder


def _scan_program():
    """A prefix-sum over x — a true loop-carried recurrence no batched
    engine can peel."""
    b = ProgramBuilder(4)
    b.in_prologue()
    z = b.setzero()
    b.mov_to("acc", z)
    b.in_body()
    v = b.load(b.mem(Affine.var("x")))
    b.add(v, "acc", dst="acc")
    b.store("acc", b.mem(Affine.var("x"), array="out"))
    return b.build(name="scan", scheme="t", loops=[Loop("x", 0, 16, 4)],
                   vectors_per_iter=1)


def _run_both(prog, arrays_factory):
    """Run ``prog`` on the interpreter and on the codegen backend against
    independent array sets; return (interp_arrays, codegen_arrays)."""
    a1 = arrays_factory()
    a2 = arrays_factory()
    SimdMachine(prog.width, elem_bytes=prog.elem_bytes).run(prog, a1)
    CodegenProgram(prog).run(a2)
    return a1, a2


def _jigsaw_1d():
    spec = star(1, 1, center=-2.0, arm=[1.0])
    halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
    grid = Grid.random((40,), halo, seed=0)
    return generate("jigsaw", spec, GENERIC_AVX2, grid)


class TestBatchedBody:
    def test_straight_line_body(self):
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        two = b.broadcast(2.0)
        r = b.mul(two, v)
        b.store(r, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="copy", scheme="test",
                       loops=[Loop("x", 0, 16, 4)], vectors_per_iter=1)

        def arrays():
            return {"a": np.arange(16.0), "out": np.zeros(16)}
        a1, a2 = _run_both(prog, arrays)
        assert np.array_equal(a2["out"], a1["out"])
        assert np.array_equal(a2["out"], 2 * np.arange(16.0))

    def test_true_recurrence_raises_fallback(self):
        """An accumulator carried across x never reaches a fixed point;
        the backend must refuse rather than return wrong values."""
        prog = _scan_program()
        arrays = {"a": np.arange(16.0), "out": np.zeros(16)}
        with pytest.raises(CodegenFallback) as ei:
            CodegenProgram(prog).run(arrays)
        assert ei.value.reason == "recurrence"
        # deferred stores: the failed attempt must not have scribbled
        assert np.array_equal(arrays["out"], np.zeros(16))


class TestDriverFallback:
    def _jigsaw_case(self, seed=3):
        spec = star(2, 1, center=-4.0, arm=[1.0], name="fb-probe")
        halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
        grid = Grid.random((4, 24), halo, seed=seed)
        prog = generate("jigsaw", spec, GENERIC_AVX2, grid)
        return prog, grid

    def test_mem_hook_forces_interpreter(self):
        """A per-access hook needs ordered accesses, so the driver must
        run the interpreter — and still produce the identical grid."""
        prog, grid = self._jigsaw_case()
        accesses = []

        def hook(array, offset, nbytes, is_store):
            accesses.append((array, offset, nbytes, is_store))
        hooked = run_program(prog, grid, 1, mem_hook=hook, backend="auto")
        assert accesses, "hook must observe the interpreter's accesses"
        plain = run_program(prog, grid, 1, backend="codegen")
        assert np.array_equal(hooked.data, plain.data)

    def test_recurrence_program_falls_back_silently(self):
        """backend="auto" on a non-peelable program must transparently
        produce the interpreter's result: no exception, no warning."""
        prog = _scan_program()
        grid = Grid.random((16,), 0, seed=1)
        expect = run_program(prog, grid, 1, backend="interp")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_program(prog, grid, 1, backend="auto")
        assert np.array_equal(got.data, expect.data)

    def test_bad_backend_rejected(self):
        """Unknown names are errors; so is the retired ``"batch"``, whose
        error names the parameter and lists the backends that remain."""
        prog, grid = self._jigsaw_case()
        assert "batch" not in EXEC_BACKENDS
        with pytest.raises(VectorizeError):
            run_program(prog, grid, 1, backend="simd")
        with pytest.raises(VectorizeError,
                           match=r"backend='batch'.*'auto', 'codegen', "
                                 r"'interp'"):
            run_program(prog, grid, 1, backend="batch")


class TestCompileCache:
    def test_get_batched_memoizes(self):
        """The batch compile cache is gone with its module; the codegen
        compile cache that replaced it memoizes per program."""
        with pytest.raises(ImportError):
            importlib.import_module("repro.machine.batch")
        prog = _jigsaw_1d()
        assert get_codegen(prog) is get_codegen(prog)

    def test_analytic_trace_fresh_counter(self):
        prog = _jigsaw_1d()
        tc = analytic_trace(prog)
        assert tc.vectors == prog.vectors_per_iter * prog.total_body_runs()
        assert tc.steps == prog.steps_per_iter
