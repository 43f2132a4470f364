"""Tests for the end-to-end validation harness."""

import pytest

from repro.config import (GENERIC_AVX2, GENERIC_AVX2_F32, GENERIC_AVX512,
                          GENERIC_AVX512_F32)
from repro.schemes import scheme_halo
from repro.stencils import library
from repro.validate import (
    DEFAULT_KERNELS,
    ValidationCase,
    ValidationReport,
    validate,
)


@pytest.fixture(scope="module")
def avx2_report():
    return validate(machines=(GENERIC_AVX2,),
                    kernels=("heat-1d", "heat-2d", "box-2d9p"))


def test_matrix_all_green(avx2_report):
    assert avx2_report.all_ok, avx2_report.summary()


def test_case_count(avx2_report):
    # every registered scheme x 3 kernels x 2 boundaries
    from repro.schemes import SCHEMES
    assert len(avx2_report.cases) == len(SCHEMES) * 3 * 2


def test_unsupported_combos_counted_benign(avx2_report):
    # t4-jigsaw on 2-D kernels is an expected refusal, not a failure
    skipped = [c for c in avx2_report.cases
               if c.detail.startswith("unsupported")]
    assert skipped
    assert all(c.ok for c in skipped)


def test_fused_dirichlet_skipped(avx2_report):
    fused_dirichlet = [
        c for c in avx2_report.cases
        if c.scheme.startswith("t") and c.boundary == "dirichlet"
        and "skipped" in c.detail
    ]
    assert fused_dirichlet


def test_summary_mentions_counts(avx2_report):
    assert "cases passed" in avx2_report.summary()


def test_report_flags_failures():
    bad = ValidationCase("s", "k", "m", "periodic", False, 1.0, "boom")
    rep = ValidationReport(cases=(bad,))
    assert not rep.all_ok
    assert "FAIL" in rep.summary()


def test_default_kernels_cover_table3():
    assert set(DEFAULT_KERNELS) >= {
        "heat-1d", "heat-2d", "heat-3d", "box-2d9p", "box-3d27p",
    }


@pytest.mark.parametrize("machine", [GENERIC_AVX512, GENERIC_AVX2_F32,
                                     GENERIC_AVX512_F32],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("scheme", ["t-jigsaw", "temporal"])
def test_outer_extent_covers_wide_halo(scheme, machine):
    # star-2d13p's fused halo on these machines is wider than the
    # harness's 4 outer rows; the outer extent must grow to hold it
    spec = library.get("star-2d13p")
    assert scheme_halo(scheme, spec, machine)[0] > 4
    report = validate(schemes=(scheme,), kernels=("star-2d13p",),
                      machines=(machine,), boundaries=("periodic",))
    (case,) = report.cases
    assert case.ok and not case.detail, report.summary()
