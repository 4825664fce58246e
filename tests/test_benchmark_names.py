"""The names the benchmark in perfbench/ patches and calls still exist and run.

perfbench/ has its own tests, outside this suite; these check only that a
change to ncadmm leaves the benchmark able to start and to run each workload
once, at the tiny sizes of perfbench/test_harness.py, and its library entry
points once each.
"""

import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import test_harness
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return test_harness, tracing, workloads


def test_every_patched_name_resolves(harness):
    _, tracing, _ = harness
    assert len(tracing.snapshot()) == len(tracing.PATCHES) + len(tracing.FACTORIES)


def test_every_workload_runs_without_error(harness, tmp_path):
    test_harness, _, workloads = harness
    for name, workload in workloads.WORKLOADS.items():
        size = test_harness.TINY[name]
        out_dir = tmp_path / name
        out_dir.mkdir()
        outcome = workload.run(size, test_harness.SEED, str(out_dir), workloads.Phases())
        assert [s.error for s in outcome.solves] == [None] * len(size.sigmas), name
        assert outcome.iterations == size.iters * len(size.sigmas), name


def test_every_library_entry_point_runs(harness, tmp_path):
    # The gate's reference values come from these runs, one of them through
    # AdmmState.initial and admm_step directly.
    test_harness, _, workloads = harness
    for name, workload in workloads.WORKLOADS.items():
        size = test_harness.TINY[name]
        out_dir = tmp_path / name
        out_dir.mkdir()
        values = workload.library(size, test_harness.SEED, str(out_dir))
        assert list(values["solves"]) == [repr(s) for s in size.sigmas], name
        for solve in values["solves"].values():
            assert all(math.isfinite(v) for v in solve.values()), name
        assert all(math.isfinite(v) for v in values["shared"].values()), name
