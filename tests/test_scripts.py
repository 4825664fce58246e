"""The profiler in scripts/bench_profile.py restores what it swaps, writes the
key sets of the committed BENCH files, and imports nothing but the stdlib."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncadmm import engine
from ncadmm import quantile as Q

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


@pytest.fixture(scope="module")
def bench_profile():
    sys.path.insert(0, str(SCRIPTS))
    try:
        import bench_profile
    finally:
        sys.path.remove(str(SCRIPTS))
    return bench_profile


def test_every_swapped_attribute_restored_after_a_round_that_raises(bench_profile):
    places = [(engine.DenseMap, "matvec"), (engine.DenseMap, "rmatvec"), (engine, "run")]
    before = [owner.__dict__[attr] for owner, attr in places]

    calls = []

    def fail_on_second_call(args, kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("timer failed")
        return "matvec"

    timed = {places[0]: fail_on_second_call, places[1]: lambda args, kwargs: "rmatvec"}
    spec = Q.QuantileProblemSpec(d=20, n=40, s_star=2, sigma=5e-3, seed=1)
    dataset = Q.generate_dataset(spec)
    with pytest.raises(RuntimeError, match="timer failed"):
        with bench_profile.timing(("matvec", "rmatvec"), places[2], timed) as counts:
            assert [owner.__dict__[attr] for owner, attr in places] != before
            Q.run_quantile(spec, dataset, iters=5, record_time=False)
    assert [owner.__dict__[attr] for owner, attr in places] == before
    assert counts.seconds["matvec"] > 0 and not counts.in_run


def writes_the_committed_key_sets_and_keeps_other_rows(bench_profile, tmp_path, mode, name):
    committed = json.loads((ROOT / name).read_text())
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"parent": committed["parent"]}))
    assert bench_profile.main([mode, "--rounds", "1", "--iters", "2", "--write", str(path)]) == 0
    written = json.loads(path.read_text())
    assert set(written) == {"settings", "machine", "parent", "run"}
    for key in ("settings", "machine"):
        assert set(written[key]) == set(committed[key])
    assert written["settings"].get("active_rays") == committed["settings"].get("active_rays")
    assert set(written["run"]) == set(committed["change"]) == set(committed["parent"])
    assert all(set(stats) == {"median", "q1", "q3"} for stats in written["run"].values())
    assert written["parent"] == committed["parent"]


def test_ct_step_writes_the_committed_key_sets_and_keeps_other_rows(bench_profile, tmp_path):
    writes_the_committed_key_sets_and_keeps_other_rows(
        bench_profile, tmp_path, "ct-step", "BENCH_ct_step.json"
    )


def test_quantile_step_writes_the_committed_key_sets_and_keeps_other_rows(bench_profile, tmp_path):
    writes_the_committed_key_sets_and_keeps_other_rows(
        bench_profile, tmp_path, "quantile-step", "BENCH_quantile_step.json"
    )


def test_engine_step_writes_the_committed_key_sets_and_keeps_other_rows(bench_profile, tmp_path):
    writes_the_committed_key_sets_and_keeps_other_rows(
        bench_profile, tmp_path, "engine-step", "BENCH_engine_step.json"
    )


def test_importing_the_script_loads_neither_numpy_nor_ncadmm():
    code = (
        f"import sys; sys.path.insert(0, {str(SCRIPTS)!r}); import bench_profile; "
        "print(sorted(m for m in ('numpy', 'ncadmm', 'scipy') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}  # so that an import would succeed
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
