"""perfbench/run.py's ``--trace 0`` counter digest hashes the records of each
workload's warm-up ops, bit for bit: frames sent, simulated time and where the
object ended, or an IK solve's outcome.  Its ``--trace 1`` digest adds each
op's work counters, read off the calls that perfbench/tracing.py wraps:
solver outcomes, knots, ticks and foreground pixels.  Pinning both digests here makes tier-1 fail when
a change alters what the benchmark's ops return, or breaks a traced name or
the counters read through it, without running the benchmark.  perfbench/ is
only read."""
import importlib.util
import sys

import pytest

from conftest import PERFBENCH


@pytest.fixture(scope="module")
def run():
    # run.py imports its sibling modules by their bare names.
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def build(run, workload):
    """The workload with its own default seed: ik_cold loads its reference
    restart indexes only for that seed."""
    return run.WORKLOADS[workload](run.Env(), run.WORKLOADS[workload].default_seed)


@pytest.mark.parametrize(
    "workload, digest",
    [("pick_table", "b24f3d6faa74c78b"), ("sim_replay", "c1eb5b2eb6cbd069"), ("ik_cold", "aeeedffc94cd0e86")],
)
def test_warm_up_records_are_pinned(run, workload, digest):
    bench = build(run, workload)
    warm = run.run_pass(bench, count=bench.warmup_ops)
    assert [o.wrong for o in warm.outcomes] == [None] * bench.warmup_ops
    assert run.digest(warm.records) == digest


@pytest.mark.parametrize(
    "workload, digest", [("pick_table", "8c86cdfdae9b9287"), ("sim_replay", "f4388d6fce2e4b84")]
)
def test_traced_warm_up_counters_are_pinned(run, workload, digest):
    bench = build(run, workload)
    tracer = run.Tracer()
    with tracer.installed():
        warm = run.run_pass(bench, count=bench.warmup_ops, tracer=tracer)
    assert [o.wrong for o in warm.outcomes] == [None] * bench.warmup_ops
    counters = run.op_counters(tracer.spans)
    assert run.digest((warm.records[i], counters.get(i)) for i in range(bench.warmup_ops)) == digest
