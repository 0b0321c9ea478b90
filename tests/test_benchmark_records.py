"""perfbench/run.py's ``--trace 0`` counter digest hashes the records of each
workload's warm-up ops, bit for bit: frames sent, simulated time and where the
object ended, or an IK solve's outcome.  Its ``--trace 1`` digest adds each
op's work counters, read off the calls that perfbench/tracing.py wraps:
solver outcomes, knots, ticks and foreground pixels.  Pinning both digests here makes tier-1 fail when
a change alters what the benchmark's ops return, or breaks a traced name or
the counters read through it, without running the benchmark.  perfbench/ is
only read."""
import pytest

from conftest import perfbench_run


@pytest.fixture(scope="module")
def run():
    return perfbench_run()


def build(run, workload):
    """The workload with its own default seed: ik_cold loads its reference
    restart indexes only for that seed."""
    return run.WORKLOADS[workload](run.Env(), run.WORKLOADS[workload].default_seed)


@pytest.mark.parametrize(
    "workload, digest",
    [("pick_table", "8f322a127a6465b0"), ("sim_replay", "c1eb5b2eb6cbd069"), ("ik_cold", "aeeedffc94cd0e86")],
)
def test_warm_up_records_are_pinned(run, workload, digest):
    bench = build(run, workload)
    warm = run.run_pass(bench, count=bench.warmup_ops)
    assert [o.wrong for o in warm.outcomes] == [None] * bench.warmup_ops
    assert run.digest(warm.records) == digest


@pytest.mark.parametrize(
    "workload, digest", [("pick_table", "2a785bae6d950b24"), ("sim_replay", "f4388d6fce2e4b84")]
)
def test_traced_warm_up_counters_are_pinned(run, workload, digest):
    bench = build(run, workload)
    tracer = run.Tracer()
    with tracer.installed():
        warm = run.run_pass(bench, count=bench.warmup_ops, tracer=tracer)
    assert [o.wrong for o in warm.outcomes] == [None] * bench.warmup_ops
    counters = run.op_counters(tracer.spans)
    assert run.digest((warm.records[i], counters.get(i)) for i in range(bench.warmup_ops)) == digest
