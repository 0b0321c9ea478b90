"""perfbench/run.py's ``--trace 0`` counter digest hashes the records of each
workload's warm-up ops, bit for bit: frames sent, simulated time and where the
object ended, or an IK solve's outcome.  Its ``--trace 1`` digest adds each
op's work counters, read off the calls that perfbench/tracing.py wraps:
solver outcomes, knots, ticks and foreground pixels.  Pinning both digests here makes tier-1 fail when
a change alters what the benchmark's ops return, or breaks a traced name or
the counters read through it, without running the benchmark.  perfbench/ is
only read."""
import pytest

from conftest import perfbench_run, warm_up_digest


@pytest.fixture(scope="module")
def run():
    return perfbench_run()


@pytest.mark.parametrize(
    "workload, digest",
    [("pick_table", "83a499e37389435e"), ("sim_replay", "c1eb5b2eb6cbd069"), ("ik_cold", "aeeedffc94cd0e86")],
)
def test_warm_up_records_are_pinned(run, workload, digest):
    assert warm_up_digest(run, workload) == digest


@pytest.mark.parametrize(
    "workload, digest", [("pick_table", "467942af032e8d54"), ("sim_replay", "f4388d6fce2e4b84")]
)
def test_traced_warm_up_counters_are_pinned(run, workload, digest):
    assert warm_up_digest(run, workload, traced=True) == digest
