"""armkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pick_table --seed 8088 --seconds 50 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a detail record (op count, tail
percentile, set-up samples, counter digest, first wrong outputs).  Metric
names, units and the default ``--seconds`` come from BENCHMARK.json.

``--trace 0`` reports the end-to-end metrics.  A warm-up runs the first
inputs, then the timed part cycles through the workload's inputs until
``--seconds`` have passed.  Each op's output is checked, and every repeat of
an input must give the same record.  An input's time is the best of its
repeats in the run: other load on the machine only ever adds time, and on a
shared machine it comes and goes over tens of seconds.  Throughput, median
and tail are taken over the inputs' best times.  By the same rule, set-up is
the best of SETUP_PROBES fresh interpreters (``setup_probe.py``) started
between ops at evenly spaced times over the run.

``--trace 1`` reports the per-layer metrics.  It times kinematics per call,
then runs each op twice, untraced and with spans recorded (tracing.py).  The
untraced and traced runs of every op must give the same record, and the
traced warm-up and the traced pass the same work counters.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import armkit  # noqa: F401
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")

import armkit.dh_model as dh_model  # noqa: E402
import armkit.kinematics as kinematics  # noqa: E402
import armkit.vision as vision  # noqa: E402

from tracing import Tracer, op_counters, summarize  # noqa: E402
from workloads import ARM_CONFIG, WORKLOADS, Env, IkCold, Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_PROBES = 12
SETUP_LAYER_REPEATS = 21
KINEMATICS_CONFIGS = 200
KINEMATICS_REPEATS = 5
PROBE_TIMEOUT_S = 60


class Pass:
    def __init__(self) -> None:
        self.keys: list[int] = []
        self.times: list[float] = []
        self.outcomes: list[Outcome] = []

    @property
    def records(self) -> list[tuple]:
        return [o.record for o in self.outcomes]


def timed_op(workload, side: Pass, key: int, inp, tracer: Tracer | None = None, op_id: int = 0) -> None:
    """Run one op on input ``key`` and add its time and checked outcome to
    ``side``.  Only ``execute`` is timed; making the input and checking the
    output are not.  With a tracer, the op's span carries ``op_id``."""
    clock = time.perf_counter
    with tracer.op(op_id) if tracer is not None else nullcontext():
        start = clock()
        # An op that raises is one failed op; verify() decides whether the
        # error is a documented refusal or a wrong output.
        try:
            result = workload.execute(inp)
        except Exception as exc:
            result = exc
        end = clock()
    side.keys.append(key)
    side.times.append(end - start)
    side.outcomes.append(workload.verify(inp, result))


def run_pass(workload, *, count: int | None = None, seconds: float | None = None,
             tracer: Tracer | None = None, setup: list[float] | None = None) -> Pass:
    """Ops 0, 1, ... on inputs 0, 1, ... in turn, in a closed loop, until
    ``count`` ops or ``seconds`` of wall time.  With ``setup``, a set-up
    probe runs between ops at SETUP_PROBES evenly spaced times over the
    ``seconds``, and its time is appended to ``setup``."""
    out = Pass()
    clock = time.perf_counter
    now = clock()
    deadline = None if seconds is None else now + seconds
    next_probe = now
    i = 0
    while (count is None or i < count) and (deadline is None or i == 0 or clock() < deadline):
        if setup is not None and clock() >= next_probe:
            setup.append(setup_probe())
            next_probe += seconds / SETUP_PROBES
        key = i % workload.inputs
        timed_op(workload, out, key, workload.prepare(key), tracer, i)
        i += 1
    return out


def run_paired(workload, seconds: float, tracer: Tracer) -> tuple[Pass, Pass]:
    """Each op untraced and traced back to back, alternating which goes
    first, until ``seconds`` have passed: the two passes cover the same ops
    and a drift in machine speed reaches both alike."""
    plain, traced = Pass(), Pass()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        key = i % workload.inputs
        inp = workload.prepare(key)
        for side in (plain, traced) if i % 2 == 0 else (traced, plain):
            if side is traced:
                with tracer.installed():
                    timed_op(workload, side, key, inp, tracer, i)
            else:
                timed_op(workload, side, key, inp)
        i += 1
    return plain, traced


def best_times(p: Pass) -> list[float]:
    """Each input's best time over its repeats in the pass."""
    best: dict[int, float] = {}
    for key, t in zip(p.keys, p.times):
        best[key] = min(t, best.get(key, t))
    return list(best.values())


def repeat_mismatch(*passes: Pass) -> str | None:
    """The first op whose record differs from its input's first record."""
    first: dict[int, tuple] = {}
    for p in passes:
        for i, (key, outcome) in enumerate(zip(p.keys, p.outcomes)):
            if first.setdefault(key, outcome.record) != outcome.record:
                return f"op {i} on input {key}: record {outcome.record!r} != {first[key]!r}"
    return None


def setup_probe() -> float:
    """Set-up time of one fresh interpreter (setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
        cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload, timed: Pass, setup: list[float]) -> dict[str, float]:
    times = np.array(best_times(timed))
    return {
        "ops_per_s": len(times) / float(times.sum()),
        "op_p50_ms": float(np.median(times)) * 1e3,
        "op_tail_ms": float(np.percentile(times, workload.tail_percentile)) * 1e3,
        "success_ratio": sum(o.success for o in timed.outcomes) / len(timed.outcomes),
        "setup_s": min(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _median_ms(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def _per_call_us(fn, args: list) -> float:
    """Median over repeats of the mean time of one call across ``args``."""
    samples = []
    for _ in range(KINEMATICS_REPEATS):
        start = time.perf_counter()
        for a in args:
            fn(*a)
        samples.append((time.perf_counter() - start) / len(args))
    return statistics.median(samples) * 1e6


def layer_setup_metrics(env: Env, seed: int) -> dict[str, float]:
    """Set-up layers and kinematics, timed per call outside any op: the
    kinematics over ik_cold's target configurations for this seed."""
    config_text = ARM_CONFIG.read_text(encoding="utf-8")
    arm = dh_model.default_arm()
    configs = IkCold(env, seed).configs(KINEMATICS_CONFIGS)
    return {
        "dh_model.load_arm_config_ms": _median_ms(lambda: dh_model.load_arm_config(config_text), SETUP_LAYER_REPEATS),
        "vision.homography_fit_ms": _median_ms(
            lambda: vision.estimate_homography(env.pixel_pts, env.world_pts), SETUP_LAYER_REPEATS
        ),
        "kinematics.fk_us": _per_call_us(kinematics.forward_kinematics, [(arm, q) for q in configs]),
        "kinematics.jacobian_us": _per_call_us(kinematics.geometric_jacobian, [(arm, q) for q in configs]),
    }


def digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    env = Env()
    workload = WORKLOADS[name](env, seed)
    detail: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    problems: list[str] = []

    if not trace:
        setup: list[float] = []
        warm = run_pass(workload, count=workload.warmup_ops)
        timed = run_pass(workload, seconds=seconds, setup=setup)
        mismatch = repeat_mismatch(warm, timed)
        if mismatch:
            problems.append(mismatch)
        metrics = end_to_end(workload, timed, setup)
        detail["setup_samples_s"] = setup
        detail["counter_digest"] = digest(warm.records)
    else:
        metrics = layer_setup_metrics(env, seed)
        warm_tracer = Tracer()
        with warm_tracer.installed():
            warm = run_pass(workload, count=workload.warmup_ops, tracer=warm_tracer)
        tracer = Tracer()
        untraced, timed = run_paired(workload, seconds, tracer)
        mismatch = repeat_mismatch(warm, untraced, timed)
        if mismatch:
            problems.append(mismatch)
        warm_counters = op_counters(warm_tracer.spans)
        first = dict(warm_counters)
        for i, found in sorted(op_counters(tracer.spans).items()):
            key = i % workload.inputs
            if first.setdefault(key, found) != found:
                problems.append(f"op {i} on input {key}: work counters differ from the input's first run")
                break
        metrics.update(summarize(tracer.spans))
        metrics["trace.ops_per_s_untraced"] = len(untraced.times) / sum(untraced.times)
        metrics["trace.ops_per_s_traced"] = len(timed.times) / sum(timed.times)
        metrics["trace.overhead"] = sum(timed.times) / sum(untraced.times) - 1.0
        detail["counter_digest"] = digest(
            (warm.records[i], warm_counters.get(i)) for i in range(workload.warmup_ops)
        )

    wrong = [o.wrong for o in timed.outcomes if o.wrong]
    times = best_times(timed)
    detail.update(
        ops=len(timed.times),
        inputs=len(times),
        passes=len(timed.times) / workload.inputs,
        tail_percentile=workload.tail_percentile,
        inputs_beyond_tail=int(sum(t > np.percentile(times, workload.tail_percentile) for t in times)),
        wrong_outputs=len(wrong),
        first_wrong=wrong[:3],
        problems=problems,
    )
    failed = sum(not o.success for o in timed.outcomes)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": not wrong and not problems,
        "attempted": len(timed.outcomes),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]), help="measured wall time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    seed = args.seed if args.seed is not None else WORKLOADS[args.workload].default_seed
    detail, result = run(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
