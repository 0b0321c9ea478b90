"""In-memory spans around the calls into armkit's layers.

The benchmark traces the program from outside: ``Tracer.install`` rebinds
selected names in the armkit module namespaces, where the layers look them up
at call time, to wrappers that record one span per call.  Nothing under
``src/`` changes.  Spans stay in a list until ``summarize`` reduces them.

A span is ``(name, layer, start, end, parent, op, attrs)``: ``parent`` is the
index of the enclosing span (-1 for none), ``op`` the benchmark's op id, and
``attrs`` the deterministic counters read off the call's result.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

import armkit.ik_solver
import armkit.planner
import armkit.simulator
import armkit.vision

LAYERS = ("kinematics", "ik_solver", "planner", "simulator", "vision", "dh_model")
OP = "op"


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int
    op: int
    attrs: tuple | None


def _solve_attrs(args, result) -> tuple:
    return ("ok", result.restart_index, result.iterations)


def _solve_error_attrs(exc) -> tuple:
    if isinstance(exc, armkit.ik_solver.NoConvergenceError):
        return ("fail",)
    return ("error", type(exc).__name__)


def _settle_attrs(args, result) -> tuple:
    """Ticks and simulated seconds of one settle, from elapsed_s / tick_s."""
    config = args[2] if len(args) > 2 else armkit.simulator.SimConfig()
    sim_s = result.elapsed_s - args[1].elapsed_s
    return (round(sim_s / config.tick_s), sim_s)


# Where each layer calls another layer's public function (or its own, through
# its module globals), with the hook that reads counters off the result.
# Per-tick calls inside settle (sim_step, forward_kinematics) and the solver's
# per-iteration kinematics are deliberately not wrapped: their cost stays in
# the caller's self time and keeps the tracing overhead small.
WRAPPED: dict[object, dict[str, Callable | None]] = {
    armkit.ik_solver: {
        "solve_ik": _solve_attrs,
        "solve_ik_position_only": _solve_attrs,
        "forward_kinematics": None,
        "pose_to_matrix": None,
        "clamp_to_limits": None,
    },
    armkit.planner: {
        "solve_ik": _solve_attrs,
        "forward_kinematics": None,
        "matrix_to_pose": None,
        "clamp_to_limits": None,
        "interpolate_trajectory": None,
        "top_down_pose": None,
    },
    armkit.simulator: {
        "plan_pick_place": lambda args, plan: (len(plan.waypoints),),
        "plan_to_trajectory": lambda args, traj: (len(traj.knots),),
        "encode_servo_frames": None,
        "initial_state": None,
        "parse_frame": None,
        "apply_frame": None,
        "settle": _settle_attrs,
        "run_pick_cycle": None,
        "replay_frames": None,
    },
    armkit.vision: {
        "parse_pgm": None,
        "detect_object": None,
        "subtract_images": lambda args, mask: (int(np.count_nonzero(mask.bits)),),
        "largest_blob": None,
        "pixel_to_world": None,
    },
}


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, Callable]] = []

    def _wrap(self, fn: Callable, hook: Callable | None) -> Callable:
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_solve = hook is _solve_attrs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                attrs = _solve_error_attrs(exc) if is_solve else ("error", type(exc).__name__)
                spans[index] = Span(name, layer, start, end, parent, self._op, attrs)
                raise
            end = clock()
            stack.pop()
            attrs = hook(args, result) if hook is not None else None
            spans[index] = Span(name, layer, start, end, parent, self._op, attrs)
            return result

        return traced

    def install(self) -> None:
        for module, names in WRAPPED.items():
            for name, hook in names.items():
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(original, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def op(self, op_id: int):
        """The span of one benchmark op; layer spans inside it carry its id."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._op = -1
            self.spans[index] = Span(OP, OP, start, end, -1, op_id, None)


def op_counters(spans: list[Span]) -> dict[int, tuple]:
    """Deterministic work counters per op: the solver outcome of every solve
    (restart index and winning iterations), knots, ticks and foreground
    pixels, in call order."""
    out: dict[int, list] = {}
    for s in spans:
        if s.op < 0 or s.attrs is None:
            continue
        if s.name in ("ik_solver.solve_ik", "ik_solver.solve_ik_position_only") or s.name in (
            "planner.plan_to_trajectory",
            "vision.subtract_images",
        ):
            out.setdefault(s.op, []).append((s.name,) + s.attrs)
        elif s.name == "simulator.settle":
            out.setdefault(s.op, []).append((s.name, s.attrs[0]))
    return {op: tuple(v) for op, v in out.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy and self time per op, and the named layer metrics."""
    ops = [s for s in spans if s.layer == OP]
    n = len(ops)
    op_time = sum(s.end - s.start for s in ops)
    child_time = [0.0] * len(spans)
    busy = dict.fromkeys(LAYERS, 0.0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, float] = {}
    for s in spans:
        if s.op < 0 and s.layer != OP:
            continue
        duration = s.end - s.start
        if s.parent >= 0:
            child_time[s.parent] += duration
        if s.layer == OP:
            continue
        by_name[s.name] = by_name.get(s.name, 0.0) + duration
        # Busy time counts a span only when no enclosing span has its layer.
        p = s.parent
        while p >= 0 and spans[p].layer != s.layer:
            p = spans[p].parent
        if p < 0:
            busy[s.layer] += duration
    for i, s in enumerate(spans):
        if s.layer in self_time and s.op >= 0:
            self_time[s.layer] += (s.end - s.start) - child_time[i]
    uncovered = sum((s.end - s.start) - child_time[i] for i, s in enumerate(spans) if s.layer == OP)

    solves = [s for s in spans if s.op >= 0 and s.name in ("ik_solver.solve_ik", "ik_solver.solve_ik_position_only")]
    seed_hits = [s for s in solves if s.attrs[0] == "ok" and s.attrs[1] == 0]
    restarts = [s for s in solves if not (s.attrs[0] == "ok" and s.attrs[1] == 0)]
    wins = [s.attrs[2] for s in solves if s.attrs[0] == "ok"]
    seed_busy = sum(s.end - s.start for s in seed_hits)
    restart_busy = sum(s.end - s.start for s in restarts)
    cycles = sum(1 for s in spans if s.op >= 0 and s.name == "simulator.run_pick_cycle")
    cycle_solves = sum(1 for s in solves if _inside(spans, s, "simulator.run_pick_cycle"))
    waypoints = sum(s.attrs[0] for s in spans if s.op >= 0 and s.name == "planner.plan_pick_place" and s.attrs)
    knots = sum(s.attrs[0] for s in spans if s.op >= 0 and s.name == "planner.plan_to_trajectory" and s.attrs)
    settles = [s for s in spans if s.op >= 0 and s.name == "simulator.settle"]
    ticks = sum(s.attrs[0] for s in settles)
    sim_s = sum(s.attrs[1] for s in settles)
    fg = sum(s.attrs[0] for s in spans if s.op >= 0 and s.name == "vision.subtract_images")

    def per_op(name: str) -> float:
        return _ratio(by_name.get(name, 0.0), n)

    metrics = {
        "ik_solver.seed_path.busy_s": _ratio(seed_busy, n),
        "ik_solver.restart_path.busy_s": _ratio(restart_busy, n),
        "ik_solver.restart_path.time_share": _ratio(restart_busy, seed_busy + restart_busy),
        "ik_solver.solves": float(len(solves)),
        "ik_solver.restart_path.solves": float(len(restarts)),
        "ik_solver.seed_hit_ratio": _ratio(len(seed_hits), len(solves)),
        "ik_solver.fail.count": float(sum(1 for s in solves if s.attrs[0] != "ok")),
        "ik_solver.winning_iterations": _ratio(sum(wins), len(wins)),
        "planner.solve_calls_per_cycle": _ratio(cycle_solves, cycles),
        "planner.ik_useful_ratio": _ratio(waypoints, cycle_solves),
        "planner.plan_pick_place.busy_s": per_op("planner.plan_pick_place"),
        "planner.plan_to_trajectory.busy_s": per_op("planner.plan_to_trajectory"),
        "planner.interpolate.busy_s": per_op("planner.interpolate_trajectory"),
        "planner.encode.busy_s": per_op("planner.encode_servo_frames"),
        "planner.knots_per_cycle": _ratio(knots, cycles),
        "simulator.parse_frame.busy_s": per_op("simulator.parse_frame"),
        "simulator.apply_frame.busy_s": per_op("simulator.apply_frame"),
        "simulator.settle.busy_s": per_op("simulator.settle"),
        "simulator.ticks": _ratio(ticks, n),
        "simulator.us_per_tick": _ratio(by_name.get("simulator.settle", 0.0), ticks) * 1e6,
        "simulator.sim_s_per_wall_s": _ratio(sim_s, by_name.get("simulator.settle", 0.0)),
        "vision.parse_pgm.busy_s": per_op("vision.parse_pgm"),
        "vision.subtract_images.busy_s": per_op("vision.subtract_images"),
        "vision.largest_blob.busy_s": per_op("vision.largest_blob"),
        "vision.fg_pixels": _ratio(fg, n),
        "vision.largest_blob.ns_per_fg_px": _ratio(by_name.get("vision.largest_blob", 0.0), fg) * 1e9,
        "trace.ops": float(n),
        "trace.uncovered_s": _ratio(uncovered, n),
        "trace.uncovered_share": _ratio(uncovered, op_time),
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = _ratio(busy[layer], n)
        metrics[f"{layer}.self_s"] = _ratio(self_time[layer], n)
    return metrics


def _inside(spans: list[Span], span: Span, name: str) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
