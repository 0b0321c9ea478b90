"""The prediction written down for each layer metric before any
optimisation: which end-to-end metric on which workload it should move.  On a
workload not named in its prediction, a layer metric should not change.
Names, units and directions of all metrics are in BENCHMARK.json.

Layer metrics ending in ``.busy_s`` or ``.self_s`` are seconds per op of the
traced pass.  A layer metric reads 0 on a workload that does not reach that
layer."""

_PICK_P50 = "op_p50_ms and ops_per_s on pick_table"
_SIM = "ops_per_s on sim_replay; a small share of op_p50_ms on pick_table"
_VISION = "op_p50_ms and op_tail_ms on pick_table"
_IK_SEED = "op_p50_ms on ik_cold; op_p50_ms on pick_table"
_IK_RESTART = "op_tail_ms and ops_per_s on ik_cold (pick_table's layout stays on the seed path)"
_SETUP = "setup_s on every workload"
_TRACE = "none: describes the traced run itself"

PREDICTIONS = {
    "kinematics.fk_us": "ops_per_s on ik_cold; op_p50_ms on pick_table",
    "kinematics.jacobian_us": "ops_per_s on ik_cold; op_p50_ms on pick_table",
    "ik_solver.seed_path.busy_s": _IK_SEED,
    "ik_solver.restart_path.busy_s": _IK_RESTART,
    "ik_solver.restart_path.time_share": _IK_RESTART,
    "ik_solver.solves": "base of the ik_solver ratios",
    "ik_solver.restart_path.solves": _IK_RESTART,
    "ik_solver.seed_hit_ratio": _IK_RESTART,
    "ik_solver.fail.count": "success_ratio and op_tail_ms on ik_cold",
    "ik_solver.winning_iterations": _IK_SEED,
    "planner.solve_calls_per_cycle": _PICK_P50,
    "planner.ik_useful_ratio": _PICK_P50,
    "planner.plan_pick_place.busy_s": _PICK_P50,
    "planner.plan_to_trajectory.busy_s": _PICK_P50,
    "planner.interpolate.busy_s": _PICK_P50,
    "planner.encode.busy_s": _PICK_P50,
    "planner.knots_per_cycle": _PICK_P50,
    "simulator.parse_frame.busy_s": _SIM,
    "simulator.apply_frame.busy_s": _SIM,
    "simulator.settle.busy_s": _SIM,
    "simulator.ticks": _SIM,
    "simulator.us_per_tick": _SIM,
    "simulator.sim_s_per_wall_s": _SIM,
    "vision.parse_pgm.busy_s": _VISION,
    "vision.subtract_images.busy_s": _VISION,
    "vision.largest_blob.busy_s": _VISION,
    "vision.fg_pixels": _VISION,
    "vision.largest_blob.ns_per_fg_px": _VISION,
    "vision.homography_fit_ms": _SETUP,
    "dh_model.load_arm_config_ms": _SETUP,
    "kinematics.busy_s": "ops_per_s on every workload that reaches the layer",
    "kinematics.self_s": "ops_per_s on every workload that reaches the layer",
    "ik_solver.busy_s": "ops_per_s on ik_cold and pick_table",
    "ik_solver.self_s": "ops_per_s on ik_cold and pick_table",
    "planner.busy_s": _PICK_P50,
    "planner.self_s": _PICK_P50,
    "simulator.busy_s": _SIM,
    "simulator.self_s": _SIM,
    "vision.busy_s": _VISION,
    "vision.self_s": _VISION,
    "dh_model.busy_s": _PICK_P50,
    "dh_model.self_s": _PICK_P50,
    "trace.ops": _TRACE,
    "trace.ops_per_s_untraced": _TRACE,
    "trace.ops_per_s_traced": _TRACE,
    "trace.overhead": _TRACE,
    "trace.uncovered_s": _TRACE,
    "trace.uncovered_share": _TRACE,
}
