"""Tests of the benchmark itself: every check must reject a corrupted output,
the tracer must attribute self time and undo its patches, and a tiny run of
each workload must finish with no failed operation.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from htmem import controller, plangraph  # noqa: E402
from htmem.metrics import TaskRow  # noqa: E402
from htmem.world import AgentState, BlockWorld, Context, Wall, WorldSpec  # noqa: E402

TEST_TRAINING = {
    "cvae": {"epochs": 3},
    "cpc": {"epochs": 3, "steps_per_epoch": 20, "val_batches": 3, "lr": 1e-2},
    "sptm": {"epochs": 1, "steps_per_epoch": 5, "val_batches": 2},
    "inverse": {"epochs": 3},
    "evaluation": {"halluc_pool": 16},
}
TEST_DATA = {"n_contexts": 7, "trajectories_per_context": 5, "trajectory_length": 12, "n_holdout": 2}


def _graph(weights):
    n = len(weights)
    return plangraph.PlanGraph(np.arange(2 * n, dtype=float).reshape(n, 2) / (2 * n),
                               np.zeros((n, n)), np.asarray(weights, dtype=float), "normalized")


def test_check_plan_accepts_the_program_plan_and_rejects_a_longer_one():
    # nodes 0, 1 are samples, 2 is the start and 3 the goal (m_samples = 2);
    # w[i, j] is the edge j -> i
    w = np.full((4, 4), 5.0)
    np.fill_diagonal(w, np.inf)
    w[0, 2], w[3, 0] = 1.0, 1.0  # start -> 0 -> goal costs 2, the direct edge 5
    graph = _graph(w)
    plan = plangraph.shortest_path(graph, 2, 3)
    start, goal = graph.observations[2], graph.observations[3]
    assert checks.check_plan(plan, graph, start, goal, 2) == []

    direct = plangraph.Plan([2, 3], graph.observations[[2, 3]], np.array([5.0]), np.zeros(1), 5.0, "normalized")
    errs = checks.check_plan(direct, graph, start, goal, 2)
    assert any("not the shortest" in e for e in errs)

    wrong_end = replace(plan, node_indices=[2, 0, 1], observations=graph.observations[[2, 0, 1]])
    assert checks.check_plan(wrong_end, graph, start, goal, 2)


def test_check_normalized_rejects_weights_below_one():
    w = np.full((3, 3), 1.5)
    np.fill_diagonal(w, np.inf)
    graph = _graph(w)
    plan = plangraph.shortest_path(graph, 1, 2)
    assert checks.check_normalized(graph, plan, plangraph.jensen_bound_check(graph, plan)) == []
    w[0, 1] = 0.5
    assert checks.check_normalized(graph, plan, plangraph.jensen_bound_check(graph, plan))


def test_check_unit_range_rejects_out_of_range_samples():
    assert checks.check_unit_range(np.array([[0.0, 1.0], [0.5, 0.25]])) == []
    assert checks.check_unit_range(np.array([[0.0, 1.01]]))
    assert checks.check_unit_range(np.array([[np.nan, 0.5]]))


def _ctx():
    return Context(0, 2.8, (Wall(1.4, 0.9, 0.08, 0.9),))


def test_raster_check_matches_program_and_rejects_a_shifted_raster():
    world = BlockWorld(WorldSpec(mode="raster"))
    ctx = _ctx()
    xy = np.array([[0.4, 0.5], [2.1, 2.3], [0.9, 1.9]])
    obs = np.array([world.observe(ctx, AgentState(x, y)) for x, y in xy])
    assert checks.check_observations(obs, xy, world.spec, ctx.arena_size) == []
    g = world.spec.raster_size
    shifted = np.roll(obs.reshape(-1, g, g), 1, axis=2).reshape(len(obs), -1)
    assert checks.check_observations(shifted, xy, world.spec, ctx.arena_size)


def test_state_observation_check():
    world = BlockWorld(WorldSpec())
    ctx = _ctx()
    xy = np.array([[0.4, 0.5]])
    assert checks.check_observations(world.observe(ctx, AgentState(0.4, 0.5)), xy, world.spec, 2.8) == []
    assert checks.check_observations(np.array([0.4, 0.5]), xy, world.spec, 2.8)


def test_path_check_rejects_a_long_step_and_an_invalid_state():
    world = BlockWorld(WorldSpec())
    ctx = _ctx()
    state, trace = AgentState(0.4, 0.4), [[0.4, 0.4]]
    for _ in range(10):
        state = world.step(ctx, state, [0.1, 0.05])
        trace.append([state.x, state.y])
    trace = np.array(trace)
    assert checks.check_path(trace, ctx, world.spec) == []
    jump = trace.copy()
    jump[5:, 0] += 0.05  # one step of 0.15 on the x axis
    assert any("a_max" in e for e in checks.check_path(jump, ctx, world.spec))
    into_wall = np.vstack([trace, [[1.4, 0.5]]])
    assert any("invalid" in e for e in checks.check_path(into_wall, ctx, world.spec))


def test_episode_check_recomputes_the_reported_distance():
    world = BlockWorld(WorldSpec())
    ctx = _ctx()
    task = world.make_task(ctx, seed=3, difficulty="cross-wall")
    trace = np.array([[task.start.x, task.start.y]])
    final = math.hypot(task.start.x - task.goal.x, task.start.y - task.goal.y)
    result = controller.ExecutionResult(False, 0, final, 0, True, trace, [], 7)
    row = TaskRow(0, "inverse_only", "", False, 0, final, None, None, None, 7)
    assert checks.check_episode(result, row, task, world.spec, 0.5) == []
    assert checks.check_episode(result, replace(row, final_distance=final * 0.9), task, world.spec, 0.5)
    assert checks.check_episode(result, replace(row, success=True), task, world.spec, 0.5)


def test_tracer_self_time_and_restore():
    tracer = tracing.Tracer()
    original = plangraph.shortest_path
    with tracer.installed():
        assert plangraph.shortest_path is not original
        assert controller.plan_end_to_end is plangraph.plan_end_to_end
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(20000))
        with tracer.paused():
            plangraph.scheme_weights(np.zeros((3, 3)), "normalized")
        plangraph.scheme_weights(np.zeros((3, 3)), "normalized")
    assert plangraph.shortest_path is original
    spans = tracer.summary()
    outer_total = tracer.end[0] - tracer.start[0]
    assert spans["outer"][1] + spans["inner"][1] == pytest.approx(outer_total)
    assert spans["plangraph.scheme_weights"][0] == 1


TINY_SIZE = dict(queries=4, rounds=1, tasks_per_round=2, data=TEST_DATA, training=TEST_TRAINING)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_clean(name):
    wl = replace(workloads.WORKLOADS[name], **TINY_SIZE)
    trace = name == "zeroshot-state"
    run = workloads.run_workload(name, 3, workloads.NOMINAL_SECONDS, trace, workload=wl)
    assert run.failures == [] and run.structural == []
    line = workloads.result_line(run, trace)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 1 + 5 + 4 + 3 * 2
    wanted = workloads.PER_LAYER_UNITS if trace else workloads.END_TO_END_UNITS
    assert set(line["metrics"]) == set(wanted)
    if trace:
        assert line["metrics"]["plangraph.shortest_path.calls"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_same_seed_same_counts_and_quality():
    wl = replace(workloads.WORKLOADS["zeroshot-state"], **TINY_SIZE)
    a, b, c = (workloads.run_workload("zeroshot-state", s, workloads.NOMINAL_SECONDS, False, workload=wl)
               for s in (5, 5, 6))
    for key in ("mi_lower_bound", "final_distance.htm"):
        assert a.metrics[key] == b.metrics[key]
    assert a.layers == b.layers
    assert a.metrics["mi_lower_bound"] != c.metrics["mi_lower_bound"]


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zeroshot-state", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_workloads():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER_UNITS
    assert spec["run_seconds"] == workloads.NOMINAL_SECONDS
