import csv
import json
import math

import numpy as np
import pytest

from htmem.cvae import HallucinationSet
from htmem.metrics import (
    AblationGrid,
    MetricsReport,
    TaskRow,
    completeness,
    feasibility,
    fidelity,
    make_benchmark_tasks,
    mi_lower_bound,
    wilson_interval,
)
from htmem.plangraph import Plan
from htmem.world import AgentState, BlockWorld, Context, EvaluationError, Task, Wall, WorldSpec


def world_and_ctx():
    world = BlockWorld(WorldSpec())
    ctx = Context(0, 2.8, (Wall(1.4, 0.9, 0.08, 0.9),))
    return world, ctx


def plan_from_states(world, ctx, states):
    obs = np.array([world.observe(ctx, s) for s in states])
    n = len(states)
    return Plan(list(range(n)), obs, np.ones(n - 1), np.zeros(n - 1), float(n - 1), "normalized")


def test_fidelity_empty_and_real_samples():
    world, ctx = world_and_ctx()
    assert fidelity(world, ctx, HallucinationSet(0, np.zeros((0, 2)), 0)) == 1.0
    rng = np.random.default_rng(0)
    states = [world.sample_free_state(ctx, rng) for _ in range(30)]
    obs = np.array([world.observe(ctx, s) for s in states])
    assert fidelity(world, ctx, obs) == 1.0


def test_fidelity_counts_invalid_samples():
    world, ctx = world_and_ctx()
    good = world.observe(ctx, AgentState(0.7, 0.7))
    inside_wall = np.array([1.4 / 2.8, 0.5 / 2.8])  # decodes into the wall
    obs = np.stack([good, inside_wall, good, inside_wall])
    assert fidelity(world, ctx, obs) == pytest.approx(0.5)


def test_feasibility_adjacent_vs_teleport():
    world, ctx = world_and_ctx()
    near = plan_from_states(world, ctx, [AgentState(0.5, 0.5), AgentState(0.7, 0.5)])
    assert feasibility(world, ctx, near, horizon=5) == 1.0
    teleport = plan_from_states(world, ctx, [AgentState(0.9, 0.5), AgentState(2.0, 0.5)])
    assert feasibility(world, ctx, teleport, horizon=5) == 0.0
    single = plan_from_states(world, ctx, [AgentState(0.5, 0.5)])
    assert feasibility(world, ctx, single, horizon=5) == 1.0


def test_feasibility_of_consecutive_real_frames_is_one():
    # proxy-metric sanity: dataset-consecutive observations always pass
    from htmem.data import DataConfig, collect_dataset

    world = BlockWorld(WorldSpec(max_walls=1))
    ds = collect_dataset(
        world, DataConfig(n_contexts=2, trajectories_per_context=2, trajectory_length=8, n_holdout=0)
    )
    for ctx in ds.contexts:
        for traj in ds.trajectories[ctx.id]:
            plan = Plan(
                list(range(len(traj.observations))),
                traj.observations,
                np.ones(len(traj)),
                np.zeros(len(traj)),
                float(len(traj)),
                "normalized",
            )
            assert feasibility(world, ctx, plan, horizon=5) == 1.0


def test_completeness_goal_on_plan_end():
    world, ctx = world_and_ctx()
    goal = AgentState(2.2, 1.0)
    task = Task(ctx, AgentState(0.5, 0.5), goal)
    ends_at_goal = plan_from_states(world, ctx, [AgentState(0.5, 0.5), goal])
    assert completeness(world, ctx, ends_at_goal, task, horizon=5)
    ends_far = plan_from_states(world, ctx, [AgentState(0.5, 0.5), AgentState(0.5, 2.0)])
    assert not completeness(world, ctx, ends_far, task, horizon=5)


def test_mi_lower_bound_values_and_validation():
    assert mi_lower_bound(math.log(16), 16) == pytest.approx(0.0)
    assert mi_lower_bound(0.0, 16) == pytest.approx(math.log(16))
    with pytest.raises(ValueError):
        mi_lower_bound(-0.1, 16)
    with pytest.raises(ValueError):
        mi_lower_bound(1.0, 1)


def test_wilson_interval_bounds():
    low, high = wilson_interval(8, 10)
    assert 0.0 <= low <= 0.8 <= high <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)


def sample_report():
    rows = [
        TaskRow(0, "htm", "normalized", True, 120, 0.3, 0.9, True, 0.8, 1),
        TaskRow(1, "htm", "normalized", False, 500, 1.2, 0.7, False, 0.9, 2),
        TaskRow(0, "inverse_only", "", False, 500, 1.9, None, None, None, 3),
        TaskRow(1, "inverse_only", "", True, 80, 0.4, None, None, None, 4),
    ]
    return MetricsReport(rows, {"config_hash": "deadbeef", "seed": 0})


def test_report_aggregates_recomputable_from_rows():
    rep = sample_report()
    assert rep.success_rate("htm") == 0.5
    mean_d, std_d = rep.mean_final_distance("htm")
    assert mean_d == pytest.approx(0.75)
    assert std_d == pytest.approx(np.std([0.3, 1.2]))
    assert rep.mean_feasibility("htm") == pytest.approx(0.8)
    assert rep.completeness_rate("htm") == pytest.approx(0.5)
    agg = rep.aggregates()
    assert agg["inverse_only"]["success_rate"] == 0.5
    assert "mean_fidelity" not in agg["inverse_only"]


def test_report_csv_and_json_shape(tmp_path):
    rep = sample_report()
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    rep.to_csv(csv_path)
    rep.to_json(json_path)

    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == [
        "task_id",
        "method",
        "scheme",
        "success",
        "steps",
        "final_distance",
        "feasibility",
        "completeness",
        "fidelity",
        "seed",
    ]
    assert rows[2]["feasibility"] == ""  # baseline rows have no plan metrics

    payload = json.loads(json_path.read_text())
    assert payload["metadata"]["config_hash"] == "deadbeef"
    assert payload["aggregates"]["htm"]["tasks"] == 2
    assert len(payload["rows"]) == 4


def test_report_deterministic_bytes(tmp_path):
    rep = sample_report()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rep.to_json(a)
    rep.to_json(b)
    assert a.read_bytes() == b.read_bytes()


def test_make_benchmark_tasks_round_robin_and_deterministic():
    world = BlockWorld(WorldSpec())
    contexts = [world.generate_context(50 + k, context_id=k) for k in range(3)]
    tasks = make_benchmark_tasks(world, contexts, 7, seed=9)
    assert [t.context.id for t in tasks] == [0, 1, 2, 0, 1, 2, 0]
    again = make_benchmark_tasks(world, contexts, 7, seed=9)
    assert tasks == again
    for t in tasks:
        assert not world.swept_free(t.context, (t.start.x, t.start.y), (t.goal.x, t.goal.y))


def test_ablation_grid_shape_and_accessors(tmp_path):
    grid = AblationGrid(
        ["cpc", "sptm"],
        ["sptm_threshold", "inverse", "normalized"],
        np.array([[0.9, 0.5, 0.3], [1.4, 1.1, 0.8]]),
        task_ids=list(range(10)),
    )
    assert grid.mean_final_distance.shape == (2, 3)
    assert grid.cell("cpc", "normalized") == pytest.approx(0.3)
    assert grid.best_cell() == ("cpc", "normalized")
    out = tmp_path / "grid.csv"
    grid.to_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "score_model,sptm_threshold,inverse,normalized"
    text = grid.to_text()
    assert "cpc" in text and "normalized" in text


def test_fidelity_propagates_errors_other_than_undecodable_samples(monkeypatch):
    world, ctx = world_and_ctx()

    def broken_decode(obs):
        raise RuntimeError("decoder bug")

    monkeypatch.setattr(world, "decode", broken_decode)
    with pytest.raises(RuntimeError, match="decoder bug"):
        fidelity(world, ctx, np.zeros((3, 2)))


def test_fidelity_equals_per_sample_state_valid():
    world = BlockWorld(WorldSpec(mode="raster"))
    ctx = Context(0, 2.8, (Wall(1.4, 0.9, 0.08, 0.9),))
    rng = np.random.default_rng(1)
    obs = rng.uniform(0.0, 1.0, (40, 256)) * (rng.uniform(size=(40, 256)) < 0.02)
    obs[::7] = 0.0  # empty rasters cannot be decoded and count as invalid
    valid = 0
    for o in obs:
        try:
            valid += world.state_valid(ctx, world.decode(o))
        except EvaluationError:
            pass
    assert 0 < valid < len(obs)
    assert fidelity(world, ctx, obs) == valid / len(obs)
