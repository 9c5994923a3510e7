import json
import math

import numpy as np
import pytest

from htmem.metrics import (
    MetricsReport,
    TaskRow,
    completeness,
    feasibility,
    fidelity,
    make_benchmark_tasks,
    mi_lower_bound,
    wilson_interval,
)
from htmem.world import AgentState, BlockWorld, Context, Wall, WorldSpec


def world_and_ctx():
    world = BlockWorld(WorldSpec())
    ctx = Context(0, 2.8, (Wall(1.4, 0.9, 0.08, 0.9),))
    return world, ctx


def hops(world, ctx, states):
    """The oracle's verdicts on the hops of a plan through ``states``."""
    obs = np.array([world.observe(ctx, s) for s in states])
    return world.oracle_reachable(ctx, obs, horizon=5)


def test_fidelity_empty_and_real_samples():
    world, ctx = world_and_ctx()
    assert fidelity(world, ctx, np.zeros((0, 2))) is None
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
    assert feasibility(hops(world, ctx, [AgentState(0.5, 0.5), AgentState(0.7, 0.5)])) == 1.0
    assert feasibility(hops(world, ctx, [AgentState(0.9, 0.5), AgentState(2.0, 0.5)])) == 0.0
    assert feasibility(hops(world, ctx, [AgentState(0.5, 0.5)])) == 1.0


def test_feasibility_of_consecutive_real_frames_is_one():
    # proxy-metric sanity: dataset-consecutive observations always pass
    from htmem.data import DataConfig, collect_dataset

    world = BlockWorld(WorldSpec(max_walls=1))
    ds = collect_dataset(
        world, DataConfig(n_contexts=2, trajectories_per_context=2, trajectory_length=8, n_holdout=0)
    )
    for ctx in ds.contexts:
        for traj in ds.trajectories[ctx.id]:
            assert feasibility(world.oracle_reachable(ctx, traj.observations, horizon=5)) == 1.0


def test_completeness_goal_on_plan_end():
    # every plan ends at its goal; only a plan whose every hop the oracle
    # accepts is complete
    world, ctx = world_and_ctx()
    goal = AgentState(2.2, 1.0)
    around_the_wall = [(0.5, 0.5), (0.9, 0.9), (1.0, 1.4), (1.1, 1.9), (1.4, 2.2), (1.7, 1.9), (1.8, 1.4), (2.1, 1.1)]
    assert completeness(hops(world, ctx, [AgentState(x, y) for x, y in around_the_wall] + [goal]))
    assert not completeness(hops(world, ctx, [AgentState(0.5, 0.5), goal]))
    assert completeness(hops(world, ctx, [goal]))


def test_completeness_is_false_when_one_middle_hop_fails():
    world, ctx = world_and_ctx()
    states = [AgentState(0.5, 0.5), AgentState(0.7, 0.5), AgentState(2.0, 0.5), AgentState(2.2, 0.5)]
    verdicts = hops(world, ctx, states)
    assert verdicts == [True, False, True]
    assert feasibility(verdicts) == pytest.approx(2 / 3)
    assert not completeness(verdicts)


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
        # a planner run whose every planning attempt found no path
        TaskRow(0, "sptm", "sptm_threshold", False, 500, 1.5, None, None, None, 5),
    ]
    return MetricsReport(rows, {"config_hash": "deadbeef", "seed": 0})


def test_report_aggregates_recomputable_from_rows():
    agg = sample_report().aggregates()
    assert agg["htm"]["success_rate"] == 0.5
    assert agg["htm"]["mean_final_distance"] == pytest.approx(0.75)
    assert agg["htm"]["std_final_distance"] == pytest.approx(np.std([0.3, 1.2]))
    assert agg["htm"]["mean_feasibility"] == pytest.approx(0.8)
    assert agg["htm"]["completeness_rate"] == pytest.approx(0.5)
    assert agg["htm"]["mean_fidelity"] == pytest.approx(0.85)
    assert agg["inverse_only"]["success_rate"] == 0.5
    assert "mean_fidelity" not in agg["inverse_only"]
    assert agg["htm"]["success_interval"] == wilson_interval(1, 2)
    assert agg["sptm"]["success_interval"] == wilson_interval(0, 1)
    assert agg["htm"]["no_plan_rate"] == 0.0
    assert agg["sptm"]["no_plan_rate"] == 1.0
    assert "mean_feasibility" not in agg["sptm"] and "completeness_rate" not in agg["sptm"]
    assert "no_plan_rate" not in agg["inverse_only"]


def test_report_json_shape(tmp_path):
    rep = sample_report()
    json_path = tmp_path / "report.json"
    rep.to_json(json_path)

    payload = json.loads(json_path.read_text())
    assert payload["metadata"]["config_hash"] == "deadbeef"
    assert payload["aggregates"]["htm"]["tasks"] == 2
    assert len(payload["rows"]) == 5
    assert payload["aggregates"]["htm"]["success_interval"] == list(wilson_interval(1, 2))
    assert payload["rows"][4] == {
        "task_id": 0,
        "method": "sptm",
        "scheme": "sptm_threshold",
        "success": False,
        "steps": 500,
        "final_distance": 1.5,
        "feasibility": None,
        "completeness": None,
        "fidelity": None,
        "seed": 5,
    }


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


def test_fidelity_propagates_errors_other_than_undecodable_samples(monkeypatch):
    world, ctx = world_and_ctx()

    def broken_decode_xy(obs):
        raise RuntimeError("decoder bug")

    monkeypatch.setattr(world, "decode_xy", broken_decode_xy)
    with pytest.raises(RuntimeError, match="decoder bug"):
        fidelity(world, ctx, np.zeros((3, 2)))


def test_fidelity_equals_per_sample_state_valid():
    world = BlockWorld(WorldSpec(mode="raster"))
    ctx = Context(0, 2.8, (Wall(1.4, 0.9, 0.08, 0.9),))
    rng = np.random.default_rng(1)
    obs = rng.uniform(0.0, 1.0, (40, 256)) * (rng.uniform(size=(40, 256)) < 0.02)
    obs[::7] = 0.0  # empty rasters cannot be decoded and count as invalid
    centers = (np.arange(16) + 0.5) * (2.8 / 16)
    valid = 0
    for o in obs:
        grid = o.reshape(16, 16)
        total = grid.sum()
        if total > 0:
            x = float((grid.sum(axis=0) * centers).sum() / total)
            y = float((grid.sum(axis=1) * centers).sum() / total)
            valid += world.state_valid(ctx, AgentState(x, y))
    assert 0 < valid < len(obs)
    assert fidelity(world, ctx, obs) == valid / len(obs)
