import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from htmem.autodiff import MlpParams, evaluate, mlp_apply
from htmem.controller import (
    ExecutionConfig,
    InverseConfig,
    InverseModel,
    Method,
    execute,
    infer_action,
    inverse_init,
    inverse_loss,
    plan_seed,
    train_inverse,
)
from htmem import controller, metrics
from htmem.config import config_from_dict
from htmem.cvae import CvaeModel, hallucinate
from htmem.data import DataConfig, collect_dataset, split_context_ids, training_stacks
from htmem.plangraph import NoPathError, Plan, PlanningConfig, plan_end_to_end
from htmem.pipeline import train_all, zero_shot_benchmark
from htmem.world import AgentState, BlockWorld, Context, Task, Wall, WorldSpec
from gradcheck import grad_check
from test_pipeline import TINY


def tiny_dataset():
    world = BlockWorld(WorldSpec(max_walls=1))
    cfg = DataConfig(
        n_contexts=4, trajectories_per_context=6, trajectory_length=10, n_holdout=1, seed=0
    )
    return world, collect_dataset(world, cfg)


def stub_bundle(world, obs_dim=2, ctx_dim=None):
    """Generator spreads samples over the arena; scorer favors nearby pairs."""
    ctx_dim = ctx_dim if ctx_dim is not None else world.ctx_dim
    d_z = 2
    enc = MlpParams([np.zeros((2 * d_z, obs_dim + ctx_dim))], [np.zeros(2 * d_z)])
    dec = MlpParams(
        [np.concatenate([np.eye(2) * 0.15, np.zeros((2, ctx_dim))], axis=1)],
        [np.full(2, 0.5)],
    )
    cvae = CvaeModel(enc, dec, obs_dim, ctx_dim, d_z)

    class DistScorer:
        horizon = 5

        def pairwise_logits(self, obs, ctx):
            d = np.linalg.norm(obs[:, None, :] - obs[None, :, :], axis=2)
            return (-8.0 * d).T

    inverse = inverse_init(obs_dim, ctx_dim, world.spec.a_max, InverseConfig(hidden=(4,)))
    return cvae, DistScorer(), inverse


def test_infer_action_always_within_bounds():
    rng = np.random.default_rng(0)
    model = inverse_init(2, 4, 0.1, InverseConfig(hidden=(8,), seed=1))
    # exaggerate weights to push the net into saturation
    for w in model.net.weights:
        w *= 40.0
    for _ in range(50):
        a = infer_action(model, rng.uniform(size=2), rng.uniform(size=2), rng.uniform(size=4))
        assert np.all(np.abs(a) <= 0.1 + 1e-12)


def test_infer_action_equals_the_policy_with_its_context_apart():
    """One appended row gives the bits of a context passed on its own."""
    rng = np.random.default_rng(3)
    model = inverse_init(256, 256, 0.1, InverseConfig(hidden=(16, 8), seed=2))
    for _ in range(20):
        o, t, c = rng.uniform(size=(3, 256))
        want = 0.1 * np.tanh(mlp_apply(model.net, np.concatenate([o, t]), context=c))
        assert infer_action(model, o, t, c).tobytes() == want.tobytes()


def test_inverse_loss_gradients_pass_fd_check():
    rng = np.random.default_rng(1)
    model = inverse_init(2, 3, 0.1, InverseConfig(hidden=(6,), seed=2))
    obs = rng.uniform(size=(5, 2))
    tgt = rng.uniform(size=(5, 2))
    ctx = rng.uniform(size=(5, 3))
    act = rng.uniform(-0.1, 0.1, size=(5, 2))

    def build(tape):
        return inverse_loss(model, np.concatenate([obs, tgt, ctx], axis=1), act, tape)

    report = grad_check(build, model.parameters())
    assert report.passed, report.max_rel_error


def test_train_inverse_beats_mean_predictor_and_is_deterministic():
    world = BlockWorld(WorldSpec(max_walls=1))
    ds = collect_dataset(
        world,
        DataConfig(
            n_contexts=6, trajectories_per_context=8, trajectory_length=10, n_holdout=1, seed=0
        ),
    )
    cfg = InverseConfig(hidden=(32,), lr=1e-2, epochs=150, batch_size=64, seed=3)
    m1 = train_inverse(ds, world, cfg)
    m2 = train_inverse(ds, world, cfg)
    assert m1.history[-1]["val_loss"] == pytest.approx(m2.history[-1]["val_loss"], abs=1e-12)

    # mean-action predictor oracle on the same validation split
    train, val = training_stacks(ds, world)
    act_train, act_val = train.actions.reshape(-1, 2), val.actions.reshape(-1, 2)
    mean_action = act_train.mean(axis=0)
    baseline = float(((act_val - mean_action) ** 2).sum(axis=1).mean())
    assert m1.history[-1]["val_loss"] < 0.5 * baseline


@pytest.mark.parametrize("trajectories", [2, 5])  # 12 and 30 validation transitions
def test_streamed_validation_matches_the_whole_set_loss(trajectories):
    """The pre-training history row, validated in chunks of 16 transitions,
    against ``inverse_loss`` over every validation transition at once."""
    world = BlockWorld(WorldSpec(max_walls=1))
    ds = collect_dataset(
        world,
        DataConfig(
            n_contexts=4, trajectories_per_context=trajectories, trajectory_length=6,
            n_holdout=1, seed=0,
        ),
    )
    cfg = InverseConfig(hidden=(16,), epochs=1, batch_size=16, seed=2)
    got = train_inverse(ds, world, cfg).history[0]["val_loss"]
    _, val = training_stacks(ds, world)
    n = val.actions[..., 0].size
    model = inverse_init(world.obs_dim, world.ctx_dim, world.spec.a_max, cfg)
    want = evaluate(
        lambda tape: inverse_loss(model, *controller._transitions(val, np.arange(n)), tape)
    )
    if n <= cfg.batch_size:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    else:
        assert n % cfg.batch_size
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_train_inverse_encodes_each_context_once(monkeypatch):
    world, ds = tiny_dataset()
    calls = []
    encode = BlockWorld.encode_context

    def counting(self, ctx):
        calls.append(ctx.id)
        return encode(self, ctx)

    monkeypatch.setattr(BlockWorld, "encode_context", counting)
    train_inverse(ds, world, InverseConfig(hidden=(8,), epochs=2, batch_size=16, seed=1))
    train_ids, val_ids, _ = split_context_ids(ds)
    assert len(calls) <= len(train_ids) + len(val_ids or train_ids[:1])


def test_inverse_checkpoint_roundtrip(tmp_path):
    model = inverse_init(2, 4, 0.07, InverseConfig(hidden=(8,), seed=5))
    model.save(tmp_path / "inv.ckpt")
    loaded = InverseModel.load(tmp_path / "inv.ckpt")
    assert loaded.a_max == pytest.approx(0.07)
    for a, b in zip(loaded.parameters(), model.parameters()):
        assert np.array_equal(a, b)
    x = np.random.default_rng(0).uniform(size=2)
    assert np.array_equal(
        infer_action(model, x, x, np.zeros(4)), infer_action(loaded, x, x, np.zeros(4))
    )


# ---------------------------------------------------------------------------
# executor


def free_context():
    return Context(0, 2.8, ())


def walled_context():
    return Context(0, 2.8, (Wall(1.4, 0.9, 0.08, 0.9),))


def pushing_inverse(world, push=(50.0, 0.0)):
    """A policy that ignores its inputs: tanh of ``push``, full speed right
    by default."""
    model = inverse_init(world.obs_dim, world.ctx_dim, world.spec.a_max, InverseConfig(hidden=(4,), seed=9))
    for w in model.net.weights:
        w[...] = 0.0
    model.net.biases[-1][...] = push
    return model


def greedy_inverse(world, gain=20.0):
    """A state-mode policy that heads straight for its target."""
    w = np.zeros((2, 4 + world.ctx_dim))
    w[:, :2], w[:, 2:4] = -gain * np.eye(2), gain * np.eye(2)
    net = MlpParams([w], [np.zeros(2)])
    return InverseModel(net, world.spec.a_max, 2, world.ctx_dim)


def test_execute_immediate_success_zero_steps():
    world = BlockWorld(WorldSpec())
    cvae, scorer, inverse = stub_bundle(world)
    task = Task(free_context(), AgentState(1.0, 1.0), AgentState(1.2, 1.0))
    res = execute(
        world,
        task,
        Method(cvae, scorer, inverse, PlanningConfig(m_samples=0)),
        ExecutionConfig(),
        seed=0,
    )
    assert res.success and res.steps == 0
    assert res.final_distance <= 0.5
    assert res.replan_count == 0
    assert len(res.state_trace) == 1


def test_execute_respects_step_budget_and_replan_accounting():
    world = BlockWorld(WorldSpec())
    cvae, scorer, _ = stub_bundle(world)
    # inverse model that always pushes right at full speed
    method = Method(cvae, scorer, pushing_inverse(world), PlanningConfig(m_samples=4))

    # into the wall: the run exhausts the budget
    ctx = walled_context()
    task = Task(ctx, AgentState(1.1, 0.5), AgentState(2.4, 0.5))
    res = execute(world, task, method, ExecutionConfig(n=10, r=4), seed=1)
    assert not res.success
    assert res.steps == 10
    assert res.replan_count == math.floor((res.steps - 1) / 4) == 2
    assert len(res.plans) == 3  # initial plan plus two replans
    enc = world.encode_context(ctx)
    assert np.array_equal(res.plans[0].candidates, hallucinate(cvae, enc, 4, plan_seed(1, 0)))
    # all visited states stay valid under the dynamics
    for x, y in res.state_trace:
        assert world.state_valid(ctx, AgentState(x, y))

    # open arena: 1.95 away at 0.1 per step, the run succeeds at step 15,
    # three steps into the fourth replanning period
    task = Task(free_context(), AgentState(0.45, 0.5), AgentState(2.4, 0.5))
    res = execute(world, task, method, ExecutionConfig(n=20, r=4), seed=1)
    assert res.success and not res.planless
    assert res.steps == 15
    assert res.replan_count == (res.steps - 1) // 4 == 3
    assert len(res.plans) == res.replan_count + 1
    enc = world.encode_context(task.context)
    assert all(
        np.array_equal(p.candidates, hallucinate(cvae, enc, 4, plan_seed(1, k)))
        for k, p in enumerate(res.plans)
    )


def test_execute_observes_each_state_once(monkeypatch):
    world = BlockWorld(WorldSpec())
    cvae, scorer, _ = stub_bundle(world)
    observed = []
    observe = BlockWorld.observe

    def counting(self, ctx, state):
        observed.append(state)
        return observe(self, ctx, state)

    monkeypatch.setattr(BlockWorld, "observe", counting)
    # three steps right, then the wall rejects every step
    task = Task(walled_context(), AgentState(0.85, 0.5), AgentState(2.4, 0.5))
    res = execute(
        world,
        task,
        Method(cvae, scorer, pushing_inverse(world), PlanningConfig(m_samples=4)),
        ExecutionConfig(n=10, r=4),
        seed=1,
    )
    assert len(res.plans) == 3
    # the goal, the start, and each state a step changed, each observed once
    trace = [AgentState(x, y) for x, y in res.state_trace]
    changed = [b for a, b in zip(trace, trace[1:]) if b != a]
    assert len(changed) == 3
    assert observed == [task.goal, task.start, *changed]


def test_execute_raster_waypoints_ask_the_scorer_pairwise_logits_alone():
    """A scorer with ``pairwise_logits`` and nothing else serves the planner
    and the raster waypoint test."""
    world = BlockWorld(WorldSpec(mode="raster"))
    ctx = free_context()
    task = Task(ctx, AgentState(0.5, 1.4), AgentState(2.3, 1.4))
    # every sample is the raster of the midpoint, so plans pass through it
    mid = world.observe(ctx, AgentState(1.4, 1.4))
    d_z, obs_dim, ctx_dim = 2, world.obs_dim, world.ctx_dim
    enc = MlpParams([np.zeros((2 * d_z, obs_dim + ctx_dim))], [np.zeros(2 * d_z)])
    dec = MlpParams([np.zeros((obs_dim, d_z + ctx_dim))], [mid])
    cvae = CvaeModel(enc, dec, obs_dim, ctx_dim, d_z)
    inverse = inverse_init(obs_dim, ctx_dim, world.spec.a_max, InverseConfig(hidden=(4,)))
    rows = []

    class DecodedDistScorer:
        def pairwise_logits(self, obs, ctx):
            rows.append(len(obs))
            xy = world.decode_xy(obs)
            return -8.0 * np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=2)

    res = execute(
        world,
        task,
        Method(cvae, DecodedDistScorer(), inverse, PlanningConfig(m_samples=3)),
        ExecutionConfig(n=12, r=6),
        seed=0,
    )
    assert res.steps > 0 and len(res.plans) >= 1
    assert all(len(p) >= 3 for p in res.plans)
    assert 2 in rows  # the waypoint test scored the agent against its waypoint


def test_raster_waypoint_is_reached_from_the_start_of_its_own_edge():
    """At the node its edge leaves from, the agent meets the edge's logit
    exactly, however a 2-row product of the scorer rounds."""
    world = BlockWorld(WorldSpec(mode="raster"))
    ctx = free_context()
    states = [AgentState(0.5, 1.4), AgentState(1.4, 1.4), AgentState(2.3, 1.4)]
    obs = np.array([world.observe(ctx, st) for st in states])
    edge_logits = np.array([-1.7, -1.7])
    plan = Plan([0, 1, 2], obs, np.ones(2), edge_logits, 2.0, "normalized")
    rows = []

    class OneUlpLowScorer:
        def pairwise_logits(self, nodes, ctx_enc):
            rows.append(len(nodes))
            return np.full((len(nodes), len(nodes)), np.nextafter(edge_logits[0], -np.inf))

    ctx_enc = world.encode_context(ctx)
    for wp_idx in (1, 2):
        assert controller._reached(
            world, OneUlpLowScorer(), obs[wp_idx - 1], ctx_enc, states[wp_idx - 1], plan, wp_idx, 0.1
        )
    assert rows == []
    # from anywhere else the scorer decides
    assert not controller._reached(world, OneUlpLowScorer(), obs[2], ctx_enc, states[2], plan, 1, 0.1)
    assert rows == [2]


def test_execute_success_consistency_flag():
    world = BlockWorld(WorldSpec())
    cvae, scorer, inverse = stub_bundle(world)
    task = Task(free_context(), AgentState(0.4, 0.4), AgentState(2.4, 2.4))
    res = execute(
        world,
        task,
        Method(cvae, scorer, inverse, PlanningConfig(m_samples=0)),
        ExecutionConfig(n=30, r=10),
        seed=2,
    )
    assert res.success == (res.final_distance <= 0.5 and res.steps <= 30)


def test_execute_baseline_is_planless():
    world = BlockWorld(WorldSpec())
    cvae, scorer, inverse = stub_bundle(world)
    task = Task(free_context(), AgentState(0.4, 0.4), AgentState(2.4, 2.4))
    res = execute(
        world,
        task,
        Method(cvae, scorer, inverse),
        ExecutionConfig(n=5),
        seed=3,
    )
    assert res.planless
    assert res.plans == []
    assert res.replan_count == 0


# ---------------------------------------------------------------------------
# stuck steps against the step-by-step loop


def stepwise_execute(world, task, method, exec_cfg, seed):
    """``execute`` one tick at a time: every tick plans when due, infers an
    action, steps, observes and tests its waypoint. The reference for the
    fast-forward of stuck steps in ``execute``."""
    plan_cfg = method.planning
    ctx = task.context
    ctx_enc = world.encode_context(ctx)
    goal_obs = world.observe(ctx, task.goal)
    goal = np.array([task.goal.x, task.goal.y])

    state = task.start
    obs = world.observe(ctx, state)
    trace = [np.array([state.x, state.y])]
    plans = []
    planless = plan_cfg is None
    steps = 0
    plan = None
    wp_idx = 0
    steps_on_wp = 0

    def distance():
        return math.hypot(state.x - goal[0], state.y - goal[1])

    while distance() > exec_cfg.tau and steps < exec_cfg.n:
        if plan_cfg is not None and steps % exec_cfg.r == 0:
            try:
                plan, _ = controller.plan_end_to_end(
                    ctx_enc,
                    obs,
                    goal_obs,
                    method.cvae,
                    method.scorer,
                    plan_cfg,
                    plan_seed(seed, steps // exec_cfg.r),
                )
                plans.append(plan)
                wp_idx = 1
                steps_on_wp = 0
            except NoPathError:
                plan = None
                planless = True
        target_obs = plan.observations[wp_idx] if plan is not None else goal_obs
        action = infer_action(method.inverse, obs, target_obs, ctx_enc)
        state = world.step(ctx, state, action)
        steps += 1
        trace.append(np.array([state.x, state.y]))
        if distance() <= exec_cfg.tau:
            break
        obs = world.observe(ctx, state)
        if plan is not None and wp_idx < len(plan) - 1:
            steps_on_wp += 1
            if steps_on_wp >= exec_cfg.waypoint_steps or controller._reached(
                world, method.scorer, obs, ctx_enc, state, plan, wp_idx, exec_cfg.eps_wp
            ):
                wp_idx += 1
                steps_on_wp = 0
    return controller.ExecutionResult(
        success=distance() <= exec_cfg.tau,
        steps=steps,
        final_distance=distance(),
        replan_count=(steps - 1) // exec_cfg.r if plan_cfg is not None and steps else 0,
        planless=planless,
        state_trace=np.array(trace),
        plans=plans,
        seed=seed,
    )


def execute_against_the_reference(monkeypatch, world, task, method, exec_cfg, seed=1):
    """Run ``execute`` and ``stepwise_execute``, assert every result field
    equal byte for byte, and return the result with the number of
    ``infer_action`` calls ``execute`` made (the reference calls the
    function it imported, not the module's)."""
    calls = []

    def counting(*args):
        calls.append(1)
        return infer_action(*args)

    monkeypatch.setattr(controller, "infer_action", counting)
    fast = execute(world, task, method, exec_cfg, seed)
    slow = stepwise_execute(world, task, method, exec_cfg, seed)
    for name in ("success", "steps", "replan_count", "planless", "seed"):
        assert getattr(fast, name) == getattr(slow, name), name
    assert struct.pack("<d", fast.final_distance) == struct.pack("<d", slow.final_distance)
    assert fast.state_trace.shape == slow.state_trace.shape == (fast.steps + 1, 2)
    assert fast.state_trace.tobytes() == slow.state_trace.tobytes()
    assert len(fast.plans) == len(slow.plans)
    for a, b in zip(fast.plans, slow.plans):
        assert list(a.node_indices) == list(b.node_indices)
        assert a.observations.tobytes() == b.observations.tobytes()
    return fast, len(calls)


def stuck_steps(res):
    """Steps after which the agent stood where it stood before."""
    return int((np.diff(res.state_trace, axis=0) == 0).all(axis=1).sum())


def test_inverse_model_alone_pressing_into_a_wall_matches_the_reference(monkeypatch):
    world = BlockWorld(WorldSpec())
    cvae, scorer, _ = stub_bundle(world)
    task = Task(walled_context(), AgentState(0.85, 0.5), AgentState(2.4, 0.5))
    res, calls = execute_against_the_reference(
        monkeypatch, world, task, Method(cvae, scorer, pushing_inverse(world)), ExecutionConfig(n=50)
    )
    # three steps right, then one rejected step stands for the other 47
    assert res.steps == 50 and res.planless and stuck_steps(res) == 47
    assert calls == 4


def test_a_planless_wall_pressing_run_infers_and_steps_at_most_twice(monkeypatch):
    world = BlockWorld(WorldSpec())
    cvae, scorer, _ = stub_bundle(world)
    counts = {"infer_action": 0, "step": 0}
    step = BlockWorld.step

    def counting_infer(*args):
        counts["infer_action"] += 1
        return infer_action(*args)

    def counting_step(self, *args):
        counts["step"] += 1
        return step(self, *args)

    monkeypatch.setattr(controller, "infer_action", counting_infer)
    monkeypatch.setattr(BlockWorld, "step", counting_step)
    task = Task(walled_context(), AgentState(1.1, 0.5), AgentState(2.4, 0.5))
    res = execute(
        world, task, Method(cvae, scorer, pushing_inverse(world)), ExecutionConfig(n=200), seed=0
    )
    assert res.steps == 200 and len(res.state_trace) == 201
    assert counts["infer_action"] <= 2 and counts["step"] <= 2


@pytest.mark.parametrize(
    "exec_cfg",
    [
        ExecutionConfig(n=60, r=25, waypoint_steps=5),  # waypoints time out while stuck
        ExecutionConfig(n=60, r=7, waypoint_steps=5),  # a replan inside a stuck stretch
        ExecutionConfig(n=1, r=4),
        ExecutionConfig(n=30, r=1),
        ExecutionConfig(n=30, r=8, waypoint_steps=1),
    ],
    ids=["waypoint-timeouts", "replan-inside", "n1", "r1", "waypoint_steps1"],
)
def test_a_stuck_planner_matches_the_reference(monkeypatch, exec_cfg):
    world = BlockWorld(WorldSpec())
    cvae, scorer, _ = stub_bundle(world)
    task = Task(walled_context(), AgentState(1.1, 0.5), AgentState(2.4, 0.5))
    method = Method(cvae, scorer, pushing_inverse(world), PlanningConfig(m_samples=12))
    res, calls = execute_against_the_reference(monkeypatch, world, task, method, exec_cfg)
    assert res.steps == exec_cfg.n and len(res.plans) == (exec_cfg.n - 1) // exec_cfg.r + 1
    if exec_cfg.n > 1 and exec_cfg.r > 1:
        assert max(len(p) for p in res.plans) >= 3 and calls < res.steps


def test_a_no_path_fallback_matches_the_reference(monkeypatch):
    world = BlockWorld(WorldSpec())
    cvae, scorer, _ = stub_bundle(world)
    task = Task(walled_context(), AgentState(1.1, 0.5), AgentState(2.4, 0.5))
    no_path = {plan_seed(1, 0), plan_seed(1, 2)}

    def some_attempts_find_no_path(*args):
        if args[-1] in no_path:
            raise NoPathError("no path")
        return plan_end_to_end(*args)

    monkeypatch.setattr(controller, "plan_end_to_end", some_attempts_find_no_path)
    res, calls = execute_against_the_reference(
        monkeypatch,
        world,
        task,
        Method(cvae, scorer, pushing_inverse(world), PlanningConfig(m_samples=12)),
        ExecutionConfig(n=40, r=10),
    )
    assert res.planless and len(res.plans) == 2 and calls < res.steps


def across_the_wall_plan(world, task):
    """A plan of ``walled_context`` from ``task.start`` whose first waypoint
    lies across the wall; the agent, pressed against the wall, has reached
    the second, and the ones after it lie on the agent's own side."""
    nodes = [
        task.start,
        AgentState(1.8, 0.5),
        AgentState(1.18, 0.5),
        AgentState(0.9, 1.0),
        AgentState(1.0, 2.3),
        task.goal,
    ]
    obs = np.array([world.observe(task.context, st) for st in nodes])
    k = len(nodes)
    return Plan(list(range(k)), obs, np.ones(k - 1), np.zeros(k - 1), k - 1.0, "normalized")


@pytest.mark.parametrize("waypoint_steps, r", [(8, 40), (3, 7), (1, 25), (2, 5)])
def test_a_stuck_agent_moves_again_after_its_waypoint_advances(monkeypatch, waypoint_steps, r):
    """The waypoint across the wall times out; the agent, pressed against
    the wall, has reached the next one, and heads for the one after on its
    own side."""
    world = BlockWorld(WorldSpec())
    cvae, scorer, _ = stub_bundle(world)
    task = Task(walled_context(), AgentState(1.1, 0.5), AgentState(2.4, 0.5))
    plan = across_the_wall_plan(world, task)
    monkeypatch.setattr(controller, "plan_end_to_end", lambda *args: (plan, None))
    res, calls = execute_against_the_reference(
        monkeypatch,
        world,
        task,
        Method(cvae, scorer, greedy_inverse(world, gain=60.0), PlanningConfig(m_samples=0)),
        ExecutionConfig(n=80, r=r, waypoint_steps=waypoint_steps),
    )
    moved = (np.diff(res.state_trace, axis=0) != 0).any(axis=1)
    first_stuck = int(np.argmin(moved))
    assert not moved[first_stuck] and moved[first_stuck + 1 :].any()
    assert calls < res.steps


@pytest.mark.parametrize("seed", range(6))
def test_greedy_runs_between_random_states_match_the_reference(monkeypatch, seed):
    world = BlockWorld(WorldSpec())
    cvae, scorer, _ = stub_bundle(world)
    ctx = walled_context()
    rng = np.random.default_rng(seed)
    task = Task(ctx, world.sample_free_state(ctx, rng), world.sample_free_state(ctx, rng))
    exec_cfg = ExecutionConfig(n=60, r=int(rng.integers(1, 20)), waypoint_steps=int(rng.integers(1, 8)))
    execute_against_the_reference(
        monkeypatch, world, task, Method(cvae, scorer, greedy_inverse(world), PlanningConfig(m_samples=10)), exec_cfg, seed
    )


def test_a_stuck_raster_run_matches_the_reference(monkeypatch):
    """Its waypoints use the ``pairwise_logits`` test. The agent backs into
    the arena's border, away from its waypoint."""
    world = BlockWorld(WorldSpec(mode="raster"))
    ctx = walled_context()
    task = Task(ctx, AgentState(0.45, 0.5), AgentState(2.4, 0.5))
    # every sample is the raster of the midpoint, so plans pass through it
    mid = world.observe(ctx, AgentState(1.425, 0.5))
    d_z, obs_dim, ctx_dim = 2, world.obs_dim, world.ctx_dim
    enc = MlpParams([np.zeros((2 * d_z, obs_dim + ctx_dim))], [np.zeros(2 * d_z)])
    dec = MlpParams([np.zeros((obs_dim, d_z + ctx_dim))], [mid])
    cvae = CvaeModel(enc, dec, obs_dim, ctx_dim, d_z)
    rows = []

    class DecodedDistScorer:
        def pairwise_logits(self, obs, ctx):
            rows.append(len(obs))
            xy = world.decode_xy(obs)
            return -8.0 * np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=2)

    res, calls = execute_against_the_reference(
        monkeypatch,
        world,
        task,
        Method(cvae, DecodedDistScorer(), pushing_inverse(world, (-50.0, 0.0)), PlanningConfig(m_samples=3)),
        ExecutionConfig(n=40, r=15, waypoint_steps=6),
    )
    assert all(len(p) >= 3 for p in res.plans)
    assert 2 in rows and stuck_steps(res) > 0 and calls < res.steps



def test_benchmark_fidelity_rates_the_first_plan_after_a_failed_attempt(monkeypatch):
    world = BlockWorld(WorldSpec())
    cvae, scorer, inverse = stub_bundle(world)
    ctx = walled_context()
    task = Task(ctx, AgentState(1.1, 0.5), AgentState(2.4, 0.5))
    attempts, drawn = [], []

    def no_path_at_first(*args):
        attempts.append(args)
        if len(attempts) == 1:
            raise NoPathError("no path")
        plan, graph = plan_end_to_end(*args)
        drawn.append(plan.candidates)
        return plan, graph

    results = []

    def recorded_execute(*args, **kwargs):
        results.append(execute(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(controller, "plan_end_to_end", no_path_at_first)
    monkeypatch.setattr(metrics, "execute", recorded_execute)
    m = 40
    report = metrics.run_benchmark(
        world,
        [task],
        {"htm": Method(cvae, scorer, inverse, PlanningConfig(m_samples=m))},
        ExecutionConfig(n=10, r=4),
        oracle_horizon=5,
        seed=0,
    )
    (result,), (row,) = results, report.rows
    # attempt 0 found no path, so the first plan is the first replan's
    enc = world.encode_context(ctx)
    assert result.planless and len(drawn) == len(result.plans) >= 1
    assert np.array_equal(drawn[0], hallucinate(cvae, enc, m, plan_seed(result.seed, 1)))
    assert row.fidelity == metrics.fidelity(world, ctx, drawn[0])
    assert all(plan.candidates is None for plan in result.plans)
    assert report.aggregates()["htm"]["no_plan_rate"] == 0.0


@pytest.mark.parametrize("mode", ["state", "raster"])
def test_benchmark_rates_the_candidates_drawn_at_plan_time_and_keeps_none(monkeypatch, mode):
    art = train_all(config_from_dict({**TINY, "world": {"mode": mode}}))
    drawn, results = [], []

    def drawing_planner(*args):
        plan, graph = plan_end_to_end(*args)
        drawn[-1].append(plan.candidates)
        return plan, graph

    def recorded_execute(world, task, *args):
        drawn.append([])
        results.append((task, execute(world, task, *args)))
        return results[-1][1]

    monkeypatch.setattr(controller, "plan_end_to_end", drawing_planner)
    monkeypatch.setattr(metrics, "execute", recorded_execute)
    report = zero_shot_benchmark(art)
    assert len(results) == len(report.rows) == 3 * TINY["evaluation"]["n_tasks"]
    rated = 0
    for row, (task, result), candidates in zip(report.rows, results, drawn):
        assert len(candidates) == len(result.plans)
        assert all(plan.candidates is None for plan in result.plans)
        if result.plans:
            assert row.fidelity == metrics.fidelity(art.world, task.context, candidates[0])
            rated += 1
        else:
            assert row.fidelity is None
    assert rated == 2 * TINY["evaluation"]["n_tasks"]  # every htm and sptm row


def test_benchmark_fidelity_rates_the_nodes_the_plan_searched(monkeypatch):
    """A plan whose candidates are not the generator's draw for its seed is
    rated on its candidates."""
    world = BlockWorld(WorldSpec())
    cvae, scorer, inverse = stub_bundle(world)
    ctx = walled_context()
    task = Task(ctx, AgentState(1.1, 0.5), AgentState(2.4, 0.5))
    m = 40
    in_wall = np.column_stack([np.full(m, 1.4), np.linspace(0.2, 1.6, m)]) / ctx.arena_size
    seeds = []

    def planner_of_walled_nodes(*args):
        plan, graph = plan_end_to_end(*args)
        seeds.append(args[-1])
        return replace(plan, candidates=in_wall), graph

    monkeypatch.setattr(controller, "plan_end_to_end", planner_of_walled_nodes)
    report = metrics.run_benchmark(
        world,
        [task],
        {"htm": Method(cvae, scorer, inverse, PlanningConfig(m_samples=m))},
        ExecutionConfig(n=10, r=4),
        oracle_horizon=5,
        seed=0,
    )
    (row,) = report.rows
    drawn = hallucinate(cvae, world.encode_context(ctx), m, seeds[0])
    assert metrics.fidelity(world, ctx, drawn) > 0
    assert row.fidelity == metrics.fidelity(world, ctx, in_wall) == 0.0


def test_benchmark_without_samples_reports_no_fidelity():
    world = BlockWorld(WorldSpec())
    cvae, scorer, inverse = stub_bundle(world)
    ctx = walled_context()
    tasks = [
        Task(ctx, AgentState(1.1, 0.5), AgentState(2.4, 0.5)),
        Task(ctx, AgentState(0.5, 2.0), AgentState(2.2, 2.3)),
    ]
    report = metrics.run_benchmark(
        world,
        tasks,
        {
            "htm": Method(cvae, scorer, inverse, PlanningConfig(m_samples=0)),
            "inverse_only": Method(cvae, scorer, inverse),
        },
        ExecutionConfig(n=10, r=4),
        oracle_horizon=5,
        seed=0,
    )
    htm = report.rows_for("htm")
    # every first plan is the direct start-to-goal edge, which is rated
    assert len(htm) == 2 and all(r.feasibility is not None for r in htm)
    assert all(r.fidelity is None for r in report.rows)
    agg = report.aggregates()
    assert "mean_fidelity" not in agg["htm"]
    assert agg["htm"]["no_plan_rate"] == 0.0


def test_benchmark_rates_a_first_plan_through_an_empty_raster_node():
    """A generated node that renders nothing decodes to NaN: the oracle fails
    both of its hops, and the benchmark completes."""
    world = BlockWorld(WorldSpec(mode="raster"))
    ctx = free_context()
    task = Task(ctx, AgentState(0.5, 1.4), AgentState(2.3, 1.4))
    d_z, obs_dim, ctx_dim = 2, world.obs_dim, world.ctx_dim
    enc = MlpParams([np.zeros((2 * d_z, obs_dim + ctx_dim))], [np.zeros(2 * d_z)])
    dec = MlpParams([np.zeros((obs_dim, d_z + ctx_dim))], [np.zeros(obs_dim)])
    cvae = CvaeModel(enc, dec, obs_dim, ctx_dim, d_z)
    inverse = inverse_init(obs_dim, ctx_dim, world.spec.a_max, InverseConfig(hidden=(4,)))

    class ViaEmptyScorer:
        """Scores an edge high exactly when one of its ends is empty."""

        def pairwise_logits(self, obs, ctx):
            empty = obs.sum(axis=1) <= 0
            return np.where(empty[:, None] != empty[None, :], 5.0, -5.0)

    report = metrics.run_benchmark(
        world,
        [task],
        {"htm": Method(cvae, ViaEmptyScorer(), inverse, PlanningConfig(m_samples=1))},
        ExecutionConfig(n=4, r=2),
        oracle_horizon=50,
        seed=0,
    )
    # at this horizon the open arena's direct edge would pass, so both hops
    # fail only because the plan runs through the empty node
    (row,) = report.rows
    assert row.feasibility == 0.0 and not row.completeness
    assert row.fidelity == 0.0
