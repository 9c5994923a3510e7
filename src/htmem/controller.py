"""Inverse-model policy and the closed-loop executor that follows plans.

The policy maps (current, target, context) to a bounded action and is
trained on one-step transitions with squared action error. The executor
runs a ``Method``: it pursues each plan node for a bounded number of steps,
replans on a global step period, and pursues the goal directly when it has
no plan. A method without a planning config never plans: it is the
inverse-model-only baseline, and its runs are planless, as is a run in
which a planning attempt found no path. The executor observes each state it
visits once, and asks the scorer one question, ``pairwise_logits``.

A step that ``step`` rejects repeats until the next replan, waypoint timeout
or end of the budget, and the executor applies those repeats at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import (
    MlpParams,
    Tape,
    derived_seed,
    fit,
    load_parts,
    mlp_apply,
    mlp_init,
    save_parts,
)
from .connectivity import ConnectivityModel
from .cvae import CvaeModel
from .data import ContextStack, TransitionDataset, training_stacks
from .plangraph import NoPathError, Plan, PlanningConfig, plan_end_to_end
from .world import BlockWorld, Task


@dataclass
class InverseConfig:
    hidden: tuple = (64, 64)
    lr: float = 3e-3
    batch_size: int = 128
    epochs: int = 40
    seed: int = 44


@dataclass
class InverseModel:
    net: MlpParams  # (obs + obs_target + ctx) -> 2, squashed by a_max * tanh
    a_max: float
    obs_dim: int
    ctx_dim: int
    history: list = field(default_factory=list, repr=False)

    def parameters(self):
        return self.net.parameters()

    def save(self, path):
        save_parts(path, "INVM", [self.obs_dim, self.ctx_dim], [np.array([self.a_max]), self.net])

    @classmethod
    def load(cls, path) -> "InverseModel":
        (obs_dim, ctx_dim), (a_max, net) = load_parts(
            path, {"INVM": 2}, lambda h: ((1,), (MlpParams, 2 * h[0] + h[1], 2))
        )
        return cls(net, float(a_max[0]), obs_dim, ctx_dim)


def inverse_init(obs_dim, ctx_dim, a_max, cfg: InverseConfig) -> InverseModel:
    net = mlp_init([2 * obs_dim + ctx_dim, *cfg.hidden, 2], seed=derived_seed(cfg.seed, "net"))
    return InverseModel(net, a_max, obs_dim, ctx_dim)


def infer_action(model: InverseModel, o_current, o_target, ctx) -> np.ndarray:
    """Bounded action toward the target observation; pure function."""
    x = np.concatenate([np.ravel(o_current), np.ravel(o_target), np.ravel(ctx)])
    return model.a_max * np.tanh(mlp_apply(model.net, x))


def inverse_loss(model: InverseModel, inputs, actions, tape: Tape):
    """Mean squared error between predicted and logged actions; each row of
    ``inputs`` is (observation, next observation, context), as
    ``infer_action`` feeds the net."""
    return ad.mean_all(_action_errors(model, inputs, actions, tape))


def _action_errors(model: InverseModel, inputs, actions, tape):
    """Per-row squared action error, a (rows,) node."""
    raw = mlp_apply(model.net, inputs, tape)
    pred = ad.mul(ad.tanh(raw), model.a_max)
    diff = ad.sub(pred, tape.leaf(actions))
    return ad.sum_axis(ad.mul(diff, diff), -1)


def _transitions(stack: ContextStack, idx):
    """(inputs, actions) of the stored transitions ``idx``, numbered in
    context, trajectory, step order: each input row is gathered from the
    stack as (observation, next observation, context encoding)."""
    _, n_traj, t, _ = stack.actions.shape
    c, j, step = idx // (n_traj * t), idx // t % n_traj, idx % t
    obs = stack.observations
    inputs = np.concatenate([obs[c, j, step], obs[c, j, step + 1], stack.encodings[c]], axis=1)
    return inputs, stack.actions[c, j, step]


def train_inverse(dataset: TransitionDataset, world: BlockWorld, cfg: InverseConfig) -> InverseModel:
    """Adam training on the ``inverse_loss`` of batches of training
    transitions, with the best-validation parameters restored at the end.
    Validation takes the same mean over every validation transition, but
    gathers and evaluates them a batch at a time."""
    train, val = training_stacks(dataset, world)
    n_train, n_val = train.actions[..., 0].size, val.actions[..., 0].size

    model = inverse_init(world.obs_dim, world.ctx_dim, world.spec.a_max, cfg)
    rng = np.random.default_rng(derived_seed(cfg.seed, "shuffle"))

    def steps(epoch):
        perm = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            yield lambda tape: inverse_loss(model, *_transitions(train, idx), tape)

    def validate():
        (val_loss,) = ad.evaluate_rows(
            lambda tape, rows: (
                _action_errors(model, *_transitions(val, np.arange(rows.start, rows.stop)), tape),
            ),
            n_val,
            cfg.batch_size,
        )
        return {"val_loss": val_loss}

    return fit(model, cfg.epochs, steps, validate, cfg.lr, "inverse")


# ---------------------------------------------------------------------------
# execution


@dataclass
class Method:
    """One benchmark row's models and planner config; without ``planning``
    the inverse model pursues the goal directly."""

    cvae: CvaeModel
    scorer: ConnectivityModel
    inverse: InverseModel
    planning: PlanningConfig | None = None


@dataclass
class ExecutionConfig:
    n: int = 500  # step budget per task
    r: int = 200  # global replanning period
    tau: float = 0.5  # success distance on simulator states
    eps_wp: float = 0.1  # waypoint-reached radius in state mode
    waypoint_steps: int = 5  # give up on a waypoint after this many steps


@dataclass
class ExecutionResult:
    success: bool
    steps: int
    final_distance: float
    replan_count: int
    planless: bool
    state_trace: np.ndarray  # (steps + 1, 2)
    plans: list
    seed: int


def plan_seed(seed: int, replan_index: int) -> int:
    """Seed of the ``replan_index``-th plan inside one execution."""
    return derived_seed(seed, "plan", replan_index)


def execute(
    world: BlockWorld,
    task: Task,
    method: Method,
    exec_cfg: ExecutionConfig,
    seed: int,
) -> ExecutionResult:
    """Closed-loop run: plan, pursue waypoints, replan every ``r`` steps.

    A plan is tried at step 0 and at every ``r``-th step after it, attempt
    ``steps // r`` drawing from ``plan_seed(seed, steps // r)``. Without a
    plan the goal is pursued directly: a method without ``planning`` is the
    inverse-model-only baseline. The result is planless when there is no
    planner, or when an attempt found no path. The goal, the start and each
    state a step changed, unless it ends the run, are observed once; the
    planner, the policy and the waypoint test read that one observation.

    A rejected step is a fixed point: ``step`` returns its input, so the next
    tick has the same observation, target and context, ``infer_action`` and
    the waypoint test are pure, and the tick repeats. Unless the waypoint
    advanced, the k repeats up to the next replan, waypoint timeout or end of
    the budget are applied at once: k copies of the last trace row, k more
    steps and k more steps on the waypoint, which advances if that times it
    out. The result is bit-identical to running those ticks.
    """
    ctx = task.context
    ctx_enc = world.encode_context(ctx)
    goal_obs = world.observe(ctx, task.goal)
    goal = np.array([task.goal.x, task.goal.y])

    state = task.start
    obs = world.observe(ctx, state)
    trace = [np.array([state.x, state.y])]
    plans: list = []
    planless = method.planning is None
    steps = 0
    plan = None
    wp_idx = 0
    steps_on_wp = 0

    def distance():
        return math.hypot(state.x - goal[0], state.y - goal[1])

    while distance() > exec_cfg.tau and steps < exec_cfg.n:
        if method.planning is not None and steps % exec_cfg.r == 0:
            try:
                plan, _ = plan_end_to_end(
                    ctx_enc,
                    obs,
                    goal_obs,
                    method.cvae,
                    method.scorer,
                    method.planning,
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
        moved = world.step(ctx, state, action)
        stuck, state = moved == state, moved
        steps += 1
        trace.append(np.array([state.x, state.y]))
        if distance() <= exec_cfg.tau:
            break
        if not stuck:
            obs = world.observe(ctx, state)
        counting = plan is not None and wp_idx < len(plan) - 1
        advance = False
        if counting:
            steps_on_wp += 1
            advance = steps_on_wp >= exec_cfg.waypoint_steps or _reached(
                world, method.scorer, obs, ctx_enc, state, plan, wp_idx, exec_cfg.eps_wp
            )
        if stuck and not advance:
            k = exec_cfg.n - steps
            if method.planning is not None:
                k = min(k, -steps % exec_cfg.r)  # steps to the next replan
            if counting:
                k = min(k, exec_cfg.waypoint_steps - steps_on_wp)
                steps_on_wp += k
                advance = steps_on_wp == exec_cfg.waypoint_steps
            steps += k
            trace.extend([trace[-1]] * k)
        if advance:
            wp_idx += 1
            steps_on_wp = 0
    return ExecutionResult(
        success=distance() <= exec_cfg.tau,
        steps=steps,
        final_distance=distance(),
        replan_count=(steps - 1) // exec_cfg.r if method.planning is not None and steps else 0,
        planless=planless,
        state_trace=np.array(trace),
        plans=plans,
        seed=seed,
    )


def _reached(world, scorer, obs, ctx_enc, state, plan: Plan, wp_idx, eps_wp) -> bool:
    """Whether the agent at ``state``, observed as ``obs``, has reached the
    plan's node ``wp_idx``: within ``eps_wp`` of its decoded position in
    state mode; in raster mode once the connectivity score from ``obs`` to
    the node is at least that of the plan edge that led into it."""
    target_obs = plan.observations[wp_idx]
    if world.spec.mode == "state":
        x, y = world.decode_xy(target_obs[None])[0]
        return math.hypot(state.x - x, state.y - y) <= eps_wp
    if np.array_equal(obs, plan.observations[wp_idx - 1]):
        return True  # the plan's own edge: its logit is the one compared with
    # L[i, j] scores the edge j -> i, so [1, 0] is obs -> target
    logit_now = scorer.pairwise_logits(np.stack([obs, target_obs]), ctx_enc)[1, 0]
    return logit_now >= plan.edge_logits[wp_idx - 1]
