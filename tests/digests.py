"""Print the fixed-seed digests: the first 12 hex digits of the sha256 of the
state and raster ``report.json`` and checkpoints of ``test_pipeline.TINY``,
of every ``ExecutionResult`` of those two zero-shot benchmarks, of
``weight_scheme_ablation(train_all(TINY state)).to_json``, and of every
``ExecutionResult`` of the zero-shot benchmark of ``test_pipeline.PRESSING``,
whose agents press into walls, and of ``execute`` runs of the hand-made
models of ``test_controller`` that press into a wall while they count steps
on an intermediate waypoint, and of the CVAE and inverse-model ``history``
rows of a ``test_pipeline.TINY`` raster run with batches of 28 rows, which
split both validation sets into several chunks and a remainder, and of the
``step`` results and ``swept_free`` verdicts of moves and hops that start
near the edges and corners of the walls of generated contexts, and of the
observations, actions and trajectory states of ``collect_dataset`` on the
data configs of both benchmark workloads and of a raster world with one or
two walls, and of ``scheme_weights`` under every scheme on the seeded logits
of ``test_plangraph``, and of the node indices and totals of
``shortest_path`` on the seeded integer-weight, absorbed and tied search
problems of ``test_plangraph``, and of the context id, start and goal of
every benchmark task that ``train_all`` draws for ``test_pipeline.TINY`` in
either mode.

    PYTHONPATH=src python3 tests/digests.py [--check FILE]

A change that claims bit-identical outputs prints the same twenty-one lines
before and after it. With ``--check FILE``, the lines printed are then
compared with FILE, an earlier output of this script, and the script exits 1
after naming each line that differs or that only one of the two has. Pytest
does not collect this file.
"""

import argparse
import contextlib
import hashlib
import json
import pathlib
import struct
import tempfile

import numpy as np

from htmem import controller, metrics
from htmem.config import config_from_dict
from htmem.controller import ExecutionConfig, Method, execute, train_inverse
from htmem.cvae import train_cvae
from htmem.data import DataConfig, collect_dataset
from htmem.pipeline import train_all, weight_scheme_ablation, zero_shot_benchmark
from htmem.plangraph import WEIGHT_SCHEMES, NoPathError, PlanningConfig, scheme_weights, shortest_path
from htmem.world import AgentState, BlockWorld, Task, WorldSpec
from test_controller import (
    across_the_wall_plan,
    greedy_inverse,
    pushing_inverse,
    stub_bundle,
    walled_context,
)
from test_pipeline import PRESSING, TINY, run_digests
from test_plangraph import (
    absorbed_problems,
    deep_absorbed_problems,
    graph_from_weights,
    integer_weight_problems,
    seeded_logits,
    small_tied_problems,
)


def execution_digest(results) -> str:
    """sha256 of each result's counters, trace and plans (node indices and
    observations), in order."""
    h = hashlib.sha256()

    def array(a):
        a = np.asarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())

    for res in results:
        h.update(
            struct.pack(
                "<?qdq?qq",
                res.success,
                res.steps,
                res.final_distance,
                res.replan_count,
                res.planless,
                res.seed,
                len(res.plans),
            )
        )
        array(res.state_trace)
        for plan in res.plans:
            array(np.asarray(plan.node_indices, dtype=np.int64))
            array(plan.observations)
    return h.hexdigest()


@contextlib.contextmanager
def recorded_executions():
    """Yields the list that every ``ExecutionResult`` of the block joins."""
    results = []
    execute = metrics.execute

    def recorded_execute(*args, **kwargs):
        results.append(execute(*args, **kwargs))
        return results[-1]

    metrics.execute = recorded_execute
    try:
        yield results
    finally:
        metrics.execute = execute


def waypoint_fast_forwards():
    """Runs that take rejected steps while they count steps on an
    intermediate waypoint: full-speed pushes into a wall under several
    replan periods and waypoint bounds, and a greedy policy on a fixed plan
    whose waypoint across the wall times out before the agent moves on (the
    models and plan of ``test_controller``)."""
    world = BlockWorld(WorldSpec())
    cvae, scorer, _ = stub_bundle(world)
    task = Task(walled_context(), AgentState(1.1, 0.5), AgentState(2.4, 0.5))
    pushing = Method(cvae, scorer, pushing_inverse(world), PlanningConfig(m_samples=12))
    results = [
        execute(world, task, pushing, exec_cfg, 1)
        for exec_cfg in (
            ExecutionConfig(n=60, r=25, waypoint_steps=5),
            ExecutionConfig(n=60, r=7, waypoint_steps=5),
            ExecutionConfig(n=30, r=8, waypoint_steps=1),
        )
    ]
    plan = across_the_wall_plan(world, task)
    greedy = Method(cvae, scorer, greedy_inverse(world, gain=60.0), PlanningConfig(m_samples=0))
    planner = controller.plan_end_to_end
    controller.plan_end_to_end = lambda *args: (plan, None)
    try:
        for waypoint_steps, r in ((8, 40), (3, 7), (1, 25), (2, 5)):
            exec_cfg = ExecutionConfig(n=80, r=r, waypoint_steps=waypoint_steps)
            results.append(execute(world, task, greedy, exec_cfg, 1))
    finally:
        controller.plan_end_to_end = planner
    return results


def validation_histories() -> str:
    """sha256 of the CVAE and inverse-model ``history`` rows of a TINY raster
    run whose 104 CVAE and 96 inverse validation rows are validated in
    chunks of 28."""
    cfg = config_from_dict(
        {
            **TINY,
            "world": {"mode": "raster"},
            "cvae": {**TINY["cvae"], "batch_size": 28},
            "inverse": {**TINY["inverse"], "batch_size": 28},
        }
    )
    world = BlockWorld(cfg.world)
    ds = collect_dataset(world, cfg.data)
    rows = [train_cvae(ds, world, cfg.cvae).history, train_inverse(ds, world, cfg.inverse).history]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def swept_disc_decisions() -> str:
    """sha256 of the ``step`` result of each move and the ``swept_free``
    verdict of each hop that starts within 0.3 of a wall's edges, or r(1 +/-
    1e-9) from one of its corners, in the contexts of seeds 0-5."""
    world = BlockWorld(WorldSpec(n_walls=(1, 2)))
    r, a_max = world.spec.agent_radius, world.spec.a_max
    rng = np.random.default_rng(11)
    h = hashlib.sha256()
    for seed in range(6):
        ctx = world.generate_context(seed)
        for w in ctx.walls:
            u, v = rng.uniform(-0.3, 0.3, (2, 400))
            starts = np.stack([w.cx + np.copysign(w.half_w, u) + u, w.cy + np.copysign(w.half_h, v) + v], 1)
            theta = rng.uniform(0.0, 2 * np.pi, 400)
            sx, sy = rng.choice([-1.0, 1.0], (2, 400))
            dist = r * (1 + rng.uniform(-1e-9, 1e-9, 400))
            corners = np.stack(
                [w.cx + sx * w.half_w + dist * np.cos(theta), w.cy + sy * w.half_h + dist * np.sin(theta)], 1
            )
            for p0 in np.concatenate([starts, corners]).tolist():
                a = rng.uniform(-1.2 * a_max, 1.2 * a_max, 2)
                st = world.step(ctx, AgentState(*p0), a)
                p1 = (p0[0] + rng.uniform(-0.8, 0.8), p0[1] + rng.uniform(-0.8, 0.8))
                h.update(struct.pack("<dd?", st.x, st.y, world.swept_free(ctx, p0, p1)))
    return h.hexdigest()


# (world spec, data config) of the two benchmark workloads and of a raster
# world with one or two walls
DATASET_CASES = (
    ({"mode": "state"}, {"n_contexts": 30, "trajectories_per_context": 10, "trajectory_length": 20, "n_holdout": 8, "val_fraction": 0.3}),
    ({"mode": "raster"}, {"n_contexts": 50, "trajectories_per_context": 6, "trajectory_length": 20, "n_holdout": 8, "val_fraction": 0.3}),
    ({"mode": "raster", "n_walls": (1, 2)}, {"n_contexts": 20, "trajectories_per_context": 8, "trajectory_length": 20}),
)


def dataset_digest() -> str:
    """sha256 of the observations, actions and trajectory states of
    ``collect_dataset`` at seeds 1 and 2 of each of ``DATASET_CASES``."""
    h = hashlib.sha256()
    for spec, data in DATASET_CASES:
        world = BlockWorld(WorldSpec(**spec))
        for seed in (1, 2):
            ds = collect_dataset(world, DataConfig(**data, seed=seed))
            for a in (ds.observations, ds.actions, *(t.states for c in ds.contexts for t in ds.trajectories[c.id])):
                h.update(repr((a.dtype.str, a.shape)).encode())
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def plan_weights_digest() -> str:
    """sha256 of ``scheme_weights`` under every scheme on each of the
    seeded logits of ``test_plangraph``, special entries included."""
    h = hashlib.sha256()
    for logits in seeded_logits():
        for scheme in WEIGHT_SCHEMES:
            with np.errstate(invalid="ignore"):
                w = scheme_weights(logits, scheme)
            h.update(repr((scheme, w.shape)).encode())
            h.update(w.tobytes())
    return h.hexdigest()


def plans_digest() -> str:
    """sha256 of the node indices and total of ``shortest_path`` on each of
    the seeded search problems of ``test_plangraph``, or of its
    ``NoPathError``."""
    h = hashlib.sha256()
    for problems in (integer_weight_problems, absorbed_problems, deep_absorbed_problems, small_tied_problems):
        for w, start, goal in problems():
            try:
                plan = shortest_path(graph_from_weights(w), start, goal)
            except NoPathError:
                h.update(b"no path")
                continue
            h.update(np.asarray(plan.node_indices, dtype=np.int64).tobytes())
            h.update(struct.pack("<d", plan.total_weight))
    return h.hexdigest()


def tasks_digest() -> str:
    """sha256 of the context id, start and goal of each task in
    ``train_all(TINY).tasks``, state mode first, then raster."""
    h = hashlib.sha256()
    for mode in ("state", "raster"):
        for task in train_all(config_from_dict({**TINY, "world": {"mode": mode}})).tasks:
            h.update(struct.pack("<qdddd", task.context.id, task.start.x, task.start.y, task.goal.x, task.goal.y))
    return h.hexdigest()


def digest_lines():
    """Yields the digest lines, each as soon as it is known."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for mode in ("state", "raster"):
            (tmp / mode).mkdir()
            with recorded_executions() as results:
                digests = run_digests(tmp / mode, mode)
            for name, digest in digests.items():
                yield f"{mode} {name} {digest[:12]}"
            yield f"{mode} executions {execution_digest(results)[:12]}"
        art = train_all(config_from_dict({**TINY, "world": {"mode": "state"}}))
        weight_scheme_ablation(art).to_json(tmp / "ablation.json")
        yield f"ablation {hashlib.sha256((tmp / 'ablation.json').read_bytes()).hexdigest()[:12]}"
    with recorded_executions() as results:
        zero_shot_benchmark(train_all(config_from_dict(PRESSING)))
    yield f"pressing executions {execution_digest(results)[:12]}"
    yield f"fast-forward executions {execution_digest(waypoint_fast_forwards())[:12]}"
    yield f"validation histories {validation_histories()[:12]}"
    yield f"swept-disc decisions {swept_disc_decisions()[:12]}"
    yield f"datasets {dataset_digest()[:12]}"
    yield f"plan weights {plan_weights_digest()[:12]}"
    yield f"plans {plans_digest()[:12]}"
    yield f"tasks {tasks_digest()[:12]}"


def mismatches(lines, saved) -> list:
    """One message per digest name whose line differs between ``lines`` and
    ``saved``, or that only one of them has."""
    now = dict(line.rsplit(" ", 1) for line in lines)
    before = dict(line.rsplit(" ", 1) for line in saved)
    return [
        f"{name}: {before.get(name, 'missing')} before, {now.get(name, 'missing')} now"
        for name in dict.fromkeys([*before, *now])
        if before.get(name) != now.get(name)
    ]


def main():
    parser = argparse.ArgumentParser(description="Print the fixed-seed digests.")
    parser.add_argument("--check", metavar="FILE", help="an earlier output to compare the lines with")
    args = parser.parse_args()
    lines = []
    for line in digest_lines():
        print(line, flush=True)
        lines.append(line)
    if args.check:
        bad = mismatches(lines, pathlib.Path(args.check).read_text().splitlines())
        for message in bad:
            print(f"differs: {message}")
        if bad:
            raise SystemExit(1)


if __name__ == "__main__":
    main()
