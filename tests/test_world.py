import math
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import ndimage

import htmem.world as world_module
from htmem.autodiff import derived_seed
from htmem.data import DataConfig, collect_dataset
from htmem.world import (
    AgentState,
    BlockWorld,
    ConfigError,
    Context,
    EvaluationError,
    Wall,
    WorldSpec,
    point_rect_distance,
    segment_rect_distance,
)


def make_world(**kw):
    return BlockWorld(WorldSpec(**kw))


def one_wall_context(world, cx=1.4, cy=0.9, half_w=0.08, half_h=0.9):
    # vertical wall anchored at the bottom edge
    return Context(0, world.spec.arena_size, (Wall(cx, cy, half_w, half_h),))


# ---------------------------------------------------------------------------
# independent oracles


def flood_fill_connected(world, ctx, cell=0.04):
    s = ctx.arena_size
    k = int(math.ceil(s / cell))
    centers = (np.arange(k) + 0.5) * (s / k)
    free = np.array(
        [
            [world.state_valid(ctx, AgentState(x, y)) for x in centers]
            for y in centers
        ]
    )
    return bfs_connected(free)


def bfs_connected(free):
    """True when the free cells of the 2-D grid are one nonempty
    4-connected component, by breadth-first search."""
    total = int(free.sum())
    if total == 0:
        return False
    start = tuple(np.argwhere(free)[0])
    seen = {start}
    q = deque([start])
    while q:
        i, j = q.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < free.shape[0] and 0 <= nj < free.shape[1] and free[ni, nj] and (ni, nj) not in seen:
                seen.add((ni, nj))
                q.append((ni, nj))
    return len(seen) == total


def swept_disc_free_sampled(world, ctx, p0, p1, n=400):
    """Fine-grained sampling oracle for the swept-disc collision predicate."""
    r = world.spec.agent_radius
    s = ctx.arena_size
    for t in np.linspace(0.0, 1.0, n):
        x = p0[0] + t * (p1[0] - p0[0])
        y = p0[1] + t * (p1[1] - p0[1])
        if not (r <= x <= s - r and r <= y <= s - r):
            return False
        for w in ctx.walls:
            if point_rect_distance(x, y, w) < r:
                return False
    return True


# ---------------------------------------------------------------------------
# geometry primitives


def test_point_rect_distance_inside_and_outside():
    w = Wall(1.0, 1.0, 0.5, 0.25)
    assert point_rect_distance(1.0, 1.0, w) == 0.0
    assert point_rect_distance(1.6, 1.0, w) == pytest.approx(0.1)
    assert point_rect_distance(1.8, 1.55, w) == pytest.approx(math.hypot(0.3, 0.3))


def test_segment_rect_distance_crossing_is_zero():
    w = Wall(1.0, 1.0, 0.2, 0.2)
    assert segment_rect_distance((0.0, 1.0), (2.0, 1.0), w) == 0.0
    assert segment_rect_distance((0.0, 0.0), (0.5, 0.5), w) == pytest.approx(
        math.hypot(0.3, 0.3)
    )


def test_segment_rect_distance_matches_sampling():
    rng = np.random.default_rng(5)
    w = Wall(1.4, 1.4, 0.3, 0.6)
    for _ in range(200):
        p0 = tuple(rng.uniform(0, 2.8, 2))
        p1 = tuple(rng.uniform(0, 2.8, 2))
        exact = segment_rect_distance(p0, p1, w)
        ts = np.linspace(0, 1, 800)
        pts_x = p0[0] + ts * (p1[0] - p0[0])
        pts_y = p0[1] + ts * (p1[1] - p0[1])
        sampled = min(point_rect_distance(x, y, w) for x, y in zip(pts_x, pts_y))
        assert exact <= sampled + 1e-9
        assert sampled - exact < 5e-3  # dense sampling approaches the true min


# The segment-segment distance that slab clipping and vertex distances
# replaced; the new distance must give the same numbers and decisions.


def seg_seg_distance_reference(p1, p2, q1, q2):
    """Min distance between 2D segments p1p2 and q1q2."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) - 1e-15 <= c[0] <= max(a[0], b[0]) + 1e-15
            and min(a[1], b[1]) - 1e-15 <= c[1] <= max(a[1], b[1]) + 1e-15
        )

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)) or (
        (d1 == 0 and on_segment(q1, q2, p1))
        or (d2 == 0 and on_segment(q1, q2, p2))
        or (d3 == 0 and on_segment(p1, p2, q1))
        or (d4 == 0 and on_segment(p1, p2, q2))
    ):
        return 0.0

    def point_seg(p, a, b):
        ab = (b[0] - a[0], b[1] - a[1])
        denom = ab[0] * ab[0] + ab[1] * ab[1]
        if denom == 0.0:
            return math.hypot(p[0] - a[0], p[1] - a[1])
        t = ((p[0] - a[0]) * ab[0] + (p[1] - a[1]) * ab[1]) / denom
        t = min(1.0, max(0.0, t))
        return math.hypot(p[0] - a[0] - t * ab[0], p[1] - a[1] - t * ab[1])

    return min(
        point_seg(p1, q1, q2),
        point_seg(p2, q1, q2),
        point_seg(q1, p1, p2),
        point_seg(q2, p1, p2),
    )


def segment_rect_distance_reference(p1, p2, wall):
    """0 when an endpoint lies in the closed rectangle, else the least
    segment-segment distance to its four edges."""
    x0, x1 = wall.cx - wall.half_w, wall.cx + wall.half_w
    y0, y1 = wall.cy - wall.half_h, wall.cy + wall.half_h
    if (x0 <= p1[0] <= x1 and y0 <= p1[1] <= y1) or (
        x0 <= p2[0] <= x1 and y0 <= p2[1] <= y1
    ):
        return 0.0
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    best = math.inf
    for a, b in zip(corners, corners[1:] + corners[:1]):
        best = min(best, seg_seg_distance_reference(p1, p2, a, b))
        if best == 0.0:
            break
    return best


def reference_segments(rng, n, a_max):
    """n (p1, p2, wall) of each family: moves of at most a_max per axis that
    start within 0.4 of a wall's edges, hops across the arena, axis-aligned
    segments (a third from a corner along an edge line), and grazing
    segments: through a corner, along an edge line moved 0-2 float steps
    out, or from a point of the boundary."""
    centres, halves = rng.uniform(0.6, 2.2, (4 * n, 2)), rng.uniform(0.02, 0.6, (4 * n, 2))
    walls = [Wall(*c, *h) for c, h in zip(centres.tolist(), halves.tolist())]
    sign = rng.choice([-1.0, 1.0], (4 * n, 2)).tolist()
    u = rng.uniform(-1.0, 1.0, (4 * n, 2)).tolist()
    v = rng.uniform(-1.0, 1.0, (4 * n, 2)).tolist()
    families = {name: [] for name in ("steps", "hops", "axis", "grazing")}
    for k, w in enumerate(walls):
        (sx, sy), (ux, uy), (vx, vy) = sign[k], u[k], v[k]
        edge_x, edge_y = w.cx + sx * w.half_w, w.cy + sy * w.half_h
        if k < n:
            p = (edge_x + 0.4 * ux, edge_y + 0.4 * uy)
            families["steps"].append((p, (p[0] + a_max * vx, p[1] + a_max * vy), w))
        elif k < 2 * n:
            p = (1.4 + 1.4 * ux, 1.4 + 1.4 * uy)
            families["hops"].append((p, (1.4 + 1.4 * vx, 1.4 + 1.4 * vy), w))
        elif k < 3 * n:
            x, y = (edge_x, edge_y) if k % 3 == 0 else (1.4 + 1.4 * ux, 1.4 + 1.4 * uy)
            families["axis"].append(((x, y), (x + vx, y) if k % 2 else (x, y + vx), w))
        elif k % 3 == 0:
            c, d = math.cos(math.pi * ux), math.sin(math.pi * ux)
            t0, t1 = 0.5 + 0.49 * vx, 0.5 + 0.49 * vy
            p, q = (edge_x - t0 * c, edge_y - t0 * d), (edge_x + t1 * c, edge_y + t1 * d)
            families["grazing"].append((p, q, w))
        elif k % 3 == 1:
            y = edge_y
            for _ in range(k % 5 % 3):
                y = math.nextafter(y, sy * math.inf)
            families["grazing"].append(((edge_x + 0.3 * ux, y), (edge_x + 0.3 * vx, y), w))
        else:
            p = (edge_x, w.cy + w.half_h * uy) if k % 2 else (w.cx + w.half_w * ux, edge_y)
            q = (p[0] + 0.3 * vx, p[1] + 0.3 * vy)
            families["grazing"].append((p, q, w) if k % 4 < 2 else (q, p, w))
    return families


def test_segment_rect_distance_matches_the_segment_segment_reference():
    world = make_world()
    radii = (world.spec.agent_radius, 0.05, 0.4)
    families = reference_segments(np.random.default_rng(45), 25_000, world.spec.a_max)
    distances = []
    for name, segments in families.items():
        new = np.array([segment_rect_distance(p1, p2, w) for p1, p2, w in segments])
        old = np.array([segment_rect_distance_reference(p1, p2, w) for p1, p2, w in segments])
        assert np.abs(new - old).max() <= 1e-15, name
        for r in radii:
            assert np.array_equal(new < r, old < r), (name, r)
        # where one reads 0 and the other a rounding residue, the segment
        # passes within a few float steps of the rectangle
        residue = (new == 0.0) != (old == 0.0)
        assert residue.sum() <= (len(segments) // 50 if name == "grazing" else 0), name
        assert (new == 0.0).any(), name
        distances.append(new)
    distances = np.concatenate(distances)
    for r in radii:
        assert (np.abs(distances - r) < 0.05 * r).sum() > 100, r


# ---------------------------------------------------------------------------
# contexts


def test_generate_context_deterministic_and_inside_arena():
    world = make_world()
    a = world.generate_context(0)
    b = world.generate_context(0)
    assert a == b
    assert len(a.walls) == 1
    for w in a.walls:
        s = world.spec.arena_size
        assert 0 <= w.cx - w.half_w and w.cx + w.half_w <= s
        assert 0 <= w.cy - w.half_h and w.cy + w.half_h <= s
        assert w.half_w > 0 and w.half_h > 0


def free_cell_components(world, ctx, cell=0.04):
    """Number of 4-connected components of the free cells that
    ``flood_fill_connected`` searches: one exactly when it returns True."""
    k = int(math.ceil(ctx.arena_size / cell))
    centers = (np.arange(k) + 0.5) * (ctx.arena_size / k)
    return ndimage.label(world.positions_valid(ctx, centers[None, :], centers[:, None]))[1]


def test_generated_contexts_all_connected():
    world = make_world(n_walls=(1, 2))
    for seed in range(1000):
        ctx = world.generate_context(seed)
        assert free_cell_components(world, ctx) == 1, f"seed {seed} disconnected"


def test_infeasible_spec_rejected():
    with pytest.raises(ConfigError):
        make_world(a_max=-0.1)
    world = make_world(wall_length_frac=(0.9, 0.95), min_gap=0.6)
    with pytest.raises(ConfigError):
        world.generate_context(0)


@pytest.mark.parametrize(
    "kw",
    [{"mode": "pixels"}, {"arena_size": -1.0}, {"a_max": 0.0}, {"agent_radius": 0.7}, {"raster_size": 3}, {"max_walls": -1}],
)
def test_the_simulator_checks_name_their_key_at_construction(kw):
    with pytest.raises(ConfigError) as err:
        make_world(**kw)
    assert err.value.key == f"world.{next(iter(kw))}"


@pytest.mark.parametrize(
    "kw",
    [
        {"n_walls": (0, 1)},
        {"n_walls": (1, 3)},
        {"wall_thickness": (0.1, 0.05)},
        {"wall_length_frac": (0.0, 0.5)},
        {"wall_offset_frac": (0.5,)},
        {"wall_length_frac": (0.5, 0.8)},
        {"wall_thickness": (0.05, 0.7)},
        {"min_gap": 0.3},
    ],
)
def test_the_generator_checks_name_their_key_when_a_layout_is_drawn(kw):
    world = make_world(**kw)
    with pytest.raises(ConfigError) as err:
        world.generate_context(0)
    assert err.value.key == f"world.{next(iter(kw))}"


# ---------------------------------------------------------------------------
# dynamics


def test_step_zero_action_identity():
    world = make_world()
    ctx = one_wall_context(world)
    st = AgentState(0.7, 0.7)
    assert world.step(ctx, st, (0.0, 0.0)) == st


def test_step_clamps_action_components():
    world = make_world(a_max=0.05)
    ctx = Context(0, 2.8, ())
    st = AgentState(1.0, 1.0)
    out = world.step(ctx, st, (0.2, 0.0))
    assert out.x == pytest.approx(1.05)
    assert out.y == pytest.approx(1.0)


def test_step_rejects_wall_and_boundary_moves():
    world = make_world()
    ctx = one_wall_context(world)
    # adjacent to the wall, pushing straight in
    st = AgentState(1.4 - 0.08 - 0.151, 0.5)
    assert world.state_valid(ctx, st)
    out = world.step(ctx, st, (0.1, 0.0))
    assert out == st
    # leaving the arena
    edge = AgentState(0.16, 0.5)
    assert world.step(ctx, edge, (-0.1, 0.0)) == edge


def test_step_agrees_with_sampled_swept_oracle():
    world = make_world()
    ctx = one_wall_context(world)
    rng = np.random.default_rng(11)
    for _ in range(500):
        st = world.sample_free_state(ctx, rng)
        a = rng.uniform(-0.1, 0.1, 2)
        out = world.step(ctx, st, a)
        free = swept_disc_free_sampled(world, ctx, (st.x, st.y), (st.x + a[0], st.y + a[1]))
        if out == st and not np.allclose(a, 0):
            # rejected: the sampled oracle must also see a violation (or a
            # graze within sampling resolution)
            if free:
                exact = min(
                    segment_rect_distance((st.x, st.y), (st.x + a[0], st.y + a[1]), w)
                    for w in ctx.walls
                )
                assert abs(exact - world.spec.agent_radius) < 1e-3
        else:
            assert free


def test_dynamics_safety_long_random_walk():
    world = make_world(n_walls=(1, 2))
    ctx = world.generate_context(3)
    rng = np.random.default_rng(0)
    st = world.sample_free_state(ctx, rng)
    for _ in range(100_000):
        st = world.step(ctx, st, rng.uniform(-0.1, 0.1, 2))
        assert world.spec.agent_radius <= st.x <= 2.8 - world.spec.agent_radius
        assert world.spec.agent_radius <= st.y <= 2.8 - world.spec.agent_radius
    # spot the wall constraint on the final state
    assert world.state_valid(ctx, st)


# ---------------------------------------------------------------------------
# rollouts


# The per-step rollout loop that lockstep collection replaced, and the
# collection it made; lockstep collection must give the same bytes.


def rollout_reference(world, ctx, start, n_steps, seed):
    """Uniform i.i.d. actions, each applied by ``step``; returns (states,
    observations, actions). A state that ``step`` left unchanged keeps its
    observation."""
    rng = np.random.default_rng(seed)
    a_max = world.spec.a_max
    states = [start]
    observations = [world.observe(ctx, start)]
    actions = np.empty((n_steps, 2))
    for t in range(n_steps):
        a = rng.uniform(-a_max, a_max, size=2)
        actions[t] = a
        st = world.step(ctx, states[-1], a)
        observations.append(observations[-1] if st == states[-1] else world.observe(ctx, st))
        states.append(st)
    return states, np.array(observations), actions


def collect_reference(world, cfg):
    """(observations, actions, states) of ``collect_dataset`` by the
    per-step loop, each shaped (C, J, ...)."""
    observations, actions, states = [], [], []
    for i in range(cfg.n_contexts):
        ctx = world.generate_context(derived_seed(cfg.seed, "ctx", i), context_id=i)
        for j in range(cfg.trajectories_per_context):
            start = world.sample_free_state(ctx, np.random.default_rng(derived_seed(cfg.seed, "start", i, j)))
            path, obs, acts = rollout_reference(
                world, ctx, start, cfg.trajectory_length, derived_seed(cfg.seed, "roll", i, j)
            )
            observations.append(obs)
            actions.append(acts)
            states.append([[st.x, st.y] for st in path])
    shape = (cfg.n_contexts, cfg.trajectories_per_context)
    return tuple(np.array(a).reshape(shape + np.shape(a)[1:]) for a in (observations, actions, states))


def dataset_states(ds):
    return np.array([[traj.states for traj in ds.trajectories[c.id]] for c in ds.contexts])


@pytest.mark.parametrize("length", [1, 20])
@pytest.mark.parametrize("mode", ["state", "raster"])
def test_lockstep_rollouts_equal_the_per_step_loop(mode, length):
    for n_walls, seed in (((1, 1), 3), ((1, 2), 4)):
        world = make_world(mode=mode, n_walls=n_walls)
        cfg = DataConfig(n_contexts=12, trajectories_per_context=9, trajectory_length=length, seed=seed)
        ds = collect_dataset(world, cfg)
        got = (ds.observations, ds.actions, dataset_states(ds))
        for a, b in zip(got, collect_reference(world, cfg)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_rollout_zero_steps():
    world = make_world()
    ds = collect_dataset(world, DataConfig(n_contexts=2, trajectories_per_context=3, trajectory_length=0))
    assert ds.observations.shape == (2, 3, 1, 2) and ds.actions.shape == (2, 3, 0, 2)
    assert dataset_states(ds).shape == (2, 3, 1, 2)
    assert np.array_equal(ds.observations, dataset_states(ds) / world.spec.arena_size)


def test_rollout_replay_consistency():
    world = make_world(mode="raster", n_walls=(1, 2))
    ds = collect_dataset(world, DataConfig(n_contexts=4, trajectories_per_context=5, trajectory_length=20, seed=9))
    for ctx in ds.contexts:
        for traj in ds.trajectories[ctx.id]:
            st = AgentState(*traj.states[0])
            for t in range(20):
                st = world.step(ctx, st, traj.actions[t])
                assert (st.x, st.y) == tuple(traj.states[t + 1])
                assert np.array_equal(world.observe(ctx, st), traj.observations[t + 1])


@pytest.mark.parametrize("mode", ["state", "raster"])
def test_rollout_observes_each_state_a_step_changed_once(monkeypatch, mode):
    world = make_world(mode=mode)
    drawn, calls, observed = [], [], []
    raster_discs, observe = BlockWorld._raster_discs, BlockWorld.observe

    def counting_rasters(self, s, xy, out):
        calls.append(len(xy))
        drawn.extend(p for p in map(tuple, xy.tolist()) if np.isfinite(p).all())  # NaN rows draw nothing
        return raster_discs(self, s, xy, out)

    def one_centre(self, s, cx, cy):
        raise AssertionError("the rollout draws each raster with _raster_discs")

    def counting_observe(self, ctx, state):
        observed.append(state)
        return observe(self, ctx, state)

    monkeypatch.setattr(BlockWorld, "_raster_discs", counting_rasters)
    monkeypatch.setattr(BlockWorld, "_raster_disc", one_centre)
    monkeypatch.setattr(BlockWorld, "observe", counting_observe)
    ds = collect_dataset(world, DataConfig(n_contexts=3, trajectories_per_context=8, trajectory_length=30, seed=4))
    monkeypatch.undo()
    starts, changed = [], []
    for ctx in ds.contexts:
        for traj in ds.trajectories[ctx.id]:
            path = [tuple(p) for p in traj.states.tolist()]
            starts.append(path[0])
            changed += [b for a, b in zip(path, path[1:]) if b != a]
            assert all(np.array_equal(world.observe(ctx, AgentState(*p)), o) for p, o in zip(path, traj.observations))
    assert 0 < len(changed) < 3 * 8 * 30
    # a state observation is one division of every state at once
    assert observed == []
    want = starts + changed if mode == "raster" else []
    assert sorted(drawn) == sorted(want)
    # one call for the starts and one per step, each over every trajectory
    assert calls == ([3 * 8] * 31 if mode == "raster" else [])


def test_rollout_state_marginal_covers_free_space():
    world = make_world()
    ds = collect_dataset(world, DataConfig(n_contexts=1, trajectories_per_context=10_000, trajectory_length=20, seed=2))
    ctx = ds.contexts[0]
    s = world.spec.arena_size
    k = 8
    centers = (np.arange(k) + 0.5) * (s / k)
    free = world.positions_valid(ctx, centers[None, :], centers[:, None])
    xy = dataset_states(ds).reshape(-1, 2)
    cells = np.minimum((xy / s * k).astype(int), k - 1)
    visited = np.zeros((k, k), dtype=bool)
    visited[cells[:, 1], cells[:, 0]] = True
    coverage = visited[free].mean()
    assert coverage >= 0.9


# ---------------------------------------------------------------------------
# observations


def test_observe_state_mode_normalization():
    world = make_world()
    ctx = Context(0, 2.8, ())
    obs = world.observe(ctx, AgentState(1.4, 1.4))
    assert np.allclose(obs, [0.5, 0.5])
    assert np.all((obs >= 0) & (obs <= 1))


def test_observe_raster_marks_exactly_overlapped_cells():
    world = make_world(mode="raster")
    ctx = Context(0, 2.8, ())
    st = AgentState(1.0, 0.6)
    obs = world.observe(ctx, st)
    g = world.spec.raster_size
    edges = np.linspace(0, 2.8, g + 1)
    grid = obs.reshape(g, g)
    for i in range(g):
        for j in range(g):
            dx = max(edges[j] - st.x, st.x - edges[j + 1], 0.0)
            dy = max(edges[i] - st.y, st.y - edges[i + 1], 0.0)
            overlaps = math.hypot(dx, dy) < world.spec.agent_radius
            assert (grid[i, j] > 0) == overlaps
    assert np.all((obs >= 0) & (obs <= 1))


def test_rasters_distinct_beyond_two_cells():
    world = make_world(mode="raster")
    ctx = Context(0, 2.8, ())
    cell = 2.8 / world.spec.raster_size
    a = world.observe(ctx, AgentState(0.7, 0.7))
    b = world.observe(ctx, AgentState(0.7 + 2.01 * cell, 0.7))
    assert not np.array_equal(a, b)


def test_decode_roundtrip():
    world = make_world()
    ctx = Context(0, 2.8, ())
    st = AgentState(1.23, 2.11)
    x, y = world.decode_xy(world.observe(ctx, st)[None])[0]
    assert math.hypot(x - st.x, y - st.y) < 1e-12

    raster_world = make_world(mode="raster")
    x, y = raster_world.decode_xy(raster_world.observe(ctx, st)[None])[0]
    assert math.hypot(x - st.x, y - st.y) < 2.8 / 16


def test_decode_rejects_malformed():
    world = make_world()
    with pytest.raises(EvaluationError, match=r"\(m, 2\)"):
        world.decode_xy(np.zeros((1, 3)))
    assert world.decode_xy(np.full((1, 2), 0.5)).tolist() == [[1.4, 1.4]]
    raster_world = make_world(mode="raster")
    with pytest.raises(EvaluationError, match=r"\(m, 256\)"):
        raster_world.decode_xy(np.full((16, 16), 0.5))
    # an empty raster has no centroid: its row is NaN
    assert np.isnan(raster_world.decode_xy(np.zeros((1, 256)))).all()


def test_decode_xy_rejects_anything_but_a_batch():
    world, raster_world = make_world(), make_world(mode="raster")
    for w, bad in [
        (world, np.full(2, 0.5)),
        (world, np.full((4, 3), 0.5)),
        (raster_world, np.full(256, 0.5)),
        (raster_world, np.full((4, 16, 16), 0.5)),
    ]:
        with pytest.raises(EvaluationError, match=rf"\(m, {w.obs_dim}\)"):
            w.decode_xy(bad)


def test_encode_context_state_mode_padding():
    world = make_world(max_walls=2)
    ctx = one_wall_context(world)
    enc = world.encode_context(ctx)
    assert enc.shape == (8,)
    assert np.all(enc[4:] == 0)
    assert np.all((enc >= 0) & (enc <= 1))
    assert enc[0] == pytest.approx(1.4 / 2.8)


def test_encode_context_raster_mode_covers_wall():
    world = make_world(mode="raster")
    ctx = one_wall_context(world)
    enc = world.encode_context(ctx)
    assert np.all((enc >= 0) & (enc <= 1))
    g = world.spec.raster_size
    grid = enc.reshape(g, g)
    # column containing the wall center has solid coverage near the bottom
    j = int(1.4 / 2.8 * g)
    assert grid[0, j] > 0
    assert grid[g - 1, j] == 0


# ---------------------------------------------------------------------------
# oracle and tasks


def test_oracle_reachable_identity_and_blocked():
    world = make_world()
    ctx = one_wall_context(world)
    o = world.observe(ctx, AgentState(0.7, 0.7))
    assert world.oracle_reachable(ctx, np.stack([o, o]), 0) == [True]
    left = world.observe(ctx, AgentState(1.0, 0.5))
    right = world.observe(ctx, AgentState(1.8, 0.5))
    assert world.oracle_reachable(ctx, np.stack([left, right]), 50) == [False]


def test_oracle_true_implies_greedy_controller_reaches():
    world = make_world()
    ctx = one_wall_context(world)
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 50:
        a = world.sample_free_state(ctx, rng)
        b = world.sample_free_state(ctx, rng)
        h = 5
        if not world.oracle_reachable(
            ctx, np.stack([world.observe(ctx, a), world.observe(ctx, b)]), h
        )[0]:
            continue
        checked += 1
        st = a
        for _ in range(h):
            rem = np.array([b.x - st.x, b.y - st.y])
            linf = max(abs(rem[0]), abs(rem[1]))
            if linf == 0:
                break
            # largest step along the straight line with per-axis bounds kept
            st = world.step(ctx, st, rem * min(1.0, world.spec.a_max / linf))
        assert math.hypot(st.x - b.x, st.y - b.y) < 1e-9


def oracle_hops_loop(world, ctx, obs, horizon):
    """The oracle hop by hop, each end decoded on its own by ``decode_rows``:
    the per-pair oracle that one decode of the whole sequence replaced. A hop
    with an undecodable end is not reachable."""
    verdicts = []
    for o_a, o_b in zip(obs, obs[1:]):
        (xa, ya), (xb, yb) = decode_rows(world, [o_a, o_b]).tolist()
        if math.isnan(xa) or math.isnan(xb) or max(abs(xa - xb), abs(ya - yb)) > horizon * world.spec.a_max:
            verdicts.append(False)
        else:
            verdicts.append(world.swept_free(ctx, (xa, ya), (xb, yb)))
    return verdicts


def oracle_sequences(world, ctx, rng):
    """Random walks of 60 nodes with steps up to 0.2 per axis, held within
    0.1 of the arena, as observations; rasters with clipped Gaussian noise
    added. A tenth of the state nodes are uniform in and around the arena."""
    s = ctx.arena_size
    for _ in range(6):
        walk = rng.uniform(0, s, 2) + np.cumsum(rng.uniform(-0.2, 0.2, (60, 2)), axis=0)
        xy = np.clip(walk, -0.1, s + 0.1)
        obs = np.array([world.observe(ctx, AgentState(x, y)) for x, y in xy.tolist()])
        if world.spec.mode == "state":
            jump = rng.uniform(size=60) < 0.1
            obs[jump] = rng.uniform(-0.1, 1.1, (int(jump.sum()), 2))
        else:
            obs = np.clip(obs + rng.normal(0.0, 0.03, obs.shape), 0.0, 1.0)
        yield obs


@pytest.mark.parametrize("mode", ["state", "raster"])
def test_oracle_reachable_equals_the_per_hop_loop(mode):
    world = make_world(mode=mode)
    rng = np.random.default_rng(43)
    verdicts = []
    for seed in range(5):
        ctx = world.generate_context(300 + seed)
        for obs in oracle_sequences(world, ctx, rng):
            for h in (1, 3, 5, 50):
                want = oracle_hops_loop(world, ctx, obs, h)
                assert world.oracle_reachable(ctx, obs, h) == want
                verdicts += want
    assert 0.1 < np.mean(verdicts) < 0.9
    ctx = world.generate_context(300)
    one = obs[:1]
    assert world.oracle_reachable(ctx, one, 5) == oracle_hops_loop(world, ctx, one, 5) == []
    assert world.oracle_reachable(ctx, obs[:0], 5) == []


def test_oracle_reachable_rejects_an_empty_raster_node():
    world = make_world(mode="raster")
    ctx = one_wall_context(world)
    o = world.observe(ctx, AgentState(0.7, 0.7))
    cases = ((np.stack([o, np.zeros_like(o), o]), [False, False]), (np.stack([o, o, -o]), [True, False]))
    for obs, want in cases:
        assert oracle_hops_loop(world, ctx, obs, 5) == want
        assert world.oracle_reachable(ctx, obs, 5) == want


def test_make_task_deterministic_and_cross_wall_blocked():
    world = make_world()
    ctx = world.generate_context(7)
    t1 = world.make_task(ctx, seed=3, difficulty="cross-wall")
    t2 = world.make_task(ctx, seed=3, difficulty="cross-wall")
    assert t1 == t2
    o_start = world.observe(ctx, t1.start)
    o_goal = world.observe(ctx, t1.goal)
    assert world.oracle_reachable(ctx, np.stack([o_start, o_goal]), 3) == [False]
    assert world.state_valid(ctx, t1.start) and world.state_valid(ctx, t1.goal)


def test_twenty_cross_wall_tasks_per_context():
    world = make_world()
    for seed in range(3):
        ctx = world.generate_context(100 + seed)
        for k in range(20):
            world.make_task(ctx, seed=k, difficulty="cross-wall")


def test_make_task_knows_only_cross_wall_tasks():
    world = make_world()
    with pytest.raises(ValueError, match="unknown difficulty") as err:
        world.make_task(world.generate_context(7), seed=3, difficulty="any")
    assert not isinstance(err.value, ConfigError)  # a caller's mistake, not the config's


def test_make_task_unsatisfiable_raises():
    world = make_world()
    ctx = Context(0, 2.8, ())  # nothing to cross
    with pytest.raises(ConfigError):
        world.make_task(ctx, seed=0, difficulty="cross-wall", max_tries=50)


def test_a_threshold_no_sampled_pair_exceeds_is_named_with_its_value():
    """At the default world ``validate_config`` accepts a tau of 3.5, below
    the 3.54 bound, yet no start-goal pair drawn in 5,000 tries lies that
    far apart; the error names the threshold, its value and the farthest
    pair."""
    world = make_world()
    with pytest.raises(ConfigError) as err:
        world.make_task(world.generate_context(0), seed=0, success_threshold=3.5)
    message = str(err.value)
    assert err.value.key == "execution.tau"
    assert "success_threshold is 3.5" in message
    farthest = float(message.rsplit("lay ", 1)[1].split()[0])
    assert 0.0 < farthest <= 3.5


def test_a_short_thin_wall_in_a_corner_that_hides_no_far_goal_names_its_key():
    world = make_world(wall_length_frac=(0.1, 0.1), wall_thickness=(0.001, 0.001), wall_offset_frac=(1.0, 1.0))
    with pytest.raises(ConfigError) as err:
        world.make_task(world.generate_context(0), seed=0)
    assert err.value.key == "world.wall_length_frac"
    message = str(err.value)
    assert "wall_thickness" in message and "wall_offset_frac" in message
    assert float(message.rsplit("lay ", 1)[1].split()[0]) > 0.5


def test_a_spec_whose_layouts_never_connect_names_n_walls():
    # four walls this long, one from each side, always pinch a passage
    world = make_world(max_walls=4, n_walls=(4, 4), wall_length_frac=(0.7, 0.78))
    with pytest.raises(ConfigError, match="wall_length_frac.*min_gap") as err:
        world.generate_context(0)
    assert err.value.key == "world.n_walls"


def test_a_context_with_more_walls_than_max_walls_names_its_key():
    world = make_world(max_walls=2)
    ctx = Context(0, 2.8, (Wall(0.5, 0.5, 0.1, 0.1), Wall(1.4, 1.4, 0.1, 0.1), Wall(2.3, 2.3, 0.1, 0.1)))
    with pytest.raises(ConfigError) as err:
        world.encode_context(ctx)
    assert err.value.key == "world.max_walls"


def test_a_context_with_no_free_space_names_agent_radius():
    world = make_world()
    ctx = Context(0, 2.8, (Wall(1.4, 1.4, 1.4, 1.4),))
    with pytest.raises(ConfigError) as err:
        world.sample_free_state(ctx, np.random.default_rng(0))
    assert err.value.key == "world.agent_radius"


# ---------------------------------------------------------------------------
# array geometry against the scalar definitions, bit for bit


def raster_disc_loop(s, g, cx, cy, radius):
    """Per-cell rasterization: (radius - d)/radius with d the distance from
    the disc centre to the cell rectangle."""
    edges = np.linspace(0.0, s, g + 1)
    grid = np.zeros((g, g))
    for i in range(g):
        for j in range(g):
            dx = max(edges[j] - cx, cx - edges[j + 1], 0.0)
            dy = max(edges[i] - cy, cy - edges[i + 1], 0.0)
            d = math.hypot(dx, dy)
            if d < radius:
                grid[i, j] = (radius - d) / radius
    return grid.reshape(-1)


def encode_context_loop(ctx, g):
    """Per-cell wall coverage, clamped at 1, accumulated wall by wall."""
    s = ctx.arena_size
    edges = np.linspace(0.0, s, g + 1)
    grid = np.zeros((g, g))
    for w in ctx.walls:
        x0, x1 = w.cx - w.half_w, w.cx + w.half_w
        y0, y1 = w.cy - w.half_h, w.cy + w.half_h
        for i in range(g):
            oy = max(0.0, min(y1, edges[i + 1]) - max(y0, edges[i]))
            if oy <= 0:
                continue
            for j in range(g):
                ox = max(0.0, min(x1, edges[j + 1]) - max(x0, edges[j]))
                if ox > 0:
                    grid[i, j] = min(1.0, grid[i, j] + ox * oy / (s / g) ** 2)
    return grid.reshape(-1)


def test_observe_raster_equals_per_cell_loop():
    world = make_world(mode="raster")
    s, r, g = world.spec.arena_size, world.spec.agent_radius, world.spec.raster_size
    ctx = Context(0, s, ())
    rng = np.random.default_rng(40)
    edges = np.linspace(0.0, s, g + 1)
    points = [tuple(p) for p in rng.uniform(r, s - r, size=(300, 2))]
    points += [(e, y) for e in edges for y in rng.uniform(r, s - r, 3)]
    points += [(x, e) for e in edges for x in rng.uniform(r, s - r, 3)]
    points += [(e + r, f - r) for e in edges[:-1] for f in edges[1:]]
    points += [(a, b) for a in (r, s - r) for b in (r, s - r, 1.3)]
    for x, y in points:
        got = world.observe(ctx, AgentState(x, y))
        assert np.array_equal(got, raster_disc_loop(s, g, x, y, r)), (x, y)


# The whole-axis numpy rasterizer and the per-row decode that the windowed
# rasterizer and the array decode replaced; the new kernels must match them
# byte for byte.


def raster_disc_numpy(s, g, cx, cy, radius):
    """Axis distances of every column and row, then ``math.hypot`` over the
    cells whose axis distances are both below the radius."""
    edges = np.linspace(0.0, s, g + 1)
    lo, hi = edges[:-1], edges[1:]
    dx = np.maximum(np.maximum(lo - cx, cx - hi), 0.0)
    dy = np.maximum(np.maximum(lo - cy, cy - hi), 0.0)
    grid = np.zeros((g, g))
    cols = np.flatnonzero(dx < radius)
    for i in np.flatnonzero(dy < radius):
        for j in cols:
            d = math.hypot(dx[j], dy[i])
            if d < radius:
                grid[i, j] = (radius - d) / radius
    return grid.reshape(-1)


def decode_rows(world, obs):
    """(x, y) of each observation decoded on its own; NaN for a raster whose
    intensities sum to zero or less."""
    s = world.spec.arena_size
    out = []
    for o in obs:
        o = np.asarray(o, dtype=float)
        if world.spec.mode == "state":
            out.append((o[0] * s, o[1] * s))
            continue
        g = world.spec.raster_size
        grid = o.reshape(g, g)
        total = grid.sum()
        if total <= 0:
            out.append((math.nan, math.nan))
            continue
        centers = (np.arange(g) + 0.5) * (s / g)
        x = float((grid.sum(axis=0) * centers).sum() / total)
        y = float((grid.sum(axis=1) * centers).sum() / total)
        out.append((x, y))
    return np.array(out, dtype=float).reshape(-1, 2)


def same_bits(a, b):
    """Byte equality of two float arrays, NaN equal to NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return (
        a.shape == b.shape
        and np.array_equal(nan_a, nan_b)
        and np.where(nan_a, 0.0, a).tobytes() == np.where(nan_b, 0.0, b).tobytes()
    )


RASTER_SPECS = [
    {},
    {"raster_size": 20, "agent_radius": 0.3},
    {"raster_size": 7, "agent_radius": 0.5},
    {"arena_size": 3.1, "agent_radius": 0.1},
]


def disc_centres(s, g, r, rng):
    """Random centres, centres on cell edges, on edges +- r and at or past
    the arena border, each also one float step to either side."""
    edges = np.linspace(0.0, s, g + 1)
    special = np.concatenate([edges, edges - r, edges + r, [-1.0, -2 * r, s + 2 * r, s + 1.0]])
    special = np.concatenate(
        [special, np.nextafter(special, -np.inf), np.nextafter(special, np.inf)]
    )
    xs = np.concatenate([special, rng.uniform(-2 * r, s + 2 * r, 600)])
    points = list(zip(xs, rng.uniform(-2 * r, s + 2 * r, len(xs))))
    points += [(y, x) for x, y in points]
    points += [(a, b) for a in special[::3] for b in special[::4]]
    return [(float(x), float(y)) for x, y in points]


@pytest.mark.parametrize("kw", RASTER_SPECS, ids=["default", "g20-r0.3", "g7-r0.5", "s3.1-r0.1"])
def test_observe_raster_is_bit_equal_to_the_whole_axis_rasterizer(kw):
    world = make_world(mode="raster", **kw)
    s, r, g = world.spec.arena_size, world.spec.agent_radius, world.spec.raster_size
    ctx = Context(0, s, ())
    points = disc_centres(s, g, r, np.random.default_rng(41))
    assert len(points) > 1500
    want = [raster_disc_numpy(s, g, x, y, r) for x, y in points]
    for (x, y), row in zip(points, want):
        assert world.observe(ctx, AgentState(x, y)).tobytes() == row.tobytes(), (x, y)
    # every centre in one array call, written over a dirty strided view
    out = np.full((len(points), 2, g * g), 7.0)
    world._raster_discs(s, np.array(points), out[:, 1])
    for (x, y), got, row in zip(points, out[:, 1], want):
        assert got.tobytes() == row.tobytes(), (x, y)
    assert (out[:, 0] == 7.0).all()


NON_FINITE_CENTRES = [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf), (math.nan, math.inf)]


def test_observe_raster_of_a_non_finite_centre_is_empty():
    world = make_world(mode="raster")
    ctx = Context(0, 2.8, ())
    for x, y in NON_FINITE_CENTRES:
        assert not world.observe(ctx, AgentState(x, y)).any()


def test_raster_discs_of_non_finite_centres_are_empty_rows_among_the_others():
    world = make_world(mode="raster")
    s, d = world.spec.arena_size, world.obs_dim
    centres = np.array([(1.0, 1.2), *NON_FINITE_CENTRES, (2.5, 0.3)])
    out = np.full((len(centres), d), 7.0)
    world._raster_discs(s, centres, out)
    assert not out[1:-1].any()
    assert out[0].tobytes() == world._raster_disc(s, 1.0, 1.2).tobytes()
    assert out[-1].tobytes() == world._raster_disc(s, 2.5, 0.3).tobytes()
    empty = np.zeros((0, d))
    world._raster_discs(s, np.zeros((0, 2)), empty)
    assert empty.shape == (0, d)


def decode_inputs(world, rng):
    """Real rasters (some past the border, so empty), clipped Gaussian noise,
    sparse noise, all-zero and negative-sum rasters; or state observations
    in and around [0, 1]."""
    d = world.obs_dim
    if world.spec.mode == "state":
        return rng.uniform(-0.5, 1.5, (3000, d))
    s, r = world.spec.arena_size, world.spec.agent_radius
    ctx = Context(0, s, ())
    real = [world.observe(ctx, AgentState(x, y)) for x, y in rng.uniform(-2 * r, s + 2 * r, (2000, 2))]
    noise = np.clip(rng.normal(0.0, 0.3, (1500, d)), 0.0, 1.0)
    sparse = noise * (rng.uniform(size=noise.shape) < 0.01)
    negative = -np.abs(rng.normal(size=(20, d)))
    obs = np.concatenate([real, noise, sparse, np.zeros((50, d)), negative])
    return obs[rng.permutation(len(obs))]


@pytest.mark.parametrize(
    "kw", [{"mode": "state"}] + [{"mode": "raster", **kw} for kw in RASTER_SPECS[:2]],
    ids=["state", "raster", "raster-20"],
)
def test_decode_xy_is_bit_equal_to_the_per_row_decode(kw):
    world = make_world(**kw)
    obs = decode_inputs(world, np.random.default_rng(42))
    want = decode_rows(world, obs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # NaN rows come without a RuntimeWarning
        got = world.decode_xy(obs)
    assert same_bits(got, want)
    if world.spec.mode == "raster":
        assert 100 < np.isnan(want[:, 0]).sum() < len(obs) // 2
    # a row does not depend on the batch around it or on the memory layout
    split = [world.decode_xy(obs[k : k + 7]) for k in range(0, len(obs), 7)]
    assert same_bits(np.concatenate(split), want)
    assert same_bits(world.decode_xy(np.asfortranarray(obs)), want)
    assert same_bits(world.decode_xy(np.zeros((0, world.obs_dim))), np.zeros((0, 2)))



def test_states_take_their_radius_from_the_world_spec():
    world = make_world(mode="raster", agent_radius=0.2)
    ctx = one_wall_context(world)  # left face at x = 1.32
    st = AgentState(1.04, 0.5)
    # the move ends 0.18 from the wall: clear for 0.15, blocked for 0.2
    assert world.step(ctx, st, (0.1, 0.0)) is st
    assert not world.state_valid(ctx, AgentState(1.14, 0.5))
    assert world.state_valid(ctx, AgentState(1.1, 0.5))
    got = world.observe(ctx, st)
    assert np.array_equal(got, raster_disc_loop(2.8, world.spec.raster_size, 1.04, 0.5, 0.2))

def test_encode_context_raster_equals_per_cell_loop():
    world = make_world(mode="raster", n_walls=(1, 2))
    g = world.spec.raster_size
    contexts = [world.generate_context(seed) for seed in range(60)]
    assert {len(c.walls) for c in contexts} == {1, 2}
    # two overlapping walls: their shared cells sum past 1 and are clamped
    overlap = Context(0, 2.8, (Wall(1.4, 0.9, 0.3, 0.9), Wall(1.3, 1.0, 0.9, 0.2)))
    want = encode_context_loop(overlap, g)
    assert want.max() == 1.0 and np.sum(want == 1.0) > 0
    for ctx in contexts + [overlap]:
        assert np.array_equal(world.encode_context(ctx), encode_context_loop(ctx, g))


def test_positions_valid_equals_state_valid():
    world = make_world(n_walls=(1, 2))
    r = world.spec.agent_radius
    for seed in range(5):
        ctx = world.generate_context(seed)
        centers = (np.arange(56) + 0.5) * (2.8 / 56)
        mask = world.positions_valid(ctx, centers[None, :], centers[:, None])
        want = [[world.state_valid(ctx, AgentState(x, y)) for x in centers] for y in centers]
        assert np.array_equal(mask, np.array(want))

    # points on the circle of radius r about a wall corner: np.hypot alone
    # would misjudge some of them against math.hypot
    w = Wall(1.4, 0.9, 0.08, 0.9)
    ctx = Context(0, 2.8, (w,))
    theta = np.random.default_rng(41).uniform(0.0, np.pi / 2, 20_000)
    x = w.cx + w.half_w + r * np.cos(theta)
    y = w.cy + w.half_h + r * np.sin(theta)
    dx, dy = np.abs(x - w.cx) - w.half_w, np.abs(y - w.cy) - w.half_h
    misjudged = [i for i, (a, b) in enumerate(zip(dx, dy)) if (np.hypot(a, b) >= r) != (math.hypot(a, b) >= r)]
    assert misjudged
    want = [world.state_valid(ctx, AgentState(a, b)) for a, b in zip(x, y)]
    assert np.array_equal(world.positions_valid(ctx, x, y), want)
    for i in misjudged[:20]:
        assert bool(world.positions_valid(ctx, x[i], y[i])) == want[i]

    # exact distances: dyadic wall, r = 5/32 from an edge and (3, 4, 5)/32
    # from a corner, and one ulp either side; also as scalar arguments
    world = make_world(agent_radius=5 / 32)
    r = world.spec.agent_radius
    ctx = Context(0, 2.0, (Wall(1.0, 1.0, 0.25, 0.5),))
    exact = [(1.25 + r, 1.0), (1.0, 0.5 - r), (1.25 + 3 / 32, 1.5 + 4 / 32), (0.75 - 3 / 32, 0.5 - 4 / 32)]
    points = [
        (np.nextafter(px, px + sx), np.nextafter(py, py + sy))
        for px, py in exact
        for sx in (-1.0, 0.0, 1.0)
        for sy in (-1.0, 0.0, 1.0)
    ]
    px, py = np.array(points).T
    got = world.positions_valid(ctx, px, py)
    want = [world.state_valid(ctx, AgentState(a, b)) for a, b in points]
    assert np.array_equal(got, want)
    assert all(world.state_valid(ctx, AgentState(a, b)) for a, b in exact)
    for (a, b), v in zip(points, want):
        got = world.positions_valid(ctx, a, b)
        assert got.shape == () and bool(got) == v, (a, b)


def test_free_space_connected_agrees_with_bfs():
    world = make_world(n_walls=(1, 2))
    for seed in range(200):
        ctx = world.generate_context(seed)
        assert world._free_space_connected(ctx) == flood_fill_connected(world, ctx, cell=0.05)
    # unanchored random walls cut the arena in some layouts and not in others
    rng = np.random.default_rng(42)
    seen = set()
    for k in range(40):
        walls = tuple(
            Wall(*rng.uniform(0.3, 2.5, 2), *rng.uniform(0.05, 1.4, 2)) for _ in range(2)
        )
        ctx = Context(k, 2.8, walls)
        want = flood_fill_connected(world, ctx, cell=0.05)
        assert world._free_space_connected(ctx) == want
        seen.add(want)
    assert seen == {True, False}
    spanning = Context(0, 2.8, (Wall(1.4, 1.4, 0.1, 1.4),))
    filled = Context(0, 2.8, (Wall(1.4, 1.4, 1.4, 1.4),))
    assert not world._free_space_connected(spanning)
    assert not world._free_space_connected(filled)


# The 4-neighbour dilation that the run sweeps replaced.


def dilation_connected(free):
    """Grow the component of the first free cell one ring of cells per
    pass; True when it covers every free cell."""
    if not free.any():
        return False
    seen = np.zeros_like(free)
    seen.flat[np.argmax(free)] = True
    while True:
        grown = seen.copy()
        grown[1:] |= seen[:-1]
        grown[:-1] |= seen[1:]
        grown[:, 1:] |= seen[:, :-1]
        grown[:, :-1] |= seen[:, 1:]
        grown &= free
        if np.array_equal(grown, seen):
            return np.array_equal(seen, free)
        seen = grown


def random_grids(rng):
    """Boolean grids: empty, one-cell, 1 x k, k x 1, all-free, all-blocked
    and checkerboard ones, then 2,000 random ones of 1-30 rows and columns
    at free densities from 0.3 to 0.95, a third of them with one or two
    blocked bands that have a gap or none."""
    grids = [np.zeros((0, 0), bool), np.zeros((0, 4), bool), np.ones((1, 1), bool), np.zeros((1, 1), bool)]
    for k in (2, 3, 7):
        grids += [np.ones((1, k), bool), np.ones((k, 1), bool), np.ones((k, k), bool), np.zeros((k, k), bool)]
        grids += [np.indices((k, k)).sum(axis=0) % 2 == p for p in (0, 1)]
        grids += [np.indices((1, k)).sum(axis=0) % 2 == 0, np.array([[True] * k + [False] + [True]])]
    for n in range(2000):
        shape = tuple(rng.integers(1, 31, 2))
        grid = rng.random(shape) < rng.uniform(0.3, 0.95)
        if n % 3 == 0:
            for _ in range(rng.integers(1, 3)):
                axis, at = rng.integers(2), rng.integers(shape[0 if n % 2 else 1])
                band = grid[at % shape[0]] if axis else grid[:, at % shape[1]]
                band[:] = False
                if rng.random() < 0.5:
                    band[rng.integers(band.size)] = True
        grids.append(grid)
    return grids


def test_cells_connected_equals_the_dilation_and_bfs():
    grids = random_grids(np.random.default_rng(46))
    verdicts = []
    for grid in grids:
        want = dilation_connected(grid)
        assert want == bfs_connected(grid), grid
        assert world_module.cells_connected(grid) == want, grid
        verdicts.append(want)
    assert 300 < sum(verdicts) < len(verdicts) - 300
    world = make_world(n_walls=(1, 2))
    for seed in range(300):
        ctx = world.generate_context(seed)
        k = int(math.ceil(ctx.arena_size / 0.05))
        centers = (np.arange(k) + 0.5) * (ctx.arena_size / k)
        free = world.positions_valid(ctx, centers[None, :], centers[:, None])
        assert world._free_space_connected(ctx) == dilation_connected(free) == bfs_connected(free)


def test_step_and_swept_free_decide_by_segment_distance():
    world = make_world(n_walls=(1, 2))
    r, s, a_max = world.spec.agent_radius, world.spec.arena_size, world.spec.a_max

    def in_arena(p):
        return r <= p[0] <= s - r and r <= p[1] <= s - r

    def check(ctx, p0, action):
        a = np.clip(np.asarray(action, dtype=float), -a_max, a_max)
        p1 = (p0[0] + a[0], p0[1] + a[1])
        clear = all(segment_rect_distance(p0, p1, w) >= r for w in ctx.walls)
        st = AgentState(p0[0], p0[1])
        out = world.step(ctx, st, action)
        assert (out is not st) == (in_arena(p1) and clear), (p0, action)
        if out is not st:
            assert (out.x, out.y) == p1
        assert world.swept_free(ctx, p0, p1) == (in_arena(p0) and in_arena(p1) and clear)

    rng = np.random.default_rng(43)
    for seed in range(20):
        ctx = world.generate_context(seed)
        for p0, action in zip(rng.uniform(0.0, s, (300, 2)), rng.uniform(-0.12, 0.12, (300, 2))):
            check(ctx, tuple(p0), action)

    # grazing moves: parallel to a face at clearance r, and straight away
    # from a corner that lies r from the start
    w = Wall(1.4, 0.9, 0.08, 0.9)
    ctx = Context(0, s, (w,))
    grazes = 0
    for eps in np.linspace(-1e-12, 1e-12, 41):
        y = w.cy + w.half_h + r + eps
        p0 = (w.cx - 0.05, y)
        check(ctx, p0, (0.1, 0.0))
        theta = rng.uniform(0.0, np.pi / 2)
        u = np.array([np.cos(theta), np.sin(theta)])
        corner = np.array([w.cx + w.half_w, w.cy + w.half_h])
        q0 = corner + (r + eps) * u
        check(ctx, tuple(q0), a_max * u)
        for p, d in ((p0, (0.1, 0.0)), (tuple(q0), a_max * u)):
            p1 = (p[0] + d[0], p[1] + d[1])
            grazes += abs(segment_rect_distance(p, p1, w) - r) <= 1e-12
    assert grazes >= 60


# ---------------------------------------------------------------------------
# the two distance bounds of the wall test


def check_move(world, ctx, p0, action):
    """``step`` and ``swept_free`` decide the move as the arena bounds plus
    ``all(segment_rect_distance(...) >= r)``; returns that decision."""
    r, s, a_max = world.spec.agent_radius, ctx.arena_size, world.spec.a_max
    a = np.clip(np.asarray(action, dtype=float), -a_max, a_max)
    p1 = (p0[0] + a[0], p0[1] + a[1])

    def in_arena(p):
        return r <= p[0] <= s - r and r <= p[1] <= s - r

    clear = in_arena(p1) and all(segment_rect_distance(p0, p1, w) >= r for w in ctx.walls)
    st = AgentState(p0[0], p0[1])
    out = world.step(ctx, st, action)
    assert (out is not st) == clear, (p0, action)
    if clear:
        assert (out.x, out.y) == p1
    assert world.swept_free(ctx, p0, p1) == (in_arena(p0) and clear), (p0, p1)
    return clear


def wall_bound_branch(p0, p1, w, r):
    """Which rule of the wall test decides the move for wall ``w``: the box
    distance, the nearer endpoint, or the exact distance between them."""
    gx = max(w.cx - w.half_w - max(p0[0], p1[0]), min(p0[0], p1[0]) - (w.cx + w.half_w), 0.0)
    gy = max(w.cy - w.half_h - max(p0[1], p1[1]), min(p0[1], p1[1]) - (w.cy + w.half_h), 0.0)
    if math.hypot(gx, gy) > r * (1 + 1e-9):
        return "box"
    if min(point_rect_distance(*p0, w), point_rect_distance(*p1, w)) < r * (1 - 1e-9):
        return "end"
    return "exact"


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts the calls of the wall test's exact fallback."""
    calls = []

    def counted(p0, p1, wall):
        calls.append((p0, p1))
        return segment_rect_distance(p0, p1, wall)

    monkeypatch.setattr(world_module, "segment_rect_distance", counted)
    return calls


def test_wall_test_branches_match_segment_distance(exact_calls):
    world = make_world()
    r = world.spec.agent_radius
    w = Wall(1.4, 0.9, 0.08, 0.9)
    ctx = Context(0, 2.8, (w,))
    top, right = w.cy + w.half_h, w.cx + w.half_w
    moves = []
    # along the top face at clearance r(1 + k·1e-10): the box distance and
    # the nearer-end distance both lie within a few 1e-9·r of r
    for k in range(-30, 31):
        y = top + r * (1 + k * 1e-10)
        moves.append(((w.cx - 0.05, y), (0.1, 0.0)))
        moves.append(((right + r * (1 + k * 1e-10), top - 0.3), (0.0, 0.1)))
    # diagonal past the top-right corner along u + v = c (u, v measured from
    # the corner): box distance < r < nearer-end distance, exact c/sqrt(2)
    for c in np.linspace(0.19, 0.31, 49):
        moves.append(((right + c / 2 + 0.05, top + c / 2 - 0.05), (-0.1, 0.1)))
    branches = {"box": 0, "end": 0, "exact": 0}
    outcomes = set()
    for p0, action in moves:
        p1 = (p0[0] + action[0], p0[1] + action[1])
        branch = wall_bound_branch(p0, p1, w, r)
        branches[branch] += 1
        exact_calls.clear()
        clear = check_move(world, ctx, p0, action)
        # step and swept_free each compute the exact distance only in the band
        # (check_move's own oracle calls the unpatched function)
        assert len(exact_calls) == (2 if branch == "exact" else 0), (p0, branch)
        outcomes.add((branch, clear))
    assert min(branches.values()) >= 20, branches
    assert outcomes == {("box", True), ("end", False), ("exact", True), ("exact", False)}


def test_long_crossings_of_a_thin_wall_are_blocked(exact_calls):
    world = make_world()
    r = world.spec.agent_radius
    w = Wall(1.4, 1.4, 0.02, 0.6)
    ctx = Context(0, 2.8, (w,))
    rng = np.random.default_rng(44)
    for y0, y1 in rng.uniform(w.cy - w.half_h, w.cy + w.half_h, (200, 2)):
        p0, p1 = (0.5, y0), (2.3, y1)
        # box distance 0, both ends about 0.9 clear of the wall
        assert wall_bound_branch(p0, p1, w, r) == "exact"
        assert not world.swept_free(ctx, p0, p1)
        assert not world.swept_free(ctx, p1, p0)
    assert len(exact_calls) == 400


def near_wall_moves():
    """A wall, a start within about 2r of it and an action up to 1.2·a_max."""
    coord = hst.floats(-0.4, 0.4, allow_nan=False)
    return hst.tuples(
        hst.floats(0.6, 2.2), hst.floats(0.6, 2.2), hst.floats(0.01, 0.5), hst.floats(0.01, 0.5),
        coord, coord, hst.floats(-0.12, 0.12), hst.floats(-0.12, 0.12),
    )


@settings(max_examples=400, deadline=None)
@given(near_wall_moves())
def test_wall_test_property_near_a_wall(move):
    cx, cy, hw, hh, u, v, ax, ay = move
    world = make_world()
    w = Wall(cx, cy, hw, hh)
    ctx = Context(0, 2.8, (w,))
    p0 = (cx + math.copysign(hw, u) + u, cy + math.copysign(hh, v) + v)
    check_move(world, ctx, p0, (ax, ay))


def test_step_non_finite_actions():
    world = make_world()
    a_max = world.spec.a_max
    ctx = one_wall_context(world)
    st0 = AgentState(0.7, 1.9)
    # an infinite component is clamped to ±a_max
    for action, want in (
        ((math.inf, 0.0), (0.7 + a_max, 1.9)),
        ((-math.inf, math.inf), (0.7 - a_max, 1.9 + a_max)),
        (np.array([0.03, -np.inf]), (0.7 + 0.03, 1.9 - a_max)),
    ):
        out = world.step(ctx, st0, action)
        assert (out.x, out.y) == want, action
    # a NaN component makes a NaN target, and that move is rejected
    for action in ((math.nan, 0.0), (0.0, math.nan), np.array([np.nan, np.inf]), (math.nan, math.nan)):
        assert world.step(ctx, st0, action) is st0, action


# ---------------------------------------------------------------------------
# the array move test


def near_wall_rows(world, contexts, rng, per_wall):
    """(context index, start, end) rows for every wall of ``contexts``:
    starts within 0.3 of the wall's edges and r(1 +/- 1e-9) from one of its
    corners, half each, moved by actions of up to 1.2 a_max per axis under
    ``step``'s clip; one action in 40 has a NaN component."""
    r, a_max = world.spec.agent_radius, world.spec.a_max
    rows, starts = [], []
    for i, ctx in enumerate(contexts):
        for w in ctx.walls:
            n = per_wall // 2
            u, v = rng.uniform(-0.3, 0.3, (2, n))
            starts.append(np.stack([w.cx + np.copysign(w.half_w, u) + u, w.cy + np.copysign(w.half_h, v) + v], 1))
            theta = rng.uniform(0.0, 2 * np.pi, n)
            sx, sy = rng.choice([-1.0, 1.0], (2, n))
            dist = r * (1 + rng.uniform(-1e-9, 1e-9, n))
            starts.append(
                np.stack([w.cx + sx * w.half_w + dist * np.cos(theta), w.cy + sy * w.half_h + dist * np.sin(theta)], 1)
            )
            rows += [i] * 2 * n
    p0 = np.concatenate(starts)
    actions = rng.uniform(-1.2 * a_max, 1.2 * a_max, p0.shape)
    actions[rng.random(p0.shape) < 1 / 80] = np.nan
    return np.array(rows), p0, p0 + np.clip(actions, -a_max, a_max)


def test_moves_clear_equals_move_clear_row_by_row(exact_calls):
    world = make_world(n_walls=(1, 2))
    r, s = world.spec.agent_radius, world.spec.arena_size
    contexts = [world.generate_context(seed) for seed in range(40)]
    rows, p0, p1 = near_wall_rows(world, contexts, np.random.default_rng(47), 2_400)
    # a context without walls, its rows among the rest
    contexts.append(Context(40, s, ()))
    extra = np.random.default_rng(48).uniform(0.0, s, (500, 2))
    rows, p0, p1 = np.append(rows, [40] * 500), np.concatenate([p0, extra]), np.concatenate([p1, extra[::-1]])
    assert len(rows) >= 100_000 and {1, 2} <= {len(c.walls) for c in contexts}
    want = [
        BlockWorld._move_clear(contexts[i], a, b, r) for i, a, b in zip(rows.tolist(), p0.tolist(), p1.tolist())
    ]
    scalar_fallbacks = len(exact_calls)
    exact_calls.clear()
    walls = world_module.wall_array(contexts)[rows]
    assert walls.shape == (len(rows), 2, 4) and np.isnan(walls[rows == 40]).all()
    got = BlockWorld._moves_clear(walls, s, p0, p1, r)
    assert got.dtype == bool and np.array_equal(got, want)
    # the band between the bounds falls back on the same (row, wall) pairs
    assert len(exact_calls) == scalar_fallbacks > 2_000
    assert 10_000 < sum(want) < len(want) - 10_000
    assert np.isnan(p1).any(axis=1).sum() > 2_000
