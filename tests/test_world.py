import math
from collections import deque

import numpy as np
import pytest

from htmem.world import (
    AgentState,
    BlockWorld,
    ConfigurationError,
    Context,
    EvaluationError,
    TaskGenerationError,
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
            [world.state_valid(ctx, AgentState(x, y, world.spec.agent_radius)) for x in centers]
            for y in centers
        ]
    )
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
            if 0 <= ni < k and 0 <= nj < k and free[ni, nj] and (ni, nj) not in seen:
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


def test_generated_contexts_all_connected():
    world = make_world(n_walls=(1, 2))
    for seed in range(1000):
        ctx = world.generate_context(seed)
        assert flood_fill_connected(world, ctx), f"seed {seed} disconnected"


def test_infeasible_spec_rejected():
    with pytest.raises(ConfigurationError):
        make_world(a_max=-0.1)
    world = make_world(wall_length_frac=(0.9, 0.95), min_gap=0.6)
    with pytest.raises(ConfigurationError):
        world.generate_context(0)


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


def test_rollout_zero_steps():
    world = make_world()
    ctx = one_wall_context(world)
    states, obs, actions = world.rollout_random(ctx, AgentState(0.5, 0.5), 0, 1)
    assert len(states) == 1 and obs.shape == (1, 2) and actions.shape == (0, 2)


def test_rollout_replay_consistency():
    world = make_world()
    ctx = one_wall_context(world)
    states, obs, actions = world.rollout_random(ctx, AgentState(0.5, 0.5), 20, 9)
    st = states[0]
    for t in range(20):
        st = world.step(ctx, st, actions[t])
        assert st == states[t + 1]
        assert np.array_equal(world.observe(ctx, st), obs[t + 1])


def test_rollout_state_marginal_covers_free_space():
    world = make_world()
    ctx = one_wall_context(world)
    s = world.spec.arena_size
    k = 8
    centers = (np.arange(k) + 0.5) * (s / k)
    free = np.array(
        [
            [world.state_valid(ctx, AgentState(x, y)) for x in centers]
            for y in centers
        ]
    )
    visited = np.zeros((k, k), dtype=bool)
    rng = np.random.default_rng(2)
    for i in range(10_000):
        start = world.sample_free_state(ctx, rng)
        states, _, _ = world.rollout_random(ctx, start, 20, seed=10_000 + i)
        for st in states:
            visited[min(int(st.y / s * k), k - 1), min(int(st.x / s * k), k - 1)] = True
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
            overlaps = math.hypot(dx, dy) < st.radius
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
    back = world.decode(world.observe(ctx, st))
    assert math.hypot(back.x - st.x, back.y - st.y) < 1e-12

    raster_world = make_world(mode="raster")
    back2 = raster_world.decode(raster_world.observe(ctx, st))
    assert math.hypot(back2.x - st.x, back2.y - st.y) < 2.8 / 16


def test_decode_rejects_malformed():
    world = make_world()
    with pytest.raises(EvaluationError):
        world.decode(np.zeros(3))
    raster_world = make_world(mode="raster")
    with pytest.raises(EvaluationError):
        raster_world.decode(np.zeros(256))


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
    assert world.oracle_reachable(ctx, o, o, 0)
    left = world.observe(ctx, AgentState(1.0, 0.5))
    right = world.observe(ctx, AgentState(1.8, 0.5))
    assert not world.oracle_reachable(ctx, left, right, 50)


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
            ctx, world.observe(ctx, a), world.observe(ctx, b), h
        ):
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


def test_make_task_deterministic_and_cross_wall_blocked():
    world = make_world()
    ctx = world.generate_context(7)
    t1 = world.make_task(ctx, seed=3, difficulty="cross-wall")
    t2 = world.make_task(ctx, seed=3, difficulty="cross-wall")
    assert t1 == t2
    o_start = world.observe(ctx, t1.start)
    o_goal = world.observe(ctx, t1.goal)
    assert not world.oracle_reachable(ctx, o_start, o_goal, 3)
    assert world.state_valid(ctx, t1.start) and world.state_valid(ctx, t1.goal)


def test_twenty_cross_wall_tasks_per_context():
    world = make_world()
    for seed in range(3):
        ctx = world.generate_context(100 + seed)
        for k in range(20):
            world.make_task(ctx, seed=k, difficulty="cross-wall")


def test_make_task_unsatisfiable_raises():
    world = make_world()
    ctx = Context(0, 2.8, ())  # nothing to cross
    with pytest.raises(TaskGenerationError):
        world.make_task(ctx, seed=0, difficulty="cross-wall", max_tries=50)


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
        got = world.observe(ctx, AgentState(x, y, r))
        assert np.array_equal(got, raster_disc_loop(s, g, x, y, r)), (x, y)


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
        want = [[world.state_valid(ctx, AgentState(x, y, r)) for x in centers] for y in centers]
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
    want = [world.state_valid(ctx, AgentState(a, b, r)) for a, b in zip(x, y)]
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
    want = [world.state_valid(ctx, AgentState(a, b, r)) for a, b in points]
    assert np.array_equal(got, want)
    assert all(world.state_valid(ctx, AgentState(a, b, r)) for a, b in exact)
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


def test_step_and_swept_free_decide_by_segment_distance():
    world = make_world(n_walls=(1, 2))
    r, s, a_max = world.spec.agent_radius, world.spec.arena_size, world.spec.a_max

    def in_arena(p):
        return r <= p[0] <= s - r and r <= p[1] <= s - r

    def check(ctx, p0, action):
        a = np.clip(np.asarray(action, dtype=float), -a_max, a_max)
        p1 = (p0[0] + a[0], p0[1] + a[1])
        clear = all(segment_rect_distance(p0, p1, w) >= r for w in ctx.walls)
        st = AgentState(p0[0], p0[1], r)
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
