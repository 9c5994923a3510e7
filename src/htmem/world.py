"""Deterministic 2D block-world: disc agent among axis-aligned wall obstacles.

Dynamics are kinematic translation with a reject-move rule: an action whose
swept disc would touch a wall or leave the arena leaves the state unchanged.
Observations are either the normalized position (state mode) or a tiny
occupancy raster (raster mode); obstacle layouts are likewise encoded as
normalized wall parameters or an obstacle raster.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """A generation spec cannot produce a valid world object."""


class TaskGenerationError(RuntimeError):
    """Retry budget exhausted while sampling a task with the requested shape."""


class EvaluationError(ValueError):
    """An observation could not be decoded for oracle evaluation."""


MODES = ("state", "raster")


@dataclass(frozen=True)
class Wall:
    """Axis-aligned rectangle given by center and half extents."""

    cx: float
    cy: float
    half_w: float
    half_h: float

    def as_list(self):
        return [self.cx, self.cy, self.half_w, self.half_h]


@dataclass(frozen=True)
class Context:
    id: int
    arena_size: float
    walls: tuple


@dataclass(frozen=True)
class AgentState:
    x: float
    y: float
    radius: float = 0.15

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class Task:
    context: Context
    start: AgentState
    goal: AgentState
    success_threshold: float = 0.5
    difficulty: str = "any"
    seed: int = 0


@dataclass
class WorldSpec:
    """Static world parameters plus obstacle-generation ranges."""

    mode: str = "state"
    arena_size: float = 2.8
    agent_radius: float = 0.15
    a_max: float = 0.1
    raster_size: int = 16
    max_walls: int = 2
    n_walls: tuple = (1, 1)
    wall_thickness: tuple = (0.05, 0.10)  # half-width range
    wall_length_frac: tuple = (0.50, 0.75)  # of arena side
    wall_offset_frac: tuple = (0.25, 0.75)  # anchor position along the side
    min_gap: float = 0.60  # passage left open past the wall tip


# ---------------------------------------------------------------------------
# geometry


def point_rect_distance(px, py, wall: Wall) -> float:
    dx = max(abs(px - wall.cx) - wall.half_w, 0.0)
    dy = max(abs(py - wall.cy) - wall.half_h, 0.0)
    return math.hypot(dx, dy)


def _seg_seg_distance(p1, p2, q1, q2) -> float:
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


def rect_rect_distance(a: Wall, b: Wall) -> float:
    dx = max(abs(a.cx - b.cx) - (a.half_w + b.half_w), 0.0)
    dy = max(abs(a.cy - b.cy) - (a.half_h + b.half_h), 0.0)
    return math.hypot(dx, dy)


def segment_rect_distance(p1, p2, wall: Wall) -> float:
    """Distance from segment to the solid rectangle (0 when they overlap)."""
    x0, x1 = wall.cx - wall.half_w, wall.cx + wall.half_w
    y0, y1 = wall.cy - wall.half_h, wall.cy + wall.half_h
    if (x0 <= p1[0] <= x1 and y0 <= p1[1] <= y1) or (
        x0 <= p2[0] <= x1 and y0 <= p2[1] <= y1
    ):
        return 0.0
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    best = math.inf
    for a, b in zip(corners, corners[1:] + corners[:1]):
        best = min(best, _seg_seg_distance(p1, p2, a, b))
        if best == 0.0:
            break
    return best


@functools.lru_cache(maxsize=None)
def _cell_edges(s, g):
    """Lower and upper edges of the g raster cells along an arena side s."""
    edges = np.linspace(0.0, s, g + 1)
    edges.flags.writeable = False
    return edges[:-1], edges[1:]


class BlockWorld:
    """Simulator facade bundling the static parameters of one experiment."""

    def __init__(self, spec: WorldSpec):
        if spec.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {spec.mode!r}")
        if spec.a_max <= 0:
            raise ConfigurationError("a_max must be positive")
        if not 0 < spec.agent_radius < spec.arena_size / 4:
            raise ConfigurationError("agent_radius out of range for arena")
        self.spec = spec

    # -- dimensions -------------------------------------------------------

    @property
    def obs_dim(self) -> int:
        if self.spec.mode == "state":
            return 2
        return self.spec.raster_size**2

    @property
    def ctx_dim(self) -> int:
        if self.spec.mode == "state":
            return 4 * self.spec.max_walls
        return self.spec.raster_size**2

    # -- validity ---------------------------------------------------------

    def state_valid(self, ctx: Context, state: AgentState) -> bool:
        r, s = state.radius, ctx.arena_size
        if not (r <= state.x <= s - r and r <= state.y <= s - r):
            return False
        return all(
            point_rect_distance(state.x, state.y, w) >= r for w in ctx.walls
        )

    def positions_valid(self, ctx: Context, x, y) -> np.ndarray:
        """``state_valid`` of a disc of the agent's radius at every position of
        the broadcast arrays (or scalars) ``x`` and ``y``, equal to it element
        by element."""
        r, s = self.spec.agent_radius, ctx.arena_size
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        shape = x.shape
        x, y = x.reshape(-1), y.reshape(-1)
        valid = (r <= x) & (x <= s - r) & (r <= y) & (y <= s - r)
        for w in ctx.walls:
            dx = np.maximum(np.abs(x - w.cx) - w.half_w, 0.0)
            dy = np.maximum(np.abs(y - w.cy) - w.half_h, 0.0)
            d = np.hypot(dx, dy)
            clear = d >= r
            # np.hypot and math.hypot can differ in the last bit, so a
            # distance this close to r is decided by math.hypot.
            for i in np.flatnonzero(np.abs(d - r) <= 1e-9 * r):
                clear[i] = math.hypot(dx[i], dy[i]) >= r
            valid &= clear
        return valid.reshape(shape)

    def swept_free(self, ctx: Context, p0, p1, radius=None) -> bool:
        """True when the disc swept from p0 to p1 stays valid throughout."""
        r = self.spec.agent_radius if radius is None else radius
        s = ctx.arena_size
        if not (r <= p0[0] <= s - r and r <= p0[1] <= s - r):
            return False
        return self._move_clear(ctx, p0, p1, r)

    @staticmethod
    def _move_clear(ctx: Context, p0, p1, r) -> bool:
        """p1 lies inside the arena and ``segment_rect_distance(p0, p1, w) >= r``
        for every wall. A wall whose box lies more than 2r from the segment's
        box along an axis is that far from the segment itself, so it is
        skipped without computing the distance."""
        s = ctx.arena_size
        if not (r <= p1[0] <= s - r and r <= p1[1] <= s - r):
            return False
        x_lo, x_hi = min(p0[0], p1[0]), max(p0[0], p1[0])
        y_lo, y_hi = min(p0[1], p1[1]), max(p0[1], p1[1])
        for w in ctx.walls:
            if (
                w.cx - w.half_w - x_hi > 2 * r
                or x_lo - (w.cx + w.half_w) > 2 * r
                or w.cy - w.half_h - y_hi > 2 * r
                or y_lo - (w.cy + w.half_h) > 2 * r
            ):
                continue
            if segment_rect_distance(p0, p1, w) < r:
                return False
        return True

    # -- contexts ---------------------------------------------------------

    def generate_context(self, seed: int, context_id: int = 0) -> Context:
        """Deterministic obstacle layout with connected free space.

        Walls are anchored to one arena side, leaving a passage of at least
        min_gap past the tip; connectivity is still verified by flood fill.
        """
        sp = self.spec
        s = sp.arena_size
        lo, hi = sp.n_walls
        if not (0 <= lo <= hi <= sp.max_walls):
            raise ConfigurationError("n_walls range invalid or exceeds max_walls")
        if sp.wall_length_frac[1] * s + sp.min_gap > s:
            raise ConfigurationError("wall_length_frac leaves no passage gap")
        if sp.wall_thickness[1] >= s / 4:
            raise ConfigurationError("wall_thickness too large for arena")
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n = int(rng.integers(lo, hi + 1))
            walls = []
            for _ in range(n):
                side = int(rng.integers(0, 4))  # 0 bottom, 1 top, 2 left, 3 right
                half_t = rng.uniform(*sp.wall_thickness)
                length = rng.uniform(*sp.wall_length_frac) * s
                offset = rng.uniform(*sp.wall_offset_frac) * s
                if side in (0, 1):
                    cy = length / 2 if side == 0 else s - length / 2
                    walls.append(Wall(offset, cy, half_t, length / 2))
                else:
                    cx = length / 2 if side == 2 else s - length / 2
                    walls.append(Wall(cx, offset, length / 2, half_t))
            # walls must not pinch a passage narrower than min_gap
            if any(
                rect_rect_distance(a, b) < sp.min_gap
                for i, a in enumerate(walls)
                for b in walls[i + 1 :]
            ):
                continue
            ctx = Context(context_id, s, tuple(walls))
            if self._free_space_connected(ctx):
                return ctx
        raise ConfigurationError(
            f"no connected layout found for seed {seed} under the given spec"
        )

    def _free_space_connected(self, ctx: Context, cell=0.05) -> bool:
        s = ctx.arena_size
        k = int(math.ceil(s / cell))
        centers = (np.arange(k) + 0.5) * (s / k)
        free = self.positions_valid(ctx, centers[None, :], centers[:, None])
        if not free.any():
            return False
        # grow the component of the first free cell by 4-neighbour dilation
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

    # -- dynamics ---------------------------------------------------------

    def step(self, ctx: Context, state: AgentState, action) -> AgentState:
        a = np.clip(np.asarray(action, dtype=float), -self.spec.a_max, self.spec.a_max)
        p1 = (state.x + a[0], state.y + a[1])
        if not self._move_clear(ctx, (state.x, state.y), p1, state.radius):
            return state
        return AgentState(p1[0], p1[1], state.radius)

    def sample_free_state(self, ctx: Context, rng) -> AgentState:
        r, s = self.spec.agent_radius, ctx.arena_size
        for _ in range(10_000):
            x, y = rng.uniform(r, s - r, size=2)
            st = AgentState(x, y, r)
            if self.state_valid(ctx, st):
                return st
        raise ConfigurationError("free space too small to sample a state")

    # -- observations -----------------------------------------------------

    def observe(self, ctx: Context, state: AgentState) -> np.ndarray:
        s = ctx.arena_size
        if self.spec.mode == "state":
            return np.array([state.x / s, state.y / s])
        return self._raster_disc(s, state.x, state.y, state.radius)

    def _raster_disc(self, s, cx, cy, radius) -> np.ndarray:
        """Intensity (radius - d)/radius where d is the distance from the disc
        center to each cell rectangle; exactly the overlapped cells are > 0."""
        g = self.spec.raster_size
        lo, hi = _cell_edges(s, g)
        dx = np.maximum(np.maximum(lo - cx, cx - hi), 0.0)  # per column
        dy = np.maximum(np.maximum(lo - cy, cy - hi), 0.0)  # per row
        grid = np.zeros((g, g))
        # d >= max(dx, dy), so only cells with both below the radius can be
        # lit; math.hypot keeps d bit-equal to the per-cell definition
        cols = np.flatnonzero(dx < radius)
        for i in np.flatnonzero(dy < radius):
            for j in cols:
                d = math.hypot(dx[j], dy[i])
                if d < radius:
                    grid[i, j] = (radius - d) / radius
        return grid.reshape(-1)

    def decode(self, obs) -> AgentState:
        obs = np.asarray(obs, dtype=float)
        s, r = self.spec.arena_size, self.spec.agent_radius
        if self.spec.mode == "state":
            if obs.shape != (2,):
                raise EvaluationError(f"state observation must have length 2, got {obs.shape}")
            return AgentState(obs[0] * s, obs[1] * s, r)
        g = self.spec.raster_size
        if obs.size != g * g:
            raise EvaluationError(f"raster observation must have {g * g} entries")
        grid = obs.reshape(g, g)
        total = grid.sum()
        if total <= 0:
            raise EvaluationError("empty raster cannot be decoded")
        centers = (np.arange(g) + 0.5) * (s / g)
        x = float((grid.sum(axis=0) * centers).sum() / total)
        y = float((grid.sum(axis=1) * centers).sum() / total)
        return AgentState(x, y, r)

    def encode_context(self, ctx: Context) -> np.ndarray:
        s = ctx.arena_size
        if self.spec.mode == "state":
            if len(ctx.walls) > self.spec.max_walls:
                raise ConfigurationError(
                    f"context has {len(ctx.walls)} walls, max_walls is {self.spec.max_walls}"
                )
            enc = np.zeros(4 * self.spec.max_walls)
            for k, w in enumerate(ctx.walls):
                enc[4 * k : 4 * k + 4] = [w.cx / s, w.cy / s, w.half_w / s, w.half_h / s]
            return enc
        g = self.spec.raster_size
        lo, hi = _cell_edges(s, g)
        cell_area = (s / g) ** 2
        grid = np.zeros((g, g))
        for w in ctx.walls:
            oy = np.maximum(0.0, np.minimum(w.cy + w.half_h, hi) - np.maximum(w.cy - w.half_h, lo))
            ox = np.maximum(0.0, np.minimum(w.cx + w.half_w, hi) - np.maximum(w.cx - w.half_w, lo))
            # cells outside the wall add exactly 0.0 and stay as they were
            grid = np.minimum(1.0, grid + np.outer(oy, ox) / cell_area)
        return grid.reshape(-1)

    # -- exploration ------------------------------------------------------

    def rollout_random(self, ctx: Context, start: AgentState, n_steps: int, seed: int):
        """Uniform i.i.d. actions; returns (states, observations, actions)."""
        rng = np.random.default_rng(seed)
        a_max = self.spec.a_max
        states = [start]
        observations = [self.observe(ctx, start)]
        actions = np.empty((n_steps, 2))
        st = start
        for t in range(n_steps):
            a = rng.uniform(-a_max, a_max, size=2)
            actions[t] = a
            st = self.step(ctx, st, a)
            states.append(st)
            observations.append(self.observe(ctx, st))
        return states, np.array(observations), actions

    # -- oracles and tasks --------------------------------------------------

    def oracle_reachable(self, ctx: Context, obs_a, obs_b, horizon: int) -> bool:
        """Conservative ground truth: straight swept-disc path is free and the
        displacement fits within ``horizon`` maximal action steps per axis
        (which implies euclidean distance <= horizon * a_max * sqrt(2))."""
        sa = self.decode(obs_a)
        sb = self.decode(obs_b)
        if max(abs(sa.x - sb.x), abs(sa.y - sb.y)) > horizon * self.spec.a_max:
            return False
        return self.swept_free(ctx, (sa.x, sa.y), (sb.x, sb.y))

    def make_task(
        self,
        ctx: Context,
        seed: int,
        difficulty: str = "any",
        success_threshold: float = 0.5,
        min_separation: float = 0.1,
        max_tries: int = 5000,
    ) -> Task:
        if difficulty not in ("any", "cross-wall"):
            raise ConfigurationError(f"unknown difficulty {difficulty!r}")
        rng = np.random.default_rng(seed)
        for _ in range(max_tries):
            start = self.sample_free_state(ctx, rng)
            goal = self.sample_free_state(ctx, rng)
            dist = math.hypot(start.x - goal.x, start.y - goal.y)
            if dist < max(min_separation, 1e-9):
                continue
            blocked = not self.swept_free(ctx, (start.x, start.y), (goal.x, goal.y))
            if difficulty == "cross-wall":
                if blocked and dist > success_threshold:
                    return Task(ctx, start, goal, success_threshold, difficulty, seed)
            else:
                return Task(ctx, start, goal, success_threshold, difficulty, seed)
        raise TaskGenerationError(
            f"could not sample a {difficulty} task in context {ctx.id} within {max_tries} tries"
        )
