"""Deterministic 2D block-world: disc agent among axis-aligned wall obstacles.

Dynamics are kinematic translation with a reject-move rule: an action whose
swept disc would touch a wall or leave the arena leaves the state unchanged.
Observations are either the normalized position (state mode) or a tiny
occupancy raster (raster mode); obstacle layouts are likewise encoded as
normalized wall parameters or an obstacle raster.

Every failure a config causes is a ``ConfigError`` naming the key to change;
each ``world.*`` field is checked once, by ``BlockWorld.__init__`` or, for
the generation ranges, ``BlockWorld.check_generator``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """A config value the run cannot use; ``key`` is its ``section.field``."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"{key}: {message}")


def require(cond, key, message):
    if not cond:
        raise ConfigError(key, message)


class EvaluationError(ValueError):
    """Observations of a shape that cannot be decoded."""


MODES = ("state", "raster")


@dataclass(frozen=True)
class Wall:
    """Axis-aligned rectangle given by center and half extents."""

    cx: float
    cy: float
    half_w: float
    half_h: float


@dataclass(frozen=True)
class Context:
    id: int
    arena_size: float
    walls: tuple


@dataclass(frozen=True)
class AgentState:
    """Center of the agent's disc; the radius is ``WorldSpec.agent_radius``."""

    x: float
    y: float


@dataclass(frozen=True)
class Task:
    """Reach ``goal`` from ``start``; the success distance is ``ExecutionConfig.tau``."""

    context: Context
    start: AgentState
    goal: AgentState


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


def _point_segment_distance(px, py, a, b) -> float:
    """Distance from the point (px, py) to the segment ab."""
    ex, ey = b[0] - a[0], b[1] - a[1]
    denom = ex * ex + ey * ey
    if denom == 0.0:
        return math.hypot(px - a[0], py - a[1])
    t = min(1.0, max(0.0, ((px - a[0]) * ex + (py - a[1]) * ey) / denom))
    return math.hypot(px - a[0] - t * ex, py - a[1] - t * ey)


def rect_rect_distance(a: Wall, b: Wall) -> float:
    dx = max(abs(a.cx - b.cx) - (a.half_w + b.half_w), 0.0)
    dy = max(abs(a.cy - b.cy) - (a.half_h + b.half_h), 0.0)
    return math.hypot(dx, dy)


def segment_rect_distance(p1, p2, wall: Wall) -> float:
    """Distance from segment to the solid rectangle (0 when they overlap).

    Slab clipping decides whether the segment meets the closed rectangle.
    If it does not, the two convex shapes are closest at a vertex of one of
    them: an endpoint of the segment or a corner of the rectangle."""
    x0, x1 = wall.cx - wall.half_w, wall.cx + wall.half_w
    y0, y1 = wall.cy - wall.half_h, wall.cy + wall.half_h
    t_in, t_out = 0.0, 1.0
    for p, d, lo, hi in ((p1[0], p2[0] - p1[0], x0, x1), (p1[1], p2[1] - p1[1], y0, y1)):
        if d != 0.0:
            ta, tb = (lo - p) / d, (hi - p) / d
            t_in, t_out = max(t_in, min(ta, tb)), min(t_out, max(ta, tb))
        elif not lo <= p <= hi:
            t_out = -1.0  # parallel to this slab and outside it
    if t_in <= t_out:
        return 0.0
    return min(
        point_rect_distance(p1[0], p1[1], wall),
        point_rect_distance(p2[0], p2[1], wall),
        *(_point_segment_distance(cx, cy, p1, p2) for cx in (x0, x1) for cy in (y0, y1)),
    )


@functools.lru_cache(maxsize=None)
def _cell_edges(s, g):
    """Lower and upper edges, as float tuples, of g cells along a side s."""
    edges = np.linspace(0.0, s, g + 1).tolist()
    return tuple(edges[:-1]), tuple(edges[1:])


def _near_cells(lo, hi, c, radius):
    """(index, distance) of each cell along one raster axis whose distance
    max(lo - c, c - hi, 0) from c is below ``radius``. Only the cells from
    (c - radius) / cell - 1 to (c + radius) / cell are tested, a window
    widened by 1e-6 of a cell, far above the rounding of its bounds. A NaN
    c, or one a radius or more past the outer edges, is near no cell."""
    if not (lo[0] - c < radius and c - hi[-1] < radius):
        return []
    cell = hi[0]
    first = max(int((c - radius) / cell - 1e-6), 0)
    stop = min(int((c + radius) / cell + 1e-6) + 1, len(lo))
    near = []
    for k in range(first, stop):
        d = max(lo[k] - c, c - hi[k], 0.0)
        if d < radius:
            near.append((k, d))
    return near


def _rect_distances(x, y, cx, cy, half_w, half_h):
    """``point_rect_distance`` of each point from its rectangle, all arrays."""
    return np.hypot(np.maximum(np.abs(x - cx) - half_w, 0.0), np.maximum(np.abs(y - cy) - half_h, 0.0))


def wall_array(contexts) -> np.ndarray:
    """(n, w, 4) walls of the n contexts as (cx, cy, half_w, half_h) rows,
    where w is the most walls of any of them; the rows past a context's
    last wall are NaN."""
    walls = np.full((len(contexts), max((len(c.walls) for c in contexts), default=0), 4), np.nan)
    for i, ctx in enumerate(contexts):
        for k, w in enumerate(ctx.walls):
            walls[i, k] = w.cx, w.cy, w.half_w, w.half_h
    return walls


def _run_labels(free) -> np.ndarray:
    """The free cells of the 2-D grid labelled by their maximal run of free
    cells along a row, the runs numbered from 1 in C order; a blocked cell
    is 0."""
    starts = free.copy()
    starts[:, 1:] &= ~free[:, :-1]
    return np.cumsum(starts).reshape(free.shape) * free


def cells_connected(free) -> bool:
    """True when the free cells of the boolean 2-D grid ``free`` form one
    nonempty 4-connected component.

    The maximal runs of free cells along rows and along columns are labelled
    once. From the first free cell, a pass marks every run that holds a
    reached cell, rows and columns in turn, until a pass after the first
    reaches no new cell: the reached cells are then closed along both axes.
    The number of passes follows the turns of the free space, not its
    length."""
    free = np.asarray(free, dtype=bool)
    if not free.any():
        return False
    runs = (_run_labels(free), _run_labels(free.T).T)
    reached = np.zeros_like(free)
    reached.flat[np.argmax(free)] = True
    size, passes = 1, 0
    while True:
        labels = runs[passes % 2]
        hit = np.zeros(free.size + 1, dtype=bool)
        hit[labels[reached]] = True
        reached = hit[labels]
        grown = np.count_nonzero(reached)
        if passes and grown == size:
            return grown == np.count_nonzero(free)
        size, passes = grown, passes + 1


class BlockWorld:
    """Simulator facade bundling the static parameters of one experiment."""

    def __init__(self, spec: WorldSpec):
        require(spec.mode in MODES, "world.mode", f"must be one of {MODES}")
        require(spec.arena_size > 0, "world.arena_size", "must be positive")
        require(spec.a_max > 0, "world.a_max", "must be positive")
        r = spec.agent_radius
        require(0 < r < spec.arena_size / 4, "world.agent_radius", "must be positive and below a quarter of the arena")
        require(spec.raster_size >= 4, "world.raster_size", "must be at least 4")
        require(spec.max_walls >= 0, "world.max_walls", "must be nonnegative")
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
        x, y, r, s = state.x, state.y, self.spec.agent_radius, ctx.arena_size
        if not (r <= x <= s - r and r <= y <= s - r):
            return False
        for w in ctx.walls:
            # not >=, so that a NaN distance is invalid
            if not point_rect_distance(x, y, w) >= r:
                return False
        return True

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
            d = _rect_distances(x, y, w.cx, w.cy, w.half_w, w.half_h)
            clear = d >= r
            # np.hypot and math.hypot can differ in the last bit, so a
            # distance this close to r is decided by point_rect_distance.
            for i in np.flatnonzero(np.abs(d - r) <= 1e-9 * r):
                clear[i] = point_rect_distance(x[i], y[i], w) >= r
            valid &= clear
        return valid.reshape(shape)

    def swept_free(self, ctx: Context, p0, p1) -> bool:
        """True when the agent's disc swept from p0 to p1 stays valid throughout."""
        r, s = self.spec.agent_radius, ctx.arena_size
        if not (r <= p0[0] <= s - r and r <= p0[1] <= s - r):
            return False
        return self._move_clear(ctx, p0, p1, r)

    @staticmethod
    def _move_clear(ctx: Context, p0, p1, r) -> bool:
        """p1 lies inside the arena and ``segment_rect_distance(p0, p1, w) >= r``
        for every wall.

        That distance is at least the distance from the segment's bounding box
        to the wall and at most the nearer endpoint's ``point_rect_distance``,
        and each bound costs one ``math.hypot``. A box bound above r(1 + 1e-9)
        clears the wall and an endpoint bound below r(1 - 1e-9) blocks the
        move; the margin is far above the rounding of either computation, so
        the decision is the one the distance gives. Only a move that neither
        bound decides, such as one that passes a wall corner or crosses a
        wall between its endpoints, computes the distance itself."""
        s = ctx.arena_size
        x0, y0 = p0
        x1, y1 = p1
        if not (r <= x1 <= s - r and r <= y1 <= s - r):
            return False
        x_lo, x_hi = min(x0, x1), max(x0, x1)
        y_lo, y_hi = min(y0, y1), max(y0, y1)
        clear, hit = r * (1 + 1e-9), r * (1 - 1e-9)
        for w in ctx.walls:
            gx = max(w.cx - w.half_w - x_hi, x_lo - (w.cx + w.half_w), 0.0)
            gy = max(w.cy - w.half_h - y_hi, y_lo - (w.cy + w.half_h), 0.0)
            if math.hypot(gx, gy) > clear:
                continue
            if min(point_rect_distance(x0, y0, w), point_rect_distance(x1, y1, w)) < hit:
                return False
            if segment_rect_distance(p0, p1, w) < r:
                return False
        return True

    @staticmethod
    def _moves_clear(walls, s, p0, p1, r) -> np.ndarray:
        """``_move_clear`` of each row of the (n, 2) starts ``p0`` and ends
        ``p1`` in an arena of side ``s``, row i among the walls ``walls[i]``
        of a ``wall_array``. Each wall applies the same box and endpoint
        bounds with the same margins, to every row at once, and only the rows
        that neither bound decides call ``segment_rect_distance``. A NaN end
        leaves the arena, and a NaN wall row is no wall."""
        x0, y0 = p0.T
        x1, y1 = p1.T
        clear = (r <= x1) & (x1 <= s - r) & (r <= y1) & (y1 <= s - r)
        x_lo, x_hi = np.minimum(x0, x1), np.maximum(x0, x1)
        y_lo, y_hi = np.minimum(y0, y1), np.maximum(y0, y1)
        outer, inner = r * (1 + 1e-9), r * (1 - 1e-9)
        for k, (cx, cy, hw, hh) in enumerate(walls.transpose(1, 2, 0)):
            gx = np.maximum(np.maximum(cx - hw - x_hi, x_lo - (cx + hw)), 0.0)
            gy = np.maximum(np.maximum(cy - hh - y_hi, y_lo - (cy + hh)), 0.0)
            # not > outer, so that a NaN wall is decided clear here
            near = np.flatnonzero(clear & (np.hypot(gx, gy) <= outer))
            if not near.size:
                continue
            w = cx[near], cy[near], hw[near], hh[near]
            ends = np.minimum(_rect_distances(x0[near], y0[near], *w), _rect_distances(x1[near], y1[near], *w))
            clear[near[ends < inner]] = False
            for i in near[ends >= inner].tolist():
                if segment_rect_distance(p0[i].tolist(), p1[i].tolist(), Wall(*walls[i, k].tolist())) < r:
                    clear[i] = False
        return clear

    # -- contexts ---------------------------------------------------------

    def check_generator(self) -> None:
        """ConfigError naming the first generation range of the spec from
        which ``generate_context`` cannot draw a layout."""
        sp, s, n = self.spec, self.spec.arena_size, self.spec.n_walls
        # The benchmark's tasks are cross-wall, and a context without a wall has none.
        ok = len(n) == 2 and 1 <= n[0] <= n[1] <= sp.max_walls
        require(ok, "world.n_walls", "must be a (min, max) range within max_walls, with min at least 1")
        for name in ("wall_thickness", "wall_length_frac", "wall_offset_frac"):
            rng = getattr(sp, name)
            require(len(rng) == 2 and 0 < rng[0] <= rng[1], f"world.{name}", "must be a positive (low, high) range")
        longest = sp.wall_length_frac[1] * s
        require(longest + sp.min_gap <= s, "world.wall_length_frac", "longest wall must leave min_gap open")
        require(sp.wall_thickness[1] < s / 4, "world.wall_thickness", "must stay below a quarter of the arena")
        require(sp.min_gap > 2 * sp.agent_radius, "world.min_gap", "must exceed the agent diameter")

    def generate_context(self, seed: int, context_id: int = 0) -> Context:
        """Deterministic obstacle layout with connected free space.

        Walls are anchored to one arena side, leaving a passage of at least
        min_gap past the tip; connectivity is still verified on a grid of cells
        (``cells_connected``). A spec that ``check_generator`` refuses, or
        that gives no such layout in 200 draws, raises ConfigError.
        """
        self.check_generator()
        sp, s, (lo, hi) = self.spec, self.spec.arena_size, self.spec.n_walls
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
        raise ConfigError(
            "world.n_walls",
            f"no connected layout found for seed {seed} in 200 draws; fewer walls,"
            " a smaller wall_length_frac or a smaller min_gap leave more room",
        )

    def _free_space_connected(self, ctx: Context, cell=0.05) -> bool:
        s = ctx.arena_size
        k = int(math.ceil(s / cell))
        centers = (np.arange(k) + 0.5) * (s / k)
        return cells_connected(self.positions_valid(ctx, centers[None, :], centers[:, None]))

    # -- dynamics ---------------------------------------------------------

    def step(self, ctx: Context, state: AgentState, action) -> AgentState:
        a_max = self.spec.a_max
        # min(max(...)) keeps a NaN component NaN, so such a move is rejected
        ax = min(max(float(action[0]), -a_max), a_max)
        ay = min(max(float(action[1]), -a_max), a_max)
        p1 = (state.x + ax, state.y + ay)
        if not self._move_clear(ctx, (state.x, state.y), p1, self.spec.agent_radius):
            return state
        return AgentState(p1[0], p1[1])

    def sample_free_state(self, ctx: Context, rng) -> AgentState:
        r, s = self.spec.agent_radius, ctx.arena_size
        for _ in range(10_000):
            x, y = rng.uniform(r, s - r, size=2)
            st = AgentState(x, y)
            if self.state_valid(ctx, st):
                return st
        raise ConfigError("world.agent_radius", "free space too small to sample a state in 10,000 draws")

    # -- observations -----------------------------------------------------

    def observe(self, ctx: Context, state: AgentState) -> np.ndarray:
        s = ctx.arena_size
        if self.spec.mode == "state":
            return np.array([state.x / s, state.y / s])
        return self._raster_disc(s, state.x, state.y)

    def _raster_disc(self, s, cx, cy) -> np.ndarray:
        """Intensity (radius - d)/radius where d is the distance from the disc
        center to each cell rectangle; exactly the overlapped cells are > 0.
        As d >= max(dx, dy) for the axis distances, only the window of the
        ``_near_cells`` rows and columns is visited. dx, dy and d take the
        float operations of a per-cell evaluation over the whole grid (the
        max of both edge gaps and 0, then ``math.hypot``), so the raster is
        bit-equal to one."""
        g, radius = self.spec.raster_size, self.spec.agent_radius
        lo, hi = _cell_edges(s, g)
        grid = np.zeros(g * g)
        cols = _near_cells(lo, hi, cx, radius)
        for i, dy in _near_cells(lo, hi, cy, radius):
            for j, dx in cols:
                d = math.hypot(dx, dy)
                if d < radius:
                    grid[i * g + j] = (radius - d) / radius
        return grid

    def _raster_discs(self, s, xy, out) -> None:
        """Write ``_raster_disc`` of each centre row of the (n, 2) ``xy`` into
        the same row of the (n, g*g) ``out``, which may be a view. Each axis
        tests the cells of the ``_near_cells`` window, at most
        ceil(2 radius / cell) + 1 wide, with its float operations, and
        ``math.hypot`` takes the near cell pairs one at a time, so every row
        is bit-equal to ``_raster_disc``'s. A row whose centre is NaN, or a
        radius or more past an outer edge, is empty. ``observe`` keeps
        ``_raster_disc``, several times faster for one centre."""
        g, radius = self.spec.raster_size, self.spec.agent_radius
        lo, hi = np.array(_cell_edges(s, g))
        cell = hi[0]
        out[...] = 0.0
        xy = np.asarray(xy, dtype=float)
        rows = np.flatnonzero(((lo[0] - xy < radius) & (xy - hi[-1] < radius)).all(axis=1))
        x, y = xy[rows].T
        # the window's two bounds are each widened by 1e-6; 1e-5 also covers their rounding
        width = min(math.ceil(2 * radius / cell + 1e-5) + 1, g)
        near = []
        for c in (x[:, None], y[:, None]):
            first = np.maximum((c - radius) / cell - 1e-6, 0.0).astype(int)
            stop = np.minimum(((c + radius) / cell + 1e-6).astype(int) + 1, g)
            k = first + np.arange(width)
            k_in = np.minimum(k, g - 1)
            d = np.maximum(np.maximum(lo[k_in] - c, c - hi[k_in]), 0.0)
            near.append((k, d, (k < stop) & (d < radius)))
        (kx, dx, near_x), (ky, dy, near_y) = near
        n, i, j = np.nonzero(near_y[:, :, None] & near_x[:, None, :])
        d = np.array(list(map(math.hypot, dx[n, j].tolist(), dy[n, i].tolist())))
        hit = d < radius
        n, i, j = n[hit], i[hit], j[hit]
        out[rows[n], ky[n, i] * g + kx[n, j]] = (radius - d[hit]) / radius

    def decode_xy(self, obs) -> np.ndarray:
        """Positions (m, 2) of the observations (m, obs_dim): a state times the
        arena side, a raster's intensity centroid. A raster summing to zero or
        less has no centroid and gives a NaN row, without a warning. A row's
        bits do not depend on the rest of the batch, since ``obs`` is taken as
        a C-ordered array; any other shape raises EvaluationError."""
        obs = np.asarray(obs, dtype=float, order="C")
        if obs.ndim != 2 or obs.shape[1] != self.obs_dim:
            raise EvaluationError(f"{self.spec.mode} observations have shape (m, {self.obs_dim}); got {obs.shape}")
        s = self.spec.arena_size
        if self.spec.mode == "state":
            return obs * s
        g = self.spec.raster_size
        grid = obs.reshape(-1, g, g)
        total = obs.sum(axis=1)
        total[total <= 0] = np.nan
        centers = (np.arange(g) + 0.5) * (s / g)
        # per row: the intensity of each column, then of each row of cells
        marginals = np.stack([grid.sum(axis=1), grid.sum(axis=2)], axis=1)
        return (marginals * centers).sum(axis=2) / total[:, None]

    def encode_context(self, ctx: Context) -> np.ndarray:
        s = ctx.arena_size
        if self.spec.mode == "state":
            if len(ctx.walls) > self.spec.max_walls:
                raise ConfigError(
                    "world.max_walls", f"context has {len(ctx.walls)} walls, max_walls is {self.spec.max_walls}"
                )
            enc = np.zeros(4 * self.spec.max_walls)
            for k, w in enumerate(ctx.walls):
                enc[4 * k : 4 * k + 4] = [w.cx / s, w.cy / s, w.half_w / s, w.half_h / s]
            return enc
        g = self.spec.raster_size
        lo, hi = np.array(_cell_edges(s, g))
        cell_area = (s / g) ** 2
        grid = np.zeros((g, g))
        for w in ctx.walls:
            oy = np.maximum(0.0, np.minimum(w.cy + w.half_h, hi) - np.maximum(w.cy - w.half_h, lo))
            ox = np.maximum(0.0, np.minimum(w.cx + w.half_w, hi) - np.maximum(w.cx - w.half_w, lo))
            # cells outside the wall add exactly 0.0 and stay as they were
            grid = np.minimum(1.0, grid + np.outer(oy, ox) / cell_area)
        return grid.reshape(-1)

    # -- oracles and tasks --------------------------------------------------

    def oracle_reachable(self, ctx: Context, obs, horizon: int) -> list:
        """Conservative ground truth per hop between consecutive rows of the (n, obs_dim)
        ``obs``, each decoded once: the straight swept-disc path is free and the displacement
        fits within ``horizon`` maximal action steps per axis. A hop with an empty raster end,
        which decodes to NaN, is not reachable."""
        xy, reach = self.decode_xy(obs).tolist(), horizon * self.spec.a_max
        return [
            max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= reach and self.swept_free(ctx, a, b)
            for a, b in zip(xy, xy[1:])
        ]

    def make_task(
        self,
        ctx: Context,
        seed: int,
        difficulty: str = "cross-wall",
        success_threshold: float = 0.5,
        min_separation: float = 0.1,
        max_tries: int = 5000,
    ) -> Task:
        """A start and a goal in free space; the goal is hidden from the
        start by a wall and lies farther than ``success_threshold``.

        Once ``max_tries`` pairs are used up it raises ConfigError, naming
        ``execution.tau`` if no pair lay farther apart than the threshold and
        else ``world.wall_length_frac``. An unknown difficulty is a ValueError."""
        if difficulty != "cross-wall":
            raise ValueError(f"unknown difficulty {difficulty!r}")
        rng = np.random.default_rng(seed)
        farthest = 0.0
        for _ in range(max_tries):
            start = self.sample_free_state(ctx, rng)
            goal = self.sample_free_state(ctx, rng)
            dist = math.hypot(start.x - goal.x, start.y - goal.y)
            farthest = max(farthest, dist)
            if dist < max(min_separation, 1e-9):
                continue
            if dist > success_threshold and not self.swept_free(ctx, (start.x, start.y), (goal.x, goal.y)):
                return Task(ctx, start, goal)
        message = (
            f"could not sample a {difficulty} task in context {ctx.id} within {max_tries} tries: "
            f"success_threshold is {success_threshold}, the farthest sampled pair lay {farthest:.4g} apart"
        )
        if farthest <= success_threshold:
            raise ConfigError("execution.tau", message)
        hint = "no wall hid a goal that far: walls too short, thin (wall_thickness) or cornered (wall_offset_frac)"
        raise ConfigError("world.wall_length_frac", f"{message}; {hint}")
