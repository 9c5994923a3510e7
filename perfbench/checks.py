"""Output checks computed apart from htmem.

Each check takes a program output plus the inputs it came from, recomputes
what it can with numpy and scipy alone, and returns a list of failure
messages; an empty list means the output is correct. Nothing here compares
against a stored copy of an earlier run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse.csgraph import dijkstra

# Plan totals are sums of the same edge weights in the same order, so only
# rounding separates the program's Dijkstra from scipy's.
PATH_RTOL = 1e-9
# Geometry recomputed here uses np.hypot where the program uses math.hypot.
GEOM_ATOL = 1e-9


def check_plan(plan, graph, o_start, o_goal, m_samples) -> list:
    """Start and goal ends, edge weights taken from the graph, and a total
    equal to the shortest distance scipy finds on the same graph.

    ``graph.weights[i, j]`` is the edge j -> i, so scipy (row -> column)
    searches the transpose."""
    errs = []
    idx = [int(i) for i in plan.node_indices]
    if len(idx) < 2:
        return [f"plan has {len(idx)} nodes"]
    if idx[0] != m_samples or idx[-1] != m_samples + 1:
        errs.append(f"plan runs {idx[0]} -> {idx[-1]}, not start {m_samples} -> goal {m_samples + 1}")
    if not np.array_equal(plan.observations[0], np.ravel(o_start)):
        errs.append("first plan node is not the start observation")
    if not np.array_equal(plan.observations[-1], np.ravel(o_goal)):
        errs.append("last plan node is not the goal observation")
    w = graph.weights
    edges = w[idx[1:], idx[:-1]]
    if not np.all(np.isfinite(edges)):
        errs.append("plan uses an edge the graph does not have")
    if not np.array_equal(np.asarray(plan.edge_weights), edges):
        errs.append("plan edge weights differ from the graph's")
    if not math.isclose(plan.total_weight, float(np.sum(edges)), rel_tol=PATH_RTOL):
        errs.append(f"total_weight {plan.total_weight} != edge sum {float(np.sum(edges))}")
    best = float(dijkstra(w.T, directed=True, indices=idx[0])[idx[-1]])
    if not math.isclose(plan.total_weight, best, rel_tol=PATH_RTOL):
        errs.append(f"total_weight {plan.total_weight} is not the shortest distance {best}")
    return errs


def check_normalized(graph, plan, jensen) -> list:
    """Under the normalized scheme every off-diagonal weight is at least 1,
    and ``jensen`` (the program's ``jensen_bound_check`` result) agrees with
    log(mean w) >= mean(log w) recomputed over the plan's edges."""
    errs = []
    w = graph.weights
    off = w[~np.eye(len(w), dtype=bool)]
    if off.size and float(off.min()) < 1.0:
        errs.append(f"normalized weight {float(off.min())} < 1")
    omega = np.asarray(plan.edge_weights, dtype=float)
    lhs = math.log(float(np.mean(omega)))
    rhs = float(np.mean(np.log(omega)))
    if not lhs >= rhs - 1e-12:
        errs.append(f"Jensen bound fails: {lhs} < {rhs}")
    got_lhs, got_rhs, holds = jensen
    if not holds:
        errs.append("jensen_bound_check reports the bound violated")
    if not (math.isclose(got_lhs, lhs, rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(got_rhs, rhs, rel_tol=1e-9, abs_tol=1e-12)):
        errs.append(f"jensen_bound_check terms ({got_lhs}, {got_rhs}) != ({lhs}, {rhs})")
    return errs


def check_unit_range(obs, what="hallucinations") -> list:
    obs = np.asarray(obs, dtype=float)
    if obs.size and not (np.all(np.isfinite(obs)) and obs.min() >= 0.0 and obs.max() <= 1.0):
        return [f"{what} leave [0, 1]: min {obs.min()}, max {obs.max()}"]
    return []


def raster_discs(xy, arena, radius, g) -> np.ndarray:
    """(n, g*g) rasters of discs at ``xy``: a cell holds (r - d)/r where d is
    the distance from the disc centre to the cell rectangle, 0 when d >= r."""
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    edges = np.linspace(0.0, arena, g + 1)
    lo, hi = edges[:-1], edges[1:]
    dx = np.maximum(np.maximum(lo - xy[:, :1], xy[:, :1] - hi), 0.0)  # (n, g) columns
    dy = np.maximum(np.maximum(lo - xy[:, 1:], xy[:, 1:] - hi), 0.0)  # (n, g) rows
    d = np.hypot(dy[:, :, None], dx[:, None, :])
    return np.where(d < radius, (radius - d) / radius, 0.0).reshape(len(xy), g * g)


def check_observations(obs, xy, spec, arena) -> list:
    """Observations of positions ``xy``: normalized coordinates in state
    mode, disc rasters in raster mode."""
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    if spec.mode == "state":
        want = xy / arena
    else:
        want = raster_discs(xy, arena, spec.agent_radius, spec.raster_size)
    if obs.shape != want.shape:
        return [f"observation shape {obs.shape} != {want.shape}"]
    bad = np.flatnonzero(np.any(np.abs(obs - want) > GEOM_ATOL, axis=1))
    if bad.size:
        return [f"{bad.size} of {len(obs)} observations differ from the recomputation (first at {bad[0]})"]
    return []


def invalid_positions(xy, ctx, radius) -> np.ndarray:
    """Indices of positions where a disc of ``radius`` leaves the arena or
    overlaps a wall."""
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    s = ctx.arena_size
    bad = np.any((xy < radius - GEOM_ATOL) | (xy > s - radius + GEOM_ATOL), axis=1)
    for w in ctx.walls:
        dx = np.maximum(np.abs(xy[:, 0] - w.cx) - w.half_w, 0.0)
        dy = np.maximum(np.abs(xy[:, 1] - w.cy) - w.half_h, 0.0)
        bad |= np.hypot(dx, dy) < radius - GEOM_ATOL
    return np.flatnonzero(bad)


def check_path(xy, ctx, spec) -> list:
    """Each step moves at most a_max per axis and ends at a valid state."""
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    errs = []
    moves = np.abs(np.diff(xy, axis=0))
    if moves.size and float(moves.max()) > spec.a_max + GEOM_ATOL:
        errs.append(f"a step moves {float(moves.max())} > a_max {spec.a_max}")
    bad = invalid_positions(xy, ctx, spec.agent_radius)
    if bad.size:
        errs.append(f"{bad.size} states are invalid (first at step {bad[0]})")
    return errs


def check_episode(result, row, task, spec, tau) -> list:
    """An execution trace against the task, and the reported row against a
    recomputation of final distance and success from that trace."""
    trace = np.asarray(result.state_trace, dtype=float)
    errs = check_path(trace, task.context, spec)
    if not np.allclose(trace[0], [task.start.x, task.start.y], rtol=0.0, atol=0.0):
        errs.append("trace does not begin at the task start")
    if len(trace) != result.steps + 1:
        errs.append(f"trace has {len(trace)} states for {result.steps} steps")
    final = math.hypot(trace[-1, 0] - task.goal.x, trace[-1, 1] - task.goal.y)
    if not math.isclose(row.final_distance, final, rel_tol=1e-12, abs_tol=1e-12):
        errs.append(f"reported final_distance {row.final_distance} != {final} from the trace")
    if bool(row.success) != (final <= tau):
        errs.append(f"reported success {row.success} but final distance {final} vs tau {tau}")
    if row.steps != result.steps or row.seed != result.seed:
        errs.append("report row does not match its execution")
    return errs


def check_dataset(dataset, world) -> list:
    """Every stored trajectory: valid states, bounded steps, observations
    that match the recomputation from the stored states."""
    errs = []
    spec = world.spec
    for ctx in dataset.contexts:
        for traj in dataset.trajectories[ctx.id]:
            where = f"context {ctx.id} trajectory {traj.trajectory_id}"
            errs += [f"{where}: {e}" for e in check_path(traj.states, ctx, spec)]
            errs += [f"{where}: {e}" for e in check_observations(traj.observations, traj.states, spec, ctx.arena_size)]
    return errs
