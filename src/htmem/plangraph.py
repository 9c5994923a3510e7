"""Dense scored digraph over candidate nodes and shortest-path search.

Nodes are observations (generated candidates plus the actual start and goal);
every ordered pair gets a directed logit from the connectivity model, turned
into non-negative edge weights under a selectable scheme. The normalized scheme
divides each column's total score mass by the edge's own score, so shortest
paths maximize a likelihood bound along the way (checkable via
``jensen_bound_check``). The search settles provably final nodes in batches,
and an equal-cost route goes through the predecessor first in (settled
distance, index) order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import logsumexp_np, sigmoid
from .cvae import CvaeModel, hallucinate

WEIGHT_SCHEMES = ("inverse", "normalized", "sptm_threshold", "sptm_exp")


class NoPathError(RuntimeError):
    """Goal unreachable: every route takes an absent edge. Thresholding
    removes edges, and so does a weight above the largest float64, which
    ``scheme_weights`` makes inf: under ``inverse``, a logit below
    -ln(float64 max), about -709.78."""


@dataclass
class PlanGraph:
    observations: np.ndarray  # (n, obs_dim) node observations
    logits: np.ndarray  # (n, n); [i, j] scores the directed edge j -> i
    weights: np.ndarray  # (n, n); inf marks absent edges and the diagonal
    scheme: str


@dataclass
class Plan:
    node_indices: list
    observations: np.ndarray
    edge_weights: np.ndarray
    edge_logits: np.ndarray
    total_weight: float
    scheme: str
    # (m, obs_dim) generated nodes searched, 614 KB raster at m 300; run_benchmark
    # rates the first plan's and then sets every plan's to None
    candidates: np.ndarray | None = None

    def __len__(self):
        return len(self.node_indices)


def scheme_weights(logits: np.ndarray, scheme: str, s_shortcut=0.5) -> np.ndarray:
    """Edge weights for a full logit matrix; diagonal comes back infinite.

    inverse:        w_ij = exp(-logit_ij), the reciprocal of the score
    normalized:     w_ij = sum_s exp(logit_sj) / exp(logit_ij); the column sum
                    includes every node, so each weight is >= 1
    sptm_threshold: unit weight where sigmoid(logit) >= s_shortcut, else no edge
    sptm_exp:       w_ij = exp(-sigmoid(logit_ij))

    A weight above the largest float64 overflows to inf without a warning,
    and is an absent edge: under ``inverse``, that is a logit below
    -ln(float64 max), about -709.78. Weights are non-negative, and one below
    the smallest float64 underflows to 0.0, a free edge, the mirror of the
    inf floor: under ``inverse``, a logit above about 745.13.
    """
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    if scheme == "inverse":
        with np.errstate(over="ignore"):
            w = np.exp(-logits)
    elif scheme == "normalized":
        col_lse = logsumexp_np(logits, axis=0)  # over sources of mass out of j
        with np.errstate(over="ignore"):
            w = np.exp(col_lse[None, :] - logits)
    elif scheme == "sptm_threshold":
        if not 0.0 < s_shortcut < 1.0:
            raise ValueError("s_shortcut must lie in (0, 1)")
        w = np.where(sigmoid(logits) >= s_shortcut, 1.0, np.inf)
    else:
        w = np.exp(-sigmoid(logits))
    np.fill_diagonal(w, np.inf)  # no self-loops
    return w


def shortest_path(graph: PlanGraph, start_idx: int, goal_idx: int) -> Plan:
    """Dijkstra over the dense digraph, settling every provably final node at once.

    Each step settles every frontier node with ``dist[v] < dmin + min_in[v]``
    (Crauser et al. 1998), where ``dmin`` is the least frontier distance and
    ``min_in[v]`` the cheapest edge into ``v``, and relaxes all their out-edges
    in one vector minimum. Weights are non-negative and rounding is monotone,
    so a route into ``v`` through any unsettled node costs at least ``dmin +
    min_in[v]``: it can neither beat nor tie ``dist[v]``. A batch node must
    also have no out-edge absorbed at its own distance, ``dist[v] < dist[v] +
    min_out[v]``, as such an edge ties a node at that distance, and the order
    in which those nodes settle decides the tie. When no node passes, the step
    settles the least-index node at ``dmin``, as a one-node-per-step search
    does; a node with a free (0.0) edge in or out never passes. An equal-cost
    route replaces a node's predecessor only when its own predecessor was
    settled at a smaller distance, or at the same distance with a smaller
    index, so plans and totals are those of a one-node-per-step search under
    the same rule. Non-finite weights, NaN included, are absent edges.
    """
    w = graph.weights
    n = len(w)
    if not (0 <= start_idx < n and 0 <= goal_idx < n):
        raise ValueError("start/goal index out of range")
    # skip NaN; a -inf keeps its node out of batches
    min_in, min_out = np.fmin.reduce(w, axis=1), np.fmin.reduce(w, axis=0)
    dist = np.full(n, np.inf)
    key = np.full(n, np.inf)  # dist on the frontier, inf elsewhere
    dist[start_idx] = key[start_idx] = 0.0
    pred = np.full(n, -1)
    frontier = np.zeros(n, dtype=bool)  # reached, not yet settled
    frontier[start_idx] = True
    unsettled = np.ones(n, dtype=bool)
    while True:
        dmin = key.min()
        batch = np.flatnonzero((key < dmin + min_in) & (key < key + min_out)) if dmin < np.inf else []
        if not len(batch):
            # a finite path can still sum to inf; then every frontier node ties
            ties = np.flatnonzero(key == dmin if dmin < np.inf else frontier)
            if not len(ties):
                raise NoPathError(f"no path from node {start_idx} to node {goal_idx}")
            batch = ties[:1]
        frontier[batch] = unsettled[batch] = False
        key[batch] = np.inf
        if not unsettled[goal_idx]:
            break
        # in (distance, index) order, the first of several equal-cost sources wins
        src = batch[np.argsort(dist[batch], kind="stable")]
        todo = np.flatnonzero(unsettled)
        cols = w[np.ix_(todo, src)]  # [i, j]: cost of the edge src[j] -> todo[i]
        cost = np.where(np.isfinite(cols), cols + dist[src], np.nan)  # NaN: no edge
        cand = np.fmin.reduce(cost, axis=1)  # NaN where no source has an edge
        pick = src[(cost == cand[:, None]).argmax(axis=1)]
        edge = ~np.isnan(cand)
        v, cand, pick = todo[edge], cand[edge], pick[edge]
        old = pred[v]
        earlier = (dist[pick] < dist[old]) | ((dist[pick] == dist[old]) & (pick < old))
        better = ~frontier[v] | (cand < dist[v]) | ((cand == dist[v]) & earlier)
        v = v[better]
        dist[v] = key[v] = cand[better]
        pred[v] = pick[better]
        frontier[v] = True
    idx = [goal_idx]
    while idx[0] != start_idx:
        idx.insert(0, int(pred[idx[0]]))
    return Plan(
        idx,
        graph.observations[idx],
        w[idx[1:], idx[:-1]],
        graph.logits[idx[1:], idx[:-1]],
        float(dist[goal_idx]),
        graph.scheme,
    )


@dataclass
class PlanningConfig:
    m_samples: int = 300
    scheme: str = "normalized"
    s_shortcut: float = 0.5


def plan_end_to_end(
    ctx_encoding,
    o_start,
    o_goal,
    cvae: CvaeModel,
    scorer,
    cfg: PlanningConfig,
    seed: int,
) -> tuple[Plan, PlanGraph]:
    """Sample candidate nodes, append start and goal, score, search.

    Node layout: candidates occupy 0..m-1, start is m, goal is m+1; with
    m = 0 the only route is the direct edge. Deterministic given the seed.
    """
    samples = hallucinate(cvae, ctx_encoding, cfg.m_samples, seed)
    nodes = np.concatenate(
        [samples, np.atleast_2d(o_start), np.atleast_2d(o_goal)], axis=0
    )
    logits = scorer.pairwise_logits(nodes, ctx_encoding)
    graph = PlanGraph(nodes, logits, scheme_weights(logits, cfg.scheme, cfg.s_shortcut), cfg.scheme)
    plan = shortest_path(graph, cfg.m_samples, cfg.m_samples + 1)
    plan.candidates = samples
    return plan, graph


def jensen_bound_check(graph: PlanGraph, plan: Plan):
    """(log of mean edge weight, mean of log edge weights, bound holds).

    Valid only under the normalized scheme, where the weights approximate
    inverse transition likelihood ratios.
    """
    if graph.scheme != "normalized":
        raise ValueError("the likelihood bound is defined for the normalized scheme")
    if len(plan) < 2:
        raise ValueError("plan has no edges")
    omega = plan.edge_weights
    lhs = float(np.log(np.mean(omega)))
    rhs = float(np.mean(np.log(omega)))
    return lhs, rhs, lhs >= rhs - 1e-12
