import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htmem.autodiff import MlpParams, logsumexp_np
from htmem.cvae import CvaeModel, hallucinate
from htmem.plangraph import (
    NoPathError,
    Plan,
    PlanGraph,
    PlanningConfig,
    WEIGHT_SCHEMES,
    jensen_bound_check,
    plan_end_to_end,
    scheme_weights,
    shortest_path,
)


class FixedScorer:
    """Scorer stub returning a preset logit matrix."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=float)

    def pairwise_logits(self, obs, ctx):
        return self.logits


def graph_from_logits(logits, scheme="normalized", s_shortcut=0.5):
    obs = np.zeros((len(logits), 2))
    return PlanGraph(obs, logits, scheme_weights(logits, scheme, s_shortcut), scheme)


def graph_from_weights(weights):
    w = np.array(weights, dtype=float)
    np.fill_diagonal(w, np.inf)
    n = len(w)
    return PlanGraph(np.zeros((n, 2)), np.zeros((n, n)), w, "inverse")


# ---------------------------------------------------------------------------
# independent path oracles


def brute_force_shortest(weights, start, goal):
    """Exhaustive enumeration over simple paths (positive weights make
    shortest paths simple)."""
    n = len(weights)
    best = math.inf
    nodes = [v for v in range(n) if v not in (start, goal)]
    if start == goal:
        return 0.0
    for r in range(len(nodes) + 1):
        for mid in itertools.permutations(nodes, r):
            path = (start, *mid, goal)
            total = 0.0
            ok = True
            for a, b in zip(path, path[1:]):
                w = weights[b][a]
                if not math.isfinite(w):
                    ok = False
                    break
                total += w
            if ok:
                best = min(best, total)
    return best


def sequential_shortest_path(weights, start, goal, ties=None):
    """Dijkstra settling one node per step: (node indices, total weight).

    The reference for ``shortest_path``. Each step settles the least-index
    node at the least frontier distance. An equal-cost route replaces a
    node's predecessor only when its own predecessor was settled at a
    smaller distance, or at the same distance with a smaller index; each such
    decision joins ``ties``, when given, as the (distance, index) pairs of
    the new and the old predecessor. Non-finite weights are absent edges.
    """
    w = np.asarray(weights, dtype=float)
    n = len(w)
    out = np.ascontiguousarray(w.T)  # row u: costs of the edges u -> v
    dist = np.full(n, np.inf)
    key = np.full(n, np.inf)  # dist on the frontier, inf elsewhere
    dist[start] = key[start] = 0.0
    pred = np.full(n, -1)
    frontier = np.zeros(n, dtype=bool)  # reached, not yet settled
    frontier[start] = True
    unsettled = np.ones(n, dtype=bool)
    while True:
        dmin = key.min()
        # a finite path can still sum to inf; then every frontier node ties
        ties_at_dmin = np.flatnonzero(key == dmin if dmin < np.inf else frontier)
        if not len(ties_at_dmin):
            raise NoPathError(f"no path from node {start} to node {goal}")
        u = int(ties_at_dmin[0])
        frontier[u] = unsettled[u] = False
        key[u] = np.inf
        if u == goal:
            path = [u]
            while path[-1] != start:
                path.append(int(pred[path[-1]]))
            return path[::-1], float(dist[u])
        row = out[u]
        cand = dist[u] + row
        edge = unsettled & np.isfinite(row)
        better = edge & (~frontier | (cand < dist))
        for v in np.flatnonzero(edge & frontier & (cand == dist)):
            p = int(pred[v])
            better[v] = (dist[u], u) < (dist[p], p)
            if ties is not None:
                ties.append(((dist[u], u), (dist[p], p)))
        np.copyto(dist, cand, where=better)
        np.copyto(key, cand, where=better)
        np.copyto(pred, u, where=better)
        frontier |= better


def bellman_ford(weights, start, goal):
    n = len(weights)
    dist = [math.inf] * n
    dist[start] = 0.0
    for _ in range(n - 1):
        changed = False
        for u in range(n):
            if not math.isfinite(dist[u]):
                continue
            for v in range(n):
                if v == u or not math.isfinite(weights[v][u]):
                    continue
                cand = dist[u] + weights[v][u]
                if cand < dist[v]:
                    dist[v] = cand
                    changed = True
        if not changed:
            break
    return dist[goal]


# ---------------------------------------------------------------------------
# weight schemes


def test_uniform_logits_normalized_weight_is_node_count():
    g = graph_from_logits(np.zeros((5, 5)), "normalized")
    off = ~np.eye(5, dtype=bool)
    assert np.allclose(g.weights[off], 5.0, atol=0)
    assert np.all(np.isinf(np.diag(g.weights)))


def test_uniform_logits_inverse_weight_is_one():
    g = graph_from_logits(np.zeros((4, 4)), "inverse")
    off = ~np.eye(4, dtype=bool)
    assert np.all(g.weights[off] == 1.0)


def test_normalized_matches_hand_computation():
    logits = np.array([[0.0, 1.0, -2.0], [0.5, 0.0, 0.3], [-1.0, 2.0, 0.0]])
    g = graph_from_logits(logits, "normalized")
    f = np.exp(logits)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            want = f[:, j].sum() / f[i, j]
            assert g.weights[i, j] == pytest.approx(want, rel=1e-12)


def test_normalized_weights_at_least_one():
    rng = np.random.default_rng(0)
    g = graph_from_logits(rng.normal(size=(7, 7)) * 3, "normalized")
    off = ~np.eye(7, dtype=bool)
    assert np.all(g.weights[off] >= 1.0)


def test_normalized_column_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(6, 6))
    w0 = scheme_weights(logits, "normalized")
    shifted = logits.copy()
    shifted[:, 2] += 7.31  # constant added to all scores out of node 2
    w1 = scheme_weights(shifted, "normalized")
    off = ~np.eye(6, dtype=bool)
    assert np.max(np.abs(w1[off] - w0[off])) < 1e-9


def test_monotone_score_weight_relation():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(5, 5))
    for scheme in ("inverse", "normalized"):
        w = scheme_weights(logits, scheme)
        j = 1
        order = np.argsort(logits[:, j])
        vals = [w[i, j] for i in order if i != j]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_threshold_scheme_edges_and_validation():
    logits = np.array([[0.0, 5.0], [-5.0, 0.0]])
    g = graph_from_logits(logits, "sptm_threshold", s_shortcut=0.9)
    assert np.isinf(g.weights[1, 0])  # sigmoid(-5) < 0.9: edge absent
    assert g.weights[0, 1] == 1.0
    with pytest.raises(ValueError):
        scheme_weights(logits, "sptm_threshold", s_shortcut=1.5)
    with pytest.raises(ValueError):
        scheme_weights(logits, "no_such_scheme")


def test_sptm_exp_weights_bounded_positive():
    rng = np.random.default_rng(3)
    w = scheme_weights(rng.normal(size=(4, 4)) * 100, "sptm_exp")
    off = ~np.eye(4, dtype=bool)
    assert np.all(w[off] > 0) and np.all(w[off] <= 1.0)


def test_weights_finite_for_extreme_logits():
    logits = np.array([[0.0, 500.0], [-500.0, 0.0]])
    for scheme in ("inverse", "normalized", "sptm_exp"):
        w = scheme_weights(logits, scheme)
        off = ~np.eye(2, dtype=bool)
        assert np.all(np.isfinite(w[off])), scheme
        assert np.all(w[off] > 0)


def test_overflowed_weights_are_absent_edges_without_a_warning():
    """No scheme raises under ``over="raise"`` on logits spanning +-800; an
    exp above ln(float64 max) is an inf weight, an absent edge, and an exp
    that underflows is a 0.0 weight, a free edge."""
    n = 12
    logits = np.random.default_rng(5).uniform(-800.0, 800.0, size=(n, n))
    ln_max = math.log(np.finfo(float).max)  # np.exp(x) is inf exactly for x > ln_max
    diagonal = np.eye(n, dtype=bool)
    absent = {
        "inverse": -logits > ln_max,
        "normalized": logsumexp_np(logits, axis=0)[None, :] - logits > ln_max,
        "sptm_threshold": logits < 0.0,  # sigmoid below the default 0.5
        "sptm_exp": np.zeros((n, n), dtype=bool),
    }
    assert absent["inverse"][~diagonal].any() and absent["normalized"][~diagonal].any()
    # only ``inverse`` can underflow: the other schemes' weights are >= exp(-1)
    free = np.array([[x > 0.0 and math.exp(-x) == 0.0 for x in row] for row in logits.tolist()])
    assert free[~diagonal].any()
    with np.errstate(over="raise"):
        for scheme in WEIGHT_SCHEMES:
            w = scheme_weights(logits, scheme)
            assert np.array_equal(np.isinf(w), absent[scheme] | diagonal), scheme
            want_free = free & ~diagonal if scheme == "inverse" else np.zeros((n, n), dtype=bool)
            assert np.array_equal(w == 0.0, want_free), scheme


SPECIAL_LOGITS = (
    0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0, 5e-324, -5e-324
)


def seeded_logits():
    """Seeded normal logits at scales 1, 30 and 300 and sizes 5, 17 and 302,
    each with ``SPECIAL_LOGITS`` at random entries, in row-major order and
    transposed (as a scorer may return them)."""
    rng = np.random.default_rng(11)
    for scale in (1.0, 30.0, 300.0):
        for n in (5, 17, 302):
            logits = rng.normal(scale=scale, size=(n, n))
            logits.flat[rng.choice(n * n, size=len(SPECIAL_LOGITS), replace=False)] = SPECIAL_LOGITS
            yield logits
            yield logits.T


def reference_scheme_weights(logits, scheme, s_shortcut=0.5):
    """``scheme_weights`` with a sigmoid that computes both branches and
    selects one: the reference for its branch-free sigmoid, byte for byte."""
    e = np.exp(-np.abs(logits))
    sig = np.where(logits >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if scheme == "inverse":
        with np.errstate(over="ignore"):
            w = np.exp(-logits)
    elif scheme == "normalized":
        col_lse = logsumexp_np(logits, axis=0)
        with np.errstate(over="ignore"):
            w = np.exp(col_lse[None, :] - logits)
    elif scheme == "sptm_threshold":
        w = np.where(sig >= s_shortcut, 1.0, np.inf)
    else:
        w = np.exp(-sig)
    np.fill_diagonal(w, np.inf)
    return w


def test_scheme_weights_equal_the_reference_byte_for_byte_and_keep_the_logits():
    cases = 0
    for logits in seeded_logits():
        before = logits.tobytes()
        for scheme in WEIGHT_SCHEMES:
            with np.errstate(invalid="ignore"):  # inf - inf in the special entries
                w, want = scheme_weights(logits, scheme), reference_scheme_weights(logits, scheme)
            assert w.shape == want.shape and w.tobytes() == want.tobytes(), (scheme, logits.shape)
            assert logits.tobytes() == before
            cases += 1
    assert cases == 3 * 3 * 2 * len(WEIGHT_SCHEMES)


# ---------------------------------------------------------------------------
# shortest path


def test_two_node_single_edge():
    g = graph_from_weights([[math.inf, 3.0], [2.5, math.inf]])
    plan = shortest_path(g, 0, 1)
    assert plan.node_indices == [0, 1]
    assert plan.total_weight == pytest.approx(2.5)
    assert np.allclose(plan.edge_weights, [2.5])


def test_start_equals_goal():
    g = graph_from_weights([[math.inf, 1.0], [1.0, math.inf]])
    plan = shortest_path(g, 0, 0)
    assert plan.node_indices == [0]
    assert plan.total_weight == 0.0
    assert len(plan.edge_weights) == 0


def test_shortest_path_vs_brute_force_100_graphs():
    rng = np.random.default_rng(4)
    for trial in range(100):
        n = int(rng.integers(3, 9))
        w = rng.uniform(0.1, 5.0, size=(n, n))
        g = graph_from_weights(w)
        plan = shortest_path(g, 0, n - 1)
        want = brute_force_shortest(g.weights, 0, n - 1)
        assert abs(plan.total_weight - want) < 1e-9, trial


def test_shortest_path_vs_bellman_ford_64_nodes():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(32, 65))
        w = rng.uniform(0.05, 4.0, size=(n, n))
        # knock out a third of the edges
        mask = rng.random((n, n)) < 0.33
        w[mask] = math.inf
        g = graph_from_weights(w)
        want = bellman_ford(g.weights, 0, n - 1)
        if math.isinf(want):
            with pytest.raises(NoPathError):
                shortest_path(g, 0, n - 1)
            continue
        plan = shortest_path(g, 0, n - 1)
        assert abs(plan.total_weight - want) < 1e-9, trial


def test_tie_break_lexicographic_smallest_sequence():
    inf = math.inf
    # two equal-cost two-hop routes 0->1->3 and 0->2->3
    w = np.full((4, 4), inf)
    w[1, 0] = 1.0  # 0 -> 1
    w[2, 0] = 1.0  # 0 -> 2
    w[3, 1] = 1.0  # 1 -> 3
    w[3, 2] = 1.0  # 2 -> 3
    g = graph_from_weights(w)
    plan = shortest_path(g, 0, 3)
    # 1 and 2 settle together at distance 1, and 1 is the smaller index
    assert plan.node_indices == [0, 1, 3]


def test_tie_break_when_tiny_weights_are_absorbed():
    # 1.0 + 1e-20 == 1.0, so nodes 1, 3 and 4 all tie at distance 1 with
    # different predecessors, and none is provably final by its cheapest
    # in-edge; they settle one at a time, the least index first
    inf, tiny = math.inf, 1e-20
    w = np.full((5, 5), inf)
    w[2, 0] = tiny  # 0 -> 2
    w[3, 0] = 1.0  # 0 -> 3
    w[1, 2] = 1.0  # 2 -> 1
    w[4, 2] = 1.0  # 2 -> 4
    w[3, 1] = tiny  # 1 -> 3
    w[1, 4] = tiny  # 4 -> 1
    w[4, 3] = tiny  # 3 -> 4
    plan = shortest_path(graph_from_weights(w), 0, 4)
    # 1 and then 3 settle before 4; 3's route to 4 ties with the one from 2,
    # which was settled at the smaller distance 1e-20, and 2 keeps it
    assert plan.node_indices == [0, 2, 4]
    assert plan.total_weight == 1.0


def test_path_whose_total_overflows_is_still_a_path():
    w = np.full((3, 3), math.inf)
    w[1, 0] = 1e308  # 0 -> 1
    w[2, 1] = 1e308  # 1 -> 2
    with np.errstate(over="ignore"):
        plan = shortest_path(graph_from_weights(w), 0, 2)
    assert plan.node_indices == [0, 1, 2]
    assert plan.total_weight == math.inf


def assert_same_as_sequential(graph, start, goal, ties=None):
    try:
        want = sequential_shortest_path(graph.weights, start, goal, ties)
    except NoPathError:
        with pytest.raises(NoPathError):
            shortest_path(graph, start, goal)
        return
    plan = shortest_path(graph, start, goal)
    assert plan.node_indices == want[0]
    assert plan.total_weight == want[1]  # identical, not approximately equal


def distance_logits(rng, n):
    """Logits that fall with the distance between random points, plus noise."""
    pts = rng.random((n, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    return 4.0 - 12.0 * dist + rng.normal(size=(n, n))


@pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
def test_shortest_path_matches_sequential_search_on_dense_graphs(scheme):
    # 300 generated nodes plus start and goal, laid out as plan_end_to_end does
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for logits in (distance_logits(rng, 302), 3.0 * rng.normal(size=(302, 302))):
            assert_same_as_sequential(graph_from_logits(logits, scheme), 300, 301)


def integer_weight_problems():
    """(weights, start, goal) of 400 seeded graphs of 20-60 nodes. Weights in
    {1, 2, 3} make exact cost ties common, both between nodes settled
    together and against a frontier node's current distance; in {0, 1, 2,
    3}, a quarter of the edges are free, as an underflowed ``inverse``
    weight is."""
    for low in (1, 0):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(20, 61))
            w = rng.integers(low, 4, size=(n, n)).astype(float)
            w[rng.random((n, n)) < rng.uniform(0.3, 0.95)] = math.inf
            start, goal = rng.integers(n, size=2)
            yield w, int(start), int(goal)


def absorbed_problems():
    """(weights, start, goal) of 500 seeded graphs of 4-12 nodes with weights
    in {1e-20, 1, 2}. 1.0 + 1e-20 == 1.0: no frontier node is then provably
    final by the cheapest edge into it, and the search settles one tied node
    at a time."""
    rng = np.random.default_rng(10)
    for _ in range(500):
        n = int(rng.integers(4, 13))
        w = rng.choice([1e-20, 1.0, 2.0, math.inf], size=(n, n), p=[0.3, 0.2, 0.1, 0.4])
        start, goal = rng.integers(n, size=2)
        yield w, int(start), int(goal)


def deep_absorbed_problems():
    """(weights, start, goal) of 12 seeded graphs of 60-302 nodes, start and
    goal laid out as ``plan_end_to_end`` does. Weights span 1 to 1e80 and
    every hop out of the start weighs at least 1e60, so each later hop below
    about 1e44 is absorbed and ties exactly. Whole powers of ten tie more
    routes, absent edges branch the trees."""
    rng = np.random.default_rng(11)
    for k in range(12):
        n = int(rng.integers(60, 303))
        w = 10.0 ** (rng.uniform(0, 80, (n, n)) if k % 2 else rng.integers(0, 81, (n, n)))
        w[:, n - 2] = np.maximum(w[:, n - 2], 1e60)
        w[rng.random((n, n)) < rng.uniform(0.0, 0.9)] = math.inf
        yield w, n - 2, n - 1


def small_tied_problems():
    """(weights, start, goal) of 1,500 seeded graphs of 3-11 nodes with
    weights in {0, 1, 2}, and as many with weights in {1e-30, 1, 1e20}, a
    quarter of the edges absent in both: free, absorbed and exactly tied
    routes of every kind, small enough for every tie order to matter."""
    for values in ((0.0, 1.0, 2.0), (1e-30, 1.0, 1e20)):
        rng = np.random.default_rng(12)
        for _ in range(1500):
            n = int(rng.integers(3, 12))
            w = rng.choice([*values, math.inf], size=(n, n))
            start, goal = rng.integers(n, size=2)
            yield w, int(start), int(goal)


def test_shortest_path_matches_sequential_search_on_integer_weights():
    for w, start, goal in integer_weight_problems():
        assert_same_as_sequential(graph_from_weights(w), start, goal)


def test_shortest_path_matches_sequential_search_when_tiny_weights_are_absorbed():
    for w, start, goal in absorbed_problems():
        assert_same_as_sequential(graph_from_weights(w), start, goal)


def test_shortest_path_matches_sequential_search_on_deep_absorbed_trees():
    # tied nodes settle one at a time; the graphs must still make the rule
    # decide equal-cost routes, both by the predecessors' distance and, at
    # equal distances, by their index
    ties = []
    for w, start, goal in deep_absorbed_problems():
        assert_same_as_sequential(graph_from_weights(w), start, goal, ties)
    assert any(new[0] != old[0] for new, old in ties)
    assert any(new[0] == old[0] and new[1] < old[1] for new, old in ties)


def test_shortest_path_matches_sequential_search_on_small_tied_graphs():
    # fails if the search settles a whole tie class at once, batches a node
    # with an absorbed out-edge, or orders tied predecessors by distance or
    # by index alone
    for w, start, goal in small_tied_problems():
        assert_same_as_sequential(graph_from_weights(w), start, goal)


def test_equal_cost_routes_from_nodes_settled_together_keep_the_smaller_index():
    # 3 and 4 settle together at distance 2 and both reach 5 at cost 3; 3 is
    # the smaller index, although 4's path (0, 1, 4) is the smaller sequence
    w = np.full((6, 6), math.inf)
    w[1, 0] = w[2, 0] = 1.0  # 0 -> 1, 0 -> 2
    w[4, 1] = 1.0  # 1 -> 4
    w[3, 2] = 1.0  # 2 -> 3
    w[5, 3] = w[5, 4] = 1.0  # 3 -> 5, 4 -> 5
    plan = shortest_path(graph_from_weights(w), 0, 5)
    assert plan.node_indices == [0, 2, 3, 5]
    assert plan.total_weight == 3.0


def test_a_node_with_an_absorbed_out_edge_waits_for_its_turn():
    # 2 and 4 both settle at distance 1, and each reaches 0 at cost 1. 4 is
    # provably final by its in-edge, but batched early it would reach 0
    # before 2 does, and 0, the least index at distance 1, would settle
    # through 4; one node at a time, 2 settles first and keeps 0's route
    w = np.full((5, 5), math.inf)
    w[0, 3], w[2, 3], w[4, 3] = 2.0, 1.0, 1.0  # 3 -> 0, 3 -> 2, 3 -> 4
    w[0, 2] = w[0, 4] = w[2, 0] = 0.0  # 2 -> 0, 4 -> 0, 0 -> 2
    plan = shortest_path(graph_from_weights(w), 3, 0)
    assert plan.node_indices == [3, 2, 0]
    assert plan.total_weight == 1.0


def test_nan_weights_are_absent_edges():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(3, 40))
        w = rng.uniform(0.1, 3.0, size=(n, n))
        nan = rng.random((n, n)) < rng.uniform(0.1, 0.6)
        absent = np.where(nan, math.inf, w)
        w[nan] = math.nan
        try:
            want = shortest_path(graph_from_weights(absent), 0, n - 1)
        except NoPathError:
            with pytest.raises(NoPathError):
                shortest_path(graph_from_weights(w), 0, n - 1)
            continue
        plan = shortest_path(graph_from_weights(w), 0, n - 1)
        assert plan.node_indices == want.node_indices
        assert plan.total_weight == want.total_weight


WEIGHT_KINDS = {
    "integer": st.integers(1, 3).map(float),
    "ones": st.just(1.0),
    "real": st.floats(0.05, 5.0),
}


@st.composite
def search_problems(draw):
    n = draw(st.integers(2, 7))
    weight = WEIGHT_KINDS[draw(st.sampled_from(sorted(WEIGHT_KINDS)))]
    absent = st.just(math.inf)
    w = [[draw(st.one_of(absent, weight)) for _ in range(n)] for _ in range(n)]
    return w, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


@settings(max_examples=400, deadline=None)
@given(search_problems())
def test_shortest_path_matches_sequential_search_at_the_least_cost(problem):
    weights, start, goal = problem
    g = graph_from_weights(weights)
    assert_same_as_sequential(g, start, goal)
    want = brute_force_shortest(g.weights, start, goal)
    if want == math.inf:
        with pytest.raises(NoPathError):
            shortest_path(g, start, goal)
    else:
        assert shortest_path(g, start, goal).total_weight == want  # identical, not approximately equal


def test_no_path_under_threshold_scheme():
    logits = np.full((3, 3), -10.0)
    g = graph_from_logits(logits, "sptm_threshold", s_shortcut=0.5)
    with pytest.raises(NoPathError):
        shortest_path(g, 0, 2)


def test_path_totals_equal_edge_sums():
    rng = np.random.default_rng(6)
    w = rng.uniform(0.2, 2.0, size=(10, 10))
    g = graph_from_weights(w)
    plan = shortest_path(g, 3, 7)
    assert plan.total_weight == pytest.approx(plan.edge_weights.sum())
    assert plan.node_indices[0] == 3 and plan.node_indices[-1] == 7
    assert all(a != b for a, b in zip(plan.node_indices, plan.node_indices[1:]))


# ---------------------------------------------------------------------------
# end to end with a stub generator


def tiny_cvae(obs_dim=2, ctx_dim=2, d_z=2):
    enc = MlpParams([np.zeros((2 * d_z, obs_dim + ctx_dim))], [np.zeros(2 * d_z)])
    dec = MlpParams(
        [np.random.default_rng(0).uniform(0.1, 0.5, size=(obs_dim, d_z + ctx_dim))],
        [np.full(obs_dim, 0.4)],
    )
    return CvaeModel(enc, dec, obs_dim, ctx_dim, d_z)


def test_plan_end_to_end_zero_samples_is_direct_edge():
    cvae = tiny_cvae()
    scorer = FixedScorer(np.zeros((2, 2)))
    cfg = PlanningConfig(m_samples=0, scheme="inverse")
    plan, graph = plan_end_to_end(
        np.zeros(2), np.array([0.1, 0.1]), np.array([0.9, 0.9]), cvae, scorer, cfg, seed=0
    )
    assert plan.node_indices == [0, 1]
    assert len(graph.observations) == 2
    assert np.allclose(plan.observations[0], [0.1, 0.1])
    assert np.allclose(plan.observations[-1], [0.9, 0.9])


def test_plan_end_to_end_deterministic():
    cvae = tiny_cvae()

    class DistScorer:
        def pairwise_logits(self, obs, ctx):
            d = np.linalg.norm(obs[:, None, :] - obs[None, :, :], axis=2)
            return -5.0 * d.T

    cfg = PlanningConfig(m_samples=10, scheme="normalized")
    args = (np.zeros(2), np.array([0.0, 0.0]), np.array([1.0, 1.0]), cvae, DistScorer(), cfg)
    p1, _ = plan_end_to_end(*args, seed=5)
    p2, _ = plan_end_to_end(*args, seed=5)
    assert p1.node_indices == p2.node_indices
    assert p1.total_weight == p2.total_weight
    assert p1.node_indices[0] == 10 and p1.node_indices[-1] == 11


@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
def test_plan_end_to_end_searches_the_graph_it_builds(scheme, m):
    """Rows are the candidates, then start, then goal; the weights are the
    scheme's over the scored logits; the plan is the search of that graph."""
    logits = np.random.default_rng(40 + m).normal(scale=2.0, size=(m + 2, m + 2))
    logits[m + 1, m] = 3.0  # start -> goal clears every scheme's threshold
    ctx, start, goal = np.array([0.2, -0.3]), np.array([0.1, 0.2]), np.array([0.8, 0.7])
    cfg = PlanningConfig(m_samples=m, scheme=scheme, s_shortcut=0.6)
    plan, graph = plan_end_to_end(ctx, start, goal, tiny_cvae(), FixedScorer(logits), cfg, seed=3)
    samples = hallucinate(tiny_cvae(), ctx, m, 3)
    assert np.array_equal(graph.observations, np.vstack([samples, start, goal]))
    assert np.array_equal(plan.candidates, samples)
    assert graph.scheme == scheme and np.array_equal(graph.logits, logits)
    assert graph.weights.tobytes() == scheme_weights(graph.logits, scheme, 0.6).tobytes()
    want = shortest_path(graph, m, m + 1)
    assert plan.node_indices == want.node_indices and plan.total_weight == want.total_weight


# ---------------------------------------------------------------------------
# likelihood bound


def test_jensen_equality_for_equal_weights():
    logits = np.zeros((4, 4))
    g = graph_from_logits(logits, "normalized")
    plan = shortest_path(g, 0, 3)
    lhs, rhs, holds = jensen_bound_check(g, plan)
    assert holds
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_jensen_bound_random_trials():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        g = graph_from_logits(rng.normal(size=(n, n)) * 2.0, "normalized")
        length = int(rng.integers(2, n + 1))
        idx = list(rng.choice(n, size=length, replace=False))
        edge_w = np.array([g.weights[idx[t + 1], idx[t]] for t in range(length - 1)])
        edge_l = np.array([g.logits[idx[t + 1], idx[t]] for t in range(length - 1)])
        plan = Plan(idx, g.observations[idx], edge_w, edge_l, float(edge_w.sum()), "normalized")
        _, _, holds = jensen_bound_check(g, plan)
        violations += not holds
    assert violations == 0


def test_jensen_requires_normalized_scheme_and_edges():
    g = graph_from_logits(np.zeros((3, 3)), "inverse")
    plan = shortest_path(g, 0, 2)
    with pytest.raises(ValueError):
        jensen_bound_check(g, plan)
    g2 = graph_from_logits(np.zeros((3, 3)), "normalized")
    single = Plan([0], g2.observations[[0]], np.array([]), np.array([]), 0.0, "normalized")
    with pytest.raises(ValueError):
        jensen_bound_check(g2, single)
