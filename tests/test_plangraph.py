import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htmem.autodiff import MlpParams, logsumexp_np
from htmem.cvae import CvaeModel
from htmem.plangraph import (
    NoPathError,
    Plan,
    PlanGraph,
    PlanningConfig,
    WEIGHT_SCHEMES,
    build_graph,
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
    n = len(logits)
    obs = np.zeros((n, 2))
    return build_graph(obs, FixedScorer(logits), np.zeros(2), scheme, s_shortcut)


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


def lexicographic_brute_force(weights, start, goal):
    """Minimum of (total summed in path order, path) over all simple paths,
    or None when the goal is unreachable."""
    if start == goal:
        return 0.0, (start,)
    nodes = [v for v in range(len(weights)) if v not in (start, goal)]
    best = None
    for r in range(len(nodes) + 1):
        for mid in itertools.permutations(nodes, r):
            path = (start, *mid, goal)
            total = 0.0
            for a, b in zip(path, path[1:]):
                total += weights[b][a]
            if math.isfinite(total) and (best is None or (total, path) < best):
                best = (total, path)
    return best


def sequential_shortest_path(weights, start, goal):
    """Dijkstra settling one node per step: (node indices, total weight).

    The reference for ``shortest_path``. Equal-cost ties, both in choosing
    the node to settle and in relaxing an edge, resolve to the
    lexicographically smallest node-index sequence; non-finite weights are
    absent edges.
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
    paths = {-1: ()}  # settled node -> its path

    def path_via(v):
        return paths[int(pred[v])] + (int(v),)

    while True:
        dmin = key.min()
        # a finite path can still sum to inf; then every frontier node ties
        ties = np.flatnonzero(key == dmin if dmin < np.inf else frontier)
        if not len(ties):
            raise NoPathError(f"no path from node {start} to node {goal}")
        u = min((int(v) for v in ties), key=path_via)
        paths[u] = path_via(u)
        frontier[u] = unsettled[u] = False
        key[u] = np.inf
        if u == goal:
            return list(paths[u]), float(dist[u])
        row = out[u]
        cand = dist[u] + row
        edge = unsettled & np.isfinite(row)
        better = edge & (~frontier | (cand < dist))
        for v in np.flatnonzero(edge & frontier & (cand == dist)):
            better[v] = paths[u] + (int(v),) < paths[int(pred[v])] + (int(v),)
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


def test_build_graph_needs_two_nodes():
    with pytest.raises(ValueError):
        build_graph(np.zeros((1, 2)), FixedScorer(np.zeros((1, 1))), np.zeros(2))


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
    assert plan.node_indices == [0, 1, 3]


def test_tie_break_when_tiny_weights_are_absorbed():
    # 1.0 + 1e-20 == 1.0, so nodes 1, 3 and 4 all tie at distance 1 with
    # different predecessors; settling 3 before 1 would lose the smaller
    # route to 3 through 1, and with it the smallest route to 4
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
    assert plan.node_indices == [0, 2, 1, 3, 4]
    assert plan.total_weight == 1.0


def test_path_whose_total_overflows_is_still_a_path():
    w = np.full((3, 3), math.inf)
    w[1, 0] = 1e308  # 0 -> 1
    w[2, 1] = 1e308  # 1 -> 2
    with np.errstate(over="ignore"):
        plan = shortest_path(graph_from_weights(w), 0, 2)
    assert plan.node_indices == [0, 1, 2]
    assert plan.total_weight == math.inf


def assert_same_as_sequential(graph, start, goal):
    try:
        want = sequential_shortest_path(graph.weights, start, goal)
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


def test_shortest_path_matches_sequential_search_on_integer_weights():
    # weights in {1, 2, 3} make exact cost ties common, both between nodes
    # settled together and against a frontier node's current distance; in
    # {0, 1, 2, 3}, a quarter of the edges are free, as an underflowed
    # ``inverse`` weight is
    for low in (1, 0):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(20, 61))
            w = rng.integers(low, 4, size=(n, n)).astype(float)
            w[rng.random((n, n)) < rng.uniform(0.3, 0.95)] = math.inf
            start, goal = rng.integers(n, size=2)
            assert_same_as_sequential(graph_from_weights(w), int(start), int(goal))


def test_shortest_path_matches_sequential_search_when_tiny_weights_are_absorbed():
    # 1.0 + 1e-20 == 1.0: no frontier node is then provably final by the
    # cheapest edge into it, and the search settles one tied node at a time
    rng = np.random.default_rng(10)
    for _ in range(500):
        n = int(rng.integers(4, 13))
        w = rng.choice([1e-20, 1.0, 2.0, math.inf], size=(n, n), p=[0.3, 0.2, 0.1, 0.4])
        start, goal = rng.integers(n, size=2)
        assert_same_as_sequential(graph_from_weights(w), int(start), int(goal))


def test_equal_cost_routes_from_nodes_settled_together_keep_the_smaller_path():
    # 3 and 4 settle together at distance 2 and both reach 5 at cost 3; 4's
    # path (0, 1, 4) is the smaller, although 3 is the smaller index
    w = np.full((6, 6), math.inf)
    w[1, 0] = w[2, 0] = 1.0  # 0 -> 1, 0 -> 2
    w[4, 1] = 1.0  # 1 -> 4
    w[3, 2] = 1.0  # 2 -> 3
    w[5, 3] = w[5, 4] = 1.0  # 3 -> 5, 4 -> 5
    plan = shortest_path(graph_from_weights(w), 0, 5)
    assert plan.node_indices == [0, 1, 4, 5]
    assert plan.total_weight == 3.0


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
def test_shortest_path_is_the_lexicographic_minimum_of_cost_and_path(problem):
    weights, start, goal = problem
    g = graph_from_weights(weights)
    want = lexicographic_brute_force(g.weights, start, goal)
    if want is None:
        with pytest.raises(NoPathError):
            shortest_path(g, start, goal)
        return
    plan = shortest_path(g, start, goal)
    assert tuple(plan.node_indices) == want[1]
    assert plan.total_weight == want[0]  # identical, not approximately equal


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
    assert graph.n_nodes == 2
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
