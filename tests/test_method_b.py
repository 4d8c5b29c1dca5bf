import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from cohprop.features import FeatureStore, coherent_neighborhood
from cohprop.graph import DirectedGraph, Direction
from cohprop.method_a import init_state
from cohprop.method_b import (
    PivotSet,
    _co_neighbor_sets,
    _csr,
    co_neighbors,
    compute_pivots,
    run_method_b,
    step_method_b,
)
from conftest import store_from
from oracles import naive_co_neighbors, random_graph


def shared_pivot_graph():
    # 0, 1 (featured) and 2 all follow 3
    return DirectedGraph.from_edges([(0, 3), (1, 3), (2, 3)], node_count=4)


class TestComputePivots:
    def test_coherent_pivot_with_provisional_mean(self):
        store = store_from([[0.0], [0.2]])
        state = init_state(store, [0, 1], Direction.UP, 0.2)
        pivots, excluded = compute_pivots(state, shared_pivot_graph(), store)
        assert pivots.nodes.tolist() == [3]
        assert pivots.features.ravel() == pytest.approx([0.1], abs=1e-15)
        assert excluded.size == 0

    def test_incoherent_pivot_blacklisted(self):
        store = store_from([[0.0], [0.2]])
        state = init_state(store, [0, 1], Direction.UP, 0.05)
        pivots, excluded = compute_pivots(state, shared_pivot_graph(), store)
        assert len(pivots) == 0
        assert excluded.tolist() == [3]

    def test_no_neighbors_gives_empty_pivots(self):
        store = store_from([[0.0], [0.2]])
        g = DirectedGraph.from_edges([(3, 0)], node_count=4)
        state = init_state(store, [0, 1], Direction.UP, 1.0)
        pivots, excluded = compute_pivots(state, g, store)
        assert len(pivots) == 0 and excluded.size == 0


class TestCoNeighbors:
    def test_through_shared_pivot(self):
        g = shared_pivot_graph()
        assert co_neighbors(g, 2, [3], [0, 1], Direction.UP).tolist() == [0, 1]

    def test_no_shared_pivot(self):
        g = DirectedGraph.from_edges([(0, 3), (1, 3), (2, 4)], node_count=5)
        assert co_neighbors(g, 2, [3], [0, 1], Direction.UP).size == 0

    def test_self_inclusion_possible(self):
        g = shared_pivot_graph()
        assert co_neighbors(g, 0, [3], [0, 1], Direction.UP).tolist() == [0, 1]

    def test_accepts_pivot_set(self):
        g = shared_pivot_graph()
        pivots = PivotSet(np.array([3]), np.array([[0.1]]), step=0)
        assert co_neighbors(g, 2, pivots, [0, 1], Direction.UP).tolist() == [0, 1]

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(10, 60))
            g, edges = random_graph(rng, n, 4 * n)
            members = set(rng.choice(n, size=max(2, n // 4), replace=False).tolist())
            pivots = set(rng.choice(n, size=max(2, n // 5), replace=False).tolist())
            d = Direction.UP if rng.integers(2) else Direction.DOWN
            for v in range(n):
                got = set(co_neighbors(g, v, sorted(pivots), sorted(members), d).tolist())
                assert got == naive_co_neighbors(edges, v, pivots, members, d)


def csr_rows(rows):
    """CSR arrays ``(indices, indptr)`` of a list of index lists, each kept in its order."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return np.array([j for row in rows for j in row], dtype=np.int64), indptr


@st.composite
def product_instances(draw):
    """Many C rows over the rows of an M: rows may repeat an M row or mark none."""
    n_members = draw(st.integers(0, 8))
    m_rows = draw(st.lists(st.sets(st.integers(0, n_members - 1)) if n_members else st.just(set()),
                           max_size=8))
    c_rows = draw(st.lists(st.lists(st.integers(0, len(m_rows) - 1), max_size=6)
                           if m_rows else st.just([]), max_size=40))
    return c_rows, [sorted(row) for row in m_rows], n_members


class TestCoNeighborSets:
    @given(product_instances())
    # a row repeating an M row, rows marking none, an M row with no entry; an empty M
    @example(([[1, 0, 1], [], [2, 2], [2, 0]], [[0, 3], [3], []], 5))
    @example(([[0], [], [1, 0]], [[], []], 0))
    def test_rows_are_sorted_unions(self, instance):
        c_rows, m_rows, n_members = instance
        indices, indptr = _co_neighbor_sets(csr_rows(c_rows), _csr(*csr_rows(m_rows), n_members))
        assert indptr.size == len(c_rows) + 1 and indptr[-1] == indices.size
        for k, row in enumerate(c_rows):
            want = sorted(set().union(*(m_rows[j] for j in row)))
            assert indices[indptr[k]:indptr[k + 1]].tolist() == want


class TestStep:
    def test_candidate_estimated_from_co_neighbors(self):
        store = store_from([[0.0], [0.2]])
        state = init_state(store, [0, 1], Direction.UP, 0.2)
        added, rejected, state = step_method_b(state, shared_pivot_graph(), store)
        assert added.tolist() == [2] and rejected.size == 0
        assert store.get(2) == pytest.approx([0.1], abs=1e-15)
        assert state.history[-1].pivots == 1

    def test_disagreeing_pivots_reject_but_do_not_blacklist(self):
        # two pivots whose provisional features disagree; 4 follows both
        g = DirectedGraph.from_edges(
            [(0, 2), (1, 3), (4, 2), (4, 3)], node_count=5
        )
        store = store_from([[0.1], [1.5]])
        state = init_state(store, [0, 1], Direction.UP, 0.2)
        added, rejected, state = step_method_b(state, g, store)
        assert added.size == 0
        assert rejected.size == 0  # only failed pivots are blacklisted
        assert 4 not in store
        assert 4 not in set(state.excluded.tolist())

    def test_empty_pivot_set_is_fixed_point(self):
        store = store_from([[0.0], [0.2]])
        g = DirectedGraph.from_edges([(3, 0)], node_count=4)
        state = init_state(store, [0, 1], Direction.UP, 0.2)
        added, rejected, state = step_method_b(state, g, store)
        assert added.size == 0 and rejected.size == 0
        assert state.history[-1].pivots == 0

    def test_co_neighbor_candidate_test_variant(self):
        # both pivot backsets pass the gate (I = 0.3); the provisional
        # ensemble sits exactly on the threshold (I = 0.5, inclusive) while
        # the pooled co-neighbor set is wider (I ~ 0.583)
        g = DirectedGraph.from_edges(
            [(0, 4), (3, 4), (1, 5), (2, 5), (6, 4), (6, 5)], node_count=7
        )
        feats = [[0.0], [1.0], [1.6], [0.6]]
        store = store_from(feats)
        state = init_state(store, [0, 1, 2, 3], Direction.UP, 0.5)
        added, _, _ = step_method_b(state, g, store, candidate_test="pivot-features")
        assert added.tolist() == [6]
        assert store.get(6) == pytest.approx([0.8], abs=1e-15)

        store2 = store_from(feats)
        state2 = init_state(store2, [0, 1, 2, 3], Direction.UP, 0.5)
        added2, _, _ = step_method_b(state2, g, store2, candidate_test="co-neighbors")
        assert added2.size == 0

    @pytest.mark.parametrize("vec,k", [([0.1], 3), ([541685.6286918868, 0.0], 6)])
    @pytest.mark.parametrize("candidate_test", ["pivot-features", "co-neighbors"])
    def test_identical_members_pass_at_zero_threshold(self, vec, k, candidate_test):
        # k featured nodes with one feature all follow pivot k, as does k + 1
        g = DirectedGraph.from_edges([(v, k) for v in range(k + 2) if v != k], node_count=k + 2)
        store = store_from([vec] * k)
        assert coherent_neighborhood(g, store, range(k), Direction.UP, 0.0).tolist() == [k]
        state = init_state(store, range(k), Direction.UP, 0.0)
        added, rejected, _ = step_method_b(state, g, store, candidate_test=candidate_test)
        assert added.tolist() == [k + 1] and rejected.size == 0
        assert store.get(k + 1).tolist() == vec

    def test_unknown_candidate_test_rejected(self):
        store = store_from([[0.0], [0.2]])
        state = init_state(store, [0, 1], Direction.UP, 0.2)
        with pytest.raises(ValueError):
            step_method_b(state, shared_pivot_graph(), store, candidate_test="zzz")


class TestRun:
    def test_iterates_to_fixed_point(self):
        store = store_from([[0.0], [0.2]])
        result = run_method_b(
            shared_pivot_graph(), store, [0, 1], Direction.UP, 0.2, max_steps=5
        )
        assert 2 in store
        last = result.history[-1]
        assert (last.added, last.excluded) == (0, 0)

    def test_identical_estimate_keeps_pivot_at_zero_threshold(self):
        # seeds 0-2 at 0.1 and node 4 follow 3; 4's estimate is exactly 0.1,
        # so at step 1 pivot 3 is still coherent and the run stops there
        g = DirectedGraph.from_edges([(0, 3), (1, 3), (2, 3), (4, 3)], node_count=5)
        store = store_from([[0.1]] * 3)
        result = run_method_b(g, store, [0, 1, 2], Direction.UP, 0.0, max_steps=3)
        assert store.get(4).tolist() == [0.1]
        assert [(r.added, r.excluded, r.pivots) for r in result.history] == [(1, 0, 1), (0, 0, 1)]
        assert result.state.excluded.size == 0

    def test_zero_budget_rejected(self):
        store = store_from([[0.0], [0.2]])
        with pytest.raises(ValueError):
            run_method_b(shared_pivot_graph(), store, [0, 1], Direction.UP, 0.2, max_steps=0)

    def test_seed_without_neighbors_unchanged(self):
        g = DirectedGraph.from_edges([(3, 0)], node_count=4)
        store = store_from([[0.0], [0.2]])
        result = run_method_b(g, store, [0, 1], Direction.UP, 0.2, max_steps=3)
        assert result.state.featured.tolist() == [0, 1]
        assert len(store) == 2


class TestProperties:
    def drive(self, g, truth, seed, direction, eps, max_steps=10):
        store = truth.subset(seed)
        state = init_state(store, seed, direction, eps)
        ever_excluded = set()
        for _ in range(max_steps):
            prev = state
            added, rejected, state = step_method_b(state, g, store)
            state.check_invariants()
            assert set(prev.featured) <= set(state.featured)
            assert set(prev.excluded) <= set(state.excluded)
            ever_excluded |= set(rejected.tolist())
            assert not (ever_excluded & set(state.featured.tolist()))
            for v in seed.tolist():
                assert store.is_known(v)
            if added.size == 0 and rejected.size == 0:
                break
        return store, state

    def test_invariants_on_random_runs(self, rng):
        for trial in range(20):
            n = int(rng.integers(20, 80))
            g, _ = random_graph(rng, n, 5 * n)
            truth = store_from(rng.normal(size=(n, 2)))
            seed = np.sort(rng.choice(n, size=6, replace=False))
            d = Direction.UP if trial % 2 else Direction.DOWN
            eps = [0.2, 0.6, 1.5][trial % 3]
            self.drive(g, truth, seed, d, eps)

    def test_pivots_never_persisted(self, rng):
        n = 40
        g, _ = random_graph(rng, n, 200)
        truth = store_from(rng.normal(size=(n, 2)))
        seed = np.arange(6)
        store = truth.subset(seed)
        state = init_state(store, seed, Direction.UP, 0.5)
        pivots, _ = compute_pivots(state, g, store)
        added, _, _ = step_method_b(state, g, store)
        stored = set(store.nodes().tolist())
        assert stored == set(seed.tolist()) | set(added.tolist())
        for pv in set(pivots.nodes.tolist()) - set(seed.tolist()) - set(added.tolist()):
            assert pv not in store

    def test_pivot_set_monotone_in_epsilon(self, rng):
        for _ in range(10):
            n = int(rng.integers(15, 60))
            g, _ = random_graph(rng, n, 4 * n)
            truth = store_from(rng.normal(size=(n, 2)))
            seed = np.sort(rng.choice(n, size=5, replace=False))
            previous = set()
            for eps in np.linspace(0.0, 2.5, 6):
                store = truth.subset(seed)
                state = init_state(store, seed, Direction.UP, eps)
                pivots, _ = compute_pivots(state, g, store)
                current = set(pivots.nodes.tolist())
                assert previous <= current
                previous = current

    def test_estimates_inside_seed_convex_hull(self, rng):
        # bipartite seed->pivot graph plus candidates behind the pivots
        seed_n, pivot_n, cand_n = 8, 5, 6
        pivots = np.arange(seed_n, seed_n + pivot_n)
        cands = np.arange(seed_n + pivot_n, seed_n + pivot_n + cand_n)
        edges = []
        for s in range(seed_n):
            for pv in rng.choice(pivots, size=2, replace=False):
                edges.append((s, int(pv)))
        for cv in cands:
            for pv in rng.choice(pivots, size=2, replace=False):
                edges.append((int(cv), int(pv)))
        g = DirectedGraph.from_edges(edges, node_count=seed_n + pivot_n + cand_n)
        feats = rng.normal(size=(seed_n, 2))
        truth = store_from(feats)
        store = truth.subset(np.arange(seed_n))
        state = init_state(store, np.arange(seed_n), Direction.UP, 10.0)
        added, _, _ = step_method_b(state, g, store)
        hull = Delaunay(feats)
        for v in added.tolist():
            assert hull.find_simplex(store.get(v)) >= 0
