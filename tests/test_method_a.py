import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cohprop
from cohprop.evaluation import kfold_eval_method_b, sweep_method_a
from cohprop.features import FeatureStore
from cohprop.graph import DirectedGraph, Direction, UnknownNodeError, as_node_array
from cohprop.method_a import init_state, run_method_a, step_method_a
from cohprop.method_b import compute_pivots, step_method_b
from conftest import store_from
from oracles import naive_centroid, naive_neighbors, random_graph


def fan_in_graph():
    # 0 and 1 both follow 2
    return DirectedGraph.from_edges([(0, 2), (1, 2)], node_count=3)


class TestInitState:
    def test_seed_sizes(self):
        store = store_from([[0.0], [0.2]])
        state = init_state(store, [0, 1], Direction.UP, 0.2)
        assert state.featured.tolist() == [0, 1]
        assert state.excluded.size == 0
        assert state.step == 0

    def test_unfeatured_seed_rejected(self):
        store = store_from([[0.0]])
        with pytest.raises(ValueError):
            init_state(store, [0, 1], Direction.UP, 0.2)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            init_state(store_from([[0.0]]), [], Direction.UP, 0.2)

    def test_estimated_seed_rejected(self):
        store = FeatureStore(1)
        store.set_estimated(0, [0.0], step=0)
        with pytest.raises(ValueError):
            init_state(store, [0], Direction.UP, 0.2)


class TestStep:
    def test_coherent_neighbor_gets_mean(self):
        store = store_from([[0.0], [0.2]])
        state = init_state(store, [0, 1], Direction.UP, 0.2)
        added, rejected, state = step_method_a(state, fan_in_graph(), store)
        assert added.tolist() == [2] and rejected.size == 0
        assert store.get(2) == pytest.approx([0.1], abs=1e-15)
        assert store.provenance(2) == 0

    def test_incoherent_neighbor_blacklisted_for_good(self):
        store = store_from([[0.0], [0.2]])
        g = fan_in_graph()
        state = init_state(store, [0, 1], Direction.UP, 0.05)
        added, rejected, state = step_method_a(state, g, store)
        assert added.size == 0 and rejected.tolist() == [2]
        # the blacklisted node is not reconsidered
        added, rejected, state = step_method_a(state, g, store)
        assert added.size == 0 and rejected.size == 0
        assert 2 not in store

    def test_fixed_point_when_nothing_reachable(self):
        store = store_from([[0.0], [0.2]])
        g = DirectedGraph.from_edges([(0, 2), (1, 2)], node_count=4)
        state = init_state(store, [0, 1], Direction.DOWN, 0.2)
        added, rejected, new_state = step_method_a(state, g, store)
        assert added.size == 0 and rejected.size == 0
        assert new_state.step == state.step + 1
        assert new_state.featured.tolist() == state.featured.tolist()


class TestRun:
    def test_chain_reaches_fixed_point(self):
        g = DirectedGraph.from_edges([(0, 1), (1, 2)], node_count=3)
        store = store_from([[0.0]])
        result = run_method_a(g, store, [0], Direction.UP, 0.1, max_steps=5)
        assert store.get(1) == pytest.approx([0.0])
        assert store.provenance(1) == 0
        assert store.get(2) == pytest.approx([0.0])
        assert store.provenance(2) == 1
        sizes = [(r.step, r.added, r.excluded) for r in result.history]
        assert sizes == [(0, 1, 0), (1, 1, 0), (2, 0, 0)]

    def test_step_budget(self):
        g = DirectedGraph.from_edges([(0, 1), (1, 2)], node_count=3)
        store = store_from([[0.0]])
        run_method_a(g, store, [0], Direction.UP, 0.1, max_steps=1)
        assert 1 in store and 2 not in store

    def test_disconnected_seed(self):
        g = DirectedGraph.from_edges([(1, 2)], node_count=4)
        store = FeatureStore(1)
        store.set_known(3, [1.0])
        result = run_method_a(g, store, [3], Direction.UP, 0.5, max_steps=4)
        assert [(r.added, r.excluded) for r in result.history] == [(0, 0)]

    def test_max_steps_validated(self):
        store = store_from([[0.0]])
        with pytest.raises(ValueError):
            run_method_a(fan_in_graph(), store, [0], Direction.UP, 0.1, max_steps=0)


def drive(g, truth, seed, direction, eps, max_steps=10):
    """Run stepwise, checking state invariants after every step."""
    store = truth.subset(seed)
    state = init_state(store, seed, direction, eps)
    ever_excluded = set()
    known_before = set(seed.tolist())
    trace = []
    for _ in range(max_steps):
        prev = state
        added, rejected, state = step_method_a(state, g, store)
        state.check_invariants()
        # incremental growth by disjoint additions
        assert set(prev.featured) <= set(state.featured)
        assert set(prev.excluded) <= set(state.excluded)
        assert not (set(added.tolist()) & set(prev.featured.tolist()))
        assert not (set(rejected.tolist()) & set(prev.excluded.tolist()))
        # nothing excluded ever gets featured, knowns never change provenance
        ever_excluded |= set(rejected.tolist())
        assert not (ever_excluded & set(state.featured.tolist()))
        for v in known_before:
            assert store.is_known(v)
        trace.append((added, prev))
        if added.size == 0 and rejected.size == 0:
            break
    return store, state, trace


class TestProperties:
    def test_invariants_on_random_runs(self, rng):
        for trial in range(20):
            n = int(rng.integers(20, 80))
            g, _ = random_graph(rng, n, 5 * n)
            truth = store_from(rng.normal(size=(n, 2)))
            seed = np.sort(rng.choice(n, size=6, replace=False))
            d = Direction.UP if trial % 2 else Direction.DOWN
            eps = [0.2, 0.6, 1.5][trial % 3]
            drive(g, truth, seed, d, eps)

    def test_estimates_match_naive_mean(self, rng):
        for trial in range(10):
            n = int(rng.integers(15, 50))
            g, edges = random_graph(rng, n, 4 * n)
            truth = store_from(rng.normal(size=(n, 2)))
            seed = np.sort(rng.choice(n, size=5, replace=False))
            store, _, trace = drive(g, truth, seed, Direction.UP, 0.8, max_steps=4)
            for added, prev in trace:
                featured = set(prev.featured.tolist())
                for v in added.tolist():
                    back = sorted(naive_neighbors(edges, v, Direction.DOWN) & featured)
                    want = naive_centroid([store.get(u).tolist() for u in back])
                    assert store.get(v) == pytest.approx(want, abs=1e-12)

    def test_step_determinism(self, rng):
        n = 40
        g, _ = random_graph(rng, n, 160)
        truth = store_from(rng.normal(size=(n, 2)))
        seed = np.arange(5)
        runs = []
        for _ in range(2):
            store = truth.subset(seed)
            result = run_method_a(g, store, seed, Direction.UP, 0.7, max_steps=6)
            runs.append(
                (
                    result.state.featured.tolist(),
                    result.state.excluded.tolist(),
                    sorted((v, store.get(v).tolist()) for v in store.nodes().tolist()),
                )
            )
        assert runs[0] == runs[1]

    def test_first_neighborhood_fully_settled_after_step_zero(self, rng):
        # after step 0 every reachable neighbor is featured or excluded,
        # so step 1 adds nothing from the seed's own neighborhood
        for _ in range(5):
            n = int(rng.integers(15, 50))
            g, _ = random_graph(rng, n, 4 * n)
            truth = store_from(rng.normal(size=(n, 2)))
            seed = np.sort(rng.choice(n, size=5, replace=False))
            store = truth.subset(seed)
            state = init_state(store, seed, Direction.UP, 0.5)
            reach0 = set(g.neighborhood(seed, Direction.UP).tolist())
            _, _, state = step_method_a(state, g, store)
            settled = set(state.featured.tolist()) | set(state.excluded.tolist())
            assert reach0 <= settled
            added1, _, _ = step_method_a(state, g, store)
            assert not (set(added1.tolist()) & reach0)


def outside_seed():
    """Fan-in graph 0, 1 -> 2 -> 3, and a store whose seeds 0, 1 and 4 are known; 4 is no node."""
    g = DirectedGraph.from_edges([(0, 2), (1, 2), (2, 3)], node_count=4)
    store = FeatureStore(1)
    store.set_known_many([0, 1, 4], [[0.0], [0.2], [0.1]])
    return g, store


def frontier_state(g, store, frontier):
    """The state after one step from seeds 0 and 1, with seed 4 put back in its featured set."""
    _, _, state = step_method_a(init_state(store, [0, 1], Direction.UP, 0.5), g, store)
    assert state.frontier.tolist() == [2]
    return replace(state, featured=as_node_array([0, 1, 2, 4]), frontier=as_node_array(frontier))


class TestFrontier:
    @pytest.mark.parametrize("call", [
        lambda g, s: step_method_a(init_state(s, [0, 1, 4], Direction.UP, 0.5), g, s),
        lambda g, s: run_method_a(g, s, [0, 1, 4], Direction.UP, 0.5, max_steps=3),
        lambda g, s: step_method_a(frontier_state(g, s, [2, 4]), g, s),
        lambda g, s: step_method_a(frontier_state(g, s, [2]), g, s),
        lambda g, s: step_method_b(init_state(s, [0, 1, 4], Direction.UP, 0.5), g, s),
        lambda g, s: compute_pivots(init_state(s, [0, 1, 4], Direction.UP, 0.5), g, s),
        lambda g, s: sweep_method_a(g, s, [0, 1, 4], Direction.UP, [0.1, 0.5]),
        lambda g, s: kfold_eval_method_b(g, s, [0, 1, 4], 2, Direction.UP, [0.5], seed=0),
    ], ids=["step-a", "run-a", "frontier-step-a", "frontier-step-a-featured",
            "step-b", "compute-pivots", "sweep-a", "kfold-b"])
    def test_seed_outside_the_graph_is_an_unknown_node(self, call):
        # the graph's own check, not an IndexError from a node mask built first
        g, store = outside_seed()
        with pytest.raises(UnknownNodeError):
            call(g, store)

    @pytest.mark.parametrize("frontier, message", [
        ([2, 1], "sorted unique"),
        ([1, 1], "sorted unique"),
        ([3], "subset of the featured set"),
    ])
    def test_bad_frontier_fails_invariants(self, frontier, message):
        state = init_state(store_from([[0.0], [0.1], [0.2]]), [0, 1, 2], Direction.UP, 0.1)
        state.check_invariants()
        replace(state, frontier=np.array([], dtype=np.int64)).check_invariants()
        with pytest.raises(AssertionError, match=message):
            replace(state, frontier=np.array(frontier, dtype=np.int64)).check_invariants()

    def test_bad_frontier_fails_invariants_under_optimize(self):
        # the check raises, so python -O cannot strip it
        code = (
            "import numpy as np; from dataclasses import replace;"
            "from cohprop.features import FeatureStore;"
            "from cohprop.graph import Direction; from cohprop.method_a import init_state;"
            "s = FeatureStore(1); s.set_known_many([0, 1], [[0.0], [0.1]]);"
            "state = init_state(s, [0, 1], Direction.UP, 0.1);"
            "replace(state, frontier=np.array([0, 2])).check_invariants()"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cohprop.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 1
        assert "AssertionError: frontier must be a subset of the featured set" in out.stderr
