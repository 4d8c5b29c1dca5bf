"""Whole propagation steps against the set-enumeration oracles.

Random small graphs with isolated nodes, seeds of any size, feature
dimensions 1, 2 and 16, both directions, several norm orders and
thresholds including 0. Quantised features make identical members (and so
incoherence exactly 0) common; with a quantum of 0.1 sums over counts are
inexact too, so estimates must match the oracle's first-member form. Each
case runs up to three steps so that blacklisted and freshly estimated
nodes feed the later steps. One fixed case checks that identical
co-neighbors give back their common vector, which keeps their pivot
coherent at threshold 0 in the next step; so do random instances where
every node has the same vector.

Method A's frontier steps also run to the fixed point against the full-gate
step they replace, alone, alternating with method-B steps, and from states
whose frontier was dropped; every step's deltas, the store's bytes and the
history must be equal.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohprop.features import FeatureStore
from cohprop.graph import DirectedGraph, Direction
from cohprop.method_a import init_state, step_method_a
from cohprop.method_b import step_method_b
from oracles import SetGraph, naive_step_method_a, naive_step_method_b, reference_step_method_a

STEPS = 3

instances = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(2, 30),
    "density": st.sampled_from([0.0, 0.5, 1.5, 3.0]),
    "dim": st.sampled_from([1, 2, 16]),
    "quantum": st.sampled_from([None, 0.5, 0.1]),
    "p": st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    "epsilon": st.sampled_from([0.0, 0.37, 0.91, 2.3]),
    "direction": st.sampled_from(list(Direction)),
})


def build(inst):
    """Graph (two trailing isolated nodes), its set form, features and a seed."""
    rng = np.random.default_rng(inst["seed"])
    n = inst["n"]
    pairs = rng.integers(0, n, size=(int(inst["density"] * n), 2))
    edges = sorted({(int(u), int(v)) for u, v in pairs if u != v})
    g = DirectedGraph.from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2), node_count=n + 2)
    if inst["quantum"]:
        feats = inst["quantum"] * rng.integers(0, 3, size=(n + 2, inst["dim"]))
    else:
        feats = rng.normal(size=(n + 2, inst["dim"]))
    seed = np.sort(rng.choice(n + 2, size=int(rng.integers(1, n + 3)), replace=False))
    return g, SetGraph(edges, n + 2), feats, seed


def check_steps(inst, step, naive, **options):
    g, sg, feats, seed = build(inst)
    check_built_steps(g, sg, feats, seed, inst["direction"], inst["epsilon"], inst["p"],
                      step, naive, **options)


def check_built_steps(g, sg, feats, seed, d, eps, p, step, naive, **options):
    store = FeatureStore(feats.shape[1])
    store.set_known_many(seed, feats[seed])
    known = {v: feats[v].tolist() for v in seed.tolist()}
    featured, excluded = set(known), set()
    state = init_state(store, seed, d, eps)
    for _ in range(STEPS):
        want_added, want_rejected, want_est = naive(
            sg, known, featured, excluded, d, eps, p, **options
        )
        added, rejected, state = step(state, g, store, p=p, **options)
        assert set(added.tolist()) == want_added
        assert set(rejected.tolist()) == want_rejected
        for v, est in want_est.items():
            np.testing.assert_allclose(store.get(v), est, rtol=0, atol=1e-12)
        known.update(want_est)
        featured |= want_added
        excluded |= want_rejected
        if not (want_added or want_rejected):
            break


@given(instances)
def test_method_a_step_matches_oracle(inst):
    check_steps(inst, step_method_a, naive_step_method_a)


@given(instances, st.sampled_from(["pivot-features", "co-neighbors"]))
def test_method_b_step_matches_oracle(inst, candidate_test):
    check_steps(inst, step_method_b, naive_step_method_b, candidate_test=candidate_test)


@given(instances, st.sampled_from([0.1, 0.3, 0.7]))
def test_constant_features_are_estimated_exactly(inst, c):
    # every set of identical vectors is coherent at any threshold, 0 included,
    # and its centroid is the vector itself, bit for bit
    g, _, feats, seed = build(inst)
    for step, options in [(step_method_a, {}),
                          (step_method_b, {"candidate_test": "pivot-features"}),
                          (step_method_b, {"candidate_test": "co-neighbors"})]:
        store = FeatureStore(feats.shape[1])
        store.set_known_many(seed, np.full((seed.size, feats.shape[1]), c))
        state = init_state(store, seed, inst["direction"], inst["epsilon"])
        for _ in range(STEPS):
            added, rejected, state = step(state, g, store, p=inst["p"], **options)
            assert rejected.size == 0
            assert (store.features_of(added) == c).all()


@pytest.mark.parametrize("candidate_test", ["pivot-features", "co-neighbors"])
def test_method_b_identical_estimate_at_zero_threshold(candidate_test):
    # seeds 0-2 at 0.1 and node 4 all follow 3; step 1 sees 4's estimate
    # next to the seeds, and must still pass pivot 3 at threshold 0
    edges = [(0, 3), (1, 3), (2, 3), (4, 3)]
    g = DirectedGraph.from_edges(edges, node_count=5)
    feats = np.full((5, 1), 0.1)
    check_built_steps(g, SetGraph(edges, 5), feats, np.arange(3), Direction.UP, 0.0, 2.0,
                      step_method_b, naive_step_method_b, candidate_test=candidate_test)


def store_bytes(store):
    nodes = store.nodes()
    return nodes.tobytes(), store.features_of(nodes).tobytes(), store.steps_of(nodes).tobytes()


def check_against_full_gate(inst, schedule, candidate_test="pivot-features", drop_at=None):
    """Run ``schedule`` ("a"/"b" steps, cycled) to the fixed point with frontier and full-gate A.

    At step ``drop_at`` the frontier side's state loses its frontier first.
    """
    g, _, feats, seed = build(inst)
    sides = []
    for step_a in (step_method_a, reference_step_method_a):
        store = FeatureStore(feats.shape[1])
        store.set_known_many(seed, feats[seed])
        sides.append((step_a, store, init_state(store, seed, inst["direction"], inst["epsilon"])))
    quiet = 0
    # every step that changes something settles a node, so the run ends within
    # node_count changing cycles of the schedule
    for k in range((g.node_count + 2) * len(schedule)):
        method = schedule[k % len(schedule)]
        deltas = []
        for i, (step_a, store, state) in enumerate(sides):
            if k == drop_at and step_a is step_method_a:
                state = replace(state, frontier=None)
            if method == "a":
                added, rejected, state = step_a(state, g, store, p=inst["p"])
            else:
                added, rejected, state = step_method_b(state, g, store, p=inst["p"],
                                                       candidate_test=candidate_test)
            state.check_invariants()
            sides[i] = (step_a, store, state)
            deltas.append((added, rejected, state))
        (added, rejected, state), (want_added, want_rejected, want) = deltas
        assert added.tobytes() == want_added.tobytes()
        assert rejected.tobytes() == want_rejected.tobytes()
        assert store_bytes(sides[0][1]) == store_bytes(sides[1][1])
        assert state.history == want.history
        assert state.featured.tobytes() == want.featured.tobytes()
        assert state.excluded.tobytes() == want.excluded.tobytes()
        assert want.frontier is None
        if method == "a":
            assert state.frontier.tobytes() == added.tobytes()
        else:
            assert state.frontier is None
        quiet = 0 if (added.size or rejected.size) else quiet + 1
        if quiet == len(schedule):
            return
    raise AssertionError("no fixed point")


@given(instances)
def test_method_a_frontier_run_matches_full_gate(inst):
    check_against_full_gate(inst, "a")


@given(instances, st.sampled_from(["pivot-features", "co-neighbors"]), st.sampled_from(["ba", "ab"]))
def test_method_a_frontier_after_method_b_matches_full_gate(inst, candidate_test, schedule):
    # a method-B step leaves failed candidates fresh outside its additions'
    # neighborhood, so the method-A step after it must gate the whole featured set
    check_against_full_gate(inst, schedule, candidate_test)


@given(instances, st.integers(1, 4))
def test_method_a_without_frontier_matches_full_gate(inst, drop_at):
    check_against_full_gate(inst, "a", drop_at=drop_at)
