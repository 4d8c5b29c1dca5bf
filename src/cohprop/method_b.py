"""Propagation method B: projections through coherent pivot neighborhoods.

The structural-similarity route. Each step promotes the coherent neighbors
of the featured set to *pivots* (bridge nodes that are never themselves
featured), blacklists the incoherent ones, and then walks back through the
pivots: a candidate on the far side is accepted when the pivots it reaches
agree with each other, and its estimate is the mean feature of its
co-neighbors, the featured nodes reachable through shared pivots.

Pivots carry provisional features for the duration of a step: the mean of
their back-connections into the featured set, i.e. the method-A estimator
applied without persisting anything. The candidate coherence test runs on
those provisional features by default; ``candidate_test="co-neighbors"``
switches it to the incoherence of the candidate's co-neighbor set instead.

The pivot gate is the coherence gate of :mod:`cohprop.features`, the one
that method A and ``coherent_neighborhood`` use too. The rest of the step
is products of :func:`cohprop.graph.incidence` matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureStore, _gate, _group_stats, validate_norm_order
from .graph import DirectedGraph, Direction, as_node_array, incidence, node_mask
from .graph import grouped_restricted_neighbors  # noqa: F401  (perfbench/spans.py wraps it here)
from .method_a import PropagationResult, PropagationState, _advance, _run

__all__ = [
    "PivotSet",
    "compute_pivots",
    "co_neighbors",
    "step_method_b",
    "run_method_b",
]

CANDIDATE_TESTS = ("pivot-features", "co-neighbors")


@dataclass(frozen=True)
class PivotSet:
    """Pivot nodes of one step with their provisional features.

    ``features[k]`` belongs to ``nodes[k]``. Provisional features live only
    inside the step; pivots never receive persistent store entries.
    """

    nodes: np.ndarray
    features: np.ndarray
    step: int

    def __len__(self) -> int:
        return int(self.nodes.size)


def compute_pivots(
    state: PropagationState,
    g: DirectedGraph,
    store: FeatureStore,
    p=2.0,
) -> tuple[PivotSet, np.ndarray]:
    """Coherent pivot candidates of the current step.

    Returns ``(pivots, newly_excluded)``: the neighbors of the featured set
    that pass the coherence gate and are not blacklisted, each with its
    provisional feature (the gate's centroid), plus the fresh incoherent
    neighbors to merge into the excluded set. An empty pivot set is a
    normal outcome.
    """
    p = validate_norm_order(p)
    cand, inc, centers = _gate(g, store, state.featured, state.direction, p)
    ok = inc <= state.epsilon
    not_excluded = ~node_mask(state.excluded, g.node_count)[cand]
    keep = ok & not_excluded
    rejected = cand[~ok & not_excluded & ~node_mask(state.featured, g.node_count)[cand]]
    return PivotSet(cand[keep], centers[keep], state.step), rejected


def co_neighbors(g: DirectedGraph, v: int, pivots, members, direction: Direction) -> np.ndarray:
    """Featured nodes reachable from ``v`` through shared pivots.

    The members of ``members`` lying in the opposite-direction neighborhood
    of the pivots that ``v`` connects to (in ``direction``). ``pivots`` may
    be a :class:`PivotSet` or any node iterable. Self-inclusion is possible
    when ``v`` itself belongs to ``members``.
    """
    pnodes = pivots.nodes if isinstance(pivots, PivotSet) else as_node_array(pivots, g.node_count)
    members = as_node_array(members, g.node_count)
    C = incidence(g, np.array([v], dtype=np.int64), pnodes, direction)
    pattern = C @ incidence(g, pnodes, members, direction.opposite)
    return members[np.sort(pattern.indices)]


def step_method_b(
    state: PropagationState,
    g: DirectedGraph,
    store: FeatureStore,
    p=2.0,
    candidate_test: str = "pivot-features",
):
    """One projection step; returns (added, excluded, new_state).

    The excluded delta comes from the pivot gate only: candidates that fail
    the candidate coherence test are simply skipped and may qualify at a
    later step.

    The step is sparse linear algebra over two incidences: C, fresh
    candidate x pivot, and B, pivot x featured node. Row k of the 0/1
    pattern of C @ B is the co-neighbor set of candidate k. Its estimate is
    the centroid that the coherence gate computes, centred on a member, so
    identical co-neighbors give back their common vector exactly. Every
    fresh candidate has a pivot (it was reached through one), and every
    pivot has a featured back-connection (it passed the gate on one), so
    every co-neighbor set is nonempty.
    """
    p = validate_norm_order(p)
    if candidate_test not in CANDIDATE_TESTS:
        raise ValueError(f"candidate_test must be one of {CANDIDATE_TESTS}")
    pivots, rejected = compute_pivots(state, g, store, p=p)
    n = g.node_count
    V = state.featured
    featured_mask = node_mask(V, n)
    blocked_mask = node_mask(state.excluded, n)
    blocked_mask[rejected] = True  # same-step pivot failures cannot be featured
    d = state.direction

    reach = g.neighborhood(pivots.nodes, d.opposite)
    added = reach[~featured_mask[reach] & ~blocked_mask[reach]]

    C = incidence(g, added, pivots.nodes, d)
    if candidate_test == "pivot-features":
        inc, _ = _group_stats(pivots.features, C.indices, C.indptr, p)
        ok = inc <= state.epsilon
        added, C = added[ok], C[ok]
    pattern = C @ incidence(g, pivots.nodes, V, d.opposite)
    pattern.sort_indices()  # each set measured from its first member, in node order
    co_test = candidate_test == "co-neighbors"
    inc, estimates = _group_stats(store.features_of(V), pattern.indices, pattern.indptr,
                                  p if co_test else None)
    if co_test:
        ok = inc <= state.epsilon
        added, estimates = added[ok], estimates[ok]

    store.set_estimated_many(added, estimates, state.step)
    return added, rejected, _advance(state, added, rejected, pivots=len(pivots))


def run_method_b(
    g: DirectedGraph,
    store: FeatureStore,
    seed,
    direction: Direction,
    epsilon,
    max_steps: int,
    p=2.0,
    candidate_test: str = "pivot-features",
) -> PropagationResult:
    """Iterate method B until a fixed point or the step budget runs out."""
    # step_method_b is looked up at each call, so a wrapper installed on the module applies
    return _run(lambda state: step_method_b(state, g, store, p=p, candidate_test=candidate_test),
                store, seed, direction, epsilon, max_steps)
