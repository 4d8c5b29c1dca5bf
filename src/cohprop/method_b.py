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
from typing import Optional

import numpy as np
from scipy import sparse

from .features import FeatureStore, _group_stats, validate_norm_order
from .graph import DirectedGraph, Direction, as_node_array, incidence
from .graph import grouped_restricted_neighbors  # noqa: F401  (perfbench/spans.py wraps it here)
from .method_a import (PropagationResult, PropagationState, _advance, _blacklist, _Gate,
                       _open_gate, _Outcome, _run)

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


def _split_pivots(gate: _Gate, epsilon: float) -> tuple[PivotSet, np.ndarray]:
    """Method B's pivot rule at ``epsilon``: ``(pivots, newly_excluded)``.

    Gated candidates within the threshold that are not blacklisted become
    pivots, with their gate centroid as provisional feature; the fresh
    ones beyond it are blacklisted.
    """
    ok = gate.inc <= epsilon
    keep = ok & ~gate.excluded[gate.cand]
    return PivotSet(gate.cand[keep], gate.centers[keep], gate.state.step), _blacklist(gate, ok)


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
    gate = _open_gate(state, g, store.features_of(state.featured), p)
    return _split_pivots(gate, state.epsilon)


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


def _co_neighbor_stats(C: sparse.csr_array, B: sparse.csr_array, table: np.ndarray, p=None):
    """``_group_stats`` of each row's co-neighbor set: its row of the 0/1 pattern of C @ B."""
    pattern = C @ B
    pattern.sort_indices()  # each set measured from its first member, in node order
    return _group_stats(table, pattern.indices, pattern.indptr, p)


def _accept_b(gate: _Gate, epsilon: float, scored: Optional[np.ndarray] = None,
              candidate_test: str = "pivot-features") -> _Outcome:
    """Method B's rule at ``epsilon`` over an open gate.

    Pivots and blacklist come from :func:`_split_pivots`. The fresh
    candidates behind the pivots that pass the candidate test are added,
    estimated as the centroid of their co-neighbors. With a node mask
    ``scored`` only the additions in it are estimated; the co-neighbors
    test still measures every candidate's co-neighbor set.
    """
    if candidate_test not in CANDIDATE_TESTS:
        raise ValueError(f"candidate_test must be one of {CANDIDATE_TESTS}")
    pivots, rejected = _split_pivots(gate, epsilon)
    g, d = gate.g, gate.state.direction
    blocked = gate.featured | gate.excluded
    blocked[rejected] = True  # same-step pivot failures cannot be featured
    reach = g.neighborhood(pivots.nodes, d.opposite)
    added = reach[~blocked[reach]]

    C = incidence(g, added, pivots.nodes, d)
    B = incidence(g, pivots.nodes, gate.state.featured, d.opposite)
    if candidate_test == "pivot-features":
        inc, _ = _group_stats(pivots.features, C.indices, C.indptr, gate.p)
        ok = inc <= epsilon
        added, C = added[ok], C[ok]
        if scored is not None:
            C = C[scored[added]]
        _, estimates = _co_neighbor_stats(C, B, gate.table)
    else:
        inc, estimates = _co_neighbor_stats(C, B, gate.table, gate.p)
        ok = inc <= epsilon
        added, estimates = added[ok], estimates[ok]
        if scored is not None:
            estimates = estimates[scored[added]]
    estimated = added if scored is None else added[scored[added]]
    return _Outcome(added, rejected, len(pivots), estimated, estimates)


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
    every co-neighbor set is nonempty. The featured set's features are
    gathered once, for the gate and the estimates.
    """
    p = validate_norm_order(p)
    gate = _open_gate(state, g, store.features_of(state.featured), p)
    added, rejected, pivots, _, estimates = _accept_b(gate, state.epsilon,
                                                      candidate_test=candidate_test)
    store.set_estimated_many(added, estimates, state.step)
    return added, rejected, _advance(state, added, rejected, pivots=pivots)


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
