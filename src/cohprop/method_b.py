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
is one rule, :func:`_accept_b`, over that gate and a grid of thresholds: a
step applies it at its one threshold, and a first-step protocol at its
whole grid. The rule builds one candidate x pivot incidence, at the
grid's largest threshold, and walks back through the gate's own
back-incidence; a smaller threshold cuts that incidence to its own pivots
and candidates. The walk back is :func:`_co_neighbor_sets`, which
:func:`co_neighbors` runs too.

Each of the step's two incidences, the gate's back-connections and the
walk back's candidate x pivot C, comes from one
:func:`cohprop.graph.linked` call: one gather, from the side with fewer
entries. The gate pushes from the featured set's lists or pulls every
node's back-list; C pushes from the pivots' back-lists or pulls the lists
of every node that is not blocked.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy import sparse

from .features import FeatureStore, _group_stats, _validate_epsilon, validate_norm_order
from .graph import (DirectedGraph, Direction, _nonempty_rows, _restrict, _take_rows,
                    as_node_array, incidence, linked)
from .graph import grouped_restricted_neighbors  # noqa: F401  (perfbench/spans.py wraps it here)
from .method_a import (PropagationResult, PropagationState, _blacklist, _Gate, _open_gate,
                       _Outcome, _run, _step)

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


def _split_pivots(gate: _Gate, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Method B's pivot rule at ``epsilon``: ``(rows, newly_excluded)``.

    Gated candidates within the threshold that are not blacklisted become
    pivots; ``rows`` are their gate rows, in node order. The fresh
    candidates beyond the threshold are blacklisted.
    """
    ok = gate.inc <= epsilon
    return np.flatnonzero(ok & ~gate.excluded[gate.cand]), _blacklist(gate, ok)


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
    rows, rejected = _split_pivots(gate, state.epsilon)
    return PivotSet(gate.cand[rows], gate.centers[rows], state.step), rejected


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
    M = _csr(*incidence(g, pnodes, members, direction.opposite), members.size)
    indices, _ = _co_neighbor_sets(C, M)
    return members[indices]


def _csr(indices: np.ndarray, indptr: np.ndarray, n_cols: int) -> sparse.csr_array:
    """The 0/1 SciPy CSR array with the pattern of the CSR arrays ``(indices, indptr)``."""
    return sparse.csr_array((np.ones(indices.size, dtype=bool), indices, indptr),
                            shape=(indptr.size - 1, n_cols))


def _co_neighbor_sets(C, M: sparse.csr_array):
    """The 0/1 pattern of ``C @ M`` as CSR arrays ``(indices, indptr)``, each row sorted.

    C is CSR arrays ``(indices, indptr)`` over M's rows, and M a 0/1 SciPy
    CSR array (see :func:`_csr`), which a caller builds once for all the C
    it multiplies. Row k is the union of the M rows that C's row k marks:
    with C over pivots and M their back-incidence, a co-neighbor set.
    """
    pattern = _csr(*C, M.shape[0]) @ M
    pattern.sort_indices()
    return pattern.indices, pattern.indptr


def _accept_b(gate: _Gate, grid: Sequence[float], scored: Optional[np.ndarray] = None,
              candidate_test: str = "pivot-features") -> Iterator[_Outcome]:
    """Method B's rule over an open gate: one outcome per threshold of ``grid``, in its order.

    A generator, so a caller holds one outcome at a time. Before the first
    one it checks ``candidate_test``, then every threshold, and builds C.
    At a threshold, the pivots and the blacklist come from
    :func:`_split_pivots`; the fresh candidates behind the pivots that
    pass the candidate test are added, estimated as the centroid of their
    co-neighbors. With a node mask ``scored`` only the additions in it are
    estimated; the co-neighbors test still measures every candidate's
    co-neighbor set.

    At one gate the pivots grow with the threshold, the blacklist shrinks,
    and so the fresh candidates behind the pivots grow. So the rule builds
    the candidate x pivot incidence C once, at the grid's largest
    threshold, with the gate's candidates as columns. A smaller threshold
    cuts C to the entries of its pivots and to the rows that still reach
    one and are not blacklisted; a threshold with the largest one's pivots
    uses C as it is. Row k of the 0/1 pattern of C @ M is the co-neighbor
    set of candidate k, measured from its first member in node order. Every
    fresh candidate has a pivot (it was reached through one), and every
    pivot has a featured back-connection (it passed the gate on one), so
    every group measured is nonempty.

    C's rows are the nonempty rows of the incidence, against the top
    pivots, of every node that is neither featured, excluded nor
    blacklisted at this step: one :func:`cohprop.graph.linked` call, which
    gathers the pivots' back-lists (push) or those nodes' lists (pull),
    whichever side has fewer entries.
    """
    if candidate_test not in CANDIDATE_TESTS:
        raise ValueError(f"candidate_test must be one of {CANDIDATE_TESTS}")
    grid = [_validate_epsilon(eps) for eps in grid]
    if not grid:
        return
    top = max(grid)
    g, d, cand, inc = gate.g, gate.state.direction, gate.cand, gate.inc
    M = _csr(*gate.M, len(gate.table))  # one SciPy operand for every threshold
    rows, rejected = _split_pivots(gate, top)
    free = ~(gate.featured | gate.excluded)
    free[rejected] = False  # same-step pivot failures cannot be featured
    fresh, (indices, indptr) = linked(g, free, cand[rows], d)
    indices = rows[indices]  # columns: gate rows of the pivots
    if min(grid) < top:  # only a threshold with fewer pivots than the top one cuts C
        # the threshold from which each entry takes part: its pivot must be one,
        # and a row that is a fresh gate candidate must not be blacklisted
        own = np.full(g.node_count, -np.inf)
        own[cand] = inc
        entry_at = np.maximum(inc[indices], np.repeat(own[fresh], np.diff(indptr)))
        del own  # n floats that no threshold needs again

    pivot_inc = inc[rows]
    for epsilon in grid:
        pivots = int(np.count_nonzero(pivot_inc <= epsilon))
        if pivots == rows.size:
            added, idx, ptr = fresh, indices, indptr
        else:  # a row takes part while it keeps an entry
            added, (idx, ptr) = _nonempty_rows(fresh, *_restrict(indices, indptr,
                                                                 entry_at <= epsilon))
        if candidate_test == "pivot-features":
            tested, _ = _group_stats(gate.centers, idx, ptr, gate.p)
            ok = tested <= epsilon
            pick = ok if scored is None else ok & scored[added]
            sets = _co_neighbor_sets(_take_rows(idx, ptr, np.flatnonzero(pick)), M)
            _, estimates = _group_stats(gate.table, *sets)
        else:
            sets = _co_neighbor_sets((idx, ptr), M)
            tested, estimates = _group_stats(gate.table, *sets, gate.p)
            ok = tested <= epsilon
            pick = ok if scored is None else ok & scored[added]
            estimates = estimates[pick]
        yield _Outcome(added[ok], _blacklist(gate, inc <= epsilon), pivots,
                       added[pick], estimates)


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

    The step is :func:`_accept_b` at the state's one threshold. Each
    estimate is the centroid that the coherence gate computes, centred on a
    member, so identical co-neighbors give back their common vector
    exactly.
    """
    return _step(_accept_b, state, g, store, p, candidate_test=candidate_test)


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
