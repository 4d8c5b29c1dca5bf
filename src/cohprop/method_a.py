"""Propagation method A: directed sequences of coherent neighborhoods.

The homophily route. Starting from a featured seed set, each step looks at
the neighborhood of the featured set in the chosen direction, accepts the
neighbors whose back-connections into the featured set are coherent, and
estimates each accepted node as the plain mean of the features of its
back-connections. Incoherent neighbors are blacklisted permanently so a
node can never become coherent later through freshly propagated features.

So every fresh neighbor of a step is either added or blacklisted in it,
and the fresh neighbors of the next step all lie in the neighborhood of
this step's additions. A method-A step therefore gates only the fresh
neighbors of the last step's additions (the *frontier*), each against the
whole featured set; a state with no frontier (the first step, a hand-built
state, or one after a method-B step) gates the fresh neighbors of the
whole featured set. Either way the step's result is the full gate's.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .features import KNOWN, FeatureStore, _gate, validate_norm_order, _validate_epsilon
from .graph import DirectedGraph, Direction, _check_ids, as_node_array, node_mask
from .graph import grouped_restricted_neighbors  # noqa: F401  (perfbench/spans.py wraps it here)

__all__ = [
    "StepRecord",
    "PropagationState",
    "PropagationResult",
    "init_state",
    "step_method_a",
    "run_method_a",
]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class StepRecord:
    """Sizes logged for one propagation step."""

    step: int
    added: int
    excluded: int
    pivots: Optional[int] = None


@dataclass(frozen=True)
class PropagationState:
    """Featured and excluded node sets of a propagation run.

    Both sets only ever grow, by additions disjoint from everything seen
    before; they never intersect.

    ``frontier`` holds the additions of the method-A step that made this
    state, sorted and a subset of ``featured``; the next method-A step
    gates only their fresh neighbors. It is None after ``init_state``, in a
    hand-built state and after a method-B step, which leaves failed
    candidates fresh; a method-A step from such a state gates the fresh
    neighbors of the whole featured set.
    """

    featured: np.ndarray
    excluded: np.ndarray
    step: int
    direction: Direction
    epsilon: float
    history: tuple[StepRecord, ...] = ()
    frontier: Optional[np.ndarray] = None

    def check_invariants(self) -> None:
        f, x = self.featured, self.excluded
        if not (f.size and np.all(np.diff(f) > 0)):
            raise AssertionError("featured set must be sorted unique and nonempty")
        if not (x.size == 0 or np.all(np.diff(x) > 0)):
            raise AssertionError("excluded set must be sorted unique")
        if x.size and node_mask(f, int(max(f[-1], x[-1])) + 1)[x].any():
            raise AssertionError("featured and excluded sets must be disjoint")
        a = self.frontier
        if a is not None and not (a.size == 0 or np.all(np.diff(a) > 0)):
            raise AssertionError("frontier must be sorted unique")
        if a is not None and not np.isin(a, f, assume_unique=True).all():
            raise AssertionError("frontier must be a subset of the featured set")


@dataclass(frozen=True)
class PropagationResult:
    """Final state of a run plus the store augmented with estimates."""

    state: PropagationState
    store: FeatureStore

    @property
    def history(self) -> tuple[StepRecord, ...]:
        return self.state.history


def init_state(store: FeatureStore, seed, direction: Direction, epsilon) -> PropagationState:
    """Start a run from a seed whose features are known in ``store``."""
    seed = as_node_array(seed)
    if seed.size == 0:
        raise ValueError("seed set is empty; propagation is undefined")
    if not isinstance(direction, Direction):
        raise TypeError("direction must be a Direction")
    epsilon = _validate_epsilon(epsilon)
    try:
        estimated = seed[store.steps_of(seed) != KNOWN]
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]} in the seed") from None
    if estimated.size:
        raise ValueError(f"seed node {estimated[0]} carries an estimated feature, not a known one")
    return PropagationState(
        featured=seed,
        excluded=_EMPTY,
        step=0,
        direction=direction,
        epsilon=epsilon,
    )


def _advance(
    state: PropagationState,
    added: np.ndarray,
    excluded: np.ndarray,
    pivots: Optional[int] = None,
    frontier: Optional[np.ndarray] = None,
) -> PropagationState:
    record = StepRecord(state.step, int(added.size), int(excluded.size), pivots)
    return replace(
        state,
        featured=as_node_array(np.concatenate((state.featured, added))),
        excluded=as_node_array(np.concatenate((state.excluded, excluded))),
        step=state.step + 1,
        history=state.history + (record,),
        frontier=frontier,
    )


@dataclass(frozen=True)
class _Gate:
    """The threshold-free half of a step from ``state``: its coherence gate.

    ``table`` holds the features of ``state.featured`` in its order, and
    ``cand``, ``inc``, ``centers`` and ``M`` are what ``features._gate``
    returns for it on ``g`` at norm order ``p``: M is CSR arrays whose row k
    holds the positions in ``state.featured`` of cand[k]'s back-connections,
    built with cand by one gather on the side with fewer entries.
    Method B walks back from its pivots through their rows of M.
    ``featured`` and ``excluded`` are node masks of the state's sets;
    ``fresh[k]`` is true when cand[k] is in neither, which holds for every
    row of a frontier gate. A first-step protocol opens one gate per seed
    and applies its whole threshold grid to it.
    """

    g: DirectedGraph
    p: float
    state: PropagationState
    table: np.ndarray
    cand: np.ndarray
    inc: np.ndarray
    centers: np.ndarray
    M: tuple[np.ndarray, np.ndarray]
    featured: np.ndarray
    excluded: np.ndarray
    fresh: np.ndarray


def _open_gate(state: PropagationState, g: DirectedGraph, table: np.ndarray, p: float,
               frontier: bool = False) -> _Gate:
    """Gate the neighbours of ``state.featured``, whose features ``table`` holds.

    With ``frontier`` only the fresh neighbours of ``state.frontier`` are
    gated, or of the whole featured set when the state has none (see
    :class:`PropagationState`), each still against the whole featured set.
    The gate's candidate mask is then the fresh nodes, cut to the mask of
    ``N(state.frontier)`` when there is a frontier; ``features._gate``
    reads the candidates and their rows from one gather on whichever side
    has fewer entries. So a first step gathers once, and a frontier step,
    whose candidates are few, usually reads their own back-lists (pull). A
    node id outside the graph raises ``UnknownNodeError`` before a node
    mask is built.
    """
    V, d, n = state.featured, state.direction, g.node_count
    _check_ids(V, n)  # the ends of the sorted set bound it
    featured = node_mask(V, n)
    excluded = node_mask(state.excluded, n)
    keep = None
    if frontier:
        keep = ~(featured | excluded)
        if state.frontier is not None:
            keep &= node_mask(g.neighborhood(state.frontier, d), n)
    cand, inc, centers, M = _gate(g, table, V, d, p, keep)
    return _Gate(g, p, state, table, cand, inc, centers, M, featured, excluded,
                 ~(featured[cand] | excluded[cand]))


def _blacklist(gate: _Gate, ok: np.ndarray) -> np.ndarray:
    """Fresh candidates that fail the gate (``ok`` false): both methods blacklist them."""
    return gate.cand[gate.fresh & ~ok]


class _Outcome(NamedTuple):
    """A step's result at one threshold, before anything is committed.

    ``estimated`` are the additions a caller asked estimates for, and row k
    of ``estimates`` belongs to estimated[k]. ``pivots`` is a pivot count
    (method B) or None (method A).
    """

    added: np.ndarray
    rejected: np.ndarray
    pivots: Optional[int]
    estimated: np.ndarray
    estimates: np.ndarray


def _accept_a(gate: _Gate, grid: Sequence[float],
              scored: Optional[np.ndarray] = None) -> Iterator[_Outcome]:
    """Method A's rule over an open gate: one outcome per threshold of ``grid``, in its order.

    A generator, so a caller holds one outcome at a time; every threshold
    is checked before the first one. At a threshold, fresh
    candidates within it are added, estimated as their gate centroid; the
    others are blacklisted. With a node mask ``scored`` only the additions
    in it are estimated.
    """
    for epsilon in [_validate_epsilon(eps) for eps in grid]:
        ok = gate.inc <= epsilon
        accept = gate.fresh & ok
        rows = accept if scored is None else accept & scored[gate.cand]
        yield _Outcome(gate.cand[accept], _blacklist(gate, ok), None,
                       gate.cand[rows], gate.centers[rows])


def step_method_a(
    state: PropagationState,
    g: DirectedGraph,
    store: FeatureStore,
    p=2.0,
):
    """One propagation step; returns (added, excluded, new_state).

    Candidates are the fresh neighbors (not yet featured or excluded) of
    the featured set. One is accepted when the incoherence of its
    back-connections into the featured set is within the threshold, and its
    estimate is the mean of those back-connections' stored features; all
    other candidates are blacklisted. Estimates are committed to the
    store tagged with the current step, and a fixed point shows up as two
    empty deltas.

    Only the fresh neighbors of ``state.frontier``, the last method-A
    step's additions, are gated, since every other neighbor was settled
    before; with no frontier, those of the whole featured set are. The new
    state's frontier is this step's additions.
    """
    return _step(_accept_a, state, g, store, p, frontier=True)


def _step(rule, state: PropagationState, g: DirectedGraph, store: FeatureStore, p,
          frontier: bool = False, **options):
    """One step of the method whose threshold rule is ``rule``: (added, excluded, new_state).

    The featured set's features are gathered once, for the gate and the
    estimates. With ``frontier`` the gate holds only the fresh neighbors of
    ``state.frontier`` (of the whole featured set when it is None), and the
    new state's frontier is the step's additions; without it, every
    neighbor of the featured set is gated and the new state has no frontier.
    """
    p = validate_norm_order(p)
    gate = _open_gate(state, g, store.features_of(state.featured), p, frontier)
    added, rejected, pivots, _, estimates = next(rule(gate, [state.epsilon], **options))
    store.set_estimated_many(added, estimates, state.step)
    return added, rejected, _advance(state, added, rejected, pivots,
                                     added.copy() if frontier else None)


def _run(step, store: FeatureStore, seed, direction: Direction, epsilon,
         max_steps: int) -> PropagationResult:
    """Call ``step(state)`` until a step adds and excludes nothing or the budget runs out."""
    if int(max_steps) < 1:
        raise ValueError("max_steps must be >= 1")
    state = init_state(store, seed, direction, epsilon)
    for _ in range(int(max_steps)):
        added, rejected, state = step(state)
        if added.size == 0 and rejected.size == 0:
            break
    return PropagationResult(state=state, store=store)


def run_method_a(
    g: DirectedGraph,
    store: FeatureStore,
    seed,
    direction: Direction,
    epsilon,
    max_steps: int,
    p=2.0,
) -> PropagationResult:
    """Iterate method A until a fixed point or the step budget runs out."""
    return _run(lambda state: step_method_a(state, g, store, p=p),
                store, seed, direction, epsilon, max_steps)
