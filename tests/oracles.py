"""Deliberately naive reference implementations used to cross-check the
package. Everything here favors obviousness over speed: plain Python loops,
sets, and textbook formulas.
"""
import csv
import io
import math
from pathlib import Path
from typing import Iterator

import numpy as np

from cohprop.evaluation import ReportRow, _stat_rows
from cohprop.features import mean_error, validate_norm_order
from cohprop.graph import (
    DirectedGraph,
    Direction,
    EdgeListParseError,
    as_node_array,
    node_mask,
)
from cohprop.method_a import _accept_a, _advance, _open_gate, init_state, step_method_a
from cohprop.method_b import step_method_b


def naive_neighbors(edges, v, direction):
    if direction is Direction.UP:
        return {b for a, b in edges if a == v}
    return {a for a, b in edges if b == v}


def naive_neighborhood(edges, nodes, direction):
    out = set()
    for v in nodes:
        out |= naive_neighbors(edges, v, direction)
    return out


def naive_norm(vec, p):
    return sum(abs(x) ** p for x in vec) ** (1.0 / p)


def naive_error(est, truth, p):
    return naive_norm([a - b for a, b in zip(est, truth)], p)


def naive_centroid(vectors):
    """Component-wise mean, taken as the first member plus the mean offset from it.

    The mean is translation invariant. Measuring from the first member
    makes the centroid of identical vectors equal to them exactly; a plain
    sum over a count can leave a rounding residue (three 0.1 give
    0.10000000000000002).
    """
    first = vectors[0]
    return [f + sum(v[d] - f for v in vectors) / len(vectors) for d, f in enumerate(first)]


def naive_incoherence(vectors, p):
    """Root mean squared p-norm distance to the centroid, measured from the first member.

    Incoherence is translation invariant. Shifting by the first member
    makes a set of identical vectors exactly 0, as the definition says.
    """
    first = vectors[0]
    shifted = [[x - y for x, y in zip(v, first)] for v in vectors]
    c = naive_centroid(shifted)
    total = 0.0
    for v in shifted:
        total += naive_norm([x - y for x, y in zip(v, c)], p) ** 2
    return math.sqrt(total / len(vectors))


def naive_coherent_neighborhood(edges, features, nodes, direction, epsilon, p):
    """Direct transcription of the gated-neighborhood definition."""
    nodes = set(nodes)
    opposite = direction.opposite
    result = set()
    for u in naive_neighborhood(edges, nodes, direction):
        back = naive_neighbors(edges, u, opposite) & nodes
        assert back
        if naive_incoherence([features[v] for v in sorted(back)], p) <= epsilon:
            result.add(u)
    return result


def naive_co_neighbors(edges, v, pivots, members, direction):
    """Brute-force double loop over the candidate's pivots."""
    pivots = set(pivots)
    members = set(members)
    shared = naive_neighbors(edges, v, direction) & pivots
    pooled = set()
    for pv in shared:
        pooled |= naive_neighbors(edges, pv, direction.opposite)
    return pooled & members


def dense_ca_reference(matrix, n_dims):
    """Textbook correspondence analysis on a dense array.

    Returns row principal coordinates, column principal coordinates, and the
    full singular-value spectrum; no sign convention is applied.
    """
    X = np.asarray(matrix, dtype=np.float64)
    total = X.sum()
    P = X / total
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    S = (P - np.outer(r, c)) / np.sqrt(np.outer(r, c))
    U, sigma, Vt = np.linalg.svd(S, full_matrices=False)
    rows = U[:, :n_dims] * sigma[:n_dims] / np.sqrt(r)[:, None]
    cols = Vt[:n_dims].T * sigma[:n_dims] / np.sqrt(c)[:, None]
    return rows, cols, sigma


def random_graph(rng, n_nodes, n_edges):
    """Random simple directed graph plus its edge set, for oracle checks."""
    pairs = set()
    while len(pairs) < n_edges:
        u, v = rng.integers(0, n_nodes, size=2)
        if u != v:
            pairs.add((int(u), int(v)))
    edges = sorted(pairs)
    return DirectedGraph.from_edges(edges, node_count=n_nodes), edges


def _iter_lines(source) -> Iterator[str]:
    """Lines of an edge-list source as text.

    ``\\n``, ``\\r\\n`` and a lone ``\\r`` each end a line, for every kind of
    source, as in a file opened in text mode.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
        return
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    else:  # file-like: may yield bytes or text
        text = "".join(line.decode("utf-8") if isinstance(line, bytes) else line
                       for line in source)
    yield from io.StringIO(text, newline=None)


def reference_load_edge_list(source, sep=",", comment="#"):
    """Edge-list parse one line at a time: strip, skip, split, check, intern."""
    ids = {}
    flat = []
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith(comment):
            continue
        fields = [f.strip() for f in line.split(sep)]
        if len(fields) != 2:
            raise EdgeListParseError(
                f"expected 2 fields separated by {sep!r}, got {len(fields)}", lineno
            )
        if not fields[0] or not fields[1]:
            raise EdgeListParseError("empty node label", lineno)
        flat.append(ids.setdefault(fields[0], len(ids)))
        flat.append(ids.setdefault(fields[1], len(ids)))
    if not flat:
        raise ValueError("edge-list stream contains no records")
    return DirectedGraph.from_edges(np.array(flat, dtype=np.int64).reshape(-1, 2),
                                    node_count=len(ids), labels=list(ids))


def reference_write_edge_list(path, g):
    """Edge list one edge at a time: each node's followees, label by label."""
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(g.node_count):
            for v in g.neighbors(u, Direction.UP).tolist():
                fh.write(f"{g.label_of(u)},{g.label_of(v)}\n")


def reference_write_features_csv(path, store, graph, include_provenance=False):
    """Features CSV one node at a time: label, repr of each value, provenance."""
    header = ["node_label"] + [f"f{i + 1}" for i in range(store.dim)]
    if include_provenance:
        header.append("provenance")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for v in store.nodes().tolist():
            row = [graph.label_of(v)] + [repr(float(x)) for x in store.get(v)]
            if include_provenance:
                row.append(store.provenance_label(v))
            writer.writerow(row)


def reference_write_labeled_features_csv(path, rows, dim):
    """Labeled coordinate rows one at a time, values written with repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_label"] + [f"f{i + 1}" for i in range(dim)])
        for label, vec in rows:
            writer.writerow([label] + [repr(float(x)) for x in vec])


class SetGraph:
    """Adjacency held in plain dict-of-set form; the enumeration baseline."""

    def __init__(self, edges, n_nodes):
        self.out = {v: set() for v in range(n_nodes)}
        self.inc = {v: set() for v in range(n_nodes)}
        for a, b in edges:
            self.out[a].add(b)
            self.inc[b].add(a)

    def neighbors(self, v, direction):
        return self.out[v] if direction is Direction.UP else self.inc[v]

    def neighborhood(self, nodes, direction):
        result = set()
        for v in nodes:
            result |= self.neighbors(v, direction)
        return result


def enum_coherent_neighborhood(sg, features, nodes, direction, epsilon, p):
    nodes = set(nodes)
    result = set()
    for u in sg.neighborhood(nodes, direction):
        back = sg.neighbors(u, direction.opposite) & nodes
        if naive_incoherence([features[v] for v in sorted(back)], p) <= epsilon:
            result.add(u)
    return result


def enum_co_neighbors(sg, v, pivots, members, direction):
    pooled = set()
    for pv in sg.neighbors(v, direction) & set(pivots):
        pooled |= sg.neighbors(pv, direction.opposite)
    return pooled & set(members)


def naive_step_method_a(sg, features, featured, excluded, direction, epsilon, p):
    """One method-A step by set enumeration: (added, rejected, estimates)."""
    featured, excluded = set(featured), set(excluded)
    added, rejected, estimates = set(), set(), {}
    for u in sg.neighborhood(featured, direction) - featured - excluded:
        vecs = [features[v] for v in sorted(sg.neighbors(u, direction.opposite) & featured)]
        if naive_incoherence(vecs, p) <= epsilon:
            added.add(u)
            estimates[u] = naive_centroid(vecs)
        else:
            rejected.add(u)
    return added, rejected, estimates


def reference_step_method_a(state, g, store, p=2.0):
    """Method A's step with the full gate: (added, excluded, new_state), as ``step_method_a``.

    Every neighbor of the featured set is gated, already settled ones too,
    and the new state has no frontier. This is the step before frontier
    steps, kept as their reference: the two must agree bit for bit.
    """
    p = validate_norm_order(p)
    gate = _open_gate(state, g, store.features_of(state.featured), p)
    added, rejected, _, _, estimates = next(_accept_a(gate, [state.epsilon]))
    store.set_estimated_many(added, estimates, state.step)
    return added, rejected, _advance(state, added, rejected)


def naive_step_method_b(sg, features, featured, excluded, direction, epsilon, p,
                        candidate_test="pivot-features"):
    """One method-B step by set enumeration: (added, rejected, estimates).

    Pivots are the gated neighbors of the featured set that are not
    blacklisted, with the mean of their back-connections as provisional
    feature; failed fresh neighbors are blacklisted. A fresh candidate
    behind the pivots is accepted when its pivots' provisional features
    (or, for ``candidate_test="co-neighbors"``, its co-neighbors' features)
    are coherent, and is estimated as the mean of its co-neighbors.
    """
    featured, excluded = set(featured), set(excluded)
    opposite = direction.opposite
    pivots, rejected = {}, set()
    for u in sg.neighborhood(featured, direction):
        vecs = [features[v] for v in sorted(sg.neighbors(u, opposite) & featured)]
        if naive_incoherence(vecs, p) <= epsilon:
            if u not in excluded:
                pivots[u] = naive_centroid(vecs)
        elif u not in excluded and u not in featured:
            rejected.add(u)
    added, estimates = set(), {}
    for c in sg.neighborhood(pivots, opposite) - featured - excluded - rejected:
        pool = enum_co_neighbors(sg, c, pivots, featured, direction)
        pooled = [features[v] for v in sorted(pool)]
        if candidate_test == "pivot-features":
            tested = [pivots[pv] for pv in sorted(sg.neighbors(c, direction) & set(pivots))]
        else:
            tested = pooled
        if naive_incoherence(tested, p) <= epsilon:
            added.add(c)
            estimates[c] = naive_centroid(pooled)
    return added, rejected, estimates


def reference_first_steps(step, g, truth, seed, direction, epsilon_grid, **kwargs):
    """The per-threshold step loop that the first-step protocols must reproduce.

    Each threshold gets a fresh store of the seed's truth, its own
    ``init_state`` and one whole step, which gates every candidate and
    commits every estimate. Yields ``(eps, added, pivots, store)``.
    """
    for eps in epsilon_grid:
        store = truth.subset(seed)
        state = init_state(store, seed, direction, eps)
        added, _, state = step(state, g, store, **kwargs)
        yield eps, added, state.history[-1].pivots, store


def reference_sweep_rows(g, truth, seed_set, direction, epsilon_grid, p=2.0):
    """Rows of ``sweep_method_a``, one whole method-A step per threshold."""
    p = validate_norm_order(p)
    rows = []
    for eps, added, _, working in reference_first_steps(
        step_method_a, g, truth, as_node_array(seed_set), direction, epsilon_grid, p=p
    ):
        scored = np.array([v for v in added.tolist() if v in truth], dtype=np.int64)
        diffs = working.features_of(scored) - truth.features_of(scored)
        rows += _stat_rows(
            eps, "a", direction, np.linalg.norm(diffs, ord=p, axis=1),
            size_delta_v=float(added.size), size_pivots=None, coverage=None,
        )
    return rows


def reference_kfold_rows(g, truth, pool, k, direction, epsilon_grid, seed, p=2.0,
                         candidate_test="pivot-features"):
    """Rows of ``kfold_eval_method_b``, one whole method-B step per fold and threshold."""
    p = validate_norm_order(p)
    pool_arr = as_node_array(pool, g.node_count)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > pool_arr.size:
        raise ValueError(f"k={k} folds over {pool_arr.size} nodes leaves empty folds")
    rng = np.random.default_rng(seed)
    folds = [np.sort(f) for f in np.array_split(rng.permutation(pool_arr), k)]
    rows = []
    for fold_idx, fold in enumerate(folds):
        held_out = node_mask(fold, g.node_count)
        train = pool_arr[~held_out[pool_arr]]
        for eps, added, pivots, working in reference_first_steps(
            step_method_b, g, truth, train, direction, epsilon_grid,
            p=p, candidate_test=candidate_test,
        ):
            recovered = added[held_out[added]]
            rows.append(ReportRow(
                epsilon=float(eps), method="b", direction=direction.value, fold=fold_idx,
                stat="mean",
                error=mean_error(recovered, working, truth, p) if recovered.size else None,
                size_delta_v=float(added.size), size_pivots=float(pivots),
                coverage=float(recovered.size / fold.size),
            ))
    fold_rows = list(rows)
    for eps in epsilon_grid:
        same = [r for r in fold_rows if r.epsilon == float(eps)]
        rows += _stat_rows(
            eps, "b", direction, [r.error for r in same if r.error is not None],
            size_delta_v=[r.size_delta_v for r in same],
            size_pivots=[r.size_pivots for r in same],
            coverage=[r.coverage for r in same],
        )
    return rows
