"""Per-node feature vectors and the coherence metric layer.

A :class:`FeatureStore` keeps one fixed-dimension vector per node, tagged
as seed (``known``) or propagated (``estimated`` with the step at which it
was written). Entries are write-once: propagation never overwrites a seed
feature and never re-estimates a node. The store is one table: a float64
``(capacity, N)`` row array and an int64 step array, both growing by
doubling, and an index, one int64 array that holds each node's row at the
node id and -1 where a node has none. Node ids must be >= 0, and the index
takes 8 bytes for every id up to the largest one written. Every write is
one checked scatter of a block of rows into the index, and every bulk read
is one bound check and one gather through it.

The metric layer provides the distance between an estimate and a reference
vector, set centroids, set incoherence (root mean squared p-norm distance
to the centroid), and coherence-gated neighborhoods. The coherence gate is
one private function, ``_gate``, shared by :func:`coherent_neighborhood`
and by methods A and B: it measures every neighbor of a featured set, or
those in a candidate mask, on its back-connections into that set. One call
of :func:`cohprop.graph.linked` finds those neighbors and their rows
together, from the featured set's own lists (push) or from the masked
nodes' back-lists (pull), whichever holds fewer entries.
"""
from __future__ import annotations

import csv
import json
import math
import re
from itertools import compress
from typing import Iterable, Iterator

import numpy as np

from .graph import DirectedGraph, Direction, UnknownNodeError, as_node_array, linked
from .graph import grouped_restricted_neighbors  # noqa: F401  (perfbench/spans.py wraps it here)

__all__ = [
    "KNOWN",
    "FeatureStore",
    "validate_norm_order",
    "estimation_error",
    "mean_error",
    "centroid",
    "incoherence",
    "coherent_neighborhood",
    "read_features_csv",
    "write_features_csv",
]

KNOWN = -1  # provenance step index reserved for seed features
_BLOCK_ROWS = 1 << 12  # CSV rows formatted per block


def validate_norm_order(p) -> float:
    """Check a vector-norm order: any real p with 1 <= p < inf."""
    p = float(p)
    if math.isnan(p) or math.isinf(p) or p < 1.0:
        raise ValueError(f"norm order must satisfy 1 <= p < inf, got {p}")
    return p


class FeatureStore:
    """Write-once map from node id (>= 0) to an N-dimensional feature vector.

    The node -> row index is one int64 array with a slot for every id up to
    the largest one written, so its memory grows with that id (8 bytes an
    id), not with the number of rows. A negative id or one past the index
    reads as absent.
    """

    def __init__(self, dim: int):
        if int(dim) < 1:
            raise ValueError("feature dimension must be >= 1")
        self._dim = int(dim)
        self._n = 0  # rows in use
        self._table = np.empty((0, self._dim))
        self._step = np.empty(0, dtype=np.int64)
        self._row_of = np.empty(0, dtype=np.int64)  # node id -> table row, -1 when absent

    @property
    def dim(self) -> int:
        return self._dim

    def __len__(self) -> int:
        return self._n

    def __contains__(self, node) -> bool:
        v = int(node)
        return 0 <= v < self._row_of.size and self._row_of[v] >= 0

    def nodes(self) -> np.ndarray:
        return np.flatnonzero(self._row_of >= 0)

    def items(self) -> Iterator[tuple[int, np.ndarray]]:
        nodes = self.nodes()
        return zip(nodes.tolist(), self.features_of(nodes))

    def _commit(self, nodes: np.ndarray, values, steps) -> None:
        """Write row k of ``values`` for ``nodes[k]`` at ``steps`` (a scalar or one per row).

        ``nodes`` is an int64 array. The batch is checked as a whole before
        anything is written, so a rejected batch leaves every read unchanged.
        """
        values = np.asarray(values, dtype=np.float64)
        n, k = self._n, nodes.size
        if values.shape != (k, self._dim):
            raise ValueError(
                f"expected {k} vector(s) of dimension {self._dim}, got shape {values.shape}"
            )
        if np.count_nonzero(np.isfinite(values)) != values.size:
            raise ValueError("feature components must be finite")
        if k == 1:  # Python scalars: a batch's reductions cost more than the rest of this write
            lo = hi = nodes.item()
        else:
            lo, hi = int(nodes.min(initial=0)), int(nodes.max(initial=-1))
        if lo < 0:
            raise ValueError(f"node ids must be >= 0, got {lo}")
        if hi >= self._row_of.size:  # grow by doubling, to at least the largest id + 1
            size = self._row_of.size
            self._row_of = np.concatenate(
                (self._row_of, np.full(max(size, hi + 1 - size), -1, dtype=np.int64)))
        if k == 1:
            if self._row_of[lo] >= 0:
                raise ValueError(f"features for node {lo} already set; entries are write-once")
            self._row_of[lo] = n
        else:
            # one scatter of the new rows; read back, a repeated node keeps only
            # its last row, so the batch is undone unless every node reads its own
            old = self._row_of[nodes]
            fresh = np.arange(n, n + k)
            self._row_of[nodes] = fresh
            if np.count_nonzero(self._row_of[nodes] != fresh):
                self._row_of[nodes] = old
                raise ValueError("a batch of features lists a node more than once")
            taken = nodes[old >= 0]
            if taken.size:
                self._row_of[nodes] = old
                raise ValueError(f"features for node {taken[0]} already set; entries are write-once")
        if n + k > self._step.size:
            spare = max(k, n)  # grow by doubling
            self._table = np.concatenate((self._table[:n], np.empty((spare, self._dim))))
            self._step = np.concatenate((self._step[:n], np.empty(spare, dtype=np.int64)))
        self._table[n:n + k] = values
        # [...] on the slice: assigning a Python int to a slice directly is
        # about 2x slower in NumPy 2.4, and single rows pay it on every write
        self._step[n:n + k][...] = steps
        self._n = n + k

    def set_known(self, node: int, vec) -> None:
        self._commit(np.array((int(node),)), np.asarray(vec, dtype=np.float64)[None], KNOWN)

    def set_known_many(self, nodes, values) -> None:
        """Batched :meth:`set_known`, all or nothing like :meth:`set_estimated_many`."""
        self._commit(np.asarray(nodes, dtype=np.int64), values, KNOWN)

    def set_estimated(self, node: int, vec, step: int) -> None:
        self.set_estimated_many([node], [vec], step)

    def set_estimated_many(self, nodes, values, step: int) -> None:
        """Batched :meth:`set_estimated`: row k of ``values`` is the estimate of nodes[k].

        The batch is all or nothing: one bad vector or one node that already
        has features rejects every row.
        """
        if step < 0:
            raise ValueError("estimation step must be >= 0")
        self._commit(np.asarray(nodes, dtype=np.int64), values, int(step))

    def _row(self, node) -> int:
        """Table row of one node (``KeyError`` for a node without features)."""
        v = int(node)
        row = self._row_of[v] if 0 <= v < self._row_of.size else -1
        if row < 0:
            raise KeyError(f"no features for node {v}")
        return row

    def _rows(self, nodes: np.ndarray) -> np.ndarray:
        """Table rows of an int64 node array (``KeyError`` for a node without features)."""
        # a negative id views as a huge unsigned one, so one bound covers both ends
        inside = nodes.view(np.uint64) < self._row_of.size
        if np.count_nonzero(inside) == nodes.size:
            rows = self._row_of[nodes]
            if rows.min(initial=0) >= 0:
                return rows
        missing = ~inside
        missing[inside] = self._row_of[nodes[inside]] < 0
        raise KeyError(f"no features for node {nodes[missing][0]}")

    def get(self, node: int) -> np.ndarray:
        """Read-only view of the node's vector."""
        row = self._table[self._row(node)]
        row.flags.writeable = False
        return row

    def provenance(self, node: int) -> int:
        """KNOWN (-1) for seed entries, else the propagation step index."""
        return int(self._step[self._row(node)])

    def is_known(self, node: int) -> bool:
        return self.provenance(node) == KNOWN

    def provenance_label(self, node: int) -> str:
        return _format_provenance(self.provenance(node))

    def features_of(self, nodes) -> np.ndarray:
        """Stack features for a node array into a (k, N) matrix."""
        return self._table.take(self._rows(as_node_array(nodes)), axis=0)

    def steps_of(self, nodes) -> np.ndarray:
        """Provenance steps of a node array, in the row order of :meth:`features_of`."""
        return self._step[self._rows(as_node_array(nodes))]

    def subset(self, nodes) -> "FeatureStore":
        """Copy of the entries for ``nodes`` (all must be present)."""
        nodes = as_node_array(nodes)
        rows = self._rows(nodes)
        sub = FeatureStore(self._dim)
        sub._commit(nodes, self._table.take(rows, axis=0), self._step[rows])
        return sub


# -- metrics ----------------------------------------------------------------


def estimation_error(est, truth, p=2.0) -> float:
    """p-norm distance between an estimated and a reference vector."""
    p = validate_norm_order(p)
    est = np.asarray(est, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if est.shape != truth.shape:
        raise ValueError(f"dimension mismatch: {est.shape} vs {truth.shape}")
    return float(np.linalg.norm(est - truth, ord=p))


def mean_error(nodes, estimates: FeatureStore, truth: FeatureStore, p=2.0) -> float:
    """Mean p-norm error over a node set (every node needs both entries)."""
    p = validate_norm_order(p)
    nodes = as_node_array(nodes)
    if nodes.size == 0:
        raise ValueError("mean error over an empty node set is undefined")
    est = estimates.features_of(nodes)
    ref = truth.features_of(nodes)
    return float(np.mean(np.linalg.norm(est - ref, ord=p, axis=1)))


def centroid(nodes, store: FeatureStore) -> np.ndarray:
    """Component-wise mean feature vector of a nonempty node set.

    Measured from the set's first node like every centroid of the gate, so
    identical vectors give back their common value exactly.
    """
    nodes = as_node_array(nodes)
    if nodes.size == 0:
        raise ValueError("centroid of an empty node set is undefined")
    _, centers = _group_stats(store.features_of(nodes), np.arange(nodes.size),
                              np.array([0, nodes.size]))
    return centers[0]


def incoherence(nodes, store: FeatureStore, p=2.0) -> float:
    """Root mean squared p-norm distance of the set's features to its centroid."""
    p = validate_norm_order(p)
    nodes = as_node_array(nodes)
    if nodes.size == 0:
        raise ValueError("incoherence of an empty node set is undefined")
    inc, _ = _group_stats(store.features_of(nodes), np.arange(nodes.size),
                          np.array([0, nodes.size]), p)
    return float(inc[0])


# member rows gathered at once by _group_stats: bounds the memory of big steps
_BLOCK_MEMBERS = 1 << 16


def _group_stats(table: np.ndarray, indices: np.ndarray, indptr: np.ndarray, p=None):
    """Incoherence and centroid of each row group of a CSR pattern over ``table``.

    Group k is ``table[indices[indptr[k]:indptr[k+1]]]``; every group must
    be nonempty. Each group is centred on its first member before summing,
    so a group of identical vectors has a centroid equal to them and an
    incoherence of exactly 0, however far from the origin it lies. Without
    a norm order ``p`` only the centroids are computed (incoherence None).
    Groups are measured in blocks of whole groups holding about
    ``_BLOCK_MEMBERS`` members, so a step never gathers one vector per
    pattern entry at once.
    """
    counts = np.diff(indptr)
    if not (counts > 0).all():
        raise AssertionError("empty feature group")
    inc = None if p is None else np.empty(counts.size)
    centers = np.empty((counts.size, table.shape[1]))
    cuts = (np.flatnonzero(np.diff(indptr[:-1] // _BLOCK_MEMBERS)) + 1).tolist()
    for r0, r1 in zip([0] + cuts, cuts + [counts.size]):
        lo, n = indptr[r0], counts[r0:r1]
        starts = indptr[r0:r1] - lo
        # take, not fancy indexing: a row gather of a 2-d array is several times faster
        diffs = table.take(indices[lo:indptr[r1]], axis=0)
        firsts = diffs.take(starts, axis=0)
        diffs -= np.repeat(firsts, n, axis=0)
        offsets = np.add.reduceat(diffs, starts, axis=0) / n[:, None]
        centers[r0:r1] = firsts + offsets
        if p is None:
            continue
        diffs -= np.repeat(offsets, n, axis=0)
        if p == 2.0:
            sq = np.einsum("ij,ij->i", diffs, diffs)
        else:
            sq = np.sum(np.abs(diffs) ** p, axis=1) ** (2.0 / p)
        inc[r0:r1] = np.sqrt(np.add.reduceat(sq, starts) / n)
    return inc, centers


def _validate_epsilon(epsilon) -> float:
    epsilon = float(epsilon)
    if math.isnan(epsilon) or epsilon < 0.0:
        raise ValueError(f"coherence threshold must be >= 0, got {epsilon}")
    return epsilon


def _gate(g: DirectedGraph, table: np.ndarray, V: np.ndarray, direction: Direction, p: float,
          keep=None):
    """The coherence gate: ``(cand, inc, centers, M)`` for the sorted featured set V.

    ``table`` holds the features of V, row k for V[k]. ``cand`` are the
    nodes of the node mask ``keep`` (by default every node) reached from V
    in ``direction``, sorted, and ``M`` is their opposite-direction
    incidence against V as CSR arrays ``(indices, indptr)``: row k holds
    cand[k]'s back-connections into V, nonempty because cand[k] was reached
    from V. Both come from one :func:`cohprop.graph.linked` call, which
    gathers V's lists (push) or the masked nodes' back-lists (pull),
    whichever side has fewer entries. Entry k of ``inc`` and ``centers`` is
    the incoherence and centroid of that row. M is against the whole of V
    whatever the mask, so a row has the same members in the same order,
    and the same bits, under any mask that keeps it. Callers apply their
    own rule to the result; method B also walks back through M's rows.
    """
    if keep is None:
        keep = np.ones(g.node_count, dtype=bool)
    cand, M = linked(g, keep, V, direction.opposite)
    inc, centers = _group_stats(table, *M, p)
    return cand, inc, centers, M


def coherent_neighborhood(
    g: DirectedGraph,
    store: FeatureStore,
    nodes,
    direction: Direction,
    epsilon,
    p=2.0,
) -> np.ndarray:
    """Neighbors of a set whose back-connections into it are coherent.

    A neighbor u of the set V (in ``direction``) is kept when the
    incoherence of u's opposite-direction neighborhood restricted to V is
    at most ``epsilon``. That restriction is nonempty by construction. The
    result is a subset of ``g.neighborhood(V, direction)`` and grows
    monotonically with ``epsilon``.
    """
    p = validate_norm_order(p)
    epsilon = _validate_epsilon(epsilon)
    V = as_node_array(nodes, g.node_count)
    cand, inc, _, _ = _gate(g, store.features_of(V), V, direction, p)
    return cand[inc <= epsilon]


# -- CSV and JSON interchange ------------------------------------------------


def _write_json(path, payload) -> None:
    """The one JSON writer of the package: sorted keys, 2-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    """The one small-table CSV writer: ``header``, then ``rows``, in csv's default dialect."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_features_csv(
    path,
    store: FeatureStore,
    graph: DirectedGraph,
    include_provenance: bool = False,
) -> None:
    """Write ``node_label,f1,...,fN`` rows (plus optional provenance column)."""
    # one range check and one gather for the whole store, before the file opens
    nodes = as_node_array(store.nodes(), graph.node_count)
    rows = store._rows(nodes)
    steps = store._step[rows].tolist() if include_provenance else None
    _write_rows(path, list(map(graph.labels.__getitem__, nodes.tolist())),
                store._table.take(rows, axis=0), steps)


def write_labeled_features_csv(path, rows: Iterable[tuple[str, np.ndarray]], dim: int) -> None:
    """Write labeled coordinate rows without going through a graph."""
    rows = list(rows)
    table = np.array([vec for _, vec in rows], dtype=np.float64).reshape(len(rows), dim)
    _write_rows(path, [label for label, _ in rows], table, None)


# the characters for which csv.writer's default dialect (QUOTE_MINIMAL) quotes a field
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _write_rows(path, labels: list[str], table: np.ndarray, steps: list[int] | None) -> None:
    """The one features-CSV writer, behind both public ones.

    Row k holds ``labels[k]``, row k of ``table`` and, when ``steps`` is
    given, the provenance of ``steps[k]``. The bytes are those of
    ``csv.writer`` with its default dialect: fields joined by ``,``, lines
    ended by ``\\r\\n``, and a label holding ``,``, ``"``, ``\\r`` or ``\\n``
    quoted with its quotes doubled (no other field ever needs quotes).
    Values are written with ``repr``, which reads back exactly; since the
    store holds only finite values, one ``repr`` of a column's list splits
    into the ``repr`` of each value. Each block of ``_BLOCK_ROWS`` rows is
    formatted column by column, each column one pass in C, and written as
    one string, so memory holds one block's strings. Only labels that need
    quotes take a Python step, and each distinct step is formatted once.
    """
    header = ["node_label"] + [f"f{i + 1}" for i in range(table.shape[1])]
    if steps is not None:
        header.append("provenance")
        provenance = {step: _format_provenance(step) for step in set(steps)}.__getitem__
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(labels), _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            block = labels[lo:hi]
            for k in compress(range(len(block)), map(_NEEDS_QUOTES, block)):
                block[k] = '"' + block[k].replace('"', '""') + '"'
            columns = [block, *(repr(col)[1:-1].split(", ") for col in table[lo:hi].T.tolist())]
            if steps is not None:
                columns.append(map(provenance, steps[lo:hi]))
            lines = list(map(",".join, zip(*columns)))
            lines.append("")  # the last line's terminator
            fh.write("\r\n".join(lines))


def _format_provenance(step: int) -> str:
    return "known" if step == KNOWN else f"estimated:{step}"


def _parse_provenance(text: str) -> int:
    if text == "known":
        return KNOWN
    if text.startswith("estimated:"):
        step = int(text.split(":", 1)[1])
        if step >= 0:
            return step
    raise ValueError(f"bad provenance value {text!r}")


def _csv_rows(path, fh) -> Iterator[tuple[int, list[str]]]:
    """``(line, row)`` for each row of ``csv.reader(fh)``, ``line`` being the row's first line.

    A quoted field may span lines, so a row begins on the line after the one
    its predecessor ended on. A malformed row raises ``ValueError`` naming
    its first line.
    """
    reader = csv.reader(fh)
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}:{start}: {exc}") from None


def read_features_csv(path, graph: DirectedGraph) -> FeatureStore:
    """Load a features CSV, mapping labels to graph node ids.

    A trailing ``provenance`` column is honored when present; otherwise all
    rows load as known features.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv_rows(path, fh)
        try:
            _, header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty features file") from None
        if len(header) < 2:
            raise ValueError(f"{path}: header must be node_label,f1,...,fN")
        has_prov = header[-1].strip().lower() == "provenance"
        dim = len(header) - 1 - (1 if has_prov else 0)
        if dim < 1:
            raise ValueError(f"{path}: no feature columns in header")
        nodes, values, steps = [], [], []
        for lineno, row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                nodes.append(graph.id_of(row[0]))
            except UnknownNodeError as exc:
                raise UnknownNodeError(f"{path}:{lineno}: {exc.args[0]}") from None
            try:
                values.append([float(x) for x in row[1:1 + dim]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric feature value") from None
            steps.append(_parse_provenance(row[-1]) if has_prov else KNOWN)
    store = FeatureStore(dim)
    store._commit(np.array(nodes, dtype=np.int64), np.reshape(values, (len(nodes), dim)), steps)
    return store
