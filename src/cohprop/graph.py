"""Immutable directed graphs with dense integer ids and sorted adjacency.

Edges encode a follow relation: ``(u, v)`` means *u follows v*. Each graph
stores a forward and a reverse CSR index so that followee and follower
queries are both O(degree), with neighbor lists sorted by node id so that
set intersections run as linear merges. Graphs are read-only after
construction and safe for concurrent readers.
"""
from __future__ import annotations

import csv
import io
import logging
from collections import defaultdict
from enum import Enum
from itertools import count, islice, repeat
from pathlib import Path
from typing import IO, Iterator, Sequence, Union

import numpy as np

logger = logging.getLogger(__name__)

# edge-list lines parsed or written per block: a block's strings and lists are freed
# before the next one, so the parse holds little beyond the labels and the ids
_BLOCK_LINES = 1 << 12
_COMMENT = "#"  # edge-list lines starting with this are skipped

__all__ = [
    "Direction",
    "DirectedGraph",
    "EdgeListParseError",
    "UnknownNodeError",
    "load_edge_list",
    "as_node_array",
    "node_mask",
    "incidence",
]


class Direction(Enum):
    """Traversal direction relative to follow edges.

    ``UP`` moves with the edges, from a node to the accounts it follows;
    ``DOWN`` moves against them, to the node's followers. Content posted by
    an account travels down, to its followers.
    """

    UP = "up"
    DOWN = "down"

    @property
    def opposite(self) -> "Direction":
        return Direction.DOWN if self is Direction.UP else Direction.UP

    @classmethod
    def from_string(cls, value: str) -> "Direction":
        try:
            return cls(value.lower())
        except ValueError:
            raise ValueError(
                f"direction must be 'up' or 'down', got {value!r}"
            ) from None


class EdgeListParseError(ValueError):
    """A malformed record in an edge-list stream."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownNodeError(KeyError):
    """A node id or label that is not part of the graph."""


def _sorted_unique(arr: np.ndarray) -> np.ndarray:
    """Sort in place and drop neighbour repeats: a sort and a diff, no hash table."""
    arr.sort()
    if arr.size < 2:
        return arr
    fresh = np.empty(arr.size, dtype=bool)
    fresh[0] = True
    np.not_equal(arr[1:], arr[:-1], out=fresh[1:])
    return arr if fresh.all() else arr[fresh]


def as_node_array(nodes, node_count: int | None = None) -> np.ndarray:
    """Normalize any iterable of node ids to a sorted unique int64 array."""
    if isinstance(nodes, np.ndarray):
        arr = _sorted_unique(nodes.astype(np.int64).ravel())
    else:
        arr = _sorted_unique(np.fromiter(nodes, dtype=np.int64))
    if arr.size and node_count is not None:
        if arr[0] < 0 or arr[-1] >= node_count:
            bad = arr[0] if arr[0] < 0 else arr[-1]
            raise UnknownNodeError(f"node id {bad} outside 0..{node_count - 1}")
    return arr


def node_mask(nodes: np.ndarray, node_count: int) -> np.ndarray:
    """Boolean membership mask of length ``node_count``."""
    mask = np.zeros(node_count, dtype=bool)
    mask[nodes] = True
    return mask


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of entries whose row ids ``rows`` come out grouped by row."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _take_rows(indices: np.ndarray, indptr: np.ndarray, rows: np.ndarray):
    """Rows ``rows`` of a CSR pattern, in order (repeats allowed), as CSR arrays ``(flat, bounds)``.

    Row k of the result, ``flat[bounds[k]:bounds[k+1]]``, is row rows[k].
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    bounds = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    # output slot j of group k reads indices[starts[k] + (j - bounds[k])]
    offsets = np.repeat(starts - bounds[:-1], counts)
    return indices[np.arange(bounds[-1]) + offsets], bounds


class DirectedGraph:
    """Directed graph over dense integer node ids 0..node_count-1.

    External string labels map bijectively to ids; ids are assigned in
    order of first appearance during ingestion.
    """

    def __init__(
        self,
        node_count: int,
        fwd_indptr: np.ndarray,
        fwd_indices: np.ndarray,
        rev_indptr: np.ndarray,
        rev_indices: np.ndarray,
        labels: Sequence[str] | None = None,
        self_loops_dropped: int = 0,
        duplicates_collapsed: int = 0,
    ):
        self._n = int(node_count)
        self._fwd_indptr = np.asarray(fwd_indptr, dtype=np.int64)
        self._fwd_indices = np.asarray(fwd_indices, dtype=np.int64)
        self._rev_indptr = np.asarray(rev_indptr, dtype=np.int64)
        self._rev_indices = np.asarray(rev_indices, dtype=np.int64)
        for arr in (self._fwd_indptr, self._fwd_indices, self._rev_indptr, self._rev_indices):
            arr.setflags(write=False)
        if labels is None:
            labels = range(self._n)
        if len(labels) != self._n:
            raise ValueError("label list length must equal node count")
        self._labels = tuple(map(str, labels))
        self._ids = dict(zip(self._labels, count()))
        if len(self._ids) != self._n:
            raise ValueError("labels must be unique")
        self.self_loops_dropped = int(self_loops_dropped)
        self.duplicates_collapsed = int(duplicates_collapsed)

    @classmethod
    def from_edges(
        cls,
        edges,
        node_count: int | None = None,
        labels: Sequence[str] | None = None,
    ) -> "DirectedGraph":
        """Build a graph from (source, target) id pairs.

        Self-loops are dropped and duplicate pairs collapsed; both are
        counted on the returned graph.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be an iterable of (source, target) pairs")
        if node_count is None:
            node_count = int(arr.max()) + 1 if arr.size else 0
        if arr.size and (arr.min() < 0 or arr.max() >= node_count):
            raise ValueError("edge endpoint outside 0..node_count-1")

        loops = arr[:, 0] == arr[:, 1]
        n_loops = int(loops.sum())
        if n_loops:
            logger.warning("dropped %d self-loop record(s)", n_loops)

        # one int64 key per pair, u*n + v: the sorted unique keys are the pairs
        # in (u, v) order, which is the forward CSR; keys v*n + u order the
        # reverse CSR, and being unique they need no stable sort
        n = int(node_count)
        arr = arr[~loops]
        keys = _sorted_unique(arr[:, 0] * n + arr[:, 1])
        n_dupes = arr.shape[0] - keys.size
        src, dst = np.divmod(keys, n)
        rev_order = np.argsort(dst * n + src)
        return cls(
            n, _indptr(src, n), dst, _indptr(dst[rev_order], n), src[rev_order],
            labels=labels, self_loops_dropped=n_loops, duplicates_collapsed=n_dupes,
        )

    # -- basic queries ----------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return int(self._fwd_indices.size)

    def _check(self, v: int) -> int:
        v = int(v)
        if v < 0 or v >= self._n:
            raise UnknownNodeError(f"node id {v} outside 0..{self._n - 1}")
        return v

    def neighbors(self, v: int, direction: Direction) -> np.ndarray:
        """Sorted neighbor ids of ``v``: UP = followees, DOWN = followers."""
        v = self._check(v)
        if direction is Direction.UP:
            return self._fwd_indices[self._fwd_indptr[v]:self._fwd_indptr[v + 1]]
        return self._rev_indices[self._rev_indptr[v]:self._rev_indptr[v + 1]]

    def degree(self, v: int, direction: Direction) -> int:
        v = self._check(v)
        ptr = self._fwd_indptr if direction is Direction.UP else self._rev_indptr
        return int(ptr[v + 1] - ptr[v])

    def neighborhood(self, nodes, direction: Direction) -> np.ndarray:
        """Union of ``neighbors(v, direction)`` over a node set (may overlap it)."""
        flat, _ = self._gather(as_node_array(nodes, self._n), direction)
        seen = np.zeros(self._n, dtype=bool)  # a mask, not a sort: hub lists repeat a lot
        seen[flat] = True
        return np.flatnonzero(seen)

    def _gather(self, nodes: np.ndarray, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbor lists of ``nodes`` (in order, repeats allowed).

        Returns ``(flat, bounds)`` where the list of nodes[k] occupies
        ``flat[bounds[k]:bounds[k+1]]``.
        """
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self._n):
            bad = nodes.min() if nodes.min() < 0 else nodes.max()
            raise UnknownNodeError(f"node id {bad} outside 0..{self._n - 1}")
        if direction is Direction.UP:
            return _take_rows(self._fwd_indices, self._fwd_indptr, nodes)
        return _take_rows(self._rev_indices, self._rev_indptr, nodes)

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u, Direction.UP)
        j = np.searchsorted(row, v)  # one binary search in one sorted row: not a hot path
        return bool(j < row.size and row[j] == v)

    # -- labels ------------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def label_of(self, v: int) -> str:
        return self._labels[self._check(v)]

    def id_of(self, label: str) -> int:
        try:
            return self._ids[label]
        except KeyError:
            raise UnknownNodeError(f"unknown node label {label!r}") from None

    def write_edge_list(self, path) -> None:
        """Write one ``follower,followee`` line per edge, in (follower, followee) id order.

        Labels are written as they are. Lines are formatted a block at a
        time, each column in one pass, as the features CSV writer does.
        """
        followers = np.repeat(np.arange(self._n), np.diff(self._fwd_indptr))
        label = self._labels.__getitem__
        with open(path, "w", encoding="utf-8") as fh:
            for lo in range(0, followers.size, _BLOCK_LINES):
                hi = lo + _BLOCK_LINES
                pairs = zip(map(label, followers[lo:hi].tolist()),
                            map(label, self._fwd_indices[lo:hi].tolist()))
                fh.write("\n".join(map(",".join, pairs)) + "\n")

    def write_label_map(self, path) -> None:
        """Export the label mapping as CSV ``label,node_id``."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["label", "node_id"])
            writer.writerows(zip(self._labels, count()))


def _restrict(indices: np.ndarray, indptr: np.ndarray, keep: np.ndarray):
    """CSR arrays ``(indices, indptr)`` keeping the entries in the mask ``keep``; rows stay."""
    kept = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return indices[keep], kept[indptr]


def grouped_restricted_neighbors(
    g: DirectedGraph, nodes: np.ndarray, allowed: np.ndarray, direction: Direction
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``neighbors(v, direction)`` restricted to an allowed mask.

    Returns ``(flat, bounds)`` where group k for nodes[k] occupies
    ``flat[bounds[k]:bounds[k+1]]``.
    """
    flat, bounds = g._gather(np.asarray(nodes, dtype=np.int64), direction)
    return _restrict(flat, bounds, allowed[flat])


def incidence(
    g: DirectedGraph, rows, cols: np.ndarray, direction: Direction
) -> tuple[np.ndarray, np.ndarray]:
    """0/1 incidence of ``rows`` against the sorted node array ``cols``, as CSR arrays.

    Row k of ``(indices, indptr)`` holds the positions in ``cols`` of the
    neighbors of rows[k] in ``direction``, in increasing order: it is row
    rows[k] of that direction's CSR, keeping only the ``cols`` columns.
    Rows may repeat.
    """
    if cols.size and (cols[0] < 0 or cols[-1] >= g.node_count):
        bad = cols[0] if cols[0] < 0 else cols[-1]
        raise UnknownNodeError(f"node id {bad} outside 0..{g.node_count - 1}")
    flat, bounds = g._gather(np.asarray(rows, dtype=np.int64), direction)
    # one position map is both the membership test (-1: not a column) and the
    # column index; int32 keeps its copy of a hub-sized gather at half size
    pos = np.full(g.node_count, -1, dtype=np.int32 if cols.size < 2**31 else np.int64)
    pos[cols] = np.arange(cols.size)
    col = pos[flat]
    return _restrict(col, bounds, col >= 0)


def _iter_lines(source) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
        return
    if isinstance(source, bytes):
        yield from io.StringIO(source.decode("utf-8"))
        return
    # file-like: may yield bytes or text
    for line in source:
        yield line.decode("utf-8") if isinstance(line, bytes) else line


def _first_bad_record(block: list[str], first_line: int, sep: str):
    """The error for the first malformed record of a block whose line 1 is ``first_line``."""
    for lineno, raw in enumerate(block, start=first_line):
        line = raw.strip()
        if not line or line.startswith(_COMMENT):
            continue
        fields = [f.strip() for f in line.split(sep)]
        if len(fields) != 2:
            return EdgeListParseError(
                f"expected 2 fields separated by {sep!r}, got {len(fields)}", lineno
            )
        if not fields[0] or not fields[1]:
            return EdgeListParseError("empty node label", lineno)


def load_edge_list(
    source: Union[str, Path, bytes, IO],
    sep: str = ",",
) -> DirectedGraph:
    """Parse a ``follower<SEP>followee`` edge list into a graph.

    One edge per line, UTF-8; lines starting with ``#`` and blank lines are
    skipped. Duplicate records are collapsed and self-loops dropped with a
    counted warning. Raises :class:`EdgeListParseError` with
    the offending line number on malformed records and ``ValueError`` when
    the stream contains no records at all, or when ``sep`` is empty or
    holds a line break.
    """
    if not sep or "\n" in sep:
        raise ValueError(f"separator must be non-empty without a line break, got {sep!r}")
    # each block is stripped, filtered, checked, split and interned in passes
    # that run in C; a block that fails the checks is walked again line by
    # line to report its first bad record. Splitting the joined records yields
    # each record's two fields: a one-character separator cannot straddle a
    # joint, but a longer one can ("::" after a field ending in ":"), so there
    # the joint leads with a "\n", which no separator holds and strip() drops
    joint = sep if len(sep) == 1 else "\n" + sep
    ids = defaultdict(count().__next__)  # label -> id, in order of first appearance
    blocks = []  # int64 source and target ids of every record, in file order
    lines, first_line = _iter_lines(source), 1
    while block := list(islice(lines, _BLOCK_LINES)):
        records = [r for r in map(str.strip, block) if r and not r.startswith(_COMMENT)]
        labels = list(map(str.strip, joint.join(records).split(sep))) if records else []
        if list(map(str.count, records, repeat(sep))).count(1) != len(records) or "" in labels:
            raise _first_bad_record(block, first_line, sep)
        blocks.append(np.fromiter(map(ids.__getitem__, labels), dtype=np.int64, count=len(labels)))
        first_line += len(block)

    if not ids:
        raise ValueError("edge-list stream contains no records")
    labels = list(ids)
    del ids  # the graph builds its own label map, and two need not be alive at once
    return DirectedGraph.from_edges(np.concatenate(blocks).reshape(-1, 2),
                                    node_count=len(labels), labels=labels)
