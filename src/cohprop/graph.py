"""Immutable directed graphs with dense integer ids and sorted adjacency.

Edges encode a follow relation: ``(u, v)`` means *u follows v*. Each graph
stores a forward and a reverse CSR index so that followee and follower
queries are both O(degree), with neighbor lists sorted by node id so that
set intersections run as linear merges. Graphs are read-only after
construction and safe for concurrent readers.

Each read rule has one home: ``DirectedGraph._csr`` is the one direction
pick (anything but a :class:`Direction` raises ``TypeError``), ``_check_ids``
the one node-id bound check, ``_offsets`` builds every CSR row pointer,
``_run_starts`` marks the runs of a sorted array, and ``_nonempty_rows``
drops an incidence's empty rows.

:func:`incidence` gives a row set's CSR incidence against a sorted column
set. :func:`linked` gives the nonempty rows of that incidence for the rows
of a node mask, from one gather on whichever side has fewer entries: the
rows' own lists (pull), or the columns' opposite-direction lists turned
round by one sort (push), as in the push/pull choice of direction-optimizing
BFS. Both entry counts are sums over an index pointer, so the choice costs
no gather; a tie pulls.
"""
from __future__ import annotations

import codecs
import csv
import logging
import os
from enum import Enum
from itertools import count
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

logger = logging.getLogger(__name__)

# edge-list bytes parsed per block, cut at a line break: a block's masks and
# offsets are freed before the next one, so the parse holds little beyond the
# source's bytes and a few numbers a field
_BLOCK_BYTES = 1 << 20
_BLOCK_LINES = 1 << 12  # edge-list lines written per block
_COMMENT = "#"  # edge-list lines starting with this are skipped
# int32 holds the parse's field offsets below this many source bytes, and
# incidence's column positions below this many columns; int64 from there on
_NARROW_OFFSETS = 2**31
_NARROW_POSITIONS = 2**31
# label interning packs each field's index into its key below this many
# fields, which leaves at least 40 of the 64 bits to the hash. L distinct
# labels then share a key in about L**2 / 2**41 pairs: 0.02 at 200k labels.
# A shared key costs a second, full-key pass; the paper's ~100M fields and
# 6.5M labels would expect about 150 such pairs, so they go to full keys.
_PACKED_FIELDS = 2**24
# linked's push side sorts keys node << bits | position, with just enough
# bits for a position among the columns; while node_count << bits is below
# this bound they fit in int64, and from there on it pulls
_PUSH_KEYS = 2**63

__all__ = [
    "Direction",
    "DirectedGraph",
    "EdgeListParseError",
    "UnknownNodeError",
    "load_edge_list",
    "as_node_array",
    "node_mask",
    "incidence",
    "linked",
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


def _check_ids(nodes: np.ndarray, n: int, ordered: bool = True) -> None:
    """Raise ``UnknownNodeError`` unless ids ``nodes`` (sorted if ``ordered``) are in 0..n-1."""
    if nodes.size:
        low, high = (nodes[0], nodes[-1]) if ordered else (nodes.min(), nodes.max())
        if low < 0 or high >= n:
            raise UnknownNodeError(f"node id {low if low < 0 else high} outside 0..{n - 1}")


def _run_starts(arr: np.ndarray) -> np.ndarray:
    """Mask of the entries of the sorted array ``arr`` that start a run of equal values."""
    first = np.empty(arr.size, dtype=bool)
    first[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=first[1:])
    return first


def _offsets(counts: np.ndarray) -> np.ndarray:
    """The int64 CSR row pointer of rows holding ``counts`` entries: 0, then the running sums."""
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _sorted_unique(arr: np.ndarray) -> np.ndarray:
    """Sort in place and drop neighbour repeats: a sort and a diff, no hash table."""
    arr.sort()
    fresh = _run_starts(arr)
    return arr if fresh.all() else arr[fresh]


def as_node_array(nodes, node_count: int | None = None) -> np.ndarray:
    """Normalize any iterable of node ids to a sorted unique int64 array."""
    if isinstance(nodes, np.ndarray):
        arr = _sorted_unique(nodes.astype(np.int64).ravel())
    else:
        arr = _sorted_unique(np.fromiter(nodes, dtype=np.int64))
    if node_count is not None:
        _check_ids(arr, node_count)
    return arr


def node_mask(nodes: np.ndarray, node_count: int) -> np.ndarray:
    """Boolean membership mask of length ``node_count``."""
    mask = np.zeros(node_count, dtype=bool)
    mask[nodes] = True
    return mask


def _take_rows(indices: np.ndarray, indptr: np.ndarray, rows: np.ndarray):
    """Rows ``rows`` of a CSR pattern, in order (repeats allowed), as CSR arrays ``(flat, bounds)``.

    Row k of the result, ``flat[bounds[k]:bounds[k+1]]``, is row rows[k].
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    bounds = _offsets(counts)
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
        self._labels = tuple(labels)
        if {*map(type, self._labels)} - {str}:  # str() them only when one is not a str
            self._labels = tuple(map(str, self._labels))
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
        if isinstance(edges, np.ndarray) and edges.dtype in (np.int32, np.int64):
            arr = edges  # int32 ids, as the parse makes them, are read as they are
        else:
            arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                             dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be an iterable of (source, target) pairs")
        if node_count is None:
            node_count = int(arr.max()) + 1 if arr.size else 0
        if arr.size and (arr.min() < 0 or arr.max() >= node_count):
            raise ValueError("edge endpoint outside 0..node_count-1")

        # one int64 key per pair, u*n + v, built in place: the sorted unique
        # keys are the pairs in (u, v) order, which is the forward CSR; the
        # sorted keys v*n + u are the reverse CSR, read back by the same divmod
        n = int(node_count)
        keys = arr[:, 0].astype(np.int64)
        keys *= n
        keys += arr[:, 1]
        loops = arr[:, 0] == arr[:, 1]
        n_loops = int(np.count_nonzero(loops))
        if n_loops:
            logger.warning("dropped %d self-loop record(s)", n_loops)
            keys = keys[~loops]
        del loops
        records = keys.size
        keys = _sorted_unique(keys)
        n_dupes = records - keys.size
        src, dst = np.divmod(keys, n)
        np.multiply(dst, n, out=keys)
        keys += src
        fwd_indptr = _offsets(np.bincount(src, minlength=n))
        del src
        keys.sort()
        rev_src = np.empty_like(keys)
        np.divmod(keys, n, out=(keys, rev_src))  # keys become the reverse CSR's rows
        return cls(
            n, fwd_indptr, dst, _offsets(np.bincount(keys, minlength=n)), rev_src,
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
        _check_ids(np.array([int(v)]), self._n)
        return int(v)

    def _csr(self, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
        """The forward CSR arrays ``(indices, indptr)`` for UP, the reverse ones for DOWN."""
        if direction is Direction.UP:
            return self._fwd_indices, self._fwd_indptr
        if direction is Direction.DOWN:
            return self._rev_indices, self._rev_indptr
        raise TypeError(f"direction must be a Direction, got {direction!r}")

    def neighbors(self, v: int, direction: Direction) -> np.ndarray:
        """Sorted neighbor ids of ``v``: UP = followees, DOWN = followers."""
        v = self._check(v)
        indices, indptr = self._csr(direction)
        return indices[indptr[v]:indptr[v + 1]]

    def degree(self, v: int, direction: Direction) -> int:
        return self.neighbors(v, direction).size

    def neighborhood(self, nodes, direction: Direction) -> np.ndarray:
        """Union of ``neighbors(v, direction)`` over a node set (may overlap it)."""
        flat, _ = self._gather(as_node_array(nodes), direction)
        return np.flatnonzero(node_mask(flat, self._n))  # a mask, not a sort: hub lists repeat

    def _gather(self, nodes: np.ndarray, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbor lists of ``nodes`` (in order, repeats allowed).

        Returns ``(flat, bounds)`` where the list of nodes[k] occupies
        ``flat[bounds[k]:bounds[k+1]]``.
        """
        indices, indptr = self._csr(direction)
        _check_ids(nodes, self._n, ordered=False)
        return _take_rows(indices, indptr, nodes)

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
        followees, indptr = self._csr(Direction.UP)
        followers = np.repeat(np.arange(self._n), np.diff(indptr))
        label = self._labels.__getitem__
        with open(path, "w", encoding="utf-8") as fh:
            for lo in range(0, followers.size, _BLOCK_LINES):
                hi = lo + _BLOCK_LINES
                pairs = zip(map(label, followers[lo:hi].tolist()),
                            map(label, followees[lo:hi].tolist()))
                fh.write("\n".join(map(",".join, pairs)) + "\n")

    def write_label_map(self, path) -> None:
        """Export the label mapping as CSV ``label,node_id``."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["label", "node_id"])
            writer.writerows(zip(self._labels, count()))


def _restrict(indices: np.ndarray, indptr: np.ndarray, keep: np.ndarray):
    """CSR arrays ``(indices, indptr)`` keeping the entries in the mask ``keep``; rows stay."""
    return indices[keep], _offsets(keep)[indptr]


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
    _check_ids(cols, g.node_count)
    flat, bounds = g._gather(np.asarray(rows, dtype=np.int64), direction)
    # one position map is both the membership test (-1: not a column) and the
    # column index; int32 keeps its copy of a hub-sized gather at half size
    pos = np.full(g.node_count, -1, dtype=_position_type(cols.size))
    pos[cols] = np.arange(cols.size)
    col = pos[flat]
    return _restrict(col, bounds, col >= 0)


def _position_type(n_cols: int):
    """The dtype of column positions: int32 below ``_NARROW_POSITIONS`` columns."""
    return np.int32 if n_cols < _NARROW_POSITIONS else np.int64


def _position_bits(n_cols: int) -> int:
    """The bits that hold a position among ``n_cols`` columns."""
    return max(n_cols - 1, 0).bit_length()


def linked(
    g: DirectedGraph, rows: np.ndarray, cols: np.ndarray, direction: Direction
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The nonempty rows of ``incidence(g, np.flatnonzero(rows), cols, direction)``.

    ``rows`` is a node mask and ``cols`` a sorted unique node array. Returns
    ``(nodes, (indices, indptr))``: ``nodes`` are the masked nodes with a
    neighbor in ``cols`` in ``direction``, in increasing order, and row k of
    the CSR arrays is nodes[k]'s incidence row, the same arrays bit for bit.
    They come from one gather, on the side with fewer entries: the masked
    rows' lists (:func:`_pull`) or the columns' opposite-direction lists
    (:func:`_push`). A tie pulls, and so does a column set too wide for
    push's keys. The inputs are not written.
    """
    _, own = g._csr(direction)
    _, back = g._csr(direction.opposite)
    _check_ids(cols, g.node_count)
    pull = int(np.diff(own) @ rows)  # a product, not a masked sum: several times faster
    push = int(np.diff(back)[cols].sum())
    if push < pull and g.node_count << _position_bits(cols.size) < _PUSH_KEYS:
        return _push(g, rows, cols, direction)
    return _pull(g, rows, cols, direction)


def _pull(g: DirectedGraph, rows: np.ndarray, cols: np.ndarray, direction: Direction):
    """:func:`linked` from the masked rows' own lists: ``incidence`` less its empty rows."""
    nodes = np.flatnonzero(rows)
    return _nonempty_rows(nodes, *incidence(g, nodes, cols, direction))


def _nonempty_rows(nodes: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """``(nodes, (indices, indptr))`` less the rows without an entry; row k belongs to nodes[k]."""
    full = indptr[1:] > indptr[:-1]
    return nodes[full], (indices, np.concatenate(([0], indptr[1:][full])))


def _push(g: DirectedGraph, rows: np.ndarray, cols: np.ndarray, direction: Direction):
    """:func:`linked` from the columns' opposite-direction lists, restricted to the mask.

    Entry (node, position) becomes the key ``node << bits | position``; one
    in-place sort puts the keys in row order, positions increasing, and a
    mask and a shift split them (a shift, not a division: several times
    faster). The graph holds no duplicate edge, so the keys are unique and
    the result does not depend on the sort's algorithm.
    """
    m, bits = cols.size, _position_bits(cols.size)
    flat, bounds = g._gather(cols, direction.opposite)
    keep = rows[flat]
    flat <<= bits
    flat |= np.repeat(np.arange(m), np.diff(bounds))
    keys = flat[keep]
    del flat, keep
    keys.sort()
    positions = np.empty(keys.size, dtype=_position_type(m))
    np.bitwise_and(keys, (1 << bits) - 1, out=positions)
    keys >>= bits  # each entry's node
    starts = np.flatnonzero(_run_starts(keys))
    return keys[starts], (positions, np.append(starts, keys.size))


# str.strip() drops the characters for which str.isspace() holds. In UTF-8
# they are ten ASCII bytes and 19 sequences of two or three bytes; the
# parse strips them at field edges by byte, with these tables.
_SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
           + "".join(map(chr, range(0x2000, 0x200B))) + "\u2028\u2029\u202f\u205f\u3000")
_SPACE_UTF8 = [c.encode("utf-8") for c in _SPACES]
_SPACE_BYTE = np.zeros(256, dtype=bool)  # the one-byte spaces
_SPACE_BYTE[[b[0] for b in _SPACE_UTF8 if len(b) == 1]] = True
_SPACE_FIRST = np.zeros(256, dtype=bool)  # bytes that may start a space
_SPACE_FIRST[[b[0] for b in _SPACE_UTF8]] = True
_SPACE_LAST = np.zeros(256, dtype=bool)  # bytes that may end one
_SPACE_LAST[[b[-1] for b in _SPACE_UTF8]] = True
# the longer sequences, read as big-endian integers, by byte width
_SPACE_CODES = {width: np.array(sorted(int.from_bytes(b, "big") for b in _SPACE_UTF8
                                       if len(b) == width)) for width in (2, 3)}


def _space_width(buf: np.ndarray, at: np.ndarray, leading: bool) -> np.ndarray:
    """Byte width of the space that starts (``leading``) or ends at each position ``at``; else 0.

    ``buf`` must be valid UTF-8, so a byte sequence that spells a space is
    one: its bytes cannot belong to a neighbouring character.
    """
    width = _SPACE_BYTE[buf[at]].astype(np.int64)
    for size, codes in _SPACE_CODES.items():
        first = at if leading else at - (size - 1)
        code = np.zeros(at.size, dtype=np.int64)
        for k in range(size):
            code = code << 8 | buf[np.clip(first + k, 0, buf.size - 1)]
        width[np.isin(code, codes)] = size
    return width


def _strip(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, leading: bool) -> None:
    """Move ``lo`` up (``leading``) or ``hi`` down past spaces, in place, as str.strip does.

    ``buf[lo[k]:hi[k]]`` is range k. Each round looks only at the ranges
    whose edge byte may belong to a space, which on clean text is none.
    """
    maybe = _SPACE_FIRST if leading else _SPACE_LAST
    edge = lo if leading else hi - 1
    todo = np.flatnonzero((lo < hi) & maybe[buf.take(edge, mode="clip")])
    while todo.size:
        width = _space_width(buf, lo[todo] if leading else hi[todo] - 1, leading)
        moved = width > 0
        todo = todo[moved]
        if leading:
            lo[todo] += width[moved]
        else:
            hi[todo] -= width[moved]
        edge = lo[todo] if leading else hi[todo] - 1
        todo = todo[(lo[todo] < hi[todo]) & maybe[buf.take(edge, mode="clip")]]


def _read(source) -> tuple[np.ndarray, int]:
    """The UTF-8 bytes of an edge-list source as a ``uint8`` array, and their count n.

    Every kind of source comes back the same way: its n bytes, then zero
    bytes to the array's end, at least 8 of them. So an 8-byte window may
    start at any byte of the data. A path is read whole into such an
    array; a pipe, or a file that grew past its size, is read on to its
    end and copied once. ``bytes`` are copied once, and a file-like
    source is read (or its lines joined) and encoded. Raises
    ``UnicodeDecodeError`` on bytes that are not UTF-8.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            buf = np.zeros(size + 8, dtype=np.uint8)
            n = fh.readinto(buf[:size])
            rest = fh.read()  # what a pipe, or a file that grew, holds beyond its size
        data = buf[:n].tobytes() + rest if rest else None
    elif isinstance(source, bytes):
        data = source
    else:  # file-like: may hold bytes or text
        chunks = [source.read()] if hasattr(source, "read") else source
        data = "".join(c.decode("utf-8") if isinstance(c, bytes) else c
                       for c in chunks).encode("utf-8")
    if data is not None:
        buf, n = np.frombuffer(data + bytes(8), dtype=np.uint8), len(data)
    if n and buf[:n].max() >= 0x80:
        codecs.utf_8_decode(buf[:n], "strict", True)
    return buf, n


def _line_ends(buf: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Positions of the line breaks in ``buf[lo:hi]``: each ``\\n``, and each ``\\r`` not before one.

    The ``\\r`` of a ``\\r\\n`` stays in its line, where stripping drops it.
    ``buf[hi]`` must exist: :func:`_read`'s zero tail provides it at the end.
    """
    at = np.flatnonzero(buf[lo:hi] <= 13) + lo
    byte = buf[at]
    end = byte == 10
    cr = np.flatnonzero(byte == 13)
    if cr.size:
        end[cr] = buf[at[cr] + 1] != 10
    return at[end]


def _find(buf: np.ndarray, lo: int, hi: int, sep: bytes) -> np.ndarray:
    """Start of every occurrence of ``sep`` in ``buf[lo:hi]``, overlapping ones too, in order."""
    seg = buf[lo:hi]
    at = np.flatnonzero(seg[:max(seg.size - len(sep) + 1, 0)] == sep[0])
    for k in range(1, len(sep)):
        at = at[seg[at + k] == sep[k]]
    return at + lo


def _block_fields(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, first_line: int,
                  sep: str) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of both fields of each record in a block of lines, source first.

    Line k of the block is ``buf[starts[k]:ends[k]]``, and the block's
    first line is line ``first_line`` of the stream. A line is stripped;
    it is a record unless it is then blank or starts with ``#``. A record
    must hold ``sep`` once, counted from the left without overlaps as
    ``str.split`` does, and both stripped fields must be non-empty. The
    first record that fails raises :class:`EdgeListParseError`, worked
    out from that record's own stripped bytes: "expected 2 fields" unless
    it holds ``sep`` once, else "empty node label".
    """
    lo, hi = starts.copy(), ends.copy()
    _strip(buf, lo, hi, True)
    _strip(buf, lo, hi, False)
    keep = np.flatnonzero((lo < hi) & (buf.take(lo, mode="clip") != ord(_COMMENT)))
    lo, hi = lo[keep], hi[keep]
    code = sep.encode("utf-8")
    width = len(code)
    # a record's first separator, and the next one that does not overlap it;
    # a sentinel past the buffer stands for "none"
    at = np.append(_find(buf, int(starts[0]), int(ends[-1]), code), buf.size + width)
    i = np.searchsorted(at, lo)
    first, second = at[i], at[np.minimum(i + 1, at.size - 1)]
    close = np.flatnonzero(second < first + width)  # only a self-overlapping sep has these
    second[close] = at[np.minimum(np.searchsorted(at, first[close] + width), at.size - 1)]
    once = (first <= hi - width) & (second > hi - width)
    src_end = np.where(once, first, hi)
    dst_start = np.where(once, first + width, hi)
    _strip(buf, lo, src_end, False)
    _strip(buf, dst_start, hi, True)
    bad = ~once | (src_end == lo) | (dst_start == hi)
    if bad.any():
        j = int(np.argmax(bad))
        got = buf[lo[j]:hi[j]].tobytes().decode("utf-8").count(sep) + 1
        raise EdgeListParseError(
            f"expected 2 fields separated by {sep!r}, got {got}" if got != 2
            else "empty node label", first_line + int(keep[j]))
    # int32 offsets halve the per-field arrays the parse keeps
    fields = np.empty((lo.size, 2), dtype=np.int32 if buf.size < _NARROW_OFFSETS else np.int64)
    lengths = np.empty_like(fields)
    fields[:, 0], fields[:, 1] = lo, dst_start
    lengths[:, 0], lengths[:, 1] = src_end - lo, hi - dst_start
    return fields.ravel(), lengths.ravel()


def _fields(buf: np.ndarray, n: int, sep: str):
    """Start and length of both fields of every record in ``buf[:n]``, source first.

    The bytes are parsed in blocks of about ``_BLOCK_BYTES``, cut at a line
    break, by :func:`_block_fields`. Returns ``(starts, lengths, parts)``,
    where ``parts`` holds the slice of the fields of each block. Raises
    ``ValueError`` when there is no record.
    """
    starts, lengths, parts = [], [], []
    lo, line, done = 0, 1, 0
    while lo < n:
        hi = min(lo + _BLOCK_BYTES, n)
        ends = _line_ends(buf, lo, hi)
        while not ends.size and hi < n:  # a line longer than the block
            hi = min(2 * hi - lo, n)
            ends = _line_ends(buf, lo, hi)
        if hi == n and (not ends.size or ends[-1] < n - 1):
            ends = np.append(ends, n)  # the last line has no break
        block_starts, block_lengths = _block_fields(
            buf, np.concatenate(([lo], ends[:-1] + 1)), ends, line, sep)
        if block_starts.size:
            starts.append(block_starts)
            lengths.append(block_lengths)
            parts.append(slice(done, done + block_starts.size))
            done += block_starts.size
        lo, line = int(ends[-1]) + 1, line + ends.size
    if not done:
        raise ValueError("edge-list stream contains no records")
    starts = np.concatenate(starts)  # each list goes before the next is joined
    return starts, np.concatenate(lengths), parts


def _words(buf: np.ndarray) -> np.ndarray:
    """Every 8-byte window of ``buf`` as a little-endian ``uint64``: window i starts at byte i."""
    return np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))


def _label_words(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """The labels at ``starts``, 8 bytes at a time: yields ``(fields, word)`` for j = 0, 1, ...

    ``fields`` are the positions in ``starts`` of the labels longer than 8j
    bytes (None at j = 0: all of them), and ``word`` holds their bytes 8j
    to 8j+7, zero past a label's end. Every window is read as it is:
    :func:`_read`'s zero tail keeps the last one inside the buffer.
    """
    fields, at, rest = None, starts, lengths
    while at.size:
        word = words[at]
        beyond = _BITS_BEYOND[np.minimum(rest, 8, out=np.empty(rest.size, dtype=np.uint8),
                                         casting="unsafe")]
        word <<= beyond
        word >>= beyond
        yield fields, word
        longer = np.flatnonzero(rest > 8)
        fields = longer if fields is None else fields[longer]
        at, rest = at[longer] + 8, rest[longer] - 8


# bits to clear at the top of a word that holds k of a label's bytes, by min(k, 8)
_BITS_BEYOND = np.array([0, 56, 48, 40, 32, 24, 16, 8, 0], dtype=np.uint8)
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so multiplying by it loses nothing


def _label_keys(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                salt: int) -> np.ndarray:
    """A 64-bit key of each label, mixed from its length, its words and ``salt``.

    Equal labels get equal keys. Unequal ones rarely collide, and never
    when both fit in one word and have one length; another ``salt`` mixes
    every key anew.
    """
    keys = lengths.astype(np.uint64)
    keys += np.uint64(salt << 32)
    keys *= _MIX
    for fields, word in _label_words(words, starts, lengths):
        mixed = keys if fields is None else keys[fields]
        mixed ^= word
        mixed *= _MIX
        np.right_shift(mixed, np.uint64(32), out=word)
        mixed ^= word
        if fields is not None:
            keys[fields] = mixed
    return keys


def _same_labels(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray, ids: np.ndarray,
                 first_starts: np.ndarray, first_lengths: np.ndarray,
                 first_word: np.ndarray) -> bool:
    """Whether the label of each field equals, byte for byte, that of its id's first field.

    Field i has id ``ids[i]``; the ``first_`` arrays describe each id's
    first field, and ``first_word`` holds its first 8 bytes.
    """
    if not (np.array_equal(first_lengths[ids], lengths)
            and np.array_equal(first_word[ids], next(_label_words(words, starts, lengths))[1])):
        return False
    longer = np.flatnonzero(lengths > 8)  # the rest of these, 8 bytes at a time
    rest = lengths[longer] - 8
    return all(
        np.array_equal(word, other)
        for (_, word), (_, other) in zip(_label_words(words, starts[longer] + 8, rest),
                                         _label_words(words, first_starts[ids[longer]] + 8, rest))
    )


def _intern(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray, parts: list[slice]):
    """Id of each field's label, and the first field of each id; ids follow first appearance.

    Fields are grouped by key with one in-place sort. Below
    ``_PACKED_FIELDS`` fields, the first try packs each field's index into
    the low b bits of its key, b being the bit length of the largest index,
    under the top 64 - b bits of the hash: the sorted keys then hold each
    group's fields in field order, so a group's first entry is its first
    field. Every field is then compared exactly with its group's first
    field; if two labels share a key, the next try mixes full 64-bit keys
    with the next salt, sorts them with an index and takes each group's
    smallest field. Ids come from the first fields alone, so they do not
    depend on the key. Keys and comparisons run over the fields of one
    ``parts`` slice at a time, so their scratch arrays stay small. At its
    peak the sort holds an 8-byte key and a 4-byte index a field; the
    full-key path's index is 8 bytes until the keys are freed.
    """
    low = (starts.size - 1).bit_length()  # bits of the largest field index
    index_bits = np.uint64((1 << low) - 1)
    for salt in count():
        packed = salt == 0 and starts.size <= _PACKED_FIELDS
        keys = np.empty(starts.size, dtype=np.uint64)
        for part in parts:
            key = _label_keys(words, starts[part], lengths[part], salt)
            if packed:
                key &= ~index_bits
                key |= np.arange(part.start, part.stop, dtype=np.uint64)
            keys[part] = key
        if packed:
            keys.sort()
            # the field indices, cast a buffer at a time as they are written
            order = np.bitwise_and(keys, index_bits,
                                   out=np.empty(keys.size, dtype=starts.dtype), casting="unsafe")
            keys >>= np.uint64(low)  # the hash alone
        else:
            order = keys.argsort()
            keys.sort()  # the same as keys[order], without a gather
        head = _run_starts(keys)  # where a key begins, in key order
        del keys
        order = order.astype(starts.dtype, copy=False)  # as narrow as the offsets from here on
        bounds = np.flatnonzero(head)
        del head
        # each key's first field: a packed group is in field order already
        first = order[bounds] if packed else np.minimum.reduceat(order, bounds)
        by_appearance = first.argsort()
        id_of = np.empty(first.size, dtype=starts.dtype)
        id_of[by_appearance] = np.arange(first.size)
        ids = np.empty_like(starts)
        ids[order] = np.repeat(id_of, np.diff(bounds, append=order.size))
        del order, bounds, id_of
        firsts = first[by_appearance]
        first_starts, first_lengths = starts[firsts], lengths[firsts]
        _, first_word = next(_label_words(words, first_starts, first_lengths))
        if all(_same_labels(words, starts[part], lengths[part], ids[part],
                            first_starts, first_lengths, first_word) for part in parts):
            return ids, firsts


def _label_text(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> bytes:
    """The labels at ``starts`` (increasing), joined by ``\\n``, in one gather."""
    end = np.cumsum(lengths + 1, dtype=starts.dtype)  # past each label and the "\n" after it
    begin = end - lengths - 1
    # the source byte of each slot, consecutive within a label; a "\n" slot
    # reads the byte after its label until it is overwritten, and the last
    # label's is left out, since that label may end the data
    at = np.ones(end[-1] - 1, dtype=starts.dtype)
    at[0] = starts[0]
    at[begin[1:]] = starts[1:] - starts[:-1] - lengths[:-1]
    np.cumsum(at, out=at)
    text = buf[at]
    del at
    text[end[:-1] - 1] = ord("\n")
    return text.tobytes()


def load_edge_list(
    source: Union[str, Path, bytes, IO],
    sep: str = ",",
) -> DirectedGraph:
    """Parse a ``follower<SEP>followee`` edge list into a graph.

    One edge per line, UTF-8. ``\\n``, ``\\r\\n`` and a lone ``\\r`` each
    end a line, for a path, ``bytes`` and a file-like source alike. Lines
    and fields are stripped as ``str.strip`` does, non-ASCII spaces
    included; lines starting with ``#`` and blank lines are skipped.
    Duplicate records are collapsed and self-loops dropped with a counted
    warning. Node ids follow the order in which labels first appear.
    Raises :class:`EdgeListParseError` with the offending line number on
    malformed records and ``ValueError`` when the stream contains no
    records at all, or when ``sep`` is empty or holds a line break.

    The parse works on the source's bytes as one NumPy array, in blocks
    of lines (``_BLOCK_BYTES``); no Python object is made per line. Every
    kind of source, a pipe included, ends in 8 zero bytes there, and a
    malformed record's error comes from its own stripped bytes. Labels
    are interned by one in-place sort of 64-bit keys and an exact byte
    comparison (see :func:`_intern`), and only their first occurrences are
    decoded. Below ``_PACKED_FIELDS`` (2**24) fields each key carries its
    field's index in its low bits and keeps at least 40 hash bits; beyond
    that bound, or when two labels share a key, the keys are full 64-bit
    hashes sorted with an index. Beyond the source's bytes, the parse
    keeps an int32 start and length a field (int64 from 2 GiB), and while
    it sorts, a 64-bit key and an int32 index a field: about 21 bytes a
    field at its peak, 25 on full keys. The int32 ids go to the graph
    build as they are.
    """
    if not sep or "\n" in sep or "\r" in sep:
        raise ValueError(f"separator must be non-empty without a line break, got {sep!r}")
    buf, n = _read(source)
    starts, lengths, parts = _fields(buf, n, sep)
    ids, firsts = _intern(_words(buf), starts, lengths, parts)
    text = _label_text(buf, starts[firsts], lengths[firsts])
    del buf, starts, lengths, firsts  # freed before the labels become strings
    labels = text.decode("utf-8").split("\n")
    del text
    # the int32 ids go to the build as they are: it widens only its keys
    return DirectedGraph.from_edges(ids.reshape(-1, 2), node_count=len(labels), labels=labels)
