"""Seed feature space from a bipartite follower/elite matrix.

The scaling pipeline filters the binary follower-by-elite adjacency matrix
(minimum follower degree, duplicate-row removal for full rank), runs a
correspondence analysis on it, and turns the follower principal
coordinates into known seed features. Duplicated followers inherit the
coordinates of their representative row.

Principal coordinates are used for rows and columns alike so followers and
elites live in one comparable space. Dimensions are reported in descending
singular-value order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, svds

from .features import FeatureStore
from .graph import DirectedGraph, Direction, as_node_array, linked

__all__ = [
    "BipartiteAdjacency",
    "ScalingResult",
    "RankDeficiencyError",
    "bipartite_from_graph",
    "filter_bipartite",
    "correspondence_analysis",
    "seed_features_from_scaling",
]

DENSE_CUTOFF = 2000  # no sparse iteration below this size
ZERO_INERTIA = 1e-12
SVD_TOL = 1e-10  # convergence tolerance of the iterative sparse SVD


class RankDeficiencyError(ValueError):
    """Requested more dimensions than the matrix supports."""

    def __init__(self, requested: int, achieved: int):
        super().__init__(
            f"requested {requested} dimensions but the standardized matrix "
            f"achieves rank {achieved}"
        )
        self.requested = requested
        self.achieved = achieved


@dataclass(frozen=True)
class BipartiteAdjacency:
    """Sparse 0/1 matrix with rows = followers and columns = elites."""

    matrix: sp.csr_matrix
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != len(self.row_labels) or m.shape[1] != len(self.col_labels):
            raise ValueError("label lists must match the matrix shape")
        if m.nnz and not np.all(m.data == 1):
            raise ValueError("adjacency entries must be 0 or 1")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def bipartite_from_graph(g: DirectedGraph, elites) -> BipartiteAdjacency:
    """Follower-by-elite incidence of everyone following at least one elite.

    The rows of the forward CSR for those followers, keeping only the elite
    columns; an elite that follows another elite is a follower row too.
    Followers and rows come from one :func:`cohprop.graph.linked` gather.
    """
    elites = as_node_array(elites, g.node_count)
    if elites.size == 0:
        raise ValueError("elite set is empty")
    followers, (indices, indptr) = linked(g, np.ones(g.node_count, dtype=bool), elites,
                                          Direction.UP)
    if followers.size == 0:
        raise ValueError("no follower of any elite in the graph")
    # built from the arrays, csr_matrix picks int32 indices where they fit
    matrix = sp.csr_matrix((np.ones(indices.size, dtype=np.int8), indices, indptr),
                           shape=(followers.size, elites.size))
    label = g.labels.__getitem__
    return BipartiteAdjacency(matrix, tuple(map(label, followers.tolist())),
                              tuple(map(label, elites.tolist())))


def filter_bipartite(
    adj: BipartiteAdjacency, min_degree: int = 3
) -> tuple[BipartiteAdjacency, dict[str, str]]:
    """Drop thin rows, deduplicate row profiles, drop emptied columns.

    Rows with fewer than ``min_degree`` ones are removed first. Duplicate
    rows keep the first occurrence; the returned map sends each removed
    duplicate's label to its representative so duplicates can inherit
    coordinates later. Columns left without any one are dropped.
    """
    if int(min_degree) < 1:
        raise ValueError("min_degree must be >= 1")
    m: sp.csr_matrix = adj.matrix.tocsr()
    m.sort_indices()
    degrees = np.diff(m.indptr)
    kept_rows = np.flatnonzero(degrees >= int(min_degree))
    if kept_rows.size == 0:
        raise ValueError("filtering removed every row")

    dedup: dict[str, str] = {}
    first_by_profile: dict[bytes, int] = {}
    unique_rows: list[int] = []
    for i in kept_rows.tolist():
        profile = m.indices[m.indptr[i]:m.indptr[i + 1]].tobytes()
        rep = first_by_profile.get(profile)
        if rep is None:
            first_by_profile[profile] = i
            unique_rows.append(i)
        else:
            dedup[adj.row_labels[i]] = adj.row_labels[rep]

    sub = m[unique_rows, :]
    col_degrees = np.asarray(sub.sum(axis=0)).ravel()
    kept_cols = np.flatnonzero(col_degrees > 0)
    if kept_cols.size == 0:
        raise ValueError("filtering removed every column")
    sub = sub[:, kept_cols].tocsr()
    filtered = BipartiteAdjacency(
        sub,
        tuple(adj.row_labels[i] for i in unique_rows),
        tuple(adj.col_labels[j] for j in kept_cols.tolist()),
    )
    return filtered, dedup


@dataclass(frozen=True)
class ScalingResult:
    """Row/column principal coordinates plus the spectrum behind them.

    ``singular_values`` and ``inertia_fractions`` cover every computed
    dimension (the full spectrum on the dense path); coordinates keep the
    leading ``n_dims`` only. ``total_inertia`` is the squared Frobenius
    norm of the standardized residual matrix, so the inertia fractions over
    the full spectrum sum to one.
    """

    row_coords: np.ndarray
    col_coords: np.ndarray
    singular_values: np.ndarray
    inertia_fractions: np.ndarray
    total_inertia: float
    n_dims: int
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]


def _masses(matrix: sp.csr_matrix):
    grand = matrix.sum()
    if grand == 0:
        raise ValueError("adjacency matrix has no entries")
    P = matrix.astype(np.float64) / grand
    r = np.asarray(P.sum(axis=1)).ravel()
    c = np.asarray(P.sum(axis=0)).ravel()
    if (r <= 0).any() or (c <= 0).any():
        raise ValueError("zero row or column mass; filter the matrix first")
    return P, r, c


def _fix_signs(U: np.ndarray, Vt: np.ndarray):
    # per-dimension sign convention: largest-magnitude row loading positive
    for k in range(U.shape[1]):
        j = int(np.argmax(np.abs(U[:, k])))
        if U[j, k] < 0:
            U[:, k] = -U[:, k]
            Vt[k, :] = -Vt[k, :]
    return U, Vt


def correspondence_analysis(
    adj: BipartiteAdjacency,
    n_dims: int,
    seed: int = 0,
) -> ScalingResult:
    """Correspondence analysis of a filtered 0/1 bipartite matrix.

    Standardized residuals of the relative-frequency matrix under the
    independence model are decomposed by SVD; row and column principal
    coordinates are the mass-weighted singular vectors scaled by the
    singular values, and each dimension explains a
    ``sigma_k**2 / total_inertia`` fraction of the inertia.

    Matrices with both sides below ``DENSE_CUTOFF`` use a dense SVD,
    larger ones an iterative sparse SVD with a seeded start vector.
    A matrix whose rows are all proportional carries zero inertia and
    yields all-zero coordinates; otherwise requesting more dimensions than
    the achieved rank raises :class:`RankDeficiencyError`.
    """
    n_dims = int(n_dims)
    if n_dims < 1:
        raise ValueError("n_dims must be >= 1")
    P, r, c = _masses(adj.matrix)
    n_rows, n_cols = P.shape
    structural = min(n_rows, n_cols) - 1
    if n_dims > structural:
        raise RankDeficiencyError(n_dims, max(structural, 0))

    sqrt_r = np.sqrt(r)
    sqrt_c = np.sqrt(c)
    # total inertia of the standardized residuals, computed sparsely:
    # sum(P_ij^2 / (r_i c_j)) - 1
    coo = P.tocoo()
    total = float(np.sum(coo.data**2 / (r[coo.row] * c[coo.col])) - 1.0)
    total = max(total, 0.0)

    if total <= ZERO_INERTIA:
        zeros = np.zeros(n_dims)
        return ScalingResult(
            row_coords=np.zeros((n_rows, n_dims)),
            col_coords=np.zeros((n_cols, n_dims)),
            singular_values=zeros,
            inertia_fractions=zeros,
            total_inertia=0.0,
            n_dims=n_dims,
            row_labels=adj.row_labels,
            col_labels=adj.col_labels,
        )

    if max(n_rows, n_cols) < DENSE_CUTOFF:
        S = np.asarray(P.todense())
        S -= np.outer(r, c)
        S /= np.outer(sqrt_r, sqrt_c)
        U, sigma, Vt = np.linalg.svd(S, full_matrices=False)
        total = float(np.sum(sigma**2))
    else:
        Pcsr = P.tocsr()

        def matvec(x):
            x = np.ravel(x)
            return (Pcsr @ (x / sqrt_c)) / sqrt_r - sqrt_r * (sqrt_c @ x)

        def rmatvec(y):
            y = np.ravel(y)
            return (Pcsr.T @ (y / sqrt_r)) / sqrt_c - sqrt_c * (sqrt_r @ y)

        op = LinearOperator((n_rows, n_cols), matvec=matvec, rmatvec=rmatvec, dtype=np.float64)
        v0 = np.random.default_rng(seed).standard_normal(min(n_rows, n_cols))
        U, sigma, Vt = svds(op, k=n_dims, tol=SVD_TOL, v0=v0)
        order = np.argsort(sigma)[::-1]
        U, sigma, Vt = U[:, order], sigma[order], Vt[order, :]

    rank_tol = sigma[0] * max(n_rows, n_cols) * np.finfo(np.float64).eps
    achieved = int(np.sum(sigma > rank_tol))
    if achieved < n_dims:
        raise RankDeficiencyError(n_dims, achieved)

    U, Vt = _fix_signs(U, Vt)
    rows = (U[:, :n_dims] * sigma[:n_dims]) / sqrt_r[:, None]
    cols = (Vt[:n_dims].T * sigma[:n_dims]) / sqrt_c[:, None]
    return ScalingResult(
        row_coords=rows,
        col_coords=cols,
        singular_values=sigma,
        inertia_fractions=sigma**2 / total,
        total_inertia=total,
        n_dims=n_dims,
        row_labels=adj.row_labels,
        col_labels=adj.col_labels,
    )


def seed_features_from_scaling(
    result: ScalingResult,
    dedup_map: Mapping[str, str] | None,
    graph: DirectedGraph,
) -> FeatureStore:
    """Known seed features from follower coordinates, duplicates included.

    Every follower row becomes a known entry keyed by its graph node id,
    and every label in ``dedup_map`` inherits its representative's
    coordinates. Elite column coordinates stay on the result for separate
    export.
    """
    if result.n_dims < 1:
        raise ValueError("scaling result carries no dimensions")
    dedup = dedup_map or {}
    row_of = {label: i for i, label in enumerate(result.row_labels)}
    labels = [*result.row_labels, *dedup]
    store = FeatureStore(result.n_dims)
    store.set_known_many([graph.id_of(label) for label in labels],
                         result.row_coords[[row_of[dedup.get(label, label)] for label in labels]])
    return store
