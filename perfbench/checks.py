"""Output checks computed apart from the program.

The reference side never calls into ``cohprop``: adjacency comes from the
generator's own arrays through ``np.unique``/``np.argsort``, gated sets are
enumerated with Python sets, and coherence uses the textbook formula. Each
check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import numpy as np
from scipy.stats import spearmanr

from inputs import EdgeArrays

TOL = 1e-12


class Adjacency:
    """Deduplicated, loop-free adjacency of generated edge arrays."""

    def __init__(self, edges: EdgeArrays):
        self.n = n = edges.n
        keep = edges.src != edges.dst
        code = np.unique(edges.src[keep] * n + edges.dst[keep])
        self.src, self.dst = code // n, code % n
        self.edge_count = int(code.size)
        # nodes named in the arrays, self-loop records included
        self.node_count = int(np.unique(np.concatenate([edges.src, edges.dst])).size)
        self._fwd_ptr = np.concatenate([[0], np.cumsum(np.bincount(self.src, minlength=n))])
        order = np.argsort(self.dst, kind="stable")
        self._rev = self.src[order]
        self._rev_ptr = np.concatenate([[0], np.cumsum(np.bincount(self.dst, minlength=n))])

    def followees(self, v: int) -> set:
        return set(self.dst[self._fwd_ptr[v]:self._fwd_ptr[v + 1]].tolist())

    def followers(self, v: int) -> set:
        return set(self._rev[self._rev_ptr[v]:self._rev_ptr[v + 1]].tolist())

    def in_degree(self) -> np.ndarray:
        return np.diff(self._rev_ptr)


def naive_incoherence(vectors) -> float:
    x = np.asarray(vectors, dtype=np.float64)
    diffs = x - x.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum(diffs * diffs, axis=1))))


def _mean(ids, feats) -> np.ndarray:
    return np.asarray([feats[v] for v in sorted(ids)], dtype=np.float64).mean(axis=0)


class Step0:
    """First-step expectations of methods A and B by set enumeration.

    ``up`` selects the propagation direction: up walks to followees, down
    to followers. ``feats[v]`` is a seed feature, ``in_seed[v]`` marks the
    seed set.
    """

    def __init__(self, adj: Adjacency, up: bool, feats, in_seed: np.ndarray, epsilon: float):
        self.out_nb = adj.followees if up else adj.followers
        self.back_nb = adj.followers if up else adj.followees
        self.feats, self.in_seed, self.eps = feats, in_seed, epsilon
        self._gate: dict[int, tuple] = {}

    def back_in_seed(self, v: int) -> list:
        return [u for u in self.back_nb(v) if self.in_seed[u]]

    def gate(self, v: int):
        """(passes, provisional feature) of v's back-connections into the seed."""
        hit = self._gate.get(v)
        if hit is None:
            back = self.back_in_seed(v)
            if not back:
                hit = (False, None)
            else:
                hit = (naive_incoherence([self.feats[u] for u in back]) <= self.eps + TOL,
                       _mean(back, self.feats))
            self._gate[v] = hit
        return hit

    def method_a(self, v: int, est) -> list[str]:
        back = self.back_in_seed(v)
        if self.in_seed[v] or not back:
            return [f"A: node {v} is a seed or has no back-connection into the seed"]
        if naive_incoherence([self.feats[u] for u in back]) > self.eps + TOL:
            return [f"A: node {v} added although its back-connections are incoherent"]
        gap = float(np.max(np.abs(_mean(back, self.feats) - est)))
        return [f"A: node {v} estimate off by {gap:.3e}"] if gap > TOL else []

    def method_b(self, v: int, est) -> list[str]:
        if self.in_seed[v]:
            return [f"B: seed node {v} re-estimated"]
        if self.back_in_seed(v) and not self.gate(v)[0]:
            return [f"B: node {v} failed the pivot gate yet was added"]
        pivots = [p for p in self.out_nb(v) if self.gate(p)[0]]
        if not pivots:
            return [f"B: node {v} added without a pivot"]
        if naive_incoherence([self.gate(p)[1] for p in sorted(pivots)]) > self.eps + TOL:
            return [f"B: node {v} added although its pivots disagree"]
        pool = {u for p in pivots for u in self.back_nb(p) if self.in_seed[u]}
        gap = float(np.max(np.abs(_mean(pool, self.feats) - est)))
        return [f"B: node {v} co-neighbour mean off by {gap:.3e}"] if gap > TOL else []


def in_box(estimates: np.ndarray, seed_values: np.ndarray) -> list[str]:
    lo, hi = seed_values.min(axis=0) - TOL, seed_values.max(axis=0) + TOL
    outside = int(np.sum(np.any((estimates < lo) | (estimates > hi), axis=1)))
    return [f"{outside} estimates outside the seed bounding box"] if outside else []


def sample(ids: np.ndarray, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) % 2**64, 99]))
    ids = np.asarray(ids)
    return rng.choice(ids, min(count, ids.size), replace=False) if ids.size else ids


def ca_reference(adj: Adjacency, elites: np.ndarray, min_degree: int, n_dims: int) -> dict:
    """Filtered follower/elite matrix and its leading singular values, densely."""
    col_of = np.full(adj.n, -1)
    col_of[elites] = np.arange(elites.size)
    hit = col_of[adj.dst] >= 0
    followers, row = np.unique(adj.src[hit], return_inverse=True)
    m = np.zeros((followers.size, elites.size), dtype=np.uint8)
    m[row, col_of[adj.dst[hit]]] = 1
    kept = m[m.sum(axis=1) >= min_degree]
    unique = np.unique(kept, axis=0)
    unique = unique[:, unique.sum(axis=0) > 0].astype(np.float64)
    p = unique / unique.sum()
    r, c = p.sum(axis=1), p.sum(axis=0)
    s = (p - np.outer(r, c)) / np.sqrt(np.outer(r, c))
    sigma = np.linalg.svd(s, compute_uv=False)
    return {"rows": int(unique.shape[0]), "cols": int(unique.shape[1]),
            "duplicates_reassigned": int(kept.shape[0] - unique.shape[0]),
            "singular_values": sigma[:n_dims]}


def ca_report(report: dict, ref: dict) -> list[str]:
    problems = [f"scale: {key} {report[key]} != {ref[key]}"
                for key in ("rows", "cols", "duplicates_reassigned") if report[key] != ref[key]]
    got = np.asarray(report["singular_values"][:ref["singular_values"].size])
    gap = float(np.max(np.abs(got - ref["singular_values"]) / ref["singular_values"]))
    if gap > 1e-8:
        problems.append(f"scale: svds singular values off the dense SVD by {gap:.2e} (relative)")
    return problems


def criteria_6_7(grid, sweep_rows, kfold_rows, k: int) -> list[str]:
    """Criteria 6 and 7 of the acceptance suite, on the benchmark's grid."""
    def row(rows, **want):
        return next(r for r in rows if all(getattr(r, key) == val for key, val in want.items()))

    problems = []
    a_err = [row(sweep_rows, epsilon=e, stat="mean").error for e in grid]
    b_med = [row(kfold_rows, epsilon=e, fold=None, stat="median").error for e in grid]
    if any(x is None for x in a_err + b_med):
        return ["criterion 6: missing error at some threshold"]
    if not all(b < a for a, b in zip(a_err, b_med)):
        problems.append(f"criterion 6: method B median error {b_med} not below method A {a_err}")
    rho = float(spearmanr(grid, b_med).statistic)
    if not rho >= 0.8:
        problems.append(f"criterion 6: Spearman(eps, B median error) = {rho:.3f} < 0.8")
    for fold in range(k):
        sizes = [row(kfold_rows, epsilon=e, fold=fold, stat="mean").size_pivots for e in grid]
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            problems.append(f"criterion 7: pivot counts of fold {fold} shrink with eps: {sizes}")
    if not row(kfold_rows, epsilon=grid[0], fold=None, stat="median").coverage > 0.0:
        problems.append("criterion 7: zero median coverage at the lowest threshold")
    return problems
