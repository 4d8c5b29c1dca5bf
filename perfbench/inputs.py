"""Seeded input generators for the benchmark workloads.

Every generator is O(edges) NumPy code of the benchmark's own, so the
checks can recompute expected results from the generator's arrays without
going through the program. ``cohprop.synthetic.generate_planted`` is used
only for the frozen acceptance fixture, because it is O(n^2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Frozen acceptance fixture of tests/test_acceptance.py (criteria 6 and 7).
PLANTED = dict(
    n_nodes=5000, n_elites=50, feature_dim=2, mixture_spread=0.045, beta=5.0,
    elite_attractiveness=120.0, mean_out_degree=4.0, seed=7,
)
PLANTED_POOL = dict(size=260, grid_bins=12, seed=7)
PLANTED_K = 20
PLANTED_FOLD_SEED = 7
# every other threshold of the fixture's 10-point grid
PLANTED_GRID = np.round(np.linspace(0.07, 0.31, 10), 4).tolist()[::2]


@dataclass(frozen=True)
class EdgeArrays:
    """A generated follow graph: edge ``src[i] -> dst[i]`` over ids 0..n-1.

    The arrays may hold self-loops and duplicate pairs, as raw edge lists do.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) % 2**64, tag]))


def _latent_ranks(rng, n):
    """Random position rank of each node on the latent axis, and its inverse."""
    rank = rng.permutation(n)
    node_at = np.empty(n, dtype=np.int64)
    node_at[rank] = np.arange(n)
    return rank, node_at


def _homophilous_follows(rng, rank, node_at, mean_out, window, long_share):
    """Poisson out-degrees; targets near the source's rank, a share uniform."""
    n = rank.size
    src = np.repeat(np.arange(n, dtype=np.int64), rng.poisson(mean_out, n))
    target_rank = rank[src] + np.rint(rng.normal(0.0, window, src.size)).astype(np.int64)
    np.clip(target_rank, 0, n - 1, out=target_rank)
    far = rng.random(src.size) < long_share
    target_rank[far] = rng.integers(0, n, int(far.sum()))
    return src, node_at[target_rank]


# -- pipeline-200k -------------------------------------------------------------

LADDER = dict(
    n=200_000, n_elites=200, mean_out=2.5, window=1500, long_share=0.1,
    engaged_share=0.12, elite_follows=3, extra_elite_follows=1.5, elite_sigma=2.0,
)


def ladder_graph(seed: int, scale: float = 1.0):
    """Homophilous ladder graph with a connected follower/elite layer.

    Nodes sit at random ranks on one latent axis; ordinary follows land near
    the source's rank (a tenth anywhere). 200 elites sit at even steps of the
    axis. An engaged 12% of the other nodes follow 3 + Poisson(1.5) elites
    drawn around their own position (sd 2 elite steps), so neighbouring
    elites share followers and the follower/elite matrix is one connected
    block. Returns ``(EdgeArrays, elite ids)``.
    """
    p = LADDER
    n = max(int(p["n"] * scale), 2000)
    rng = _rng(seed, 1)
    rank, node_at = _latent_ranks(rng, n)
    src, dst = _homophilous_follows(rng, rank, node_at, p["mean_out"], p["window"] * scale,
                                    p["long_share"])
    n_el = p["n_elites"]
    elites = node_at[((np.arange(n_el) + 0.5) * n / n_el).astype(np.int64)]
    is_elite = np.zeros(n, dtype=bool)
    is_elite[elites] = True
    engaged = np.flatnonzero((rng.random(n) < p["engaged_share"]) & ~is_elite)
    follows = p["elite_follows"] + rng.poisson(p["extra_elite_follows"], engaged.size)
    esrc = np.repeat(engaged, follows)
    at = rank[esrc] * n_el / n - 0.5 + rng.normal(0.0, p["elite_sigma"], esrc.size)
    col = np.clip(np.rint(at), 0, n_el - 1).astype(np.int64)
    edges = EdgeArrays(n, np.concatenate([src, esrc]), np.concatenate([dst, elites[col]]))
    return edges, elites


LABEL_PREFIX = "u"  # node label of generator id i in the edge file


def label(i) -> str:
    return f"{LABEL_PREFIX}{i}"


def node_of(text: str) -> int:
    return int(text[len(LABEL_PREFIX):])


def write_edge_file(path, edges: EdgeArrays) -> None:
    """``follower,followee`` lines of node labels, in generation order."""
    src = np.char.add(LABEL_PREFIX, edges.src.astype(str))
    dst = np.char.add(LABEL_PREFIX, edges.dst.astype(str))
    body = np.char.add(np.char.add(src, ","), dst)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(body.tolist()))
        fh.write("\n")


# -- hubs-down -----------------------------------------------------------------

HUBS = dict(
    n=200_000, n_hubs=4000, pareto_alpha=1.3, hub_follows=3.0, hub_window=100,
    mean_out=4.0, window=400, noise=0.03, seed_share=0.1,
)


def latent_features(s: np.ndarray) -> np.ndarray:
    """Planted 2-D features along the latent axis s in [0, 1)."""
    return np.stack([4.0 * s - 2.0, 0.6 * np.sin(4.0 * np.pi * s)], axis=1)


def hubs_graph(seed: int, scale: float = 1.0):
    """Homophilous graph with heavy-tailed in-degree, plus planted truth.

    4000 hubs sit at even steps of the latent axis. Hub weights are the
    quantiles of a Pareto(1.3) law, dealt to hubs in seeded order, so every
    seed gets the same weight profile. Each node follows Poisson(3) hubs
    drawn by weight among the 201 hubs nearest its position, and Poisson(4)
    ordinary nodes near its rank. Returns ``(EdgeArrays, features, seed
    ids)`` where the seed is a seeded 10% of the nodes.
    """
    p = HUBS
    n = max(int(p["n"] * scale), 2000)
    n_hubs = max(int(p["n_hubs"] * scale), 40)
    rng = _rng(seed, 2)
    rank, node_at = _latent_ranks(rng, n)
    feats = latent_features(rank / n) + rng.normal(0.0, p["noise"], (n, 2))

    hubs = node_at[((np.arange(n_hubs) + 0.5) * n / n_hubs).astype(np.int64)]
    quantiles = (np.arange(n_hubs) + 0.5) / n_hubs
    weights = rng.permutation((1.0 - quantiles) ** (-1.0 / p["pareto_alpha"]))
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    hsrc = np.repeat(np.arange(n, dtype=np.int64), rng.poisson(p["hub_follows"], n))
    at = (rank[hsrc] * n_hubs // n).astype(np.int64)
    lo = np.clip(at - p["hub_window"], 0, n_hubs)
    hi = np.clip(at + p["hub_window"] + 1, 0, n_hubs)
    draw = cum[lo] + rng.random(hsrc.size) * (cum[hi] - cum[lo])
    pick = np.clip(np.searchsorted(cum, draw, side="right") - 1, lo, hi - 1)

    src, dst = _homophilous_follows(rng, rank, node_at, p["mean_out"], p["window"] * scale, 0.0)
    edges = EdgeArrays(n, np.concatenate([hsrc, src]), np.concatenate([hubs[pick], dst]))
    seed_ids = np.sort(rng.choice(n, int(n * p["seed_share"]), replace=False))
    return edges, feats, seed_ids
