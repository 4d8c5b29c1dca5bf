"""Planted directed graphs with ground-truth features.

Node features come from a Gaussian mixture; a directed edge u -> v is
drawn with probability proportional to ``attractiveness(v) *
exp(-beta * ||e(u) - e(v)||^2)``, with per-source target counts calibrated
so the mean out-degree hits the configured value. Elites are a designated
high-attractiveness subset (the first ids), so the follower/elite bipartite
construction can be exercised on generated data.

Randomness uses NumPy's PCG64: one root stream for features plus one
spawned child stream per source node, so generation is reproducible for a
given seed and numpy version and could run parallel over sources.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass
from numbers import Integral, Real
from typing import Optional, Sequence

import numpy as np

from .features import FeatureStore, _write_json
from .graph import DirectedGraph

__all__ = ["PlantedConfig", "generate_planted"]


@dataclass(frozen=True)
class PlantedConfig:
    """Knobs for one planted graph."""

    n_nodes: int
    n_elites: int
    feature_dim: int = 2
    mixture_components: int = 3
    mixture_spread: float = 0.3
    mixture_centers: Optional[Sequence[Sequence[float]]] = None
    beta: float = 1.0
    elite_attractiveness: float = 10.0
    mean_out_degree: float = 10.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_nodes < 1 or self.n_elites < 1 or self.feature_dim < 1:
            raise ValueError("node, elite and dimension counts must be >= 1")
        if self.n_elites > self.n_nodes:
            raise ValueError("more elites than nodes")
        if self.mixture_components < 1 or self.mixture_spread <= 0:
            raise ValueError("mixture needs >= 1 component and positive spread")
        if self.mixture_centers is not None:
            centers = np.asarray(self.mixture_centers, dtype=np.float64)
            if centers.shape != (self.mixture_components, self.feature_dim):
                raise ValueError(
                    "mixture_centers must have shape (components, feature_dim)"
                )
        if self.beta < 0:
            raise ValueError("homophily strength beta must be >= 0")
        if self.elite_attractiveness <= 0:
            raise ValueError("elite attractiveness must be > 0")
        if not (0 < self.mean_out_degree <= self.n_nodes - 1):
            raise ValueError(
                f"mean out-degree {self.mean_out_degree} infeasible for "
                f"{self.n_nodes} nodes"
            )

    def to_json(self, path) -> None:
        _write_json(path, asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "PlantedConfig":
        """A validated config from a JSON object, with each key's type checked first."""
        if not isinstance(data, dict):
            raise ValueError(f"a planted config must be a JSON object, got {data!r}")
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = [name for name, f in fields.items() if f.default is MISSING and name not in data]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        for key, value in data.items():
            if key == "mixture_centers":
                ok = value is None or (isinstance(value, (list, tuple)) and all(
                    isinstance(row, (list, tuple)) and all(map(_is_number, row)) for row in value))
                want = "null or a list of rows of numbers"
            elif fields[key].type == "int":  # annotations are strings here
                ok, want = _is_number(value, Integral), "an integer"
            else:
                ok, want = _is_number(value), "a number"
            if not ok:
                raise ValueError(f"config key {key!r} must be {want}, got {value!r}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "PlantedConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _is_number(value, kind=Real) -> bool:
    """Whether ``value`` is a number of ``kind``; ``True`` and ``False`` are not numbers here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def graded_mixture_centers() -> list[tuple[float, float]]:
    """2-D cluster layout with a graded neighborhood-coherence ladder.

    Six tight isolated clusters (triple mass) anchor the low end; pairs with
    gaps from 0.18 to 0.36 and short chains of pitch 0.25-0.28 populate the
    middle and high end. With ``beta=5`` the follower sets of attractive
    nodes in these structures span incoherence values from roughly 0.07
    (isolated cluster) up to 0.3 (chain interior), so threshold sweeps over
    that range shift recovery from precise to polluted cohorts. Used by the
    stock accuracy/coverage experiment; pair with ``mixture_spread=0.045``.
    """
    tight = [(-2.7, -2.5), (-2.7, 2.7), (2.8, 2.8), (-1.6, 1.0), (0.8, 2.7), (-0.2, 0.6)]
    centers = [p for p in tight for _ in range(3)]
    centers += [(-2.6, 0.2), (-2.42, 0.2)]      # pair, gap 0.18
    centers += [(-0.7, 2.6), (-0.46, 2.6)]      # pair, gap 0.24
    centers += [(2.7, 0.9), (2.7, 1.20)]        # pair, gap 0.30
    centers += [(-2.5, -1.1), (-2.5, -0.74)]    # pair, gap 0.36
    centers += [(-1.2, -2.5), (-0.95, -2.5), (-0.7, -2.5)]   # chain, pitch 0.25
    centers += [(1.6 + 0.25 * j, -0.9) for j in range(4)]    # chain, pitch 0.25
    centers += [(0.6, -2.5 + 0.28 * j) for j in range(4)]    # chain, pitch 0.28
    return centers


def generate_planted(cfg: PlantedConfig):
    """Sample (graph, truth store, elite ids) for a planted configuration."""
    cfg.validate()
    n, dim = cfg.n_nodes, cfg.feature_dim
    root_ss = np.random.SeedSequence(cfg.seed)
    rng = np.random.default_rng(root_ss)

    if cfg.mixture_centers is not None:
        centers = np.asarray(cfg.mixture_centers, dtype=np.float64)
    else:
        centers = rng.uniform(-2.0, 2.0, size=(cfg.mixture_components, dim))
    component = rng.integers(cfg.mixture_components, size=n)
    feats = centers[component] + rng.normal(0.0, cfg.mixture_spread, size=(n, dim))

    elites = np.arange(cfg.n_elites, dtype=np.int64)
    attractiveness = np.ones(n)
    attractiveness[elites] = cfg.elite_attractiveness

    edges_src: list[np.ndarray] = []
    edges_dst: list[np.ndarray] = []
    child_seeds = root_ss.spawn(n)
    for u in range(n):
        source_rng = np.random.default_rng(child_seeds[u])
        if cfg.beta > 0:
            sq = np.sum((feats - feats[u]) ** 2, axis=1)
            weights = attractiveness * np.exp(-cfg.beta * sq)
        else:
            weights = attractiveness.copy()
        weights[u] = 0.0
        available = int(np.count_nonzero(weights))
        k = min(int(source_rng.poisson(cfg.mean_out_degree)), available)
        if k == 0:
            continue
        # weighted sampling without replacement via exponential races
        races = source_rng.exponential(1.0, size=n)
        with np.errstate(divide="ignore"):
            keys = np.where(weights > 0, races / weights, np.inf)
        targets = np.argpartition(keys, k - 1)[:k]
        edges_src.append(np.full(k, u, dtype=np.int64))
        edges_dst.append(targets.astype(np.int64))

    if edges_src:
        pairs = np.stack(
            [np.concatenate(edges_src), np.concatenate(edges_dst)], axis=1
        )
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    graph = DirectedGraph.from_edges(pairs, node_count=n)

    truth = FeatureStore(dim)
    truth.set_known_many(np.arange(n), feats)
    return graph, truth, elites
