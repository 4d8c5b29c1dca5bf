"""Command-line pipeline: ingest, scale, generate, propagate, evaluate, report.

Each run validates its parameters, writes its outputs, and drops a
manifest (resolved parameters, input hashes, library versions) next to
them so results can be reproduced byte for byte. Defaults can come from a
JSON config file ({"global": {...}, "<subcommand>": {...}}); explicit
flags win over the config file, which wins over the environment variable
COHPROP_OUTDIR.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .evaluation import (
    CSV_COLUMNS,
    kfold_eval_method_b,
    spatial_uniform_sample,
    sweep_method_a,
)
from .features import (
    _csv_rows,
    _write_csv,
    _write_json,
    read_features_csv,
    write_features_csv,
    write_labeled_features_csv,
)
from .graph import DirectedGraph, Direction, load_edge_list
from .method_a import run_method_a
from .method_b import run_method_b
from .scaling import (
    bipartite_from_graph,
    correspondence_analysis,
    filter_bipartite,
    seed_features_from_scaling,
)
from .synthetic import PlantedConfig, generate_planted

ENV_OUTDIR = "COHPROP_OUTDIR"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _resolve(out_dir: Path, path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else out_dir / p


def write_manifest(out_dir: Path, subcommand: str, params: dict, inputs: dict[str, Path]) -> Path:
    manifest = {
        "subcommand": subcommand,
        "parameters": params,
        "inputs": {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in inputs.items()
        },
        "versions": {
            "cohprop": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    path = out_dir / f"manifest_{subcommand}.json"
    _write_json(path, manifest)
    return path


def _public_params(args: argparse.Namespace) -> dict:
    skip = {"func", "config"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


def _read_label_file(path: Path) -> list[str]:
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                labels.append(line)
    if not labels:
        raise ValueError(f"{path}: no labels found")
    return labels


def _load_graph(args) -> DirectedGraph:
    return load_edge_list(args.graph, sep=args.sep)


# -- subcommands -------------------------------------------------------------


def cmd_ingest(args, out_dir: Path) -> dict[str, Path]:
    g = _load_graph(args)
    labels_path = _resolve(out_dir, args.out_labels)
    g.write_label_map(labels_path)
    stats = {
        "nodes": g.node_count,
        "edges": g.edge_count,
        "self_loops_dropped": g.self_loops_dropped,
        "duplicate_records_collapsed": g.duplicates_collapsed,
    }
    if args.stats:
        _write_json(_resolve(out_dir, args.stats), stats)
    print(json.dumps(stats))
    return {"graph": Path(args.graph)}


def cmd_scale(args, out_dir: Path) -> dict[str, Path]:
    g = _load_graph(args)
    elites = [g.id_of(label) for label in _read_label_file(Path(args.elites))]
    adj = bipartite_from_graph(g, elites)
    filtered, dedup = filter_bipartite(adj, min_degree=args.min_degree)
    result = correspondence_analysis(filtered, n_dims=args.dims, seed=args.svd_seed)

    store = seed_features_from_scaling(result, dedup, g)
    write_features_csv(_resolve(out_dir, args.out_rows), store, g)
    write_labeled_features_csv(
        _resolve(out_dir, args.out_cols),
        zip(result.col_labels, result.col_coords),
        result.n_dims,
    )
    if args.report:
        payload = {
            "n_dims": result.n_dims,
            "rows": len(result.row_labels),
            "cols": len(result.col_labels),
            "duplicates_reassigned": len(dedup),
            "singular_values": [float(s) for s in result.singular_values],
            "inertia_fractions": [float(f) for f in result.inertia_fractions],
            "total_inertia": result.total_inertia,
        }
        _write_json(_resolve(out_dir, args.report), payload)
    return {"graph": Path(args.graph), "elites": Path(args.elites)}


def cmd_generate(args, out_dir: Path) -> dict[str, Path]:
    cfg = PlantedConfig.from_json(args.config)
    g, truth, elites = generate_planted(cfg)
    g.write_edge_list(_resolve(out_dir, args.out_edges))
    write_features_csv(_resolve(out_dir, args.out_features), truth, g)
    with open(_resolve(out_dir, args.out_elites), "w", encoding="utf-8") as fh:
        for e in elites.tolist():
            fh.write(g.label_of(e) + "\n")
    return {"config": Path(args.config)}


def cmd_propagate(args, out_dir: Path) -> dict[str, Path]:
    g = _load_graph(args)
    store = read_features_csv(args.seed_features, g)
    seed = store.nodes()
    direction = Direction.from_string(args.direction)
    runner = run_method_a if args.method == "a" else run_method_b
    result = runner(g, store, seed, direction, args.epsilon, args.max_steps, p=args.p)

    write_features_csv(_resolve(out_dir, args.out), result.store, g, include_provenance=True)
    if args.log:
        _write_csv(_resolve(out_dir, args.log), ["step", "added", "excluded"],
                   ([rec.step, rec.added, rec.excluded] for rec in result.history))
    if args.method == "b" and args.log_pivots:
        _write_csv(_resolve(out_dir, args.log_pivots), ["step", "pivots"],
                   ([rec.step, rec.pivots] for rec in result.history))
    return {"graph": Path(args.graph), "seed_features": Path(args.seed_features)}


def cmd_evaluate(args, out_dir: Path) -> dict[str, Path]:
    g = _load_graph(args)
    truth = read_features_csv(args.features, g)
    direction = Direction.from_string(args.direction)
    grid = [float(x) for x in args.epsilon_grid.split(",") if x.strip()]
    if not grid:
        raise ValueError("--epsilon-grid must list at least one value")

    if args.seed_set:
        pool = np.array(
            [g.id_of(label) for label in _read_label_file(Path(args.seed_set))],
            dtype=np.int64,
        )
    else:
        pool = spatial_uniform_sample(
            truth, truth.nodes(), args.sample_size, grid_bins=args.grid_bins, seed=args.seed
        )

    if args.protocol == "sweep-a":
        report = sweep_method_a(g, truth, pool, direction, grid, p=args.p)
    else:
        report = kfold_eval_method_b(
            g, truth, pool, args.k, direction, grid, seed=args.seed, p=args.p
        )
    report.to_csv(_resolve(out_dir, args.out))
    if args.out_json:
        report.to_json(_resolve(out_dir, args.out_json))
    return {"graph": Path(args.graph), "features": Path(args.features)}


def cmd_report(args, out_dir: Path) -> dict[str, Path]:
    header = list(CSV_COLUMNS)
    merged: list[list[str]] = []
    for path in args.inputs:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = _csv_rows(path, fh)
            _, head = next(reader, (None, None))
            if head != header:
                raise ValueError(f"{path}: unexpected report header {head}")
            merged.extend(row for _, row in reader)
    _write_csv(_resolve(out_dir, args.out), header, merged)
    return {f"input_{i}": Path(p) for i, p in enumerate(args.inputs)}


# -- parser ------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subparsers by subcommand name."""
    parser = argparse.ArgumentParser(
        prog="cohprop",
        description="Latent feature scaling and coherence-gated propagation on follow graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--out-dir", default=None, help="directory for outputs and manifest")

    common = argparse.ArgumentParser(add_help=False, parents=[base])
    common.add_argument("--config", default=None, help="JSON config file with defaults")

    graphy = argparse.ArgumentParser(add_help=False)
    graphy.add_argument("--graph", required=True, help="edge-list file (follower,followee)")
    graphy.add_argument("--sep", default=",", help="edge-list field separator")

    p_ingest = sub.add_parser("ingest", parents=[common, graphy],
                              help="parse an edge list and export the label map")
    p_ingest.add_argument("--out-labels", required=True)
    p_ingest.add_argument("--stats", default=None, help="write counts as JSON")
    p_ingest.set_defaults(func=cmd_ingest)

    p_scale = sub.add_parser("scale", parents=[common, graphy],
                             help="correspondence analysis of the follower/elite sub-graph")
    p_scale.add_argument("--elites", required=True, help="file with one elite label per line")
    p_scale.add_argument("--min-degree", type=int, default=3)
    p_scale.add_argument("--dims", type=int, default=2)
    p_scale.add_argument("--svd-seed", type=int, default=0)
    p_scale.add_argument("--out-rows", required=True, help="follower coordinates CSV")
    p_scale.add_argument("--out-cols", required=True, help="elite coordinates CSV")
    p_scale.add_argument("--report", default=None, help="singular values and inertia as JSON")
    p_scale.set_defaults(func=cmd_scale)

    # generate's --config is the planted-graph configuration itself
    p_gen = sub.add_parser("generate", parents=[base],
                           help="sample a planted graph with ground-truth features")
    p_gen.add_argument("--config", required=True, metavar="JSON",
                       help="planted-graph configuration")
    p_gen.add_argument("--out-edges", required=True)
    p_gen.add_argument("--out-features", required=True)
    p_gen.add_argument("--out-elites", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_prop = sub.add_parser("propagate", parents=[common, graphy],
                            help="propagate seed features through the graph")
    p_prop.add_argument("--method", choices=["a", "b"], required=True)
    p_prop.add_argument("--direction", choices=["up", "down"], required=True)
    p_prop.add_argument("--epsilon", type=float, required=True)
    p_prop.add_argument("--max-steps", type=int, required=True)
    p_prop.add_argument("--seed-features", required=True, help="known features CSV")
    p_prop.add_argument("--p", type=float, default=2.0, help="feature-space norm order")
    p_prop.add_argument("--out", required=True, help="output features CSV")
    p_prop.add_argument("--log", default=None, help="per-step sizes CSV")
    p_prop.add_argument("--log-pivots", default=None, help="per-step pivot counts CSV (method b)")
    p_prop.set_defaults(func=cmd_propagate)

    p_eval = sub.add_parser("evaluate", parents=[common, graphy],
                            help="accuracy/coverage protocols over a threshold grid")
    p_eval.add_argument("--protocol", choices=["sweep-a", "kfold-b"], required=True)
    p_eval.add_argument("--features", required=True, help="ground-truth features CSV")
    p_eval.add_argument("--direction", choices=["up", "down"], default="up")
    p_eval.add_argument("--epsilon-grid", required=True, help="comma-separated thresholds")
    p_eval.add_argument("--k", type=int, default=20)
    p_eval.add_argument("--p", type=float, default=2.0)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--seed-set", default=None, help="file of pool labels (one per line)")
    p_eval.add_argument("--sample-size", type=int, default=500,
                        help="pool size when --seed-set is not given")
    p_eval.add_argument("--grid-bins", type=int, default=20,
                        help="cells per axis for the spatial sample")
    p_eval.add_argument("--out", required=True, help="report CSV")
    p_eval.add_argument("--out-json", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("report", parents=[common],
                           help="merge evaluation reports into one CSV")
    p_rep.add_argument("--inputs", nargs="+", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)

    return parser, sub.choices


# the JSON numbers a config may give a numeric flag; a string is taken for
# any flag whose type converts it, as on the command line
_CONFIG_NUMBERS = {int: int, float: (int, float)}


def _takes(action: argparse.Action, value) -> bool:
    """Whether ``action``'s flag takes the config value ``value`` on the command line."""
    if isinstance(value, str):
        try:
            value = (action.type or str)(value)
        except ValueError:
            return False
    elif isinstance(value, bool) or not isinstance(value, _CONFIG_NUMBERS.get(action.type, ())):
        return False
    return action.choices is None or value in action.choices


def _apply_config(subparsers: dict[str, argparse.ArgumentParser], argv: list[str]) -> None:
    """Set the chosen subcommand's flag defaults from its ``--config`` file.

    A flag the config supplies is no longer required on the command line;
    an explicit flag still wins. A missing or unknown subcommand is left for
    the full parser to report.
    """
    subcommand = next((a for a in argv if not a.startswith("-")), None)
    subparser = subparsers.get(subcommand)
    if subparser is None or subcommand == "generate":
        return  # generate's --config is the planted-graph settings, not run defaults
    # the same spellings the full parser accepts (--config x, --config=x, --conf x);
    # a missing value is left for the full parser to report as a usage error
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    cfg_path = pre.parse_known_args(argv)[0].config
    if cfg_path is None:
        return
    with open(cfg_path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{cfg_path}: a config file must hold a JSON object")
    defaults = {}
    for section in ("global", subcommand):
        values = config.get(section, {})
        if not isinstance(values, dict):
            raise ValueError(f"config section {section!r} must be a JSON object")
        defaults.update(values)
    # --help and --config itself are no run flags, so a config cannot set them
    flags = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    unknown = set(defaults) - set(flags)
    if unknown:
        raise ValueError(f"unknown config keys for {subcommand!r}: {sorted(unknown)}")
    for key, value in defaults.items():
        if not _takes(flags[key], value):
            raise ValueError(f"config key {key!r}: {flags[key].option_strings[-1]} "
                             f"does not take {value!r}")
        flags[key].required = False
    subparser.set_defaults(**defaults)


def dispatch(argv: list[str] | None = None) -> int:
    """Run one subcommand, then write its manifest; a subcommand that raises leaves none."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()  # built afresh, so a config's changes stay in this call
    _apply_config(subparsers, argv)
    args = parser.parse_args(argv)

    out_dir = args.out_dir or os.environ.get(ENV_OUTDIR) or "."
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = args.func(args, out_dir)
    write_manifest(out_dir, args.subcommand, _public_params(args), inputs)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return dispatch(argv)
    except (ValueError, KeyError, OSError) as exc:
        # a KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
