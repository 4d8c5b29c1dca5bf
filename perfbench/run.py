"""Run one benchmark workload of cohprop and print its metrics as JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the program is imported from
``src/`` and nowhere else. Set-up generates the workload's inputs from
``--seed``, imports the program and warms it up on a small input. Timed
passes then repeat the workload's operations until ``--seconds`` is spent
(at least one pass). Each pass runs in a forked child, so its peak resident
memory starts from the set-up's live data and not from the set-up's own
peak. The checks in ``checks.py`` run after every pass, in the same child.
Set-up and pass times are CPU times scaled to reference seconds by the speed
probe of ``speed.py``, which shares the process's one pinned CPU.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; ``--trace 1`` reports the per-layer metrics
of ``spans.py`` instead of the end-to-end ones. See README.md for the
workloads.
"""
from __future__ import annotations

import os
import sys
import time

# one compute thread: BLAS and OpenMP pools must be pinned before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import atexit  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "cohprop" / "__init__.py").is_file():
    sys.exit(f"perfbench: no cohprop sources under {SRC}; run from a source checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import speed  # noqa: E402

# set-up is measured from here, with its own speed probe (see speed.py)
speed.pin_to_one_cpu()
_SETUP_PROBE = speed.SpeedProbe()
atexit.register(_SETUP_PROBE.close)

import numpy as np  # noqa: E402

import cohprop  # noqa: E402
import cohprop.cli  # noqa: E402
import cohprop.evaluation  # noqa: E402
import cohprop.method_a  # noqa: E402
import cohprop.method_b  # noqa: E402
import cohprop.synthetic  # noqa: E402
from cohprop.features import KNOWN, FeatureStore  # noqa: E402
from cohprop.graph import DirectedGraph, Direction  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer  # noqa: E402

if Path(cohprop.__file__).resolve().parent != (SRC / "cohprop").resolve():
    sys.exit(f"perfbench: cohprop was imported from {cohprop.__file__}, not from {SRC}")

END_TO_END = {"setup_s": "s", "ref_cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "graph.load_edge_list.self_s": "s", "graph.load_edge_list.calls": "count",
    "graph.from_edges.self_s": "s",
    "graph.neighborhood.self_s": "s", "graph.neighborhood.calls": "count",
    "graph.grouped_restricted_neighbors.self_s": "s",
    "graph.grouped_restricted_neighbors.calls": "count",
    "features.store_subset.self_s": "s",
    "features.store_set_estimated.self_s": "s", "features.store_set_estimated.calls": "count",
    "features.store_features_of.self_s": "s",
    "features.read_features_csv.self_s": "s", "features.write_features_csv.self_s": "s",
    "method_a.run.self_s": "s", "method_a.step.self_s": "s", "method_a.step.calls": "count",
    "method_a.added": "count", "method_a.excluded": "count", "method_a.gate_pass_ratio": "ratio",
    "method_b.run.self_s": "s", "method_b.compute_pivots.self_s": "s",
    "method_b.step.self_s": "s", "method_b.step.calls": "count",
    "method_b.pivots": "count", "method_b.added": "count", "method_b.excluded": "count",
    "method_b.added_per_pivot": "ratio",
    "scaling.bipartite_from_graph.self_s": "s", "scaling.filter_bipartite.self_s": "s",
    "scaling.correspondence_analysis.self_s": "s",
    "scaling.seed_features_from_scaling.self_s": "s",
    "scaling.rows_kept": "count", "scaling.rows_deduplicated": "count",
    "evaluation.sweep_method_a.self_s": "s", "evaluation.kfold_eval_method_b.self_s": "s",
    "evaluation.spatial_uniform_sample.self_s": "s",
    "synthetic.generate_planted.self_s": "s",
    "cli.main.self_s": "s", "cli.main.calls": "count",
    "trace.overhead_s": "s", "process.cpu_s": "s", "process.wall_s": "s",
    "probe.speed": "units/s",
}


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


# -- workloads -----------------------------------------------------------------


class Workload:
    """Inputs and operations of one workload; ``ops`` operations per pass."""

    ops: int

    def prepare(self, out: Path) -> None:
        """Reset per-pass state before a pass (untimed)."""

    def failures(self, result) -> int:
        """Operations of a finished pass that reported failure."""
        return 0


class PlantedKfold(Workload):
    """The frozen acceptance fixture: sweep-a, then K-fold recovery by method B.

    The inputs do not depend on the benchmark seed. Criterion 6's trend test
    is checked on five thresholds, and other fold splits can break it there
    (fold seed 4 gives Spearman 0.7), so the fixture's own split is kept.
    """

    ops = 3

    @staticmethod
    def _planted(**changes):
        centers = cohprop.synthetic.graded_mixture_centers()
        return cohprop.synthetic.generate_planted(cohprop.synthetic.PlantedConfig(
            **{**inputs.PLANTED, **changes},
            mixture_components=len(centers), mixture_centers=centers))

    def generate(self, seed: int, work: Path) -> None:
        self.g, self.truth, self.elites = self._planted()

    def warm_up(self, work: Path) -> None:
        g, truth, elites = self._planted(n_nodes=400, n_elites=4)
        pool = cohprop.evaluation.spatial_uniform_sample(
            truth, np.setdiff1d(truth.nodes(), elites), 40, grid_bins=4, seed=0)
        cohprop.evaluation.sweep_method_a(g, truth, pool, Direction.UP, inputs.PLANTED_GRID)
        cohprop.evaluation.kfold_eval_method_b(
            g, truth, pool, 4, Direction.UP, inputs.PLANTED_GRID, seed=0)

    def run(self, out: Path):
        p = inputs.PLANTED_POOL
        pool = cohprop.evaluation.spatial_uniform_sample(
            self.truth, np.setdiff1d(self.truth.nodes(), self.elites), p["size"],
            grid_bins=p["grid_bins"], seed=p["seed"])
        sweep = cohprop.evaluation.sweep_method_a(
            self.g, self.truth, pool, Direction.UP, inputs.PLANTED_GRID)
        kfold = cohprop.evaluation.kfold_eval_method_b(
            self.g, self.truth, pool, inputs.PLANTED_K, Direction.UP, inputs.PLANTED_GRID,
            seed=inputs.PLANTED_FOLD_SEED)
        return {"sweep": sweep.rows, "kfold": kfold.rows}

    def check(self, out: Path, result) -> tuple[list[str], str]:
        grid, k = inputs.PLANTED_GRID, inputs.PLANTED_K
        problems = []
        if len(result["sweep"]) != 4 * len(grid) or len(result["kfold"]) != (k + 4) * len(grid):
            problems.append("report row counts do not match the grid and fold count")
        else:
            problems += checks.criteria_6_7(grid, result["sweep"], result["kfold"], k)
        return problems, _sha256(repr(result).encode())


class PipelineCLI(Workload):
    """cohprop scale, propagate --method a and --method b on a 200k-node edge file."""

    ops = 3
    epsilon, steps, min_degree, dims = 0.3, 2, 3, 2

    def generate(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.edges, self.elites = inputs.ladder_graph(seed)
        self.inputs = self._write(work / "inputs", self.edges, self.elites)

    @staticmethod
    def _write(where: Path, edges, elites) -> dict:
        where.mkdir(parents=True)
        paths = {"edges": where / "edges.csv", "elites": where / "elites.txt"}
        inputs.write_edge_file(paths["edges"], edges)
        paths["elites"].write_text("".join(inputs.label(e) + "\n" for e in elites.tolist()))
        return paths

    def _commands(self, paths: dict, out: Path) -> list[list[str]]:
        common = ["--graph", str(paths["edges"]), "--out-dir", str(out)]
        propagate = ["propagate", "--direction", "up", "--epsilon", str(self.epsilon),
                     "--max-steps", str(self.steps), "--seed-features", str(out / "rows.csv")]
        return [
            ["scale", "--elites", str(paths["elites"]), "--min-degree", str(self.min_degree),
             "--dims", str(self.dims), "--out-rows", "rows.csv", "--out-cols", "cols.csv",
             "--report", "scale.json"] + common,
            propagate + ["--method", "a", "--out", "prop_a.csv", "--log", "steps_a.csv"] + common,
            propagate + ["--method", "b", "--out", "prop_b.csv", "--log", "steps_b.csv",
                         "--log-pivots", "pivots_b.csv"] + common,
        ]

    def warm_up(self, work: Path) -> None:
        edges, elites = inputs.ladder_graph(self.seed, scale=0.05)
        paths = self._write(work / "warm", edges, elites)
        for argv in self._commands(paths, work / "warm" / "out"):
            cohprop.cli.main(argv)
        with open(self.inputs["edges"], "rb") as fh:  # leave the edge file in the page cache
            while fh.read(1 << 22):
                pass
        # record the graph sizes the CLI parses, for the count check
        self.loads = []
        load = cohprop.cli.load_edge_list

        def counted_load(*args, **kwargs):
            g = load(*args, **kwargs)
            self.loads.append((g.node_count, g.edge_count))
            return g

        cohprop.cli.load_edge_list = counted_load

    def prepare(self, out: Path) -> None:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        self.loads.clear()

    def run(self, out: Path):
        codes = []
        for argv in self._commands(self.inputs, out):
            try:
                codes.append(cohprop.cli.main(argv))
            except Exception:  # an uncaught error is one failed command, not a dead run
                traceback.print_exc()
                codes.append(1)
        return {"codes": codes, "loads": list(self.loads)}

    def failures(self, result) -> int:
        return sum(code != 0 for code in result["codes"])

    @staticmethod
    def _read_rows(path: Path) -> dict[int, list[str]]:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return {inputs.node_of(r[0]): r[1:] for r in rows}

    def check(self, out: Path, result) -> tuple[list[str], str]:
        if any(result["codes"]):
            return [f"CLI exit codes {result['codes']}"], ""
        adj = checks.Adjacency(self.edges)
        want = (adj.node_count, adj.edge_count)
        problems = [f"parsed graph {got} != generated {want} (nodes, edges)"
                    for got in result["loads"] if got != want]
        if len(result["loads"]) != 3:
            problems.append(f"{len(result['loads'])} edge-list parses, expected 3")
        report = json.loads((out / "scale.json").read_text())
        problems += checks.ca_report(
            report, checks.ca_reference(adj, self.elites, self.min_degree, self.dims))

        seed_rows = self._read_rows(out / "rows.csv")
        feats = np.full((self.edges.n, self.dims), np.nan)
        for v, row in seed_rows.items():
            feats[v] = [float(x) for x in row]
        in_seed = ~np.isnan(feats[:, 0])
        step0 = checks.Step0(adj, True, feats, in_seed, self.epsilon)
        for method in ("a", "b"):
            rows = self._read_rows(out / f"prop_{method}.csv")
            known = {v: r[:-1] for v, r in rows.items() if r[-1] == "known"}
            if known != seed_rows:
                problems.append(f"method {method}: seed rows changed in the output")
            est = {v: np.array([float(x) for x in r[:-1]]) for v, r in rows.items()
                   if r[-1] != "known"}
            if est:
                problems += checks.in_box(np.array(list(est.values())), feats[in_seed])
            first = np.array(sorted(v for v, r in rows.items() if r[-1] == "estimated:0"))
            if first.size == 0:
                problems.append(f"method {method}: nothing added at step 0")
            test = step0.method_a if method == "a" else step0.method_b
            for v in checks.sample(first, 100, self.seed).tolist():
                problems += test(v, est[v])
        names = sorted(p.name for p in out.iterdir())
        return problems, _sha256(*(n.encode() + (out / n).read_bytes() for n in names))


class HubsDown(Workload):
    """Methods A and B, direction down, on a heavy-tailed graph held in memory."""

    ops = 2
    epsilon, steps = 0.1, 2

    def generate(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.edges, self.feats, self.seed_ids = inputs.hubs_graph(seed)
        self.g, self.truth = self._build(self.edges, self.feats)

    @staticmethod
    def _build(edges, feats):
        g = DirectedGraph.from_edges(np.stack([edges.src, edges.dst], axis=1), node_count=edges.n)
        truth = FeatureStore(feats.shape[1])
        for v, vec in enumerate(feats):
            truth.set_known(v, vec)
        return g, truth

    def warm_up(self, work: Path) -> None:
        edges, feats, seed_ids = inputs.hubs_graph(self.seed, scale=0.02)
        g, truth = self._build(edges, feats)
        for run in (cohprop.method_a.run_method_a, cohprop.method_b.run_method_b):
            run(g, truth.subset(seed_ids), seed_ids, Direction.DOWN, self.epsilon, self.steps)

    def run(self, out: Path):
        return {
            method: run(self.g, self.truth.subset(self.seed_ids), self.seed_ids, Direction.DOWN,
                        self.epsilon, self.steps)
            for method, run in (("a", cohprop.method_a.run_method_a),
                                ("b", cohprop.method_b.run_method_b))
        }

    def check(self, out: Path, result) -> tuple[list[str], str]:
        adj = checks.Adjacency(self.edges)
        problems = []
        if (self.g.node_count, self.g.edge_count) != (self.edges.n, adj.edge_count):
            problems.append("graph node or edge count differs from the generated arrays")
        in_seed = np.zeros(self.edges.n, dtype=bool)
        in_seed[self.seed_ids] = True
        seed_vals = self.feats[self.seed_ids]
        center = seed_vals.mean(axis=0)
        step0 = checks.Step0(adj, False, self.feats, in_seed, self.epsilon)
        indeg = adj.in_degree()
        chunks = []
        for method, res in result.items():
            nodes = res.store.nodes()
            values = res.store.features_of(nodes)
            steps = np.array([res.store.provenance(v) for v in nodes.tolist()])
            seeded = in_seed[nodes]
            if not (np.array_equal(nodes[seeded], self.seed_ids)
                    and np.array_equal(values[seeded], seed_vals)
                    and np.all(steps[seeded] == KNOWN) and np.all(steps[~seeded] >= 0)):
                problems.append(f"method {method}: seed entries changed or provenance wrong")
            added, est = nodes[~seeded], values[~seeded]
            if added.size == 0:
                problems.append(f"method {method}: nothing added")
                continue
            problems += checks.in_box(est, seed_vals)
            err = np.linalg.norm(est - self.feats[added], axis=1).mean()
            base = np.linalg.norm(center - self.feats[added], axis=1).mean()
            if not err < base:
                problems.append(f"method {method}: error {err:.4f} not below centroid {base:.4f}")
            first = added[steps[~seeded] == 0]
            probe = np.concatenate([checks.sample(first, 100, self.seed),
                                    first[np.argsort(indeg[first])[-3:]]])
            row_of = {v: i for i, v in enumerate(nodes.tolist())}
            test = step0.method_a if method == "a" else step0.method_b
            for v in np.unique(probe).tolist():
                problems += test(v, values[row_of[v]])
            chunks += [nodes.tobytes(), values.tobytes(), steps.tobytes(),
                       repr(res.history).encode()]
        return problems, _sha256(*chunks)


WORKLOADS = {"planted-kfold": PlantedKfold, "pipeline-200k": PipelineCLI, "hubs-down": HubsDown}


# -- timed passes --------------------------------------------------------------


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _child_pass(workload, out: Path, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    probe = speed.SpeedProbe()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        result = workload.run(out)
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        pace = probe.stop()
        if tracer:
            tracer.uninstall()
    res = {"wall": wall, "cpu": cpu, "speed": pace, "ref_cpu": cpu * pace / speed.REFERENCE_SPEED,
           "peak": _peak_rss_mb(),
           "failed": workload.failures(result),
           "trace": tracer.metrics() if tracer else None}
    try:
        res["problems"], res["digest"] = workload.check(out, result)
    except Exception:  # a check that crashes is a failed check, not a failed pass
        res["problems"], res["digest"] = [traceback.format_exc()], ""
    return res


def forked_pass(workload, out: Path, traced: bool) -> dict:
    """One timed pass and its checks in a child process; returns timings and verdict.

    The checks run in the child after its peak memory is read, so the
    parent's memory, which the next child inherits, is the same before every
    pass.
    """
    workload.prepare(out)
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_end)
            speed.die_with_parent()
            try:
                payload = _child_pass(workload, out, traced)
            except BaseException:  # report every failure to the parent, then exit
                payload = {"error": traceback.format_exc()}
                code = 1
            with os.fdopen(write_end, "wb") as fh:
                pickle.dump(payload, fh)
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"pass process ended with wait status {status} and no result"}
    return pickle.loads(data)  # written by the child above


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(WORKLOADS[args.workload](), args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _measure(workload, args, work: Path) -> int:
    setup_tracer = Tracer() if args.trace else None
    if setup_tracer:
        setup_tracer.install()
    try:
        workload.generate(args.seed, work)
    finally:
        if setup_tracer:
            setup_tracer.uninstall()
    workload.warm_up(work)
    setup_cpu = time.process_time()  # CPU time of this process since it started
    setup_s = setup_cpu * _SETUP_PROBE.stop() / speed.REFERENCE_SPEED
    print(f"{args.workload}: set-up {setup_cpu:.3f} s CPU, {setup_s:.3f} reference s", flush=True)

    out = work / "out"
    passes, digests, problems = [], set(), []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) > 0
        res = forked_pass(workload, out, traced)
        if "error" in res:  # the pass raised: all its operations count as failed
            print(res["error"], file=sys.stderr)
            res.update({key: float("nan") for key in ("wall", "cpu", "speed", "ref_cpu", "peak")},
                       failed=workload.ops, problems=["a pass raised an exception"], trace=None)
        else:
            digests.add(res["digest"])
        found = res["problems"]
        problems += found
        passes.append(res)
        print(f"pass {len(passes)}{' (traced)' if traced else ''}: wall {res['wall']:.3f} s, "
              f"cpu {res['cpu']:.3f} s, speed {res['speed']:.0f}/s, ref {res['ref_cpu']:.3f} s, "
              f"peak {res['peak']:.1f} MB, checks {'failed' if found else 'ok'}", flush=True)
        elapsed = time.perf_counter() - started
        if args.trace and len(passes) < 2:
            continue
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    if len(digests) > 1:
        problems.append(f"outputs differ between passes: {len(digests)} distinct digests")
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    plain = [p for p in passes if p["trace"] is None]
    if args.trace:
        traced = [p for p in passes if p["trace"] is not None]
        setup_part = setup_tracer.metrics()
        values = {name: setup_part.get(name, 0) + statistics.median(
            p["trace"].get(name, 0) for p in traced) for name in PER_LAYER}
        values["trace.overhead_s"] = (statistics.median(p["ref_cpu"] for p in traced)
                                      - statistics.median(p["ref_cpu"] for p in plain))
        for name, key in (("process.cpu_s", "cpu"), ("process.wall_s", "wall"),
                          ("probe.speed", "speed")):
            values[name] = statistics.median(p[key] for p in plain)
        units = PER_LAYER
    else:
        values = {"setup_s": setup_s,
                  "ref_cpu_s": statistics.median(p["ref_cpu"] for p in passes),
                  "peak_rss_mb": statistics.median(p["peak"] for p in passes)}
        units = END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.ops * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
