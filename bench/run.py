"""conceptshot benchmark: meta-training and evaluation throughput on two
synthetic concept hierarchies, and a traced run that splits step time by layer.

    python3 bench/run.py                       # every workload, seed 0
    python3 bench/run.py --workload tree-85 --seed 3 --trace 0

Run it from the root of a source checkout: the program is imported from
./src.  A run of one workload first sets up, several times over, timing the
median: it generates the hierarchy and dataset from --seed, writes and reads
them back in the CLI's file formats, builds the model through the config
layer and round-trips a checkpoint.  It then drives ``meta.train`` and
``meta.evaluate`` for --seconds (default: ``run_seconds`` in BENCHMARK.json)
on one thread, in fixed-size chunks that take turns; within a chunk each step
starts when the previous one ends.  Every chunk, train or eval, first reloads
the set-up checkpoint, so all chunks of a phase must give the same output
digest; for seed 0 the digests must also equal the ones recorded in DIGESTS.
Times are reported at the machine's usual speed, through the Reference
kernel; an untraced run also prints the times as measured on a ``raw`` line.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced chunks and reports, per training iteration or eval episode, the calls
and self time of each layer, the untraced remainder and the tracing
overhead; it writes every span to .bench_out/spans-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when an output digest or a workload shape check fails.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads its BLAS

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "conceptshot").is_dir():
    sys.exit(f"no conceptshot sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from conceptshot import (classifier_gen, config, data, encoder,  # noqa: E402
                         graph, meta, tensor)
from conceptshot.errors import DataError, NumericalError  # noqa: E402

from spans import Tracer  # noqa: E402

# The two hierarchies.  tree-85 is the pinned acceptance benchmark; tree-585
# has 8x the leaf classes and samples at the same depth.  The chunk sizes fix
# the work each output digest covers.
WORKLOADS = {
    "tree-85": {"branching": 4, "nodes": 85, "samples": 4250,
                "levels": [(1, 4), (2, 5)], "train_chunk": 20, "eval_chunk": 40},
    "tree-585": {"branching": 8, "nodes": 585, "samples": 29250,
                 "levels": [(1, 5), (2, 5)], "train_chunk": 10, "eval_chunk": 20},
}
# The episode shape the benchmark is defined with; the config defaults must
# still give it, so a drift shows as a failure rather than as a speed-up.
TRAIN_SHAPE = {"n_way": 5, "k_shot": 1, "n_query": 15, "adapt_steps": 5,
               "episodes_per_term": 1, "entity_weight": 1.0, "concept_weight": 1.0}
EVAL_SHAPE = {"n_way": 5, "k_shot": 1, "n_query": 15, "adapt_steps": 20}

DIGEST_SEED = 0
DIGESTS = {
    "tree-85": {
        "train": "3d5d4b09914ad68221f596fea5621b293ace30278f84e92179bf00a98199ec28",
        "eval": "23fcc084debab100491be6432ef6a41492f662e87fdab05f3201c9c80e0a6727"},
    "tree-585": {
        "train": "57d188ac7843ecd091bb86cf7d006100fe9769c6bfac1c0eaa94f59cb66dbc30",
        "eval": "7f39d920edf1d4ca97366a6ee96d7c0f046da64f7109173e1395e565db24dab0"},
}

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETUP_REPEATS = 31
MIN_CHUNKS = 3
# The reference kernel's time at its usual speed on the 2-vCPU host of the
# baseline: the median of the reference times in BENCH_0.json's runs (see
# README.md).
REF_SECONDS = 0.05
END_TO_END_UNITS = {"train_iters_per_s": "1/s", "eval_episodes_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}
EVAL_LAYERS = ["data.sample_episode", "meta.episode_loss",
               "classifier_gen.emit_for_task", "classifier_gen.graph_embed",
               "classifier_gen.refine_relations", "classifier_gen.emit_classifier",
               "graph.Propagation.apply", "meta.inner_adapt", "tensor.grad",
               "encoder.apply_layers"]
LAYERS = {"train": ["meta.train_step"] + EVAL_LAYERS + ["tensor.backward",
                                                         "tensor.sgd_step"],
          "eval": EVAL_LAYERS}
ROOTS = {"train": "meta.train", "eval": "meta.evaluate"}


class ShapeError(Exception):
    """The workload does not have the shape the benchmark defines."""


def trace_targets():
    """(owner, attribute, span name) for each layer entry point, at the name
    its caller resolves."""
    return [
        (meta, "train", "meta.train"),
        (meta, "evaluate", "meta.evaluate"),
        (meta, "train_step", "meta.train_step"),
        (meta, "episode_loss", "meta.episode_loss"),
        (meta, "sample_entity_episode", "data.sample_episode"),
        (meta, "sample_concept_episode", "data.sample_episode"),
        (meta, "emit_for_task", "classifier_gen.emit_for_task"),
        (classifier_gen, "graph_embed", "classifier_gen.graph_embed"),
        (classifier_gen, "refine_relations", "classifier_gen.refine_relations"),
        (classifier_gen, "emit_classifier", "classifier_gen.emit_classifier"),
        (graph.Propagation, "apply", "graph.Propagation.apply"),
        (meta, "inner_adapt", "meta.inner_adapt"),
        (meta, "grad", "tensor.grad"),
        (meta, "apply_layers", "encoder.apply_layers"),
        (encoder, "apply_layers", "encoder.apply_layers"),
        (meta, "backward", "tensor.backward"),
        (tensor.SgdOptimizer, "step", "tensor.sgd_step"),
    ]


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def experiment(workload, seed, work: Path) -> dict:
    w = WORKLOADS[workload]
    return {
        "paths": {"graph": str(work / "graph.json"), "dataset": str(work / "data.bin"),
                  "checkpoint": str(work / "model.ckpt"),
                  "metrics": str(work / "metrics.csv"),
                  "eval_csv": str(work / "eval-episodes.csv")},
        "data": {"branching": w["branching"], "num_levels": 4, "input_dim": 32,
                 "semantic_dim": 16, "samples_per_class": 50,
                 "sigma_levels": [0.6, 0.4, 0.3, 1.0], "seed": seed},
        "encoder": {"widths": [64, 64], "low_layers": 1},
        "train": {"iterations": w["train_chunk"], "seed": seed},
        "eval": {"n_episodes": w["eval_chunk"], "seed": seed + 1000},
    }


class Reference:
    """A fixed mix of small matrix products, sorts and interpreted Python, in
    the proportions of the program's own steps, timed between chunks and
    set-up passes.  The shared machine's speed drifts by about 20% over
    seconds to minutes, and the reference slows with it; each time is
    reported as its ratio to the mean of the reference times just before and
    just after it, scaled by REF_SECONDS."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(16, 64))
        self.w = rng.normal(size=(64, 64)) / 8
        self.b = rng.normal(size=64)
        self.z = rng.normal(size=(586, 32))
        self.nbrs = rng.integers(0, 586, size=(585, 10))
        self.last = self.seconds()

    def around(self, seconds: float):
        """(seconds, reference time around it), for a time just measured."""
        before, self.last = self.last, self.seconds()
        return seconds, (before + self.last) / 2

    def seconds(self) -> float:
        start = time.perf_counter()
        x = self.x
        for _ in range(1200):
            y = x @ self.w + self.b
            y = np.where(y >= 0, y, 0.1 * y)
            x = self.x + 1e-3 * np.sort(y, axis=1).sum(axis=1, keepdims=True)
        for _ in range(4):
            np.sort(self.z[self.nbrs], axis=1).sum(axis=1)
        total = 0
        for i in range(80_000):
            total += i * i
        return time.perf_counter() - start


def at_reference_speed(pairs) -> float:
    """Median of (time, reference time) ratios, in seconds at REF_SECONDS."""
    return REF_SECONDS * statistics.median(t / ref for t, ref in pairs)


@dataclass
class World:
    """Everything set-up builds for the timed phases."""
    cfg: config.ExperimentConfig
    hierarchy: graph.ConceptGraph
    ds: data.Dataset
    model: meta.Model


def set_up(workload, seed, work: Path):
    """One set-up pass; returns (World, {part: seconds})."""
    t0 = time.perf_counter()
    cfg = config.from_dict(experiment(workload, seed, work))
    g, ds = data.generate_synthetic(cfg.data)
    t1 = time.perf_counter()
    graph.save_graph(g, cfg.paths.graph)
    data.save_dataset(ds, cfg.paths.dataset)
    g = graph.load_graph(cfg.paths.graph)
    ds = data.load_dataset(cfg.paths.dataset)
    ds.validate_against(g)
    t2 = time.perf_counter()
    model = config.build_model(cfg, g)
    t3 = time.perf_counter()
    cfg_hash = config.config_hash(cfg)
    meta.save_checkpoint(cfg.paths.checkpoint, model, tensor.SgdOptimizer(model.params),
                         config_hash=cfg_hash, seed=seed)
    meta.load_checkpoint(cfg.paths.checkpoint, model, expected_hash=cfg_hash)
    t4 = time.perf_counter()
    return World(cfg, g, ds, model), {"generate": t1 - t0, "artifacts": t2 - t1,
                                      "model": t3 - t2, "checkpoint": t4 - t3}


def check_shape(workload, w: World):
    spec = WORKLOADS[workload]
    problems = []
    if w.hierarchy.num_nodes != spec["nodes"]:
        problems.append(f"{w.hierarchy.num_nodes} nodes, expected {spec['nodes']}")
    if w.ds.num_samples != spec["samples"]:
        problems.append(f"{w.ds.num_samples} samples, expected {spec['samples']}")
    levels = meta.eligible_concept_levels(w.ds, w.hierarchy, w.cfg.train)
    if levels != spec["levels"]:
        problems.append(f"concept levels {levels}, expected {spec['levels']}")
    for section, shape in ((w.cfg.train, TRAIN_SHAPE), (w.cfg.eval, EVAL_SHAPE)):
        for key, want in shape.items():
            if getattr(section, key) != want:
                problems.append(f"{type(section).__name__}.{key} = "
                                f"{getattr(section, key)!r}, expected {want!r}")
    if problems:
        raise ShapeError("; ".join(problems))


def nonfinite_rows(blob: bytes, spec) -> int:
    """Rows of a chunk's metrics CSV with a non-finite loss; a missing loss
    term or a wrong row count is a shape failure."""
    lines = blob.decode().splitlines()
    cols = ["iteration", "lr", "total_loss", "entity_loss", "entity_acc"]
    for level, _ in spec["levels"]:
        cols += [f"concept{level}_loss", f"concept{level}_acc"]
    if lines[0].split(",") != cols:
        raise ShapeError(f"metrics CSV columns {lines[0]!r}, expected {','.join(cols)!r}")
    if len(lines) - 1 != spec["train_chunk"]:
        raise ShapeError(f"metrics CSV has {len(lines) - 1} rows, "
                         f"expected {spec['train_chunk']}")
    losses = [i for i, c in enumerate(cols) if c.endswith("_loss")]
    return sum(1 for line in lines[1:]
               if not all(math.isfinite(float(line.split(",")[i])) for i in losses))


def train_chunk(w: World, spec, ctx):
    """Train ``train_chunk`` iterations from the set-up checkpoint."""
    meta.load_checkpoint(w.cfg.paths.checkpoint, w.model)
    gc.collect()
    with ctx:
        start = time.perf_counter()
        meta.train(w.model, w.ds, w.cfg.train, metrics_path=w.cfg.paths.metrics)
        seconds = time.perf_counter() - start
    blob = Path(w.cfg.paths.metrics).read_bytes()
    return seconds, hashlib.sha256(blob).hexdigest(), nonfinite_rows(blob, spec)


def eval_chunk(w: World, ctx):
    """Evaluate ``eval_chunk`` meta-test episodes of the set-up checkpoint."""
    meta.load_checkpoint(w.cfg.paths.checkpoint, w.model)
    gc.collect()
    with ctx:
        start = time.perf_counter()
        res = meta.evaluate(w.model, w.ds, w.cfg.eval, split="meta-test")
        seconds = time.perf_counter() - start
    blob = repr(res.accuracies.tolist()).encode()
    return seconds, hashlib.sha256(blob).hexdigest(), 0


@dataclass
class Phase:
    steps_per_chunk: int
    plain: list = field(default_factory=list)     # (chunk, reference) seconds, untraced
    traced: list = field(default_factory=list)    # (chunk, reference) seconds, traced
    traced_chunks: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""


def run_phases(chunks, budget, tracers, reference: Reference) -> dict:
    """Run the chunks of every phase in turn, one after the other, for
    ``budget`` seconds and at least MIN_CHUNKS times each, so every phase
    samples the whole run; with tracers, each phase also alternates untraced
    and traced chunks.  ``chunks`` maps a phase name to (chunk function,
    steps per chunk)."""
    phases = {name: Phase(steps) for name, (_, steps) in chunks.items()}
    slots = [(name, False) for name in chunks]
    if tracers:
        slots += [(name, True) for name in chunks]
    deadline = time.perf_counter() + budget
    i = 0
    while i < MIN_CHUNKS * len(slots) or time.perf_counter() < deadline:
        name, traced = slots[i % len(slots)]
        chunk, ph = chunks[name][0], phases[name]
        i += 1
        ph.attempted += ph.steps_per_chunk
        ph.traced_chunks += traced
        try:
            seconds, digest, bad = chunk(tracers[name].installed() if traced
                                         else nullcontext())
        except (NumericalError, DataError) as exc:
            print(f"{name} chunk failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            ph.failed += ph.steps_per_chunk
            continue
        ph.digest = ph.digest or digest
        if digest != ph.digest:
            print(f"{name} chunk digest {digest} differs from {ph.digest}",
                  file=sys.stderr)
            ph.failed += ph.steps_per_chunk
            continue
        ph.failed += bad
        (ph.traced if traced else ph.plain).append(reference.around(seconds))
    return phases


def per_second(ph: Phase) -> float:
    return ph.steps_per_chunk / at_reference_speed(ph.plain)


def layer_metrics(workload, phases, tracers, setup_parts) -> dict:
    spec = WORKLOADS[workload]
    out = {f"setup.{part}_ms": 1000 * s for part, s in setup_parts.items()}
    terms = {"train": len(spec["levels"]) + 1, "eval": 1}
    for name, tracer in tracers.items():
        ph = phases[name]
        steps = ph.traced_chunks * ph.steps_per_chunk
        summary = tracer.summary()
        total = sum(self_s for _, self_s in summary.values())
        for layer in LAYERS[name]:
            calls, self_s = summary[layer]
            out[f"{name}.{layer}.calls"] = calls / steps
            out[f"{name}.{layer}.self_ms"] = 1000 * self_s / steps
        out[f"{name}.tensor.nodes_created"] = tracer.constructed / steps
        out[f"{name}.step_ms"] = 1000 * total / steps
        out[f"{name}.untraced_pct"] = 100 * summary[ROOTS[name]][1] / total
        out[f"{name}.trace_overhead_pct"] = 100 * (at_reference_speed(ph.traced)
                                                   / at_reference_speed(ph.plain) - 1)
        if out[f"{name}.meta.episode_loss.calls"] != terms[name]:
            raise ShapeError(f"{out[f'{name}.meta.episode_loss.calls']} episodes per "
                             f"{name} step, expected {terms[name]}")
        if tracer.missing:
            print(f"warning: not traced, absent from the program: {tracer.missing}")
        if out[f"{name}.untraced_pct"] > 5:
            print(f"warning: {out[f'{name}.untraced_pct']:.1f}% of the {name} step "
                  "is outside every traced layer")
    return out


def raw_figures(phases, setup_pairs) -> dict:
    """The end-to-end times as measured, without the reference correction:
    the medians, the reference kernel's median, and every (time, reference
    time) pair in seconds."""
    pairs = {"train": phases["train"].plain, "eval": phases["eval"].plain,
             "setup": setup_pairs}
    return {
        "train_iters_per_s": phases["train"].steps_per_chunk
        / statistics.median(t for t, _ in pairs["train"]),
        "eval_episodes_per_s": phases["eval"].steps_per_chunk
        / statistics.median(t for t, _ in pairs["eval"]),
        "setup_s": statistics.median(t for t, _ in setup_pairs),
        "reference_s": statistics.median(ref for p in pairs.values() for _, ref in p),
        "ref_seconds": REF_SECONDS,
        "pairs": {name: [[round(t, 7), round(ref, 7)] for t, ref in p]
                  for name, p in pairs.items()},
    }


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_pct"):
        return "%"
    return "count"


def run_workload(workload, seed, seconds, trace) -> int:
    spec = WORKLOADS[workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reference = Reference()
        setups, setup_pairs = [], []
        for _ in range(SETUP_REPEATS):
            world, parts = set_up(workload, seed, work)
            setups.append(parts)
            setup_pairs.append(reference.around(sum(parts.values())))
        check_shape(workload, world)
        tracers = ({name: Tracer(trace_targets(), count_init=tensor.Tensor)
                    for name in ("train", "eval")} if trace else {})
        phases = run_phases(
            {"train": (lambda ctx: train_chunk(world, spec, ctx), spec["train_chunk"]),
             "eval": (lambda ctx: eval_chunk(world, ctx), spec["eval_chunk"])},
            seconds, tracers, reference)
    except ShapeError as exc:
        print(f"shape check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            work.parent.rmdir()          # only when no other run is using it

    for name, ph in phases.items():
        if seed == DIGEST_SEED and ph.digest != DIGESTS[workload][name]:
            print(f"{name} digest {ph.digest} differs from the one recorded for "
                  f"seed {seed}: {DIGESTS[workload][name]}", file=sys.stderr)
            ph.failed = ph.attempted
    if not all(ph.plain and (ph.traced or not trace) for ph in phases.values()):
        print("no chunk of a phase succeeded; nothing to report", file=sys.stderr)
        return 1
    setup_parts = {part: statistics.median(s[part] for s in setups) for part in setups[0]}
    if trace:
        try:
            metrics = layer_metrics(workload, phases, tracers, setup_parts)
        except ShapeError as exc:
            print(f"shape check failed: {exc}", file=sys.stderr)
            return 1
        out = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"workload": workload, "seed": seed, "env": env,
                                   **{name: t.dump() for name, t in tracers.items()}}))
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        metrics = {
            "train_iters_per_s": per_second(phases["train"]),
            "eval_episodes_per_s": per_second(phases["eval"]),
            "setup_s": at_reference_speed(setup_pairs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print("raw " + json.dumps(raw_figures(phases, setup_pairs)))
    attempted = sum(ph.attempted for ph in phases.values())
    failed = sum(ph.failed for ph in phases.values())
    for name, value in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit_of(name)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(argv) -> int:
    """Every workload in its own process, one after the other, each given the
    command-line arguments ``argv``."""
    status, results = 0, []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, *argv],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{workload}] no result, exit code {proc.returncode}")
            status = 1
            continue
        status = status or proc.returncode or int(not result["correct"])
        results.append((workload, result))
    for workload, result in results:
        print(f"\n{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload (default: every workload)")
    p.add_argument("--seed", type=int, default=DIGEST_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="measured time per workload, split between train and eval "
                        "(default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    argv = sys.argv[1:] if argv is None else argv
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(argv)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
