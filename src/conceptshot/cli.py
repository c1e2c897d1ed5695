"""Command-line interface: data generation, training, evaluation, inspection
and ablation sweeps over a shared JSON config.

Exit codes: 0 success, 2 configuration error, 3 data/artifact error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys

from .artifact import write_text_atomic
from .config import (ExperimentConfig, apply_overrides, build_model, config_hash,
                     from_dict, load_config_dict, save_config, set_path)
from .data import generate_synthetic, load_dataset, save_dataset, summarize
from .errors import ConfigError, DataError, NumericalError
from .graph import describe, load_graph, save_graph
from .meta import evaluate, load_checkpoint, train


def _save_effective(cfg: ExperimentConfig, anchor_path: str, command: str):
    out = os.path.join(os.path.dirname(anchor_path) or ".",
                       f"effective-config.{command}.json")
    save_config(cfg, out)
    return out


def _load_world(cfg: ExperimentConfig):
    for label, path in (("graph", cfg.paths.graph), ("dataset", cfg.paths.dataset)):
        if not os.path.exists(path):
            raise DataError(f"{label} file {path} not found; run gen-data first")
    g = load_graph(cfg.paths.graph)
    ds = load_dataset(cfg.paths.dataset)
    ds.validate_against(g)
    if ds.input_dim != cfg.encoder.input_dim:
        raise DataError(f"dataset {cfg.paths.dataset} has input dim {ds.input_dim}, "
                        f"the config's encoder.input_dim is {cfg.encoder.input_dim}")
    # branching is not compared: a graph file need not be a balanced tree
    for what, found, key, wanted in (
            ("semantic dim", g.semantics.shape[1], "semantic_dim", cfg.data.semantic_dim),
            ("level count", g.num_levels, "num_levels", cfg.data.num_levels)):
        if found != wanted:
            raise DataError(f"graph {cfg.paths.graph} has {what} {found}, "
                            f"the config's data.{key} is {wanted}")
    return g, ds


def cmd_gen_data(cfg: ExperimentConfig) -> int:
    g, ds = generate_synthetic(cfg.data)
    save_graph(g, cfg.paths.graph)
    save_dataset(ds, cfg.paths.dataset)
    _save_effective(cfg, cfg.paths.graph, "gen-data")
    print(f"wrote {cfg.paths.graph} and {cfg.paths.dataset}")
    print(describe(g))
    print(summarize(ds, g))
    return 0


def _train_and_write(cfg: ExperimentConfig, log=None):
    """(model, dataset): ``cfg``'s model trained, logging to ``log``, with its
    checkpoint, its metrics and the effective config beside them written."""
    g, ds = _load_world(cfg)
    model = build_model(cfg, g)
    train(model, ds, cfg.train, metrics_path=cfg.paths.metrics,
          checkpoint_path=cfg.paths.checkpoint, config_hash=config_hash(cfg), log=log)
    _save_effective(cfg, cfg.paths.checkpoint, "train")
    return model, ds


def cmd_train(cfg: ExperimentConfig) -> int:
    _train_and_write(cfg, log=print)
    print(f"wrote {cfg.paths.checkpoint} and {cfg.paths.metrics}")
    return 0


def _evaluate_and_write(cfg: ExperimentConfig, model, ds, split="meta-test", level=None):
    """Evaluate ``model``; write each episode's accuracy to ``paths.eval_csv``
    and the effective config beside it."""
    res = evaluate(model, ds, cfg.eval, split=split, level=level)
    write_text_atomic(cfg.paths.eval_csv, ["episode,accuracy\n"] + [
        f"{i},{a!r}\n" for i, a in enumerate(res.accuracies)])
    _save_effective(cfg, cfg.paths.eval_csv, "eval")
    return res


def cmd_eval(cfg: ExperimentConfig, split: str, level, untrained: bool) -> int:
    g, ds = _load_world(cfg)
    model = build_model(cfg, g)
    if not untrained:
        load_checkpoint(cfg.paths.checkpoint, model)
    res = _evaluate_and_write(cfg, model, ds, split, level)
    where = f"split {split}" if level is None else f"level {level}"
    print(f"accuracy {res.mean:.4f} ± {res.half_width:.4f} "
          f"({cfg.eval.n_episodes} episodes, {cfg.eval.n_way}-way "
          f"{cfg.eval.k_shot}-shot, {where})")
    return 0


def cmd_inspect(cfg: ExperimentConfig) -> int:
    if not os.path.exists(cfg.paths.graph):
        raise DataError(f"graph file {cfg.paths.graph} not found; run gen-data first")
    g = load_graph(cfg.paths.graph)
    print(describe(g))
    if os.path.exists(cfg.paths.dataset):
        ds = load_dataset(cfg.paths.dataset)
        ds.validate_against(g)
        print(summarize(ds, g))
    return 0


def _ablation_variants(axis: str, cfg: ExperimentConfig):
    if axis == "concepts":
        return [("concepts-on", {"train.concept_weight": 1.0}),
                ("concepts-off", {"train.concept_weight": 0.0})]
    if axis == "semantics":
        return [("embeddings", {"generator.semantics": "embeddings"}),
                ("one-hot", {"generator.semantics": "one-hot"})]
    if axis == "weak-only":
        return [("with-entities", {"train.entity_weight": 1.0}),
                ("weak-only", {"train.entity_weight": 0.0})]
    if axis == "concept-weight":
        return [(f"cw{v}", {"train.concept_weight": v})
                for v in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5)]
    if axis == "scale":
        return [(f"norm{v}", {"generator.scale": v})
                for v in (0.1, 0.2, 0.4, 0.7, 1.0)]
    if axis == "partition":
        return [(f"low{i}", {"encoder.low_layers": i})
                for i in range(len(cfg.encoder.widths) + 1)]
    raise ConfigError(f"unknown ablation axis '{axis}'")


def cmd_ablate(base_dict: dict, axis: str) -> int:
    base = from_dict(base_dict)
    if not (os.path.exists(base.paths.graph) and os.path.exists(base.paths.dataset)):
        cmd_gen_data(base)
    root = os.path.dirname(base.paths.checkpoint) or "."
    rows = []
    for label, overrides in _ablation_variants(axis, base):
        vd = copy.deepcopy(base_dict)
        for key, value in overrides.items():
            set_path(vd, key, value)
        sub = os.path.join(root, f"ablate-{axis}", label)
        set_path(vd, "paths.checkpoint", os.path.join(sub, "model.ckpt"))
        set_path(vd, "paths.metrics", os.path.join(sub, "metrics.csv"))
        set_path(vd, "paths.eval_csv", os.path.join(sub, "eval-episodes.csv"))
        cfg = from_dict(vd)
        print(f"[{label}] training ...")
        rows.append((label, _evaluate_and_write(cfg, *_train_and_write(cfg))))
    width = max(len(label) for label, _ in rows)
    print(f"\n{axis} sweep ({base.eval.n_way}-way {base.eval.k_shot}-shot, "
          f"{base.eval.n_episodes} episodes, seed {base.train.seed}):")
    for label, res in rows:
        print(f"  {label:<{width}}  {res.mean:.4f} ± {res.half_width:.4f}")
    return 0


def _parser():
    p = argparse.ArgumentParser(
        prog="conceptshot",
        description="Few-shot classification driven by a concept hierarchy: "
                    "synthetic data, meta-training, evaluation, ablations.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("-c", "--config", metavar="FILE",
                        help="JSON config file (defaults apply when omitted)")
        sp.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config value by dotted path, "
                             "e.g. train.seed=3")

    common(sub.add_parser("gen-data", help="generate the synthetic hierarchy "
                                           "and its samples"))
    common(sub.add_parser("train", help="meta-train and write checkpoint/metrics"))
    ev = sub.add_parser("eval", help="episodic evaluation of a checkpoint")
    common(ev)
    ev.add_argument("--split", default="meta-test",
                    choices=["meta-train", "meta-test"])
    ev.add_argument("--level", type=int, default=None,
                    help="evaluate concept episodes at this level instead of "
                         "entity episodes")
    ev.add_argument("--untrained", action="store_true",
                    help="skip checkpoint loading; evaluate the seeded init")
    common(sub.add_parser("inspect-graph", help="print hierarchy and dataset "
                                                "summaries"))
    ab = sub.add_parser("ablate", help="train/eval a named sweep of variants")
    common(ab)
    ab.add_argument("axis", choices=["concepts", "semantics", "weak-only",
                                     "concept-weight", "scale", "partition"])
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw = load_config_dict(args.config) if args.config else {}
        apply_overrides(raw, args.overrides)
        cfg = from_dict(raw)
        print(f"effective config hash {config_hash(cfg)}")
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.split, args.level, args.untrained)
        if args.command == "inspect-graph":
            return cmd_inspect(cfg)
        if args.command == "ablate":
            return cmd_ablate(raw, args.axis)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
