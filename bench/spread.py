"""Run-to-run spread of the benchmark's end-to-end metrics, and the baseline file.

    python3 bench/spread.py                         # seeds 0-9, then seed 0 ten times
    python3 bench/spread.py --seeds 0-4 --repeat 0 --workload tree-85
    python3 bench/spread.py --out bench/BENCH_0.json

Runs bench/run.py once per seed and workload, each in its own process, for
BENCHMARK.json's run_seconds, in two sets:

- ``across_seeds``: one run on each of --seeds.  Each seed makes its own
  hierarchy and dataset, so this spread mixes input variation with noise.
- ``repeated``: --repeat runs of the command's own seed, 0, whose output
  digests run.py checks against the recorded ones in every run.  This
  spread is noise alone, and these runs make the baseline.

The runs of the two sets take turns, so slow drift of the machine hits both.
For every end-to-end metric, and for the raw figures (the times as measured,
without run.py's reference correction), it prints the median, the quartiles
as ``statistics.quantiles(values, n=4)`` gives them, and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  It checks that every run is correct and reports exactly the
metrics BENCHMARK.json lists.  With --out it adds one traced run per
workload on seed 0 and writes every value, with the environment and the raw
figures of each run, to the given JSON file.  The exit code is 1 when a run
fails or an end-to-end spread exceeds its bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGEST_SEED = 0
RAW = ["train_iters_per_s", "eval_episodes_per_s", "setup_s", "reference_s"]


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace):
    """(result, env, raw figures) of one run; exits when the run gives no
    result or fails."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    tagged = {line.partition(" ")[0]: json.loads(line.partition(" ")[2])
              for line in lines if line.startswith(("env ", "raw "))}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{workload} seed {seed}: no result (exit code {proc.returncode})")
    if proc.returncode or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: failed {result['failed']} of "
                 f"{result['attempted']} (exit code {proc.returncode})")
    return result, tagged.get("env", {}), tagged.get("raw")


def spread_of(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def summarise(label, runs, metrics):
    """Print and return the spread of each metric over ``runs``; the second
    value is True when an end-to-end spread exceeds its bound."""
    print(f"\n{label} ({len(runs)} runs)")
    summary, over_any = {"raw": {}}, False
    for name, m in metrics.items():
        s = spread_of([r["metrics"][name] for r in runs])
        over = s["spread"] > m["bound"]
        over_any = over_any or over
        summary[name] = {**s, "bound": m["bound"], "unit": m["unit"]}
        print(f"  {name:<22} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:7.2%}  bound {m['bound']:.0%}"
              f"{'  OVER BOUND' if over else ''}")
    for name in RAW:
        s = spread_of([r["raw"][name] for r in runs])
        summary["raw"][name] = s
        print(f"  raw {name:<18} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:7.2%}")
    return summary, over_any


def compact(text):
    """Put each list of numbers of an indented JSON text on one line."""
    return re.sub(r"\[\s+([-0-9.e,\s]+?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("0-9"),
                   help="inclusive range for the across-seeds set (default 0-9)")
    p.add_argument("--repeat", type=int, default=10,
                   help=f"runs of seed {DIGEST_SEED} in the repeated set (default 10)")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]],
                   help="repeatable; default: every workload")
    p.add_argument("--out", type=Path, help="write a baseline JSON file here")
    args = p.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    layers = [m["name"] for m in bench["per_layer"]]

    plan = []                            # (set, seed), the two sets taking turns
    for i in range(max(len(args.seeds), args.repeat)):
        plan += [("across_seeds", args.seeds[i])] if i < len(args.seeds) else []
        plan += [("repeated", DIGEST_SEED)] if i < args.repeat else []
    runs = {w: {"across_seeds": [], "repeated": []} for w in workloads}
    for which, seed in plan:
        for w in workloads:
            result, env, raw = run_once(w, seed, 0)
            if sorted(result["metrics"]) != sorted(metrics):
                sys.exit(f"{w}: end-to-end metrics {sorted(result['metrics'])} "
                         f"differ from BENCHMARK.json")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[w][which].append({"seed": seed, "env": env, "metrics": values, "raw": raw})
            print(f"{w} {which} seed {seed}: "
                  + "  ".join(f"{k} {v:.6g}" for k, v in values.items())
                  + f"  reference_s {raw['reference_s']:.6g}", flush=True)

    status, summary = 0, {}
    for w in workloads:
        summary[w] = {}
        for which, label in (("across_seeds", f"seeds {args.seeds[0]}-{args.seeds[-1]}"),
                             ("repeated", f"seed {DIGEST_SEED} repeated")):
            if runs[w][which]:
                summary[w][which], over = summarise(f"{w}, {label}", runs[w][which],
                                                    metrics)
                status = status or int(over)

    if args.out:
        traced = {}
        for w in workloads:
            result, env, _ = run_once(w, DIGEST_SEED, 1)
            if sorted(result["metrics"]) != sorted(layers):
                sys.exit(f"{w}: per-layer metrics differ from BENCHMARK.json")
            traced[w] = {"seed": DIGEST_SEED, "env": env,
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        command = ["python3", "bench/spread.py"] + (argv if argv is not None
                                                    else sys.argv[1:])
        args.out.write_text(compact(json.dumps({
            "command": " ".join(command), "run_seconds": bench["run_seconds"],
            "summary": summary, "runs": runs, "traced": traced}, indent=1)) + "\n")
        print(f"\nwrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
