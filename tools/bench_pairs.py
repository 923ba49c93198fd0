"""Paired benchmark runs of two checkouts, for claiming or ruling out a change
in speed.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json
                                 [--workloads demand_large,catalog,sweep]
                                 [--seeds 61-70]

For each workload and seed it runs `perfbench/run.py --trace 0` once in
PARENT and once in CHANGE, one run at a time, each in its own checkout and
for the `run_seconds` that `BENCHMARK.json` sets; the side that goes first
alternates from seed to seed, so that a drift of the host's speed does not
favour one side.  One more pair runs on the held-out seed
(`perfbench.spread.HELD_OUT_SEED`), which no change is tuned on; it is
reported on its own and enters no statistic.  Then it runs `--trace 1` once
per side on the first seed, whose per-layer counts depend only on the seed.

It writes to `--out`, per workload and end-to-end metric, the median and the
quartiles (`statistics.quantiles` with n=4) of each side, the median ratio
change/parent, the number of pairs in which the change was better, in the
metric's direction in `BENCHMARK.json`, and a verdict:
  - gain: the change is better in at least nine tenths of the pairs and its
    median beats the parent's by more than the parent's quartile distance;
  - worse: the change's median is worse than the parent's by more than the
    metric's bound in `BENCHMARK.json` (a fraction of the parent's median);
  - unresolved: neither, and the quartile distance of a side exceeds the
    bound times its median, unless every run of the change is better than
    every run of the parent;
  - within bound: otherwise.
It also writes every run's values, the held-out pair, and the traced
per-layer metrics of both sides, with the counted metrics (`COUNTED` in
`perfbench/run.py`) that differ between them.  It prints the table of
medians and verdicts and the held-out pair.  Exits non-zero if a run fails
or reads `correct` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import COUNTED  # noqa: E402
from perfbench.spread import HELD_OUT_SEED, seeds_of  # noqa: E402

TIMEOUT_S = 300
SIDES = ("parent", "change")


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} read correct false:\n"
                         f"{proc.stdout}")
    return result


def source_of(checkout: Path) -> dict:
    """The git tree of the checkout's `src`, and whether it has edits not in it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    return {"checkout": checkout.name, "src_tree": git("rev-parse", "HEAD:src"),
            "src_edited": bool(git("status", "--porcelain", "--", "src"))}


def quartiles(series: list) -> dict:
    q1, median, q3 = statistics.quantiles(series, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def verdict(series: dict, sign: int, wins: int, bound: float) -> str:
    """The verdict on one metric (see the module docstring); `sign` is 1
    where higher is better and -1 where lower is."""
    parent, change = quartiles(series["parent"]), quartiles(series["change"])
    gain = sign * (change["median"] - parent["median"])
    if wins >= 0.9 * len(series["parent"]) and gain > parent["q3"] - parent["q1"]:
        return "gain"
    if -gain > bound * parent["median"]:
        return "worse"
    separated = min(sign * v for v in series["change"]) > max(sign * v for v in series["parent"])
    wide = any(q["q3"] - q["q1"] > bound * q["median"] for q in (parent, change))
    return "unresolved" if wide and not separated else "within bound"


def run_pair(checkouts: dict, workload: str, seed: int, first: str, seconds: int,
             names) -> dict:
    """One parent/change pair of `--trace 0` runs on `seed`, `first` first."""
    pair = {"seed": seed, "first": first}
    for side in (SIDES if first == SIDES[0] else SIDES[::-1]):
        result = run(checkouts[side], workload, seed, seconds, 0)
        pair[side] = {name: result["metrics"][name]["value"] for name in names}
        pair[side]["failed"] = result["failed"]
    print(f"{workload} seed {seed}: " + "  ".join(
        f"{name} {pair['parent'][name]:.6g} -> {pair['change'][name]:.6g}"
        for name in names), flush=True)
    return pair


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_of, default=seeds_of("61-70"))
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("at least two seeds are needed for quartiles")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sources = {side: source_of(checkouts[side]) for side in SIDES}
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, held_out, end_to_end, per_layer = {}, {}, {}, {}
    for workload in args.workloads.split(","):
        runs[workload] = [run_pair(checkouts, workload, seed, SIDES[index % 2], seconds, better)
                          for index, seed in enumerate(args.seeds)]
        held_out[workload] = run_pair(checkouts, workload, HELD_OUT_SEED,
                                      SIDES[len(args.seeds) % 2], seconds, better)
        end_to_end[workload] = {}
        for name, direction in better.items():
            series = {side: [pair[side][name] for pair in runs[workload]] for side in SIDES}
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(series["parent"], series["change"]))
            row = {side: quartiles(series[side]) for side in SIDES}
            row.update(better=direction, change_wins=wins, pairs=len(args.seeds),
                       median_ratio=row["change"]["median"] / row["parent"]["median"],
                       bound=bounds[name], verdict=verdict(series, sign, wins, bounds[name]))
            end_to_end[workload][name] = row
        traced = {side: run(checkouts[side], workload, args.seeds[0], seconds, 1)
                  for side in SIDES}
        values = {side: {name: metric["value"] for name, metric in
                         traced[side]["metrics"].items()} for side in SIDES}
        per_layer[workload] = {
            "seed": args.seeds[0], **values,
            "counted_differ": [name for name in COUNTED
                               if values["parent"][name] != values["change"][name]],
        }

    args.out.write_text(json.dumps({
        "about": "Alternating parent/change pairs of perfbench/run.py --trace 0, one "
                 "run at a time, written by tools/bench_pairs.py, and one more pair on "
                 "the held-out seed (held_out), outside every statistic; per-layer "
                 "values from one --trace 1 run per side on the first seed.",
        "hardware": f"{platform.machine()}, {os.cpu_count()} CPUs; "
                    f"Python {platform.python_version()}",
        **sources, "seconds": seconds, "seeds": args.seeds,
        "end_to_end": end_to_end, "held_out": held_out, "per_layer": per_layer,
        "runs": runs,
    }, indent=2) + "\n", encoding="utf-8")

    print(f"\n| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          f"| change/parent | change better | verdict |")
    print("|---|---|---|---|---|---|---|")
    for workload, rows in end_to_end.items():
        for name, row in rows.items():
            p, c = row["parent"], row["change"]
            print(f"| {workload} | {name} | {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
                  f"| {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
                  f"| {row['median_ratio']:.3f} | {row['change_wins']}/{row['pairs']} "
                  f"| {row['verdict']} |")
    print(f"\nheld-out seed {HELD_OUT_SEED}, one pair:")
    print("| workload | metric | parent | change | change/parent | change better |")
    print("|---|---|---|---|---|---|")
    for workload, pair in held_out.items():
        for name, direction in better.items():
            p, c = pair["parent"][name], pair["change"][name]
            wins = (c - p) * (1 if direction == "higher" else -1) > 0
            print(f"| {workload} | {name} | {p:.4g} | {c:.4g} | {c / p:.3f} "
                  f"| {'yes' if wins else 'no'} |")
    for workload, layer in per_layer.items():
        print(f"{workload}: counted per-layer metrics that differ: "
              f"{', '.join(layer['counted_differ']) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
