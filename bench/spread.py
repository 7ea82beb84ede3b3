"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload coop-2d --seeds 0-9 --seconds 30

Runs run.py once per seed, one run at a time, and prints for each metric the
median and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to a
third of the metric's bound in BENCHMARK.json.  A JSON line per run and a
summary are appended to --log.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--log", default=str(ROOT / ".bench_work" / "spread.jsonl"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log = Path(args.log)
    log.parent.mkdir(parents=True, exist_ok=True)
    values: dict = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 "result": result}) + "\n")
        brief = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{brief}", flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(k)
        target = f"{bound / 3:.4f}" if bound else "-"
        print(f"{k:34s} median {med:.6g}  iqr/median {spread:.4f}  "
              f"bound/3 {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
