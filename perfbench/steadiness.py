"""Repeat the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/steadiness.py --workload normal-form --runs 10

Runs ``run.py`` untraced once per seed 1, 2, ..., one run at a time,
and prints for each metric its median and the distance between the first and
third quartile as a share of the median, next to a third of the metric's
bound from BENCHMARK.json. It also prints the spread of two figures each run
prints before its result: the reference kernel's median time and the median
pass wall time before scaling to the nominal host speed. Each run's last line
is appended to ``perfbench/results/steadiness-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_LINE = re.compile(r"kernel median ([0-9.]+) ms .* median pass wall time ([0-9.e+-]+) s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = os.path.join(HERE, "results", f"steadiness-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    values: dict[str, list[float]] = {}
    shares, durations = set(), []
    for seed in range(1, args.runs + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        durations.append(time.perf_counter() - t0)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        with open(log, "a") as fh:
            fh.write(last + "\n")
        result = json.loads(last)
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        host = HOST_LINE.search(proc.stdout)
        values.setdefault("(kernel_ms)", []).append(float(host.group(1)))
        values.setdefault("(unscaled pass wall s)", []).append(float(host.group(2)))
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    print(f"failed share per run: {sorted(shares)}; longest run {max(durations):.1f} s")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        limit = f"  third of bound {bounds[name] / 3:.3f}" if name in bounds else ""
        print(f"{name:36s} median {med:.6g}  spread {spread:.3f}{limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
