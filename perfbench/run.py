"""Benchmark for liegrowth: four closed-loop workloads with independent checks.

    python3 perfbench/run.py --workload exponent-fit --seed 1 --seconds 30 --trace 0

One caller, one process per workload, no extra threads: each job starts when
the previous one has returned. Jobs call the program's public entry points in process
(``liegrowth.cli.main`` with ``--out`` into a work directory, or
``parse_expr`` then ``normalize_expr``). After set-up, passes over the
workload's fixed job list repeat for as many whole passes as fit in
``--seconds`` (at least one). The untraced run repeats set-up between the
passes, SETUP_ROUNDS times in all. Every output is then checked against
computations made apart from the program (``checks.py``), outside the timed
window. Every reported time is the wall time scaled to a host of nominal
speed by a reference kernel timed next to it (``hostspeed.py``).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the last line reports
per-layer metrics from the traced ones, plus the tracing overhead. Spans are
written to ``perfbench/results/``. ``--workload all`` runs the four workloads
one after another, each in a child process of its own.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_ROUNDS = 15


class Program:
    """The liegrowth modules the jobs call, freshly imported."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "liegrowth" or m.startswith("liegrowth.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("liegrowth.cli")
        self.expr = importlib.import_module("liegrowth.expr")
        self.metabelian = importlib.import_module("liegrowth.metabelian")


def find_program() -> None:
    """Put the checkout's src/ first on the path; exit 2 if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "liegrowth", "__init__.py")):
        sys.stderr.write(f"error: no liegrowth sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)


def set_up(wl, seed: int, tiny: bool):
    """Import, generate inputs, run one warm-up job. Returns (program, jobs, warm, warm output)."""
    prog = Program()
    jobs, warm = wl.build(seed, tiny)
    _, ok, result = wl.run(prog, warm)
    if not ok:
        raise RuntimeError(f"warm-up job {warm['name']} failed")
    return prog, jobs, warm, wl.collect(warm, result)


def run_pass(wl, prog, jobs, host, tracer=None):
    """One pass; returns (per-job (wall seconds, start), per-job ok, outputs).

    The reference kernel runs before the pass, between jobs whenever
    SAMPLE_EVERY_S has gone by, and after the pass. Job times exclude it.
    """
    timed, oks, results = [], [], []
    host.sample()
    for index, job in enumerate(jobs):
        if host.due():
            host.sample()
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        elapsed, ok, result = wl.run(prog, job)
        timed.append((elapsed, t0))
        oks.append(ok)
        results.append(result)
    host.sample()
    outputs = [wl.collect(job, r) if ok else None for job, ok, r in zip(jobs, oks, results)]
    return timed, oks, outputs


def layer_metrics(tracer, wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one traced pass of the given wall time."""
    calls, total, self_t, counts = tracer.calls, tracer.total, tracer.self_time, tracer.counts
    brackets = calls["wreath.bracket"]
    m = {
        "series.euler_transform.calls": (calls["series.euler_transform"], "count"),
        "series.euler_transform.s": (total["series.euler_transform"], "s"),
        "series.coeffs": (counts["series.coeffs"], "count"),
        "series.coeff_bits": (counts["series.coeff_bits"], "bits"),
        "series.fit.s": (total["series.fit"], "s"),
        "growth.growth_bfs.calls": (calls["growth.growth_bfs"], "count"),
        "growth.growth_bfs.self_s": (self_t["growth.growth_bfs"], "s"),
        "growth.candidates": (counts["growth.candidates"], "count"),
        "growth.accept_ratio": (
            counts["growth.accepted"] / counts["growth.candidates"] if counts["growth.candidates"] else 0.0,
            "ratio",
        ),
        "wreath.bracket.calls": (brackets, "count"),
        "wreath.bracket.self_s": (self_t["wreath.bracket"], "s"),
        "wreath.bracket.zero_ratio": (counts["wreath.bracket.zero"] / brackets if brackets else 0.0, "ratio"),
        "wreath.magnus_embedding.s": (total["wreath.magnus_embedding"], "s"),
        "poly.mul.calls": (calls["poly.mul"], "count"),
        "poly.mul.s": (total["poly.mul"], "s"),
        "poly.add.calls": (calls["poly.add"], "count"),
        "poly.terms_out": (counts["poly.terms_out"], "count"),
        "rowspace.add.calls": (calls["rowspace.add"], "count"),
        "rowspace.add.s": (total["rowspace.add"], "s"),
        "rowspace.add.grew": (counts["rowspace.add.grew"], "count"),
        "expr.left_normalize.calls": (calls["expr.left_normalize"], "count"),
        "expr.left_normalize.s": (total["expr.left_normalize"], "s"),
        "expr.left_normalize.words": (counts["expr.left_normalize.words"], "count"),
        "expr.parse_expr.s": (total["expr.parse_expr"], "s"),
        "metabelian.normalize_expr.self_s": (self_t["metabelian.normalize_expr"], "s"),
        "metabelian.normalize_word.calls": (calls["metabelian.normalize_word"], "count"),
        "metabelian.bracket.s": (total["metabelian.bracket"], "s"),
        "expr.evaluate.s": (total["expr.evaluate"], "s"),
        "expr.format_expr.s": (total["expr.format_expr"], "s"),
        "presentations.build.s": (total["presentations.build"], "s"),
        "presentations.relators": (counts["presentations.relators"], "count"),
        "presentations.check.self_s": (self_t["presentations.check"], "s"),
        "cli.main.self_s": (self_t["cli.main"], "s"),
    }
    # share of the pass spent in each layer's own code; "bench" is the
    # harness outside every span
    for layer in LAYERS:
        own = sum(t for name, t in self_t.items() if name.split(".")[0] == layer)
        m[f"layer.{layer}.share"] = (own / wall, "ratio")
    m["layer.bench.share"] = ((wall - tracer.top_level) / wall, "ratio")
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}-{name}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](workdir)
        # (job name, repr of output) -> (job, output): an output that repeats
        # exactly is kept and checked once, so that the memory the harness
        # holds, and with it peak_rss_mb, does not grow with the pass count
        # set-ups and jobs record their wall times and starts; they are scaled
        # to the nominal host speed once the kernel samples after them are in
        checked, set_ups, host = {}, [], hostspeed.HostSpeed()

        def keep(job, out) -> None:
            checked.setdefault((job["name"], repr(out)), (job, out))

        def timed_set_up():
            host.sample()
            t0 = time.perf_counter()
            prog, jobs, warm, warm_out = set_up(wl, seed, tiny)
            wall = time.perf_counter() - t0
            set_ups.append((wall, t0))
            host.sample()
            keep(warm, warm_out)
            return prog, jobs

        def spread_set_ups(share: float) -> None:
            # the untraced run repeats set-up between rounds, in step with the
            # share of `seconds` gone, so that its median spans the host's
            # fast and slow stretches; the passes keep the first program
            rounds = 1 if trace else min(SETUP_ROUNDS, math.ceil(SETUP_ROUNDS * share))
            while len(set_ups) < rounds:
                timed_set_up()

        prog, jobs = timed_set_up()
        passes, traced_passes = [], []
        attempted = failed = 0
        tracer = Tracer() if trace else None
        # whole rounds (one pass, or an untraced and a traced pass) until the
        # next round would end after `seconds`; always at least one round
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for traced in ((False, True) if trace else (False,)):
                if traced:
                    tracer.reset()
                    with tracer.installed():
                        timed, oks, outputs = run_pass(wl, prog, jobs, host, tracer)
                    # keep the spans of the first traced pass only
                    tracer.keep_spans = False
                    traced_passes.append((timed, layer_metrics(tracer, sum(t for t, _ in timed))))
                else:
                    timed, oks, outputs = run_pass(wl, prog, jobs, host)
                    passes.append(timed)
                attempted += len(jobs)
                failed += oks.count(False)
                for job, out in zip(jobs, outputs):
                    if out is not None:
                        keep(job, out)
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
            spread_set_ups((now - start) / seconds)
        spread_set_ups(1.0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = []
        for job, out in checked.values():
            problems += [f"{name}: {job['name']}: {p}" for p in wl.check(job, out)]

        nominal = [[host.at_nominal(*t) for t in timed] for timed in passes]
        pass_times = [sum(ts) for ts in nominal]
        job_times = list(zip(*nominal))
        largest = next(i for i, job in enumerate(jobs) if job["largest"])
        samples = [t for ts in job_times for t in ts]
        result = {
            "workload": name,
            "correct": not problems,
            "problems": problems,
            "attempted": attempted,
            "failed": failed,
            "passes": len(pass_times),
            "job_samples": len(samples),
            "pass_wall_s": statistics.median(sum(t for t, _ in timed) for timed in passes),
            "kernel_s": statistics.median(host.samples),
            "kernel_samples": len(host.samples),
        }
        if trace:
            traced_times = [sum(host.at_nominal(*t) for t in timed) for timed, _ in traced_passes]
            overhead = statistics.median(traced_times) / statistics.median(pass_times) - 1
            # a traced pass's layer times are scaled as its jobs are on the whole
            per_layer = []
            for (timed, m), nominal_s in zip(traced_passes, traced_times):
                scale = nominal_s / sum(t for t, _ in timed)
                per_layer.append({k: (v * scale if u == "s" else v, u) for k, (v, u) in m.items()})
            metrics = {
                key: (statistics.median(m[key][0] for m in per_layer), unit)
                for key, (_, unit) in per_layer[0].items()
            }
            metrics["trace.overhead"] = (100 * overhead, "%")
            path = os.path.join(RESULTS, f"trace-{name}-seed{seed}.npz")
            result["spans"] = tracer.write(path)
            result["span_file"] = os.path.relpath(path, ROOT)
        else:
            metrics = {
                "setup_s": (statistics.median(host.at_nominal(*s) for s in set_ups), "s"),
                "pass_s": (statistics.median(pass_times), "s"),
                # median over the jobs of each job's median: pooling all samples
                # would flip between the two jobs either side of a gap in the
                # middle of a short job list as the number of passes changes
                "job_p50_s": (statistics.median(statistics.median(ts) for ts in job_times), "s"),
                "largest_job_s": (statistics.median(job_times[largest]), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report_lines(result: dict) -> list[str]:
    lines = [
        f"workload {result['workload']}: {result['passes']} passes, "
        f"{result['attempted']} jobs attempted, {result['failed']} failed, "
        f"{result['job_samples']} timed job samples, correct={result['correct']}",
        f"  host: reference kernel median {result['kernel_s'] * 1e3:.3f} ms over "
        f"{result['kernel_samples']} samples (nominal {hostspeed.NOMINAL_S * 1e3:.3f} ms); "
        f"median pass wall time {result['pass_wall_s']:.6g} s",
    ]
    lines += [f"  {p}" for p in result["problems"][:20]]
    for key, m in result["metrics"].items():
        lines.append(f"  {key:36s} {m['value']:.6g} {m['unit']}")
    if "spans" in result:
        lines.append(f"  {result['spans']} spans written to {result['span_file']}")
    return lines


def run_all(args) -> dict:
    """Run each workload in a child process of its own, one after another.

    A child per workload makes ``peak_rss_mb`` that workload's own peak: the
    process high-water mark would otherwise carry over from the workloads
    before it. Exits with code 1 if a child prints no result.
    """
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stderr.write(f"error: workload {name} exited with code {proc.returncode} and no result\n")
            sys.exit(1)
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": m for name, r in results.items() for k, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    find_program()

    if args.workload == "all":
        final = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(report_lines(result)), flush=True)
        final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
