#!/usr/bin/env python3
"""wavesel benchmark: replication throughput on four workloads, traced by module.

Run from the repository root:

    python3 perfbench/run.py --workload vfold --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: set-up time
(median over fresh interpreters), replication throughput overall and per
sample size, and peak resident memory. With ``--trace 1`` it measures the
same workload untraced for half the time and traced for the other half,
and reports per-layer metrics from the spans. Every block's outputs are
checked; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads
from tracer import LAYERS, Tracer, aggregate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5
# one compute thread per workload process: BLAS threads would compete with
# each other, and with the bench's pool in the jobs check, on a small machine
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIZES = (256, 1024, 4096)
REP_ROOTS = ("cli.main", "concentration.run_concentration")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (one set-up sample)")
    return parser.parse_args(argv)


class Phase:
    """Blocks run in whole rounds until ``seconds`` of wall time have passed.

    A rate is the lower quartile of the block rates at one sample size, or
    of the round rates overall (every round has the same mix of sizes).
    On a shared host the speed alternates between a contended and an
    uncontended level, and the share of time in each drifts from minute to
    minute. The median flips between the two levels when that share nears
    one half; the lower quartile stays on the contended level unless the
    host is quiet for three quarters of the run, so it varies less from
    run to run.
    The phase appends itself to ``ledger`` before it starts, so a run that
    crashes part-way can still count the operations it attempted.
    """

    def __init__(self, workload, seconds: float, ledger: list, tracer=None):
        self.blocks = []   # (round, block index, Block)
        ledger.append(self)
        start, cpu = time.perf_counter(), time.process_time()
        r = 0
        while True:
            for index in workload.round(r):
                if tracer is not None:
                    tracer.tag = workload.size(index)
                self.blocks.append((r, index, workload.run(index)))
            r += 1
            if time.perf_counter() - start >= seconds:
                break
        self.wall = time.perf_counter() - start
        self.cpu = time.process_time() - cpu
        self.rounds = r

    def _select(self, kind, n):
        return [(r, b) for r, _, b in self.blocks if b.kind == kind and (n is None or b.n == n)]

    def samples(self, kind="rep", n=None) -> list:
        """Items per second of each block of size n, or of each round."""
        sel = self._select(kind, n)
        if n is not None:
            return [b.count / b.seconds for _, b in sel]
        rounds = {}
        for r, b in sel:
            count, seconds = rounds.get(r, (0, 0.0))
            rounds[r] = (count + b.count, seconds + b.seconds)
        return [c / s for c, s in rounds.values()]

    def rate(self, kind="rep", n=None) -> float:
        """Lower quartile of the block (or round) rates."""
        samples = self.samples(kind, n)
        if len(samples) < 2:
            return samples[0] if samples else 0.0
        return statistics.quantiles(samples, n=4, method="inclusive")[0]

    def count(self, kind="rep", n=None) -> int:
        return sum(b.count for _, b in self._select(kind, n))

    @property
    def attempted(self) -> int:
        return sum(b.attempted for _, _, b in self.blocks)

    @property
    def failed(self) -> int:
        return sum(b.failed for _, _, b in self.blocks)


def setup_seconds(args) -> float:
    """Median wall time of fresh interpreters from spawn to measured phase."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc})")
        samples.append(elapsed)
    return statistics.median(samples)


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(phase: Phase, setup_s: float) -> dict:
    return {
        "setup_s": metric(setup_s, "s"),
        "reps_per_s": metric(phase.rate(), "1/s"),
        "reps_per_s.n1024": metric(phase.rate(n=1024), "1/s"),
        "reps_per_s.n4096": metric(phase.rate(n=4096), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


class Traced:
    """Per-layer statistics of a traced phase, normalised per replication."""

    def __init__(self, phase: Phase, stats: dict):
        self.phase = phase
        self.stats = stats
        self.reps = phase.count()
        self.queried = set()   # span names the metrics read

    def total(self, name=None, roots=REP_ROOTS, tag=None, prefix=None):
        if name is not None:
            self.queried.add(name)
        calls = self_ns = total_ns = flops = 0
        for (root, t, span), st in self.stats.items():
            if root not in roots or (tag is not None and t != tag):
                continue
            if (name is not None and span != name) or (prefix and not span.startswith(prefix)):
                continue
            calls += st.calls
            self_ns += st.self_ns
            total_ns += st.total_ns
            flops += st.flops
        return calls, self_ns, total_ns, flops

    def calls_per_rep(self, name, tag=None):
        reps = self.phase.count(n=tag) if tag is not None else self.reps
        return self.total(name, tag=tag)[0] / reps if reps else 0.0

    def self_ms_per_rep(self, name=None, prefix=None):
        return self.total(name, prefix=prefix)[1] / 1e6 / self.reps if self.reps else 0.0

    def per_call_ms(self, name, inclusive=True, roots=REP_ROOTS):
        calls, self_ns, total_ns, _ = self.total(name, roots=roots)
        return (total_ns if inclusive else self_ns) / 1e6 / calls if calls else 0.0

    def per_block(self, name, field):
        blocks = self.total("cli.main")[0]
        value = self.total(name)[field]
        return value / blocks if blocks else 0.0

    def mflops(self, name):
        _, self_ns, _, flops = self.total(name)
        return flops / (self_ns / 1e9) / 1e6 if self_ns else 0.0


def per_layer(untraced: Phase, traced: Traced) -> dict:
    t = traced
    m = {}

    def put(name, value, unit):
        m[name] = metric(value, unit)

    put("transform.analyze.calls_per_rep", t.calls_per_rep("transform.analyze"), "count")
    put("transform.analyze.ms_per_rep", t.self_ms_per_rep("transform.analyze"), "ms")
    put("transform.analyze.mflops_computed", t.mflops("transform.analyze"), "MFLOP/s")
    put("transform.synthesize.calls_per_rep", t.calls_per_rep("transform.synthesize"), "count")
    for n in SIZES:
        put(f"transform.synthesize.calls_per_rep.n{n}",
            t.calls_per_rep("transform.synthesize", tag=n), "count")
    put("transform.synthesize.ms_per_rep", t.self_ms_per_rep("transform.synthesize"), "ms")
    put("transform.synthesize.mflops_computed", t.mflops("transform.synthesize"), "MFLOP/s")
    put("transform.validate_filter.calls_per_rep",
        t.calls_per_rep("transform.validate_filter"), "count")
    put("signals.generate.ms_per_rep", t.self_ms_per_rep("signals.generate"), "ms")
    put("signals.benchmark_signal.calls", t.per_block("signals.benchmark_signal", 0), "count")
    put("signals.benchmark_signal.ms", t.per_block("signals.benchmark_signal", 2) / 1e6, "ms")
    for name in ("fit_collection", "select_sh", "penalty_path", "select_cp",
                 "fold_fitted", "select_vfcv", "select_penvf"):
        put(f"selection.{name}.ms_per_rep", t.self_ms_per_rep(f"selection.{name}"), "ms")
    put("bench.run_bench.self_ms_per_rep", t.self_ms_per_rep("bench.run_bench"), "ms")
    put("bench.cpu_util", untraced.cpu / untraced.wall, "ratio")
    put("cli.main.self_ms", t.per_call_ms("cli.main", inclusive=False), "ms")
    put("estimator.fit_ls.ms_per_rep", t.self_ms_per_rep("estimator.fit_ls"), "ms")
    put("estimator.excess_risks.ms_per_rep", t.self_ms_per_rep("estimator.excess_risks"), "ms")
    put("estimator.project_truth.calls_per_rep",
        t.calls_per_rep("estimator.project_truth"), "count")
    put("estimator.signal_grid_values.calls_per_rep",
        t.calls_per_rep("estimator.signal_grid_values"), "count")
    put("estimator.compute_Cm.ms", t.per_call_ms("estimator.compute_Cm"), "ms")
    put("bases.basis_matrix.calls_per_rep", t.calls_per_rep("bases.basis_matrix"), "count")
    put("bases.basis_matrix.ms_per_rep", t.self_ms_per_rep("bases.basis_matrix"), "ms")
    put("concentration.run_concentration.self_ms",
        t.per_call_ms("concentration.run_concentration", inclusive=False), "ms")
    put("concentration.rep_formula_oracle.ms_per_instance",
        t.per_call_ms("concentration.rep_formula_oracle",
                      roots=("concentration.rep_formula_oracle",)), "ms")
    for layer in LAYERS:
        put(f"{layer}.self_ms_per_rep", t.self_ms_per_rep(prefix=layer + "."), "ms")
    put("trace.overhead_frac", 1.0 - t.phase.rate() / untraced.rate(), "ratio")
    put("reps_per_s.n256", untraced.rate(n=256), "1/s")
    put("oracle_instances_per_s", untraced.rate(kind="instance"), "1/s")
    failed = untraced.failed + t.phase.failed
    put("failed_frac", failed / (untraced.attempted + t.phase.attempted), "ratio")
    return m


def span_table(traced: Traced) -> list:
    """Human-readable lines: every traced name under the replication roots."""
    names = sorted({span for (root, _, span) in traced.stats if root in REP_ROOTS})
    rows = []
    for name in names:
        calls, self_ns, total_ns, _ = traced.total(name)
        rows.append((self_ns, name, calls, total_ns))
    all_self = sum(r[0] for r in rows) or 1
    lines = [f"{'span':45s} {'calls/rep':>10s} {'self ms/rep':>12s} {'self %':>7s} "
             f"{'incl ms/rep':>12s}"]
    for self_ns, name, calls, total_ns in sorted(rows, reverse=True):
        lines.append(f"{name:45s} {calls / traced.reps:10.3f} {self_ns / 1e6 / traced.reps:12.4f} "
                     f"{100 * self_ns / all_self:7.2f} {total_ns / 1e6 / traced.reps:12.4f}")
    return lines


def run(args, workdir, phases: list) -> tuple:
    """Run the workload; return (output lines, metrics)."""
    setup_s = None if args.trace else setup_seconds(args)
    wl = workloads.make(args.workload, args.seed, workdir)
    wl.setup()
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
             f"trace {args.trace}, nproc {os.cpu_count()}"]
    if not args.trace:
        phase = Phase(wl, args.seconds, phases)
        metrics = end_to_end(phase, setup_s)
    else:
        phase = Phase(wl, args.seconds / 2, phases)
        tracer = Tracer()
        tracer.install()
        try:
            traced_phase = Phase(wl, args.seconds / 2, phases, tracer)
        finally:
            tracer.uninstall()
        traced = Traced(traced_phase, aggregate(tracer.spans))
        metrics = per_layer(phase, traced)
        absent = sorted(traced.queried - tracer.wrapped)
        lines.append(f"absent (not found in the package, reported as 0): {absent or 'none'}")
        lines += span_table(traced)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path)
        lines.append(f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")

    first = phases[0]
    per_round = len(wl.round(0))
    head = [b for _, _, b in first.blocks[:per_round]]
    if args.workload == "vfold":
        # criterion 8: the report bytes do not depend on --jobs; run once,
        # outside the timed phases, through the bench's thread pool
        for _, index, block in first.blocks[:per_round]:
            if wl.run(index, jobs=2).digest != block.digest:
                raise workloads.CheckError(
                    f"block {index}: report at --jobs 2 differs from --jobs 1")
        lines.append("jobs check: first-round reports at --jobs 2 equal those at --jobs 1")
    lines.append("raw report sha256, first round: "
                 + hashlib.sha256(b"".join(b.digest for b in head)).hexdigest())
    lines.append(f"raw report sha256, all {len(first.blocks)} blocks of the first phase: "
                 + hashlib.sha256(b"".join(b.digest for _, _, b in first.blocks)).hexdigest())
    for p in phases:
        for n in SIZES:
            if p.count(n=n):
                lines.append(f"block rates n{n}: " + " ".join(f"{v:.2f}" for v in p.samples(n=n)))
        lines.append(f"phase: {p.rounds} rounds, {len(p.blocks)} blocks, {p.count()} reps, "
                     f"{p.count('instance')} instances in {p.wall:.2f} s wall, "
                     f"{p.cpu:.2f} s cpu; lower-quartile rates "
                     + ", ".join(f"n{n} {p.rate(n=n):.2f}/s" for n in SIZES if p.count(n=n)))
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    lines.append(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    return lines, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wavesel", "__init__.py")):
        print(f"perfbench: no wavesel sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.setup_only:
            workloads.make(args.workload, args.seed, workdir).setup()
            print("ready", flush=True)
            return 0
        phases = []
        try:
            lines, metrics = run(args, workdir, phases)
        except Exception:  # noqa: BLE001 - a crashed or failed run reports every op as failed
            traceback.print_exc()
            # the block that failed counts at least one operation
            attempted = sum(p.attempted for p in phases) + 1
            print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                              "metrics": {}}))
            return 1
        for line in lines:
            print(line)
        print(json.dumps({"correct": True, "attempted": sum(p.attempted for p in phases),
                          "failed": sum(p.failed for p in phases), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
