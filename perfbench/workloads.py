"""The four workloads and the checks on their outputs.

A workload runs in rounds of blocks. A bench block is one in-process
``wavesel bench`` call on a generated config with a single sample size;
a theory block is one concentration run or one representation-oracle
instance. Inputs depend only on the seed and the block index, so the same
seed gives the same configs on every run.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
import warnings
from dataclasses import dataclass

SIGNALS = ("wave", "heavisine", "doppler", "spikes")


class CheckError(RuntimeError):
    """A program output failed a benchmark check."""


@dataclass
class Block:
    kind: str          # "rep" (bench or concentration replications) or "instance"
    n: int             # sample size, the per-size rate key
    count: int         # replications or instances completed
    seconds: float     # wall time of the program call alone
    attempted: int     # operations attempted (ratios, replications, instances)
    failed: int
    digest: bytes = b""


def block_seed(seed: int, index: int) -> int:
    """A 63-bit input seed for block ``index`` of a run seeded with ``seed``."""
    data = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(data[:8], "little") >> 1


def check_bench_report(doc: dict, config: dict) -> tuple:
    """Validate a raw bench report; return (attempted, failed) ratio counts."""
    reps = config["replications"]
    expected = {(s, z, n, m) for s in config["signals"] for z in config["noises"]
                for n in config["sizes"] for m in config["methods"]}
    seen = set()
    attempted = failed = 0
    for row in doc["cells"]:
        key = (row["signal"], row["noise"], row["n"], row["method"])
        if key in seen or key not in expected:
            raise CheckError(f"unexpected or repeated cell {key}")
        seen.add(key)
        if row["n_ok"] + row["n_failed"] != reps:
            raise CheckError(f"cell {key}: n_ok + n_failed != {reps}")
        ratios = row["ratios"]
        if len(ratios) != row["n_ok"]:
            raise CheckError(f"cell {key}: {len(ratios)} ratios for n_ok {row['n_ok']}")
        bad = [r for r in ratios if not (math.isfinite(r) and r >= 1.0 - 1e-12)]
        if bad:
            raise CheckError(f"cell {key}: oracle ratios below 1: {bad[:3]}")
        if ratios and abs(row["mean"] - math.fsum(ratios) / len(ratios)) > 1e-9 * row["mean"]:
            raise CheckError(f"cell {key}: mean {row['mean']!r} disagrees with its ratios")
        attempted += reps
        failed += row["n_failed"]
    if seen != expected:
        raise CheckError(f"missing cells: {sorted(expected - seen)[:3]}")
    return attempted, failed


class BenchWorkload:
    """Oracle-ratio bench cells driven through ``cli.main(["bench", ...])``."""

    def __init__(self, noises, sizes, methods, replications, seed, workdir):
        self.noises = noises
        self.sizes = sizes
        self.methods = methods
        self.replications = replications
        self.seed = seed
        self.workdir = workdir
        self.cli = None

    def config(self, n: int, replications: int, base_seed: int) -> dict:
        return {"signals": list(SIGNALS), "noises": list(self.noises), "sizes": [n],
                "methods": list(self.methods), "replications": replications,
                "base_seed": base_seed, "keep_ratios": True}

    def setup(self) -> None:
        """Import the package and run one replication per cell shape."""
        from wavesel import cli
        self.cli = cli
        for i, n in enumerate(self.sizes):
            self._run(self.config(n, 1, block_seed(self.seed, -1 - i)), 1)

    def round(self, r: int) -> list:
        return [r * len(self.sizes) + i for i in range(len(self.sizes))]

    def size(self, index: int) -> int:
        return self.sizes[index % len(self.sizes)]

    def block_config(self, index: int) -> dict:
        return self.config(self.size(index), self.replications, block_seed(self.seed, index))

    def run(self, index: int, jobs: int = 1) -> Block:
        cfg = self.block_config(index)
        seconds, raw = self._run(cfg, jobs)
        attempted, failed = check_bench_report(json.loads(raw), cfg)
        cells = len(SIGNALS) * len(self.noises)
        return Block("rep", cfg["sizes"][0], cells * self.replications, seconds,
                     attempted, failed, hashlib.sha256(raw).digest())

    def _run(self, cfg: dict, jobs: int) -> tuple:
        paths = {k: os.path.join(self.workdir, f) for k, f in
                 (("config", "config.json"), ("out", "table.md"), ("raw", "report.json"))}
        with open(paths["config"], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        argv = ["bench", "--config", paths["config"], "--jobs", str(jobs),
                "--out", paths["out"], "--raw", paths["raw"]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = self.cli.main(argv)
            seconds = time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"wavesel bench exited {rc}: {err.getvalue().strip()}")
        with open(paths["raw"], "rb") as fh:
            raw = fh.read()
        with open(paths["out"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        cells = len(SIGNALS) * len(self.noises) * len(cfg["sizes"])
        if len(rows) != 2 + cells:
            raise CheckError(f"table has {len(rows)} lines, expected {2 + cells}")
        return seconds, raw


class TheoryWorkload:
    """Criterion-3 concentration runs and criterion-4 oracle instances."""

    SHAPES = ((1024, 32), (4096, 64))
    CONC_REPS = 100          # the smallest run run_concentration accepts
    INSTANCES_PER_ROUND = 6
    PARTITIONS = {1: [0.0, 1.0], 2: [0.0, 0.5, 1.0], 3: [0.0, 0.3, 0.7, 1.0]}

    def __init__(self, seed):
        self.seed = seed
        self.models = {}

    def setup(self) -> None:
        """Import the package, build the Haar models and warm every path once."""
        from wavesel import bases, concentration, estimator, signals
        self.bases, self.concentration, self.signals = bases, concentration, signals
        self.signal, self.noise = signals.get_signal("wave"), signals.get_noise("h1")
        for n, dim in self.SHAPES:
            model = bases.build_haar_weighted(dim.bit_length() - 2)
            sample = signals.generate(self.signal, self.noise, n, block_seed(self.seed, -n))
            fit = estimator.fit_ls(sample, model, method="gram_exact")
            estimator.excess_risks(sample, model, self.signal, fit=fit)
            self.models[n] = model
        self._instance(-1)

    def round(self, r: int) -> list:
        per = len(self.SHAPES) + self.INSTANCES_PER_ROUND
        return [r * per + i for i in range(per)]

    def size(self, index: int):
        """Sample size of a concentration block; None for an oracle instance."""
        slot = index % (len(self.SHAPES) + self.INSTANCES_PER_ROUND)
        return self.SHAPES[slot][0] if slot < len(self.SHAPES) else None

    def run(self, index: int) -> Block:
        slot = index % (len(self.SHAPES) + self.INSTANCES_PER_ROUND)
        if slot < len(self.SHAPES):
            return self._concentration(index, *self.SHAPES[slot])
        return self._instance(index)

    def _concentration(self, index: int, n: int, dim: int) -> Block:
        model = self.models[n]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", self.concentration.ConcentrationRangeWarning)
            start = time.perf_counter()
            rep = self.concentration.run_concentration(
                self.signal, self.noise, model, n, self.CONC_REPS, block_seed(self.seed, index))
            seconds = time.perf_counter() - start
        ok = self.CONC_REPS - rep.failures
        if model.dim != dim or rep.replications != self.CONC_REPS or not 0 <= rep.failures <= ok:
            raise CheckError(f"concentration n={n}: {rep.failures} failures of {rep.replications}")
        if len(rep.ratios_true) != ok or len(rep.ratios_emp) != ok:
            raise CheckError(f"concentration n={n}: ratio count != {ok} successful fits")
        values = [rep.c_m, rep.std_true, rep.std_emp, *rep.ratios_true, *rep.ratios_emp]
        if not (rep.c_m > 0 and all(math.isfinite(v) and v >= 0 for v in values)):
            raise CheckError(f"concentration n={n}: non-finite or negative output")
        return Block("rep", n, self.CONC_REPS, seconds, self.CONC_REPS, rep.failures,
                     hashlib.sha256(rep.to_json().encode()).digest())

    def _instance(self, index: int) -> Block:
        rng = random.Random(block_seed(self.seed, index))
        dim = rng.choice((1, 2, 3))
        n = rng.choice((16, 32, 64))
        signal = self.signals.get_signal(rng.choice(SIGNALS))
        noise = self.signals.get_noise(rng.choice(("l1", "h1", "h2")))
        edges = self.PARTITIONS[dim]
        # the oracle is defined for a well-posed least-squares fit: a bin
        # with no design point makes fit_ls raise SingularDesignError (about
        # one instance in 1500), so the sample is redrawn from the same stream
        while True:
            sample = self.signals.generate(signal, noise, n, rng.getrandbits(63))
            if {bisect.bisect_right(edges, x) for x in sample.x} >= set(range(1, dim + 1)):
                break
        model = self.bases.build_histogram(edges)
        oracle_seed = rng.getrandbits(32)
        start = time.perf_counter()
        try:
            rep = self.concentration.rep_formula_oracle(sample, model, signal, n_c=1000,
                                                        n_dir=10_000, seed=oracle_seed)
        except self.concentration.SolverDisagreementError:
            return Block("instance", n, 1, time.perf_counter() - start, 1, 1)
        seconds = time.perf_counter() - start
        if not (rep.max_matches_emp and rep.excess_in_argmax
                and rep.solver_gap <= 1e-3 * max(rep.emp_excess, 1e-12)):
            raise CheckError(f"oracle instance {index}: representation identities fail "
                             f"(max {rep.max_gamma!r} vs emp {rep.emp_excess!r}, "
                             f"argmax {rep.argmax_c!r} vs excess {rep.excess!r})")
        digest = hashlib.sha256(repr((rep.max_gamma, rep.argmax_c, rep.excess,
                                      rep.emp_excess)).encode()).digest()
        return Block("instance", n, 1, seconds, 1, 0, digest)


def make(name: str, seed: int, workdir: str):
    if name == "penalized":
        return BenchWorkload(("l1", "h1"), (1024, 4096), ("sh", "cp"), 8, seed, workdir)
    if name == "vfold":
        return BenchWorkload(("l1", "l2"), (256, 1024, 4096),
                             ("sh", "cp", "vfcv", "penvf"), 2, seed, workdir)
    if name == "theory":
        return TheoryWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("penalized", "vfold", "theory")
