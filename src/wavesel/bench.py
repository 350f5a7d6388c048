"""Replication harness for the oracle-ratio comparison tables.

Each cell (signal, noise, n) draws N independent samples; all methods
share the per-replication fits and the oracle is computed once, so the
ratio ||s_hat_selected - s*||^2 / ||s_hat_oracle - s*||^2 is at least 1
by construction. Replication seeds are derived from (base seed, cell
index, replication index), so no result depends on the order of the
runs. The replications of every cell at one sample size share one
collection and one even/odd fold split, so they run in blocks: each
block draws each run of replications with one (signal, noise) in one
call, makes one pyramid analysis of its stacked responses and truths,
and one analysis and one synthesis per fold, and each selector runs once
on the block's (replications, models) criteria. Each pyramid level is
one small matrix product per row of the block, the same product for
every row, so a row's floats are those of the row alone and a ratio does
not depend on the block it ran in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import groupby, product
from typing import Optional

import numpy as np

from . import transform
from .selection import FOLD_METHODS, ModelCollection, select_methods, wavelet_collection
from .signals import (_BLOCK_ELEMENTS, SampleBlock, _draw_block, benchmark_signal, derive_seed,
                      get_noise, get_signal)

__all__ = [
    "METHOD_LABELS",
    "BenchConfig",
    "CellResult",
    "BenchReport",
    "run_bench",
    "emit_table",
]

METHOD_LABELS = {"sh": "SH", "cp": "Cp", "vfcv": "2FCV", "penvf": "pen2F"}
METHOD_ORDER = ("sh", "cp", "vfcv", "penvf")


# the JSON type of each config value; [t] is a list of t
_JSON_TYPES = {"signals": [str], "noises": [str], "methods": [str], "sizes": [int],
               "replications": int, "base_seed": int, "basis": str,
               "keep_ratios": bool, "normalize": bool}


def _has_json_type(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_json_type(v, kind[0]) for v in value)
    # bool is a subclass of int, but true is not a count
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


@dataclass(frozen=True)
class BenchConfig:
    signals: tuple
    noises: tuple
    sizes: tuple
    methods: tuple
    replications: int
    base_seed: int
    basis: str = "db8"
    keep_ratios: bool = False
    normalize: bool = True

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        for key in ("signals", "noises", "sizes", "methods"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"config key {key!r} is empty")
            if len(set(values)) != len(values):
                raise ValueError(f"config key {key!r} repeats an entry: {list(values)}")
        unknown = set(self.methods) - set(METHOD_ORDER)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; use {METHOD_ORDER}")
        filt = transform.get_filter(self.basis)
        for n in self.sizes:
            models = len(wavelet_collection(n, filt))
            if models < 3 and "sh" in self.methods:
                raise ValueError(f"sample size {n} gives {models} models; the "
                                 "slope heuristics needs at least 3 (n >= 16)")

    @property
    def cells(self) -> list:
        return list(product(self.signals, self.noises, self.sizes))

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "bench_config",
            "signals": list(self.signals),
            "noises": list(self.noises),
            "sizes": list(self.sizes),
            "methods": list(self.methods),
            "replications": self.replications,
            "base_seed": self.base_seed,
            "basis": self.basis,
            "keep_ratios": self.keep_ratios,
            "normalize": self.normalize,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BenchConfig":
        # "jobs" and "folds" (always 2) are legacy keys: accepted, not kept
        unknown = set(d) - {f.name for f in fields(cls)} - {"schema_version", "kind",
                                                           "jobs", "folds"}
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        if d.get("folds", 2) != 2:
            raise ValueError(f"folds must be 2, got {d['folds']!r}: 2FCV and pen2F fit "
                             "their folds with the pyramid of the half sample")
        for key, kind in _JSON_TYPES.items():
            if key in d and not _has_json_type(d[key], kind):
                expected = (f"a list of {kind[0].__name__}" if isinstance(kind, list)
                            else kind.__name__)
                raise ValueError(f"config key {key!r} must be {expected}, got {d[key]!r}")
        return cls(
            signals=tuple(d["signals"]),
            noises=tuple(d["noises"]),
            sizes=tuple(d["sizes"]),
            methods=tuple(d.get("methods", METHOD_ORDER)),
            replications=d["replications"],
            base_seed=d["base_seed"],
            basis=d.get("basis", "db8"),
            keep_ratios=d.get("keep_ratios", False),
            normalize=d.get("normalize", True),
        )

    @classmethod
    def from_json(cls, text: str) -> "BenchConfig":
        return cls.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class CellResult:
    mean: float
    stderr: float
    n_ok: int
    n_failed: int
    flagged: bool
    ratios: Optional[tuple] = None


@dataclass(frozen=True)
class BenchReport:
    config: BenchConfig
    cells: dict  # (signal, noise, n, method) -> CellResult

    def cell(self, signal: str, noise: str, n: int, method: str) -> CellResult:
        return self.cells[(signal, noise, n, method)]

    def to_dict(self) -> dict:
        rows = []
        for (sig, noi, n, method), res in self.cells.items():
            row = {
                "signal": sig, "noise": noi, "n": n, "method": method,
                # a cell with no finite ratio has no mean, and one with
                # fewer than 2 no stderr: null, since JSON has no NaN
                "mean": _or_null(res.mean), "stderr": _or_null(res.stderr),
                "n_ok": res.n_ok, "n_failed": res.n_failed, "flagged": res.flagged,
            }
            if res.ratios is not None:
                row["ratios"] = list(res.ratios)
            rows.append(row)
        return {"schema_version": 1, "kind": "bench_report",
                "config": self.config.to_dict(), "cells": rows}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        doc = json.loads(text)
        config = BenchConfig.from_dict(doc["config"])
        cells = {}
        for row in doc["cells"]:
            key = (row["signal"], row["noise"], int(row["n"]), row["method"])
            ratios = tuple(row["ratios"]) if "ratios" in row else None
            mean, stderr = (np.nan if row[k] is None else row[k] for k in ("mean", "stderr"))
            cells[key] = CellResult(mean, stderr, row["n_ok"], row["n_failed"], row["flagged"],
                                    ratios)
        return cls(config, cells)


def _or_null(value: float) -> Optional[float]:
    return None if np.isnan(value) else value


def _block_size(n: int, collection: ModelCollection, methods) -> int:
    # per replication, tracemalloc measures about 11n while the block's
    # responses and truths are analysed, and at most 8n + 5/2 models * n_t
    # while a fold is fitted: the samples and their pyramids, plus every
    # model's fitted values on the training half and the scratch of their
    # prefix synthesis
    held = 11 * n
    if any(m in FOLD_METHODS for m in methods):  # each fold fits on n/2 points
        held = max(held, 8 * n + 5 * len(collection) * (n // 2) // 2)
    return max(1, _BLOCK_ELEMENTS // held)


def _replicate_block(jobs, n: int, collection: ModelCollection, methods) -> np.ndarray:
    """The ``(jobs, methods)`` ratios of replications at sample size n, one
    per (signal, noise, seed) job, from one run of every selector on the block.

    Every method is scored by the oracle's in-sample loss at the design
    points (:func:`selection.in_sample_losses`), so every ratio is at
    least 1.
    """
    runs = groupby(jobs, key=lambda job: job[:2])
    block = SampleBlock(*map(np.concatenate, zip(*(
        _draw_block(signal, noise, n, [seed for _, _, seed in run])
        for (signal, noise), run in runs))))
    outcomes = select_methods(block, collection, ("oracle", *methods),
                              signal_values=block.values)
    chosen = np.stack([o.chosen_index for o in outcomes.values()], axis=-1)
    loss = np.take_along_axis(outcomes["oracle"].criteria, chosen, axis=-1)
    best, loss = loss[:, :1], loss[:, 1:]  # the oracle's loss, and each method's
    return np.divide(loss, best, where=best > 0.0, out=np.where(loss <= 1e-300, 1.0, np.inf))


def run_bench(config: BenchConfig) -> BenchReport:
    """Run every cell of the config, in blocks of replications per sample size."""
    filt = transform.get_filter(config.basis)
    jobs = {}  # n -> [((cell index, replication), (signal, noise, seed))]
    for cell_index, (sig_name, noi_name, n) in enumerate(config.cells):
        signal = benchmark_signal(sig_name) if config.normalize else get_signal(sig_name)
        noise = get_noise(noi_name)
        cell_seed = derive_seed(config.base_seed, cell_index)
        jobs.setdefault(n, []).extend(
            ((cell_index, r), (signal, noise, derive_seed(cell_seed, r)))
            for r in range(config.replications))

    ratios = np.empty((len(config.cells), config.replications, len(config.methods)))
    for n, todo in jobs.items():
        collection = wavelet_collection(n, filt)
        size = _block_size(n, collection, config.methods)
        for start in range(0, len(todo), size):
            at, block = zip(*todo[start:start + size])
            ratios[tuple(zip(*at))] = _replicate_block(block, n, collection, config.methods)

    cells = {}
    for cell_index, (sig_name, noi_name, n) in enumerate(config.cells):
        for method, column in zip(config.methods, ratios[cell_index].T):
            finite = column[np.isfinite(column)]
            n_failed = config.replications - len(finite)
            mean = float(np.mean(finite)) if len(finite) else np.nan
            stderr = (float(np.std(finite, ddof=1) / np.sqrt(len(finite)))
                      if len(finite) > 1 else np.nan)
            cells[(sig_name, noi_name, n, method)] = CellResult(
                mean, stderr, len(finite), n_failed,
                flagged=n_failed > 0.05 * config.replications,
                ratios=tuple(finite.tolist()) if config.keep_ratios else None)
    return BenchReport(config, cells)


def _fmt(res: CellResult) -> str:
    if not np.isfinite(res.mean):
        return "failed"
    text = f"{res.mean:.3f} ± {res.stderr:.3f}"
    if res.flagged:
        text += " *"
    return text


def emit_table(report: BenchReport, fmt: str = "markdown") -> str:
    """Render the report; columns in the order SH, Cp, 2FCV, pen2F."""
    config = report.config
    methods = [m for m in METHOD_ORDER if m in config.methods]
    header = ["signal", "noise", "n"] + [METHOD_LABELS[m] for m in methods]
    rows = []
    for sig, noi, n in config.cells:
        cells = [report.cells.get((sig, noi, n, m)) for m in methods]
        if all(c is None for c in cells):
            continue
        rows.append(((sig, noi, n), cells))

    if fmt == "json":
        return report.to_json() + "\n"
    if fmt == "csv":
        lines = ["# wavesel-bench schema=1", ",".join(header)]
        for (sig, noi, n), cells in rows:
            lines.append(",".join([sig, noi, str(n)] + [_fmt(c) for c in cells]))
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join("---" for _ in header) + "|"]
        for (sig, noi, n), cells in rows:
            means = [c.mean if c is not None and np.isfinite(c.mean) else np.inf for c in cells]
            best = int(np.argmin(means)) if np.any(np.isfinite(means)) else -1
            rendered = []
            for i, c in enumerate(cells):
                text = _fmt(c)
                # presentation choice: bold the smallest mean in the row
                rendered.append(f"**{text}**" if i == best else text)
            lines.append("| " + " | ".join([sig, noi, str(n)] + rendered) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")
