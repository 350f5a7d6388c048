"""Golden decisions: the dimensions every method chose, and its ratio to
the oracle, on a fixed grid of bench samples and on the criterion-8 sample.
A second section holds a smaller grid at n = 4096, the only size where the
fold fits run several replications per block.

The record in ``tests/data/golden_decisions.json`` was written by an
earlier version of the code; this test recomputes it. Dimensions must
match exactly. Ratios must match to 1e-12 relative, since another
machine's libm or SIMD path may move the last bit of sin and cos. A
change that moves a decision fails here and names the sample, the
method and both values.

Regenerating the record is a deliberate act, done only when a change is
meant to move decisions (list every changed entry, and why, in
CHANGES.md)::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import os
import sys

import pytest

from wavesel import bench, cli
from wavesel.bench import METHOD_ORDER, BenchConfig, run_bench

RECORD = os.path.join(os.path.dirname(__file__), "data", "golden_decisions.json")
CONFIG = BenchConfig(signals=("wave", "heavisine", "doppler", "spikes"),
                     noises=("l1", "l2", "h1", "h2"), sizes=(256, 1024),
                     methods=METHOD_ORDER, replications=8, base_seed=2015,
                     keep_ratios=True)
CONFIG_N4096 = BenchConfig(signals=CONFIG.signals, noises=CONFIG.noises, sizes=(4096,),
                           methods=METHOD_ORDER, replications=2, base_seed=2015,
                           keep_ratios=True)
# the criterion-8 sample of tests/test_acceptance.py
SELECT_TRUTH = ["--signal", "spikes", "--noise", "h2", "--n", "256", "--seed", "9"]
RTOL = 1e-12


def bench_decisions(monkeypatch, config) -> list:
    """One entry per replication of config, in cell then replication order:
    the chosen dimensions read from the bench's own selector outcomes, and
    the ratios of its raw report."""
    dims = {}  # (signal, noise, n, seed) -> {method: dim}
    rows = []  # the keys of the rows of the block being selected
    real_block, real_select = bench._replicate_block, bench.select_methods

    def spy_block(jobs, n, *args):
        rows[:] = [(sig.name.lower(), noi.name.lower(), n, seed) for sig, noi, seed in jobs]
        return real_block(jobs, n, *args)

    def spy_select(*args, **kwargs):
        outcomes = real_select(*args, **kwargs)
        for i, key in enumerate(rows):
            dims[key] = {k: int(o.chosen_dim[i]) for k, o in outcomes.items()}
        return outcomes

    monkeypatch.setattr(bench, "_replicate_block", spy_block)
    monkeypatch.setattr(bench, "select_methods", spy_select)
    report = run_bench(config)
    by_cell = {}
    for key, d in dims.items():
        by_cell.setdefault(key[:3], []).append((key[3], d))
    out = []
    for sig, noi, n in config.cells:
        reps = by_cell[(sig, noi, n)]
        assert len(reps) == config.replications
        ratios = {m: report.cell(sig, noi, n, m).ratios for m in config.methods}
        for r, (seed, d) in enumerate(reps):
            out.append({"sample": f"{sig}/{noi}/n={n}/rep={r}/seed={seed}",
                        "dims": d,
                        "ratios": {m: ratios[m][r] for m in config.methods}})
    return out


def select_truth_decision(tmp_dir) -> dict:
    """The criterion-8 sample through ``wavesel gen`` and ``select --truth``."""
    sample = os.path.join(tmp_dir, "s.csv")
    sel = os.path.join(tmp_dir, "sel.json")
    assert cli.main(["gen", *SELECT_TRUTH, "--out", sample]) == 0
    assert cli.main(["select", "--method", "all", "--in", sample, "--truth", "spikes",
                     "--out", sel]) == 0
    with open(sel, encoding="utf-8") as fh:
        outcomes = json.load(fh)["outcomes"]
    oracle = outcomes["oracle"]
    losses = dict(zip([t["dim"] for t in oracle["trace"]], oracle["diagnostics"]["losses"]))
    best = losses[oracle["chosen_dim"]]
    return {"sample": "select --truth " + " ".join(SELECT_TRUTH),
            "dims": {m: o["chosen_dim"] for m, o in outcomes.items()},
            "ratios": {m: losses[outcomes[m]["chosen_dim"]] / best for m in METHOD_ORDER}}


def _mismatches(want: dict, got: dict) -> list:
    out = []
    for method, dim in want["dims"].items():
        if got["dims"].get(method) != dim:
            out.append(f"{want['sample']} {method}: dimension {got['dims'].get(method)} "
                       f"!= recorded {dim}")
    for method, ratio in want["ratios"].items():
        value = got["ratios"][method]
        if not abs(value - ratio) <= RTOL * abs(ratio):
            out.append(f"{want['sample']} {method}: ratio {value!r} != recorded {ratio!r}")
    return out


def _assert_same(want: list, got: list) -> None:
    assert [g["sample"] for g in got] == [w["sample"] for w in want]
    bad = [line for w, g in zip(want, got) for line in _mismatches(w, g)]
    assert not bad, f"{len(bad)} decisions moved:\n" + "\n".join(bad[:20])


def _record() -> dict:
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_decisions(monkeypatch, tmp_path):
    record = _record()
    assert record["config"] == CONFIG.to_dict()
    got = bench_decisions(monkeypatch, CONFIG) + [select_truth_decision(str(tmp_path))]
    _assert_same(record["bench"] + [record["select_truth"]], got)


def test_golden_decisions_n4096(monkeypatch):
    section = _record()["n4096"]
    assert section["config"] == CONFIG_N4096.to_dict()
    _assert_same(section["bench"], bench_decisions(monkeypatch, CONFIG_N4096))


def _write_record() -> None:
    import tempfile

    with pytest.MonkeyPatch.context() as mp:
        entries = bench_decisions(mp, CONFIG)
        entries_n4096 = bench_decisions(mp, CONFIG_N4096)
    with tempfile.TemporaryDirectory() as tmp:
        truth = select_truth_decision(tmp)
    doc = {"config": CONFIG.to_dict(), "bench": entries, "select_truth": truth,
           "n4096": {"config": CONFIG_N4096.to_dict(), "bench": entries_n4096}}
    os.makedirs(os.path.dirname(RECORD), exist_ok=True)
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries) + len(entries_n4096) + 1} decisions to {RECORD}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write_record()
