"""Golden concentration runs: C_m, epsilon_n, the failure count and both
ratio vectors of ``run_concentration`` on fixed (n, D, seed) shapes.

The record in ``tests/data/golden_concentration.json`` was written by an
earlier version of the code; this test recomputes it. The shapes are the
criterion-3 ones, wave/h1 at (1024, 32) and (4096, 64), where no
replication fails, plus (160, 32), where about a fifth of the
replications leave a cell empty, and (96, 32), where most do. Failure
counts and ratio counts must match exactly, so a replication whose
singular decision moves fails here. Floats must match to 1e-11 relative,
each against its recorded value: a change of fit arithmetic moves them
by rounding only (a few 1e-14), while a change of method moves them by
far more.

Regenerating the record is a deliberate act, done only when a change is
meant to move these floats by more than rounding (say why in
CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_concentration.py --write
"""

import json
import os
import sys
import warnings

from wavesel import bases
from wavesel.concentration import ConcentrationRangeWarning, run_concentration
from wavesel.signals import get_noise, get_signal

RECORD = os.path.join(os.path.dirname(__file__), "data", "golden_concentration.json")
SIGNAL, NOISE, REPLICATIONS = "wave", "h1", 100
SHAPES = [(n, dim, seed) for n, dim in ((1024, 32), (4096, 64), (160, 32), (96, 32))
          for seed in (1, 2, 3)]
RTOL = 1e-11


def concentration_entry(n: int, dim: int, seed: int) -> dict:
    model = bases.build_haar_weighted(dim.bit_length() - 2)
    assert model.dim == dim
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConcentrationRangeWarning)
        rep = run_concentration(get_signal(SIGNAL), get_noise(NOISE), model, n,
                                REPLICATIONS, seed=seed)
    return {"run": f"{SIGNAL}/{NOISE}/n={n}/D={dim}/seed={seed}", "c_m": rep.c_m,
            "eps": rep.eps, "failures": rep.failures,
            "ratios_true": [float(v) for v in rep.ratios_true],
            "ratios_emp": [float(v) for v in rep.ratios_emp]}


def _mismatches(want: dict, got: dict) -> list:
    run = want["run"]
    if got["failures"] != want["failures"]:
        return [f"{run}: {got['failures']} failures != recorded {want['failures']}"]
    out = []
    pairs = [("c_m", want["c_m"], got["c_m"]), ("eps", want["eps"], got["eps"])]
    for field in ("ratios_true", "ratios_emp"):
        pairs += [(f"{field}[{i}]", w, g)
                  for i, (w, g) in enumerate(zip(want[field], got[field]))]
    for name, w, g in pairs:
        if not abs(g - w) <= RTOL * abs(w):
            out.append(f"{run} {name}: {g!r} != recorded {w!r}")
    return out


def test_golden_concentration():
    with open(RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    assert [w["run"] for w in record] == [
        f"{SIGNAL}/{NOISE}/n={n}/D={dim}/seed={seed}" for n, dim, seed in SHAPES]
    bad = []
    for want, shape in zip(record, SHAPES):
        bad += _mismatches(want, concentration_entry(*shape))
    assert not bad, f"{len(bad)} values moved:\n" + "\n".join(bad[:20])


def _write_record() -> None:
    entries = [concentration_entry(*shape) for shape in SHAPES]
    os.makedirs(os.path.dirname(RECORD), exist_ok=True)
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} concentration runs to {RECORD}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write_record()
