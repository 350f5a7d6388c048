"""scipy is loaded only by the three solvers that call it.

Each test runs in a fresh interpreter, since the suite's own process has
long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import wavesel

SRC = str(Path(wavesel.__file__).resolve().parents[1])


def run_fresh(script, cwd):
    """The last stdout line of ``script`` run by a new interpreter, as JSON."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, timeout=600, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


COMMANDS = """
import json, sys, warnings
from wavesel import cli

warnings.simplefilter("ignore")  # conc's shape lies outside the concentration range
with open("cfg.json", "w") as fh:
    json.dump({"signals": ["wave"], "noises": ["h1"], "sizes": [256],
               "methods": ["sh", "cp", "vfcv", "penvf"], "replications": 4, "base_seed": 1}, fh)
commands = [
    ["gen", "--signal", "wave", "--noise", "h1", "--n", "256", "--seed", "1", "--out", "s.csv"],
    ["fit", "--in", "s.csv", "--truth", "wave", "--out", "fit.csv"],
    ["select", "--in", "s.csv", "--truth", "wave", "--out", "sel.json"],
    ["certify", "--family", "wavelet", "--out", "cert.json"],
    ["conc", "--n", "1024", "--dim", "32", "--reps", "100", "--n-mc", "10000",
     "--out", "conc.json"],
    ["bench", "--config", "cfg.json", "--out", "bench.csv"],
    ["plot", "--kind", "risk-curve", "--in", "sel.json", "--out", "risk.svg"],
]
print(json.dumps([[argv[0], cli.main(argv), "scipy" in sys.modules] for argv in commands]))
"""


def test_every_command_runs_without_scipy(tmp_path):
    results = run_fresh(COMMANDS, tmp_path)
    assert results == [[command, 0, False] for command in
                       ("gen", "fit", "select", "certify", "conc", "bench", "plot")]


SOLVERS = """
import json, sys
import numpy as np
from wavesel import bases, concentration, estimator, transform
from wavesel.signals import RegressionSample, SampleMeta, generate, get_noise, get_signal

loaded = ["scipy" in sys.modules]
rng = np.random.default_rng(3)
x = np.sort(rng.random(256))
sample = RegressionSample(x, np.sin(6 * x) + rng.standard_normal(256),
                          SampleMeta("custom", "custom", 256, 0))
fit = estimator.fit_ls(sample, bases.build_periodized_wavelet(transform.DB8, 3), "gram_exact")
loaded.append("scipy.linalg" in sys.modules)
sig = get_signal("wave")
rep = concentration.rep_formula_oracle(generate(sig, get_noise("h1"), 32, 3),
                                       bases.build_histogram([0.0, 0.5, 1.0]), sig,
                                       n_c=200, n_dir=64)
loaded.append("scipy.optimize" in sys.modules)
print(json.dumps([fit.method, bool(np.isfinite(rep.max_gamma)), loaded]))
"""


def test_deferred_scipy_imports_resolve(tmp_path):
    # a misspelled deferred import would fail only when its solver first runs
    assert run_fresh(SOLVERS, tmp_path) == ["gram_exact", True, [False, True, True]]
