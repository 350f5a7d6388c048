import tracemalloc

import numpy as np
import pytest

from wavesel import bench, transform
from wavesel.bench import BenchConfig, BenchReport, CellResult, emit_table, run_bench
from wavesel.selection import wavelet_collection
from wavesel.signals import benchmark_signal, derive_seed, get_noise


def small_config(**kw):
    base = dict(signals=("wave",), noises=("h1",), sizes=(256,),
                methods=("sh", "cp"), replications=8, base_seed=3)
    base.update(kw)
    return BenchConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(replications=0)
        with pytest.raises(ValueError):
            small_config(sizes=(100,))
        with pytest.raises(ValueError):
            small_config(methods=("sh", "nope"))

    def test_json_round_trip(self):
        cfg = small_config(methods=("sh", "cp", "vfcv", "penvf"))
        clone = BenchConfig.from_json(cfg.to_json())
        assert clone == cfg
        # configs written when the bench recorded a worker count or a fold
        # count (always 2) still load
        assert BenchConfig.from_dict({**cfg.to_dict(), "jobs": 4, "folds": 2}) == cfg

    def test_sh_needs_sixteen_points(self):
        # wavelet_collection(n) has log2(n) - 1 models and SH needs 3, so
        # the config fails at load rather than when that size's block runs
        with pytest.raises(ValueError, match="sample size 8 gives 2 models"):
            small_config(sizes=(256, 8))
        assert small_config(sizes=(8,), methods=("cp",)).sizes == (8,)

    def test_sizes_checked_against_the_collection_at_load(self):
        # every size builds its collection when the config loads, so a size
        # that cannot run fails before a smaller size's cells run; a model
        # finer than the reference grid can run, since pyramid fits and
        # in-sample losses never read the grid
        assert small_config(sizes=(1024, 65536)).sizes == (1024, 65536)
        with pytest.raises(ValueError, match="dyadic"):
            small_config(sizes=(2,), methods=("cp",))
        with pytest.raises(KeyError, match="unknown filter"):
            small_config(basis="db4")

    @pytest.mark.parametrize("key", ["signals", "noises", "sizes", "methods"])
    def test_empty_entries_rejected(self, key):
        # an empty list ran nothing and wrote an empty table
        with pytest.raises(ValueError, match=f"config key '{key}' is empty"):
            small_config(**{key: ()})

    @pytest.mark.parametrize("key, values", [
        ("signals", ("wave", "wave")), ("noises", ("h1", "l1", "h1")),
        ("sizes", (256, 256)), ("methods", ("sh", "cp", "sh"))])
    def test_repeated_entries_rejected(self, key, values):
        # a repeated entry ran its cells twice, kept the later in the raw
        # report and printed its row twice
        with pytest.raises(ValueError, match=f"config key '{key}' repeats an entry"):
            small_config(**{key: values})

    def test_other_fold_counts_rejected(self):
        with pytest.raises(ValueError, match="folds must be 2"):
            BenchConfig.from_dict({**small_config().to_dict(), "folds": 3})

    @pytest.mark.parametrize("key, value", [
        ("keep_ratios", "false"), ("normalize", "false"), ("normalize", 0),
        ("sizes", [256.9]), ("sizes", [True]), ("sizes", 256),
        ("replications", 2.7), ("replications", True), ("base_seed", 3.0),
        ("signals", "wave"), ("noises", ["h1", 2]), ("methods", "sh"), ("basis", 8)])
    def test_value_types_checked(self, key, value):
        # a value of the wrong JSON type must not be coerced into a run
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            BenchConfig.from_dict({**small_config().to_dict(), key: value})

    def test_unknown_keys_rejected(self):
        # a misspelled key must not run silently with the default
        doc = {**small_config().to_dict(), "keep_ratio": True, "normalise": False}
        with pytest.raises(ValueError, match=r"\['keep_ratio', 'normalise'\]"):
            BenchConfig.from_dict(doc)


class TestRunBench:
    def test_zero_noise_every_ratio_one(self):
        # constant truth sits in every model and zero noise makes every
        # method exact, so all ratios collapse to 1
        from wavesel import selection, signals, transform

        coll = selection.wavelet_collection(64, transform.DB8)
        member = signals.TestSignal("Custom", lambda x: np.full_like(np.asarray(x, float), 0.4))
        zero = signals.NoiseScenario("Custom", lambda x: np.zeros_like(np.asarray(x, float)))
        out = bench._replicate_block([(member, zero, 5)], 64, coll,
                                     ("sh", "cp", "vfcv", "penvf"))
        assert out.shape == (1, 4) and np.all(out == 1.0)

    def test_report_structure_and_determinism(self):
        cfg = small_config()
        a = run_bench(cfg)
        b = run_bench(cfg)
        assert a.to_json() == b.to_json()
        cell = a.cell("wave", "h1", 256, "sh")
        assert cell.n_ok == 8 and cell.n_failed == 0
        assert cell.mean >= 1.0

    def test_ratios_at_least_one(self):
        cfg = small_config(methods=("sh", "cp", "vfcv", "penvf"),
                           replications=12, keep_ratios=True)
        rep = run_bench(cfg)
        for res in rep.cells.values():
            assert all(r >= 1.0 for r in res.ratios)

    def test_doubling_replications_shrinks_stderr(self):
        lo = run_bench(small_config(noises=("l1",), replications=60, base_seed=11))
        hi = run_bench(small_config(noises=("l1",), replications=240, base_seed=11))
        r = (hi.cell("wave", "l1", 256, "sh").stderr
             / lo.cell("wave", "l1", 256, "sh").stderr)
        # quadrupling N halves the standard error, within Monte-Carlo slack
        assert 0.25 <= r <= 0.85

    def test_runs_past_the_reference_grid(self):
        # the collection at n = 65536 holds a model of 2^15 atoms, twice the
        # reference grid, and its pyramid fits never read the grid
        rep = run_bench(small_config(sizes=(65536,), replications=1))
        for method in ("sh", "cp"):
            cell = rep.cell("wave", "h1", 65536, method)
            assert cell.n_ok == 1 and cell.mean >= 1.0

    def test_report_json_round_trip(self):
        rep = run_bench(small_config(keep_ratios=True))
        clone = BenchReport.from_json(rep.to_json())
        assert clone.to_json() == rep.to_json()


class TestEmitTable:
    def _fake_report(self):
        cfg = BenchConfig(signals=("wave", "heavisine", "doppler", "spikes"),
                          noises=("l1", "l2"), sizes=(256, 1024, 4096),
                          methods=("sh", "cp", "vfcv", "penvf"),
                          replications=2, base_seed=0)
        cells = {}
        for i, (s, no, n) in enumerate(cfg.cells):
            for j, m in enumerate(cfg.methods):
                cells[(s, no, n, m)] = CellResult(1.0 + 0.01 * j, 0.001, 2, 0, False)
        return BenchReport(cfg, cells)

    def test_empty_report_header_only(self):
        cfg = small_config()
        rep = BenchReport(cfg, {})
        text = emit_table(rep, "csv")
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert lines == ["signal,noise,n,SH,Cp"]

    def test_single_cell(self):
        cfg = BenchConfig(signals=("wave",), noises=("l1",), sizes=(256,),
                          methods=("cp",), replications=2, base_seed=0)
        rep = BenchReport(cfg, {("wave", "l1", 256, "cp"): CellResult(1.031, 0.002, 2, 0, False)})
        text = emit_table(rep, "csv")
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[1] == "wave,l1,256,1.031 ± 0.002"

    def test_full_low_noise_grid_row_count(self):
        # 4 signals x 2 scenarios x 3 sizes with methods across the columns
        rep = self._fake_report()
        text = emit_table(rep, "markdown")
        rows = [l for l in text.splitlines() if l.startswith("| ")]
        assert len(rows) - 1 == 24  # header plus one row per cell

    def test_markdown_bolds_best(self):
        rep = self._fake_report()
        line = [l for l in emit_table(rep, "markdown").splitlines() if "wave | l1 | 256" in l][0]
        assert "**1.000" in line

    def test_markdown_bolds_nothing_in_a_failed_row(self):
        cfg = small_config()
        failed = CellResult(np.nan, np.nan, 0, 8, True)
        rep = BenchReport(cfg, {("wave", "h1", 256, "sh"): failed,
                                ("wave", "h1", 256, "cp"): failed})
        assert emit_table(rep, "markdown").splitlines()[-1] == "| wave | h1 | 256 | failed | failed |"

    def test_column_order(self):
        rep = self._fake_report()
        header = emit_table(rep, "csv").splitlines()[1]
        assert header == "signal,noise,n,SH,Cp,2FCV,pen2F"

    def test_unknown_format(self):
        rep = self._fake_report()
        with pytest.raises(ValueError):
            emit_table(rep, "yaml")


def test_vfold_reference_cells_trend():
    # reference-table cells for the two fold-based methods, at the trend
    # tolerance used throughout (the table values are 1.081 and 1.013)
    cfg = BenchConfig(signals=("heavisine",), noises=("h1",), sizes=(4096,),
                      methods=("vfcv",), replications=150, base_seed=777)
    got = run_bench(cfg).cell("heavisine", "h1", 4096, "vfcv").mean
    assert abs(got - 1.081) <= 0.15
    cfg = BenchConfig(signals=("doppler",), noises=("l1",), sizes=(1024,),
                      methods=("penvf",), replications=150, base_seed=777)
    got = run_bench(cfg).cell("doppler", "l1", 1024, "penvf").mean
    assert abs(got - 1.013) <= 0.15


def test_normalize_flag_matters():
    cfg_raw = small_config(signals=("heavisine",), noises=("l1",),
                           replications=6, normalize=False)
    cfg_norm = small_config(signals=("heavisine",), noises=("l1",), replications=6)
    a = run_bench(cfg_raw).cell("heavisine", "l1", 256, "cp").mean
    b = run_bench(cfg_norm).cell("heavisine", "l1", 256, "cp").mean
    assert a != b


def _record_blocks(monkeypatch) -> list:
    """Record the length of every block the bench runs."""
    sizes = []
    real = bench._replicate_block

    def spy(jobs, *args):
        sizes.append(len(jobs))
        return real(jobs, *args)

    monkeypatch.setattr(bench, "_replicate_block", spy)
    return sizes


@pytest.mark.parametrize("n, folds", [(256, 2), (1024, 2)])
def test_report_bytes_do_not_depend_on_block_size(monkeypatch, n, folds):
    cfg = BenchConfig(signals=("wave", "doppler"), noises=("l1",), sizes=(n,),
                      methods=("sh", "cp", "vfcv", "penvf"), replications=5,
                      base_seed=21, keep_ratios=True)
    n_t = n - n // folds
    per_rep = max(13 * n, 8 * n + 5 * (n.bit_length() - 2) * n_t // 2)
    sizes = _record_blocks(monkeypatch)
    default = run_bench(cfg).to_json()
    assert max(sizes) == min(10, bench._BLOCK_ELEMENTS // per_rep)
    for budget, block in ((1, 1), (7 * per_rep, 7)):
        sizes.clear()
        monkeypatch.setattr(bench, "_BLOCK_ELEMENTS", budget)
        assert run_bench(cfg).to_json() == default
        assert max(sizes) == block



@pytest.mark.parametrize("n", [1024, 4096])
def test_block_rows_transform_as_rows_alone(n):
    # at the shapes _block_size gives, every row of a block gets the floats
    # of that row transformed alone, so a ratio does not depend on its
    # block: the analysis of a block's stacked responses and truths, and
    # the prefix synthesis of a fold's training halves for every model
    h = transform.get_filter("db8")
    coll = wavelet_collection(n, h)
    x = np.random.default_rng(n).standard_normal((2 * bench._block_size(n, coll, ("sh", "cp")), n))
    coeffs = transform.analyze_flat(x, h)
    for row, got in zip(x, coeffs):
        assert got.tobytes() == transform.analyze_flat(row, h).tobytes()
    halves = coeffs[:bench._block_size(n, coll, bench.METHOD_ORDER), :n // 2]
    fitted = transform.synthesize_prefixes(halves, coll.dims, h)
    for row, got in zip(halves, fitted):
        assert got.tobytes() == transform.synthesize_prefixes(row, coll.dims, h).tobytes()


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("methods, name", [
    (("sh", "cp"), "wave"), (bench.METHOD_ORDER, "wave"),
    (("sh", "cp"), "spikes"), (bench.METHOD_ORDER, "spikes"),
], ids=["penalized", "vfold", "penalized-spikes", "vfold-spikes"])
def test_block_memory_within_its_charge(n, methods, name):
    # _block_size charges each replication 11n elements, or with the fold
    # methods 8n + 5/2 models * n/2 if larger; the traced peak of a full
    # block must stay within 1.25 times that charge
    coll = wavelet_collection(n, transform.get_filter("db8"))
    charge = 11 * n
    if "vfcv" in methods:
        charge = max(charge, 8 * n + 5 * len(coll) * (n // 2) // 2)
    block = bench._block_size(n, coll, methods)
    assert block == bench._BLOCK_ELEMENTS // charge
    signal, noise = benchmark_signal(name), get_noise("h1")
    bench._replicate_block([(signal, noise, 1)], n, coll, methods)  # warm the caches
    jobs = [(signal, noise, derive_seed(5, r)) for r in range(block)]
    tracemalloc.start()
    try:
        bench._replicate_block(jobs, n, coll, methods)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * charge * block


def test_block_spanning_two_draw_runs_equals_each_job_alone(monkeypatch):
    # a block draws each run of jobs with one (signal, noise) in one call,
    # and each replication's ratios equal those of its block of one
    n = 256
    coll = wavelet_collection(n, transform.get_filter("db8"))
    wave, doppler = benchmark_signal("wave"), benchmark_signal("doppler")
    jobs = ([(wave, get_noise("h1"), derive_seed(2, r)) for r in range(3)]
            + [(doppler, get_noise("l2"), derive_seed(3, r)) for r in range(2)])
    alone = np.vstack([bench._replicate_block([job], n, coll, bench.METHOD_ORDER)
                       for job in jobs])
    calls = []
    draw = bench._draw_block
    monkeypatch.setattr(bench, "_draw_block", lambda *args: calls.append(args[3]) or draw(*args))
    block = bench._replicate_block(jobs, n, coll, bench.METHOD_ORDER)
    assert [len(seeds) for seeds in calls] == [3, 2]
    assert block.tobytes() == alone.tobytes()
