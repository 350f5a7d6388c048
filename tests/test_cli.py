import json
import os
from collections import Counter

import numpy as np
import pytest

from wavesel import bases, bench, cli, estimator, selection, transform
from wavesel.signals import derive_seed, get_signal


def run(argv):
    return cli.main([str(a) for a in argv])


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture()
def sample_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["gen", "--signal", "wave", "--noise", "l1", "--n", 256,
                "--seed", 1, "--out", out]) == 0
    return out


class TestGen:
    def test_csv_row_count(self, sample_csv):
        rows = [l for l in read(sample_csv).splitlines()
                if l and not l.startswith("#") and not l.startswith("x,")]
        assert len(rows) == 256

    def test_byte_determinism(self, tmp_path, sample_csv):
        again = tmp_path / "s2.csv"
        run(["gen", "--signal", "wave", "--noise", "l1", "--n", 256,
             "--seed", 1, "--out", again])
        assert read(again) == read(sample_csv)

    def test_json_format(self, tmp_path):
        out = tmp_path / "s.json"
        run(["gen", "--signal", "spikes", "--noise", "h2", "--n", 64,
             "--seed", 9, "--out", out])
        doc = json.loads(read(out))
        assert doc["kind"] == "sample" and len(doc["x"]) == 64

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WAVESEL_SEED", "77")
        args = cli.build_parser().parse_args(
            ["gen", "--signal", "wave", "--noise", "l1",
             "--n", "16", "--out", str(tmp_path / "x.csv")])
        assert args.seed == 77
        monkeypatch.setenv("WAVESEL_SEED", "12")
        args = cli.build_parser().parse_args(
            ["gen", "--signal", "wave", "--noise", "l1",
             "--n", "16", "--seed", "3", "--out", str(tmp_path / "x.csv")])
        assert args.seed == 3  # explicit flag wins over the environment

    def test_env_seed_read_when_each_command_runs(self, tmp_path, monkeypatch):
        # the parser is built once per process, and WAVESEL_SEED is read
        # each time a command line is parsed
        assert cli.build_parser() is cli.build_parser()
        for seed in ("5", "6"):
            monkeypatch.setenv("WAVESEL_SEED", seed)
            env, flag = tmp_path / f"env{seed}.csv", tmp_path / f"flag{seed}.csv"
            for extra, out in (([], env), (["--seed", seed], flag)):
                assert run(["gen", "--signal", "wave", "--noise", "l1", "--n", 16,
                            *extra, "--out", out]) == 0
            assert read(env) == read(flag)
        assert read(tmp_path / "env5.csv") != read(tmp_path / "env6.csv")


class TestSelect:
    def test_all_methods_plus_oracle(self, tmp_path, sample_csv):
        out = tmp_path / "sel.json"
        assert run(["select", "--method", "all", "--in", sample_csv,
                    "--truth", "wave", "--out", out]) == 0
        doc = json.loads(read(out))
        assert set(doc["outcomes"]) == {"sh", "cp", "vfcv", "penvf", "oracle"}

    def test_round_trip_gen_select(self, tmp_path, sample_csv):
        out = tmp_path / "sel.json"
        assert run(["select", "--method", "cp", "--in", sample_csv, "--out", out]) == 0
        doc = json.loads(read(out))
        assert doc["outcomes"]["cp"]["chosen_dim"] in (2, 4, 8, 16, 32, 64, 128)

    def test_select_byte_determinism(self, tmp_path, sample_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["select", "--method", "sh", "--in", sample_csv, "--out", a])
        run(["select", "--method", "sh", "--in", sample_csv, "--out", b])
        assert read(a) == read(b)


class TestBench:
    def _config(self, tmp_path, jobs=1):
        cfg = {"signals": ["wave"], "noises": ["h1"], "sizes": [256],
               "methods": ["sh", "cp"], "replications": 6, "base_seed": 5,
               "jobs": jobs}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_jobs_invariance_bytes(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
        assert run(["bench", "--config", cfg, "--out", out1]) == 0
        assert run(["bench", "--config", cfg, "--jobs", 8, "--out", out8]) == 0
        assert read(out1) == read(out8)

    def test_jobs_below_one_rejected(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert run(["bench", "--config", cfg, "--jobs", 0, "--out", tmp_path / "t.csv"]) == 1
        assert "jobs" in capsys.readouterr().err

    def test_select_truth_ratios_equal_bench_ratios(self, tmp_path):
        # `gen` and `select --truth` on a replication's seed judge the
        # sample with the bench's oracle, so every ratio is the same float
        cfg = bench.BenchConfig(signals=("doppler",), noises=("l1",), sizes=(256,),
                                methods=bench.METHOD_ORDER, replications=6, base_seed=4,
                                keep_ratios=True)
        report = bench.run_bench(cfg)
        cells = {m: report.cell("doppler", "l1", 256, m) for m in cfg.methods}
        assert all(c.n_ok == cfg.replications for c in cells.values())
        cell_seed = derive_seed(cfg.base_seed, 0)
        for r in range(cfg.replications):
            sample, sel = tmp_path / f"s{r}.csv", tmp_path / f"sel{r}.json"
            assert run(["gen", "--signal", "doppler", "--noise", "l1", "--n", 256,
                        "--seed", derive_seed(cell_seed, r), "--normalize", "--out", sample]) == 0
            assert run(["select", "--method", "all", "--in", sample, "--truth", "doppler",
                        "--normalize", "--out", sel]) == 0
            doc = json.loads(read(sel))
            assert doc["schema_version"] == 2
            oracle = doc["outcomes"]["oracle"]
            assert oracle["schema_version"] == 2
            losses = dict(zip([t["dim"] for t in oracle["trace"]],
                              oracle["diagnostics"]["losses"]))
            best = losses[oracle["chosen_dim"]]
            for method in cfg.methods:
                ratio = losses[doc["outcomes"][method]["chosen_dim"]] / best
                assert ratio == cells[method].ratios[r], method

    def test_markdown_out(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "t.md"
        run(["bench", "--config", cfg, "--out", out])
        assert read(out).startswith("| signal | noise | n | SH | Cp |")

    def test_three_folds_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(read(self._config(tmp_path))), "folds": 3}))
        out = tmp_path / "t.csv"
        assert run(["bench", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "ValueError" and "folds must be 2" in doc["message"]

    def test_sh_below_sixteen_points_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # rejected at load, before the n = 256 cells run
        cfg.write_text(json.dumps({**json.loads(read(self._config(tmp_path))),
                                   "sizes": [256, 8]}))
        out = tmp_path / "t.csv"
        assert run(["bench", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "ValueError" and "sample size 8 gives 2 models" in doc["message"]

    @pytest.mark.parametrize("key, value, message", [
        ("sizes", [256, 96], "dyadic"),
        ("methods", [], "'methods' is empty"),
        ("signals", ["wave", "wave"], "'signals' repeats an entry")])
    def test_config_that_cannot_run_rejected_at_load(self, tmp_path, capsys, key, value,
                                                     message):
        # before, the first ran the n = 256 cells before it failed, and the
        # others exited 0 with an empty or a doubled table
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(read(self._config(tmp_path))), key: value}))
        out = tmp_path / "t.csv"
        assert run(["bench", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "ValueError" and message in doc["message"]

    def test_json_format_equals_raw_report(self, tmp_path):
        cfg = self._config(tmp_path)
        out, raw = tmp_path / "t.json", tmp_path / "raw.json"
        assert run(["bench", "--config", cfg, "--format", "json", "--out", out,
                    "--raw", raw]) == 0
        assert read(out) == read(raw)
        assert read(out).endswith("}\n")

    def test_raw_report_is_strict_json(self, tmp_path):
        # one replication leaves every cell without a stderr; before, the
        # raw report wrote the bare token NaN there
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"signals": ["wave"], "noises": ["l1"], "sizes": [256],
                                   "methods": ["sh", "cp"], "replications": 1,
                                   "base_seed": 5}))
        out, raw = tmp_path / "t.csv", tmp_path / "raw.json"
        assert run(["bench", "--config", cfg, "--out", out, "--raw", raw]) == 0

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads(read(raw), parse_constant=refuse)
        assert [row["stderr"] for row in doc["cells"]] == [None, None]
        report = bench.BenchReport.from_json(read(raw))
        assert all(np.isnan(c.stderr) and np.isfinite(c.mean) for c in report.cells.values())
        assert report.to_json() + "\n" == read(raw)

    @pytest.mark.parametrize("key, value", [("keep_ratios", "false"), ("sizes", [256.9]),
                                            ("replications", 2.7), ("signals", "wave")])
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(read(self._config(tmp_path))), key: value}))
        out = tmp_path / "t.csv"
        assert run(["bench", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "ValueError" and f"config key '{key}'" in doc["message"]


class TestPlot:
    def test_risk_curve_from_select(self, tmp_path, sample_csv):
        sel = tmp_path / "sel.json"
        run(["select", "--method", "cp", "--in", sample_csv, "--out", sel])
        svg_path = tmp_path / "curve.svg"
        assert run(["plot", "--kind", "risk-curve", "--in", sel, "--out", svg_path]) == 0
        text = read(svg_path)
        assert text.startswith("<svg") and 'class="curve"' in text
        assert 'class="chosen"' in text

    def test_dimension_jump_has_marker(self, tmp_path, sample_csv):
        sel = tmp_path / "sel.json"
        run(["select", "--method", "sh", "--in", sample_csv, "--out", sel])
        svg_path = tmp_path / "jump.svg"
        assert run(["plot", "--kind", "dimension-jump", "--in", sel, "--out", svg_path]) == 0
        text = read(svg_path)
        assert 'class="staircase"' in text and 'class="alpha-min"' in text

    def test_empty_trace_axes_only(self, tmp_path):
        doc = {"kind": "selection_outcome", "method": "cp", "chosen_dim": None,
               "trace": [], "diagnostics": {}}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "empty.svg"
        assert run(["plot", "--kind", "risk-curve", "--in", path, "--out", out]) == 0
        text = read(out)
        assert text.count("<line") == 2  # the two axes
        assert "polyline" not in text

    def test_sel_json_is_strict_json(self, tmp_path, sample_csv):
        sel = tmp_path / "sel.json"
        assert run(["select", "--method", "all", "--in", sample_csv, "--truth", "wave",
                    "--out", sel]) == 0

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        doc = json.loads(read(sel), parse_constant=refuse)
        path = doc["outcomes"]["sh"]["diagnostics"]["path"]
        assert path[0][1] is None  # the unbounded level of the first segment
        assert all(isinstance(seg[1], float) for seg in path[1:])

    def test_two_model_staircase(self, tmp_path):
        doc = {"kind": "selection_outcome", "method": "sh", "chosen_dim": 2,
               "trace": [], "diagnostics": {"alpha_min": 0.5,
                                            "path": [[0.5, None, 2], [0.0, 0.5, 16]]}}
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "two.svg"
        assert run(["plot", "--kind", "dimension-jump", "--in", path, "--out", out]) == 0
        assert 'class="staircase"' in read(out)

    def test_ratio_histogram_needs_concentration_report(self, tmp_path, sample_csv, capsys):
        sel = tmp_path / "sel.json"
        run(["select", "--method", "cp", "--in", sample_csv, "--out", sel])
        out = tmp_path / "h.svg"
        assert run(["plot", "--kind", "ratio-histogram", "--in", sel, "--out", out]) == 1
        assert not out.exists()
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "ValueError" and "concentration report" in doc["message"]

    def test_coefficients_plot(self, tmp_path, sample_csv):
        fit_csv, coef = tmp_path / "f.csv", tmp_path / "c.json"
        run(["fit", "--in", sample_csv, "--truth", "wave", "--out", fit_csv,
             "--dump-coefficients", coef])
        out = tmp_path / "coef.svg"
        assert run(["plot", "--kind", "coefficients", "--in", coef, "--out", out]) == 0
        assert read(out).count('class="stem"') == 256


class TestFitCommand:
    def test_fit_csv_columns(self, tmp_path, sample_csv):
        out = tmp_path / "fit.csv"
        assert run(["fit", "--in", sample_csv, "--truth", "wave", "--out", out]) == 0
        lines = read(out).splitlines()
        assert lines[1] == "dim,empirical_risk,bias,excess,total"
        assert len(lines) == 2 + 7  # models at dims 2..128 for n = 256
        for line in lines[2:]:
            fields = line.split(",")
            assert len(fields) == 5
            for value in fields:
                float(value)  # plain numbers, not numpy reprs


    def test_fit_synthesizes_the_nested_truth_once(self, tmp_path, monkeypatch):
        # every synthesis runs through synthesize_prefixes: one gives every
        # s_m on the grid, one every s_hat_m, and each of the 9 fits makes
        # one of its design values on the n points
        src, out = tmp_path / "s.csv", tmp_path / "fit.csv"
        assert run(["gen", "--signal", "doppler", "--noise", "l1", "--n", 1024,
                    "--seed", 4, "--out", src]) == 0
        lengths = []
        real = transform.synthesize_prefixes
        monkeypatch.setattr(transform, "synthesize_prefixes",
                            lambda c, *a: lengths.append(np.shape(c)[-1]) or real(c, *a))
        assert run(["fit", "--in", src, "--truth", "doppler", "--out", out]) == 0
        assert Counter(lengths) == {bases.N_GRID: 2, 1024: 9}

    def test_fit_analyzes_the_truth_grid_once(self, tmp_path, monkeypatch):
        src, out = tmp_path / "s.csv", tmp_path / "fit.csv"
        assert run(["gen", "--signal", "doppler", "--noise", "h1", "--n", 1024,
                    "--seed", 4, "--out", src]) == 0
        calls = []
        real = transform.analyze_flat
        monkeypatch.setattr(transform, "analyze_flat",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        assert run(["fit", "--in", src, "--truth", "doppler", "--out", out]) == 0
        assert len(calls) == 2  # the responses, then the truth's grid values
        monkeypatch.undo()
        # each nested model's prefix gives the floats of its own analysis
        sample = cli._load_sample(str(src))
        fits = selection.fit_collection(sample, cli._build_collection(1024, "db8"))
        want = [f"{fit.model.dim},{fit.empirical_risk!r},{rep.bias!r},"
                f"{rep.excess!r},{rep.total!r}"
                for fit in fits.fits
                for rep in [estimator.excess_risks(sample, fit.model,
                                                   get_signal("doppler"), fit=fit)]]
        assert read(out).splitlines()[2:] == want


class TestCertifyCommand:
    def test_certify_json(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["certify", "--family", "histogram", "--cells", 8, "--out", out]) == 0
        doc = json.loads(read(out))
        assert doc["passed"] is True and doc["dim"] == 8


class TestErrors:
    def test_flag_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["select", "--method", "bogus", "--in", "x", "--out", "y"])
        assert exc.value.code == 2

    def test_select_has_no_folds_flag(self, capsys):
        # 2FCV and pen2F always use two folds
        with pytest.raises(SystemExit) as exc:
            cli.main(["select", "--folds", "2", "--in", "x", "--out", "y"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("dim", [48, 0])
    def test_conc_dim_not_a_power_of_two(self, tmp_path, capsys, dim):
        # 48 used to run a 32-dimensional model, and 0 overflowed
        out = tmp_path / "conc.json"
        assert run(["conc", "--n", 256, "--dim", dim, "--out", out]) == 1
        assert not out.exists()
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "ValueError" and f"--dim {dim}" in doc["message"]

    @pytest.mark.parametrize("n, dim, message", [
        (16, 32, "100 of 100 replications"),  # every fit singular: no ratios
        (256, 32768, "exceeds the reference grid"),  # refused before any allocation
    ])
    def test_conc_without_ratios_exit_1(self, tmp_path, capsys, n, dim, message):
        out = tmp_path / "conc.json"
        assert run(["conc", "--n", n, "--dim", dim, "--reps", 100, "--n-mc", 10_000,
                    "--out", out]) == 1
        assert not out.exists()
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "ValueError" and message in doc["message"]

    def test_runtime_error_exit_1_json_stderr(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = cli.main(["select", "--method", "cp", "--in", str(missing),
                         "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        doc = json.loads(err.strip().splitlines()[-1])
        assert doc["error"] == "FileNotFoundError"

    def _select_error(self, tmp_path, path, capsys):
        code = cli.main(["select", "--method", "all", "--in", str(path),
                         "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert not (tmp_path / "o.json").exists()
        return json.loads(capsys.readouterr().err.strip().splitlines()[-1])

    def test_shuffled_sample_rejected(self, tmp_path, capsys):
        # in shuffled order the rank-ordered fits would pair the wrong points
        src = tmp_path / "s.csv"
        assert run(["gen", "--signal", "doppler", "--noise", "l1", "--n", 256,
                    "--seed", 1, "--normalize", "--out", src]) == 0
        lines = read(src).splitlines()
        head, rows = lines[:3], lines[3:]
        order = np.random.default_rng(0).permutation(len(rows))
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join(head + [rows[i] for i in order]) + "\n")
        capsys.readouterr()
        doc = self._select_error(tmp_path, shuffled, capsys)
        assert doc["error"] == "ValueError" and "strictly increasing" in doc["message"]

    def test_out_of_range_and_nan_sample_rejected(self, tmp_path, capsys):
        rows = [f"{3.0 + i / 16!r},{0.5 if i != 7 else float('nan')!r}" for i in range(16)]
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n" + "\n".join(rows) + "\n")
        doc = self._select_error(tmp_path, bad, capsys)
        assert doc["error"] == "ValueError" and "finite" in doc["message"]

    @pytest.mark.parametrize("method", ["sh", "cp", "vfcv", "penvf"])
    def test_truth_with_single_method_rejected(self, tmp_path, sample_csv, capsys, method):
        out = tmp_path / "o.json"
        code = cli.main(["select", "--method", method, "--truth", "wave",
                         "--in", str(sample_csv), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "ValueError"
        assert "--method all or --method oracle" in doc["message"]

    def test_oracle_without_truth(self, tmp_path, sample_csv, capsys):
        code = cli.main(["select", "--method", "oracle", "--in", str(sample_csv),
                         "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "truth" in capsys.readouterr().err


def test_conc_command(tmp_path):
    out = tmp_path / "conc.json"
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(["conc", "--n", 512, "--dim", 16, "--reps", 100, "--seed", 2,
                    "--n-mc", 20000, "--out", out, "--svg", tmp_path / "h.svg"])
    assert code == 0
    doc = json.loads(read(out))
    assert doc["dim"] == 16 and len(doc["ratios_true"]) == 100
    assert (tmp_path / "h.svg").exists()
    code = run(["plot", "--kind", "ratio-histogram", "--in", out,
                "--out", tmp_path / "rh.svg"])
    assert code == 0
    assert 'class="bar"' in read(tmp_path / "rh.svg")
