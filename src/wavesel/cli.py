"""Command line: gen, fit, select, certify, conc, bench, plot.

Every subcommand is deterministic: identical flags and inputs produce
identical output bytes (the JSON documents embed the schema version and
tool version; no timestamps). Runtime failures exit 1 with a
machine-parsable JSON object on stderr; flag errors exit 2 via argparse.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, bases, bench, concentration, estimator, selection, signals, svg, transform

_FILTERS = ("db8", "haar")


def _seed(text: str) -> int:
    """A ``--seed`` value. The flag's default is the empty string, which
    argparse converts when it parses a command line without the flag: then
    the seed is ``WAVESEL_SEED``, or 0 when that is unset or empty."""
    return int(text or os.environ.get("WAVESEL_SEED") or 0)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_sample(path: str) -> signals.RegressionSample:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return signals.RegressionSample.from_json(text)
    return signals.RegressionSample.from_csv(text)


def _resolve_signal(name: str, normalize: bool) -> signals.TestSignal:
    return signals.benchmark_signal(name) if normalize else signals.get_signal(name)


def _doc(kind: str, payload: dict) -> str:
    doc = {"schema_version": 1, "tool_version": __version__, "kind": kind}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    signal = _resolve_signal(args.signal, args.normalize)
    noise = signals.get_noise(args.noise)
    sample = signals.generate(signal, noise, args.n, args.seed)
    fmt = args.format or ("json" if args.out.endswith(".json") else "csv")
    text = sample.to_json() + "\n" if fmt == "json" else sample.to_csv()
    _write(args.out, text)
    print(f"wrote {args.n} observations ({args.signal}/{args.noise}, seed {args.seed}) to {args.out}")
    return 0


def _build_collection(n: int, basis: str) -> selection.ModelCollection:
    return selection.wavelet_collection(n, transform.get_filter(basis))


def _cmd_fit(args) -> int:
    sample = _load_sample(args.input)
    collection = _build_collection(sample.n, args.basis)
    fitted = selection.fit_collection(sample, collection)
    fits = fitted.fits
    signal = _resolve_signal(args.truth, args.normalize)
    lines = ["# wavesel-fit schema=1", "dim,empirical_risk,bias,excess,total"]
    rows = []
    for fit, rep in zip(fits, estimator.nested_fit_risks(sample, fits, signal)):
        lines.append(f"{fit.model.dim},{fit.empirical_risk!r},{rep.bias!r},"
                     f"{rep.excess!r},{rep.total!r}")
        rows.append((fit.model.dim, rep))
    _write(args.out, "\n".join(lines) + "\n")
    if args.dump_coefficients:
        tree = transform.unflatten(fitted.pyramid.coeffs, sample.n)
        _write(args.dump_coefficients, _doc("coefficient_tree", tree.to_dict()) + "\n")
    best = min(rows, key=lambda r: r[1].total)
    print(f"fitted {len(rows)} models; smallest total loss {best[1].total:.3e} at dim {best[0]}")
    return 0


def _cmd_select(args) -> int:
    sample = _load_sample(args.input)
    collection = _build_collection(sample.n, args.basis)
    if args.truth and args.method not in ("all", "oracle"):
        raise ValueError("--truth is used only with --method all or --method oracle, "
                         f"not with --method {args.method}")
    methods = ("sh", "cp", "vfcv", "penvf") if args.method == "all" else (args.method,)
    if args.method == "all" and args.truth:
        methods += ("oracle",)
    truths = None
    if "oracle" in methods:
        if not args.truth:
            raise ValueError("oracle selection needs --truth")
        truths = _resolve_signal(args.truth, args.normalize)(sample.x)
    outcomes = selection.select_methods(sample, collection, methods, signal_values=truths)
    payload = {"schema_version": 2, "n": sample.n, "basis": args.basis,
               "outcomes": {m: o.to_dict() for m, o in outcomes.items()}}
    _write(args.out, _doc("selection", payload) + "\n")
    if args.svg:
        first = outcomes[methods[0]]
        _write(args.svg, svg.risk_curve_svg(first.dims, first.criteria,
                                            chosen_dim=first.chosen_dim))
    for m, o in outcomes.items():
        print(f"{m}: dimension {o.chosen_dim}")
    return 0


def _cmd_certify(args) -> int:
    if args.family == "wavelet":
        model = bases.build_periodized_wavelet(transform.get_filter(args.filter), args.levels)
    elif args.family == "haar-weighted":
        model = bases.build_haar_weighted(args.levels)
    elif args.family == "histogram":
        model = bases.build_histogram(np.linspace(0.0, 1.0, args.cells + 1))
    elif args.family == "poly":
        model = bases.build_piecewise_poly(np.linspace(0.0, 1.0, args.cells + 1), args.degree)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    cert = bases.certify_slb(model)
    _write(args.out, cert.to_json() + "\n")
    print(f"family {args.family}, dimension {model.dim}")
    print(f"measured r_m = {cert.measured_r_m:.6g}, A_c = {cert.measured_A_c:.6g}")
    for name, check in cert.checks.items():
        status = "pass" if check.passed else "FAIL"
        print(f"  {name:12s} {status}  slack {check.slack:.3e}")
    print(f"certificate: {'pass' if cert.passed else 'FAIL'}")
    return 0


def _cmd_conc(args) -> int:
    signal = _resolve_signal(args.signal, args.normalize)
    noise = signals.get_noise(args.noise)
    if args.dim < 2 or args.dim & (args.dim - 1):
        raise ValueError(f"--dim {args.dim} is not a power of two >= 2")
    j_max = args.dim.bit_length() - 2
    model = bases.build_haar_weighted(j_max)
    report = concentration.run_concentration(signal, noise, model, args.n,
                                             args.reps, args.seed, n_mc=args.n_mc)
    _write(args.out, report.to_json() + "\n")
    if args.svg:
        _write(args.svg, svg.ratio_histogram_svg(report.ratios_true))
    print(f"n={args.n} dim={model.dim}: mean ratio {np.mean(report.ratios_true):.3f}, "
          f"std true {report.std_true:.3f}, std emp {report.std_emp:.3f}, "
          f"coverage {report.coverage_true_eps:.2f}")
    return 0


def _cmd_bench(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = bench.BenchConfig.from_json(fh.read())
    if args.jobs is not None and args.jobs < 1:
        raise ValueError("jobs must be >= 1")
    report = bench.run_bench(config)
    fmt = args.format or ("json" if args.out.endswith(".json") else
                          "markdown" if args.out.endswith(".md") else "csv")
    _write(args.out, bench.emit_table(report, fmt))
    if args.raw:
        _write(args.raw, bench.emit_table(report, "json"))
    print(f"bench complete: {len(report.cells)} cells to {args.out}")
    return 0


def _cmd_plot(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        doc = json.load(fh)
    if args.kind == "risk-curve":
        outcome = _first_outcome(doc)
        dims = [t["dim"] for t in outcome["trace"]]
        crit = [t["criterion"] for t in outcome["trace"]]
        text = svg.risk_curve_svg(dims, crit, chosen_dim=outcome.get("chosen_dim"))
    elif args.kind == "dimension-jump":
        outcome = _first_outcome(doc, prefer="sh")
        segs = [(s[0], s[1] if s[1] is not None else np.inf, s[2])
                for s in outcome["diagnostics"]["path"]]
        text = svg.dimension_jump_svg(segs, outcome["diagnostics"].get("alpha_min"))
    elif args.kind == "coefficients":
        tree = transform.CoefficientTree.from_dict(doc)
        text = svg.coefficients_svg(transform.flatten(tree))
    elif args.kind == "ratio-histogram":
        if doc.get("kind") != "concentration_report":
            raise ValueError("input file is not a concentration report")
        text = svg.ratio_histogram_svg(np.asarray(doc["ratios_true"], dtype=float))
    else:
        raise ValueError(f"unknown plot kind {args.kind!r}")
    _write(args.out, text)
    print(f"wrote {args.kind} plot to {args.out}")
    return 0


def _first_outcome(doc: dict, prefer: str = "") -> dict:
    if doc.get("kind") == "selection":
        outcomes = doc["outcomes"]
        if prefer and prefer in outcomes:
            return outcomes[prefer]
        return outcomes[sorted(outcomes)[0]]
    if doc.get("kind") == "selection_outcome":
        return doc
    raise ValueError("input file does not contain a selection trace")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="wavesel",
                                     description="projection-estimator model selection toolkit")
    parser.add_argument("--version", action="version", version=f"wavesel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a regression sample")
    gen.add_argument("--signal", required=True, choices=signals.SIGNAL_NAMES)
    gen.add_argument("--noise", required=True, choices=signals.NOISE_NAMES)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=_seed, default="")
    gen.add_argument("--normalize", action="store_true",
                     help="use the common benchmark amplitude")
    gen.add_argument("--format", choices=("csv", "json"))
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    fit = sub.add_parser("fit", help="fit the nested wavelet collection to a sample")
    fit.add_argument("--in", dest="input", required=True)
    fit.add_argument("--basis", default="db8", choices=_FILTERS)
    fit.add_argument("--truth", required=True, choices=signals.SIGNAL_NAMES)
    fit.add_argument("--normalize", action="store_true")
    fit.add_argument("--dump-coefficients")
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=_cmd_fit)

    sel = sub.add_parser("select", help="run model-selection procedures")
    sel.add_argument("--method", default="all",
                     choices=("sh", "cp", "vfcv", "penvf", "oracle", "all"))
    sel.add_argument("--in", dest="input", required=True)
    sel.add_argument("--basis", default="db8", choices=_FILTERS)
    sel.add_argument("--truth", choices=signals.SIGNAL_NAMES)
    sel.add_argument("--normalize", action="store_true")
    sel.add_argument("--svg")
    sel.add_argument("--out", required=True)
    sel.set_defaults(func=_cmd_select)

    cert = sub.add_parser("certify", help="certify strong localization of a basis")
    cert.add_argument("--family", required=True,
                      choices=("wavelet", "haar-weighted", "histogram", "poly"))
    cert.add_argument("--filter", default="db8", choices=_FILTERS)
    cert.add_argument("--levels", type=int, default=4)
    cert.add_argument("--cells", type=int, default=8)
    cert.add_argument("--degree", type=int, default=1)
    cert.add_argument("--out", required=True)
    cert.set_defaults(func=_cmd_certify)

    conc = sub.add_parser("conc", help="excess-risk concentration experiment")
    conc.add_argument("--signal", default="wave", choices=signals.SIGNAL_NAMES)
    conc.add_argument("--noise", default="h1", choices=signals.NOISE_NAMES)
    conc.add_argument("--n", type=int, required=True)
    conc.add_argument("--dim", type=int, required=True)
    conc.add_argument("--reps", type=int, default=200)
    conc.add_argument("--seed", type=_seed, default="")
    conc.add_argument("--n-mc", type=int, default=100_000)
    conc.add_argument("--normalize", action="store_true")
    conc.add_argument("--svg")
    conc.add_argument("--out", required=True)
    conc.set_defaults(func=_cmd_conc)

    ben = sub.add_parser("bench", help="oracle-ratio replication bench")
    ben.add_argument("--config", required=True)
    ben.add_argument("--jobs", type=int, help="accepted for compatibility (>= 1); no effect")
    ben.add_argument("--format", choices=("csv", "json", "markdown"))
    ben.add_argument("--raw", help="also write the full JSON report here")
    ben.add_argument("--out", required=True)
    ben.set_defaults(func=_cmd_bench)

    plot = sub.add_parser("plot", help="render an SVG diagnostic")
    plot.add_argument("--kind", required=True,
                      choices=("risk-curve", "dimension-jump", "coefficients", "ratio-histogram"))
    plot.add_argument("--in", dest="input", required=True)
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports all failures
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
