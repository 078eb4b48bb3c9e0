"""Command-line pipeline: simulate / account / release / verify.

Exit codes: 0 success, 1 validation failure, 2 runtime failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from . import analysis, dpsgd_sim, release, traceio
from .accountant import DEFAULT_DELTA, PrivacyReport
from .adaptive_oracle import coin_chain_spec, enumerate_adaptive_vs_fixed, random_spec
from .dpsgd_sim import SimConfig, exact_reference_accounting
from .rdp_math import _from_json, sgm_rdp_int, sgm_rdp_quadrature_oracle
from .release import ReleaseConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_VERIFICATION = 3


class ValidationFailure(Exception):
    """User input (config file, flags, input files) is invalid."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; bad flags are validation failures here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationFailure(message)


def _read_input(read, path: str):
    """``read(path)``, with a missing, unreadable or non-UTF-8 file, or bad
    JSON or trace, reported as a validation failure that names the path."""
    try:
        return read(path)
    except FileNotFoundError:
        raise ValidationFailure(f"{path}: no such file")
    except (IsADirectoryError, PermissionError) as exc:
        raise ValidationFailure(f"{path}: {exc.strerror.lower()}")
    except UnicodeDecodeError as exc:
        raise ValidationFailure(f"{path}: not {exc.encoding} text ({exc.reason})")
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"{path}:{exc.lineno}: {exc.msg}")
    except traceio.TraceFormatError as exc:
        raise ValidationFailure(f"{path}: {exc}")


def _json_file(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _build_config(cls, path: str):
    """The ``cls`` that the JSON object in the file at ``path`` sets."""
    try:
        return _from_json(cls, _read_input(_json_file, path), "config")
    except ValueError as exc:
        raise ValidationFailure(f"{path}: {exc}")


def _check_out(out: str) -> None:
    """Refuse an --out that names a file, or a path through one, before the
    command does any work.  Creates nothing: ``_out_path`` makes the
    directory at the first write."""
    if os.path.isdir(out):
        return
    try:
        os.lstat(out)
    except FileNotFoundError:
        return
    except NotADirectoryError:
        raise ValidationFailure(f"--out {out}: not a directory")
    raise ValidationFailure(f"--out {out}: file exists")


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_outputs(args, ledger, labels, losses=None) -> None:
    """``report.json`` from ``ledger``, then, when ``losses`` are given, the
    analysis outputs, then the run's summary line on stdout."""
    report = ledger.report(group_labels=labels)
    report.to_json(_out_path(args, "report.json"),
                   unsafe_export_per_example=args.unsafe_export_per_example)
    if losses is not None:
        try:
            corr = analysis.eps_loss_correlation(report, losses)
        except analysis.DegenerateVarianceError:
            corr = None
        summary = (analysis.group_summary(report, losses, labels)
                   if labels is not None else None)
        hist = analysis.histogram(report)
        analysis.write_analysis_json(_out_path(args, "analysis.json"), corr, summary, hist)
        analysis.write_histogram_csv(_out_path(args, "histogram.csv"), hist)
        if args.unsafe_export_per_example:
            analysis.write_scatter_csv(_out_path(args, "scatter.csv"), report,
                                       losses, labels)
    print(json.dumps({"steps": report.steps, "n": report.n,
                      "worst_epsilon": report.worst_epsilon,
                      "mean_epsilon": report.summary["mean"],
                      "delta": report.delta}))


def cmd_simulate(args) -> int:
    config = _build_config(SimConfig, args.config) if args.config else SimConfig()
    dataset = dpsgd_sim.generate_synthetic(config)
    out = dpsgd_sim.train(config, dataset)
    traceio.write_losses_csv(_out_path(args, "losses.csv"), out.losses, dataset.groups)
    if out.ledger is None:
        print("accounting disabled (no noise or no clipping); wrote losses only")
        return EXIT_OK
    if args.binary_trace:
        traceio.write_trace_npz(_out_path(args, "trace.npz"), out.header, out.trace_norms)
    else:
        traceio.write_trace(_out_path(args, "trace.jsonl"), out.header, out.trace_norms)
    _write_outputs(args, out.ledger, dataset.groups)
    return EXIT_OK


def cmd_account(args) -> int:
    header, norms = _read_input(traceio.read_any_trace, args.trace)
    losses = labels = None
    if args.losses:
        losses, labels = _read_input(traceio.read_losses_csv, args.losses)
        if losses.size != header.n:
            raise ValidationFailure(
                f"{args.losses}: losses file has {losses.size} rows but the "
                f"trace covers {header.n} examples")
    _write_outputs(args, traceio.replay_trace(header, norms, delta=args.delta),
                   labels, losses)
    return EXIT_OK


def cmd_release(args) -> int:
    report = _read_input(PrivacyReport.from_json, args.report)
    config = _build_config(ReleaseConfig, args.config)
    try:
        stats = release.release_all(report.epsilons, config)
    except release.BudgetInfeasibleError as exc:
        raise ValidationFailure(str(exc))
    stats.to_json(_out_path(args, "release.json"))
    print(json.dumps({"mean": stats.mean, "quantiles": stats.quantiles,
                      "realized_epsilon": stats.budget["realized_epsilon"],
                      "configured_epsilon": stats.budget["configured_epsilon"]}))
    return EXIT_OK


# ---------------------------------------------------------------- verify ---

def _suite_oracle() -> dict:
    worst = 0.0
    for q in (0.01, 0.1):
        for sigma in (0.7, 2.0):
            for alpha in (2, 4, 8, 16, 32):
                closed = sgm_rdp_int(q, sigma, alpha)
                quad = sgm_rdp_quadrature_oracle(q, sigma, alpha)
                worst = max(worst, abs(closed - quad) / max(abs(quad), 1e-300))
    return {"pass": bool(worst <= 1e-6), "max_rel_err": worst, "tolerance": 1e-6}


def _suite_adaptive() -> dict:
    worst = 0.0
    specs = [coin_chain_spec()] + [random_spec(seed) for seed in (1, 2, 3)]
    for spec in specs:
        worst = max(worst, enumerate_adaptive_vs_fixed(spec))
    return {"pass": bool(worst <= 1e-12), "max_abs_diff": worst, "tolerance": 1e-12}


def _suite_sim() -> dict:
    config = SimConfig(n=120, d=8, epochs=3, sampling_prob=0.1, noise_std=0.8,
                       clip=1.0, rounding=0.0, gamma=10 ** 9, seed=7,
                       track_ids=range(120))
    out = dpsgd_sim.train(config)
    eps_ledger, _ = out.ledger.epsilons()
    acct_cfg = out.ledger.config
    exact_eps, _ = exact_reference_accounting(out.tracked_norms, acct_cfg)
    worst = float(np.max(np.abs(eps_ledger - exact_eps) / np.maximum(exact_eps, 1e-300)))
    return {"pass": bool(worst <= 1e-9), "max_rel_err": worst, "tolerance": 1e-9}


_SUITES = {"oracle": _suite_oracle, "adaptive": _suite_adaptive, "sim": _suite_sim}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    t0 = time.perf_counter()
    results = {name: _SUITES[name]() for name in names}
    summary = {
        "pass": all(r["pass"] for r in results.values()),
        "suites": results,
        "elapsed_seconds": time.perf_counter() - t0,
    }
    print(json.dumps(summary, indent=1))
    return EXIT_OK if summary["pass"] else EXIT_VERIFICATION


# ---------------------------------------------------------------- parser ---

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="idpacct",
                     description="Per-example DP-SGD accounting pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--config": dict(metavar="PATH", help="JSON config file"),
        "--out": dict(metavar="DIR", default=".",
                      help="output directory (default: current)"),
        "--unsafe-export-per-example": dict(
            action="store_true", help="include per-example epsilon values in outputs"),
    }

    def common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("simulate", help="train on synthetic data with accounting")
    common(p, "--config", "--out", "--unsafe-export-per-example")
    p.add_argument("--binary-trace", action="store_true",
                   help="write the trace as .npz: the header and the "
                        "refresh steps x n norm matrix")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("account", help="build a privacy report from a norm trace; "
                                       "with --losses, also its analysis outputs")
    common(p, "--out", "--unsafe-export-per-example")
    p.add_argument("trace", help="trace file (.jsonl or .npz)")
    p.add_argument("--delta", type=float, metavar="REAL", default=DEFAULT_DELTA,
                   help="target delta (default: %(default)s); a trace holds no delta, "
                        "so a simulate run at another delta needs the same "
                        "--delta here to reproduce its report")
    p.add_argument("--losses", metavar="PATH",
                   help="losses CSV: supplies group labels and writes "
                        "analysis.json and histogram.csv (scatter.csv with "
                        "--unsafe-export-per-example)")
    p.set_defaults(func=cmd_account)

    p = sub.add_parser("release", help="differentially private epsilon statistics")
    p.add_argument("--config", required=True, **shared["--config"])
    common(p, "--out")
    p.add_argument("report", help="report JSON (with per-example values)")
    p.set_defaults(func=cmd_release)

    p = sub.add_parser("verify", help="run the numerical oracle suites")
    p.add_argument("--suite", choices=["all"] + sorted(_SUITES), default="all")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "out"):
            _check_out(args.out)
        return args.func(args)
    except (ValidationFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as exc:          # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
