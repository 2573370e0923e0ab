"""Batch command-line interface.

Exit codes are a stable contract: 0 all declared checks passed, 1 a check
failed, 2 usage or configuration error.  --out names the output directory
itself.  Without it, the ENTROLAB_OUTDIR environment variable, else ./runs, is
a root under which each command writes to a directory named after the
scenario (`<name>/`, `<name>-gauge/`, `<name>-classical/`, `<name>-maxent/`).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from . import io, scenarios
from .errors import ConfigError, EntrolabError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _outdir(args, dirname):
    if args.out:
        return args.out
    return os.path.join(os.environ.get("ENTROLAB_OUTDIR") or "runs", dirname)


def _load(args, force_engine=None):
    sc = scenarios.load_scenario(args.config)
    if getattr(args, "seed", None) is not None:
        sc = replace(sc, seed=args.seed)
    if force_engine is not None:
        sc = replace(sc, engine=force_engine)
    return sc


def _checks_line(checks):
    parts = []
    for name, c in sorted(checks.items()):
        mark = "pass" if c["passed"] else "FAIL"
        parts.append(f"{name}={c['value']:.3e}[{mark}]")
    return " ".join(parts) if parts else "no checks"


def _cmd_evolve(args, force_engine=None):
    sc = _load(args, force_engine)
    outdir = _outdir(args, sc.name)
    summary = scenarios.run(sc, outdir)
    print(
        f"{sc.name}: engine={summary['engine']} dt={summary['dt']:.6g} "
        f"steps={summary['steps']} -> {outdir}"
    )
    print(f"{sc.name}: {_checks_line(summary['checks'])}")
    return EXIT_PASS if summary["passed"] else EXIT_FAIL


def _cmd_ensemble(args):
    return _cmd_evolve(args, force_engine="ensemble")


def _parse_tolerances(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--tolerance expects name=value, got '{pair}'")
        name, value = pair.split("=", 1)
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--tolerance {pair}: '{value}' is not a number") from None
    return out


def _cmd_compare(args):
    report = scenarios.compare(
        args.run_a, args.run_b, args.metrics, _parse_tolerances(args.tolerance)
    )
    for m in report.metrics:
        mark = "pass" if m.passed else "FAIL"
        print(f"compare {m.name}: worst={m.worst:.6e} tolerance={m.tolerance:g} [{mark}]")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        io.save_summary(os.path.join(args.out, "comparison.json"), report.to_dict())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _parse_chi(text):
    try:
        amp, mode = text.split(":", 1)
        return float(amp), int(mode)
    except ValueError as exc:
        raise EntrolabError(f"--chi expects AMPLITUDE:MODE, got '{text}'") from exc


def _cmd_gauge_check(args):
    sc = _load(args)
    amp, mode = _parse_chi(args.chi)
    outdir = _outdir(args, sc.name + "-gauge")
    report = scenarios.gauge_check(sc, amp, mode, outdir, tolerance=args.tolerance)
    mark = "pass" if report["passed"] else "FAIL"
    print(
        f"gauge-check {sc.name}: rho_gap={report['rho_gap_max']:.3e} "
        f"phase_gap={report['phase_gap_max']:.3e} tolerance={report['tolerance']:g} [{mark}]"
    )
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def _parse_scales(text, flag):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _cmd_classical_limit(args):
    sc = _load(args)
    outdir = _outdir(args, sc.name + "-classical")
    report = scenarios.classical_limit(
        sc,
        eta_scales=_parse_scales(args.eta_sweep, "--eta-sweep") if args.eta_sweep else None,
        mu_scales=_parse_scales(args.mu_sweep, "--mu-sweep") if args.mu_sweep else None,
        outdir=outdir,
        walkers=args.walkers,
    )
    mark = "pass" if report["passed"] else "FAIL"
    residuals = " ".join(f"{r:.3e}" for r in report["residuals"])
    print(f"classical-limit {sc.name} ({report['sweep']} sweep): residuals {residuals} [{mark}]")
    print(f"classical-limit {sc.name}: {_checks_line(report['checks'])}")
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def _cmd_maxent_audit(args):
    sc = _load(args)
    outdir = _outdir(args, sc.name + "-maxent")
    report = scenarios.maxent_audit(sc, trials=args.trials, outdir=outdir)
    mark = "pass" if report["passed"] else "FAIL"
    print(
        f"maxent-audit {sc.name}: trials={report['trials']} skipped={report['skipped']} "
        f"max_gap={report['max_gap']:.3e} tolerance={report['tolerance']:g} [{mark}]"
    )
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrolab",
        description="Entropic-dynamics laboratory: config-driven runs and checks.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p):
        p.add_argument("config", help="scenario YAML file")
        p.add_argument("--out", default=None,
                       help="output directory itself (default: a directory named after "
                            "the scenario under $ENTROLAB_OUTDIR, else ./runs)")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")

    p = sub.add_parser("evolve", help="run the scenario's configured engine")
    add_run_args(p)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("ensemble", help="run the scenario with the walker engine")
    add_run_args(p)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("compare", help="compare two run directories")
    p.add_argument("run_a")
    p.add_argument("run_b")
    p.add_argument("--metrics", nargs="+", required=True,
                   choices=sorted(scenarios.METRICS))
    p.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                   help="override a default tolerance")
    p.add_argument("--out", default=None, help="where to write comparison.json")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gauge-check", help="evolve a scenario and its gauge twin")
    add_run_args(p)
    p.add_argument("--chi", required=True, metavar="AMPLITUDE:MODE",
                   help="sinusoidal gauge function along axis 0")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=_cmd_gauge_check)

    p = sub.add_parser("classical-limit", help="scaling sweep toward zero fluctuations")
    add_run_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eta-sweep", metavar="S1,S2,...",
                       help="fluctuation-constant scales, first must be 1")
    group.add_argument("--mu-sweep", metavar="S1,S2,...",
                       help="osmotic-coupling scales, first must be 1")
    p.add_argument("--walkers", type=int, default=None)
    p.set_defaults(func=_cmd_classical_limit)

    p = sub.add_parser("maxent-audit", help="certify the exact kernel's optimality")
    add_run_args(p)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=_cmd_maxent_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (EntrolabError, OSError) as exc:  # OSError: a file missing, or a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
