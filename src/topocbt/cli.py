"""Command-line front end.

Subcommands: run, betti, compare, fit, recover.  Invalid input, a
usage error included, exits nonzero after printing one machine-parsable
``error: ...`` line on stderr.  TOPOCBT_LOG sets the logging level
(debug/info/warning).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import sys
from pathlib import Path
from typing import NoReturn

from .chain import ChainError
from .engine import TopoCbtEngine
from .harness import _replay, betti_report, compare_protocols, complexity_fit, fit_ops, measure_grid, run_scenario
from .scenario import PROTOCOLS, ScenarioError, load_scenario
from .simplicial import betti_from_generators, read_generators
from .topology import tagged_to_text
from .wal import WalFormatError, WalKind, WalRecord, WriteAheadLog


def _setup_logging() -> None:
    level = os.environ.get("TOPOCBT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _fail(message: str) -> int:
    # one line, even where the message quotes an argument with a newline in it
    print(f"error: {message}".replace("\n", "\\n"), file=sys.stderr)
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    scenario, _ = load_scenario(args.scenario)
    report = run_scenario(scenario, args.seed, protocol_override=args.protocol)
    csv_text = report.to_csv()
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.wal:
        report.wal.write(args.wal)
    problems = report.invariant_failures()
    for problem in problems:
        print(f"error: invariant: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_betti(args: argparse.Namespace) -> int:
    if args.complex is not None:
        for flag, value in (("--at", args.at), ("--out", args.out)):
            if value is not None:
                return _fail(f"argument {flag}: not allowed with argument --complex")
        print("betti:", " ".join(map(str, betti_from_generators(read_generators(args.complex)))))
        return 0
    scenario, _ = load_scenario(args.scenario)
    betti, tagged = betti_report(scenario, args.at or 0)
    # a complex past the face budget is refused before anything is printed
    texts = tagged_to_text(tagged) if args.out else None
    print("betti:", " ".join(map(str, betti)))
    if texts:
        body, tags = texts
        Path(args.out).write_text(body, encoding="ascii")
        Path(args.out + ".tags").write_text(tags, encoding="ascii")
        print(f"complex written to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    directory = Path(args.scenario_dir)
    if not directory.is_dir():
        return _fail(f"not a directory: {args.scenario_dir}")
    files = sorted(directory.glob("*.scenario"))
    if not files:
        return _fail(f"no .scenario files in {args.scenario_dir}")
    scenarios = [load_scenario(str(f))[0] for f in files]
    seeds = [int(s) for s in args.seeds.split(",")]
    table = compare_protocols(scenarios, seeds)
    csv_text = table.to_csv()
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    for protocol, flags in table.pattern().items():
        print(f"# {protocol}: partial_commit={flags['partial_commit']} blocked={flags['blocked']}",
              file=sys.stderr)
    return 0


# The largest nmax and mmax ``fit`` takes.  Both protocols run each grid
# point, so the time grows about as nmax^2 * mmax^2: on a 2-vCPU Linux
# container with CPython 3.11.7, --grid 30,30 takes 5.6 s, 30,60 21 s
# and 40,40, the largest accepted, 16 s.
FIT_GRID_MAX = 40


def _cmd_fit(args: argparse.Namespace) -> int:
    try:
        nmax, mmax = (int(tok) for tok in args.grid.split(","))
    except ValueError:
        return _fail(f"--grid must be 'nmax,mmax', got {args.grid!r}")
    if nmax < 3 or mmax < 2:
        return _fail("grid too small for a meaningful fit")
    if max(nmax, mmax) > FIT_GRID_MAX:
        return _fail(f"--grid takes nmax and mmax up to {FIT_GRID_MAX}, got {args.grid!r}")
    main_points = measure_grid("topocbt", range(2, nmax + 1), range(1, mmax + 1))
    verdict = complexity_fit(main_points)
    a, b, c = verdict.main_fit.coefficients
    print(f"topocbt fit: {a:.3f}*n^2 + {b:.3f}*n*m + {c:.3f}  "
          f"residual_ratio={verdict.main_fit.residual_ratio:.4f}  "
          f"{'PASS' if verdict.passed else 'FAIL'}")
    swap_points = measure_grid("ac2s", range(2, nmax + 1), range(1, mmax + 1))
    swap_quad = fit_ops(swap_points, "mn2_1")
    swap_main = fit_ops(swap_points, "n2_nm_1")
    better = swap_quad.residual_ratio < swap_main.residual_ratio
    print(f"ac2s fit: m*n^2 ratio={swap_quad.residual_ratio:.4f} vs "
          f"n^2+nm ratio={swap_main.residual_ratio:.4f}  "
          f"{'m*n^2 fits better' if better else 'UNEXPECTED'}")
    return 0 if verdict.passed and better else 1


class _LogEnd(Exception):
    """The rerun asked for a record past the end of the given log."""


def _show(field: str, value) -> str:
    if field == "updates":
        return "[" + "; ".join(f"{u.owner_from} {u.owner_to} {u.asset} {u.amount}" for u in value) + "]"
    if isinstance(value, WalKind):
        return value.name.lower()
    return str(value)


class _CheckedLog(WriteAheadLog):
    """The log a rerun writes, held record by record to a given log.

    A record that differs from the given one at its index is an error;
    a record past the given log's end stops the rerun there.
    """

    def __init__(self, given: list[WalRecord]) -> None:
        super().__init__()
        self.given = given

    def append(self, txn_id, kind, block_ref=None, updates=()) -> WalRecord:
        index = len(self.records)
        if index == len(self.given):
            raise _LogEnd
        rec = super().append(txn_id, kind, block_ref, updates)
        logged = self.given[index]
        for field in ("sequence", "txn_id", "kind", "block_ref", "updates"):
            if getattr(logged, field) != getattr(rec, field):
                raise WalFormatError(f"record {index}: logged {field} {_show(field, getattr(logged, field))}, "
                                     f"the run writes {_show(field, getattr(rec, field))}")
        return rec


def _cmd_recover(args: argparse.Namespace) -> int:
    scenario, _ = load_scenario(args.scenario)
    wal = WriteAheadLog.read(args.wal)
    # a log of N records stands for the declared run stopped just before
    # it would write record N+1: rerun it that far (redo by repeating
    # history), then roll back what had not finished
    federation = scenario.build_federation()
    written = _CheckedLog(wal.records)
    with contextlib.suppress(_LogEnd):
        for _ in _replay(scenario, federation, written):
            pass
    if len(written.records) < len(wal.records):
        return _fail(f"record {len(written.records)}: the run writes only {len(written.records)} records")
    print(f"digest before recovery: {federation.state_digest()}")
    engine = TopoCbtEngine(federation, wal)
    report = engine.recover()
    print(f"digest after recovery:  {federation.state_digest()}")
    print(f"rolled back: {list(report.rolled_back)}; "
          f"committed untouched: {list(report.committed_untouched)}; "
          f"locks cleared: {report.locks_cleared}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Hands a usage error to ``main`` instead of printing usage and exiting."""

    def error(self, message: str) -> NoReturn:
        raise argparse.ArgumentError(None, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps
    no state between calls."""
    parser = _Parser(prog="topocbt", description="cross-chain transaction simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("--scenario", required=True, help="file path or built-in name (car-trading)")
    p_run.add_argument("--seed", type=int, default=1,
                       help="label copied into the report; runs do not depend on it")
    p_run.add_argument("--protocol", choices=PROTOCOLS,
                       help="override the protocol declared per transaction")
    p_run.add_argument("--out", help="write the CSV report here instead of stdout")
    p_run.add_argument("--wal", help="also write the binary write-ahead log here")
    p_run.set_defaults(func=_cmd_run)

    p_betti = sub.add_parser("betti", help="topology report")
    source = p_betti.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario")
    source.add_argument("--complex", help="read a complex file instead of building one")
    p_betti.add_argument("--at", type=int, help="transactions executed before the build (default 0)")
    p_betti.add_argument("--out", help="write the built complex (plus .tags sidecar)")
    p_betti.set_defaults(func=_cmd_betti)

    p_cmp = sub.add_parser("compare", help="run scenarios under all protocols")
    p_cmp.add_argument("--scenario-dir", required=True)
    p_cmp.add_argument("--seeds", default="1",
                       help="comma-separated report labels; each repeats the same runs")
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=_cmd_compare)

    p_fit = sub.add_parser("fit", help="complexity fit over an (n, m) grid")
    p_fit.add_argument("--grid", default="6,4", help="nmax,mmax")
    p_fit.set_defaults(func=_cmd_fit)

    p_rec = sub.add_parser("recover", help="replay a write-ahead log and roll back")
    p_rec.add_argument("--wal", required=True)
    p_rec.add_argument("--scenario", required=True)
    p_rec.set_defaults(func=_cmd_recover)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentError, ScenarioError, ChainError, WalFormatError, ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
