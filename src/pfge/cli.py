"""Command-line harness.

Five verbs, each taking a JSON config path plus any number of
``dotted.key=value`` overrides:

    pfge pretrain     cfg.json [overrides...]   train and save the shared w0
    pfge run          cfg.json [overrides...]   run sgd/swa/fge/pfge, persist members + report
    pfge evaluate     cfg.json [overrides...]   ensemble metrics over a run's members
    pfge connectivity cfg.json [overrides...]   curve training + mode-connectivity gap
    pfge report       cfg.json [overrides...]   pretty-print a saved run report

Each verb is one ``harness`` call on the loaded config; this module only
parses arguments, prints what the call returns and maps errors to exit codes.
``pfge connectivity`` connects ``connectivity.member_a`` and ``member_b``
when both are given, and otherwise the pair ``connectivity.pair`` picks.

Exit codes: 0 success, 2 configuration error, 3 I/O or data-format error,
4 numeric failure (non-finite loss or weights).
"""

import argparse
import sys

from . import harness
from .checkpoint import load_checkpoint
from .config import load_config
from .errors import PfgeError, exit_code_for
from .files import json_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfge", description="Snapshot-ensemble training and analysis harness."
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in [
        ("pretrain", "train the shared starting checkpoint"),
        ("run", "run the configured algorithm and write its report"),
        ("evaluate", "evaluate a run's member checkpoints"),
        ("connectivity", "train a curve between two members and measure its gap"),
        ("report", "print a saved run report"),
    ]:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("config", help="path to the JSON configuration")
        p.add_argument("overrides", nargs="*", help="dotted.key=value overrides")
    return parser


def _cmd_pretrain(cfg) -> None:
    ckpt = harness.pretrain(cfg)
    print(
        f"saved w0 to {cfg.w0_path} "
        f"(train accuracy {ckpt.meta['final_train_accuracy']:.4f})"
    )


def _cmd_run(cfg) -> None:
    w0 = load_checkpoint(cfg.w0_path)
    ensemble, report = harness.run(cfg, w0)
    print(f"{len(ensemble)} member(s) written to {cfg.run_dir}")
    print(harness.format_report(report))


def _cmd_evaluate(cfg) -> None:
    print(json_text(harness.evaluate(cfg)), end="")


def _cmd_connectivity(cfg) -> None:
    print(json_text(harness.connectivity_run(cfg)), end="")


def _cmd_report(cfg) -> None:
    print(harness.format_report(harness.load_report(cfg.run_dir)))


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "run": _cmd_run,
    "evaluate": _cmd_evaluate,
    "connectivity": _cmd_connectivity,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.verb](load_config(args.config, args.overrides))
        return 0
    except (PfgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
