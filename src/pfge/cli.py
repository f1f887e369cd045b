"""Command-line harness.

Five verbs, each taking a JSON config path plus any number of
``dotted.key=value`` overrides:

    pfge pretrain     cfg.json [overrides...]   train and save the shared w0
    pfge run          cfg.json [overrides...]   run sgd/swa/fge/pfge, persist members + report
    pfge evaluate     cfg.json [overrides...]   ensemble metrics over a run's members
    pfge connectivity cfg.json [overrides...]   curve training + mode-connectivity gap
    pfge report       cfg.json [overrides...]   pretty-print a saved run report

Exit codes: 0 success, 2 configuration error, 3 I/O or data-format error,
4 numeric failure (non-finite loss or weights).
"""

import argparse
import json
import sys

from . import harness
from .checkpoint import load_checkpoint
from .config import load_config
from .errors import ConfigurationError, PfgeError, exit_code_for


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


def _cmd_pretrain(cfg) -> int:
    ckpt = harness.pretrain(cfg)
    print(
        f"saved w0 to {cfg.w0_path} "
        f"(train accuracy {ckpt.meta['final_train_accuracy']:.4f})"
    )
    return 0


def _cmd_run(cfg) -> int:
    w0 = load_checkpoint(cfg.w0_path)
    ensemble, report = harness.run(cfg, w0)
    print(f"{len(ensemble)} member(s) written to {cfg.run_dir}")
    print(harness.format_report(report))
    return 0


def _cmd_evaluate(cfg) -> int:
    paths = harness.member_checkpoint_paths(cfg.run_dir)
    if not paths:
        raise ConfigurationError(f"no member checkpoints found in {cfg.run_dir}")
    members = [load_checkpoint(p) for p in paths]
    test = harness.load_split(cfg, "test")
    record = harness.evaluate(
        members,
        test,
        cfg.last_k,
        cfg.ece_bins,
        reliability_csv=cfg.run_dir / "evaluation_reliability.csv",
    )
    (cfg.run_dir / "evaluation.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _cmd_connectivity(cfg) -> int:
    settings = cfg.connectivity
    record = harness.connectivity_run(
        cfg, settings.get("member_a"), settings.get("member_b")
    )
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _cmd_report(cfg) -> int:
    report = harness.load_report(cfg.run_dir)
    print(harness.format_report(report))
    return 0


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
        cfg = load_config(args.config, args.overrides)
        return _COMMANDS[args.verb](cfg)
    except (PfgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
