"""The configuration side of the CLI's exit-code contract.

A tiny blobs config gets one or two typed mutations at any config schema
path (bools, integral and huge floats, huge integers, ``null``, wrong
containers, missing and extra keys). Each document is then loaded,
resolved and its generated splits built, everything a verb does before it
trains. Whatever fails must fail as a ``PfgeError`` that the CLI maps to
exit 2 or 3. Two mutations cannot name both files of a csv split or all
four of an idx split, so no file is read here.
"""

import json

import pytest
from hypothesis import given, settings

from pfge.config import MAX_ITERATIONS, iterations_per_epoch, load_config
from pfge.errors import PfgeError, exit_code_for
from pfge.harness import load_split
from test_schema import PATHS, mutated

BASE = {
    "seed": 1,
    "output_dir": "runs",
    "dataset": {"kind": "blobs", "centers": [[0, 0], [3, 3]], "n_per_class": 10, "sd": 0.5,
                "test_n_per_class": 12},
    "model": {"sizes": [2, 4, 2]},
    "batch_size": 5,
    "pretrain": {"epochs": 2, "lr": 0.1},
    "algorithm": "pfge",
    "schedule": {"cycle_epochs": 1},
    "budget": {"total_epochs": 4, "record_epochs": 2},
    "last_k": 1,
    "connectivity": {"k": 2, "iters": 2, "grid_size": 3},
    "metrics": {"ece_bins": 3},
}


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "cfg.json"


def _prepare(path):
    cfg = load_config(path)
    assert cfg.model_spec.sizes
    train = load_split(cfg, "train")
    load_split(cfg, "test")
    e = iterations_per_epoch(len(train), cfg.batch_size)
    return cfg.resolve_schedule(e), cfg.resolve_budget(e), cfg.resolve_pretrain(e)


def test_base_config_prepares(config_file):
    config_file.write_text(json.dumps(BASE))
    sched, budget, pretrain = _prepare(config_file)
    assert (sched.cycle_len, budget.total_iters, budget.record_period, pretrain) == (4, 16, 8, 8)


@settings(max_examples=500)
@given(doc=mutated(BASE, PATHS["config.schema.json"], max_ops=2))
def test_mutated_config_fails_only_as_a_typed_error(config_file, doc):
    config_file.write_text(json.dumps(doc))
    try:
        counts = _prepare(config_file)
    except PfgeError as exc:
        assert exit_code_for(exc) in (2, 3), exc
    else:
        sched, budget, pretrain = counts
        for n in (sched.cycle_len, budget.total_iters, pretrain):
            assert type(n) is int and n <= MAX_ITERATIONS
