"""The in-house validator of ``pfge.schema`` against ``jsonschema``'s Draft 7.

Documents are a full valid config or report with typed mutations at every
schema path (bools, integral and huge floats, huge integers, ``null``,
wrong containers, missing and extra keys), plus arbitrary JSON values. The
two validators must agree on accept or reject and on the error that sorts
first by path, message included.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfge import schema
from pfge.errors import InvalidArgumentError

ROOT = Path(__file__).resolve().parents[1]

FULL_CONFIG = {
    "seed": 1,
    "output_dir": "runs/demo",
    "run_id": "demo",
    "w0_checkpoint": "runs/demo/w0.ckpt",
    "dataset": {
        "kind": "blobs", "n_per_class": 10, "noise_sd": 0.1, "sd": 0.5,
        "centers": [[0, 0], [3.0, 3.0]], "seed": 2, "test_n_per_class": 20, "test_seed": 3,
        "train_path": "a.csv", "test_path": "b.csv", "train_images": "a.idx",
        "train_labels": "b.idx", "test_images": "c.idx", "test_labels": "d.idx",
    },
    "model": {"sizes": [2, 8, 2], "activation": "tanh"},
    "batch_size": 5,
    "pretrain": {"epochs": 2, "lr": 0.1, "momentum": 0.9, "weight_decay": 0.0, "l2_coeff": 0.0},
    "algorithm": "pfge",
    "schedule": {"alpha1": 0.1, "alpha2": 0.01, "cycle_len": 4, "cycle_epochs": 1},
    "budget": {"total_iters": 16, "total_epochs": 4, "record_period": 8, "record_epochs": 2},
    "optimizer": {"momentum": 0.9, "weight_decay": 5e-4, "l2_coeff": 0.0},
    "metrics": {"ece_bins": 10},
    "last_k": 2,
    "connectivity": {"k": 2, "iters": 10, "lr": 0.01, "grid_size": 5,
                     "member_a": "member-0.ckpt", "member_b": "member-1.ckpt", "pair": "last"},
}
METRICS = {"accuracy": 0.9, "nll": 0.3, "nll_pct": 30.0, "ece": 0.05}
FULL_REPORT = {
    "format_version": 1,
    "run_id": "pfge-seed1",
    "algorithm": "pfge",
    "seed": 1,
    "resolved": {"alpha1": 0.1, "alpha2": 0.01, "cycle_len": 4, "total_iters": 16,
                 "record_period": 8, "iterations_per_epoch": 4},
    "members": [{"index": 0, "recorded_at": 8, "checkpoint": "member-0.ckpt", "metrics": METRICS},
                {"index": 1, "recorded_at": 16, "checkpoint": "member-1.ckpt", "metrics": METRICS}],
    "ensemble_series": [{"n_members": 1, "metrics": METRICS}, {"n_members": 2, "metrics": METRICS}],
    "ensemble": {"last_k": None, "metrics": METRICS},
    "config": FULL_CONFIG,
    "timing": {"started_at": "t0", "finished_at": "t1"},
    "files": {"reliability_csv": "reliability.csv", "ensemble_series_csv": "series.csv"},
}
DOCUMENTS = {"config.schema.json": FULL_CONFIG, "report.schema.json": FULL_REPORT}


def schema_paths(node, definitions, path=()):
    """``(path, subschema)`` for every instance path a subschema of ``node``
    applies to; an array's items are reached through index 0."""
    if "$ref" in node:
        node = definitions[node["$ref"].rpartition("/")[2]]
    yield path, node
    for key, sub in node.get("properties", {}).items():
        yield from schema_paths(sub, definitions, path + (key,))
    if "items" in node:
        yield from schema_paths(node["items"], definitions, path + (0,))


def _raw(name):
    return json.loads((ROOT / "src" / "pfge" / "schemas" / name).read_text())


PATHS = {name: sorted(schema_paths(_raw(name), _raw(name).get("definitions", {})),
                      key=lambda pair: str(pair[0]))
         for name in DOCUMENTS}
VALIDATORS = {name: jsonschema.Draft7Validator(_raw(name)) for name in DOCUMENTS}
for paths in PATHS.values():
    assert len(paths) > 20

# Values chosen for where Python and JSON Schema disagree on types, and for
# the edges of the schemas' bounds.
TYPED = [True, False, None, 0, 1, -1, 2, 3, 1.0, 2.0, -1.0, 0.0, -0.0, 0.5, 1.5, 1e300,
         -1e300, 1.7976931348623157e308, 5e-324, 2**63, 2**96, 10**11, 10**400, "", "x",
         "relu", "pfge",
         [], [1], [True], [0, 1.0], [[0, 0], [1]], {}, {"a": 1}, {"kind": "csv"}]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
VALUES = st.sampled_from(TYPED) | JSON
# Values drawn more often where the schema expects that type.
NEAR = {
    "integer": [0, 1, 2, -1, 1.0, 2.0, 1.5, 1e300, 2**63, 10**11, True, "1"],
    "number": [0, 0.5, -0.5, 1.0, 1e300, 1e-300, True, "0.5"],
    "string": ["", "x", 1, None],
    "array": [[], [1], [1.0, 2], [[0, 0], [1]], [[]], {}],
    "object": [{}, [], {"a": 1}],
}


# Each bound keyword and the step that takes a value one past it.
PAST = {"minimum": -1, "exclusiveMinimum": -1, "maximum": 1, "exclusiveMaximum": 1}


def _near(subschema) -> list:
    kinds = subschema.get("type", [])
    kind = kinds if isinstance(kinds, str) else (kinds or [None])[0]
    edges = [value for key, step in PAST.items() if key in subschema
             for value in (subschema[key], subschema[key] + step)]
    return NEAR.get(kind, []) + subschema.get("enum", []) + edges


def _has(node, part) -> bool:
    if isinstance(part, int):
        return isinstance(node, list) and len(node) > part
    return isinstance(node, dict) and part in node


def _mutate(doc, op, path, value, key):
    """Set or delete the value at ``path``, or add the extra ``key`` to the
    object there; a path that is gone from ``doc`` leaves it as it is."""
    if op == "extra":
        op, path = "set", path + (key,)
    if not path:
        return value if op == "set" else doc
    node = doc
    for part in path[:-1]:
        if not _has(node, part):
            return doc
        node = node[part]
    last = path[-1]
    if op == "set" and (_has(node, last) or isinstance(node, dict) and isinstance(last, str)):
        node[last] = value
    elif op == "delete" and _has(node, last):
        del node[last]
    return doc


@st.composite
def mutated(draw, base, paths, max_ops=3):
    """``base`` after 1 to ``max_ops`` draws of: a value set at one of
    ``paths`` (often one near the type its schema expects), that key
    deleted, or an extra key added to it."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, max_ops))):
        op = draw(st.sampled_from(["set", "set", "delete", "extra"]))
        path, subschema = draw(st.sampled_from(paths))
        near = _near(subschema)
        near_value = near and draw(st.integers(0, 3)) > 0
        value = draw(st.sampled_from(near) if near_value else VALUES)
        doc = _mutate(doc, op, path, value, draw(st.text(max_size=3)))
    return doc


def _reference(name, doc):
    errors = sorted(VALIDATORS[name].iter_errors(doc), key=lambda e: e.json_path)
    return (errors[0].json_path, errors[0].message) if errors else None


def _agree(name, doc):
    assert schema.load(name).first_error(doc) == _reference(name, doc)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=1000)
@given(data=st.data())
def test_agrees_with_draft7_on_mutated_documents(name, data):
    _agree(name, data.draw(mutated(DOCUMENTS[name], PATHS[name])))


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=300)
@given(doc=JSON)
def test_agrees_with_draft7_on_arbitrary_json(name, doc):
    _agree(name, doc)


def test_every_config_default_is_valid_under_its_own_subschema():
    defaults = [(path, sub) for path, sub in PATHS["config.schema.json"] if "default" in sub]
    assert len(defaults) > 20
    for path, sub in defaults:
        assert schema.Schema(sub).first_error(sub["default"]) is None, path
        assert jsonschema.Draft7Validator(sub).is_valid(sub["default"]), path


def test_full_documents_are_valid():
    for name, doc in DOCUMENTS.items():
        assert schema.load(name).first_error(doc) is None


@pytest.mark.parametrize("value, valid", [
    (True, False), (1.0, True), (1e300, True), (2**63, True), (1.5, False), ("1", False),
])
def test_integer_typing(value, valid):
    doc = copy.deepcopy(FULL_CONFIG)
    doc["batch_size"] = value
    assert (schema.load("config.schema.json").first_error(doc) is None) is valid


def test_const_and_enum_tell_bools_from_numbers():
    report = schema.load("report.schema.json")
    for version, valid in [(1, True), (1.0, True), (True, False), (2, False)]:
        doc = dict(FULL_REPORT, format_version=version)
        assert (report.first_error(doc) is None) is valid
    checker = schema.Schema({"enum": [1, [0, False]]})
    assert checker.first_error(1.0) is None
    assert checker.first_error(True) == ("$", "True is not one of [1, [0, False]]")
    assert checker.first_error([0.0, False]) is None
    assert checker.first_error([False, False]) is not None


def test_bounds_skip_non_numbers():
    checker = schema.Schema({"minimum": 1, "exclusiveMaximum": 2})
    assert checker.first_error("0") is None
    assert checker.first_error(False) is None
    assert checker.first_error(True) is None
    assert checker.first_error(0) == ("$", "0 is less than the minimum of 1")


def test_json_path_quotes_keys_that_are_not_identifiers():
    checker = schema.Schema({"properties": {"a b": {"items": {"type": "integer"}}}})
    assert checker.first_error({"a b": ["x"]}) == ("$['a b'][0]", "'x' is not of type 'integer'")


@pytest.mark.parametrize("document", [
    {"type": "string", "pattern": "^a"},
    {"properties": {"a": {"format": "date"}}},
    {"items": [{"type": "string"}]},
    {"additionalProperties": {}},
    {"definitions": {"d": {"oneOf": []}}},
    {"type": "integr"},
    {"minimum": True},
    {"minItems": -1},
    {"properties": {"a": {"$id": "x"}}},
    {"$ref": "#/definitions/missing"},
    {"definitions": {"d": {}}, "$ref": "d"},
    [],
])
def test_keyword_outside_the_subset_is_rejected_at_load(document):
    with pytest.raises(InvalidArgumentError):
        schema.Schema(document)


def test_packaged_schemas_load_once():
    assert schema.load("config.schema.json") is schema.load("config.schema.json")


def test_cli_start_up_imports_no_jsonschema(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(FULL_CONFIG))
    code = ("import sys; sys.path.insert(0, 'src'); import pfge.cli; "
            "from pfge.config import load_config; load_config(sys.argv[1]); "
            "assert 'jsonschema' not in sys.modules, 'jsonschema imported'")
    result = subprocess.run([sys.executable, "-c", code, str(config)], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
