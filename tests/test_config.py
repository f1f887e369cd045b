import copy
import json
import string

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pfge import schema
from pfge.config import (
    MAX_GENERATED_ROWS,
    MAX_ITERATIONS,
    MAX_PARAMETERS,
    apply_overrides,
    config_from_dict,
    iterations_per_epoch,
    load_config,
)
from pfge.errors import ConfigurationError
from test_schema import PATHS, _raw


def schema_maximum(section, key):
    """The ``maximum`` that ``config.schema.json`` declares for ``section.key``."""
    return _raw("config.schema.json")["properties"][section]["properties"][key]["maximum"]


def base_doc(**updates):
    doc = {
        "seed": 1,
        "output_dir": "runs/demo",
        "dataset": {"kind": "two_spirals", "n_per_class": 50},
        "model": {"sizes": [2, 16, 2]},
        "batch_size": 25,
        "algorithm": "pfge",
        "schedule": {"cycle_epochs": 2},
        "budget": {"total_epochs": 40, "record_epochs": 10},
    }
    doc.update(updates)
    return doc


class TestDefaults:
    def test_fills_defaults(self):
        cfg = config_from_dict(base_doc())
        assert cfg.run_id == "pfge-seed1"
        assert cfg.optimizer["momentum"] == 0.9
        assert cfg.optimizer["weight_decay"] == 5e-4
        assert cfg.ece_bins == 15
        assert cfg.last_k is None
        assert cfg.document["schedule"]["alpha1"] == 0.05
        assert cfg.document["dataset"]["test_seed"] == 2
        assert str(cfg.w0_path) == "runs/demo/w0.ckpt"

    def test_explicit_values_kept(self):
        doc = base_doc(run_id="custom", last_k=4)
        doc["schedule"]["alpha1"] = 0.1
        cfg = config_from_dict(doc)
        assert cfg.run_id == "custom"
        assert cfg.last_k == 4
        assert cfg.document["schedule"]["alpha1"] == 0.1

    def test_batch_size_defaults_to_128(self):
        doc = base_doc()
        del doc["batch_size"]
        assert config_from_dict(doc).batch_size == 128

    # Each kind's smallest config, and the dataset section it is filled to.
    MINIMAL_DATASETS = {
        "two_spirals": ({"kind": "two_spirals", "n_per_class": 50},
                        {"kind": "two_spirals", "n_per_class": 50, "noise_sd": 0.1, "seed": 3,
                         "test_n_per_class": 50, "test_seed": 4}),
        "blobs": ({"kind": "blobs", "centers": [[0, 0], [3, 3]], "n_per_class": 10, "sd": 0.5},
                  {"kind": "blobs", "centers": [[0, 0], [3, 3]], "n_per_class": 10, "sd": 0.5,
                   "seed": 3, "test_n_per_class": 10, "test_seed": 4}),
        "csv": ({"kind": "csv", "train_path": "train.csv", "test_path": "test.csv"},) * 2,
        "idx": ({"kind": "idx", "train_images": "a", "train_labels": "b", "test_images": "c",
                 "test_labels": "d"},) * 2,
    }

    @pytest.mark.parametrize("kind", sorted(MINIMAL_DATASETS))
    def test_minimal_config_fills_to_the_pinned_document(self, kind):
        given, filled = self.MINIMAL_DATASETS[kind]
        doc = {"seed": 3, "output_dir": "runs", "dataset": given, "model": {"sizes": [2, 8, 2]},
               "algorithm": "fge", "schedule": {"cycle_epochs": 2},
               "budget": {"total_epochs": 4}}
        expected = {
            "algorithm": "fge", "batch_size": 128, "budget": {"total_epochs": 4},
            "connectivity": {"grid_size": 61, "iters": 200, "k": 2, "lr": 0.01, "pair": "last"},
            "dataset": filled, "last_k": None, "metrics": {"ece_bins": 15},
            "model": {"activation": "relu", "sizes": [2, 8, 2]},
            "optimizer": {"l2_coeff": 0.0, "momentum": 0.9, "weight_decay": 0.0005},
            "output_dir": "runs",
            "pretrain": {"epochs": 100, "l2_coeff": 0.0, "lr": 0.05, "momentum": 0.9,
                         "weight_decay": 0.0005},
            "run_id": "fge-seed3", "schedule": {"alpha1": 0.05, "alpha2": 0.0005,
                                                "cycle_epochs": 2},
            "seed": 3, "w0_checkpoint": "runs/w0.ckpt",
        }
        document = config_from_dict(doc).document
        # JSON text tells 0 from 0.0, so the types are pinned with the values.
        assert json.dumps(document, sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert schema.load("config.schema.json").first_error(document) is None

    def test_mutating_a_loaded_config_leaves_the_schema_and_later_loads_alone(self):
        before = copy.deepcopy(schema.load("config.schema.json").document)
        first = config_from_dict(base_doc())
        first.document["pretrain"]["lr"] = 9.0
        first.document["pretrain"]["extra"] = {}
        first.document["connectivity"].clear()
        first.document["model"]["sizes"].append(3)
        assert schema.load("config.schema.json").document == before
        second = config_from_dict(base_doc())
        assert second.pretrain["lr"] == 0.05 and "extra" not in second.pretrain
        assert second.connectivity["k"] == 2
        assert second.model_spec.sizes == (2, 16, 2)


class TestValidation:
    def test_missing_required_field(self):
        doc = base_doc()
        del doc["model"]
        with pytest.raises(ConfigurationError, match="model"):
            config_from_dict(doc)

    def test_bad_algorithm(self):
        with pytest.raises(ConfigurationError, match="algorithm"):
            config_from_dict(base_doc(algorithm="swag"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict(base_doc(mystery_field=3))

    def test_dataset_kind_fields_required(self):
        doc = base_doc(dataset={"kind": "csv", "train_path": "train.csv"})
        with pytest.raises(ConfigurationError, match="test_path"):
            config_from_dict(doc)

    def test_error_names_field_path(self):
        doc = base_doc()
        doc["schedule"]["alpha1"] = -1
        with pytest.raises(ConfigurationError, match="alpha1"):
            config_from_dict(doc)


class TestResolution:
    def test_epoch_conversion(self):
        cfg = config_from_dict(base_doc())
        e = iterations_per_epoch(100, cfg.batch_size)
        assert e == 4
        sched = cfg.resolve_schedule(e)
        budget = cfg.resolve_budget(e)
        assert sched.cycle_len == 8
        assert budget.total_iters == 160
        assert budget.record_period == 40

    def test_iteration_denominated_fields(self):
        doc = base_doc()
        doc["schedule"] = {"cycle_len": 6}
        doc["budget"] = {"total_iters": 36, "record_period": 12}
        cfg = config_from_dict(doc)
        assert cfg.resolve_schedule(4).cycle_len == 6
        assert cfg.resolve_budget(4).total_iters == 36

    def test_both_denominations_rejected(self):
        doc = base_doc()
        doc["schedule"] = {"cycle_len": 6, "cycle_epochs": 2}
        cfg = config_from_dict(doc)
        with pytest.raises(ConfigurationError, match="exactly one"):
            cfg.resolve_schedule(4)

    def test_pfge_needs_record(self):
        doc = base_doc()
        doc["budget"] = {"total_epochs": 40}
        cfg = config_from_dict(doc)
        with pytest.raises(ConfigurationError, match="record"):
            cfg.resolve_budget(4)

    def test_record_ignored_for_other_algorithms(self):
        cfg = config_from_dict(base_doc(algorithm="fge"))
        assert cfg.resolve_budget(4).record_period is None


    @pytest.mark.parametrize("key", ["total_epochs", "record_epochs"])
    def test_integral_floats_resolve_to_ints(self, key):
        doc = base_doc()
        doc["budget"][key] = float(doc["budget"][key])
        doc["schedule"]["cycle_epochs"] = 2.0
        cfg = config_from_dict(doc)
        budget, sched = cfg.resolve_budget(4), cfg.resolve_schedule(4)
        assert (budget.total_iters, budget.record_period, sched.cycle_len) == (160, 40, 8)
        assert all(type(n) is int for n in (budget.total_iters, budget.record_period,
                                            sched.cycle_len))

    @pytest.mark.parametrize("section, key, value", [
        ("budget", "total_epochs", 1e300),
        ("budget", "total_epochs", 2**63),
        ("budget", "record_epochs", 10**11),
        ("schedule", "cycle_epochs", 10**11),
        ("pretrain", "epochs", 1e300),
    ])
    def test_iteration_counts_beyond_the_limit(self, section, key, value):
        doc = base_doc()
        doc.setdefault(section, {})[key] = value
        cfg = config_from_dict(doc)
        resolve = {"budget": cfg.resolve_budget, "schedule": cfg.resolve_schedule,
                   "pretrain": cfg.resolve_pretrain}[section]
        with pytest.raises(ConfigurationError, match=f"{section}.{key} .*limit"):
            resolve(4)

    def test_iteration_limit_is_inclusive(self):
        doc = base_doc(budget={"total_iters": MAX_ITERATIONS, "record_period": 10})
        assert config_from_dict(doc).resolve_budget(4).total_iters == MAX_ITERATIONS
        doc["budget"]["total_iters"] += 1
        with pytest.raises(ConfigurationError, match="budget.total_iters"):
            config_from_dict(doc).resolve_budget(4)

    @pytest.mark.parametrize("key", ["n_per_class", "test_n_per_class"])
    def test_generated_rows_beyond_the_limit(self, key):
        doc = base_doc()
        doc["dataset"][key] = MAX_GENERATED_ROWS // 2 + 1
        with pytest.raises(ConfigurationError, match=f"dataset.{key}"):
            config_from_dict(doc)

    @pytest.mark.parametrize("section, key, limit", [
        ("metrics", "ece_bins", schema_maximum("metrics", "ece_bins")),
        ("connectivity", "grid_size", schema_maximum("connectivity", "grid_size")),
        ("connectivity", "iters", MAX_ITERATIONS),
        ("connectivity", "k", schema_maximum("connectivity", "k")),
    ])
    def test_size_limits_are_inclusive(self, section, key, limit):
        doc = base_doc(**{section: {key: limit}})
        assert config_from_dict(doc).document[section][key] == limit
        doc[section][key] += 1
        with pytest.raises(ConfigurationError, match=f"{section}.{key}"):
            config_from_dict(doc)

    def test_parameter_limit_is_inclusive(self):
        # (1 + 1) * w + (w + 1) * 1 parameters for sizes [1, w, 1].
        width = (MAX_PARAMETERS - 1) // 3
        doc = base_doc(model={"sizes": [1, width, 1]})
        assert config_from_dict(doc).model_spec.param_count == 3 * width + 1 == MAX_PARAMETERS
        doc["model"]["sizes"] = [1, width + 1, 1]
        with pytest.raises(ConfigurationError, match="model.sizes"):
            config_from_dict(doc)

    def test_curve_parameter_limit_is_inclusive(self):
        # 269,322 parameters: k - 1 = 371 interior controls hold 99,918,462.
        doc = base_doc(model={"sizes": [784, 256, 256, 10]}, connectivity={"k": 372})
        cfg = config_from_dict(doc)
        assert 371 * cfg.model_spec.param_count <= MAX_PARAMETERS < 372 * 269_322
        doc["connectivity"]["k"] = 373
        with pytest.raises(ConfigurationError, match="connectivity.k"):
            config_from_dict(doc)

    @pytest.mark.parametrize("centers", [[], [[]], [[0, 0], [1]], [[0], [1, 2]]])
    def test_malformed_blob_centers(self, centers):
        doc = base_doc(dataset={"kind": "blobs", "centers": centers, "n_per_class": 5,
                                "sd": 0.1})
        with pytest.raises(ConfigurationError, match="dataset.centers"):
            config_from_dict(doc)


def _dotted(path) -> str:
    return "".join("[]" if isinstance(part, int) else f".{part}" for part in path)[1:]


class TestSchemaBounds:
    # Integer keys of config.schema.json without a ``maximum``, each with
    # the limit Python holds it to.
    BOUNDED_IN_PYTHON = {
        "dataset.n_per_class": f"MAX_GENERATED_ROWS ({MAX_GENERATED_ROWS}) rows per split",
        "dataset.test_n_per_class": f"MAX_GENERATED_ROWS ({MAX_GENERATED_ROWS}) rows per split",
        "model.sizes[]": f"MAX_PARAMETERS ({MAX_PARAMETERS}) parameters",
        "batch_size": "data.BatchStream: the rows of the train split",
        "last_k": "harness.run and ensemble_predict: the member count",
        "pretrain.epochs": f"MAX_ITERATIONS ({MAX_ITERATIONS}) iterations",
        "schedule.cycle_len": f"MAX_ITERATIONS ({MAX_ITERATIONS}) iterations",
        "schedule.cycle_epochs": f"MAX_ITERATIONS ({MAX_ITERATIONS}) iterations",
        "budget.total_iters": f"MAX_ITERATIONS ({MAX_ITERATIONS}) iterations",
        "budget.total_epochs": f"MAX_ITERATIONS ({MAX_ITERATIONS}) iterations",
        "budget.record_period": f"MAX_ITERATIONS ({MAX_ITERATIONS}) iterations",
        "budget.record_epochs": f"MAX_ITERATIONS ({MAX_ITERATIONS}) iterations",
        "connectivity.iters": f"MAX_ITERATIONS ({MAX_ITERATIONS}) iterations",
    }

    def test_every_integer_key_has_a_maximum_or_a_python_limit(self):
        unbounded = set()
        for path, sub in PATHS["config.schema.json"]:
            types = sub.get("type", [])
            if "integer" in ([types] if isinstance(types, str) else types):
                if "maximum" not in sub:
                    unbounded.add(_dotted(path))
                else:
                    assert _dotted(path) not in self.BOUNDED_IN_PYTHON, _dotted(path)
        assert unbounded == set(self.BOUNDED_IN_PYTHON)

    def test_every_maximum_states_its_reason(self):
        bounded = [(path, sub) for path, sub in PATHS["config.schema.json"] if "maximum" in sub]
        assert len(bounded) >= 3
        for path, sub in bounded:
            assert sub.get("title"), _dotted(path)


class TestOverrides:
    def test_dotted_override(self):
        doc = apply_overrides(base_doc(), ["schedule.alpha1=0.2", "algorithm=fge"])
        assert doc["schedule"]["alpha1"] == 0.2
        assert doc["algorithm"] == "fge"

    def test_json_values(self):
        doc = apply_overrides(base_doc(), ["last_k=null", "model.sizes=[2,8,2]"])
        assert doc["last_k"] is None
        assert doc["model"]["sizes"] == [2, 8, 2]

    def test_string_fallback(self):
        doc = apply_overrides(base_doc(), ["run_id=trial-a"])
        assert doc["run_id"] == "trial-a"

    def test_malformed_override(self):
        with pytest.raises(ConfigurationError):
            apply_overrides(base_doc(), ["oops"])


    @staticmethod
    def leaf_paths(node, prefix=()):
        """Key paths of ``node``'s non-object values."""
        for key, value in node.items():
            if isinstance(value, dict):
                yield from TestOverrides.leaf_paths(value, prefix + (key,))
            else:
                yield prefix + (key,)

    @given(
        path=st.lists(st.sampled_from(["model", "sizes", "schedule", "alpha1", "seed"])
                      | st.text(string.ascii_lowercase + "_", min_size=1, max_size=8),
                      min_size=1, max_size=4),
        value=st.one_of(st.none(), st.booleans(), st.integers(),
                        st.floats(allow_nan=False, allow_infinity=False), st.text()),
    )
    def test_dotted_scalar_reads_back(self, path, value):
        doc = base_doc()
        node = doc
        for part in path[:-1]:
            node = node.get(part, {})
            assume(isinstance(node, dict))  # else the next property applies
        before = copy.deepcopy(doc)
        out = apply_overrides(doc, [".".join(path) + "=" + json.dumps(value)])
        for part in path:
            out = out[part]
        assert out == value and type(out) is type(value)
        assert doc == before

    @given(data=st.data())
    def test_descending_into_non_object_rejected(self, data):
        doc = base_doc()
        leaf = data.draw(st.sampled_from(sorted(self.leaf_paths(doc))))
        tail = data.draw(st.lists(st.sampled_from(["x", "y", "0"]), min_size=1, max_size=3))
        before = copy.deepcopy(doc)
        with pytest.raises(ConfigurationError, match="non-object"):
            apply_overrides(doc, [".".join(leaf + tuple(tail)) + "=1"])
        assert doc == before

class TestLoadConfig:
    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_doc()))
        cfg = load_config(path, ["seed=7"])
        assert cfg.seed == 7
        assert cfg.run_id == "pfge-seed7"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "none.json")
