"""``harness.run`` scores each member on a background thread while training
goes on. The report must equal a serial scoring of the returned ensemble bit
for bit, an error on either side must reach the caller unchanged with no
thread left behind, and a tracer installed around the package must only ever
see the main thread, in ``run`` and in ``connectivity``."""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfge import harness, nn
from pfge.cli import main
from pfge.config import config_from_dict
from pfge.errors import NumericError
from pfge.training import EnsembleSet, ensemble_predict

ROOT = Path(__file__).resolve().parents[1]


def tiny_doc(outdir, **updates):
    # 48 training rows in batches of 12: four iterations per epoch.
    doc = {
        "seed": 7,
        "output_dir": str(outdir),
        "dataset": {"kind": "two_spirals", "n_per_class": 24, "test_n_per_class": 30},
        "model": {"sizes": [2, 8, 2]},
        "batch_size": 12,
        "pretrain": {"epochs": 3, "lr": 0.1},
        "algorithm": "fge",
        "schedule": {"alpha1": 0.1, "alpha2": 0.005, "cycle_len": 2},
        "budget": {"total_iters": 8},
        "metrics": {"ece_bins": 5},
    }
    doc.update(updates)
    return doc


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("scorer")
    cfg = config_from_dict(tiny_doc(outdir))
    return outdir, harness.pretrain(cfg)


@st.composite
def run_plans(draw):
    algorithm = draw(st.sampled_from(["sgd", "swa", "fge", "pfge"]))
    cycle_len = draw(st.integers(2, 4))
    periods = draw(st.integers(1, 3))
    cycles_per_period = draw(st.integers(1, 3)) if algorithm == "pfge" else 1
    total = cycle_len * cycles_per_period * periods
    budget = {"total_iters": total}
    if algorithm == "pfge":
        budget["record_period"] = cycle_len * cycles_per_period
    n_members = {"sgd": 1, "swa": 1, "fge": total // cycle_len, "pfge": periods}[algorithm]
    last_k = draw(st.one_of(st.none(), st.integers(1, n_members)))
    return {"algorithm": algorithm, "budget": budget, "last_k": last_k,
            "schedule": {"alpha1": 0.1, "alpha2": 0.005, "cycle_len": cycle_len}}


def serial_scores(cfg, w0, ensemble):
    """The report's three score blocks, recomputed one member at a time on
    the main thread with ``ensemble_predict``."""
    test = harness.load_split(cfg, "test", w0.standardization)

    def record(members, last_k=None):
        subset = EnsembleSet(tuple(members), tuple(range(1, len(members) + 1)))
        probs, _ = ensemble_predict(subset, test.inputs, last_k)
        return harness._metrics_record(probs, test.labels, cfg.ece_bins)

    members = ensemble.members
    return {
        "members": [record([w]) for w in members],
        "ensemble_series": [record(members[:m]) for m in range(1, len(members) + 1)],
        "ensemble": {"last_k": cfg.last_k, "metrics": record(members, cfg.last_k)},
    }


@settings(max_examples=30)
@given(plan=run_plans())
def test_report_equals_serial_scoring_bit_for_bit(pretrained, plan):
    outdir, w0 = pretrained
    cfg = config_from_dict(tiny_doc(outdir, run_id="equivalence", **plan))
    # A short switch interval interleaves the scorer with the training loop
    # far more often than the default 5 ms does.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ensemble, report = harness.run(cfg, w0)
    finally:
        sys.setswitchinterval(interval)
    got = {
        "members": [m["metrics"] for m in report["members"]],
        "ensemble_series": [s["metrics"] for s in report["ensemble_series"]],
        "ensemble": report["ensemble"],
    }
    # JSON text tells -0.0 from 0.0 and prints every float exactly.
    assert json.dumps(got) == json.dumps(serial_scores(cfg, w0, ensemble))
    assert [(m["index"], m["recorded_at"], m["checkpoint"]) for m in report["members"]] == [
        (i, at, f"member-{i}.ckpt") for i, at in enumerate(ensemble.recorded_at)]
    assert [s["n_members"] for s in report["ensemble_series"]] == list(
        range(1, len(ensemble) + 1))


def test_diverging_training_exits_4_and_leaves_no_thread_or_output(tmp_path, capsys):
    # A step size of 1e50 overflows the loss at iteration 8, after three
    # members were collected and queued for scoring.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_doc(tmp_path / "runs", run_id="diverge")))
    assert main(["pretrain", str(path)]) == 0
    threads = threading.active_count()
    code = main(["run", str(path), "schedule.alpha1=1e50", "schedule.alpha2=1.0",
                 "budget.total_iters=12"])
    assert code == 4
    assert "non-finite loss at iteration 8" in capsys.readouterr().err
    run_dir = tmp_path / "runs" / "diverge"
    assert not (run_dir / "report.json").exists()
    assert not list(run_dir.glob("member-*"))
    assert threading.active_count() == threads


class Injected(Exception):
    pass


def test_scoring_error_reaches_the_caller_unchanged(pretrained, monkeypatch):
    outdir, w0 = pretrained
    cfg = config_from_dict(tiny_doc(outdir, run_id="scoring-error"))
    calls = []
    original = nn.forward

    def failing_forward(*args, **kwargs):
        calls.append(len(calls))
        if len(calls) == 2:
            raise Injected("member 1 cannot be scored")
        return original(*args, **kwargs)

    monkeypatch.setattr(nn, "forward", failing_forward)
    threads = threading.active_count()
    with pytest.raises(Injected) as caught:
        harness.run(cfg, w0)
    assert type(caught.value) is Injected
    assert str(caught.value) == "member 1 cannot be scored"
    # The two members queued behind the failed one were not scored.
    assert calls == [0, 1]
    assert threading.active_count() == threads
    assert not (cfg.run_dir / "report.json").exists()


def test_training_error_wins_over_a_scoring_error(pretrained, monkeypatch):
    outdir, w0 = pretrained
    cfg = config_from_dict(tiny_doc(outdir, run_id="both-fail", budget={"total_iters": 12},
                                    schedule={"alpha1": 1e50, "alpha2": 1.0, "cycle_len": 2}))

    def failing_forward(*args, **kwargs):
        raise Injected("scoring failed too")

    monkeypatch.setattr(nn, "forward", failing_forward)
    threads = threading.active_count()
    with pytest.raises(NumericError, match="non-finite loss at iteration 8"):
        harness.run(cfg, w0)
    assert threading.active_count() == threads


TRACED_RUNS = """
import json, sys, threading
sys.path[:0] = ["src", "perfbench"]
import tracing
from pfge.cli import main

tracer = tracing.Tracer()
begin, end = tracer.begin, tracer.end
threads = set()

def traced_begin(name):
    threads.add(threading.get_ident())
    begin(name)

def traced_end():
    threads.add(threading.get_ident())
    return end()

tracer.begin, tracer.end = traced_begin, traced_end
tracing.install(tracer)
config = sys.argv[1]
assert main(["pretrain", config]) == 0
counts = []
for run_id in ("first", "second"):
    before = {name: stat["calls"] for name, stat in tracer.stats.items()}
    assert main(["run", config, "run_id=" + run_id]) == 0
    assert main(["connectivity", config, "run_id=" + run_id, "connectivity.iters=6",
                 "connectivity.grid_size=5"]) == 0
    counts.append({name: stat["calls"] - before.get(name, 0)
                   for name, stat in tracer.stats.items()})
print(json.dumps({"main_only": threads == {threading.main_thread().ident},
                  "open_spans": len(tracer._stack), "counts": counts}))
"""


def test_tracer_sees_only_the_main_thread(tmp_path):
    # Each of two identical rounds runs ``run`` and ``connectivity``, both of
    # which score on a background thread.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_doc(tmp_path / "runs")))
    result = subprocess.run([sys.executable, "-c", TRACED_RUNS, str(path)], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.strip().splitlines()[-1])
    assert out["main_only"]
    assert out["open_spans"] == 0
    first, second = out["counts"]
    assert first == second
    assert first["harness.run"] == 1 and first["harness.connectivity_run"] == 1
    # Four members and three curve controls; the endpoint thread scores
    # grid points 0 and 4, the main thread the three between them.
    assert first["checkpoint.save"] == 4 + 3
    assert first["connectivity.curve_point"] == 3
    assert first["nn.mean_loss"] == 3
