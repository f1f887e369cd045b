"""The reproducible experiment harness: JSON configs, checkpoints, reports.

Everything the library does interactively is also scriptable through one JSON
config document. The harness persists each ensemble member as a binary
checkpoint with a digest-carrying JSON sidecar, writes a schema-validated
report plus CSV side-files, and reproduces every artifact byte-for-byte
(timestamps aside) when re-run with the same config and seed.

The same workflow is available from the shell:

    pfge pretrain     cfg.json
    pfge run          cfg.json algorithm=pfge
    pfge evaluate     cfg.json last_k=4
    pfge connectivity cfg.json
    pfge report       cfg.json

Run from the repository root:  python3 demos/05_harness_workflow.py
"""

import json
from pathlib import Path

from pfge import harness, load_checkpoint
from pfge.config import config_from_dict

OUT = Path("demo_output/harness")
OUT.mkdir(parents=True, exist_ok=True)

doc = {
    "seed": 1,
    "output_dir": str(OUT / "runs"),
    "dataset": {"kind": "two_spirals", "n_per_class": 100, "noise_sd": 0.15,
                "test_n_per_class": 500},
    "model": {"sizes": [2, 32, 2]},
    "batch_size": 32,
    "pretrain": {"epochs": 150, "lr": 0.1},
    "algorithm": "pfge",
    "schedule": {"alpha1": 0.15, "alpha2": 0.0005, "cycle_epochs": 2},
    "budget": {"total_epochs": 40, "record_epochs": 10},
}
config_path = OUT / "config.json"
config_path.write_text(json.dumps(doc, indent=2))
print(f"config -> {config_path}")

cfg = config_from_dict(doc)

# Phase 1: pretrain the shared starting point. Standardization statistics
# are computed here and travel with every checkpoint.
w0 = harness.pretrain(cfg)
print(f"\npretrained w0 -> {cfg.w0_path} "
      f"(train accuracy {w0.meta['final_train_accuracy']:.4f})")

# Phase 2: run the configured algorithm; members and report land in the run
# directory.
ensemble, report = harness.run(cfg, w0)
print(f"\nrun directory: {cfg.run_dir}")
for entry in report["members"]:
    print(f"  {entry['checkpoint']}: recorded at iteration {entry['recorded_at']}, "
          f"test accuracy {entry['metrics']['accuracy']:.4f}")
print(f"  report.json, reliability.csv, ensemble_series.csv")

# Checkpoints carry a content digest that is verified on load.
first = harness.member_checkpoint_paths(cfg.run_dir)[0]
ckpt = load_checkpoint(first)
print(f"\nreloaded {first.name}: {ckpt.spec.param_count} parameters, "
      f"digest verified")

# Phase 3: evaluate the stored members (the last ``last_k`` of them when the
# config sets it); evaluation.json lands in the run directory.
record = harness.evaluate(cfg)
print(f"\nensemble evaluation: accuracy {record['metrics']['accuracy']:.4f}, "
      f"nll {record['metrics']['nll']:.4f} ({record['metrics']['nll_pct']:.2f}%), "
      f"ece {record['metrics']['ece']:.4f}")

# Phase 4: mode connectivity between the last two members.
connectivity = harness.connectivity_run(cfg)
print(f"\nconnectivity: mc = {connectivity['mc']:+.6f} at t* = {connectivity['t_star']:.3f} "
      f"-> {cfg.run_dir / 'connectivity'}")

# The human-readable rendering the `pfge report` verb prints.
print("\n" + harness.format_report(harness.load_report(cfg.run_dir)))
