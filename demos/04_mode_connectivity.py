"""Mode connectivity: low-loss Bezier paths between ensemble members.

Two weight vectors found along the same training trajectory can usually be
joined by a quadratic Bezier curve whose training loss never rises much above
the endpoints. The curve's interior control point is trained to minimize the
expected loss along the curve; the mode-connectivity value

    mc = (L(w) + L(w')) / 2 - L(gamma(t*))

measures the largest deviation of the curve's loss from the endpoint average
(t* maximizes the absolute deviation). Values near zero mean the two models
sit in one flat, connected region.

Run from the repository root:  python3 demos/04_mode_connectivity.py
"""

from pathlib import Path

from pfge import (
    LayerSpec,
    LrSchedule,
    MomentumState,
    apply_standardization,
    batches,
    feature_stats,
    gen_two_spirals,
    init_model,
    initial_curve,
    loss_and_grad,
    profile_curve,
    run_pfge,
    sgd_step,
    train_curve,
)

OUT = Path("demo_output/connectivity")
OUT.mkdir(parents=True, exist_ok=True)

SEED = 1
BATCH = 32

train_raw = gen_two_spirals(100, noise_sd=0.15, seed=SEED)
test_raw = gen_two_spirals(1000, noise_sd=0.15, seed=SEED + 1)
mean, std = feature_stats(train_raw)
train = apply_standardization(train_raw, mean, std)
test = apply_standardization(test_raw, mean, std)

spec = LayerSpec((2, 64, 64, 2))
epoch = batches(train, BATCH, seed=SEED).iterations_per_epoch

w0 = init_model(spec, SEED)
state = MomentumState.initial(w0)
stream = iter(batches(train, BATCH, seed=SEED))
total = 300 * epoch
for i in range(1, total + 1):
    progress = (i - 1) / total
    factor = 1.0 if progress < 0.5 else (
        1.0 - 0.99 * (progress - 0.5) / 0.4 if progress < 0.9 else 0.01
    )
    _, grad = loss_and_grad(w0, next(stream), 0.0)
    w0, state = sgd_step(w0, grad, 0.1 * factor, state)

sched = LrSchedule(0.15, 0.0005, 2 * epoch)
ensemble, _ = run_pfge(w0, sched, 40 * epoch, 10 * epoch,
                       batches(train, BATCH, seed=SEED), MomentumState.initial(w0))

# Connect the last two recorded members with a quadratic curve (one trainable
# interior control point), then compare against the untrained straight line.
w_a, w_b = ensemble.members[-2], ensemble.members[-1]
straight = initial_curve(w_a, w_b, k=2)
curve = train_curve(w_a, w_b, k=2, iters=200,
                    stream=batches(train, BATCH, seed=SEED), lr=0.01, seed=SEED)

GRID = 61
# One grid sweep per curve: the profile gives the mc value, the CSV and the plot.
profiles = {}
for name, c in (("straight segment", straight), ("trained curve", curve)):
    short = name.split()[0]
    profile = profiles[short] = profile_curve(c, GRID, train, test)
    mc, t_star = profile.mc
    print(f"{name}: mc = {mc:+.6f} at t* = {t_star:.3f}; "
          f"train loss mean {profile.train_loss_summary['mean']:.4f} "
          f"(max {profile.train_loss_summary['max']:.4f}), "
          f"test error mean {profile.test_error_summary['mean']:.4f}")
    path = OUT / f"profile_{short}.csv"
    profile.write_csv(path)
    print(f"  profile -> {path}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.2))
    for name, profile in profiles.items():
        ax1.plot(profile.grid, profile.train_loss, label=name)
        ax2.plot(profile.grid, profile.test_error, label=name)
    ax1.set_xlabel("t")
    ax1.set_ylabel("train loss")
    ax2.set_xlabel("t")
    ax2.set_ylabel("test error")
    ax1.legend()
    fig.tight_layout()
    fig.savefig(OUT / "curve_profiles.png", dpi=120)
    print(f"\nwrote {OUT / 'curve_profiles.png'}")
except ImportError:
    print("\nmatplotlib not available; skipped the plot")
