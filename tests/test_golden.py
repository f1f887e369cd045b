"""Golden SHA-256 digests of seeded checkpoint payloads and run outputs.

The training loop may be restructured for speed, but every seeded run must
keep producing the same bytes. The member digests were computed with the
original immutable-dataclass training loop; a change that alters the
floating-point order of the SGD update, the running average or the gradient
shows up here as a digest mismatch. The curve-control, report and CSV
digests were computed before the evaluation loops reused their forward
buffers, so a buffer that leaks one member's or grid point's outputs into
another's shows up too. The "wide" digests were computed before full-split
forwards split wide layers by columns over two threads.

The digests hold where they were made: numpy's AVX-512 ``exp`` and ``log``
and an FMA OpenBLAS kernel, for "wide" OpenBLAS's SkylakeX kernel (see
``tests/test_golden_environments.py``). A mismatch names the environment it
ran in.
"""

import ctypes
import hashlib
import json

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

from pfge import harness
from pfge.config import config_from_dict
from pfge.data import batches, gen_two_spirals
from pfge.nn import LayerSpec, init_model, loss_and_grad
from pfge.schedule import LrSchedule
from pfge.training import MomentumState, run_fge, run_pfge, run_swa

ALGORITHMS = ("sgd", "swa", "fge", "pfge")

# Three tiny two_spirals set-ups. 48 training rows in batches of 10 give five
# iterations per epoch with a short last batch; "tanh-l2" also exercises the
# tanh backward pass and the L2 term of the gradient. "wide" has a 256x256
# layer and 1,024 test rows, 2**26 multiply-adds, so full-split forwards on
# the test split (``evaluate``, the curve's interior points) split it.
VARIANTS = {
    "relu": {"model": {"sizes": [2, 8, 8, 2]}},
    "tanh-l2": {
        "model": {"sizes": [2, 6, 2], "activation": "tanh"},
        "pretrain": {"epochs": 4, "lr": 0.1, "l2_coeff": 1e-3},
        "optimizer": {"momentum": 0.8, "weight_decay": 1e-3, "l2_coeff": 1e-3},
    },
    "wide": {
        "dataset": {"kind": "two_spirals", "n_per_class": 24, "noise_sd": 0.1,
                    "test_n_per_class": 512},
        "model": {"sizes": [2, 256, 256, 2]},
    },
}


def environment() -> str:
    """What the pins depend on: OpenBLAS's kernel and numpy's CPU features."""
    core = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    except OSError:
        libs = []
    for lib_path in libs:
        corename = getattr(ctypes.CDLL(lib_path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype, corename.argtypes = ctypes.c_char_p, []
            core = corename().decode()
    features = " ".join(name for name, enabled in __cpu_features__.items() if enabled)
    return f"OpenBLAS core {core}; numpy CPU features: {features}"


GOLDEN = {
    "relu": {
        "w0": "b3c30e1024defc780a686d0abd52a312467d0d5673bfd096d187c75108dcd2ab",
        "sgd": ["7b8a83c6aa51f63d12e3ff540b17d77ccab865302b9ee0930509aa0ed713235c"],
        "swa": ["d4879e68301e1852f15a1fad3b753a41abec12018982abf9fbb2be7ca5d7a87a"],
        "fge": [
            "802c08d5033104c790d877918b93b046e13f4d99b7c30f6dee4829c78393aa74",
            "126eec7ce4ceefefc6cb06d22217dda6bdfbcb1ae62d5ec42cfbcda75e2dff6a",
            "99d390e91c9cf40d0301f9edf854549bc50cfa2d254cc60b8be8abed47fbcd4a",
            "7b8a83c6aa51f63d12e3ff540b17d77ccab865302b9ee0930509aa0ed713235c",
        ],
        "pfge": [
            "05b296388a11598e709c502382c6b8c27abda9f8b3301cd3763b7f88c468bdd2",
            "3054df64239f42f980ab7087e9db84f2ac84591b89986e0a834bfd2d299a4100",
        ],
    },
    "tanh-l2": {
        "w0": "83c4910bef45c97b30fdbb3c6e950a67e4757006100b3442a4d89b1226206eb9",
        "sgd": ["6d4e5b30d89f3967b7543d5ca26679b3ff932614f951fdba4dde36014260114e"],
        "swa": ["78771f816d418eb5893f64dde6d328c9fd0ec8a86f1439b15a2ed731e0cd9245"],
        "fge": [
            "dbde7f7077ddbd265f02f2a85b808f055daaa5ecd4d69d2dce0fc39b5ded8a67",
            "cbe65a16c218210ad345256d3c0abfff3f7aee8e0edda69c43116ed6049ee9d7",
            "39777306eaf012c8edbfbf1fd015f5c907c29322bbff7ee8681f75dc63a45e50",
            "6d4e5b30d89f3967b7543d5ca26679b3ff932614f951fdba4dde36014260114e",
        ],
        "pfge": [
            "1d6d02e0314ef7b5fb37bfc35ab026ef855c97e8856a532914def4fe38dc34c5",
            "d4579403f2490da1975df17e0adbc3b81010adc5c912ea9222c1ea1c23df9804",
        ],
    },
    "wide": {
        "w0": "7e0e129362cc44bb1270065db722c5a7798085f55b2c4e4e1d03a0334e8be2d5",
        "sgd": ["e2af719b8673f5ac42a5d9df8cfa6e4b48a4bfc39467dc2045f7a8fb948e759e"],
        "swa": ["3408bdb52998665076aec69adecb74df84c0c1ecc739e3f294b385ac996552c8"],
        "fge": [
            "5c6f97307a58db931f45381560f7d1a1bad56ed79b1fca03c31b4cb7b1665776",
            "072b3719e231bd87f4cb4f08d66ded6dd137dec0727fda3ea19c8e49ee3c50c2",
            "9460e033d867ced0fc3851b0b378be2a2b02cfadc015d7c0b75e1fd8c236f38d",
            "e2af719b8673f5ac42a5d9df8cfa6e4b48a4bfc39467dc2045f7a8fb948e759e",
        ],
        "pfge": [
            "8eb321e3e2e9cc0557ddf1aea3d780e4af58a0bf48495b55649ef1ad0e456649",
            "0bb96a23034be248f03e6a5c34d819fd7a14bc9eddf80f8c20474bfaf526d56a",
        ],
    },
}


def golden_doc(outdir, variant: str, algorithm: str) -> dict:
    doc = {
        "seed": 11,
        "output_dir": str(outdir),
        "dataset": {"kind": "two_spirals", "n_per_class": 24, "noise_sd": 0.1,
                    "test_n_per_class": 30},
        "model": {"sizes": [2, 8, 2]},
        "batch_size": 10,
        "pretrain": {"epochs": 6, "lr": 0.1},
        "algorithm": algorithm,
        "schedule": {"alpha1": 0.1, "alpha2": 0.005, "cycle_epochs": 1},
        "budget": {"total_epochs": 4, "record_epochs": 2},
    }
    doc.update(json.loads(json.dumps(VARIANTS[variant])))
    return doc


def payload_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(tmp_path, variant: str) -> dict:
    """Digests of the w0 payload and of every member payload per algorithm."""
    outdir = tmp_path / variant
    w0 = harness.pretrain(config_from_dict(golden_doc(outdir, variant, "pfge")))
    digests = {"w0": payload_digest(outdir / "w0.ckpt")}
    for algorithm in ALGORITHMS:
        cfg = config_from_dict(golden_doc(outdir, variant, algorithm))
        harness.run(cfg, w0)
        digests[algorithm] = [payload_digest(p)
                              for p in harness.member_checkpoint_paths(cfg.run_dir)]
    return digests


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_payload_digests_are_pinned(tmp_path, variant):
    assert run_digests(tmp_path, variant) == GOLDEN[variant], environment()

# Connectivity and report settings per variant: "relu" trains a cubic curve
# and reports the last two fge members; "tanh-l2" a quadratic curve with the
# L2 term, over all four members; "wide" a quadratic curve profiled at three
# interior points, over the last three members.
CURVE_VARIANTS = {
    "relu": {"last_k": 2,
             "connectivity": {"k": 3, "iters": 30, "lr": 0.05, "grid_size": 7}},
    "tanh-l2": {"connectivity": {"k": 2, "iters": 30, "lr": 0.05, "grid_size": 7}},
    "wide": {"last_k": 3,
             "connectivity": {"k": 2, "iters": 20, "lr": 0.05, "grid_size": 5}},
}


def curve_and_report_digests(tmp_path, variant: str) -> dict:
    """Digests of an fge run's report sections, ``reliability.csv``,
    ``curve_profile.csv``, the trained curve-control payloads and, for
    "wide", the metrics of ``evaluation.json``."""
    outdir = tmp_path / variant
    doc = golden_doc(outdir, variant, "fge")
    doc.update(json.loads(json.dumps(CURVE_VARIANTS[variant])))
    cfg = config_from_dict(doc)
    _, report = harness.run(cfg, harness.pretrain(cfg))
    evaluation = harness.evaluate(cfg)
    harness.connectivity_run(cfg)
    conn_dir = cfg.run_dir / "connectivity"
    digests = {key: hashlib.sha256(json.dumps(report[key], sort_keys=True).encode()).hexdigest()
               for key in ("members", "ensemble_series", "ensemble")}
    digests["reliability.csv"] = payload_digest(cfg.run_dir / "reliability.csv")
    digests["curve_profile.csv"] = payload_digest(conn_dir / "curve_profile.csv")
    k = doc["connectivity"]["k"]
    digests["curve-controls"] = [payload_digest(conn_dir / f"curve-control-{j}.ckpt")
                                 for j in range(k + 1)]
    if variant == "wide":
        digests["evaluation"] = hashlib.sha256(
            json.dumps(evaluation["metrics"], sort_keys=True).encode()).hexdigest()
    return digests

CURVE_GOLDEN = {
    "relu": {
        "members": "1556622bc2c8443bc7bc850449c887355d10ef69fbb452f338ef85e399d487c9",
        "ensemble_series": "0d4f37e8c597a89a9709f17ca86984e924bb9147ad6326b7fafa7a2680db1a9a",
        "ensemble": "4cfe121be5dd002c5b0bb61e329df966203c1dcea7448259310d6eda8b764613",
        "reliability.csv": "272f9a7021dc70deadf0b791ad0bd0c43a89265b48f501f1378580bb5f21f067",
        "curve_profile.csv": "fce1b4ec3133fc69414f1593533d610bcef29b9611116ae90b40eab2fa1a281a",
        "curve-controls": [
            "99d390e91c9cf40d0301f9edf854549bc50cfa2d254cc60b8be8abed47fbcd4a",
            "cb9d0b8bdadd4475aecc13e6d361f77b493290fb692da988d52ea28249672ec8",
            "7564d1af17175349061ec27d9050523da5be655388230e3f110c797d463ab269",
            "7b8a83c6aa51f63d12e3ff540b17d77ccab865302b9ee0930509aa0ed713235c",
        ],
    },
    "tanh-l2": {
        "members": "be7a39e70425125b78996fe971b3e9ae41c9dc4ff6b96931dbefbd42eb5da16f",
        "ensemble_series": "253211eb96471c682fcc3d692548026118503b9532afaff26b11de882d2bb6ee",
        "ensemble": "656c9fa843ddd0d074e0a07ac84eabbc80448fe3c43a35ad6bd5f5056c798775",
        "reliability.csv": "b69f766902fd1b278ec2878bd737c49664082122f2b56b2c91239df01cfb94bd",
        "curve_profile.csv": "45485eaaf320ef64ae4b8c9a86f731ac73a0a3cf19640f088338b4beb81055e3",
        "curve-controls": [
            "39777306eaf012c8edbfbf1fd015f5c907c29322bbff7ee8681f75dc63a45e50",
            "759318ee18ee6fae274c7c329aad17876e1504dc37db63287ae59b483c476cef",
            "6d4e5b30d89f3967b7543d5ca26679b3ff932614f951fdba4dde36014260114e",
        ],
    },
    "wide": {
        "members": "eb903b48855aa8fb98de4db7e9262dc9217eba37e74a6ce6e38fbd417fa7cfdd",
        "ensemble_series": "a805cabf85829745a90e52387a9f1e1cc31e0f86480df6c10c0ccf23e3419af8",
        "ensemble": "eb7009652e3edec66722da849a170824609ef42282319f1749039fc94970338a",
        "reliability.csv": "7b38f6589de9c1aa16569a0c465a73121183d19e6f7fafd0c0acee62a22750e8",
        "curve_profile.csv": "46cbf741d4d4db68933b6872f27c1db0588a0a7c269370a258fa80b8dbe9f905",
        "curve-controls": [
            "9460e033d867ced0fc3851b0b378be2a2b02cfadc015d7c0b75e1fd8c236f38d",
            "9a896740afb4aab924870f702c6fcff503177f18d5c7f47065ab0fb14f058a20",
            "e2af719b8673f5ac42a5d9df8cfa6e4b48a4bfc39467dc2045f7a8fb948e759e",
        ],
        "evaluation": "6d979ee82f4342cf854d007bf1354bc2c3d97164fb01a6d29fb56a3f687ee9ad",
    },
}


@pytest.mark.parametrize("variant", sorted(CURVE_VARIANTS))
def test_curve_and_report_digests_are_pinned(tmp_path, variant):
    assert curve_and_report_digests(tmp_path, variant) == CURVE_GOLDEN[variant], environment()


class TestSuppliedLossGrad:
    """A caller's ``loss_grad_fn`` returning fresh arrays gives the same bits."""

    @pytest.fixture
    def setup(self):
        ds = gen_two_spirals(24, noise_sd=0.1, seed=3)
        w0 = init_model(LayerSpec((2, 8, 8, 2)), 3)
        sched = LrSchedule(0.1, 0.005, 5)
        return ds, w0, sched

    def test_swa(self, setup):
        ds, w0, sched = setup
        default, _ = run_swa(w0, sched, 20, batches(ds, 10, 3), MomentumState.initial(w0))
        user, _ = run_swa(w0, sched, 20, batches(ds, 10, 3), MomentumState.initial(w0),
                          loss_grad_fn=lambda w, b: loss_and_grad(w, b))
        assert default.values.tobytes() == user.values.tobytes()

    def test_fge(self, setup):
        ds, w0, sched = setup
        default, _ = run_fge(w0, sched, 20, batches(ds, 10, 3), MomentumState.initial(w0))
        user, _ = run_fge(w0, sched, 20, batches(ds, 10, 3), MomentumState.initial(w0),
                          loss_grad_fn=lambda w, b: loss_and_grad(w, b))
        assert [m.values.tobytes() for m in default.members] == [
            m.values.tobytes() for m in user.members
        ]

    def test_pfge(self, setup):
        ds, w0, sched = setup
        default, dtrace = run_pfge(w0, sched, 20, 10, batches(ds, 10, 3),
                                   MomentumState.initial(w0))
        user, utrace = run_pfge(w0, sched, 20, 10, batches(ds, 10, 3),
                                MomentumState.initial(w0),
                                loss_grad_fn=lambda w, b: loss_and_grad(w, b))
        assert [m.values.tobytes() for m in default.members] == [
            m.values.tobytes() for m in user.members
        ]
        assert dtrace.losses.tobytes() == utrace.losses.tobytes()
