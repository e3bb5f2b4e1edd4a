"""Shipping gate: eight checks, each printing one PASS/FAIL verdict line.

Checks 1-4 are standalone and fast.  Checks 5-8 score the session-scoped
trained stack from conftest, so the training cost is paid once; each
check still asserts its own quality bar and wall-clock budget.
"""

import time

import numpy as np

from boneage import tensor as T
from boneage.augmentation import augment_dataset
from boneage.cli import _default_references
from boneage.config import PipelineConfig
from boneage.imaging import load_image, save_image
from boneage.metrics import selftest_report
from boneage.optim import TrainSettings
from boneage.phantom import PhantomSpec, generate_phantom
from boneage.pipeline import Pipeline
from boneage.segmentation import (
    UNetConfig,
    build_unet,
    train_segmentation,
    unet_forward,
)

import test_tensor as tt
from conftest import age_errors, roi_quality, seg_holdout_dice
from reference import bce_ref, conv2d_ref, dense_ref, max_pool2d_ref, spearman_ref


def _verdict(capsys, number, ok, detail):
    """Print the check's verdict even under capture, then enforce it."""
    with capsys.disabled():
        print(f"\nacceptance {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. bundled self-test reproduces the published error figures
# ---------------------------------------------------------------------------


def test_acceptance_1_bundled_selftest(capsys):
    t0 = time.perf_counter()
    report = selftest_report()
    elapsed = time.perf_counter() - t0
    ok = (
        abs(report.mae_months - 2.8) <= 0.005
        and abs(report.mape - 0.0182) <= 0.0005
        and elapsed < 1.0
    )
    _verdict(
        capsys,
        1,
        ok,
        f"mae={report.mae_months:.4f} mape={report.mape:.5f} runtime={elapsed:.3f}s",
    )


# ---------------------------------------------------------------------------
# 2. default augmentation grid: 12 references -> 576 distinct variants
# ---------------------------------------------------------------------------


def test_acceptance_2_deterministic_expansion(capsys):
    config = PipelineConfig()
    t0 = time.perf_counter()
    refs = _default_references(config)
    variants = augment_dataset(refs, config.augmentation)
    elapsed = time.perf_counter() - t0
    again = augment_dataset(_default_references(config), config.augmentation)
    provenance = {v.provenance for v in variants}
    identical = len(variants) == len(again) and all(
        a.provenance == b.provenance
        and a.image.pixels.tobytes() == b.image.pixels.tobytes()
        for a, b in zip(variants, again)
    )
    ok = (
        len(refs) == 12
        and len(variants) == 576
        and len(provenance) == 576
        and identical
        and elapsed < 30.0
    )
    _verdict(
        capsys,
        2,
        ok,
        f"refs={len(refs)} variants={len(variants)} distinct={len(provenance)} "
        f"rerun_identical={identical} runtime={elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. reverse-mode gradients vs central finite differences, every op
# ---------------------------------------------------------------------------


def _bce_grad_at_stated_tol(seed):
    # same recipe as the unit sweep, held to the gate's 1e-3 bound
    rng = np.random.default_rng(1100 + seed)
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 7)))
    p = rng.uniform(0.1, 0.9, shape)
    t = rng.uniform(0.1, 0.9, shape)
    tt.gradcheck(lambda a, b: T.loss(a, b, "bce"), bce_ref, [p, t], tol=1e-3)


GRAD_SWEEPS = [
    ("mse", tt.test_grad_mse),
    ("bce", _bce_grad_at_stated_tol),
    ("dice", tt.test_grad_dice),
    ("smooth_l1", tt.test_grad_smooth_l1),
    ("softmax_cross_entropy", tt.test_grad_softmax_cross_entropy),
    ("conv2d", tt.test_grad_conv2d),
    ("max_pool2d", tt.test_grad_max_pool2d),
    ("dense", tt.test_grad_dense),
    ("upsample2x", tt.test_grad_upsample2x),
    ("concat_channels", tt.test_grad_concat_channels),
    ("relu", tt.test_grad_relu),
    ("sigmoid", tt.test_grad_sigmoid),
    ("softmax_rows", tt.test_grad_softmax_rows),
    ("flatten_add_scale", tt.test_grad_flatten_add_scale),
    ("select_rows", tt.test_grad_select_rows_with_repeats),
]


def test_acceptance_3_gradients_match_finite_differences(capsys):
    failures = []
    t0 = time.perf_counter()
    for name, fn in GRAD_SWEEPS:
        for seed in range(20):
            try:
                fn(seed)
            except AssertionError as exc:
                failures.append(f"{name}[{seed}]: {exc}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    detail = (
        f"ops={len(GRAD_SWEEPS)} seeds_each=20 failures={len(failures)} "
        f"runtime={elapsed:.1f}s"
    )
    if failures:
        detail += f" first={failures[0][:90]}"
    _verdict(capsys, 3, ok, detail)


# ---------------------------------------------------------------------------
# 4. forward kernels vs brute-force loop oracles
# ---------------------------------------------------------------------------


def test_acceptance_4_forward_kernels_match_loop_oracles(capsys):
    cases = 0
    worst = 0.0
    failures = 0

    def check(got, want):
        nonlocal cases, worst, failures
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        worst = max(worst, err)
        failures += err > 1e-5
        cases += 1

    for seed in range(40):
        rng = np.random.default_rng(5000 + seed)
        n, c, f = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        h, w = int(rng.integers(k, 8)), int(rng.integers(k, 8))
        x = rng.standard_normal((n, c, h, w))
        kern = rng.standard_normal((f, c, k, k))
        b = rng.standard_normal(f)
        got = T.conv2d(
            T.Tensor(x), T.Tensor(kern), T.Tensor(b), stride=stride, padding=padding
        )
        check(got.data, conv2d_ref(x, kern, b, stride=stride, padding=padding))

    for seed in range(40):
        rng = np.random.default_rng(5100 + seed)
        n, c = rng.integers(1, 3), rng.integers(1, 4)
        h, w = 2 * int(rng.integers(1, 5)), 2 * int(rng.integers(1, 5))
        x = rng.standard_normal((n, c, h, w))
        check(T.max_pool2d(T.Tensor(x)).data, max_pool2d_ref(x))

    for seed in range(40):
        rng = np.random.default_rng(5200 + seed)
        n, d, m = rng.integers(1, 8), rng.integers(1, 8), rng.integers(1, 8)
        x = rng.standard_normal((n, d))
        w = rng.standard_normal((d, m))
        b = rng.standard_normal(m)
        check(T.dense(T.Tensor(x), T.Tensor(w), T.Tensor(b)).data, dense_ref(x, w, b))

    ok = cases >= 100 and failures == 0
    _verdict(
        capsys,
        4,
        ok,
        f"cases={cases} worst_abs_err={worst:.2e} failures={failures} bound=1e-5",
    )


# ---------------------------------------------------------------------------
# 5. segmentation: held-out quality plus single-sample overfit
# ---------------------------------------------------------------------------


def test_acceptance_5_segmentation_quality(capsys, trained_stack):
    dice = seg_holdout_dice(trained_stack.seg_model, trained_stack.holdout[:50])

    t0 = time.perf_counter()
    sample = generate_phantom(PhantomSpec(seed=7, maturity=0.4, sex="male"))
    pair = (sample.image, sample.bone_mask)
    model = build_unet(UNetConfig(), seed=2)
    model, _ = train_segmentation(
        model,
        [pair],
        TrainSettings(epochs=200, learning_rate=1e-2, batch_size=1),
        seed=0,
    )
    with T.Tape():
        pred = unet_forward(model, T.Tensor(pair[0].pixels[None, None]))
        overfit_loss = float(
            T.loss(pred, T.Tensor(pair[1].pixels[None, None]), "dice").data
        )
    total = trained_stack.seconds["seg"] + (time.perf_counter() - t0)

    ok = (
        dice >= 0.90
        and trained_stack.epochs["seg"] <= 200
        and overfit_loss < 0.05
        and total <= 600.0
    )
    _verdict(
        capsys,
        5,
        ok,
        f"holdout_dice={dice:.4f} epochs={trained_stack.epochs['seg']} "
        f"overfit_dice_loss={overfit_loss:.4f} runtime={total:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. localization: IoU on positives, confidence separates negatives
# ---------------------------------------------------------------------------


def test_acceptance_6_roi_quality(capsys, trained_stack):
    samples = trained_stack.holdout_positives[:50] + trained_stack.holdout_negatives
    mean_iou, conf_pos, conf_neg = roi_quality(trained_stack.roi_model, samples)
    elapsed = trained_stack.seconds["roi"]
    ok = mean_iou >= 0.5 and conf_neg < conf_pos and elapsed <= 600.0
    _verdict(
        capsys,
        6,
        ok,
        f"mean_iou={mean_iou:.3f} conf_pos={conf_pos:.3f} conf_neg={conf_neg:.3f} "
        f"runtime={elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. age regression beats the constant-mean baseline and ranks well
# ---------------------------------------------------------------------------


def test_acceptance_7_age_regression_beats_baseline(capsys, trained_stack):
    truths, preds = age_errors(
        trained_stack.age_model,
        trained_stack.atlas,
        trained_stack.config,
        trained_stack.holdout_positives,
        trained_stack.seg_model,
    )
    model_mae = float(np.mean(np.abs(preds - truths)))
    baseline_age = float(np.mean([s.age_months for s in trained_stack.age_samples]))
    baseline_mae = float(np.mean(np.abs(baseline_age - truths)))
    rho = spearman_ref(preds, truths)
    elapsed = trained_stack.seconds["age"]
    ok = (
        len(truths) >= 50
        and model_mae < 0.5 * baseline_mae
        and rho > 0.8
        and elapsed <= 600.0
    )
    _verdict(
        capsys,
        7,
        ok,
        f"n={len(truths)} mae={model_mae:.2f} baseline_mae={baseline_mae:.2f} "
        f"spearman={rho:.3f} runtime={elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. end-to-end prediction is reproducible with fixed artifact geometry
# ---------------------------------------------------------------------------


def test_acceptance_8_reproducible_prediction_and_artifacts(
    capsys, trained_stack, tmp_path
):
    sample = trained_stack.holdout_positives[0]
    case = tmp_path / "case.pgm"
    save_image(sample.image, case)

    first = Pipeline.load(trained_stack.config).predict_path(case)
    second = Pipeline.load(trained_stack.config).predict_path(case)
    dump = tmp_path / "dump"
    third = Pipeline.load(trained_stack.config).predict_path(case, dump_dir=dump)

    bone = load_image(dump / "bone.pgm")
    prepared = load_image(dump / "prepared.pgm")
    identical = first == second == third
    ok = (
        identical
        and (bone.width, bone.height) == (720, 480)
        and (prepared.width, prepared.height) == (720, 960)
    )
    _verdict(
        capsys,
        8,
        ok,
        f"identical_records={identical} bone={bone.width}x{bone.height} "
        f"prepared={prepared.width}x{prepared.height}",
    )
