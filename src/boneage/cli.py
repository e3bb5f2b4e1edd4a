"""Command-line surface: data generation, training, prediction, scoring.

Every subcommand takes ``--config`` (INI file), ``--seed``, ``--out``,
and ``--verbose``; flags override their config keys. Exit code 0 on
success, 1 with a stage-labeled message on any contract, config,
training, or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from . import pipeline as pl
from .age_estimation import default_atlas_classes
from .augmentation import LabeledImage, augment_dataset
from .checkpoint import write_atomic
from .config import PipelineConfig, load_config, rebase_out
from .errors import BoneAgeError, ContractError
from .imaging import load_image, save_image
from .metrics import evaluate, selftest_report
from .phantom import AGE_MAX_MONTHS, AGE_MIN_MONTHS, PhantomSpec, generate_phantom
from .roi import predict_roi, prepare_roi_input
from .segmentation import segment


# command -> (help, pipeline stage name, stage trainer); every trainer
# returns the loss history last
_TRAIN = {
    "train-seg": ("train the segmentation network", "segmentation", pl.train_segmentation_stage),
    "train-roi": ("train the localization network", "localization", pl.train_roi_stage),
    "train-age": ("train the age network", "age", pl.train_age_stage),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument("--seed", type=int, metavar="N", help="override the global seed")
    common.add_argument("--out", metavar="DIR", help="override the output directory")
    common.add_argument("--verbose", action="store_true", help="log progress and dump intermediates")

    p = argparse.ArgumentParser(prog="boneage", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("phantom", parents=[common], help="render labeled phantom images")
    sp.add_argument("--count", type=int, default=12)
    sp.add_argument("--negative-fraction", type=float, default=0.0)

    sp = sub.add_parser("augment", parents=[common], help="expand reference images over the grid")
    sp.add_argument(
        "--refs", metavar="MANIFEST",
        help="reference list: lines `ref_id age_months sex path` (default: 12 phantoms)",
    )

    for name, (help_text, *_) in _TRAIN.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("--epochs", type=int, help="override the configured epoch count")
        sp.add_argument("--count", type=int, help="override the phantom training-set size")

    sp = sub.add_parser("segment", parents=[common], help="segment one image")
    sp.add_argument("image", help="input image (PGM or PNG)")

    sp = sub.add_parser("roi", parents=[common], help="localize the joint in one image")
    sp.add_argument("image", help="input image (PGM or PNG)")

    sp = sub.add_parser("predict", parents=[common], help="estimate bone age end to end")
    sp.add_argument("images", nargs="+", help="input images (PGM or PNG)")

    sp = sub.add_parser("eval", parents=[common], help="score predictions against labels")
    sp.add_argument("--predictions", required=True, metavar="CSV", help="columns id,months")
    sp.add_argument("--labels", required=True, metavar="CSV", help="columns id,months")

    sub.add_parser("selftest", parents=[common], help="verify metrics on the bundled table")
    return p


def _load_config(args) -> PipelineConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        rebase_out(config, Path(args.out))
    return config


def _log_fn(args):
    return (lambda msg: print(msg)) if args.verbose else None


def _read_csv_pairs(path: Path) -> List:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ContractError(f"cannot read {path}: {exc}") from exc
    rows = list(csv.DictReader(text.splitlines()))
    if not rows:
        raise ContractError(f"{path}: no data rows")
    out = []
    for lineno, row in enumerate(rows, start=2):  # line 1 is the header
        try:
            months = float(row["months"])
        except (KeyError, TypeError, ValueError):
            raise ContractError(f"{path}: needs columns id,months") from None
        if not math.isfinite(months):
            raise ContractError(f"{path}:{lineno}: months must be finite, got {row['months']!r}")
        out.append((row["id"], months))
    return out


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_phantom(args, config: PipelineConfig) -> int:
    out = config.out_dir / "phantoms"
    out.mkdir(parents=True, exist_ok=True)
    samples = pl.phantom_set(config, args.count, config.seed, args.negative_fraction)
    lines = []
    for i, s in enumerate(samples):
        sid = f"ph{i:04d}"
        save_image(s.image, out / f"{sid}.pgm")
        save_image(s.bone_mask, out / f"{sid}_mask.pgm")
        x, y, w, h = s.roi.as_tuple()
        lines.append(
            f"{sid} {s.age_months:g} {s.sex} {str(s.is_true).lower()} "
            f"roi({x:g} {y:g} {w:g} {h:g})"
        )
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(samples)} phantoms to {out}")
    return 0


def _default_references(config: PipelineConfig) -> List[LabeledImage]:
    """One phantom per atlas class, on the configured canvas and noise,
    from a seed stream apart from the training phantoms'."""
    refs = []
    for i, (sex, age) in enumerate(default_atlas_classes()):
        spec = PhantomSpec(
            seed=config.seed + 500_000 + i,
            maturity=(age - AGE_MIN_MONTHS) / (AGE_MAX_MONTHS - AGE_MIN_MONTHS),
            sex=sex,
            image_size=config.phantom.image_size,
            noise_level=config.phantom.noise_level,
        )
        refs.append(LabeledImage.reference(generate_phantom(spec).image, age, sex, f"ref{i:02d}"))
    return refs


def _read_references(manifest: Path) -> List[LabeledImage]:
    try:
        text = Path(manifest).read_text(encoding="utf-8")
    except OSError as exc:
        raise ContractError(f"cannot read reference manifest {manifest}: {exc}") from exc
    refs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ContractError(
                f"{manifest}:{lineno}: expected `ref_id age_months sex path`"
            )
        ref_id, age_s, sex, rel = parts
        try:
            age = float(age_s)
        except ValueError:
            raise ContractError(f"{manifest}:{lineno}: bad age {age_s!r}") from None
        if not math.isfinite(age):
            raise ContractError(f"{manifest}:{lineno}: age must be finite, got {age_s!r}")
        img = load_image(Path(manifest).parent / rel)
        refs.append(LabeledImage.reference(img, age, sex, ref_id=ref_id))
    if not refs:
        raise ContractError(f"{manifest}: no references listed")
    return refs


def _cmd_augment(args, config: PipelineConfig) -> int:
    refs = _read_references(args.refs) if args.refs else _default_references(config)
    variants = augment_dataset(refs, config.augmentation)
    out = config.out_dir / "augmented"
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for v in variants:
        vid = v.provenance_str()
        save_image(v.image, out / f"{vid}.pgm")
        ref_id, dx, dy, rot, flip = v.provenance
        lines.append(
            f"{vid} {ref_id} {dx} {dy} {rot:g} {int(flip)} {v.age_months:g} {v.sex}"
        )
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(variants)} variants ({len(refs)} references) to {out}")
    return 0


def _cmd_train(args, config: PipelineConfig) -> int:
    _, stage, train_stage = _TRAIN[args.command]
    _, _, checkpoint, settings = pl.STAGES[stage]
    if args.epochs is not None:
        setattr(config, settings, replace(getattr(config, settings), epochs=args.epochs))
    samples = pl.training_phantoms(config, args.count)
    history = train_stage(config, samples, log_fn=_log_fn(args))[-1]
    print(f"{stage}: {len(history)} epochs, final loss {history[-1]:.5f}")
    print(f"checkpoint: {getattr(config, checkpoint)}")
    return 0


def _cmd_segment(args, config: PipelineConfig) -> int:
    model = pl.load_model(config, "segmentation")
    with pl.stage("load"):
        img = load_image(args.image)
    with pl.stage("segment"):
        mask, bone = segment(model, img)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.image).stem
    save_image(mask, out / f"{stem}_mask.pgm")
    save_image(bone, out / f"{stem}_bone.pgm")
    print(f"wrote {out / f'{stem}_mask.pgm'} and {out / f'{stem}_bone.pgm'}")
    return 0


def _cmd_roi(args, config: PipelineConfig) -> int:
    seg_model = pl.load_model(config, "segmentation")
    roi_model = pl.load_model(config, "localization")
    with pl.stage("load"):
        img = load_image(args.image)
    with pl.stage("segment"):
        _, bone = segment(seg_model, img)
    with pl.stage("prepare"):
        prepared = prepare_roi_input(bone)
    with pl.stage("localize"):
        box, confidence = predict_roi(roi_model, prepared)
    line = f"{box.x:.1f} {box.y:.1f} {box.w:.1f} {box.h:.1f} {confidence:.4f}"
    print(line)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{Path(args.image).stem}_roi.txt").write_text(line + "\n", encoding="ascii")
    return 0


def _cmd_predict(args, config: PipelineConfig) -> int:
    # a failed call leaves no predictions.csv, not an earlier call's
    pred_csv = config.out_dir / "predictions.csv"
    pred_csv.unlink(missing_ok=True)
    # an image's file stem is its predictions.csv id and names its debug_<id>/
    paths = {}
    for image_path in args.images:
        stem = Path(image_path).stem
        if stem in paths:
            raise ContractError(f"{paths[stem]} and {image_path} share the id {stem!r}")
        paths[stem] = image_path
    pipe = pl.Pipeline.load(config)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for stem, image_path in paths.items():
        dump = config.out_dir / f"debug_{stem}" if args.verbose else None
        record = pipe.predict_path(image_path, dump_dir=dump)
        print(record.format_line())
        rows.append((stem, record.age_months))
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["id", "months"])
    writer.writerows(rows)
    write_atomic(pred_csv, text.getvalue().encode("ascii"))
    return 0


def _cmd_eval(args, config: PipelineConfig) -> int:
    predictions = _read_csv_pairs(args.predictions)
    labels = _read_csv_pairs(args.labels)
    report = evaluate(predictions, labels)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    report_csv = config.out_dir / "report.csv"
    with report_csv.open("w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "expert_months", "system_months", "abs_error"])
        for case_id, expert, system in report.cases:
            writer.writerow([case_id, f"{expert:g}", f"{system:g}", f"{abs(expert - system):g}"])
    for line in report.format_lines():
        print(line)
    print(f"report: {report_csv}")
    return 0


def _cmd_selftest(args, config: PipelineConfig) -> int:
    report = selftest_report()
    print(f"cases: {report.count}")
    print(f"mae_months: {report.mae_months:.4f}")
    print(f"mape: {report.mape:.6f}")
    ok = abs(report.mae_months - 2.8) <= 0.005 and abs(report.mape - 0.0182) <= 0.0005
    print("selftest: PASS" if ok else "selftest: FAIL")
    return 0 if ok else 1


_COMMANDS = {
    "phantom": _cmd_phantom,
    "augment": _cmd_augment,
    **dict.fromkeys(_TRAIN, _cmd_train),
    "segment": _cmd_segment,
    "roi": _cmd_roi,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "selftest": _cmd_selftest,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        return _COMMANDS[args.command](args, config)
    except BoneAgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
