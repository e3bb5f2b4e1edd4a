"""CLI subcommands driven through main(argv) with a miniature config.

The networks here are deliberately tiny and trained for one epoch:
these tests exercise plumbing (flags, files, exit codes, formats),
not model quality.
"""

import gc
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import boneage
from boneage.cli import main
from boneage.imaging import load_image

TINY_INI = """
[pipeline]
seed = 3

[segmentation]
depth = 2
base_channels = 2
input_width = 32
input_height = 32
epochs = 1
batch_size = 4

[roi]
channels = 2,4
input_width = 32
input_height = 32
hidden = 8
epochs = 1
batch_size = 4

[age]
channels = 2,4
crop_width = 32
crop_height = 32
hidden = 8
epochs = 1
batch_size = 4

[augmentation]
shift_stride = 10
shift_counts_x = 2
shift_counts_y = 1
rotations = 0
flips = false,true

[phantom]
width = 48
height = 40
train_count = 4
negative_fraction = 0.25
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config file + phantoms + all three trained (1-epoch) checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI + f"\n[paths]\nout_dir = {root}/out\n")
    argv = ["--config", str(ini)]
    assert main(["phantom", "--count", "5", "--negative-fraction", "0.2", *argv]) == 0
    assert main(["train-seg", *argv]) == 0
    assert main(["train-roi", *argv]) == 0
    assert main(["train-age", *argv]) == 0
    return root, ini


def _args(ini):
    return ["--config", str(ini)]


def _python(*argv):
    """A fresh interpreter that imports this boneage package."""
    src = str(Path(boneage.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *map(str, argv)], env=env, capture_output=True, text=True, timeout=120,
    )


def _checkpoint_dir(root, path, age_from="age.ckpt"):
    path.mkdir()
    for name, source in (("seg.ckpt", "seg.ckpt"), ("roi.ckpt", "roi.ckpt"), ("age.ckpt", age_from)):
        (path / name).write_bytes((root / "out" / source).read_bytes())
    return path


# ---------------------------------------------------------------------------
# data commands
# ---------------------------------------------------------------------------


def test_phantom_writes_images_and_manifest(workspace):
    root, _ = workspace
    out = root / "out" / "phantoms"
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 5
    pat = re.compile(
        r"^ph\d{4} \d+(\.\d+)? (female|male) (true|false) "
        r"roi\(-?[\d.]+ -?[\d.]+ [\d.]+ [\d.]+\)$"
    )
    for line in manifest:
        assert pat.match(line), line
    assert sum(1 for line in manifest if " false " in line) == 1  # floor(5 * 0.2)
    assert (out / "ph0000.pgm").is_file()
    assert (out / "ph0000_mask.pgm").is_file()
    img = load_image(out / "ph0000.pgm")
    assert (img.width, img.height) == (48, 40)


def test_augment_default_references(workspace, capsys):
    root, ini = workspace
    assert main(["augment", *_args(ini)]) == 0
    assert "576" not in capsys.readouterr().out  # tiny grid: 2*1*1*2 = 4 per ref
    out = root / "out" / "augmented"
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 4 * 12
    # line: id ref_id dx dy rot flip age sex
    parts = manifest[0].split()
    assert len(parts) == 8
    assert parts[1].startswith("ref")
    assert parts[5] in ("0", "1")
    assert parts[7] in ("female", "male")
    assert (out / f"{parts[0]}.pgm").is_file()


def test_augment_with_reference_manifest(workspace, tmp_path, capsys):
    root, ini = workspace
    src = root / "out" / "phantoms" / "ph0000.pgm"
    listing = tmp_path / "refs.txt"
    listing.write_text(f"# comment line\nrefA 132 female {src}\nrefB 150 male {src}\n")
    assert main(["augment", "--refs", str(listing), *_args(ini), "--out", str(tmp_path / "o")]) == 0
    assert "8 variants (2 references)" in capsys.readouterr().out
    manifest = (tmp_path / "o" / "augmented" / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 8


def test_augment_rejects_malformed_reference_line(workspace, tmp_path, capsys):
    _, ini = workspace
    listing = tmp_path / "refs.txt"
    listing.write_text("refA 132 female\n")
    assert main(["augment", "--refs", str(listing), *_args(ini)]) == 1
    assert "refs.txt:1" in capsys.readouterr().err


@pytest.mark.parametrize("age", ["nan", "inf"])
def test_augment_rejects_non_finite_reference_age(workspace, tmp_path, capsys, age):
    root, ini = workspace
    src = root / "out" / "phantoms" / "ph0000.pgm"
    listing = tmp_path / "refs.txt"
    listing.write_text(f"refA 132 female {src}\nrefB {age} male {src}\n")
    out = tmp_path / "o"
    assert main(["augment", "--refs", str(listing), *_args(ini), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {listing}:2: age must be finite, got '{age}'\n"
    assert not (out / "augmented").exists()


def test_augment_refuses_a_non_ascii_reference_id_before_any_work(workspace, tmp_path, capsys):
    # the id names the variants' files and manifest lines, which are ASCII
    root, ini = workspace
    src = root / "out" / "phantoms" / "ph0000.pgm"
    listing = tmp_path / "refs.txt"
    listing.write_text(f"refA 132 female {src}\nr\u00e9 150 male {src}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["augment", "--refs", str(listing), *_args(ini), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {listing}:2: ref_id must be ASCII, got 'r\u00e9'\n"
    assert not (out / "augmented").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("rotations = 0, 15, 15.0", "rotations (0.0, 15.0, 15.0) repeat a variant id (r0, r15, r15)"),
        ("rotations = 15, 15.0000001", "rotations (15.0, 15.0000001) repeat a variant id (r15, r15)"),
        ("rotations = 0, nan", "rotations must be finite, got (0.0, nan)"),
        ("rotations = 0, inf", "rotations must be finite, got (0.0, inf)"),
        ("flips = true, yes", "flips repeat: (True, True)"),
    ],
    ids=["r15-twice", "r15-by-rounding", "nan", "inf", "flip-twice"],
)
def test_augment_refuses_a_grid_that_names_two_variants_alike(tmp_path, capsys, line, message):
    ini = tmp_path / "f.ini"
    ini.write_text(f"[augmentation]\n{line}\n\n[paths]\nout_dir = {tmp_path}/out\n")
    assert main(["augment", "--config", str(ini)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# training and inference commands
# ---------------------------------------------------------------------------


def test_train_commands_wrote_checkpoints(workspace):
    root, _ = workspace
    out = root / "out"
    assert (out / "seg.ckpt").is_file()
    assert (out / "roi.ckpt").is_file()
    assert (out / "age.ckpt").is_file()
    # the atlas is a constant of the code, written nowhere
    assert not (out / "atlas").exists()


@pytest.mark.parametrize("command", ["train-seg", "train-roi", "train-age"])
def test_zero_epochs_fails_before_training(workspace, tmp_path, capsys, command):
    _, ini = workspace
    out = tmp_path / "o"
    argv = [command, "--count", "4", "--epochs", "0", *_args(ini), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: epochs must be >= 1, got 0")
    assert not out.exists()


def test_segment_command(workspace, capsys):
    root, ini = workspace
    image = root / "out" / "phantoms" / "ph0000.pgm"
    assert main(["segment", str(image), *_args(ini)]) == 0
    out = capsys.readouterr().out
    assert "ph0000_mask.pgm" in out and "ph0000_bone.pgm" in out
    bone = load_image(root / "out" / "ph0000_bone.pgm")
    assert (bone.width, bone.height) == (720, 480)


def test_roi_command_prints_box_and_confidence(workspace, capsys):
    root, ini = workspace
    image = root / "out" / "phantoms" / "ph0001.pgm"
    assert main(["roi", str(image), *_args(ini)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    x, y, w, h, conf = (float(v) for v in line.split())
    assert w > 0 and h > 0
    assert x >= 0 and y >= 0
    assert x + w <= 720 and y + h <= 960
    assert 0.0 < conf < 1.0
    assert (root / "out" / "ph0001_roi.txt").read_text().strip() == line


def test_predict_command(workspace, capsys):
    root, ini = workspace
    image = root / "out" / "phantoms" / "ph0002.pgm"
    assert main(["predict", str(image), *_args(ini)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    fields = line.split()
    assert fields[0] == str(image)
    age = float(fields[1])
    assert 100.0 <= age <= 200.0
    assert 0 <= int(fields[2]) < 12
    assert 0.0 <= float(fields[3]) <= 1.0
    csv_text = (root / "out" / "predictions.csv").read_text().splitlines()
    assert csv_text[0] == "id,months"
    assert csv_text[1].startswith("ph0002,")


def test_predict_verbose_dumps_intermediates(workspace):
    root, ini = workspace
    image = root / "out" / "phantoms" / "ph0003.pgm"
    assert main(["predict", str(image), "--verbose", *_args(ini)]) == 0
    debug = root / "out" / "debug_ph0003"
    for name in ("mask.pgm", "bone.pgm", "prepared.pgm", "crop.pgm"):
        assert (debug / name).is_file()
    assert load_image(debug / "bone.pgm").width == 720
    prepared = load_image(debug / "prepared.pgm")
    assert (prepared.width, prepared.height) == (720, 960)


def test_predict_rejects_two_images_with_the_same_stem(workspace, tmp_path, capsys):
    # predictions.csv ids and debug_<id>/ dumps are file stems
    root, ini = workspace
    first = root / "out" / "phantoms" / "ph0000.pgm"
    second = tmp_path / "other" / "ph0000.pgm"
    second.parent.mkdir()
    second.write_bytes(first.read_bytes())
    out = tmp_path / "o"
    argv = ["predict", "--verbose", str(first), str(second), *_args(ini), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {first} and {second} share the id 'ph0000'\n"
    assert not out.exists()


def test_predict_refuses_a_non_ascii_image_stem_before_any_work(workspace, tmp_path, capsys):
    # the stem is the predictions.csv id, which is written as ASCII
    root, ini = workspace
    image = tmp_path / "\u00e9.pgm"
    image.write_bytes((root / "out" / "phantoms" / "ph0000.pgm").read_bytes())
    out = tmp_path / "o"
    assert main(["predict", str(image), *_args(ini), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {image}: its id '\u00e9' (the file stem) must be ASCII\n")
    assert not out.exists()


def test_failed_predict_leaves_no_predictions_csv(workspace, tmp_path, capsys):
    root, ini = workspace
    out = tmp_path / "o"
    out.mkdir()
    for name in ("seg.ckpt", "roi.ckpt", "age.ckpt"):
        (out / name).write_bytes((root / "out" / name).read_bytes())
    phantoms = root / "out" / "phantoms"
    argv = [*_args(ini), "--out", str(out)]
    assert main(["predict", str(phantoms / "ph0000.pgm"), str(phantoms / "ph0001.pgm"), *argv]) == 0
    rows = (out / "predictions.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["id", "ph0000", "ph0001"]
    capsys.readouterr()
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n2 2\n255\n")
    assert main(["predict", str(phantoms / "ph0002.pgm"), str(bad), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"{phantoms / 'ph0002.pgm'} ")
    assert captured.err == f"error: load: {bad}: PGM pixel data truncated (0 of 4 bytes)\n"
    assert not (out / "predictions.csv").exists()
    assert [p.name for p in out.iterdir() if p.suffix != ".ckpt"] == []


def test_predict_process_matches_main_in_process(workspace, tmp_path, capsys):
    root, ini = workspace
    image = root / "out" / "phantoms" / "ph0002.pgm"
    inproc = _checkpoint_dir(root, tmp_path / "inproc")
    frozen = gc.get_freeze_count()
    assert main(["predict", "--out", str(inproc), str(image), *_args(ini)]) == 0
    # only the process entry point freezes the collector's objects
    assert gc.get_freeze_count() == frozen
    proc = _checkpoint_dir(root, tmp_path / "proc")
    done = _python("-m", "boneage.cli", "predict", "--out", proc, image, *_args(ini))
    assert done.returncode == 0, done.stderr
    assert done.stdout == capsys.readouterr().out
    assert (proc / "predictions.csv").read_bytes() == (inproc / "predictions.csv").read_bytes()


def test_predict_process_refuses_a_localizer_checkpoint_as_age(workspace, tmp_path):
    root, ini = workspace
    out = _checkpoint_dir(root, tmp_path / "stale", age_from="roi.ckpt")
    image = root / "out" / "phantoms" / "ph0002.pgm"
    done = _python("-m", "boneage.cli", "predict", "--out", out, image, *_args(ini))
    assert done.returncode == 1
    assert done.stderr.startswith("error: age: ")
    assert not (out / "predictions.csv").exists()


def test_module_entry_freezes_the_collector_after_main():
    # `python -m boneage.cli selftest`, run where the freeze can be read
    script = (
        "import gc, runpy, sys\n"
        "sys.argv = ['boneage', 'selftest']\n"
        "try:\n"
        "    runpy.run_module('boneage.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count() > 0)\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 True"


def test_predict_without_checkpoints_fails_with_stage(workspace, tmp_path, capsys):
    _, ini = workspace
    img = tmp_path / "x.pgm"
    img.write_bytes(b"P5\n4 4\n255\n" + bytes(16))
    assert main(["predict", str(img), "--config", str(ini), "--out", str(tmp_path / "empty")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: segmentation: checkpoint missing")


@pytest.mark.parametrize("command", ["segment", "roi"])
def test_truncated_seg_checkpoint_fails_with_stage(workspace, tmp_path, capsys, command):
    root, ini = workspace
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("seg.ckpt", "roi.ckpt"):
        (bad / name).write_bytes((root / "out" / name).read_bytes())
    (bad / "seg.ckpt").write_bytes((root / "out" / "seg.ckpt").read_bytes()[:-4])
    img = root / "out" / "phantoms" / "ph0000.pgm"
    assert main([command, str(img), "--config", str(ini), "--out", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: segmentation: ")
    assert "truncated" in err


@pytest.mark.parametrize("command", ["segment", "roi"])
def test_truncated_image_fails_with_the_load_stage(workspace, tmp_path, capsys, command):
    # the same stage labels as predict's
    _, ini = workspace
    img = tmp_path / "bad.pgm"
    img.write_bytes(b"P5\n2 2\n255\n")
    assert main([command, str(img), *_args(ini)]) == 1
    assert capsys.readouterr().err == (
        f"error: load: {img}: PGM pixel data truncated (0 of 4 bytes)\n"
    )


def test_seed_override_changes_the_data(workspace, tmp_path):
    _, ini = workspace
    for seed, sub in (("11", "a"), ("12", "b")):
        assert main([
            "phantom", "--count", "2", "--config", str(ini),
            "--seed", seed, "--out", str(tmp_path / sub),
        ]) == 0
    a = (tmp_path / "a" / "phantoms" / "ph0000.pgm").read_bytes()
    b = (tmp_path / "b" / "phantoms" / "ph0000.pgm").read_bytes()
    assert a != b


def test_out_override_rebases_checkpoints(workspace, tmp_path, capsys):
    # artifacts land under --out, so a fresh directory has no checkpoints
    _, ini = workspace
    img = tmp_path / "x.pgm"
    img.write_bytes(b"P5\n4 4\n255\n" + bytes(16))
    assert main(["segment", str(img), "--config", str(ini), "--out", str(tmp_path / "fresh")]) == 1
    assert str(tmp_path / "fresh") in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval and selftest
# ---------------------------------------------------------------------------


def test_eval_command(workspace, tmp_path, capsys):
    _, ini = workspace
    pred = tmp_path / "pred.csv"
    pred.write_text("id,months\na,126\nb,150\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("id,months\nb,150\na,120\n")
    assert main([
        "eval", "--predictions", str(pred), "--labels", str(labels),
        "--config", str(ini), "--out", str(tmp_path / "o"),
    ]) == 0
    out = capsys.readouterr().out
    assert "cases: 2" in out
    assert "mae_months: 3.0000" in out
    report = (tmp_path / "o" / "report.csv").read_text().splitlines()
    assert report[0] == "case_id,expert_months,system_months,abs_error"
    assert report[1] == "a,120,126,6"


def test_eval_rejects_mismatched_ids(workspace, tmp_path, capsys):
    _, ini = workspace
    pred = tmp_path / "p.csv"
    pred.write_text("id,months\na,126\n")
    labels = tmp_path / "l.csv"
    labels.write_text("id,months\nzz,120\n")
    assert main([
        "eval", "--predictions", str(pred), "--labels", str(labels), "--config", str(ini),
    ]) == 1
    assert "id mismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "which, months, must",
    [("predictions", "nan", "finite"), ("labels", "inf", "finite"), ("predictions", "abc", "a number")],
    ids=["nan", "inf", "abc"],
)
def test_eval_rejects_non_finite_months(workspace, tmp_path, capsys, which, months, must):
    _, ini = workspace
    files = {}
    for name in ("predictions", "labels"):
        files[name] = tmp_path / f"{name}.csv"
        value = months if name == which else "120"
        files[name].write_text(f"id,months\na,126\nb,{value}\n")
    assert main([
        "eval", "--predictions", str(files["predictions"]), "--labels", str(files["labels"]),
        "--config", str(ini), "--out", str(tmp_path / "o"),
    ]) == 1
    assert capsys.readouterr().err == (
        f"error: {files[which]}:3: months must be {must}, got '{months}'\n"
    )
    assert not (tmp_path / "o" / "report.csv").exists()


@pytest.mark.parametrize(
    "labels, message",
    [
        ("id,months\na,120\n\u00e9,126\n".encode("utf-8"), "id must be ASCII, got '\u00e9'"),
        (b"id,months\na,120\n\xe9,126\n", "not UTF-8 text"),
    ],
    ids=["non-ascii-id", "not-utf8"],
)
def test_eval_refuses_ids_it_cannot_write_with_the_line(workspace, tmp_path, capsys, labels, message):
    _, ini = workspace
    pred, lab = tmp_path / "pred.csv", tmp_path / "labels.csv"
    pred.write_text("id,months\na,126\n")
    lab.write_bytes(labels)
    argv = ["eval", "--predictions", str(pred), "--labels", str(lab), *_args(ini), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {lab}:3: {message}\n")
    assert not (tmp_path / "o" / "report.csv").exists()


@pytest.mark.parametrize(
    "header", ["name,months", "id,age"], ids=["missing-id", "missing-months"]
)
def test_eval_rejects_csv_without_a_needed_column(workspace, tmp_path, capsys, header):
    _, ini = workspace
    pred = tmp_path / "pred.csv"
    pred.write_text(f"{header}\na,126\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("id,months\na,120\n")
    assert main([
        "eval", "--predictions", str(pred), "--labels", str(labels),
        "--config", str(ini), "--out", str(tmp_path / "o"),
    ]) == 1
    assert capsys.readouterr().err == f"error: {pred}: needs columns id,months\n"
    assert not (tmp_path / "o" / "report.csv").exists()


def test_failed_eval_leaves_no_report_csv(workspace, tmp_path, capsys):
    _, ini = workspace
    pred = tmp_path / "pred.csv"
    pred.write_text("id,months\na,126\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("id,months\na,120\n")
    out = tmp_path / "o"
    argv = ["eval", "--predictions", str(pred), "--config", str(ini), "--out", str(out)]
    assert main([*argv, "--labels", str(labels)]) == 0
    assert (out / "report.csv").is_file()
    capsys.readouterr()
    other = tmp_path / "other.csv"
    other.write_text("id,months\nzz,120\n")
    assert main([*argv, "--labels", str(other)]) == 1
    assert "id mismatch" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("command", ["phantom", "train-seg", "predict", "eval"])
def test_an_out_path_that_is_a_file_is_an_error_not_a_traceback(workspace, tmp_path, capsys, command):
    root, ini = workspace
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("id,months\na,120\n")
    extra = {
        "phantom": ["--count", "1"],
        "train-seg": ["--count", "4"],
        "predict": [str(root / "out" / "phantoms" / "ph0002.pgm")],
        "eval": ["--predictions", str(labels), "--labels", str(labels)],
    }[command]
    assert main([command, *extra, *_args(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert out.read_text() == "not a directory\n"


def test_percent_in_config_exits_with_error(tmp_path, capsys):
    ini = tmp_path / "f.ini"
    ini.write_text("[pipeline]\nseed = 5%\n")
    assert main(["selftest", "--config", str(ini)]) == 1
    assert capsys.readouterr().err.startswith("error: [pipeline] seed: cannot parse '5%'")


def test_negative_seed_flag_exits_with_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["phantom", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, line, message",
    [
        (["train-seg"], "seed = -2", "seed must be >= 0, got -2"),
        (["predict", "x.pgm"], "confidence_threshold = 7", "confidence_threshold must be in [0, 1], got 7.0"),
    ],
    ids=["seed", "confidence_threshold"],
)
def test_out_of_range_pipeline_setting_exits_with_error(tmp_path, capsys, argv, line, message):
    ini = tmp_path / "f.ini"
    ini.write_text(f"[pipeline]\n{line}\n\n[paths]\nout_dir = {tmp_path}/out\n")
    assert main([*argv, "--config", str(ini)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_train_roi_rejects_zero_channels_before_training(tmp_path, capsys):
    ini = tmp_path / "f.ini"
    ini.write_text(TINY_INI.replace("channels = 2,4", "channels = 0, -4", 1)
                   + f"\n[paths]\nout_dir = {tmp_path}/out\n")
    assert main(["train-roi", "--config", str(ini)]) == 1
    assert capsys.readouterr().err.startswith("error: backbone_channels must all be >= 1")
    assert not (tmp_path / "out" / "roi.ckpt").exists()


@pytest.mark.parametrize(
    "rate, message",
    [
        ("nan", "learning_rate must be finite in float32 and > 0, got nan"),
        ("inf", "learning_rate must be finite in float32 and > 0, got inf"),
        # finite, but not in float32: refused at load, before any step
        ("1e39", "learning_rate must be finite in float32 and > 0, got 1e+39"),
        # finite in float32, but the step overflows; one batch, so no later
        # loss sees the weights it leaves
        ("3.4e38", "seg training ended with NaN or inf in parameter 'enc0.conv1.w'"),
    ],
    ids=["nan", "inf", "1e39", "3.4e38"],
)
def test_train_refuses_a_learning_rate_that_leaves_non_finite_weights(tmp_path, capsys, rate, message):
    ini = tmp_path / "f.ini"
    ini.write_text(TINY_INI.replace("[segmentation]\n", f"[segmentation]\nlearning_rate = {rate}\n", 1)
                   + f"\n[paths]\nout_dir = {tmp_path}/out\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train-seg", "--count", "4", "--epochs", "1", "--config", str(ini)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "seg.ckpt").exists()
    if message.startswith("learning_rate"):  # a config error warns nothing
        assert [str(w.message) for w in caught] == []


def test_selftest_passes_on_the_bundled_table(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: PASS" in out
    assert "mae_months: 2.8000" in out
