"""CLI subcommands driven through main(argv) with a miniature config.

The networks here are deliberately tiny and trained for one epoch:
these tests exercise plumbing (flags, files, exit codes, formats),
not model quality.
"""

import re

import numpy as np
import pytest

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
    "which, months", [("predictions", "nan"), ("labels", "inf")], ids=["nan", "inf"]
)
def test_eval_rejects_non_finite_months(workspace, tmp_path, capsys, which, months):
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
        f"error: {files[which]}:3: months must be finite, got '{months}'\n"
    )
    assert not (tmp_path / "o" / "report.csv").exists()


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


def test_selftest_passes_on_the_bundled_table(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: PASS" in out
    assert "mae_months: 2.8000" in out
