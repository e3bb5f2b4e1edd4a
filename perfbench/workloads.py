"""The three workloads: warm predict, cold CLI predict, fixed-recipe training.

Each is a closed loop with one client: the next unit of work starts
only when the previous one has finished. Inputs are phantoms generated
from the workload seed; the program sees only those files and arrays.

A run spends its first part on set-up (repeated, so its median can be
reported) and the rest in the measured loop. An untraced run times the
speed reference (speedref.py) after each set-up and, between units of
work, every quarter second, and leaves that time out of its figures. A
traced run splits the loop: the first half untraced, for the overhead
reference, then traced.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from boneage import age_estimation, checkpoint, imaging, phantom, roi, segmentation
from boneage import pipeline as pl
from boneage.config import PhantomSettings, PipelineConfig, TrainSettings, load_config
from boneage.errors import BoneAgeError

import stats
from spawner import Spawner
from speedref import SpeedReference
from tracer import StepClock, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

N_IMAGES = 32  # distinct phantoms the predict loops cycle over
NEGATIVE_FRACTION = 0.2
MIN_UNITS = stats.min_samples_for(90.0)  # untraced runs: enough for p90
HARD_CAP_S = 120.0  # a run stops measuring by then even short of MIN_UNITS
CLI_TIMEOUT_S = 60.0
# Set-up runs this often per run and setup_s is the median. predict-cli's
# run is already the longest (100 CLI calls at least); train's set-up is
# short (tens of ms), so it repeats more.
SETUP_REPEATS = 5
CLI_SETUP_REPEATS = 3
TRAIN_SETUP_REPEATS = 21

# Fixed training recipe: small, no early stop, so the work per round is
# constant. The recipe's config keeps the program's default seed (0) for
# initialisation and shuffling; only the phantoms come from the workload
# seed. At this scale the nets learn little and unevenly. With 4 epochs
# some seeds stopped mid-way (seed 27: holdout dice 0.08, untrained 0.31);
# with 6, seeds 1-40 scored dice 0.69-0.94 and IoU 0.34-0.59. So the
# floors only catch gross breakage; falling losses and bit-identical
# repeats of the recipe guard the training itself.
TRAIN_COUNT = 16
HOLDOUT_COUNT = 32
EPOCHS = 6
BATCH = 4
SEG_LR, ROI_LR, AGE_LR = 3e-3, 4e-3, 2e-3
DICE_FLOOR = 0.2
IOU_FLOOR = 0.1
LOAD_CHECK_IMAGES = 2


@dataclass
class Outcome:
    """What one run measured; run.py turns it into metrics."""

    unit: str  # what one latency sample is
    latencies: List[float] = field(default_factory=list)  # seconds, untraced
    traced_latencies: List[float] = field(default_factory=list)
    busy_s: float = 0.0  # wall time of the untraced loop(s)
    items: float = 0.0  # images (or training images) handled in busy_s
    setup_s: List[float] = field(default_factory=list)
    reference_s: List[float] = field(default_factory=list)  # speed reference times (untraced runs)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    layer_units: int = 0  # units of work the per-layer metrics average over
    layer_n: Dict[str, int] = field(default_factory=dict)  # where a metric averages over set-ups
    spans: List[list] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def make_config(work: Path, seed: int) -> PipelineConfig:
    """Default config with every artifact under `work`, laid out the way
    ``boneage predict --out work`` expects it."""
    cfg = load_config(None)
    cfg.seed = seed
    cfg.out_dir = work
    cfg.seg_checkpoint = work / "seg.ckpt"
    cfg.roi_checkpoint = work / "roi.ckpt"
    cfg.age_checkpoint = work / "age.ckpt"
    cfg.atlas_manifest = work / "atlas" / "atlas.txt"
    return cfg


def rel(path: Path) -> str:
    return os.path.relpath(path, ROOT)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def repeat_setup(fn: Callable, repeats: int, out: Outcome, ref: Optional[SpeedReference]):
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        out.setup_s.append(time.perf_counter() - t0)
        if ref is not None:
            ref.sample()
    return result


def speed_reference(trace: bool) -> Optional[SpeedReference]:
    """Untraced runs time the speed reference between units; traced runs
    report raw times only."""
    return None if trace else SpeedReference()


def record_problem(rec, atlas, threshold: float) -> Optional[str]:
    """Why a prediction record is invalid, or None."""
    lo = atlas.min_age - atlas.age_step
    hi = atlas.max_age + atlas.age_step
    if not (math.isfinite(rec.age_months) and lo <= rec.age_months <= hi):
        return f"{rec.image_path}: age {rec.age_months} outside [{lo}, {hi}]"
    if not 0 <= rec.nearest_class < 12:
        return f"{rec.image_path}: class {rec.nearest_class} outside [0, 12)"
    if not (math.isfinite(rec.confidence) and 0.0 <= rec.confidence <= 1.0):
        return f"{rec.image_path}: confidence {rec.confidence} outside [0, 1]"
    if rec.low_confidence != (rec.confidence < threshold):
        return f"{rec.image_path}: low_confidence flag disagrees with confidence"
    return None


class Deadline:
    def __init__(self, start: float, min_units: int):
        self.start, self.min_units = start, min_units

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def done(self, units: int, until: float, next_cost: float = 0.0) -> bool:
        """True once `until` seconds (from the run start) are used up and
        the unit count is reached, or at the hard cap."""
        e = self.elapsed()
        if e >= HARD_CAP_S:
            return True
        return e + next_cost >= until and units >= self.min_units


# ---------------------------------------------------------------------------
# predict and predict-cli share their set-up
# ---------------------------------------------------------------------------

def predict_setup(work: Path, seed: int, load: bool):
    """Phantom PGMs, seeded weights written as checkpoints, the phantom
    atlas, and (for in-process use) the loaded pipeline."""
    cfg = make_config(work, seed)
    images = work / "images"
    images.mkdir(parents=True, exist_ok=True)
    samples = phantom.generate_dataset(
        N_IMAGES,
        seed=seed,
        negative_fraction=NEGATIVE_FRACTION,
        image_size=cfg.phantom.image_size,
        noise_level=cfg.phantom.noise_level,
    )
    paths = []
    for i, s in enumerate(samples):
        p = images / f"ph{i:04d}.pgm"
        imaging.save_image(s.image, p)
        paths.append(rel(p))
    checkpoint.save_checkpoint(cfg.seg_checkpoint, segmentation.build_unet(cfg.unet, seed=seed).params)
    checkpoint.save_checkpoint(cfg.roi_checkpoint, roi.build_rpn(cfg.rpn, seed=seed).params)
    checkpoint.save_checkpoint(cfg.age_checkpoint, age_estimation.build_age_model(cfg.age, seed=seed).params)
    age_estimation.save_atlas(pl.build_phantom_atlas(cfg), cfg.atlas_manifest)
    pipe = pl.Pipeline.load(cfg) if load else None
    return cfg, paths, pipe


def run_predict(seed: int, seconds: float, trace: bool, work: Path, tracer: Tracer) -> Outcome:
    out = Outcome(unit="image")
    clock = Deadline(time.perf_counter(), 0 if trace else MIN_UNITS)
    ref = speed_reference(trace)
    if trace:
        tracer.install()
    cfg, paths, pipe = repeat_setup(lambda: predict_setup(work, seed, load=True), SETUP_REPEATS, out, ref)
    if trace:
        tracer.uninstall()
    threshold = cfg.confidence_threshold
    first: Dict[str, str] = {}
    low = 0

    for path in paths[:2]:  # warm-up, not counted
        pipe.predict_path(path)

    def loop(until: float, lat: List[float]) -> float:
        nonlocal low
        t_loop = time.perf_counter()
        paused = 0.0
        i = 0
        while not clock.done(len(lat), until):
            if ref is not None:
                paused += ref.tick()
            path = paths[i % len(paths)]
            i += 1
            tracer.unit = path
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                rec = pipe.predict_path(path)
            except Exception as exc:  # counted as a failed operation
                out.fail(f"{path}: {type(exc).__name__}: {exc}")
                continue
            lat.append(time.perf_counter() - t0)
            problem = record_problem(rec, pipe.atlas, threshold)
            line = rec.format_line()
            if problem is None and first.setdefault(path, line) != line:
                problem = f"{path}: re-prediction differs: {line!r} vs {first[path]!r}"
            if problem:
                out.fail(problem)
            low += rec.low_confidence
        return time.perf_counter() - t_loop - paused

    if trace:
        out.busy_s = loop(seconds / 2.0, out.latencies)
        out.items = len(out.latencies)
        tracer.install()
        tracer.phase = "measure"
        loop(seconds, out.traced_latencies)
        tracer.uninstall()
    else:
        out.busy_s = loop(seconds, out.latencies)
        out.items = len(out.latencies)

    for path in paths[:4]:  # re-predict the first images once more
        line = pipe.predict_path(path).format_line()
        if path in first and line != first[path]:
            out.fail(f"{path}: re-prediction differs: {line!r} vs {first[path]!r}")
    out.extra["low_confidence_share"] = low / max(1, len(out.latencies) + len(out.traced_latencies))
    if ref is not None:
        out.reference_s = ref.samples
    out.peak_rss_mb = peak_rss_mb(resource.RUSAGE_SELF)
    if trace:
        units = len(out.traced_latencies)
        prof = Profile.from_tracer(tracer)
        out.layers = prof.layer_metrics(units, setups=len(out.setup_s))
        out.layer_units, out.layer_n = units, prof.divisors
        root = prof.measure.get("pipeline.Pipeline.predict_path", {"incl": 0.0, "self": 0.0})
        out.layers["trace.unit_ms"] = 1e3 * root["incl"] / units
        out.layers["trace.glue_ms"] = 1e3 * root["self"] / units
        out.extra["trace_accounted_ms"] = out.layers["trace.glue_ms"] + sum(
            out.layers[f"{name}_self_ms" if name in SELF_REPORTED else f"{name}_ms"]
            for name in PREDICT_PATH
        ) + sum(out.layers[f"tensor.{g}_fwd_ms"] for g in TENSOR_GROUPS)
        out.spans = prof.spans
    return out


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_predict_cli(seed: int, seconds: float, trace: bool, work: Path, tracer: Tracer) -> Outcome:
    out = Outcome(unit="image")
    clock = Deadline(time.perf_counter(), 0 if trace else MIN_UNITS)
    ref = speed_reference(trace)
    if trace:
        tracer.install()
    cfg, paths, _ = repeat_setup(lambda: predict_setup(work, seed, load=False), CLI_SETUP_REPEATS, out, ref)
    if trace:
        tracer.uninstall()
    env = child_env()
    csv_path = work / "predictions.csv"
    seen: List[Tuple[str, str, List[str]]] = []  # path, stdout line, csv row
    child_json = work / "child.json"
    prof = Profile.from_tracer(tracer)
    child_wall = child_import = child_main = 0.0
    calls_traced = 0

    def call(path: str, traced: bool) -> Optional[float]:
        if traced:
            cmd = [sys.executable, rel(BENCH_DIR / "cli_child.py"), rel(child_json)]
        else:
            cmd = [sys.executable, "-m", "boneage.cli"]
        cmd += ["predict", "--out", rel(work), path]
        out.attempted += 1
        proc = spawner.run(cmd, cwd=str(ROOT), env=env, timeout=CLI_TIMEOUT_S)
        if proc["timed_out"]:
            out.fail(f"{path}: CLI did not finish in {CLI_TIMEOUT_S:.0f}s")
            return None
        if proc["returncode"] != 0:
            out.fail(f"{path}: CLI exit {proc['returncode']}: {proc['stderr'].strip()[-300:]}")
            return None
        try:
            with csv_path.open(newline="", encoding="ascii") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            out.fail(f"{path}: cannot read predictions.csv: {exc}")
            return None
        if len(rows) != 2 or rows[0] != ["id", "months"]:
            out.fail(f"{path}: predictions.csv holds {rows!r}")
            return None
        seen.append((path, proc["stdout"].strip(), rows[1]))
        return proc["wall_s"]

    spawner = Spawner(cwd=str(ROOT))

    def loop(until: float, lat: List[float], traced: bool) -> float:
        nonlocal child_wall, child_import, child_main, calls_traced
        t_loop = time.perf_counter()
        paused = 0.0
        i = 0
        while not clock.done(len(lat), until):
            if ref is not None:
                paused += ref.tick()
            path = paths[i % len(paths)]
            i += 1
            wall = call(path, traced)
            if wall is None:
                continue
            lat.append(wall)
            if traced:
                child = prof.add_child(child_json, unit=path)
                calls_traced += 1
                child_wall += wall
                child_import += child["import_s"]
                child_main += child["main_s"]
        return time.perf_counter() - t_loop - paused

    try:
        call(paths[0], False)  # warm-up (page cache, .pyc), not timed
        if trace:
            out.busy_s = loop(seconds / 2.0, out.latencies, False)
            loop(seconds, out.traced_latencies, True)
        else:
            out.busy_s = loop(seconds, out.latencies, False)
    finally:
        peak = spawner.close()
    out.items = len(out.latencies)
    if peak is None:
        out.fail("the process spawning the CLI children ended early")
    out.peak_rss_mb = peak or 0.0  # the largest child
    if ref is not None:
        out.reference_s = ref.samples

    # In-process reference records for every image the CLI saw.
    pipe = pl.Pipeline.load(cfg)
    expected = {p: pipe.predict_path(p) for p in sorted({p for p, _, _ in seen})}
    for path, line, row in seen:
        rec = expected[path]
        problem = record_problem(rec, pipe.atlas, cfg.confidence_threshold)
        if problem is None and line != rec.format_line():
            problem = f"{path}: CLI printed {line!r}, in-process {rec.format_line()!r}"
        if problem is None and (row[0] != Path(path).stem or float(row[1]) != rec.age_months):
            problem = f"{path}: predictions.csv row {row!r}, in-process age {rec.age_months!r}"
        if problem:
            out.fail(problem)

    if trace and calls_traced:
        out.layers = prof.layer_metrics(calls_traced, setups=len(out.setup_s))
        out.layer_units, out.layer_n = calls_traced, prof.divisors
        out.layers["cli.import_ms"] = 1e3 * child_import / calls_traced
        out.layers["cli.main_ms"] = 1e3 * child_main / calls_traced
        out.layers["trace.unit_ms"] = 1e3 * child_wall / calls_traced
        out.layers["trace.glue_ms"] = 1e3 * (child_wall - child_import - child_main) / calls_traced
        out.spans = prof.spans
    return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

STAGES = (
    ("segmentation", "pipeline.train_segmentation_stage"),
    ("roi", "pipeline.train_roi_stage"),
    ("age_estimation", "pipeline.train_age_stage"),
)


def train_setup(work: Path, seed: int):
    """Training phantoms, holdout phantoms as PGMs, and the holdout's truth
    masks and boxes."""
    data_cfg = make_config(work, seed)
    data_cfg.phantom = PhantomSettings(
        train_count=TRAIN_COUNT, holdout_count=HOLDOUT_COUNT, negative_fraction=NEGATIVE_FRACTION
    )
    cfg = replace(
        data_cfg,
        seed=0,
        seg_train=TrainSettings(epochs=EPOCHS, learning_rate=SEG_LR, batch_size=BATCH),
        roi_train=TrainSettings(epochs=EPOCHS, learning_rate=ROI_LR, batch_size=BATCH),
        age_train=TrainSettings(epochs=EPOCHS, learning_rate=AGE_LR, batch_size=BATCH),
    )
    samples = pl.training_phantoms(data_cfg)
    holdout = pl.holdout_phantoms(data_cfg)
    images = work / "holdout"
    images.mkdir(parents=True, exist_ok=True)
    truth = []
    for i, s in enumerate(holdout):
        p = images / f"ho{i:04d}.pgm"
        imaging.save_image(s.image, p)
        mask = imaging.resize_bilinear(s.bone_mask, cfg.unet.width, cfg.unet.height)
        raw = s.roi.scaled(roi.RAW_WIDTH / s.image.width, roi.RAW_HEIGHT / s.image.height)
        truth.append((s, rel(p), mask, roi.transform_box_to_prepared(raw)))
    return cfg, samples, truth


def _file_digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def train_round(cfg, samples, clock: StepClock) -> Tuple[Dict[str, float], tuple, List[List[float]]]:
    """The fixed recipe once; returns stage seconds (speed reference
    excluded), trained models, loss histories."""
    t1 = clock.now()
    clock.start("segmentation")
    seg, h_seg = pl.train_segmentation_stage(cfg, samples, log_fn=clock.log_fn)
    t2 = clock.now()
    clock.start("roi")
    roi_m, h_roi = pl.train_roi_stage(cfg, samples, log_fn=clock.log_fn)
    t3 = clock.now()
    clock.start("age_estimation")
    age_m, atlas, h_age = pl.train_age_stage(cfg, samples, log_fn=clock.log_fn, seg_model=seg)
    t4 = clock.now()
    t = {
        "train_seg_s": t2 - t1,
        "train_roi_s": t3 - t2,
        "train_age_s": t4 - t3,
        "recipe_s": t4 - t1,
    }
    n_pos = sum(s.is_true for s in samples)
    t["training_images"] = float(EPOCHS * (2 * len(samples) + n_pos))
    return t, (seg, roi_m, age_m, atlas), [h_seg, h_roi, h_age]


def score_round(cfg, truth, models, out: Outcome) -> Dict[str, float]:
    """Holdout dice and IoU, and the checkpoint round trip through Pipeline.load."""
    seg, roi_m, age_m, atlas = models
    dices, ious = [], []
    for s, _, mask_truth, box_truth in truth:
        mask, bone = segmentation.segment(seg, s.image)
        dices.append(segmentation.dice_score(mask, mask_truth, threshold=cfg.unet.threshold))
        if s.is_true:
            box, _ = roi.predict_roi(roi_m, roi.prepare_roi_input(bone))
            ious.append(roi.iou(box, box_truth))
    dice = sum(dices) / len(dices)
    iou = sum(ious) / len(ious)
    if not dice >= DICE_FLOOR:
        out.fail(f"holdout dice {dice:.4f} below floor {DICE_FLOOR}")
    if not iou >= IOU_FLOOR:
        out.fail(f"holdout IoU {iou:.4f} below floor {IOU_FLOOR}")
    try:
        loaded = pl.Pipeline.load(cfg)
    except BoneAgeError as exc:
        out.fail(f"written checkpoints do not load: {exc}")
        return {"holdout_dice": dice, "holdout_iou": iou}
    in_memory = pl.Pipeline(cfg, seg, roi_m, age_m, atlas)
    for _, path, _, _ in truth[:LOAD_CHECK_IMAGES]:
        rec = loaded.predict_path(path)
        problem = record_problem(rec, loaded.atlas, cfg.confidence_threshold)
        ref = in_memory.predict_path(path).format_line()
        if problem is None and rec.format_line() != ref:
            problem = f"{path}: loaded pipeline says {rec.format_line()!r}, trained models {ref!r}"
        if problem:
            out.fail(problem)
    return {"holdout_dice": dice, "holdout_iou": iou}


def run_train(seed: int, seconds: float, trace: bool, work: Path, tracer: Tracer) -> Outcome:
    out = Outcome(unit="training step")
    deadline = Deadline(time.perf_counter(), 0 if trace else MIN_UNITS)
    ref = speed_reference(trace)
    if trace:
        tracer.install()
    cfg, samples, truth = repeat_setup(lambda: train_setup(work, seed), TRAIN_SETUP_REPEATS, out, ref)
    if trace:
        tracer.uninstall()
    clock = StepClock(flop_counter=tracer.conv_flops_total, between=ref.tick if ref is not None else None)
    clock.install()
    reference = None  # round 0's loss histories and checkpoint digest
    stage_s: Dict[str, List[float]] = {}
    traced_rounds: List[Dict[str, float]] = []
    longest = 0.0

    def one_round(traced: bool) -> None:
        nonlocal reference, longest
        out.attempted += 1
        n_steps = len(clock.steps)
        tracer.unit = f"round{out.attempted - 1}"
        if traced:
            tracer.install()
            tracer.phase = "measure"
        try:
            times, models, histories = train_round(cfg, samples, clock)
        except Exception as exc:  # counted as a failed operation
            out.fail(f"round {out.attempted - 1}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return
        finally:
            if traced:
                tracer.uninstall()
        steps = [t1 - t0 for _, _, t0, t1, _ in clock.steps[n_steps:]]
        if traced:
            out.traced_latencies.extend(steps)
            traced_rounds.append(times)
        else:
            out.latencies.extend(steps)
            out.busy_s += times["recipe_s"]
            out.items += times["training_images"]
            for k, v in times.items():
                stage_s.setdefault(k, []).append(v)
        if not all(math.isfinite(v) for h in histories for v in h):
            out.fail(f"round {out.attempted - 1}: non-finite loss in {histories!r}")
        for (stage, _), h in zip(STAGES, histories):
            if not h[-1] < h[0]:
                out.fail(f"round {out.attempted - 1}: {stage} loss did not fall: {h!r}")
        digest = _file_digest(cfg.seg_checkpoint, cfg.roi_checkpoint, cfg.age_checkpoint)
        if reference is None:
            out.extra.update(score_round(cfg, truth, models, out))
            reference = (histories, digest)
        elif (histories, digest) != reference:
            out.fail(f"round {out.attempted - 1}: training is not repeatable for a fixed seed")
        longest = max(longest, times["recipe_s"])

    if trace:
        one_round(False)
        while not deadline.done(0, seconds / 2.0, longest):
            one_round(False)
        one_round(True)
        while not deadline.done(0, seconds, longest):
            one_round(True)
    else:
        one_round(False)
        while not deadline.done(len(out.latencies), seconds, longest):
            one_round(False)
    clock.uninstall()
    for k, v in stage_s.items():
        out.extra[k] = stats.median(v)
    out.extra["rounds"] = float(len(stage_s.get("recipe_s", [])))
    if ref is not None:
        out.reference_s = ref.samples
    out.peak_rss_mb = peak_rss_mb(resource.RUSAGE_SELF)
    if trace and traced_rounds:
        n = len(traced_rounds)
        prof = Profile.from_tracer(tracer)
        out.layers = prof.layer_metrics(n, setups=len(out.setup_s))
        out.layer_units, out.layer_n = n, prof.divisors
        for stage, span in STAGES:
            epochs = clock.epochs(stage)
            # untraced rounds logged epochs too; keep the traced ones
            epochs = epochs[-EPOCHS * n:]
            out.layers[f"{stage}.epoch_s"] = stats.median([e[0] for e in epochs])
            out.layers[f"{stage}.epoch_conv2d_gflop"] = stats.median([e[1] for e in epochs]) / 1e9
            out.layers[f"{span}_s"] = prof.measure.get(span, {"incl": 0.0})["incl"] / n
        recipe = sum(r["recipe_s"] for r in traced_rounds)
        covered = sum(prof.measure.get(span, {"incl": 0.0})["incl"] for _, span in STAGES)
        out.layers["trace.unit_ms"] = 1e3 * recipe / n
        out.layers["trace.glue_ms"] = 1e3 * (recipe - covered) / n
        out.spans = prof.spans
    return out


# ---------------------------------------------------------------------------
# span totals -> per-layer metrics
# ---------------------------------------------------------------------------

# Functions whose own (self) time is reported beside their inclusive time:
# on predict, these self times plus the leaves' times and the glue add up
# to the traced per-image latency.
SELF_REPORTED = [
    "segmentation.segment",
    "segmentation.unet_forward",
    "roi.prepare_roi_input",
    "roi.predict_roi",
    "roi.rpn_forward",
    "roi.crop_roi",
    "age_estimation.estimate_age",
    "age_estimation.age_forward",
    "tensor.Tape.backward",
]

# Every traced function a predict_path call reaches, besides the tensor ops.
PREDICT_PATH = [
    "imaging.load_image",
    "imaging.resize_bilinear",
    "imaging.rotate",
    "segmentation.segment",
    "segmentation.unet_forward",
    "roi.prepare_roi_input",
    "roi.predict_roi",
    "roi.rpn_forward",
    "roi.crop_roi",
    "age_estimation.estimate_age",
    "age_estimation.age_forward",
]

TIMED = PREDICT_PATH + [
    "tensor.Tape.backward",
    "optim.optimizer_step",
    "pipeline.roi_data",
    "pipeline.age_data_deployed",
    "pipeline.build_phantom_atlas",
    "pipeline.Pipeline.load",
    "checkpoint.load_checkpoint",
    "checkpoint.save_checkpoint",
    "phantom.generate_dataset",
]

TENSOR_GROUPS = ["conv2d", "max_pool2d", "upsample2x", "concat_channels", "dense", "loss", "elementwise"]


class Profile:
    """Span totals of the set-up and measured phases, plus work counts,
    merged over this process and any traced children."""

    def __init__(self, measure, setup, counts_measure, counts_setup, spans):
        self.measure = measure
        self.setup = setup
        self.counts_measure = counts_measure
        self.counts_setup = counts_setup
        self.spans = spans
        self.divisors: Dict[str, int] = {}

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "Profile":
        return cls(
            tracer.totals("measure"),
            tracer.totals("setup"),
            dict(tracer.counts["measure"]),
            dict(tracer.counts["setup"]),
            list(tracer.spans),
        )

    def add_child(self, path: Path, unit: str) -> dict:
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        for name, t in child["totals"].items():
            mine = self.measure.setdefault(name, {"incl": 0.0, "self": 0.0, "calls": 0})
            for k in mine:
                mine[k] += t[k]
        for k, v in child["counts"].items():
            self.counts_measure[k] = self.counts_measure.get(k, 0.0) + v
        offset = len(self.spans)
        for name, start, end, parent, _, _ in child["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, unit, "child"])
        return child

    def _pick(self, name: str, units: int, setups: int):
        """(totals, divisor): the measured phase per unit of work, or the
        set-up per set-up when the function ran only there."""
        if name in self.measure:
            return self.measure[name], units
        if name in self.setup:
            return self.setup[name], setups
        return {"incl": 0.0, "self": 0.0, "calls": 0}, 1

    def layer_metrics(self, units: int, setups: int) -> Dict[str, float]:
        m: Dict[str, float] = {}
        for name in TIMED:
            t, div = self._pick(name, units, setups)
            m[f"{name}_ms"] = 1e3 * t["incl"] / div
            if name in SELF_REPORTED:
                m[f"{name}_self_ms"] = 1e3 * t["self"] / div
            if name in self.setup and name not in self.measure:
                self.divisors[f"{name}_ms"] = setups
        t, div = self._pick("imaging.resize_bilinear", units, setups)
        counts = self.counts_measure if "imaging.resize_bilinear" in self.measure else self.counts_setup
        m["imaging.resize_bilinear_calls"] = t["calls"] / div
        m["imaging.resize_bilinear_mpix"] = counts.get("resize_bilinear_mpix", 0.0) / div
        conv_s = 0.0
        for group in TENSOR_GROUPS:
            for way in ("fwd", "bwd"):
                t = self.measure.get(f"tensor.{group}_{way}", {"incl": 0.0})
                m[f"tensor.{group}_{way}_ms"] = 1e3 * t["incl"] / units
                if group == "conv2d":
                    conv_s += t["incl"]
        flops = self.counts_measure.get("conv2d_fwd_flop", 0.0) + self.counts_measure.get("conv2d_bwd_flop", 0.0)
        m["tensor.conv2d_gflop"] = flops / units / 1e9
        m["tensor.conv2d_gflop_per_s"] = flops / conv_s / 1e9 if conv_s else 0.0
        for _, span in STAGES:
            m[f"{span}_s"] = 0.0
        for stage, _ in STAGES:
            m[f"{stage}.epoch_s"] = 0.0
            m[f"{stage}.epoch_conv2d_gflop"] = 0.0
        m["cli.import_ms"] = 0.0
        m["cli.main_ms"] = 0.0
        return m


WORKLOADS = {
    "predict": run_predict,
    "predict-cli": run_predict_cli,
    "train": run_train,
}
