"""Spans and work counts recorded around calls into the program's modules.

Nothing under ``src/`` knows about this: each traced function is
replaced, in every ``boneage`` module that binds it, by a wrapper that
records a span (name, start, end, parent, unit of work, phase). Backward
passes are timed by wrapping the ``backward_fn`` that ``Tape.record``
receives. Spans stay in memory and are written once, at the end.

``StepClock`` is lighter and also runs untraced: it timestamps the
minibatches the three training loops draw, which is how a training step
is timed from outside.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from stats import self_times

# (module, attribute, span name). Methods are given as "Class.method".
TRACED = [
    ("boneage.imaging", "load_image", "imaging.load_image"),
    ("boneage.imaging", "resize_bilinear", "imaging.resize_bilinear"),
    ("boneage.imaging", "rotate", "imaging.rotate"),
    ("boneage.phantom", "generate_dataset", "phantom.generate_dataset"),
    ("boneage.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("boneage.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("boneage.segmentation", "segment", "segmentation.segment"),
    ("boneage.segmentation", "unet_forward", "segmentation.unet_forward"),
    ("boneage.roi", "prepare_roi_input", "roi.prepare_roi_input"),
    ("boneage.roi", "predict_roi", "roi.predict_roi"),
    ("boneage.roi", "rpn_forward", "roi.rpn_forward"),
    ("boneage.roi", "crop_roi", "roi.crop_roi"),
    ("boneage.age_estimation", "estimate_age", "age_estimation.estimate_age"),
    ("boneage.age_estimation", "age_forward", "age_estimation.age_forward"),
    ("boneage.optim", "optimizer_step", "optim.optimizer_step"),
    ("boneage.pipeline", "roi_data", "pipeline.roi_data"),
    ("boneage.pipeline", "age_data_deployed", "pipeline.age_data_deployed"),
    ("boneage.pipeline", "build_phantom_atlas", "pipeline.build_phantom_atlas"),
    ("boneage.pipeline", "train_segmentation_stage", "pipeline.train_segmentation_stage"),
    ("boneage.pipeline", "train_roi_stage", "pipeline.train_roi_stage"),
    ("boneage.pipeline", "train_age_stage", "pipeline.train_age_stage"),
    ("boneage.pipeline", "Pipeline.load", "pipeline.Pipeline.load"),
    ("boneage.pipeline", "Pipeline.predict_path", "pipeline.Pipeline.predict_path"),
    ("boneage.tensor", "Tape.backward", "tensor.Tape.backward"),
]

# Forward tensor ops, grouped the way the per-layer metrics name them.
TENSOR_OPS = {
    "conv2d": "conv2d",
    "max_pool2d": "max_pool2d",
    "upsample2x": "upsample2x",
    "concat_channels": "concat_channels",
    "dense": "dense",
    "loss": "loss",
    "softmax_cross_entropy": "loss",
    "relu": "elementwise",
    "sigmoid": "elementwise",
    "flatten": "elementwise",
    "add": "elementwise",
    "scale": "elementwise",
    "select_rows": "elementwise",
}

# Backward closures are named after the function that defined them.
_BWD_OWNER = dict(TENSOR_OPS, _mse="loss", _bce="loss", _dice="loss", _smooth_l1="loss")


def conv2d_flops(x_shape, k_shape, out_shape) -> int:
    """Multiply-adds of one conv2d forward, times two; computed from shapes."""
    n, f, ho, wo = out_shape
    _, c, kh, kw = k_shape
    return 2 * n * f * ho * wo * c * kh * kw


class _Patcher:
    """Rebinds a function in every loaded boneage module, and undoes it."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, orig, new) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "boneage" or name.startswith("boneage.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def replace_attr(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


class Tracer:
    """In-memory spans plus shape-derived work counts, grouped by phase.

    ``phase`` is "setup" or "measure"; ``unit`` identifies the unit of
    work (an image, a training round) the spans belong to.
    """

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, unit, phase]
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self.unit: Optional[str] = None
        self._stack: List[int] = []
        self._patcher = _Patcher()

    # -- recording ------------------------------------------------------
    def count(self, key: str, value: float) -> None:
        self.counts[self.phase][key] += value

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.unit, tracer.phase]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def conv_flops_total(self) -> float:
        c = self.counts[self.phase]
        return c["conv2d_fwd_flop"] + c["conv2d_bwd_flop"]

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        import boneage.cli  # noqa: F401  (loads every module that binds a traced name)
        from boneage import tensor

        for mod_name, attr, span_name in TRACED:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._patcher.replace_attr(cls, meth, classmethod(self.wrap(span_name, raw.__func__)))
                else:
                    self._patcher.replace_attr(cls, meth, self.wrap(span_name, raw))
                continue
            orig = getattr(mod, attr)
            after = self._count_resize if attr == "resize_bilinear" else None
            self._patcher.replace(orig, self.wrap(span_name, orig, after))

        for op, group in TENSOR_OPS.items():
            orig = getattr(tensor, op)
            after = self._count_conv_fwd if op == "conv2d" else None
            self._patcher.replace(orig, self.wrap(f"tensor.{group}_fwd", orig, after))

        orig_record = tensor.Tape.__dict__["record"]
        tracer = self

        def record(tape, out, inputs, backward_fn):
            owner = backward_fn.__qualname__.split(".")[0]
            group = _BWD_OWNER.get(owner, "elementwise")
            after = None
            if group == "conv2d":
                flops = 2 * conv2d_flops(inputs[0].shape, inputs[1].shape, out.shape)
                after = lambda args, res: tracer.count("conv2d_bwd_flop", flops)  # noqa: E731
            return orig_record(tape, out, inputs, tracer.wrap(f"tensor.{group}_bwd", backward_fn, after))

        self._patcher.replace_attr(tensor.Tape, "record", record)

    def uninstall(self) -> None:
        self._patcher.undo()

    def _count_resize(self, args, out) -> None:
        self.count("resize_bilinear_mpix", out.width * out.height / 1e6)

    def _count_conv_fwd(self, args, out) -> None:
        self.count("conv2d_fwd_flop", conv2d_flops(args[0].shape, args[1].shape, out.shape))

    # -- results --------------------------------------------------------
    def totals(self, phase: str) -> Dict[str, Dict[str, float]]:
        """name -> {"incl", "self", "calls"} summed over one phase, in seconds."""
        selfs = self_times([(s[0], s[1], s[2], s[3]) for s in self.spans])
        out: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, selfs):
            if span[5] != phase:
                continue
            t = out.setdefault(span[0], {"incl": 0.0, "self": 0.0, "calls": 0})
            t["incl"] += span[2] - span[1]
            t["self"] += own
            t["calls"] += 1
        return out


class StepClock:
    """Times each training step: from the minibatch being drawn until the
    loop asks for the next one (forward, backward and update). `between`
    runs after each step, outside it; `now` is a clock that leaves out the
    time spent there."""

    def __init__(
        self,
        flop_counter: Callable[[], float] = lambda: 0.0,
        between: Optional[Callable[[], float]] = None,
    ):
        self.stage = ""
        self._fit = 0
        self.steps: List[Tuple[int, str, float, float, float]] = []  # fit, stage, t0, t1, flops
        self.epoch_ends: List[Tuple[int, str, float]] = []
        self._flop_counter = flop_counter
        self._between = between  # runs after each step; returns seconds it took
        self.paused_s = 0.0  # total time spent in `between`
        self._patcher = _Patcher()

    def install(self) -> None:
        import boneage.cli  # noqa: F401
        from boneage import nn

        orig = nn.minibatches
        clock = self

        @functools.wraps(orig)
        def minibatches(n, batch_size, rng):
            for idx in orig(n, batch_size, rng):
                f0 = clock._flop_counter()
                t0 = time.perf_counter()
                yield idx
                t1 = time.perf_counter()
                clock.steps.append((clock._fit, clock.stage, t0, t1, clock._flop_counter() - f0))
                if clock._between is not None:
                    clock.paused_s += clock._between()

        self._patcher.replace(orig, minibatches)

    def uninstall(self) -> None:
        self._patcher.undo()

    def now(self) -> float:
        """perf_counter() minus the time spent between steps in `between`."""
        return time.perf_counter() - self.paused_s

    def start(self, stage: str) -> None:
        """Mark the start of one stage's fit; its steps and epochs carry the name."""
        self.stage = stage
        self._fit += 1

    def log_fn(self, msg: str) -> None:
        """Passed as the stages' ``log_fn``: marks the end of an epoch."""
        self.epoch_ends.append((self._fit, self.stage, time.perf_counter()))

    def epochs(self, stage: str) -> List[Tuple[float, float]]:
        """(seconds, flops) per epoch of one stage, from the log_fn timestamps.
        The first epoch of each fit starts at that fit's first step."""
        out = []
        fits = sorted({fit for fit, st, _ in self.epoch_ends if st == stage})
        for fit in fits:
            steps = [s for s in self.steps if s[0] == fit]
            start = steps[0][2] if steps else None
            for _, _, end in (e for e in self.epoch_ends if e[0] == fit):
                if start is None:
                    start = end
                flops = sum(s[4] for s in steps if s[2] >= start and s[3] <= end)
                out.append((end - start, flops))
                start = end
        return out
