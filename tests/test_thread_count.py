"""Training bits do not depend on the BLAS thread count.

Each check runs the same work in two fresh interpreters, one with
OPENBLAS_NUM_THREADS=1 and one with 2, and compares the results byte
for byte: the three nets' outputs and parameter gradients at N = 1, 4
and 8, and the checkpoints a short ``train-seg``/``train-roi``/
``train-age`` writes. On a one-CPU machine OpenBLAS runs one thread
either way and the checks hold trivially.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import boneage

# prints {"net/N/array": sha256} for every output and parameter gradient
# of one forward and backward per net and batch size
_GRADS_CHILD = """
import hashlib, json
import numpy as np
from boneage import tensor as T
from boneage.age_estimation import age_forward, build_age_model
from boneage.config import PipelineConfig
from boneage.roi import build_rpn, rpn_forward
from boneage.segmentation import build_unet, unet_forward

cfg = PipelineConfig()
digests = {}
for net, build, forward in (
    ("unet", build_unet, unet_forward), ("rpn", build_rpn, rpn_forward), ("age", build_age_model, age_forward),
):
    model = build(getattr(cfg, net), seed=1)
    c = model.config
    for n in (1, 4, 8):
        rng = np.random.default_rng(n)
        x = T.Tensor(rng.random((n, 1, c.height, c.width), dtype=np.float32))
        for p in model.params.values():
            p.grad = None
        with T.Tape() as tape:
            outs = forward(model, x)
            outs = outs if isinstance(outs, tuple) else (outs,)
            total = None
            for out in outs:
                target = T.Tensor(rng.standard_normal(out.shape).astype(np.float32))
                term = T.loss(out, target, "mse")
                total = term if total is None else T.add(total, term)
        tape.backward(total)
        arrays = {f"out{i}": out.data for i, out in enumerate(outs)}
        arrays.update((f"{name}.grad", p.grad) for name, p in model.params.items())
        for key, a in arrays.items():
            digests[f"{net}/{n}/{key}"] = hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
print(json.dumps(digests))
"""


def _run(threads, argv):
    src = str(Path(boneage.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    done = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_net_outputs_and_gradients_do_not_depend_on_the_blas_thread_count():
    one, two = (json.loads(_run(t, ["-c", _GRADS_CHILD])) for t in (1, 2))
    assert one.keys() == two.keys() and len(one) > 100
    assert [key for key in one if one[key] != two[key]] == []


def test_training_checkpoints_do_not_depend_on_the_blas_thread_count(tmp_path):
    for threads in (1, 2):
        for cmd in ("train-seg", "train-roi", "train-age"):
            out = tmp_path / str(threads)
            _run(threads, ["-m", "boneage.cli", cmd, "--count", "8", "--epochs", "2", "--out", str(out)])
    for name in ("seg.ckpt", "roi.ckpt", "age.ckpt"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
