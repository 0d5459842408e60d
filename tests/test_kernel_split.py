"""Kernels split their per-clip work across clip ranges with unchanged bytes.

``tensor._workers`` sets how many contiguous clip ranges ``linear``,
``adapt``, ``attention``, ``gelu`` and ``layernorm`` split into.  Here it is forced to
one range (everything on the calling thread), left as shipped, or forced to
three ranges on any machine, and the kernel outputs, trained state and
sampled videos must agree byte for byte.  A subprocess check does the same
for the BLAS thread count, after checking that importing ufolab set it to one,
and another that the pool's threads allocate from the main heap arena.
"""

import hashlib
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from ufolab import (ModelConfig, TrainConfig, build_model, clip_stream, compose, init_adapter, sample,
                    train_base, train_ufo_consistency)
from ufolab import tensor as T
from ufolab import train as train_module
from ufolab.synthdata import DEFAULT_CONDITIONS
from ufolab.tensor import Tensor

ROOT = Path(__file__).resolve().parents[1]
SPLITS = {"one range": lambda clips: 1,
          "as shipped": T._workers,
          "three ranges": lambda clips: min(3, clips)}
ADAM = train_module.Adam


def seeded_model(seed):
    """Default model whose zero-initialised heads get seeded non-zero draws."""
    model = build_model(ModelConfig(), seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name in ("head_eps.w", "head_sigma.w"):
        p = model.params[name]
        p.data[...] = rng.normal(scale=0.02, size=p.shape).astype(p.data.dtype)
    return model


def seeded_adapter(model, seed):
    """Rank-4 consistency adapter whose zero correctors get seeded draws."""
    adapter = init_adapter(model, rank=4, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for layer in adapter.layers.values():
        layer.v_cor.data[...] = rng.normal(scale=0.05, size=layer.v_cor.shape).astype(layer.v_cor.data.dtype)
    return adapter


def digest(arr):
    if arr is None:
        return None
    return (arr.dtype.str, arr.shape, arr.strides, hashlib.sha256(arr.tobytes()).hexdigest())


# ---------------------------------------------------------------------------
# each kernel, forward and vjp
# ---------------------------------------------------------------------------

def _kernel_cases(clips):
    rng = np.random.default_rng(clips)

    def arr(*shape, dtype=np.float32):
        return rng.standard_normal(shape).astype(dtype)

    def transposed(*shape, dtype=np.float32):  # a strided gradient, as transpose's vjp hands on
        return np.transpose(arr(shape[0], shape[2], shape[1], *shape[3:], dtype=dtype), (0, 2, 1, 3))

    cases = []
    for wtype in (np.float32, np.float64):
        for needs in ((True, True, True), (True, False, False), (False, True, True)):
            cases.append(("linear", lambda *t: T.linear(*t), (arr(clips, 4, 5, 6), arr(7, 6, dtype=wtype),
                                                              arr(7, dtype=wtype)), needs, transposed(clips, 4, 5, 7)))
    for g in (arr(clips, 4, 5, 6), transposed(clips, 4, 5, 6)):
        cases.append(("gelu", T.gelu, (arr(clips, 4, 5, 6),), (True,), g))
        cases.append(("layernorm", T.layernorm, (arr(clips, 4, 5, 6), arr(6), arr(6)), (True, True, True), g))
    cases.append(("gelu 1-d", T.gelu, (arr(9, dtype=np.float64),), (True,), arr(9, dtype=np.float64)))
    for shape, heads in (((clips, 3, 5, 8), 2), ((clips, 3, 1, 8), 2), ((clips, 2, 4, 6), 1)):
        for needs in ((True, True, True), (False, True, False), (False, False, True)):
            cases.append(("attention", lambda q, k, v, h=heads: T.attention(q, k, v, h, 0.5),
                          (arr(*shape), arr(*shape), arr(*shape, dtype=np.float64)), needs, arr(*shape)))
    for needs in ((True,) * 8, (False, True, True, True, True, False, False, True)):
        cases.append(("adapt", lambda x, y, *p: T.adapt(x, y, [p[:3] + (0.3,), p[3:] + (0.7,)]),
                      (arr(clips, 4, 5, 6), arr(clips, 4, 5, 7), arr(6, 3), arr(7, 3), arr(), arr(6, 3), arr(7, 3), arr()),
                      needs, transposed(clips, 4, 5, 7)))
    return cases


def _run_kernel(op, arrays, needs, g):
    with T.recording() as tape:
        out = op(*(Tensor(a, requires_grad=n) for a, n in zip(arrays, needs)))
    return [digest(out.data)] + [digest(part) for part in tape.nodes[-1].vjp(g)]


@pytest.mark.parametrize("clips", [1, 2, 3, 8])
def test_each_kernel_gives_the_same_bytes_and_layout_in_any_split(monkeypatch, clips):
    cases = _kernel_cases(clips)
    results = {}
    for name, workers in SPLITS.items():
        monkeypatch.setattr(T, "_workers", workers)
        results[name] = [_run_kernel(*case[1:]) for case in cases]
    for i, case in enumerate(cases):
        want = results["one range"][i]
        assert results["as shipped"][i] == want, case[0]
        assert results["three ranges"][i] == want, case[0]


# ---------------------------------------------------------------------------
# end to end: training and sampling
# ---------------------------------------------------------------------------

def _train_digests(monkeypatch, workers):
    """3 base steps, then 3 consistency-adapter steps, at the default size and
    batch 8; after every Adam step, each parameter, its grad and its moments."""
    monkeypatch.setattr(T, "_workers", workers)
    seen = []

    class Recorded(ADAM):
        def step(self, lr):
            super().step(lr)
            seen.append([(key, digest(p.data), digest(p.grad), digest(self.m[key]), digest(self.v[key]))
                         for key, p in self.params.items()])

    monkeypatch.setattr(train_module, "Adam", Recorded)
    model = seeded_model(3)
    adapter = seeded_adapter(model, 4)
    conds = list(DEFAULT_CONDITIONS)
    train_base(model, clip_stream(8, 5, conditions=conds),
               TrainConfig(steps=3, batch_size=8, lr_peak=1e-3, warmup_steps=0, seed=1))
    train_ufo_consistency(model, adapter, clip_stream(8, 6, conditions=conds, static=True),
                          TrainConfig(steps=3, batch_size=8, lr_peak=2e-3, warmup_steps=0, seed=2))
    assert len(seen) == 6
    return seen


def test_trained_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    runs = {name: _train_digests(monkeypatch, workers) for name, workers in SPLITS.items()}
    assert runs["as shipped"] == runs["one range"]
    assert runs["three ranges"] == runs["one range"]


def test_sampled_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    model = seeded_model(7)
    stack = compose(model, [(seeded_adapter(model, 8), 1.0)])
    conds, seeds = np.arange(32) % 36, np.arange(32) + 500
    videos = {}
    for name, workers in SPLITS.items():
        monkeypatch.setattr(T, "_workers", workers)
        videos[name] = sample(model, conds, seeds, stack=stack, steps=2)
    assert videos["as shipped"].tobytes() == videos["one range"].tobytes()
    assert videos["three ranges"].tobytes() == videos["one range"].tobytes()


# ---------------------------------------------------------------------------
# the worker count and the pool
# ---------------------------------------------------------------------------

def test_worker_count_is_the_cpus_blas_leaves_free_capped_by_the_clips(monkeypatch):
    # only the count is asked for, so no pool of that size is started
    monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: set(range(64)))
    monkeypatch.setattr(T, "_BLAS_PINNED", True)
    assert [T._workers(clips) for clips in (0, 1, 3, 64, 500)] == [1, 1, 3, 64, 64]
    monkeypatch.setattr(T, "_BLAS_PINNED", False)  # BLAS keeps its own threads
    assert [T._workers(clips) for clips in (1, 8, 500)] == [1, 1, 1]
    monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(T, "_BLAS_PINNED", True)
    assert [T._workers(clips) for clips in (1, 8)] == [1, 1]


def test_one_cpu_or_one_clip_runs_on_the_calling_thread(monkeypatch):
    def no_pool():
        raise AssertionError("a kernel used the pool")

    monkeypatch.setattr(T, "_pool", no_pool)
    model = seeded_model(1)
    sample(model, [1], [2], steps=1)
    monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: {0})
    train_base(model, clip_stream(2, 3, conditions=list(DEFAULT_CONDITIONS)),
               TrainConfig(steps=1, batch_size=2, warmup_steps=0))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_pool(monkeypatch):
    # the child's copy of the parent's pool has no threads behind it
    monkeypatch.setattr(T, "_workers", lambda clips: min(2, clips))
    x = Tensor(np.linspace(-3.0, 3.0, 4 * 8 * 16).reshape(4, 8, 16))
    want = T.gelu(x).data
    assert T._POOL is not None
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(20)  # a hang ends the child, not the test run
            code = 0 if np.array_equal(T.gelu(x).data, want) else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_run_returns_or_raises_only_after_every_task_has_finished():
    finished = threading.Event()

    def slow():
        time.sleep(0.2)
        finished.set()
        return "slow"

    def fails():
        raise ValueError("first task")

    with pytest.raises(ValueError, match="first task"):
        T._run([fails, slow], 2)
    assert finished.is_set()
    finished.clear()
    assert T._run([lambda: "first", slow], 2) == ["first", "slow"]
    assert finished.is_set()

    def second_fails():
        raise KeyError("second task")

    with pytest.raises(KeyError, match="second task"):
        T._run([slow, second_fails], 2)


def test_run_takes_each_task_exactly_once_under_frequent_switches():
    ran = []

    def task(i):
        ran.append(i)  # list.append is atomic; a task taken twice shows here
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        for _ in range(20):
            ran.clear()
            assert T._run([lambda i=i: task(i) for i in range(300)], 3) == list(range(300))
            assert sorted(ran) == list(range(300))
        assert time.monotonic() - start < 60
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# the BLAS thread count
# ---------------------------------------------------------------------------

_BLAS_PROBE = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_kernel_split import seeded_adapter, seeded_model
from ufolab import TrainConfig, clip_stream, compose, sample, train_base
from ufolab import tensor as T
from ufolab.synthdata import DEFAULT_CONDITIONS


def run():
    model = seeded_model(11)
    train_base(model, clip_stream(8, 12, conditions=list(DEFAULT_CONDITIONS)),
               TrainConfig(steps=2, batch_size=8, lr_peak=1e-3, warmup_steps=0, seed=13))
    videos = sample(model, np.arange(8) % 36, np.arange(8) + 700,
                    stack=compose(model, [(seeded_adapter(model, 14), 1.0)]), steps=3)
    h = hashlib.sha256(videos.tobytes())
    for p in model.params.values():
        h.update(p.data.tobytes())
    return h.hexdigest()


print(T._openblas("get")(), T._workers(8))
shipped = run()
T._openblas("set")(2)
T._workers = lambda clips: min(2, clips)  # BLAS calls from two threads at once
print(T._openblas("get")(), shipped, run())
"""


@pytest.mark.skipif(T._openblas("get") is None, reason="NumPy calls no OpenBLAS")
def test_trained_and_sampled_bytes_do_not_depend_on_the_blas_thread_count():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, str(ROOT / "tests")],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    pinned, workers, reset, shipped, two_threads = proc.stdout.split()
    cpus = len(os.sched_getaffinity(0))
    assert (pinned, workers) == ("1", str(min(8, cpus)))
    assert reset == str(min(2, cpus))  # OpenBLAS caps its threads at the usable CPUs
    assert shipped == two_threads


_ARENA_PROBE = """
import ctypes
import numpy as np
import ufolab
from ufolab import tensor as T
x = T.Tensor(np.random.default_rng(0).standard_normal((8, 8, 64, 96)).astype(np.float32),
             requires_grad=True)
with T.recording() as tape:
    T.gelu(x)
for _ in range(3):  # C-contiguous with 8 clips: the vjp's ranges run on this thread and the pool
    tape.nodes[-1].vjp(np.ones_like(x.data))
ctypes.CDLL(None).malloc_stats()
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or len(os.sched_getaffinity(0)) < 2,
                    reason="counts glibc's arenas, which a pool thread adds only beside the caller")
def test_pool_threads_allocate_from_the_main_heap_arena():
    # a second arena would keep its own freed pages, apart from the main heap's
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _ARENA_PROBE], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert [line for line in proc.stderr.splitlines() if line.startswith("Arena")] == ["Arena 0:"]
