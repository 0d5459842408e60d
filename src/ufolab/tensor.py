"""Reverse-mode automatic differentiation on dense numpy arrays.

Recording is opt-in.  Inside ``with recording() as tape:`` every operation
with an input that requires a gradient is appended to ``tape``; ``backward``
consumes it in reverse, popping each node before its vjp runs, so the node
and every activation only it held are freed as the pass goes, and the tape
is empty afterwards (a second ``backward`` on it warns "not connected").
On exit the previous tape comes back, and the closed one, unless the caller
keeps it, is freed with whatever it still held.  Outside any ``recording()``
operations only compute values, so inference and a stray forward pass keep
no graph.

Broadcasting is deliberately restricted: elementwise ops accept equal shapes
or a trailing-suffix match, and anything richer must go through the explicit
``expand`` primitive.  There is no silent type or shape promotion anywhere.

``gelu``, ``softmax`` and ``layernorm`` run forward and vjp in place, through
``out=`` buffers they allocate themselves; they never write into an input's
``data`` or into the incoming gradient, which ``add`` hands to both of its
inputs.  Their operation order is a contract: each applies the IEEE
operations of its plain formula (kept in the test oracles) to the same
operands in the same order, up to swapping the operands of one ``*`` or
``+``.  For the contiguous inputs the model feeds them, with a contiguous
or transposed gradient, results also keep the formula's memory layout,
which later reductions sum in; so trained bytes never depend on the rewrite.
gelu keeps only ``x`` and its tanh term and recomputes x² in its vjp.

``attention`` is the model's multi-head attention as one node: head split,
q @ kᵀ, scale, softmax, @ v and head merge, with the operations and layouts
of that chain of ops (kept in the test oracles).  It keeps its q, k, v
inputs and the softmax output; its vjp copies the heads and kᵀ again, which
changes no bit, rather than the tape holding the scores and every copy.
``softmax`` and ``attention`` share one forward and one vjp kernel.
The vjp of an op with several inputs returns None for an input that needs
no gradient, instead of a partial that ``backward`` would drop.

``adapt`` is an adapted layer's correction terms as one node: per entry,
the chain transpose, linear, linear, β·α, mul and add, with that chain's
operations and layouts (kept in the test oracles).  It keeps its input and
the rank-d detections, not the full-width corrections.  Its vjp is, per
entry, ``linear``'s affine backward (``_affine_vjp``) of the correction map
and then of the detection map, with β's sum as one more whole task.

Importing this module sets NumPy's OpenBLAS to one thread, and ``linear``,
``adapt``, ``attention``, ``gelu`` and ``layernorm`` split their per-clip
work into contiguous ranges of the leading (clip) axis: one per usable CPU,
at most one per clip.  Where NumPy calls no OpenBLAS, nothing is set and
every kernel runs as one range on the calling thread.  The calling thread
and a pool of threads started at first use take the ranges in turn, and
each range writes only its own clips of buffers the caller allocated.
Split so are linear's product, adapt's forward, the affine backward's dx
(linear's dx, adapt's detection partials and dx), attention's forward and
vjp, gelu's forward and vjp, and layernorm's forward and dx (gelu and
layernorm only for a C-contiguous input).  The affine backward's dW GEMM and
db sum (adapt's v_cor and v_det GEMMs), adapt's β sums, and layernorm's
dgamma and dbeta, run whole over all rows, as more tasks beside the ranges.
Each range runs the whole-array operations on its own clips, and BLAS forms
one GEMM per clip, so no byte depends on the worker count or on the BLAS
thread count.  Only the calling thread touches the tape and ``Tensor``
objects.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import warnings
from contextlib import contextmanager
from typing import Callable

import numpy as np

from .errors import ContractError, DimensionError, check_ids

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "active_tape",
    "recording",
    "add",
    "sub",
    "mul",
    "neg",
    "matmul",
    "linear",
    "adapt",
    "transpose",
    "reshape",
    "expand",
    "tsum",
    "tmean",
    "square",
    "exp",
    "gelu",
    "softmax",
    "attention",
    "layernorm",
    "take_rows",
]


class _Node:
    """One recorded operation: output tensor, inputs, and its vjp closure."""

    __slots__ = ("output", "inputs", "vjp")

    def __init__(self, output: "Tensor", inputs: tuple, vjp: Callable):
        self.output = output
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Ordered record of operations for one reverse pass."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self.nodes)


_STATE = threading.local()
_IDLE = Tape()  # the active tape outside recording(); nothing is appended to it


def active_tape() -> Tape:
    """The tape of the innermost open ``recording()``, else an empty tape."""
    return getattr(_STATE, "tape", _IDLE)


@contextmanager
def recording():
    """Record operations onto a fresh tape for the body of the ``with``.

    Yields the tape; on exit the previous one is restored, so contexts nest.
    """
    saved = active_tape()
    _STATE.tape = tape = Tape()
    try:
        yield tape
    finally:
        _STATE.tape = saved


class Tensor:
    """Dense array with an optional gradient slot.

    ``data`` is held as float32 or float64; integer input is promoted to
    float64 so hand-written examples behave like ordinary math.  ``grad`` is
    populated (as a numpy array of the same shape/dtype) by ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Copy of the underlying array (safe to mutate)."""
        return np.array(self.data, copy=True)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


def _coerce(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _record(out: Tensor, inputs: tuple, vjp: Callable) -> Tensor:
    tape = active_tape()
    if tape is not _IDLE and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append(_Node(out, inputs, vjp))
    return out


# ---------------------------------------------------------------------------
# clip ranges: a kernel's per-clip work, split across the usable CPUs
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    # sched_getaffinity is Linux-only; elsewhere every CPU counts as usable
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _openblas(verb: str):
    """OpenBLAS's ``<verb>_num_threads`` ("get" or "set") in the library NumPy
    calls, or None where it calls no OpenBLAS.  dlsym on NumPy's own, already
    loaded, linalg extension also searches the libraries it links."""
    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    names = (f"scipy_openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads64_",
             f"openblas_{verb}_num_threads")  # NumPy's wheels, older wheels, system builds
    return next((getattr(lib, name) for name in names if hasattr(lib, name)), None)


_set_blas_threads = _openblas("set")
if _set_blas_threads is not None:
    _set_blas_threads(1)
_BLAS_PINNED = _set_blas_threads is not None
_POOL = None  # the concurrent.futures.ThreadPoolExecutor, once started
_POOL_LOCK = threading.Lock()


def _workers(clips: int) -> int:
    """Clip ranges a kernel splits into: the usable CPUs, at most one per
    clip, at least one.  One where BLAS keeps its own threads: a GEMM split
    across threads that each run a threaded BLAS was slower than BLAS alone."""
    return max(1, min(_usable_cpus(), clips)) if _BLAS_PINNED else 1


def _pool():
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # imported here, not with the module: it loads logging, a cost
            # every import of ufolab would pay
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(max(1, _workers(_usable_cpus()) - 1), "ufolab-kernel")
        return _POOL


def _forget_pool() -> None:
    """In a forked child, whose copy of the pool has no threads behind it."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run(tasks: list, workers: int) -> list:
    """Results of ``tasks`` (no-argument callables), taken in list order by
    this thread and ``workers - 1`` pool threads, each as it comes free.
    Returns, or raises a task's error, only once every task has finished,
    so no worker writes after this returns."""
    if workers == 1:
        return [task() for task in tasks]
    results = [None] * len(tasks)
    todo, lock = iter(enumerate(tasks)), threading.Lock()

    def drain():
        while True:
            with lock:
                item = next(todo, None)
            if item is None:
                return
            results[item[0]] = item[1]()

    futures = [_pool().submit(drain) for _ in range(min(workers, len(tasks)) - 1)]
    try:
        drain()
    finally:
        for future in futures:
            future.exception()  # waits for it, raising nothing
    for future in futures:
        future.result()
    return results


def _split(clips: int, kernel: Callable, *whole: Callable) -> list:
    """Run the ``whole`` tasks, then ``kernel(r)`` for contiguous ranges ``r``
    of the leading clip axis (one range is ``...``, the whole array), on this
    thread and the pool; returns the ``whole`` tasks' results."""
    n = _workers(clips)
    edges = [clips * i // n for i in range(n + 1)]
    ranges = [...] if n == 1 else [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    return _run(list(whole) + [functools.partial(kernel, r) for r in ranges], n)[:len(whole)]


def _clips(x: np.ndarray) -> int:
    """The clip count an elementwise kernel may split ``x`` by: its leading
    axis if it is C-contiguous (its outputs then are too), else 1."""
    return x.shape[0] if x.ndim > 1 and x.flags.c_contiguous else 1


# ---------------------------------------------------------------------------
# broadcasting helpers: equal shapes, or one operand's shape is a trailing
# suffix of the other's.  Anything else is a DimensionError.
# ---------------------------------------------------------------------------

def _check_suffix(sa: tuple, sb: tuple) -> None:
    """Pass equal shapes, or one that is a trailing suffix of the other."""
    if sa != sb and sa[len(sa) - len(sb):] != sb and sb[len(sb) - len(sa):] != sa:
        raise DimensionError(f"shapes {sa} and {sb} are not equal and neither is a trailing suffix of the other")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    # collapse the leading broadcast axes back onto `shape`
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    return g


def add(a, b) -> Tensor:
    a = _coerce(a, b if isinstance(b, Tensor) else None)
    b = _coerce(b, a)
    _check_suffix(a.shape, b.shape)
    out = Tensor(a.data + b.data)

    def vjp(g):
        return (_reduce_to(g, a.shape) if a.requires_grad else None,
                _reduce_to(g, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    return add(a, neg(_coerce(b, a if isinstance(a, Tensor) else None)))


def neg(a) -> Tensor:
    a = _coerce(a)
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a = _coerce(a, b if isinstance(b, Tensor) else None)
    b = _coerce(b, a)
    _check_suffix(a.shape, b.shape)
    out = Tensor(a.data * b.data)

    def vjp(g):
        return (_reduce_to(g * b.data, a.shape) if a.requires_grad else None,
                _reduce_to(g * a.data, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    """Matrix product; 2-D operands or equal-leading stacked batches."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul shapes {a.shape} and {b.shape} do not align")
    out = Tensor(a.data @ b.data)

    def vjp(g):
        return (g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None,
                np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None)

    return _record(out, (a, b), vjp)


def _affine_vjp(g, x3, w, want_dx, want_w, want_b=False, *whole) -> tuple:
    """The partials dx, dW and db (each None unless wanted) of ``x3 @ wᵀ (+ b)``
    for its output's gradient ``g``, then the ``whole`` tasks' results.

    ``x3`` is (clips, rows, n) and ``w`` (m, n).  dx = g·w runs as one GEMM
    per clip on the clip ranges; dW and db come from one reshape of ``g`` in
    one task beside the ranges, and the ``whole`` tasks run beside them too.
    With no dx wanted, every task runs on the calling thread.
    """
    m, n = w.shape
    dx = np.empty(x3.shape, np.result_type(g, w)) if want_dx else None

    def dx_rows(r):
        np.matmul(np.reshape(g[r], dx[r].shape[:2] + (m,)), w, out=dx[r])

    def params():
        g2 = np.reshape(g, (-1, m)) if want_w or want_b else None
        return (g2.T @ np.reshape(x3, (-1, n)) if want_w else None,
                g2.sum(axis=0) if want_b else None)

    tasks = (params,) + whole
    (dw, db), *rest = _split(len(x3), dx_rows, *tasks) if want_dx else [task() for task in tasks]
    return (dx, dw, db, *rest)


def linear(x, w, b=None) -> Tensor:
    """Affine map ``x @ w^T (+ b)`` on the last axis of ``x``, shape (clips, ..., n).

    ``w`` is (m, n) and ``b``, if given, is (m,).  The product runs as one GEMM
    per clip over ``x`` viewed as (clips, rows, n), so a clip's output does
    not depend on how many clips share the call; the vjp (``_affine_vjp``)
    forms dx the same way and dW as one 2-D GEMM over all rows.
    """
    x, w = _coerce(x), _coerce(w)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise DimensionError(f"linear shapes {x.shape} and {w.shape} do not align")
    inputs = (x, w)
    if b is not None:
        b = _coerce(b)
        if b.shape != (w.shape[0],):
            raise DimensionError(f"linear bias shape {b.shape} does not match weight {w.shape}")
        inputs = (x, w, b)
    m, n = w.shape
    wd, bd = w.data, None if b is None else b.data
    x3 = np.reshape(x.data, (x.shape[0], -1, n))
    y = np.empty(x3.shape[:2] + (m,), np.result_type(x3, wd))

    def forward(r):
        yr = np.matmul(x3[r], wd.T, out=y[r])
        if bd is not None:
            yr += bd

    _split(len(x3), forward)
    out = Tensor(np.reshape(y, x.shape[:-1] + (m,)))

    def vjp(g):
        want_b = b is not None and b.requires_grad
        dx, dw, db = _affine_vjp(g, x3, wd, x.requires_grad, w.requires_grad, want_b)
        return (None if dx is None else np.reshape(dx, x.shape), dw, db)[:len(inputs)]

    return _record(out, inputs, vjp)


class _Correction:
    """One entry of an ``adapt`` node: its tensors, the contiguous v_detᵀ the
    chain's transpose gives, its detections and its scaled correction's dtype."""

    __slots__ = ("v_det", "v_cor", "beta", "alpha", "scale", "vt", "det", "scaled_type")

    def __init__(self, x3, v_det, v_cor, beta, alpha):
        self.v_det, self.v_cor, self.beta = v_det, v_cor, beta
        self.alpha = np.asarray(alpha, dtype=beta.dtype)
        self.scale = beta.data * self.alpha                        # β·α
        self.vt = np.ascontiguousarray(v_det.data.T)              # (d, n)
        self.det = np.empty(x3.shape[:2] + self.vt.shape[:1], np.result_type(x3, self.vt))
        self.scaled_type = np.result_type(self.det, v_cor.data, self.scale)


def adapt(x, y, corrections) -> Tensor:
    """An adapted affine layer's output ``y + Σ (x v_det) v_corᵀ · (β·α)`` as one node.

    ``x`` (clips, ..., n) is the layer's input and ``y`` (clips, ..., m) its
    base output; ``corrections`` holds (v_det (n, d), v_cor (m, d), scalar β,
    intensity α) entries, added in list order.  Per clip range, the forward
    runs the operations and layouts of the chain transpose(v_det), linear,
    linear, β·α, mul, add of each entry (kept in the test oracles): the
    detections ``x v_det`` through a contiguous v_detᵀ, the correction,
    ``*=`` β·α, the sum.  The node keeps ``x`` and the rank-d detections, not
    the corrections.  Its vjp walks the entries last first and runs, per
    entry, ``linear``'s affine backward twice: for the correction map on
    (g·β·α, detections, v_cor), giving the detection partial and dv_cor, with
    β's ``(g * (det @ v_corᵀ)).sum() * α`` as one more whole task; then for
    the detection map on (detection partial, x, v_detᵀ), giving dx and
    dv_detᵀ.  ``x`` is an input once per entry, last entry first, so
    ``backward`` adds its partials in the chain's order.
    """
    x, y = _coerce(x), _coerce(y)
    if x.ndim < 2 or not corrections:
        raise DimensionError(f"adapt needs a (clips, ..., n) input and corrections, got {x.shape}")
    n, m = x.shape[-1], y.shape[-1]
    x3 = np.reshape(x.data, (x.shape[0], -1, n))
    entries = []
    for v_det, v_cor, beta, alpha in corrections:
        v_det, v_cor, beta = _coerce(v_det), _coerce(v_cor), _coerce(beta)
        if (v_det.ndim != 2 or v_cor.ndim != 2 or beta.shape != () or v_det.shape[0] != n
                or v_cor.shape[1] != v_det.shape[1] or y.shape != x.shape[:-1] + v_cor.shape[:1]):
            raise DimensionError(f"adapter shapes {v_det.shape}, {v_cor.shape}, {beta.shape} do not fit "
                                 f"input {x.shape} and output {y.shape}")
        entries.append(_Correction(x3, v_det, v_cor, beta, alpha))
    y3 = np.reshape(y.data, x3.shape[:2] + (m,))
    out = np.empty(y3.shape, np.result_type(y3, *(e.scaled_type for e in entries)))

    def forward(r):
        acc = y3[r]
        for e in entries:
            c = np.matmul(np.matmul(x3[r], e.vt.T, out=e.det[r]), e.v_cor.data.T)
            c = np.multiply(c, e.scale, out=c if c.dtype == e.scaled_type else None)
            acc = np.add(acc, c, out=out[r])

    _split(len(x3), forward)
    result = Tensor(np.reshape(out, y.shape))

    def vjp(g):
        partials = [g if y.requires_grad else None]
        for e in reversed(entries):
            want_det = x.requires_grad or e.v_det.requires_grad

            def d_beta(e=e):
                if e.beta.requires_grad:
                    return (g * np.reshape(e.det @ e.v_cor.data.T, y.shape)).sum() * e.alpha

            gs = g * e.scale if want_det or e.v_cor.requires_grad else None
            ddet, dv_cor, _, dbeta = _affine_vjp(gs, e.det, e.v_cor.data, want_det, e.v_cor.requires_grad,
                                                 False, d_beta)
            dx, dvt, _ = _affine_vjp(ddet, x3, e.vt, x.requires_grad, e.v_det.requires_grad)
            partials += [None if dx is None else np.reshape(dx, x.shape), None if dvt is None else dvt.T,
                         dv_cor, dbeta]
        return tuple(partials)

    inputs = (y,) + tuple(t for e in reversed(entries) for t in (x, e.v_det, e.v_cor, e.beta))
    return _record(result, inputs, vjp)


def transpose(a, axes=None) -> Tensor:
    a = _coerce(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"transpose axes {axes} are not a permutation for shape {a.shape}")
    inv = tuple(np.argsort(axes))
    out = Tensor(np.ascontiguousarray(np.transpose(a.data, axes)))
    return _record(out, (a,), lambda g: (np.transpose(g, inv),))


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    shape = tuple(int(s) for s in shape)
    try:
        out = Tensor(np.reshape(a.data, shape))
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}") from exc
    return _record(out, (a,), lambda g: (np.reshape(g, a.shape),))


def expand(a, shape) -> Tensor:
    """Explicit broadcast of `a` to `shape` (prepend axes and/or stretch 1s)."""
    a = _coerce(a)
    shape = tuple(int(s) for s in shape)
    try:
        view = np.broadcast_to(a.data, shape)
    except ValueError as exc:
        raise DimensionError(f"cannot expand {a.shape} to {shape}") from exc
    lead = len(shape) - a.ndim
    stretched = tuple(i + lead for i, s in enumerate(a.shape) if s == 1 and shape[i + lead] != 1)
    out = Tensor(np.ascontiguousarray(view))

    def vjp(g):
        if stretched:
            g = g.sum(axis=stretched, keepdims=True)
        if lead:
            g = g.sum(axis=tuple(range(lead)))
        return (np.reshape(g, a.shape),)

    return _record(out, (a,), vjp)


def tsum(a) -> Tensor:
    """Sum over every axis."""
    a = _coerce(a)
    out = Tensor(np.sum(a.data))
    return _record(out, (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def tmean(a) -> Tensor:
    """Mean over every axis."""
    a = _coerce(a)
    out = Tensor(np.mean(a.data))
    return _record(out, (a,), lambda g: (np.divide(np.broadcast_to(g, a.shape), a.size),))


def square(a) -> Tensor:
    a = _coerce(a)
    out = Tensor(a.data * a.data)
    return _record(out, (a,), lambda g: (2.0 * a.data * g,))


def exp(a) -> Tensor:
    a = _coerce(a)
    y = np.exp(a.data)
    out = Tensor(y)
    return _record(out, (a,), lambda g: (y * g,))


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu(a) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    a = _coerce(a)
    x = a.data
    t, y = np.empty_like(x), np.empty_like(x)

    def forward(r):
        xr, tr, yr = x[r], t[r], y[r]
        np.multiply(xr, xr, out=tr)
        tr *= xr
        tr *= _GELU_A
        tr += xr
        tr *= _GELU_C
        np.tanh(tr, out=tr)                # t = tanh(C * (x + A * x^3))
        np.multiply(xr, 0.5, out=yr)
        yr *= np.add(tr, 1.0)              # y = 0.5 * x * (1 + t)

    _split(_clips(x), forward)
    out = Tensor(y)

    def vjp(g):
        dx = np.empty_like(x)

        def backward(r):
            xr, tr, du = x[r], t[r], dx[r]
            np.multiply(xr, xr, out=du)
            du *= 3.0 * _GELU_A
            du += 1.0
            du *= _GELU_C                  # du = C * (1 + 3A * x^2)
            s = np.multiply(tr, tr)
            np.subtract(1.0, s, out=s)
            s *= du
            np.multiply(xr, 0.5, out=du)
            s *= du                        # s = 0.5 * x * ((1 - t^2) * du)
            np.add(tr, 1.0, out=du)
            du *= 0.5
            du += s
            du *= g[r]                     # g * (0.5 * (1 + t) + s)

        _split(_clips(x), backward)
        return (dx,)

    return _record(out, (a,), vjp)


def _softmax_forward(x, out=None):
    """Softmax over the last axis of `x`, into `out` (which may be `x`) or a new array."""
    y = np.subtract(x, np.max(x, axis=-1, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= np.sum(y, axis=-1, keepdims=True)
    return y


def _softmax_vjp(y, g):
    d = np.multiply(g, y)
    dot = np.sum(d, axis=-1, keepdims=True)
    np.subtract(g, dot, out=d)
    d *= y                                 # y * (g - sum(g * y))
    return d


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _coerce(a)
    y = _softmax_forward(a.data)
    return _record(Tensor(y), (a,), lambda g: (_softmax_vjp(y, g),))


_HEADS = (0, 1, 3, 2, 4)       # (b, g, L, heads, hd) <-> (b, g, heads, L, hd)
_KEYS_T = (0, 1, 3, 4, 2)      # (b, g, L, heads, hd) -> (b, g, heads, hd, L)
_KEYS_T_BACK = (0, 1, 4, 2, 3)


def attention(q, k, v, heads: int, scale: float) -> Tensor:
    """Multi-head self-attention over the length axis, as one tape node.

    ``q``, ``k`` and ``v`` are (clips, groups, length, dim) projections; the
    result is softmax(q kᵀ · scale) v per head, heads merged back into (clips,
    groups, length, dim).  The forward runs the unfused chain's operations on
    the same layouts: contiguous head copies of q and v and a contiguous kᵀ,
    q @ kᵀ, ``*=`` the scale, softmax in place, @ v, one merge copy.  The node
    keeps its inputs and the softmax output; the vjp copies the heads and kᵀ
    again and returns each partial in the chain's layout (transposed views,
    then a reshape copy).
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if q.ndim != 4 or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(f"attention needs equal 4-D q, k, v, got {q.shape}, {k.shape}, {v.shape}")
    if heads < 1 or q.shape[-1] % heads:
        raise DimensionError(f"attention heads {heads} must divide dim {q.shape[-1]}")
    clips, length, hd = q.shape[0], q.shape[2], q.shape[-1] // heads
    split = q.shape[:3] + (heads, hd)
    qd, kd, vd = q.data, k.data, v.data

    def copy(x, axes):
        return np.ascontiguousarray(np.transpose(np.reshape(x, x.shape[:3] + (heads, hd)), axes))

    att = np.empty(q.shape[:2] + (heads, length, length), np.result_type(qd, kd))
    merged = np.empty(split, np.result_type(att, vd))
    scale = np.asarray(scale, dtype=att.dtype)

    def forward(r):
        ar = np.matmul(copy(qd[r], _HEADS), copy(kd[r], _KEYS_T), out=att[r])
        ar *= scale
        _softmax_forward(ar, out=ar)
        merged[r] = np.transpose(ar @ copy(vd[r], _HEADS), _HEADS)

    _split(clips, forward)
    out = Tensor(np.reshape(merged, q.shape))

    def vjp(g):
        ds_type = np.result_type(g, vd, att)
        dq = np.empty(split, np.result_type(ds_type, kd)) if q.requires_grad else None
        dk = np.empty(att.shape[:3] + (hd, length), np.result_type(qd, ds_type)) if k.requires_grad else None
        dv = np.empty(split, np.result_type(att, g)) if v.requires_grad else None

        def backward(r):
            ar = att[r]
            go = np.transpose(np.reshape(g[r], g[r].shape[:3] + (heads, hd)), _HEADS)
            if dv is not None:
                dv[r] = np.transpose(np.swapaxes(ar, -1, -2) @ go, _HEADS)
            if dq is None and dk is None:
                return
            ds = _softmax_vjp(ar, go @ np.swapaxes(copy(vd[r], _HEADS), -1, -2))
            ds *= scale
            if dq is not None:
                dq[r] = np.transpose(ds @ np.swapaxes(copy(kd[r], _KEYS_T), -1, -2), _HEADS)
            if dk is not None:
                np.matmul(np.swapaxes(copy(qd[r], _HEADS), -1, -2), ds, out=dk[r])

        _split(clips, backward)
        return (None if dq is None else np.reshape(dq, q.shape),
                None if dk is None else np.reshape(np.transpose(dk, _KEYS_T_BACK), q.shape),
                None if dv is None else np.reshape(dv, q.shape))

    return _record(out, (q, k, v), vjp)


def layernorm(a, gamma, beta) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    a, gamma, beta = _coerce(a), _coerce(gamma), _coerce(beta)
    n = a.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise DimensionError(
            f"layernorm affine shapes {gamma.shape}/{beta.shape} do not match feature width ({n},)")
    x, gd, bd = a.data, gamma.data, beta.data
    xhat, y = np.empty_like(x), np.empty_like(x)
    inv = np.empty(x.shape[:-1] + (1,), x.dtype)

    def forward(r):
        xr, xh, yr = x[r], xhat[r], y[r]
        np.subtract(xr, np.mean(xr, axis=-1, keepdims=True), out=xh)
        np.multiply(xh, xh, out=yr)
        np.divide(1.0, np.sqrt(np.mean(yr, axis=-1, keepdims=True) + 1e-5), out=inv[r])
        xh *= inv[r]                       # xhat = (x - mu) / sqrt(var + 1e-5)
        np.multiply(xh, gd, out=yr)
        yr += bd

    _split(_clips(x), forward)
    out = Tensor(y)

    def vjp(g):
        def params():
            lead = tuple(range(g.ndim - 1))
            return (np.sum(np.multiply(g, xhat), axis=lead) if gamma.requires_grad else None,
                    np.sum(g, axis=lead) if beta.requires_grad else None)

        if not a.requires_grad:
            return (None, *params())
        dx = np.empty_like(xhat, dtype=np.result_type(g, gd, xhat))

        def backward(r):
            xh, gx = xhat[r], dx[r]
            gg = np.multiply(g[r], gd)
            mean_gg = np.mean(gg, axis=-1, keepdims=True)
            np.multiply(gg, xh, out=gx)
            mean_ggx = np.mean(gx, axis=-1, keepdims=True)
            gg -= mean_gg
            np.multiply(xh, mean_ggx, out=gx)
            np.subtract(gg, gx, out=gx)
            gx *= inv[r]                   # inv * (gg - mean(gg) - xhat * mean(gg * xhat))

        dgamma, dbeta = _split(_clips(x), backward, params)[0]
        return dx, dgamma, dbeta

    return _record(out, (a, gamma, beta), vjp)


def take_rows(table, ids) -> Tensor:
    """Row lookup ``table[ids]`` for an integer index array (not differentiable in ids)."""
    table = _coerce(table)
    if table.ndim != 2:
        raise DimensionError(f"take_rows expects a 2-D table, got {table.shape}")
    ids = check_ids(ids, "take_rows ids", 0, table.shape[0])
    out = Tensor(table.data[ids])

    def vjp(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, ids, g)
        return (acc,)

    return _record(out, (table,), vjp)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor, tape: Tape | None = None) -> None:
    """Accumulate d(loss)/d(tensor) into ``.grad`` for every leaf on the tape.

    A leaf is a tensor that no recorded op produced (parameters, inputs);
    gradients for intermediates flow through but are not stored: each is
    freed during the pass, once the vjp of the node that produced it has run.
    The pass consumes the tape: each node is popped before its vjp runs, and
    it, its closure and what only they held are freed once that vjp returns.
    The tape is empty afterwards, so a second ``backward`` on it finds the
    loss not connected.  ``loss`` must be a scalar produced on the tape,
    which defaults to the active one: call it inside the ``recording()``
    that built the loss.  If the loss is disconnected a RuntimeWarning is
    emitted and every leaf gradient is zero.  Gradients add into existing
    ``.grad`` buffers, so callers clear them between steps.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = tape if tape is not None else active_tape()

    nodes = tape.nodes
    produced_ids = {id(node.output) for node in nodes}
    if id(loss) not in produced_ids:
        warnings.warn("loss is not connected to the active tape; all gradients are zero",
                      RuntimeWarning, stacklevel=2)
    # holding each leaf also keeps its id from being reused while it is a key of flowing
    leaves = {id(t): t for node in nodes for t in node.inputs
              if t.requires_grad and id(t) not in produced_ids}

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while nodes:
        _pass_back(nodes, flowing)

    # write results once per leaf (zeros for recorded-but-unreached ones)
    for t in leaves.values():
        g = flowing.get(id(t))
        g = np.zeros_like(t.data) if g is None else np.asarray(g, dtype=t.data.dtype)
        t.grad = np.array(g, copy=True) if t.grad is None else t.grad + g
    if loss.requires_grad and loss.grad is None:
        loss.grad = np.ones_like(loss.data)


def _pass_back(nodes: list[_Node], flowing: dict[int, np.ndarray]) -> None:
    """Pop the last node off ``nodes`` and pass its output's gradient back.

    The popped node's output id leaves ``flowing`` first, and every other
    intermediate id left there belongs to a node still on the tape, which
    keeps that tensor alive; so no id in ``flowing`` can be reused.
    """
    node = nodes.pop()
    g_out = flowing.pop(id(node.output), None)
    if g_out is None:
        return
    inputs, partials = node.inputs, node.vjp(g_out)
    del node, g_out  # the node's last reference: its closure and what only it held go now
    for inp, part in zip(inputs, partials):
        if part is None or not inp.requires_grad:
            continue
        prev = flowing.get(id(inp))
        flowing[id(inp)] = part if prev is None else prev + part
