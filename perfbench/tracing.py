"""Span tracer that instruments the public ufolab API from outside.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
public function with a timing wrapper in every module that holds it
(``diffusion`` imports ``forward`` by name, ``train`` imports
``training_losses`` by name, and so on) and ``uninstall`` puts the originals
back, so an untraced operation runs the unmodified code.  A wrapped tensor op
also wraps the vjp closure of every node it appends to the active tape, which
is how vjp time is measured without touching ``backward``.

Spans (name, start, end, parent, operation id) are kept in flat lists and
written out once, when the run ends.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import defaultdict

import numpy as np

# ops reported on their own; every other tensor op is folded into "other"
OP_BUCKETS = ("matmul", "add", "mul", "transpose", "reshape", "gelu", "softmax", "layernorm")
TENSOR_OPS = ("add", "sub", "neg", "mul", "matmul", "transpose", "reshape", "expand",
              "tsum", "tmean", "square", "exp", "gelu", "softmax", "layernorm", "take_rows")

# spans whose self time counts as explained work; the self time of everything
# else (op glue, model.forward, diffusion.*, adapter.*) is the unexplained rest
EXPLAINED_LAYERS = ("tensor", "train", "synthdata", "metrics", "fileio", "video")

_now = time.perf_counter


class _TimedVjp:
    __slots__ = ("fn", "name", "tracer")

    def __init__(self, fn, name, tracer):
        self.fn, self.name, self.tracer = fn, name, tracer

    def __call__(self, g):
        sid = self.tracer.open(self.name)
        try:
            return self.fn(g)
        finally:
            self.tracer.close(sid)


class Tracer:
    """In-memory span recorder plus the patch table for the ufolab API."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.op_ids: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.group = -1  # operations of one pass share a group; OFT waste is counted per group
        self.counters: dict[str, float] = defaultdict(float)
        self.clip_digests: set[tuple[int, bytes]] = set()  # (group, clip digest)
        self._patches = self._build_patches()

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.op_ids.append(self.op_id)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(_now())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = _now()
        top = self.stack.pop()
        if top != sid:
            raise RuntimeError(f"span {self.names[sid]!r} closed out of order")

    def span(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    # -- wrappers with extra bookkeeping --------------------------------
    def _tensor_op(self, fn, bucket: str, active_tape):
        tracer, fwd, vjp = self, f"tensor.{bucket}.fwd", f"tensor.{bucket}.vjp"

        def traced(*args, **kwargs):
            nodes = active_tape().nodes
            n0 = len(nodes)
            sid = tracer.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            # nested ops (sub -> add, neg) already wrapped the nodes they appended
            for node in nodes[n0:]:
                if not isinstance(node.vjp, _TimedVjp):
                    node.vjp = _TimedVjp(node.vjp, vjp, tracer)
            return out

        return traced

    def _backward(self, fn, active_tape):
        tracer = self

        def traced(loss, tape=None):
            nodes = (tape if tape is not None else active_tape()).nodes
            tracer.counters["tape_nodes"] += len(nodes)
            tracer.counters["tape_bytes"] += sum(n.output.data.nbytes for n in nodes)
            sid = tracer.open("tensor.backward")
            try:
                return fn(loss, tape)
            finally:
                tracer.close(sid)

        return traced

    def _forward(self, fn, active_tape):
        tracer = self

        def traced(*args, **kwargs):
            nodes = active_tape().nodes
            n0 = len(nodes)
            sid = tracer.open("model.forward")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)
                # a forward that recorded nodes ran with grad enabled
                tracer.names[sid] = "model.forward_grad" if len(nodes) > n0 else "model.forward_nograd"

        return traced

    def _oft(self, fn):
        tracer = self

        def traced(clip):
            arr = np.ascontiguousarray(getattr(clip, "data", clip))
            tracer.clip_digests.add((tracer.group, hashlib.sha1(arr.tobytes()).digest()))
            sid = tracer.open("metrics.oft")
            try:
                return fn(clip)
            finally:
                tracer.close(sid)

        return traced

    def _read_container(self, fn):
        tracer = self

        def traced(path, magic):
            sid = tracer.open("fileio.read")
            try:
                header, payload, at = fn(path, magic)
            finally:
                tracer.close(sid)
            tracer.counters["bytes_read"] += at + len(payload)
            return header, payload, at

        return traced

    def _write_bytes(self, fn):
        tracer = self

        def traced(path, blob):
            tracer.counters["bytes_written"] += len(blob)
            sid = tracer.open("fileio.write")
            try:
                return fn(path, blob)
            finally:
                tracer.close(sid)

        return traced

    def _load_clip(self, fn):
        tracer = self

        def traced(path):
            sid = tracer.open("video.load_clip")
            try:
                clip = fn(path)
            finally:
                tracer.close(sid)
            tracer.counters["clip_bytes_read"] += os.path.getsize(path) + os.path.getsize(f"{path}.json")
            return clip

        return traced

    # -- patch table -----------------------------------------------------
    def _build_patches(self):
        import sys

        from ufolab import adapter, diffusion, fileio, metrics, model, synthdata, tensor, train, video

        active_tape = tensor.active_tape
        wrapped = {}  # (defining module, name) -> wrapper
        for name in TENSOR_OPS:
            bucket = name if name in OP_BUCKETS else "other"
            wrapped[(tensor, name)] = self._tensor_op(getattr(tensor, name), bucket, active_tape)
        wrapped[(tensor, "backward")] = self._backward(tensor.backward, active_tape)
        wrapped[(model, "forward")] = self._forward(model.forward, active_tape)
        wrapped[(metrics, "oft")] = self._oft(metrics.oft)
        wrapped[(fileio, "read_container")] = self._read_container(fileio.read_container)
        wrapped[(fileio, "atomic_write_bytes")] = self._write_bytes(fileio.atomic_write_bytes)
        wrapped[(video, "load_clip")] = self._load_clip(video.load_clip)
        for mod, name, span in (
                (model, "load_model", "model.load"),
                (diffusion, "training_losses", "diffusion.training_losses"),
                (diffusion, "sample", "diffusion.sample"),
                (adapter, "compose", "adapter.compose"),
                (adapter, "load_adapter", "adapter.load"),
                (synthdata, "gen_moving_scene", "synthdata.render"),
                (synthdata, "make_static_video", "synthdata.make_static"),
                (metrics, "evaluate_set", "metrics.evaluate_set"),
                (metrics, "consistency_score", "metrics.consistency"),
                (metrics, "temporal_flicker_score", "metrics.flicker"),
                (metrics, "write_metrics_csv", "metrics.write_csv")):
            wrapped[(mod, name)] = self.span(getattr(mod, name), span)

        # patch every module that looks the name up, the benchmark's own included
        patches = []
        modules = [m for _, m in sorted(sys.modules.items()) if m is not None]
        for (home, name), wrapper in wrapped.items():
            original = getattr(home, name)
            for mod in modules:
                if getattr(mod, "__dict__", {}).get(name) is original:
                    patches.append((mod, name, original, wrapper))
        for cls, name, span in ((adapter.AdapterStack, "apply", "adapter.apply"),
                                (train.Adam, "step", "train.adam"),
                                (train.FreezeGuard, "check", "train.freeze_check")):
            original = cls.__dict__[name]
            patches.append((cls, name, original, self.span(original, span)))
        return patches

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- output ----------------------------------------------------------
    def write_spans(self, path) -> None:
        """One CSV line per span: id, parent, op, name, start_ns, end_ns."""
        base = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for sid, (name, parent, op, t0, t1) in enumerate(
                    zip(self.names, self.parents, self.op_ids, self.starts, self.ends)):
                fh.write(f"{sid},{parent},{op},{name},{round((t0 - base) * 1e9)},"
                         f"{round((t1 - base) * 1e9)}\n")

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """name -> (inclusive seconds, self seconds, span count)."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, list] = {}
        for name, d, s in zip(self.names, dur, own):
            acc = out.setdefault(name, [0.0, 0.0, 0])
            acc[0] += d
            acc[1] += s
            acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of ``n_ops`` traced operations."""
    tot = tracer.totals()
    per = 1.0 / max(n_ops, 1)

    def incl(name):
        return tot.get(name, (0.0, 0.0, 0))[0] * 1e3 * per

    def own(name):
        return tot.get(name, (0.0, 0.0, 0))[1] * 1e3 * per

    def calls(name):
        return tot.get(name, (0.0, 0.0, 0))[2] * per

    m: dict[str, float] = {}
    for bucket in OP_BUCKETS + ("other",):
        m[f"tensor.{bucket}.fwd_ms"] = own(f"tensor.{bucket}.fwd")
        m[f"tensor.{bucket}.vjp_ms"] = own(f"tensor.{bucket}.vjp")
        m[f"tensor.{bucket}.calls"] = calls(f"tensor.{bucket}.fwd")
    c = tracer.counters
    m["tensor.backward_ms"] = incl("tensor.backward")
    m["tensor.backward_self_ms"] = own("tensor.backward")
    m["tensor.tape_nodes"] = c["tape_nodes"] * per
    m["tensor.tape_mb"] = c["tape_bytes"] / 2**20 * per
    m["model.forward_grad_ms"] = incl("model.forward_grad")
    m["model.forward_grad_calls"] = calls("model.forward_grad")
    m["model.forward_nograd_ms"] = incl("model.forward_nograd")
    m["model.forward_nograd_calls"] = calls("model.forward_nograd")
    m["model.forward_self_ms"] = own("model.forward_grad") + own("model.forward_nograd")
    m["model.load_ms"] = incl("model.load")
    m["diffusion.training_losses_ms"] = incl("diffusion.training_losses")
    m["diffusion.training_losses_self_ms"] = own("diffusion.training_losses")
    m["diffusion.sample_ms"] = incl("diffusion.sample")
    m["diffusion.sample_self_ms"] = own("diffusion.sample")
    m["adapter.apply_ms"] = incl("adapter.apply")
    m["adapter.apply_calls"] = calls("adapter.apply")
    m["adapter.compose_ms"] = incl("adapter.compose")
    m["adapter.load_ms"] = incl("adapter.load")
    m["train.adam_ms"] = incl("train.adam")
    m["train.freeze_check_ms"] = incl("train.freeze_check")
    m["synthdata.batch_ms"] = incl("synthdata.batch")
    m["synthdata.render_calls"] = calls("synthdata.render")
    m["metrics.evaluate_set_ms"] = incl("metrics.evaluate_set")
    m["metrics.oft_ms"] = incl("metrics.oft")
    m["metrics.oft_calls"] = calls("metrics.oft")
    m["metrics.consistency_ms"] = incl("metrics.consistency")
    m["metrics.flicker_ms"] = incl("metrics.flicker")
    m["metrics.write_csv_ms"] = incl("metrics.write_csv")
    oft_calls = tot.get("metrics.oft", (0, 0, 0))[2]
    m["metrics.oft_useful_ratio"] = len(tracer.clip_digests) / oft_calls if oft_calls else 0.0
    m["fileio.read_ms"] = incl("fileio.read")
    m["fileio.write_ms"] = incl("fileio.write")
    m["fileio.bytes_read"] = c["bytes_read"] * per
    m["fileio.bytes_written"] = c["bytes_written"] * per
    m["video.load_clip_ms"] = incl("video.load_clip")
    m["video.load_clip_calls"] = calls("video.load_clip")
    m["video.bytes_read"] = c["clip_bytes_read"] * per

    op_ms = sum(v[0] for k, v in tot.items() if k.startswith("op.")) * 1e3 * per
    explained = sum(v[1] for k, v in tot.items()
                    if k.split(".", 1)[0] in EXPLAINED_LAYERS) * 1e3 * per
    m["trace.op_ms"] = op_ms
    m["trace.unexplained_ms"] = op_ms - explained
    m["trace.unexplained_pct"] = 100.0 * (op_ms - explained) / op_ms if op_ms else 0.0
    m["trace.spans_per_op"] = len(tracer.names) * per
    return m
