"""Intensity-controlled low-rank detect/correct adapters.

Each adapted affine layer computes

    y = W x + b + alpha * beta * v_cor (v_det^T x)

where v_det (n, d) projects the input onto d detection directions, v_cor
(m, d) maps detections to output-space corrections, beta is one learnable
scalar per layer, and alpha is the global inference-time intensity.  At
alpha = 0 the adapter term is skipped entirely, so outputs are bit-for-bit
the base model's.  Several adapters compose additively; entries are kept in
a canonical digest order so composition is insensitive to how callers order
the set, down to the last bit.

`AdapterStack.apply` adds the terms of every live entry of a layer as one
`tensor.adapt` node, the one implementation of the adapted affine map.  Per
clip range it runs x v_det, then v_cor, then the β·α scale and the sum, and
it keeps x and the rank-d detections, not the (clips, ..., m) corrections,
which its vjp recomputes per range.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, FingerprintError, FormatError, check_field_types, is_intensity, is_number
from .fileio import read_container, unpack_arrays, write_container
from .model import DiffusionModel, adaptable_layers, fingerprint
from .tensor import Tensor

ADAPTER_MAGIC = b"UFOA"

# default attachment points: the temporal-attention query/value/output
# projections, where cross-frame information flows
DEFAULT_TARGET_PIECES = ("q", "v", "proj")


def default_targets(model_or_cfg) -> list[str]:
    names = [name for name, _, _ in adaptable_layers(model_or_cfg)]
    return [n for n in names
            if ".tattn." in n and n.rsplit(".", 1)[1] in DEFAULT_TARGET_PIECES]


@dataclass
class AdapterLayer:
    v_det: Tensor  # (n, d)
    v_cor: Tensor  # (m, d)
    beta: Tensor   # scalar

    @property
    def shape(self) -> tuple[int, int]:
        """(out_features, in_features) of the affine layer this adapts."""
        return self.v_cor.shape[0], self.v_det.shape[0]


def layer_spec(m: int, n: int, rank: int) -> tuple:
    """(part, shape) of one adapted (m, n) layer, in the order of the adapter's
    parameters, of its file payload and of its initial draws."""
    return ("v_det", (n, rank)), ("v_cor", (m, rank)), ("beta", ())


KINDS = ("consistency", "stylization")
RECOMMENDED_ALPHA = {"consistency": 0.1, "stylization": 1.0}


@dataclass
class UfoAdapter:
    rank: int
    fingerprint: str
    layers: "OrderedDict[str, AdapterLayer]"
    kind: str = "consistency"
    recommended_alpha: float = 0.1
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        check_field_types(self)
        if self.rank < 1:
            raise ContractError(f"rank must be a positive integer, got {self.rank}")
        if self.kind not in KINDS:
            raise ContractError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.recommended_alpha <= 1.0:
            raise ContractError(
                f"recommended_alpha must lie in [0, 1], got {self.recommended_alpha!r}")
        self.recommended_alpha = float(self.recommended_alpha)

    def parameter_count(self) -> int:
        # d * (m + n) + 1 per adapted layer
        return sum(t.size for t in self.parameters().values())

    def set_trainable(self, flag: bool) -> None:
        for t in self.parameters().values():
            t.requires_grad = flag
            t.grad = None

    def parameters(self) -> "OrderedDict[str, Tensor]":
        return OrderedDict((f"{name}.{part}", getattr(layer, part))
                           for name, layer in self.layers.items()
                           for part, _ in layer_spec(*layer.shape, self.rank))


def init_adapter(model: DiffusionModel, rank: int = 4, targets=None, seed: int = 0,
                 kind: str = "consistency") -> UfoAdapter:
    """Fresh adapter: detectors are random, correctors zero, betas one.

    Zero correctors make the fresh adapter an exact no-op at any intensity
    while still passing gradient to the detectors after the first update.
    Its recommended_alpha follows the kind (consistency 0.1, stylization 1.0).
    """
    adapter = UfoAdapter(rank, fingerprint(model), OrderedDict(), kind)  # refuses rank and kind
    adapter.recommended_alpha = RECOMMENDED_ALPHA[kind]
    layer_shapes = {name: (m, n) for name, m, n in adaptable_layers(model)}
    if isinstance(targets, str):
        raise ContractError(f"targets must be a list of layer names, not the string {targets!r}")
    targets = list(targets) if targets is not None else default_targets(model)
    if not targets:
        raise ContractError("adapter needs at least one target layer")
    repeated = sorted({t for t in targets if targets.count(t) > 1})
    if repeated:
        raise ContractError(f"targets {repeated} are named more than once")
    unknown = [t for t in targets if t not in layer_shapes]
    if unknown:
        raise ContractError(f"targets {unknown} are not adaptable layers of this model")
    rng = np.random.default_rng(seed)
    init = {"v_det": lambda shape: rng.normal(size=shape) / np.sqrt(shape[0]),
            "v_cor": np.zeros, "beta": np.ones}
    for name in sorted(targets, key=lambda t: list(layer_shapes).index(t)):
        adapter.layers[name] = AdapterLayer(**{
            part: Tensor(init[part](shape).astype(model.config.np_dtype), requires_grad=True)
            for part, shape in layer_spec(*layer_shapes[name], rank)})
    return adapter


def adapter_digest(adapter: UfoAdapter) -> str:
    """Content hash used only to order adapters canonically inside a stack."""
    h = hashlib.sha256()
    h.update(f"{adapter.rank}|{adapter.fingerprint}".encode())
    for name, layer in adapter.layers.items():
        h.update(name.encode())
        for t in (layer.v_det, layer.v_cor, layer.beta):
            h.update(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
    return h.hexdigest()


class AdapterStack:
    """A canonically ordered set of (adapter, intensity) pairs.

    The stack adds each adapter's correction term to adapted layers in digest
    order, so composing the same set in any order yields identical bits.
    """

    def __init__(self, entries):
        cleaned = []
        for entry in entries:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                    and isinstance(entry[0], UfoAdapter)):
                raise ContractError("stack entries must be (UfoAdapter, alpha) pairs")
            adapter, alpha = entry
            if not is_intensity(alpha):
                raise ContractError(f"intensity must be a number in [0, 1], got {alpha!r}")
            cleaned.append((adapter, float(alpha)))
        fps = {a.fingerprint for a, _ in cleaned}
        if len(fps) > 1:
            raise FingerprintError("stacked adapters were trained against different architectures")
        self.entries = sorted(cleaned, key=lambda e: (adapter_digest(e[0]), e[1]))

    def check_model(self, model: DiffusionModel) -> None:
        """Raise FingerprintError naming the first adapted layer that `model`
        lacks or shapes differently, for any entry not trained against it."""
        fp = fingerprint(model)
        for adapter, _ in self.entries:
            if adapter.fingerprint == fp:
                continue
            have = {name: (m, n) for name, m, n in adaptable_layers(model)}
            for name, layer in adapter.layers.items():
                if name not in have:
                    raise FingerprintError(f"model has no adaptable layer {name!r} "
                                           f"(adapter expects shape {layer.shape})")
                if have[name] != layer.shape:
                    raise FingerprintError(f"layer {name!r} has shape {have[name]} "
                                           f"on the model but {layer.shape} in the adapter")
            raise FingerprintError(
                "model architecture differs outside the adapted layers "
                f"(fingerprint {fp[:12]}... vs {adapter.fingerprint[:12]}...)")

    def apply(self, name: str, x: Tensor, y: Tensor) -> Tensor:
        """Add every nonzero-intensity entry's correction for layer `name`, in
        digest order, to its base output y given its input x, as one
        `T.adapt` node; both keep the (clips, ..., features) shape of
        `T.linear`.  With no such entry it returns y itself."""
        corrections = [(layer.v_det, layer.v_cor, layer.beta, alpha)
                       for adapter, alpha in self.entries
                       if alpha != 0.0 and (layer := adapter.layers.get(name)) is not None]
        return T.adapt(x, y, corrections) if corrections else y


def compose(model: DiffusionModel, pairs) -> AdapterStack:
    """The checked way to build a stack: (adapter, alpha) pairs bound to `model`."""
    stack = AdapterStack(list(pairs))
    stack.check_model(model)
    return stack


def transfer(adapter: UfoAdapter, target: DiffusionModel,
             alpha: float | None = None) -> AdapterStack:
    """`compose` for one adapter trained elsewhere, at its recommended_alpha by default."""
    return compose(target, [(adapter, adapter.recommended_alpha if alpha is None else alpha)])


# ---------------------------------------------------------------------------
# adapter I/O (UFOA container)
# ---------------------------------------------------------------------------

def save_adapter(adapter: UfoAdapter, path) -> None:
    header = {
        "kind": adapter.kind,
        "recommended_alpha": adapter.recommended_alpha,
        "rank": adapter.rank,
        "fingerprint": adapter.fingerprint,
        "layer_names": list(adapter.layers),
        "layer_shapes": [list(layer.shape) for layer in adapter.layers.values()],
        "meta": adapter.meta,
    }
    write_container(path, ADAPTER_MAGIC, header,
                    [t.data for t in adapter.parameters().values()])


def load_adapter(path) -> UfoAdapter:
    header, payload, at = read_container(path, ADAPTER_MAGIC)
    for key in ("rank", "fingerprint", "layer_names", "layer_shapes",
                "kind", "recommended_alpha"):
        if key not in header:
            raise FormatError(f"adapter header is missing '{key}'")
    try:
        adapter = UfoAdapter(header["rank"], header["fingerprint"], OrderedDict(), header["kind"],
                             header["recommended_alpha"], header.get("meta", {}))
    except ContractError as exc:
        raise FormatError(f"bad adapter header: {exc}") from None
    names = header["layer_names"]
    shapes = header["layer_shapes"]
    if (not isinstance(names, list) or not isinstance(shapes, list)
            or len(names) != len(shapes) or not names
            or not all(isinstance(name, str) for name in names)
            or len(set(names)) != len(names)):
        raise FormatError("adapter layer registry is malformed")
    for name, shape in zip(names, shapes):
        if (not isinstance(shape, list) or len(shape) != 2
                or not all(is_number(s, int) and s > 0 for s in shape)):
            raise FormatError(f"bad layer shape {shape!r} for '{name}'")
    specs = [(name, layer_spec(*shape, adapter.rank)) for name, shape in zip(names, shapes)]
    arrays = unpack_arrays(payload, at, [(f"{name}.{part}", shape)
                                         for name, spec in specs for part, shape in spec])
    adapter.layers.update((name, AdapterLayer(**{part: Tensor(arrays[f"{name}.{part}"])
                                                 for part, _ in spec}))
                          for name, spec in specs)
    return adapter
