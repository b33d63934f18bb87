"""A tiny fully-connected network with an exact hand-written backward.

Shared MLP backbone -> feature f; three heads on top of f: a projection
head producing the alignment embedding z (one hidden rectified layer, the
nonlinear head of SimCLR, arXiv 2002.05709), a linear K-way classifier, and
a linear one-vs-all detector emitting K (ID, OOD) logit pairs. `backward`
forwards every view of a step as one stacked batch and propagates the head
gradients the loss returns back through the layout in closed form;
`forward_tensors` builds the same network on the autodiff tape, the oracle
the tests check it with. All three build the one `ForwardResult`: the five
layer outputs, numpy arrays or tape tensors, and nothing derived from them.
Plain momentum SGD; checkpoints round-trip bitwise via hex-encoded float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Mapping

import numpy as np

from .autodiff import Tensor, constant

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class NetSpec:
    input_dim: int = 16
    backbone_widths: tuple[int, ...] = (32,)
    feature_dim: int = 16
    proj_hidden: int = 16
    embed_dim: int = 8
    num_classes: int = 4
    seed: int = 1

    def __post_init__(self):
        dims = (self.input_dim, self.feature_dim, self.proj_hidden,
                self.embed_dim, self.num_classes, *self.backbone_widths)
        if any(d < 1 for d in dims):
            raise ValueError("all network dimensions must be >= 1")
        object.__setattr__(self, "backbone_widths", tuple(int(w) for w in self.backbone_widths))


def layout(spec: NetSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) table defining the flat parameter vector."""
    entries: list[tuple[str, tuple[int, ...]]] = []
    dims = [spec.input_dim, *spec.backbone_widths, spec.feature_dim]
    for i in range(len(dims) - 1):
        entries.append((f"backbone{i}.W", (dims[i], dims[i + 1])))
        entries.append((f"backbone{i}.b", (dims[i + 1],)))
    entries.append(("proj0.W", (spec.feature_dim, spec.proj_hidden)))
    entries.append(("proj0.b", (spec.proj_hidden,)))
    entries.append(("proj1.W", (spec.proj_hidden, spec.embed_dim)))
    entries.append(("proj1.b", (spec.embed_dim,)))
    entries.append(("cc.W", (spec.feature_dim, spec.num_classes)))
    entries.append(("cc.b", (spec.num_classes,)))
    entries.append(("od.W", (spec.feature_dim, 2 * spec.num_classes)))
    entries.append(("od.b", (2 * spec.num_classes,)))
    return entries


def param_count(spec: NetSpec) -> int:
    return sum(math.prod(shape) for _, shape in layout(spec))


@dataclass
class ParamState:
    spec: NetSpec
    flat: np.ndarray
    step: int = 0
    _offsets: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        offsets = {}
        end = 0
        for name, shape in layout(self.spec):
            offsets[name] = (end, end + math.prod(shape), shape)
            end += math.prod(shape)
        if self.flat.shape != (end,):
            raise ValueError(f"parameter vector has {self.flat.shape[0]} entries, expected {end}")
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("parameters have non-finite entries")
        self._offsets = offsets

    def view(self, name: str) -> np.ndarray:
        start, end, shape = self._offsets[name]
        return self.flat[start:end].reshape(shape)

    def names(self) -> list[str]:
        return [name for name, _ in layout(self.spec)]


def init_params(spec: NetSpec) -> ParamState:
    """Seeded scaled-uniform init, U(+-1/sqrt(fan_in)) per layer.

    Biases draw from the same range as their weights; an exactly-zero bias
    vector would park dead-ReLU rows exactly on downstream kinks.
    """
    rng = np.random.default_rng(spec.seed)
    chunks = []
    bound = 1.0
    for name, shape in layout(spec):
        if name.endswith(".W"):
            bound = 1.0 / np.sqrt(shape[0])
        chunks.append(rng.uniform(-bound, bound, size=int(np.prod(shape))))
    return ParamState(spec=spec, flat=np.concatenate(chunks), step=0)


@dataclass(frozen=True)
class ForwardResult:
    """The layer outputs for a batch: arrays from `forward` and `backward`,
    tape tensors from `forward_tensors`."""

    features: np.ndarray | Tensor    # (B, d_f)
    embeddings: np.ndarray | Tensor  # (B, d)
    cc_logits: np.ndarray | Tensor   # (B, K)
    id_logits: np.ndarray | Tensor   # (B, K) the detector's ID logit per class
    ood_logits: np.ndarray | Tensor  # (B, K) and its OOD logit

    def rows(self, index) -> "ForwardResult":
        """The outputs of a subset of the batch's rows."""
        return ForwardResult(*(getattr(self, f.name)[index] for f in fields(self)))


def _forward_core(spec: NetSpec, get: Callable[[str], object], x, relu: Callable,
                  layer_inputs: dict | None = None):
    """Architecture shared by the numpy paths and the autodiff oracle.

    Returns f, z, cc, od; `layer_inputs`, if given, receives the input each
    linear layer read, by layer name, for the hand-written backward.
    """
    def linear(name, a):
        if layer_inputs is not None:
            layer_inputs[name] = a
        return a @ get(f"{name}.W") + get(f"{name}.b")

    h = x
    n_backbone = len(spec.backbone_widths) + 1
    for i in range(n_backbone):
        h = linear(f"backbone{i}", h)
        if i < n_backbone - 1:  # feature output stays linear
            h = relu(h)
    f = h
    z = linear("proj1", relu(linear("proj0", f)))
    return f, z, linear("cc", f), linear("od", f)


def _relu(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0.0)


def _result(spec: NetSpec, f, z, cc, od) -> ForwardResult:
    """The one place the detector's 2K outputs split into ID and OOD logits."""
    k = spec.num_classes
    return ForwardResult(f, z, cc, od[:, :k], od[:, k:])


def forward(params: ParamState, x) -> ForwardResult:
    """Deterministic forward pass over a (B, d_in) batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.spec.input_dim:
        raise ValueError(f"expected (B, {params.spec.input_dim}) inputs, got {x.shape}")
    f, z, cc, od = _forward_core(params.spec, params.view, x, relu=_relu)
    return _result(params.spec, f, z, cc, od)


def forward_tensors(spec: NetSpec, params: Mapping[str, Tensor], x) -> ForwardResult:
    """Forward pass on the autodiff tape; validates every layer output."""
    xt = constant(np.asarray(x, dtype=np.float64))
    f, z, cc, od = _forward_core(spec, params.__getitem__, xt, relu=Tensor.relu)
    _check_finite(f.data, z.data, cc.data, od.data)
    return _result(spec, f, z, cc, od)


def _check_finite(f, z, cc, od) -> None:
    for name, value in (("backbone", f), ("projection", z), ("classifier", cc), ("detector", od)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite activation in layer '{name}'")


def backward(params: ParamState, inputs: Mapping[str, np.ndarray],
             closure: Callable[[Mapping[str, ForwardResult]], tuple[float, dict]]) -> np.ndarray:
    """Exact gradient of a scalar objective with respect to all parameters.

    `inputs` maps view names to (B, d_in) arrays. The views are stacked
    into one batch and forwarded once; the closure receives each view's
    ForwardResult and returns (loss, grads), where grads[view][head] is the
    loss gradient w.r.t. that view's "embeddings", "cc_logits", "id_logits"
    or "ood_logits" (a missing entry is zero). The gradient then flows back
    by hand through the layout: heads, projection, backbone.
    """
    spec = params.spec
    x = np.concatenate([inputs[view] for view in inputs])
    layer_inputs = {}
    f, z, cc, od = _forward_core(spec, params.view, x, relu=_relu, layer_inputs=layer_inputs)
    _check_finite(f, z, cc, od)
    stacked = _result(spec, f, z, cc, od)
    ends = np.cumsum([len(rows) for rows in inputs.values()])
    spans = {view: slice(end - len(inputs[view]), end) for view, end in zip(inputs, ends)}
    loss, head_grads = closure({view: stacked.rows(rows) for view, rows in spans.items()})
    if not np.isfinite(loss):
        raise ValueError("non-finite loss")

    k = spec.num_classes
    g_z, g_cc, g_od = np.zeros_like(z), np.zeros_like(cc), np.zeros_like(od)
    targets = {"embeddings": g_z, "cc_logits": g_cc,
               "id_logits": g_od[:, :k], "ood_logits": g_od[:, k:]}
    for view, by_head in head_grads.items():
        for head, g in by_head.items():
            targets[head][spans[view]] = g

    grads = {}

    def through(name: str, g: np.ndarray) -> np.ndarray:
        """Record a linear layer's weight gradients; return its input's gradient."""
        grads[f"{name}.W"] = layer_inputs[name].T @ g
        grads[f"{name}.b"] = g.sum(axis=0)
        return g @ params.view(f"{name}.W").T

    g = through("cc", g_cc) + through("od", g_od)  # the features' gradient
    g += through("proj0", through("proj1", g_z) * (layer_inputs["proj1"] > 0))
    for i in reversed(range(len(spec.backbone_widths) + 1)):
        g = through(f"backbone{i}", g)
        if i > 0:
            g *= layer_inputs[f"backbone{i}"] > 0
    return np.concatenate([grads[name].ravel() for name in params.names()])


def sgd_step(params: ParamState, grads: np.ndarray, lr: float, momentum: float = 0.0,
             weight_decay: float = 0.0, velocity: np.ndarray | None = None
             ) -> tuple[ParamState, np.ndarray]:
    """Classic momentum SGD; weight decay is added to the gradient."""
    if velocity is None:
        velocity = np.zeros_like(params.flat)
    effective = grads + weight_decay * params.flat
    velocity = momentum * velocity + effective
    new_flat = params.flat - lr * velocity
    return ParamState(spec=params.spec, flat=new_flat, step=params.step + 1), velocity


def save_checkpoint(params: ParamState, path) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "spec": asdict(params.spec),
        "step": params.step,
        "params_hex": [v.hex() for v in params.flat.tolist()],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> ParamState:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    spec_dict = dict(payload["spec"])
    spec_dict["backbone_widths"] = tuple(spec_dict["backbone_widths"])
    spec = NetSpec(**spec_dict)
    flat = np.array([float.fromhex(h) for h in payload["params_hex"]], dtype=np.float64)
    return ParamState(spec=spec, flat=flat, step=int(payload["step"]))
