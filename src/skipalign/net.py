"""A tiny fully-connected network with an exact hand-written backward.

Shared MLP backbone -> feature f; three heads on top of f: a projection
head producing the alignment embedding z (one hidden rectified layer, the
nonlinear head of SimCLR, arXiv 2002.05709), a linear K-way classifier, and
a linear one-vs-all detector emitting K (ID, OOD) logit pairs. `backward`
forwards a step's stacked batch once and propagates the full-batch head
gradients the loss returns back through the layout in closed form;
`forward_tensors` builds the same network on the autodiff tape, the oracle
the tests check it with, and is the one place this module loads the tape.
All three build the one `ForwardResult`: the five layer outputs, numpy arrays
or tape tensors, and nothing derived from them.
Plain momentum SGD; checkpoints round-trip bitwise via hex-encoded float64.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

if TYPE_CHECKING:
    from .autodiff import Tensor

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
        for name in ("input_dim", "feature_dim", "proj_hidden", "embed_dim", "num_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if any(w < 1 for w in self.backbone_widths):
            raise ValueError("backbone_widths entries must be >= 1")
        object.__setattr__(self, "backbone_widths", tuple(int(w) for w in self.backbone_widths))

    @functools.cached_property
    def offsets(self) -> dict[str, tuple[int, int, tuple[int, ...]]]:
        """Each parameter's (start, end, shape) in the flat vector, in layout order;
        kept on the spec object, so a ParamState built of it (the finite-difference
        oracle builds one per evaluation) looks it up with neither the spec's hash nor
        its equality."""
        table = {}
        end = 0
        for name, shape in layout(self):
            table[name] = (end, end + math.prod(shape), shape)
            end += math.prod(shape)
        return table


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
    return next(reversed(spec.offsets.values()))[1]


def _layer_views(spec: NetSpec, flat: np.ndarray) -> dict[str, np.ndarray]:
    return {name: flat[start:end].reshape(shape)
            for name, (start, end, shape) in spec.offsets.items()}


@dataclass
class ParamState:
    """A flat parameter vector and each layer's view of it, sliced once; a training
    keeps one and `sgd_step` updates its vector in place, so the views stay current."""

    spec: NetSpec
    flat: np.ndarray

    def __post_init__(self):
        size = param_count(self.spec)
        if self.flat.shape != (size,):
            raise ValueError(f"parameter vector has {self.flat.shape[0]} entries, expected {size}")
        if not np.isfinite(self.flat).all():
            raise ValueError("parameters have non-finite entries")
        self.views = _layer_views(self.spec, self.flat)

    @functools.cached_property
    def grad(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The gradient `backward` writes, a flat vector laid out as the parameters and
        its per-layer views: made at the first backward and overwritten by each."""
        flat = np.zeros_like(self.flat)
        return flat, _layer_views(self.spec, flat)


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
    return ParamState(spec=spec, flat=np.concatenate(chunks))


@dataclass(frozen=True)
class ForwardResult:
    """The layer outputs for a batch: arrays from `forward` and `backward`,
    tape tensors from `forward_tensors`."""

    features: np.ndarray | Tensor    # (B, d_f)
    embeddings: np.ndarray | Tensor  # (B, d)
    cc_logits: np.ndarray | Tensor   # (B, K)
    id_logits: np.ndarray | Tensor   # (B, K) the detector's ID logit per class
    ood_logits: np.ndarray | Tensor  # (B, K) and its OOD logit


def _forward_core(spec: NetSpec, weights: Mapping, x, relu: Callable,
                  layer_inputs: dict | None = None):
    """Architecture shared by the numpy paths and the autodiff oracle.

    Returns f, z, cc, od; `layer_inputs`, if given, receives the input each
    linear layer read, by layer name, for the hand-written backward. On the
    numpy paths each bias is added, and `relu` applied, in place on the fresh
    product; a tape Tensor has no in-place add, so `+=` makes a new node.
    """
    def linear(name, a):
        if layer_inputs is not None:
            layer_inputs[name] = a
        out = a @ weights[f"{name}.W"]
        out += weights[f"{name}.b"]
        return out

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
    """The rectifier, in place on a layer's fresh output."""
    return np.maximum(v, 0.0, out=v)


def _result(spec: NetSpec, f, z, cc, od) -> ForwardResult:
    """The one place the detector's 2K outputs split into ID and OOD logits."""
    k = spec.num_classes
    return ForwardResult(f, z, cc, od[:, :k], od[:, k:])


def forward(params: ParamState, x) -> ForwardResult:
    """Deterministic forward pass over a (B, d_in) batch; validates every layer output."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.spec.input_dim:
        raise ValueError(f"expected (B, {params.spec.input_dim}) inputs, got {x.shape}")
    f, z, cc, od = _forward_core(params.spec, params.views, x, relu=_relu)
    _check_finite(f, z, cc, od)
    return _result(params.spec, f, z, cc, od)


def forward_tensors(spec: NetSpec, params: Mapping[str, Tensor], x) -> ForwardResult:
    """Forward pass on the autodiff tape; validates every layer output."""
    from .autodiff import Tensor, constant
    xt = constant(np.asarray(x, dtype=np.float64))
    f, z, cc, od = _forward_core(spec, params, xt, relu=Tensor.relu)
    _check_finite(f.data, z.data, cc.data, od.data)
    return _result(spec, f, z, cc, od)


def _check_finite(f, z, cc, od) -> None:
    for name, value in (("backbone", f), ("projection", z), ("classifier", cc), ("detector", od)):
        if not np.isfinite(value).all():
            raise ValueError(f"non-finite activation in layer '{name}'")


def backward(params: ParamState, x: np.ndarray,
             closure: Callable[[ForwardResult], tuple[float, Mapping[str, np.ndarray]]]
             ) -> np.ndarray:
    """Exact gradient of a scalar objective with respect to all parameters.

    `x` is a step's (N, d_in) batch, every view stacked. It is forwarded
    once; the closure receives the stacked ForwardResult and returns
    (loss, grads), where grads maps each head, "embeddings", "cc_logits",
    "id_logits" and "ood_logits", to the loss gradient w.r.t. that output
    over the whole batch. The gradient then flows back by hand through the
    layout: heads, projection, backbone. It is written into, and returned as,
    the vector of `params.grad`, which the next call on the same params
    overwrites.
    """
    spec = params.spec
    layer_inputs = {}
    f, z, cc, od = _forward_core(spec, params.views, x, relu=_relu, layer_inputs=layer_inputs)
    _check_finite(f, z, cc, od)
    loss, head_grads = closure(_result(spec, f, z, cc, od))
    if not np.isfinite(loss):
        raise ValueError("non-finite loss")
    g_z, g_cc = head_grads["embeddings"], head_grads["cc_logits"]
    g_od = np.concatenate([head_grads["id_logits"], head_grads["ood_logits"]], axis=1)

    flat, grad = params.grad
    ones = np.ones(len(x))  # a bias gradient is ones @ g

    def through(name: str, g: np.ndarray, inner: bool = True) -> np.ndarray | None:
        """Write a linear layer's weight gradients into its views of params.grad; return
        its input's gradient, which the network's inputs do not need."""
        np.matmul(layer_inputs[name].T, g, out=grad[f"{name}.W"])
        np.matmul(ones, g, out=grad[f"{name}.b"])
        return g @ params.views[f"{name}.W"].T if inner else None

    g = through("cc", g_cc) + through("od", g_od)  # the features' gradient
    g += through("proj0", through("proj1", g_z) * (layer_inputs["proj1"] > 0))
    for i in reversed(range(len(spec.backbone_widths) + 1)):
        g = through(f"backbone{i}", g, inner=i > 0)
        if i > 0:
            g *= layer_inputs[f"backbone{i}"] > 0
    return flat


def sgd_step(params: ParamState, grads: np.ndarray, lr: float, momentum: float,
             weight_decay: float, velocity: np.ndarray) -> None:
    """Classic momentum SGD, in place on params.flat and velocity; weight decay is
    added to the gradient. The operations and their order are those of
    `flat - lr * (momentum * velocity + (grads + weight_decay * flat))`, so the
    bits are too. A non-finite parameter after the step is a ValueError."""
    flat = params.flat
    velocity *= momentum
    velocity += grads + weight_decay * flat
    flat -= lr * velocity
    if not np.isfinite(flat).all():
        raise ValueError("parameters have non-finite entries")


def save_checkpoint(params: ParamState, path) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "spec": asdict(params.spec),
        "params_hex": [v.hex() for v in params.flat.tolist()],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> ParamState:
    """The saved state. A non-object root is a ValueError, and a number that overflows
    is an OverflowError. A `step` key, which older checkpoints carry, is ignored."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint root is a JSON {type(payload).__name__}, not an object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    spec = NetSpec(**payload["spec"])
    flat = np.array([float.fromhex(h) for h in payload["params_hex"]], dtype=np.float64)
    return ParamState(spec=spec, flat=flat)
