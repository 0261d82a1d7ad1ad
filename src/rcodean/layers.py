"""Dense layer with analytic forward and backward passes.

Layers consume and produce column-sample matrices: an input of shape
(in_dim, n) holds n samples side by side. The bias column is added to
every sample column; with n == 1 all gradient formulas reduce to the
single-sample chain rule exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import ACTIVATION_KINDS, Mat, activation


@dataclass
class DenseLayer:
    weight: Mat  # (out_dim, in_dim)
    bias: Mat    # (out_dim, 1)
    act: str
    name: str = "dense"

    def __post_init__(self):
        if self.bias.rows != self.weight.rows or self.bias.cols != 1:
            raise ShapeError(
                f"layer {self.name}: bias shape {self.bias.shape} does not match "
                f"weight rows {self.weight.rows}"
            )
        if self.act not in ACTIVATION_KINDS:
            raise ValueError(f"layer {self.name}: unknown activation {self.act!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.cols

    @property
    def out_dim(self) -> int:
        return self.weight.rows


@dataclass
class LayerCache:
    """Forward-pass bookkeeping needed by the backward pass."""
    input: Mat
    pre_activation: Mat
    output: Mat


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    """(out_dim, in_dim) weights drawn uniformly from +-sqrt(6/(in+out))."""
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def init_dense(in_dim: int, out_dim: int, act: str, rng: np.random.Generator,
               name: str = "dense") -> DenseLayer:
    """Glorot-uniform weights, zero bias."""
    return DenseLayer(Mat(glorot_uniform(rng, out_dim, in_dim), copy=False),
                      Mat.zeros(out_dim, 1), act, name)


def dense_forward(layer: DenseLayer, x: Mat, skip_in: Mat | None = None) -> LayerCache:
    """z = W x + b + skip_in (skip added pre-activation); output = act(z)."""
    if x.rows != layer.in_dim:
        raise ShapeError(
            f"layer {layer.name}: input has {x.rows} rows, expected {layer.in_dim}"
        )
    z = layer.weight.a @ x.a + layer.bias.a
    if skip_in is not None:
        if skip_in.shape != z.shape:
            raise ShapeError(
                f"layer {layer.name}: skip input shape {skip_in.shape} does not "
                f"match pre-activation shape {z.shape}"
            )
        z = z + skip_in.a
    zm = Mat(z, copy=False)
    return LayerCache(input=x, pre_activation=zm, output=activation(zm, layer.act))


def dense_backward(layer: DenseLayer, cache: LayerCache,
                   grad_out: Mat) -> tuple[Mat, Mat, Mat, Mat]:
    """Chain rule through one layer.

    delta = grad_out * act'(z). Returns (grad_in, grad_weight, grad_bias,
    grad_skip); grad_bias sums delta over sample columns, and grad_skip is
    delta itself since the skip enters the pre-activation additively.
    """
    if grad_out.shape != cache.output.shape:
        raise ShapeError(
            f"layer {layer.name}: grad_out shape {grad_out.shape} does not match "
            f"output shape {cache.output.shape}"
        )
    delta = grad_out.a * activation(cache.pre_activation, layer.act, "derivative").a
    return _grads_from_delta(layer, cache, delta)


def dense_backward_preact(layer: DenseLayer, cache: LayerCache,
                          delta: Mat) -> tuple[Mat, Mat, Mat, Mat]:
    """Backward step given the gradient at the pre-activation directly.

    Used where the loss-activation pair has a simplified combined gradient
    (sigmoid output with cross-entropy), avoiding a 0/0 at saturation.
    """
    if delta.shape != cache.pre_activation.shape:
        raise ShapeError(
            f"layer {layer.name}: delta shape {delta.shape} does not match "
            f"pre-activation shape {cache.pre_activation.shape}"
        )
    return _grads_from_delta(layer, cache, delta.a)


def _grads_from_delta(layer, cache, delta):
    grad_weight = delta @ cache.input.a.T
    grad_bias = delta.sum(axis=1, keepdims=True)
    grad_in = layer.weight.a.T @ delta
    return (Mat(grad_in, copy=False), Mat(grad_weight, copy=False),
            Mat(grad_bias, copy=False), Mat(delta))
