"""Dense layer with analytic forward and backward passes.

Layers consume and produce column-sample matrices: an input of shape
(in_dim, n) holds n samples side by side. The bias column is added to
every sample column; with n == 1 all gradient formulas reduce to the
single-sample chain rule exactly. A layer may also be a stack of
same-shaped layers, weight (m, out_dim, in_dim) and bias (m, out_dim, 1),
run forward and backward on an (m, in_dim, n) input: slice i of each
result is layer i's on input i, bit for bit the 2-D call's. Everything
here is a plain float64 ndarray; shapes are checked, never broadcast.
Each pass takes an optional ``out`` of arrays made by the caller, which
receive its results in place of new arrays, with the same operations in
the same order and so the same bits: a trainer that runs a layer every
epoch makes its arrays once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import ACTIVATION_KINDS, activation


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out_dim, in_dim), or (m, out_dim, in_dim) for a stack
    bias: np.ndarray    # (out_dim, 1), or (m, out_dim, 1)
    act: str
    name: str = "dense"

    def __post_init__(self):
        w, b = self.weight.shape, self.bias.shape
        if len(w) < 2 or min(w) < 1 or b != (*w[:-1], 1):
            raise ShapeError(f"layer {self.name}: weight {w} and bias {b} are not "
                             f"(..., out_dim, in_dim) and (..., out_dim, 1)")
        if self.act not in ACTIVATION_KINDS:
            raise ValueError(f"layer {self.name}: unknown activation {self.act!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]


@dataclass
class LayerCache:
    """Forward-pass bookkeeping needed by the backward pass; an inference
    pass keeps no pre-activation."""
    input: np.ndarray
    pre_activation: np.ndarray | None
    output: np.ndarray


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    """(out_dim, in_dim) weights drawn uniformly from +-sqrt(6/(in+out))."""
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def dense_forward(layer: DenseLayer, x: np.ndarray,
                  skip_in: np.ndarray | None = None,
                  keep_preact: bool = True, out=None) -> LayerCache:
    """z = W x + b + skip_in (skip added pre-activation); output = act(z).

    The bias and the skip are added in place into the fresh W x; a linear
    layer's output is z itself. Without ``keep_preact`` (inference, where
    no backward pass reads z) a relu is applied in place into z too, and
    the cache holds no pre-activation. ``out``, a (pre_activation,
    output, work) triple of arrays shaped as z, receives z and, with
    ``keep_preact``, the output in place of new arrays; ``work`` takes a
    sigmoid's temporary and is not read by other activations.
    """
    if x.shape[:-1] != (*layer.weight.shape[:-2], layer.in_dim):
        raise ShapeError(
            f"layer {layer.name}: input shape {x.shape} does not have "
            f"{layer.in_dim} rows"
        )
    z_out, act_out, work = (None, None, None) if out is None else out
    z = np.matmul(layer.weight, x, out=z_out)
    if skip_in is not None and skip_in.shape != z.shape:
        raise ShapeError(
            f"layer {layer.name}: skip input shape {skip_in.shape} does not "
            f"match pre-activation shape {z.shape}"
        )
    z += layer.bias
    if skip_in is not None:
        z += skip_in
    if keep_preact:
        return LayerCache(input=x, pre_activation=z,
                          output=activation(z, layer.act, act_out, work))
    out = np.maximum(z, 0.0, out=z) if layer.act == "relu" else activation(z, layer.act)
    return LayerCache(input=x, pre_activation=None, output=out)


def dense_backward(layer: DenseLayer, cache: LayerCache, grad_out: np.ndarray,
                   input_grad: bool = True, out=None) -> tuple[np.ndarray | None, ...]:
    """Chain rule through one relu or linear layer.

    delta = grad_out * act'(z): grad_out itself for a linear layer, and
    grad_out masked by z > 0 for a relu (relu'(0) is defined as 0, which
    keeps gradients sparse). Returns (grad_in, grad_weight, grad_bias,
    grad_skip); grad_bias sums delta over sample columns, and grad_skip
    is delta itself since the skip enters the pre-activation additively.
    grad_in is None when ``input_grad`` is false (a first layer, whose
    input gradient nothing reads). ``out``, arrays shaped as the returned
    (grad_in, grad_weight, grad_bias, delta), grad_in's None when
    ``input_grad`` is false, receives them in place of new arrays; a
    relu's mask z > 0 is made in the delta array, as 1.0 and 0.0, and a
    linear layer's delta is grad_out itself. Any other layer is
    differentiated at its pre-activation with ``dense_backward_preact``.
    """
    if grad_out.shape != cache.output.shape:
        raise ShapeError(
            f"layer {layer.name}: grad_out shape {grad_out.shape} does not match "
            f"output shape {cache.output.shape}"
        )
    grad_in, grad_weight, grad_bias, delta = (None,) * 4 if out is None else out
    if layer.act == "linear":
        delta = grad_out
    elif layer.act == "relu":
        mask = np.greater(cache.pre_activation, 0.0, out=delta)
        delta = np.multiply(grad_out, mask, out=delta)
    else:
        raise ValueError(f"layer {layer.name}: dense_backward differentiates relu and "
                         f"linear layers; pass the gradient at a {layer.act} layer's "
                         f"pre-activation to dense_backward_preact")
    return _grads_from_delta(layer, cache, delta, input_grad, (grad_in, grad_weight, grad_bias))


def dense_backward_preact(layer: DenseLayer, cache: LayerCache,
                          delta: np.ndarray, out=None) -> tuple[np.ndarray, ...]:
    """Backward step given the gradient at the pre-activation directly.

    Used where the loss-activation pair has a simplified combined gradient
    (sigmoid output with cross-entropy), avoiding a 0/0 at saturation.
    ``out`` is as for ``dense_backward``; its delta array is not written,
    the delta being given.
    """
    if delta.shape != cache.pre_activation.shape:
        raise ShapeError(
            f"layer {layer.name}: delta shape {delta.shape} does not match "
            f"pre-activation shape {cache.pre_activation.shape}"
        )
    return _grads_from_delta(layer, cache, delta, out=None if out is None else out[:3])


def _grads_from_delta(layer, cache, delta, input_grad=True, out=None):
    grad_in, grad_weight, grad_bias = (None, None, None) if out is None else out
    grad_weight = np.matmul(delta, np.swapaxes(cache.input, -1, -2), out=grad_weight)
    grad_bias = np.sum(delta, axis=-1, keepdims=True, out=grad_bias)
    grad_in = (np.matmul(np.swapaxes(layer.weight, -1, -2), delta, out=grad_in)
               if input_grad else None)
    return grad_in, grad_weight, grad_bias, delta
