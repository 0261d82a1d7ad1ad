import numpy as np
import pytest

from rcodean.errors import ShapeError
from rcodean.layers import (DenseLayer, dense_backward, dense_forward,
                            dense_backward_preact, glorot_uniform)
from rcodean.tensor import activation


def _layer(w, b, act, name="test"):
    return DenseLayer(np.array(w, dtype=np.float64), np.array(b, dtype=np.float64), act, name)


def _random_layer(in_dim, out_dim, act, rng, name="dense"):
    """Glorot-uniform weights, zero bias."""
    return DenseLayer(glorot_uniform(rng, out_dim, in_dim), np.zeros((out_dim, 1)), act, name)


def _stacked(layers, name):
    """One layer of ``layers``' weights and biases stacked, as the model set
    holds the patch encoders and the heads."""
    return DenseLayer(np.stack([layer.weight for layer in layers]),
                      np.stack([layer.bias for layer in layers]), layers[0].act, name)


def _column(values):
    return np.array(values, dtype=np.float64).reshape(-1, 1)


def test_forward_residual_passthrough_at_zero_weights():
    layer = _layer(np.zeros((3, 3)), np.zeros((3, 1)), "relu")
    s = _column([0.5, 0.0, 2.0])
    cache = dense_forward(layer, _column([9.0, 9.0, 9.0]), skip_in=s)
    assert np.array_equal(cache.output, s)


def test_forward_identity_relu():
    layer = _layer(np.eye(2), np.zeros((2, 1)), "relu")
    cache = dense_forward(layer, _column([1.0, -1.0]))
    assert cache.output.ravel().tolist() == [1.0, 0.0]


def test_forward_matches_recomputation_oracle():
    rng = np.random.default_rng(41)
    for act in ("relu", "sigmoid", "linear"):
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=(4, 1))
        x = rng.normal(size=(6, 3))
        skip = rng.normal(size=(4, 3))
        layer = _layer(w, b, act)
        cache = dense_forward(layer, x, skip_in=skip)
        z = w @ x + b + skip
        assert np.allclose(cache.pre_activation, z, atol=0, rtol=1e-15)
        assert np.allclose(cache.output, activation(z, act), atol=0, rtol=1e-15)


def test_forward_shape_error_names_layer():
    layer = _random_layer(4, 3, "relu", np.random.default_rng(0), name="enc2")
    with pytest.raises(ShapeError, match="enc2"):
        dense_forward(layer, np.zeros((5, 1)))
    with pytest.raises(ShapeError, match="enc2"):
        dense_forward(layer, np.zeros((4, 1)), skip_in=np.zeros((2, 1)))


def test_backward_zero_upstream_gradient():
    rng = np.random.default_rng(43)
    layer = _random_layer(5, 4, "relu", rng)
    cache = dense_forward(layer, rng.normal(size=(5, 1)))
    grad_in, gw, gb, gs = dense_backward(layer, cache, np.zeros((4, 1)))
    for g in (grad_in, gw, gb, gs):
        assert np.count_nonzero(g) == 0


def test_backward_hand_computed_sigmoid():
    # a sigmoid layer is differentiated at its pre-activation only, so it
    # can never get relu's mask
    layer = _layer([[1.0]], [[0.0]], "sigmoid")
    cache = dense_forward(layer, np.array([[0.0]]))
    with pytest.raises(ValueError, match="dense_backward_preact"):
        dense_backward(layer, cache, np.array([[1.0]]))
    s = cache.output[0, 0]
    grad_in, gw, gb, gs = dense_backward_preact(layer, cache, np.array([[s * (1 - s)]]))
    assert gw[0, 0] == 0.0       # delta * input = 0.25 * 0
    assert gb[0, 0] == 0.25      # sigmoid'(0)
    assert grad_in[0, 0] == 0.25
    assert gs[0, 0] == 0.25


def test_backward_grad_skip_equals_grad_bias():
    rng = np.random.default_rng(47)
    for _ in range(10):
        layer = _random_layer(6, 3, "relu", rng)
        cache = dense_forward(layer, rng.normal(size=(6, 1)),
                              skip_in=rng.normal(size=(3, 1)))
        _, _, gb, gs = dense_backward(layer, cache, rng.normal(size=(3, 1)))
        assert np.array_equal(gb, gs)


def _fd_check(layer, x, skip, h=1e-6):
    """L = sum(output); finite differences over every parameter entry."""
    def loss():
        return float(dense_forward(layer, x, skip_in=skip).output.sum())

    cache = dense_forward(layer, x, skip_in=skip)
    ones = np.ones_like(cache.output)
    grad_in, gw, gb, gs = dense_backward(layer, cache, ones)
    checks = [(layer.weight, gw), (layer.bias, gb), (x, grad_in)]
    if skip is not None:
        checks.append((skip, gs))
    for arr, analytic in checks:
        flat = arr.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            num = (up - down) / (2 * h)
            assert abs(aflat[i] - num) <= max(1e-6, 1e-4 * max(abs(aflat[i]), abs(num)))


def test_backward_matches_finite_differences_random_layers():
    rng = np.random.default_rng(53)
    acts = ("relu", "linear")
    done = 0
    while done < 100:
        act = acts[done % len(acts)]
        layer = _random_layer(5, 4, act, rng)
        x = rng.normal(size=(5, 1))
        skip = rng.normal(size=(4, 1)) if done % 2 else None
        cache = dense_forward(layer, x, skip_in=skip)
        if act == "relu" and np.abs(cache.pre_activation).min() < 1e-3:
            continue  # reject draws near the kink
        _fd_check(layer, x, skip)
        done += 1


def test_backward_batch_bias_sums_columns():
    rng = np.random.default_rng(59)
    layer = _random_layer(3, 2, "linear", rng)
    x = rng.normal(size=(3, 4))
    cache = dense_forward(layer, x)
    g = rng.normal(size=(2, 4))
    _, _, gb, gs = dense_backward(layer, cache, g)
    assert np.allclose(gb, gs.sum(axis=1, keepdims=True), rtol=1e-15)


def test_backward_preact_bypasses_activation_derivative():
    rng = np.random.default_rng(61)
    layer = _random_layer(4, 2, "sigmoid", rng)
    x = rng.normal(size=(4, 1))
    cache = dense_forward(layer, x)
    delta = rng.normal(size=(2, 1))
    grad_in, gw, gb, gs = dense_backward_preact(layer, cache, delta)
    assert np.allclose(gw, delta @ x.T, rtol=1e-15)
    assert np.allclose(grad_in, layer.weight.T @ delta, rtol=1e-15)
    assert np.array_equal(gb, delta)
    assert np.array_equal(gs, delta)


def test_relu_and_linear_paths_match_reference_formulas():
    # the in-place bias and skip adds, the linear output and delta, and the
    # relu mask give exactly the arrays of the straightforward formulas
    rng = np.random.default_rng(71)
    for act, out_dim in (("relu", 8), ("linear", 12)):
        layer = _random_layer(8, out_dim, act, rng)
        layer.bias[:] = rng.normal(size=(out_dim, 1))
        x = rng.normal(size=(8, 6))
        skip = rng.normal(size=(out_dim, 6))
        g = rng.normal(size=(out_dim, 6))
        cache = dense_forward(layer, x, skip_in=skip)
        z = layer.weight @ x + layer.bias + skip
        assert np.array_equal(cache.pre_activation, z)
        if act == "relu":
            assert np.array_equal(cache.output, np.maximum(z, 0.0))
            delta = g * (z > 0).astype(np.float64)
        else:
            assert np.array_equal(cache.output, z.copy())
            delta = g * np.ones_like(z)
        grad_in, gw, gb, gs = dense_backward(layer, cache, g)
        assert np.array_equal(gs, delta)
        assert np.array_equal(gw, delta @ x.T)
        assert np.array_equal(gb, delta.sum(axis=1, keepdims=True))
        assert np.array_equal(grad_in, layer.weight.T @ delta)
        none_in, *rest = dense_backward(layer, cache, g, input_grad=False)
        assert none_in is None
        assert all(np.array_equal(a, b) for a, b in zip(rest, (gw, gb, gs)))


@pytest.mark.parametrize("act", ["relu", "sigmoid", "linear"])
def test_stacked_layer_matches_each_layer_bitwise(act):
    rng = np.random.default_rng(73)
    layers = [_random_layer(48, 16, act, rng) for _ in range(3)]
    for layer in layers:
        layer.bias[:] = rng.normal(size=(16, 1))
    stacked = _stacked(layers, "stacked")
    assert stacked.weight.shape == (3, 16, 48) and stacked.bias.shape == (3, 16, 1)
    assert (stacked.in_dim, stacked.out_dim) == (48, 16)
    for n in (1, 5, 64):
        x = rng.normal(size=(3, 48, n))
        skip = rng.normal(size=(3, 16, n))
        for keep_preact in (True, False):
            out = dense_forward(stacked, x, skip, keep_preact=keep_preact).output
            for i, layer in enumerate(layers):
                assert np.array_equal(out[i], dense_forward(layer, x[i], skip[i]).output)
    inference = dense_forward(stacked, x, keep_preact=False)
    assert inference.pre_activation is None


@pytest.mark.parametrize("act", ["relu", "sigmoid", "linear"])
def test_forward_into_given_arrays_is_bitwise_the_same(act):
    # a stacked forward writing into arrays made once, as head training
    # runs it every epoch, gives the arrays a forward into new ones gives
    rng = np.random.default_rng(79)
    layers = [_random_layer(32, 16, act, rng) for _ in range(3)]
    stacked = _stacked(layers, "stacked")
    stacked.bias[:] = rng.normal(size=stacked.bias.shape)
    out = tuple(np.full((3, 16, 200), np.nan) for _ in range(3))
    for _ in range(2):  # the second pass overwrites the first
        x = rng.normal(size=(3, 32, 200))
        cache = dense_forward(stacked, x, out=out)
        fresh = dense_forward(stacked, x)
        assert cache.pre_activation is out[0] and cache.input is x
        assert cache.output is (out[0] if act == "linear" else out[1])
        assert np.array_equal(cache.pre_activation, fresh.pre_activation)
        assert np.array_equal(cache.output, fresh.output)


@pytest.mark.parametrize("act", ["relu", "linear", "sigmoid"])
@pytest.mark.parametrize("shape", [(48, 16, 1), (64, 32, 200), (32, 16, 1000)])
def test_stacked_backward_matches_each_layer_bitwise(act, shape):
    # relu and linear layers through dense_backward, every activation at
    # its pre-activation through dense_backward_preact, also into out
    # buffers, as a stacked head's training runs them
    in_dim, out_dim, n = shape
    rng = np.random.default_rng(83)
    layers = [_random_layer(in_dim, out_dim, act, rng) for _ in range(3)]
    stacked = _stacked(layers, "stacked")
    x = rng.normal(size=(3, in_dim, n))
    upstream = rng.normal(size=(3, out_dim, n))
    cache = dense_forward(stacked, x)
    calls = [lambda layer, c, g, out: dense_backward_preact(layer, c, g, out=out)]
    if act != "sigmoid":
        calls += [lambda layer, c, g, out: dense_backward(layer, c, g, out=out),
                  lambda layer, c, g, out: dense_backward(layer, c, g, input_grad=False,
                                                          out=out)]
    buffers = (np.empty(x.shape), np.empty(stacked.weight.shape),
               np.empty(stacked.bias.shape), np.empty(upstream.shape))
    for backward in calls:
        for out in (None, buffers):
            got = backward(stacked, cache, upstream, out)
            if out is not None:  # every result computed here is in its buffer
                assert all(g is None or g is buf or g is upstream
                           for g, buf in zip(got, out))
            for i, layer in enumerate(layers):
                expected = backward(layer, dense_forward(layer, x[i]), upstream[i], None)
                for g, e in zip(got, expected):
                    assert (g is None) == (e is None)
                    assert g is None or np.array_equal(g[i], e)


def test_stacked_layer_shape_checks():
    rng = np.random.default_rng(79)
    stacked = _stacked([_random_layer(6, 4, "relu", rng) for _ in range(2)], "s")
    for bad in (np.zeros((3, 6, 1)), np.zeros((6, 1)), np.zeros((2, 5, 1))):
        with pytest.raises(ShapeError, match="s: input"):
            dense_forward(stacked, bad)
    with pytest.raises(ShapeError):
        dense_forward(stacked, np.zeros((2, 6, 1)), skip_in=np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        DenseLayer(np.zeros((2, 4, 6)), np.zeros((4, 1)), "relu")


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(67)
    weight = glorot_uniform(rng, 20, 30)
    bound = np.sqrt(6.0 / 50)
    assert weight.shape == (20, 30)
    assert np.abs(weight).max() <= bound
