import numpy as np
import pytest

from rcodean.errors import NumericError, ShapeError
from rcodean.layers import DenseLayer, dense_backward, dense_forward
from rcodean.tensor import Mat, activation


def _derivative(z, kind):
    """act'(z) as the backward pass applies it: the delta of an identity
    layer with pre-activation z under a gradient of ones."""
    layer = DenseLayer(np.eye(z.shape[0]), np.zeros((z.shape[0], 1)), kind)
    cache = dense_forward(layer, z)
    return dense_backward(layer, cache, np.ones_like(z))[3]


def test_activation_relu_definition():
    out = activation(np.array([[-1.0, 0.0, 2.0]]), "relu")
    assert out.tolist() == [[0.0, 0.0, 2.0]]
    # the derivative at exactly 0 is defined as 0
    deriv = _derivative(np.array([[-1.0], [0.0], [2.0]]), "relu")
    assert deriv.ravel().tolist() == [0.0, 0.0, 1.0]


def test_activation_sigmoid_analytic_values():
    z = np.array([[0.0]])
    assert activation(z, "sigmoid")[0, 0] == 0.5


def test_activation_sigmoid_stable_at_extremes():
    out = activation(np.array([[-800.0, 800.0]]), "sigmoid")
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0


def test_activation_sigmoid_matches_split_form_bitwise():
    # the textbook stable form: 1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z)) below
    rng = np.random.default_rng(31)
    z = np.concatenate([rng.normal(scale=20.0, size=504),
                        [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.7, -745.2]])
    ref = np.empty_like(z)
    pos = z >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ref[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
    assert np.array_equal(activation(z.reshape(-1, 8), "sigmoid").ravel(), ref)


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "linear"])
def test_activation_into_given_arrays_is_bitwise_the_same(kind):
    # a trainer's arrays, made once, receive the value a new array holds
    rng = np.random.default_rng(33)
    z = np.concatenate([rng.normal(scale=20.0, size=(3, 4, 40)),
                        np.full((3, 4, 1), -0.0), np.full((3, 4, 1), -800.0)], axis=-1)
    out, work = np.full_like(z, np.nan), np.full_like(z, np.nan)
    got = activation(z, kind, out, work)
    expected = activation(z, kind)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert got is (z if kind == "linear" else out)


@pytest.mark.parametrize("kind", ["relu", "linear"])
def test_activation_derivative_matches_finite_differences(kind):
    rng = np.random.default_rng(29)
    z = rng.uniform(-4.0, 4.0, size=1000)
    if kind == "relu":
        z = z[np.abs(z) > 1e-3]  # fd straddles the kink otherwise
    h = 1e-5
    up = activation(z.reshape(1, -1) + h, kind)
    down = activation(z.reshape(1, -1) - h, kind)
    numeric = (up - down) / (2 * h)
    analytic = _derivative(z.reshape(-1, 1), kind).reshape(1, -1)
    assert np.abs(analytic - numeric).max() < 1e-6


def test_mat_rejects_non_finite():
    with pytest.raises(NumericError):
        Mat([[1.0, np.nan]])
    with pytest.raises(NumericError):
        Mat([[np.inf]])


def test_mat_flat_data_is_row_major():
    m = Mat(np.asfortranarray([[1.0, 2.0], [3.0, 4.0]]))
    assert m.a.flags.c_contiguous
    assert m.a.reshape(-1).tolist() == [1.0, 2.0, 3.0, 4.0]
    assert m.rows == 2 and m.cols == 2


def test_mat_rejects_wrong_ndim_and_empty():
    with pytest.raises(ShapeError):
        Mat(np.zeros(3))
    with pytest.raises(ShapeError):
        Mat(np.zeros((0, 2)))
