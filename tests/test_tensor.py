import numpy as np
import pytest

from rcodean.errors import NumericError, ShapeError
from rcodean.tensor import Mat, activation


def test_activation_relu_definition():
    out = activation(np.array([[-1.0, 0.0, 2.0]]), "relu")
    assert out.tolist() == [[0.0, 0.0, 2.0]]
    deriv = activation(np.array([[-1.0, 0.0, 2.0]]), "relu", "derivative")
    assert deriv.tolist() == [[0.0, 0.0, 1.0]]


def test_activation_sigmoid_analytic_values():
    z = np.array([[0.0]])
    assert activation(z, "sigmoid")[0, 0] == 0.5
    assert activation(z, "sigmoid", "derivative")[0, 0] == 0.25


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


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh", "linear"])
def test_activation_derivative_matches_finite_differences(kind):
    rng = np.random.default_rng(29)
    z = rng.uniform(-4.0, 4.0, size=1000)
    if kind == "relu":
        z = z[np.abs(z) > 1e-3]  # fd straddles the kink otherwise
    h = 1e-5
    up = activation(z.reshape(1, -1) + h, kind)
    down = activation(z.reshape(1, -1) - h, kind)
    numeric = (up - down) / (2 * h)
    analytic = activation(z.reshape(1, -1), kind, "derivative")
    assert np.abs(analytic - numeric).max() < 1e-6


def test_tanh_derivative_tight_tolerance():
    rng = np.random.default_rng(31)
    z = rng.uniform(-3.0, 3.0, size=200)
    h = 1e-5
    numeric = (np.tanh(z + h) - np.tanh(z - h)) / (2 * h)
    analytic = activation(z.reshape(1, -1), "tanh", "derivative").ravel()
    assert np.abs(analytic - numeric).max() < 1e-7


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
