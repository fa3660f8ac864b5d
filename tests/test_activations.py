"""Activation registry: the four named activations."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from manifold_diffusion.activations import make_activation


def test_builtin_values():
    y = np.array([-2.0, 0.0, 1.5])
    assert np.allclose(make_activation("linear")(y), y)
    assert np.allclose(make_activation("tanh")(y), np.tanh(y))
    assert np.allclose(make_activation("relu")(y), [0.0, 0.0, 1.5])
    assert np.allclose(make_activation("sigmoid")(y), 1.0 / (1.0 + np.exp(-y)))


def test_sigmoid_reaches_0_without_an_overflow_warning():
    # exp(-y) overflows below y = -709.78, where 1 / (1 + inf) = 0 is the
    # limit; pyproject turns a RuntimeWarning into an error
    phi = make_activation("sigmoid")
    assert phi(-800.0) == 0.0
    assert np.array_equal(phi([-1e308, -800.0, -710.0]), [0.0, 0.0, 0.0])
    y = np.linspace(-709.0, 709.0, 2837)
    assert np.array_equal(phi(y), 1.0 / (1.0 + np.exp(-y)))


def test_builtin_parity_flags():
    assert make_activation("linear").is_odd
    assert make_activation("tanh").is_odd
    assert not make_activation("relu").is_odd
    assert not make_activation("sigmoid").is_odd


def test_point_symmetry_flags():
    # declared, not detected: psi_big halves its grid on these
    flags = {kind: make_activation(kind).point_symmetric
             for kind in ("linear", "tanh", "relu", "sigmoid")}
    assert flags == {"linear": True, "tanh": True, "relu": False,
                     "sigmoid": True}


@pytest.mark.parametrize("kind", ["linear", "tanh", "sigmoid"])
def test_point_symmetric_builtins_mirror_about_phi_0(kind):
    phi = make_activation(kind)
    x = np.linspace(-30.0, 30.0, 1201)
    assert np.allclose(phi(-x) + phi(x), 2.0 * phi(0.0), rtol=0.0, atol=1e-15)


@given(st.floats(min_value=-10.0, max_value=10.0),
       st.sampled_from(["linear", "tanh"]))
def test_odd_builtins_are_odd(y, kind):
    phi = make_activation(kind)
    assert phi(-y) == pytest.approx(-phi(y), abs=1e-12)


def test_unknown_kind_rejected():
    for kind in ("swish", "custom"):
        with pytest.raises(ValueError, match="unknown activation"):
            make_activation(kind)


def test_activation_casts_input_to_float_array():
    phi = make_activation("linear")
    out = phi([1, 2, 3])
    assert out.dtype == np.float64
