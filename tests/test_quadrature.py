"""Quadrature helpers against analytic Gaussian moments."""
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.special import roots_hermite
from scipy.stats import norm

from manifold_diffusion.activations import make_activation
from manifold_diffusion.quadrature import normal_moments, std_normal_grid, std_normal_nodes


def test_nodes_reproduce_low_moments():
    z, w = std_normal_nodes(16)
    # E[1] = 1, E[u] = 0, E[u^2] = 1, E[u^4] = 3, E[u^6] = 15
    assert abs(w.sum() - 1.0) < 1e-14
    assert abs(w @ z) < 1e-14
    assert abs(w @ z**2 - 1.0) < 1e-12
    assert abs(w @ z**4 - 3.0) < 1e-12
    assert abs(w @ z**6 - 15.0) < 1e-11


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=8, max_value=64))
def test_even_moments_exact_below_polynomial_degree(k, n):
    # E[u^{2k}] = (2k - 1)!! whenever 2k < 2n - 1
    assume(2 * k < 2 * n - 1)
    z, w = std_normal_nodes(n)
    expected = float(np.prod(np.arange(2 * k - 1, 0, -2))) if k > 0 else 1.0
    assert w @ z ** (2 * k) == pytest.approx(expected, rel=1e-9)


# every order the package and its tests use: the sweep's 10 and 48, the
# CLI's 12, 16 and 24, psi_big's 96, and GammaFunctions' doublings to 2048
@pytest.mark.parametrize("n", [*range(2, 65), 96, 128, 256, 512, 1024, 2048])
def test_nodes_match_scipy_gauss_hermite(n):
    x, w = roots_hermite(n)
    z_ref, w_ref = np.sqrt(2.0) * x, w / np.sqrt(np.pi)
    z, w = std_normal_nodes(n)
    # the two rules differ by up to 6.4e-14, at n = 2048
    assert np.abs(z - z_ref).max() <= 1e-13
    # the tail weights of high orders underflow in both
    big = w_ref > 1e-300
    assert np.all(np.abs(w - w_ref)[big] <= 5e-12 * w_ref[big])
    assert np.all(w[~big] < 1e-290)
    assert np.array_equal(z, -z[::-1]) and np.array_equal(w, w[::-1])


def test_nodes_rejects_tiny_order():
    with pytest.raises(ValueError):
        std_normal_nodes(1)


def test_nodes_are_read_only():
    z, w = std_normal_nodes(8)
    with pytest.raises(ValueError):
        z[0] = 0.0


def test_grid_product_moments():
    (z1, z2), w = std_normal_grid(24, 2)
    assert z1.shape == z2.shape == w.shape == (24 * 24,)
    assert abs(w.sum() - 1.0) < 1e-13
    # independence: E[z1^2 z2^2] = 1, E[z1 z2] = 0
    assert abs(w @ (z1**2 * z2**2) - 1.0) < 1e-11
    assert abs(w @ (z1 * z2)) < 1e-13


def test_grid_three_dimensional():
    (a, b, c), w = std_normal_grid(8, 3)
    assert a.shape == (8**3,)
    assert abs(w @ (a**2 + b**2 + c**2) - 3.0) < 1e-11



# rows of (mean, var): each row is averaged at its own mean and variance
_MEAN = np.array([[-2.0], [0.0], [0.7]])
_VAR = np.array([0.25, 1.0, 3.0, 7.5])


def test_moments_of_linear_rows_in_closed_form():
    g0, g1, g2 = normal_moments(make_activation("linear"), _MEAN, _VAR, 16)
    assert g0.shape == g1.shape == g2.shape == (3, 4)
    assert np.abs(g0 - _MEAN).max() <= 1e-12
    assert np.abs(g1 - np.sqrt(_VAR)).max() <= 1e-12
    assert np.abs(g2 - (_MEAN ** 2 + _VAR)).max() <= 1e-12


def test_mean_of_relu_rows_in_closed_form():
    # E max(X, 0) = m Phi(m / s) + s phi(m / s).  The kink at 0 leaves the
    # Gauss-Hermite rule algebraic convergence only: at 1024 nodes these rows
    # are off by up to 2.3e-4 (1.6e-4 at 2048), so 1e-3 checks which row has
    # which (mean, var), not a digit count.  With the kink beyond every node
    # (50 / sqrt(7.5) = 18.3 > 14.9, the largest of 64) the rule is exact
    m, s = _MEAN, np.sqrt(_VAR)
    want = m * norm.cdf(m / s) + s * norm.pdf(m / s)
    assert np.abs(normal_moments(make_activation("relu"), m, _VAR, 1024)[0] - want).max() <= 1e-3
    far = normal_moments(make_activation("relu"), 50.0, _VAR, 64)[0]
    assert np.abs(far - 50.0).max() <= 1e-12


@pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
def test_moments_of_smooth_rows_against_monte_carlo(kind):
    phi, mean, var = make_activation(kind), np.array([-1.5, 0.3, 2.0]), np.array([0.5, 1.0, 3.0])
    got = normal_moments(phi, mean, var, 128)
    u = np.random.default_rng(3).standard_normal(1_000_000)
    vals = phi(mean[:, None] + np.sqrt(var)[:, None] * u)
    for moment, draws in zip(got, (vals, vals * u, vals * vals)):
        stderr = draws.std(axis=1) / np.sqrt(u.size)
        assert np.all(np.abs(moment - draws.mean(axis=1)) <= 5 * stderr), kind


@pytest.mark.parametrize("kind", ["linear", "tanh", "sigmoid"])
def test_moments_at_one_variance_keep_the_bytes_of_the_row_sum(kind):
    # the expression the speciation theory summed by hand before the rule
    phi, rho, y = make_activation(kind), 0.7, np.linspace(-6.0, 6.0, 25)
    u, w = std_normal_nodes(128)
    vals = phi(np.sqrt(rho) * u[None, :] + y[:, None])
    want = (vals @ w, (vals * u[None, :]) @ w, (vals * vals) @ w)
    got = normal_moments(phi, y, rho, 128)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
