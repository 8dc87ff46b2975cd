import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovbnn.network import (
    NetworkParams,
    NetworkShape,
    PassBuffers,
    forward,
    loglik,
    loglik_and_grad,
    membership,
    truncate,
)


def random_params(shape, rng, scale=0.5):
    return NetworkParams.from_flat(shape, scale * rng.standard_normal(shape.n_params))


class TestShapes:
    def test_param_count(self):
        shape = NetworkShape(d_in=1, hidden_widths=(4, 4))
        # (1*4 + 4) + (4*4 + 4) + (4*1 + 1) = 33
        assert shape.n_params == 33
        assert shape.layer_widths == (1, 4, 4, 1)
        assert shape.depth == 2

    def test_dict_roundtrip(self):
        shape = NetworkShape(d_in=2, hidden_widths=(5, 3))
        assert NetworkShape.from_dict(shape.to_dict()) == shape

    def test_invalid(self):
        with pytest.raises(ValueError):
            NetworkShape(d_in=0, hidden_widths=(3,))
        with pytest.raises(ValueError):
            NetworkShape(d_in=1, hidden_widths=())

    @pytest.mark.parametrize("d_in, widths", [(1.0, (3,)), (1, (2.5,)), (True, (3,)),
                                              (1, (True, 3))])
    def test_sizes_must_be_integers(self, d_in, widths):
        with pytest.raises(TypeError):
            NetworkShape(d_in=d_in, hidden_widths=widths)

    def test_numpy_integers_are_sizes(self):
        shape = NetworkShape(d_in=np.int64(1), hidden_widths=(np.int32(4),))
        assert shape == NetworkShape(d_in=1, hidden_widths=(4,))
        assert type(shape.d_in) is int and type(shape.hidden_widths[0]) is int


class TestFlatten:
    def test_roundtrip(self):
        shape = NetworkShape(d_in=2, hidden_widths=(3, 5))
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(shape.n_params)
        np.testing.assert_array_equal(
            NetworkParams.from_flat(shape, theta).flatten(), theta
        )

    def test_layout(self):
        # layer-major, weights (row-major) before biases
        shape = NetworkShape(d_in=2, hidden_widths=(2,))
        theta = np.arange(1.0, 10.0)  # 2*2 + 2 + 2*1 + 1 = 9
        p = NetworkParams.from_flat(shape, theta)
        np.testing.assert_array_equal(p.weights[0], [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(p.biases[0], [5.0, 6.0])
        np.testing.assert_array_equal(p.weights[1], [[7.0], [8.0]])
        np.testing.assert_array_equal(p.biases[1], [9.0])

    def test_length_check(self):
        shape = NetworkShape(d_in=1, hidden_widths=(3,))
        with pytest.raises(ValueError):
            NetworkParams.from_flat(shape, np.zeros(shape.n_params + 1))

    def test_immutability(self):
        p = NetworkParams.zeros(NetworkShape(d_in=1, hidden_widths=(2,)))
        with pytest.raises(ValueError):
            p.weights[0][0, 0] = 1.0

    def test_from_flat_gives_read_only_views(self):
        shape = NetworkShape(d_in=2, hidden_widths=(3, 2))
        theta = np.arange(float(shape.n_params))
        p = NetworkParams.from_flat(shape, theta)
        for a in p.weights + p.biases:
            assert np.shares_memory(a, theta)
            assert not a.flags.writeable
        assert theta.flags.writeable
        theta[0] = -7.0  # later writes to theta show through
        assert p.weights[0][0, 0] == -7.0


class TestForward:
    def test_hand_computed(self):
        # f(x) = w2 . relu(w1 x + b1) + b2 with w1 = (1, -1), b1 = (0, 0.5),
        # w2 = (1, 1), b2 = 0.2, in the flattening order
        shape = NetworkShape(d_in=1, hidden_widths=(2,))
        p = NetworkParams.from_flat(shape, [1.0, -1.0, 0.0, 0.5, 1.0, 1.0, 0.2])
        # x = 0: relu(0, 0.5) = (0, 0.5) -> 0.7
        assert forward(p, [0.0]) == pytest.approx(0.7)
        # x = 1: relu(1, -0.5) = (1, 0) -> 1.2
        assert forward(p, [1.0]) == pytest.approx(1.2)
        # batch evaluation agrees
        out = forward(p, np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(out, [0.7, 1.2])

    def test_zero_network_constant(self):
        p = NetworkParams.zeros(NetworkShape(d_in=1, hidden_widths=(4, 4)))
        assert forward(p, [0.3]) == 0.0

    def test_positive_homogeneity(self):
        # scaling first-layer weights and biases by c > 0 scales a
        # bias-free-output one-hidden-layer net by c
        shape = NetworkShape(d_in=1, hidden_widths=(3,))
        rng = np.random.default_rng(4)
        theta = random_params(shape, rng).flatten().copy()
        c = 2.5
        theta[-1] = 0.0  # the output bias
        base = NetworkParams.from_flat(shape, theta)
        theta = theta.copy()
        theta[:6] *= c  # the first layer's weights (1, 3) and biases (3,)
        scaled = NetworkParams.from_flat(shape, theta)
        xs = rng.uniform(0, 1, 20)
        for x in xs:
            assert forward(scaled, [x]) == pytest.approx(c * forward(base, [x]), rel=1e-12)

    def test_dimension_error(self):
        p = NetworkParams.zeros(NetworkShape(d_in=2, hidden_widths=(3,)))
        with pytest.raises(ValueError):
            forward(p, np.ones((4, 3)))


class TestMembership:
    def test_inside(self):
        shape = NetworkShape(d_in=1, hidden_widths=(3, 3))
        theta = np.zeros(shape.n_params)
        theta[:5] = [0.5, -1.0, 0.25, 2.0, -2.0]
        p = NetworkParams.from_flat(shape, theta)
        assert membership(p, L=2, W=3, S=5, B=2.0)
        assert not membership(p, L=2, W=3, S=4, B=2.0)  # too many nonzeros
        assert not membership(p, L=2, W=3, S=5, B=1.9)  # sup norm too big
        assert not membership(p, L=3, W=3, S=5, B=2.0)  # wrong depth
        assert not membership(p, L=2, W=4, S=5, B=2.0)  # wrong width


class TestTruncate:
    def test_threshold(self):
        shape = NetworkShape(d_in=1, hidden_widths=(2,))
        theta = np.array([0.05, -0.05, 0.2, -0.2, 0.1, -1.0, 0.1001])
        p = truncate(NetworkParams.from_flat(shape, theta), 0.1)
        np.testing.assert_array_equal(
            p.flatten(), [0.0, 0.0, 0.2, -0.2, 0.0, -1.0, 0.1001]
        )

    def test_zero_is_identity(self):
        shape = NetworkShape(d_in=1, hidden_widths=(3,))
        p = random_params(shape, np.random.default_rng(1))
        assert truncate(p, 0.0) is p

    def test_idempotent(self):
        shape = NetworkShape(d_in=1, hidden_widths=(4,))
        p = random_params(shape, np.random.default_rng(2))
        once = truncate(p, 0.3)
        twice = truncate(once, 0.3)
        np.testing.assert_array_equal(once.flatten(), twice.flatten())

    def test_negative_raises(self):
        p = NetworkParams.zeros(NetworkShape(d_in=1, hidden_widths=(2,)))
        with pytest.raises(ValueError):
            truncate(p, -0.1)

    def test_perturbation_bound(self):
        # sup |f_theta - f_{T_a theta}| <= a L (B v 1)^{L-1} (W+1)^L for
        # networks with sup norm <= B on [0,1]
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 1.0, 1000)[:, None]
        for _ in range(20):
            L = int(rng.integers(1, 4))
            W = int(rng.integers(2, 9))
            shape = NetworkShape(d_in=1, hidden_widths=(W,) * L)
            B = 1.5
            theta = rng.uniform(-B, B, shape.n_params)
            p = NetworkParams.from_flat(shape, theta)
            a = 10.0 ** rng.uniform(-4, -1)
            q = truncate(p, a)
            diff = np.max(np.abs(forward(p, grid) - forward(q, grid)))
            # depth counts the L hidden layers plus the output layer
            depth = L + 1
            bound = a * depth * max(B, 1.0) ** (depth - 1) * (W + 1) ** depth
            assert diff <= bound * (1 + 1e-12)


class TestLoglikGrad:
    def test_loglik_value(self):
        # zero network, y = (1, -1), sigma = 1: loglik = -log(2 pi) - 1
        shape = NetworkShape(d_in=1, hidden_widths=(2,))
        p = NetworkParams.zeros(shape)
        ll, _ = loglik_and_grad(p, [[0.2], [0.8]], [1.0, -1.0], sigma=1.0)
        assert ll == pytest.approx(-math.log(2 * math.pi) - 1.0)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_gradient_matches_finite_differences(self, depth):
        rng = np.random.default_rng(100 + depth)
        shape = NetworkShape(d_in=1, hidden_widths=(4,) * depth)
        theta = 0.5 * rng.standard_normal(shape.n_params)
        x = rng.uniform(0, 1, (12, 1))
        y = rng.standard_normal(12)
        sigma = 0.3

        def ll(t):
            return loglik_and_grad(NetworkParams.from_flat(shape, t), x, y, sigma)[0]

        _, grad = loglik_and_grad(NetworkParams.from_flat(shape, theta), x, y, sigma)
        h = 1e-5
        idx = rng.choice(shape.n_params, size=min(20, shape.n_params), replace=False)
        for i in idx:
            e = np.zeros_like(theta)
            e[i] = h
            fd = (ll(theta + e) - ll(theta - e)) / (2 * h)
            denom = max(abs(fd), abs(grad[i]), 1e-8)
            assert abs(grad[i] - fd) / denom < 1e-5, f"coord {i}"

    def test_gradient_at_optimum(self):
        # when y equals the network output exactly the gradient is zero
        shape = NetworkShape(d_in=1, hidden_widths=(3,))
        p = random_params(shape, np.random.default_rng(5))
        x = np.linspace(0.1, 0.9, 7)[:, None]
        y = forward(p, x)
        _, grad = loglik_and_grad(p, x, y, sigma=0.5)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_invalid_sigma(self):
        p = NetworkParams.zeros(NetworkShape(d_in=1, hidden_widths=(2,)))
        with pytest.raises(ValueError):
            loglik_and_grad(p, [[0.0]], [0.0], sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.5, 1e200, 1e-200])
    def test_sigma_needs_a_positive_finite_square(self, sigma):
        # 1e200 squares past the largest double and 1e-200 to 0: a
        # ValueError, not an OverflowError or a NaN log-likelihood
        p = NetworkParams.zeros(NetworkShape(d_in=1, hidden_widths=(2,)))
        for evaluate in (loglik, loglik_and_grad):
            with pytest.raises(ValueError, match="sigma"):
                evaluate(p, [[0.0]], [0.0], sigma)


# Random geometries: 1-3 inputs, 1-3 hidden layers of width 1-6.
shapes = st.builds(
    NetworkShape,
    d_in=st.integers(1, 3),
    hidden_widths=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
)


def relu_pattern(shape, theta, x):
    """Which hidden units are active at each input."""
    p = NetworkParams.from_flat(shape, theta)
    h, active = x, []
    for w, b in zip(p.weights[:-1], p.biases[:-1]):
        z = h @ w + b
        active.append((z > 0).ravel())
        h = np.maximum(z, 0.0)
    return np.concatenate(active)


class TestProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(shape=shapes, data=st.data())
    def test_flatten_roundtrip(self, shape, data):
        theta = np.array(data.draw(st.lists(
            st.floats(allow_nan=False, width=64),
            min_size=shape.n_params, max_size=shape.n_params,
        )))
        params = NetworkParams.from_flat(shape, theta)
        assert [w.shape for w in params.weights] == [
            (a, b) for a, b in zip(shape.layer_widths, shape.layer_widths[1:])
        ]
        flat = params.flatten()
        assert flat.tobytes() == theta.tobytes()
        again = NetworkParams.from_flat(shape, flat)
        for a, b in zip(again.weights + again.biases, params.weights + params.biases):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=40, deadline=None, database=None)
    @given(shape=shapes, n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    def test_gradient_matches_finite_differences(self, shape, n, seed):
        rng = np.random.default_rng(seed)
        theta = 0.5 * rng.standard_normal(shape.n_params)
        x = rng.uniform(0, 1, (n, shape.d_in))
        y = rng.standard_normal(n)
        sigma = 0.3

        def ll(t):
            return loglik_and_grad(NetworkParams.from_flat(shape, t), x, y, sigma)[0]

        _, grad = loglik_and_grad(NetworkParams.from_flat(shape, theta), x, y, sigma)
        assert grad.shape == theta.shape
        base = relu_pattern(shape, theta, x)
        h = 1e-6
        for i in range(shape.n_params):
            e = np.zeros_like(theta)
            e[i] = h
            # a unit crossing its kink makes the difference quotient meaningless
            if not (np.array_equal(relu_pattern(shape, theta + e, x), base)
                    and np.array_equal(relu_pattern(shape, theta - e, x), base)):
                continue
            fd = (ll(theta + e) - ll(theta - e)) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(grad[i])), f"coord {i}"

    @settings(max_examples=60, deadline=None, database=None)
    @given(shape=shapes, n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    def test_reused_buffers_match_fresh_calls(self, shape, n, seed):
        rng = np.random.default_rng(seed)
        buffers = PassBuffers(shape, n)
        fresh = []
        for _ in range(2):
            params = random_params(shape, rng)
            x = rng.uniform(-1, 1, (n, shape.d_in))
            y = rng.standard_normal(n)
            ll, grad = loglik_and_grad(params, x, y, 0.3)
            ll_buf, grad_buf = loglik_and_grad(params, x, y, 0.3, buffers=buffers)
            assert grad_buf is buffers.grad
            assert ll_buf == ll
            assert grad_buf.tobytes() == grad.tobytes()
            fresh.append(grad)
        assert not np.shares_memory(fresh[0], fresh[1])

    def test_mismatched_buffers_raise(self):
        shape = NetworkShape(d_in=1, hidden_widths=(3,))
        p = NetworkParams.zeros(shape)
        x, y = np.zeros((4, 1)), np.zeros(4)
        for wrong in (PassBuffers(shape, 5), PassBuffers(NetworkShape(1, (4,)), 4)):
            with pytest.raises(ValueError, match="buffers built for"):
                loglik_and_grad(p, x, y, 1.0, buffers=wrong)

    @settings(max_examples=60, deadline=None, database=None)
    @given(shape=shapes, stack=st.integers(1, 4), n=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_pass_matches_per_row_calls(self, shape, stack, n, seed):
        rng = np.random.default_rng(seed)
        theta = 0.5 * rng.standard_normal((stack, shape.n_params))
        x = rng.uniform(-1, 1, (stack, n, shape.d_in))
        y = rng.standard_normal((stack, n))
        params = NetworkParams.from_flat(shape, theta)
        assert params.stack == stack
        assert all(np.shares_memory(w, theta) for w in params.weights + params.biases)
        assert params.flatten().tobytes() == theta.tobytes()
        ll, grad = loglik_and_grad(params, x, y, 0.3)
        assert ll.shape == (stack,) and grad.shape == (stack, shape.n_params)
        f = forward(params, x)
        f_grid = forward(params, x[0])
        for r in range(stack):
            row = NetworkParams.from_flat(shape, theta[r])
            ll_r, grad_r = loglik_and_grad(row, x[r], y[r], 0.3)
            assert ll[r] == ll_r
            assert grad[r].tobytes() == grad_r.tobytes()
            assert f[r].tobytes() == forward(row, x[r]).tobytes()
            assert f_grid[r].tobytes() == forward(row, x[0]).tobytes()
        for wrong in (PassBuffers(shape, n), PassBuffers(shape, n, stack + 1)):
            with pytest.raises(ValueError, match="buffers built for"):
                loglik_and_grad(params, x, y, 0.3, buffers=wrong)

    @settings(max_examples=60, deadline=None, database=None)
    @given(shape=shapes, stack=st.one_of(st.none(), st.integers(1, 4)), n=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1))
    def test_forward_only_loglik_matches(self, shape, stack, n, seed):
        # loglik is loglik_and_grad's value bit for bit, with or without
        # buffers, and both reject the same bad inputs
        rng = np.random.default_rng(seed)
        lead = () if stack is None else (stack,)
        params = NetworkParams.from_flat(shape, 0.5 * rng.standard_normal((*lead, shape.n_params)))
        x = rng.uniform(-1, 1, (*lead, n, shape.d_in))
        y = rng.standard_normal((*lead, n))
        want, _ = loglik_and_grad(params, x, y, 0.3)
        buffers = PassBuffers(shape, n, stack)
        for got in (loglik(params, x, y, 0.3), loglik(params, x, y, 0.3, buffers=buffers)):
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        wrong_buffers = (PassBuffers(shape, n + 1, stack),
                         PassBuffers(shape, n, 1 if stack is None else None))
        bad_calls = [
            ((params, x, y, 0.0), "sigma"),
            ((params, x, y, -1.0), "sigma"),
            ((params, x, y[..., :-1], 0.3), "length mismatch"),
            ((params, x[..., :-1, :], y, 0.3), "length mismatch"),
            ((params, x[0], y[0], 0.3) if stack else (params, x[None], y[None], 0.3),
             "stack"),
        ]
        for fn in (loglik, loglik_and_grad):
            for args, match in bad_calls:
                with pytest.raises(ValueError, match=match):
                    fn(*args)
            for wrong in wrong_buffers:
                with pytest.raises(ValueError, match="buffers built for"):
                    fn(params, x, y, 0.3, buffers=wrong)
