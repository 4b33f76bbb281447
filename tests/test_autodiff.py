"""Graph forward values against hand computation and every operation's
gradient against central finite differences."""

import mpmath
import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reduce_sum, reference_batch_norm, scalar_fn
from openset_ssl.autodiff import (
    OP_KINDS,
    OPS,
    DiffGraph,
    batch_moments,
    grad_check,
    logsumexp_rows,
    softmax_rows,
)


class TestForwardValues:
    def test_relu_definition(self):
        g = DiffGraph()
        out = g.apply("relu", [g.input(np.array([[-1.0, 0.0, 2.0]]))])
        assert np.array_equal(g.value(out), [[0.0, 0.0, 2.0]])

    def test_softmax_symmetry(self):
        assert np.array_equal(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 1))
        expected = np.zeros((2, 1))
        for i in range(2):
            for j in range(1):
                for k in range(3):
                    expected[i, j] += a[i, k] * b[k, j]
        g = DiffGraph()
        out = g.apply("matmul", [g.input(a), g.input(b)])
        assert np.allclose(g.value(out), expected, atol=1e-12)

    def test_matmul_transpose_b(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        g = DiffGraph()
        out = g.apply("matmul", [g.input(a), g.input(b)], transpose_b=True)
        assert np.allclose(g.value(out), a @ b.T, atol=1e-12)

    def test_shape_mismatch_diagnostic_names_operation_and_shapes(self):
        g = DiffGraph()
        a = g.input(np.zeros((2, 3)))
        b = g.input(np.zeros((4, 1)))
        with pytest.raises(ValueError) as err:
            g.apply("matmul", [a, b])
        msg = str(err.value)
        assert "matmul" in msg and "(2, 3)" in msg and "(4, 1)" in msg

    def test_add_broadcast_row(self):
        g = DiffGraph()
        out = g.apply(
            "add",
            [g.input(np.ones((3, 2))), g.input(np.array([[1.0, 2.0]]))],
        )
        assert np.array_equal(g.value(out), [[2.0, 3.0]] * 3)


# (op, input shapes or node ids, params, substrings the message must hold)
MALFORMED = [
    ("conv", [(2, 3)], {}, ["'conv'"]),
    ("relu", [7], {}, ["relu", "node 7"]),
    ("relu", [(2, 3), (4, 1)], {}, ["relu", "expects 1", "(2, 3), (4, 1)"]),
    ("matmul", [(2, 3)], {}, ["matmul", "expects 2", "(2, 3)"]),
    ("add", [(2, 3), (3, 2)], {}, ["add", "(2, 3)", "(3, 2)"]),
    ("add", [(2, 3), (1, 2)], {}, ["add", "(2, 3)", "(1, 2)"]),
    ("elementwise-mul", [(2, 3), (2, 1)], {}, ["elementwise-mul", "(2, 3)", "(2, 1)"]),
    ("matmul", [(3,), (3, 2)], {}, ["matmul", "2-D", "(3,), (3, 2)"]),
    ("matmul", [(2, 3), (4, 2)], {"transpose_b": True}, ["matmul", "(2, 3)", "(4, 2)"]),
    ("softmax-cross-entropy", [(2, 3)], {"targets": np.zeros((2, 2))},
     ["softmax-cross-entropy", "(2, 3)", "(2, 2)"]),
    ("l2-normalize-rows", [(2, 2, 2)], {}, ["l2-normalize-rows", "(2, 2, 2)"]),
    ("batch-norm", [(1, 3)], {"eps": 1e-5}, ["batch-norm", "at least 2 rows", "(1, 3)"]),
    ("batch-norm", [(4,)], {"eps": 1e-5}, ["batch-norm", "2-D", "(4,)"]),
]


@pytest.mark.parametrize("op,inputs,params,expected", MALFORMED)
def test_malformed_apply_names_operation_and_shapes(op, inputs, params, expected):
    g = DiffGraph()
    ids = [i if isinstance(i, int) else g.input(np.zeros(i)) for i in inputs]
    with pytest.raises(ValueError) as err:
        g.apply(op, ids, **params)
    msg = str(err.value)
    assert all(part in msg for part in expected), msg
    assert len(g) == sum(not isinstance(i, int) for i in inputs)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        # the ones-vector matmul sum every gradient check here reduces with
        g = DiffGraph()
        x = g.input(np.arange(6.0).reshape(2, 3))
        root = reduce_sum(g, x)
        assert g.value(root).item() == 15.0
        grads = g.backward(root)
        assert np.array_equal(grads[x], np.ones((2, 3)))

    def test_mean_gradient_is_quarter(self):
        # the cross-entropy's mean over 4 rows scales each row's gradient by 1/4
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 3))
        targets = rng.uniform(0.0, 1.0, size=(4, 3))

        def gradient(x, t):
            g = DiffGraph()
            xid = g.input(x)
            return g.backward(g.apply("softmax-cross-entropy", [xid], targets=t))[xid]

        alone = [gradient(logits[r : r + 1], targets[r : r + 1]) for r in range(4)]
        assert np.array_equal(gradient(logits, targets), 0.25 * np.concatenate(alone))

    def test_non_scalar_root_rejected(self):
        g = DiffGraph()
        x = g.input(np.ones((2, 2)))
        with pytest.raises(ValueError):
            g.backward(x)

    def test_unreached_nodes_get_zero_gradients(self):
        g = DiffGraph()
        x = g.input(np.ones((2, 2)))
        unused = g.input(np.ones((3, 3)))
        grads = g.backward(reduce_sum(g, x))
        assert np.array_equal(grads[unused], np.zeros((3, 3)))

    def test_backward_is_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        x_val = rng.standard_normal((4, 3))
        w_val = rng.standard_normal((3, 2))

        def run():
            g = DiffGraph()
            x = g.input(x_val)
            w = g.input(w_val)
            h = g.apply("relu", [g.apply("matmul", [x, w])])
            loss = g.apply("softmax-cross-entropy", [h], targets=np.full((4, 2), 0.5))
            grads = g.backward(loss)
            return grads[x].tobytes(), grads[w].tobytes()

        assert run() == run()

    def test_composite_loss_matches_finite_differences(self):
        # 3-parameter toy: loss(w) = mean(softmax(x @ w_col)) pattern
        rng = np.random.default_rng(4)
        x_val = rng.standard_normal((5, 3))

        def build(g, w):
            h = g.apply("matmul", [g.input(x_val), w])
            e = g.apply("exp", [g.apply("scale", [h], factor=0.3)])
            return g.apply("log", [g.apply("add", [e, g.input(np.ones((5, 1)))])])

        fn = scalar_fn(build)
        point = rng.standard_normal((3, 1))
        assert grad_check(fn, point, eps=1e-5) < 1e-4


class TestGradCheckExamples:
    def test_quadratic_is_exact(self):
        def fn(x):
            return float(x.ravel()[0] ** 2)

        fn.gradient = lambda x: np.array([2.0 * x.ravel()[0]])
        assert grad_check(fn, np.array([3.0]), eps=1e-5) < 1e-9

    def test_relu_locally_linear(self):
        def fn(x):
            return float(np.maximum(x, 0.0).sum())

        fn.gradient = lambda x: (x > 0).astype(float)
        assert grad_check(fn, np.array([1.0]), eps=1e-5) < 1e-8

    def test_eps_must_be_positive(self):
        fn = lambda x: float(x.sum())
        fn.gradient = lambda x: np.ones_like(x)
        with pytest.raises(ValueError):
            grad_check(fn, np.array([1.0]), eps=0.0)

    def test_non_finite_value_rejected(self):
        def fn(x):
            return float(np.log(x).sum())

        fn.gradient = lambda x: 1.0 / x
        # the step to x - eps takes the log of a negative number
        with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
            with pytest.raises(ValueError):
                grad_check(fn, np.array([1e-9]), eps=1e-5)


def _away_from_kinks(rng, shape, margin=1e-3):
    x = rng.uniform(-1.0, 1.0, size=shape)
    return x + np.sign(x) * margin


class TestEveryKindGradient:
    """grad_check on 10 seeded points per differentiable kind, < 1e-4."""

    def check(self, build, point_fn, weights_shape=None, trials=10):
        worst = 0.0
        for trial in range(trials):
            rng = np.random.default_rng(100 + trial)
            point = point_fn(rng)
            weights = (
                rng.standard_normal(weights_shape) if weights_shape else None
            )
            fn = scalar_fn(build, reduce_weights=weights)
            worst = max(worst, grad_check(fn, point, eps=1e-6))
        assert worst < 1e-4

    def test_matmul_left(self):
        b = np.random.default_rng(7).standard_normal((3, 2))
        self.check(
            lambda g, x: g.apply("matmul", [x, g.input(b)]),
            lambda rng: rng.standard_normal((4, 3)),
            weights_shape=(4, 2),
        )

    def test_matmul_right(self):
        a = np.random.default_rng(8).standard_normal((4, 3))
        self.check(
            lambda g, x: g.apply("matmul", [g.input(a), x]),
            lambda rng: rng.standard_normal((3, 2)),
            weights_shape=(4, 2),
        )

    def test_matmul_transpose_b(self):
        a = np.random.default_rng(9).standard_normal((4, 3))
        self.check(
            lambda g, x: g.apply("matmul", [g.input(a), x], transpose_b=True),
            lambda rng: rng.standard_normal((5, 3)),
            weights_shape=(4, 5),
        )

    def test_add(self):
        b = np.random.default_rng(10).standard_normal((4, 3))
        self.check(
            lambda g, x: g.apply("add", [x, g.input(b)]),
            lambda rng: rng.standard_normal((4, 3)),
            weights_shape=(4, 3),
        )

    def test_add_broadcast_row_operand(self):
        a = np.random.default_rng(11).standard_normal((4, 3))
        self.check(
            lambda g, x: g.apply("add", [g.input(a), x]),
            lambda rng: rng.standard_normal((1, 3)),
            weights_shape=(4, 3),
        )

    def test_scale(self):
        self.check(
            lambda g, x: g.apply("scale", [x], factor=-1.7),
            lambda rng: rng.standard_normal((3, 3)),
            weights_shape=(3, 3),
        )

    def test_relu(self):
        self.check(
            lambda g, x: g.apply("relu", [x]),
            lambda rng: _away_from_kinks(rng, (4, 3)),
            weights_shape=(4, 3),
        )

    def test_exp(self):
        self.check(
            lambda g, x: g.apply("exp", [x]),
            lambda rng: rng.uniform(-1.0, 1.0, size=(3, 3)),
            weights_shape=(3, 3),
        )

    def test_log(self):
        self.check(
            lambda g, x: g.apply("log", [x]),
            lambda rng: rng.uniform(0.5, 2.0, size=(3, 3)),
            weights_shape=(3, 3),
        )

    def test_l2_normalize_rows(self):
        def point(rng):
            x = rng.standard_normal((4, 3))
            return x + np.sign(x) * 0.1  # keep row norms clear of zero

        self.check(
            lambda g, x: g.apply("l2-normalize-rows", [x]),
            point,
            weights_shape=(4, 3),
        )

    def test_elementwise_mul(self):
        b = np.random.default_rng(12).standard_normal((4, 3))
        self.check(
            lambda g, x: g.apply("elementwise-mul", [x, g.input(b)]),
            lambda rng: rng.standard_normal((4, 3)),
            weights_shape=(4, 3),
        )

    def test_elementwise_mul_broadcast_row_operand(self):
        a = np.random.default_rng(13).standard_normal((4, 3))
        self.check(
            lambda g, x: g.apply("elementwise-mul", [g.input(a), x]),
            lambda rng: rng.standard_normal((1, 3)),
            weights_shape=(4, 3),
        )

    def test_batch_norm(self):
        self.check(
            lambda g, x: g.apply("batch-norm", [x], eps=1e-5),
            lambda rng: rng.standard_normal((6, 3)),
            weights_shape=(6, 3),
        )

    def test_batch_norm_near_constant_column(self):
        # column 0 varies by ~1e-6, so its variance (~1e-12) sits far
        # below eps and the op is close to a plain centering there
        def point(rng):
            x = rng.standard_normal((6, 3))
            x[:, 0] = 0.7 + 1e-6 * rng.standard_normal(6)
            return x

        self.check(
            lambda g, x: g.apply("batch-norm", [x], eps=1e-5),
            point,
            weights_shape=(6, 3),
        )

    def test_batch_norm_large_column(self):
        # column 1 scaled by 1e4: its gradient is ~1e-4 of the others'
        def point(rng):
            x = rng.standard_normal((6, 3))
            x[:, 1] *= 1e4
            return x

        self.check(
            lambda g, x: g.apply("batch-norm", [x], eps=1e-5),
            point,
            weights_shape=(6, 3),
        )

    def test_softmax_cross_entropy(self):
        # targets of any sign and row mass, one row all zero
        targets = np.random.default_rng(14).standard_normal((4, 5))
        targets[2] = 0.0
        self.check(
            lambda g, x: g.apply("softmax-cross-entropy", [x], targets=targets),
            lambda rng: 3.0 * rng.standard_normal((4, 5)),
        )


# params that let every kind run on a (3, 3) input (matmul: x @ x)
_EXAMPLE_PARAMS = {
    "scale": {"factor": 2.0},
    "batch-norm": {"eps": 1e-5},
    "softmax-cross-entropy": {"targets": np.eye(3)},
}


def _keeps_residuals(kind):
    g = DiffGraph()
    x = g.input(np.arange(1.0, 10.0).reshape(3, 3))
    node = g.apply(kind, [x] * OPS[kind].arity, **_EXAMPLE_PARAMS.get(kind, {}))
    return g.residuals(node) is not None


def test_every_kind_has_a_gradient_case():
    """Every kind has a finite-difference case in TestEveryKindGradient,
    and every kind that keeps forward residuals also has a byte-equality
    case in TestResidualsMatchRecomputation.  A kind's cases are named
    test_<kind> or test_<kind>_<variant>."""
    missing = []
    for kind in OP_KINDS:
        stem = "test_" + kind.replace("-", "_")
        suites = [TestEveryKindGradient]
        if _keeps_residuals(kind):
            suites.append(TestResidualsMatchRecomputation)
        for suite in suites:
            names = [n for n in vars(suite) if n.startswith("test_")]
            if not any(n == stem or n.startswith(stem + "_") for n in names):
                missing.append((kind, suite.__name__))
    assert not missing, f"no case for {missing}"


class TestNumericInvariants:
    def test_softmax_rows_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            out = softmax_rows(rng.standard_normal((6, 9)) * 10)
            assert (out >= 0).all()
            assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12

    def test_l2_normalize_rows_unit_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = DiffGraph()
            x = rng.standard_normal((5, 7)) + 0.1
            out = g.value(g.apply("l2-normalize-rows", [g.input(x)]))
            assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-12

    def test_l2_normalize_zero_row_passes_through_with_zero_grad(self):
        g = DiffGraph()
        x = g.input(np.array([[0.0, 0.0], [3.0, 4.0]]))
        out = g.apply("l2-normalize-rows", [x])
        assert np.array_equal(g.value(out)[0], [0.0, 0.0])
        grads = g.backward(reduce_sum(g, out))
        assert np.array_equal(grads[x][0], [0.0, 0.0])


def _cross_entropy(x, targets):
    """Value and gradient of the softmax-cross-entropy kind."""
    g = DiffGraph()
    xid = g.input(x)
    root = g.apply("softmax-cross-entropy", [xid], targets=targets)
    return g.value(root).item(), g.backward(root)[xid]


class TestSoftmaxCrossEntropy:
    def test_matches_brute_force_at_moderate_logits(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = 5.0 * rng.standard_normal((6, 4))
            t = rng.uniform(0.0, 1.0, size=(6, 4))
            t /= t.sum(axis=1, keepdims=True)
            probs = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
            brute = -(t * np.log(probs)).sum(axis=1).mean()
            assert abs(_cross_entropy(x, t)[0] - brute) < 1e-12

    def test_saturated_wrong_prediction_keeps_its_loss_and_gradient(self):
        value, grad = _cross_entropy(np.array([[800.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert value == 800.0
        assert np.array_equal(grad, [[1.0, -1.0]])

    def test_zero_target_rows_contribute_exactly_zero(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((5, 3))
        t = rng.uniform(0.0, 1.0, size=(5, 3))
        t[[1, 3]] = 0.0
        moved = x.copy()
        moved[[1, 3]] = 1e6 * rng.standard_normal((2, 3))
        value, grad = _cross_entropy(x, t)
        moved_value, moved_grad = _cross_entropy(moved, t)
        assert moved_value == value
        assert np.array_equal(moved_grad, grad)
        assert not grad[[1, 3]].any()

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
        shift=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_shift_leaves_value_and_gradient(self, rows, cols, scale, shift, seed):
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal((rows, cols))
        t = rng.uniform(0.0, 1.0, size=(rows, cols))
        shifts = shift * rng.uniform(-1.0, 1.0, size=(rows, 1))
        value, grad = _cross_entropy(x, t)
        shifted_value, shifted_grad = _cross_entropy(x + shifts, t)
        # adding the shift rounds each logit by up to an ulp of its size,
        # which moves the value by as much per unit of target mass
        tol = 1e-11 * (1.0 + np.abs(x + shifts).max()) * (1.0 + t.sum(axis=1).max())
        assert abs(shifted_value - value) <= tol
        assert np.abs(shifted_grad - grad).max() <= tol


# Column kinds: exact zeros, a constant, a near-constant column (var far
# below eps), +-1 entries, a 1e4 scale.  With small-integer weights and
# scales these put exact zeros into the gradient's column sums.
_COLUMNS = {
    "plain": lambda rng, n: rng.standard_normal(n),
    "zero": lambda rng, n: np.zeros(n),
    "constant": lambda rng, n: np.full(n, 0.5),
    "near-constant": lambda rng, n: 0.3 + 1e-7 * rng.standard_normal(n),
    "signs": lambda rng, n: rng.choice([-1.0, 1.0], n),
    "large": lambda rng, n: 1e4 * rng.standard_normal(n),
}


def _draw(rng, kind, shape):
    if kind == "normal":
        return rng.standard_normal(shape)
    signs = rng.integers(-1, 2, shape).astype(np.float64)  # -1, 0 or 1
    # the smallest subnormal: upstream gradients that underflow on the way
    return signs * 5e-324 if kind == "subnormal" else signs


# and columns whose mean is far from zero, so centering cancels digits
_ORACLE_COLUMNS = {**_COLUMNS, "offset": lambda rng, n: 1e3 + rng.standard_normal(n)}


def _exact_batch_norm(h, g, eps):
    """Per column of h, at 60 digits: mu, var, inv_std = 1/sqrt(var + eps),
    y = (h - mu) * inv_std and the gradient w.r.t. h for the upstream
    gradient g, inv_std * (g - mean(g) - y * mean(g * y))."""
    mp = mpmath.mp
    n = h.shape[0]
    with mp.workdps(60):
        columns = []
        for hc, gc in zip(h.T, g.T):
            hc, gc = [mp.mpf(float(v)) for v in hc], [mp.mpf(float(v)) for v in gc]
            mu = mp.fsum(hc) / n
            var = mp.fsum((v - mu) ** 2 for v in hc) / n
            inv_std = 1 / mp.sqrt(var + mp.mpf(eps))
            y = [(v - mu) * inv_std for v in hc]
            g_mean = mp.fsum(gc) / n
            gy_mean = mp.fsum(a * b for a, b in zip(gc, y)) / n
            grad = [inv_std * (a - g_mean - b * gy_mean) for a, b in zip(gc, y)]
            columns.append((mu, var, inv_std, y, grad))
        return columns


class TestBatchNormOracle:
    """The fused kind and the 12-node composition it replaced
    (`helpers.reference_batch_norm`) against a 60-digit evaluation: the
    value y, mu, var and the gradient w.r.t. h.

    Centering places h - mu only to within the rounding of d = max|h| of
    the column, and all that follows inherits it, so the errors are
    measured in units that scale with d, not with the output (0 on a
    constant column, where rounding may still leave 1e-10 at eps 1e-12):

        mu        BOUND * d
        var       BOUND * d * (2 max|h - mu| + BOUND * d), how far the
                  variance moves when each deviation moves by BOUND * d
        y         BOUND * inv_std * d
        grad h    BOUND * inv_std * max|g| * (1 + inv_std * d), plus
                  UNDERFLOW smallest subnormals times (1 + inv_std), for
                  upstream gradients at the bottom of the subnormal range

    BOUND is about 90 units of 2**-53.  Over 4,000 random batches of this
    strategy the composition's worst error was 1.2e-15 of its unit and the
    closed form's 7.3e-16; underflow left at most 1.6 smallest subnormals
    times (1 + inv_std)."""

    BOUND = 1e-14
    UNDERFLOW = 8

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 40),
        columns=st.lists(st.sampled_from(sorted(_ORACLE_COLUMNS)), min_size=1, max_size=12),
        eps=st.sampled_from([1e-5, 1e-12, 0.5]),
        scale_kind=st.sampled_from(["normal", "integer"]),
        weight_kind=st.sampled_from(["normal", "integer", "subnormal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # found by search: each makes the variance, the centering or the mean
    # branch of the composition all zero
    @example(n=3, columns=["zero"], eps=1e-5, scale_kind="integer", weight_kind="integer", seed=38)
    @example(n=2, columns=["signs", "signs"], eps=1e-5, scale_kind="integer",
             weight_kind="integer", seed=7)
    @example(n=2, columns=["signs", "zero"], eps=1e-5, scale_kind="integer",
             weight_kind="integer", seed=90)
    @example(n=2, columns=["plain"], eps=1e-5, scale_kind="integer", weight_kind="subnormal",
             seed=3)
    def test_within_bound_of_exact(self, n, columns, eps, scale_kind, weight_kind, seed):
        rng = np.random.default_rng(seed)
        h = np.stack([_ORACLE_COLUMNS[kind](rng, n) for kind in columns], axis=1)
        # the upstream gradient an affine scale hands the batch norm
        upstream = _draw(rng, scale_kind, (1, len(columns))) * _draw(rng, weight_kind, h.shape)
        exact = _exact_batch_norm(h, upstream, eps)

        def run(bn):
            g = DiffGraph()
            h_id = g.input(h)
            normed, mu, var = bn(g, h_id)
            root = reduce_sum(g, g.apply("elementwise-mul", [normed, g.input(upstream)]))
            return g.value(normed), mu, var, g.backward(root)[h_id]

        def fused(g, h_id):
            mu, _, var, _ = batch_moments(g.value(h_id), eps)
            return g.apply("batch-norm", [h_id], eps=eps), mu, var

        def composed(g, h_id):
            normed, mu, var = reference_batch_norm(g, h_id, eps)
            return normed, g.value(mu), g.value(var)

        def err(got, want):
            return max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(got, want))

        bound, tiny = self.BOUND, mpmath.mpf(5e-324)
        for form, bn in (("fused", fused), ("composed", composed)):
            y, mu, var, grad = run(bn)
            for j, (e_mu, e_var, inv_std, e_y, e_grad) in enumerate(exact):
                d = mpmath.mpf(float(np.abs(h[:, j]).max()))
                spread = max(abs(v) for v in e_y) / inv_std  # max|h - mu|
                g_max = mpmath.mpf(float(np.abs(upstream[:, j]).max()))
                where = f"{form} column {j} ({columns[j]})"
                assert err(mu[:, j], [e_mu]) <= bound * d, f"{where}: mu"
                assert err(var[:, j], [e_var]) <= bound * d * (2 * spread + bound * d), \
                    f"{where}: var"
                assert err(y[:, j], e_y) <= bound * inv_std * d, f"{where}: value"
                assert err(grad[:, j], e_grad) <= (
                    bound * inv_std * g_max * (1 + inv_std * d)
                    + self.UNDERFLOW * tiny * (1 + inv_std)
                ), f"{where}: grad h"


def _kind_and_vjp(kind, x, upstream, **params):
    """A kind's forward value and its VJP of `upstream`, as backward calls it."""
    g = DiffGraph()
    xid = g.input(x)
    node = g.apply(kind, [xid], **params)
    y = g.value(node)
    (grad,) = OPS[kind].vjp(np.asarray(upstream), y, g.residuals(node), g.value(xid), **params)
    return y, grad


def _mp(values):
    return [mpmath.mpf(float(v)) for v in values]


_TINY = mpmath.mpf(5e-324)


class TestSoftmaxCrossEntropyOracle:
    """The kind against a 60-digit evaluation of its formula: the value,
    mean_i(mass_i·logsumexp(x_i) - sum_c t_ic·x_ic), and the VJP,
    g/n·(mass_i·softmax(x_i)_c - t_ic), with mass_i = sum_c t_ic.

    Near ±800 the value is a difference of terms of about 800·mass, so its
    error is measured in units of mean_i(|mass_i·logsumexp(x_i)| +
    sum_c |t_ic·x_ic|).  An entry of the VJP is a difference of
    mass_i·softmax_c (softmax at most 1) and t_ic: its unit is
    |g|/n·(|mass_i| + |t_ic|), plus UNDERFLOW smallest subnormals for
    upstream gradients at the bottom of the subnormal range.  BOUND is
    about 45 units of 2**-53; over 3,000 random cases of this strategy the
    worst errors were 2.8e-16 (value) and 4.3e-16 (VJP) of their units,
    and underflow left at most 2 smallest subnormals."""

    BOUND = 1e-14
    UNDERFLOW = 8

    LOGITS = {
        "normal": lambda rng, shape: rng.standard_normal(shape),
        "wide": lambda rng, shape: 30.0 * rng.standard_normal(shape),
        "plus-800": lambda rng, shape: 800.0 + rng.standard_normal(shape),
        "minus-800": lambda rng, shape: -800.0 + rng.standard_normal(shape),
        "both-800": lambda rng, shape: (800.0 * rng.choice([-1.0, 1.0], shape)
                                        + rng.standard_normal(shape)),
    }

    @staticmethod
    def targets(rng, kind, shape):
        n, cols = shape
        if kind == "one-hot":
            return np.eye(cols)[rng.integers(0, cols, n)]
        t = rng.uniform(0.0, 1.0, shape)
        t /= t.sum(axis=1, keepdims=True)
        if kind == "zero-rows":
            t[rng.random(n) < 0.5] = 0.0
        return t

    @staticmethod
    def exact(x, t, upstream):
        """60-digit value, its unit, and the VJP."""
        n = x.shape[0]
        with mpmath.mp.workdps(60):
            upstream = mpmath.mpf(float(upstream))
            values, units, grad = [], [], []
            for xr, tr in zip(x, t):
                xs, ts = _mp(xr), _mp(tr)
                lse = mpmath.log(mpmath.fsum(mpmath.exp(v) for v in xs))
                mass = mpmath.fsum(ts)
                values.append(mass * lse - mpmath.fsum(a * b for a, b in zip(ts, xs)))
                units.append(abs(mass * lse) + mpmath.fsum(abs(a * b) for a, b in zip(ts, xs)))
                grad.append([upstream / n * (mass * mpmath.exp(v - lse) - c)
                             for v, c in zip(xs, ts)])
            return mpmath.fsum(values) / n, mpmath.fsum(units) / n, grad

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        logits=st.sampled_from(sorted(LOGITS)),
        target_kind=st.sampled_from(["one-hot", "soft", "zero-rows"]),
        upstream=st.sampled_from([1.0, -0.37, 3.0, 5e-324]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=3, cols=4, logits="plus-800", target_kind="one-hot", upstream=1.0, seed=0)
    @example(rows=3, cols=4, logits="minus-800", target_kind="soft", upstream=-0.37, seed=1)
    @example(rows=4, cols=3, logits="both-800", target_kind="zero-rows", upstream=5e-324, seed=2)
    def test_within_bound_of_exact(self, rows, cols, logits, target_kind, upstream, seed):
        rng = np.random.default_rng(seed)
        x = self.LOGITS[logits](rng, (rows, cols))
        t = self.targets(rng, target_kind, (rows, cols))
        value, grad = _kind_and_vjp("softmax-cross-entropy", x, upstream, targets=t)
        e_value, unit, e_grad = self.exact(x, t, upstream)
        assert abs(mpmath.mpf(float(value)) - e_value) <= self.BOUND * unit, "value"
        for i, j in np.ndindex(grad.shape):
            unit = abs(mpmath.mpf(upstream)) / rows * (abs(mpmath.mpf(float(t[i].sum())))
                                                       + abs(mpmath.mpf(float(t[i, j]))))
            assert abs(mpmath.mpf(float(grad[i, j])) - e_grad[i][j]) <= (
                self.BOUND * unit + self.UNDERFLOW * _TINY
            ), f"grad [{i}, {j}]"


class TestL2NormalizeRowsOracle:
    """The kind against a 60-digit evaluation of its formula: y = x/|x|
    and the VJP (g - y·sum(g·y))/|x| for a row whose norm is at least
    1e-12, and y = x with a zero VJP for one below.

    Rows sit on both sides of the cut, 2**-20 of it away, so rounding the
    norm cannot move a row across, or on it: one entry of +-1e-12, whose
    norm is 1e-12 exactly, so the row is not zero.  |y| <= 1, so y's error is in units of
    1; the VJP's unit is (max|g| + sum|g·y|)/|x| of its row, plus
    UNDERFLOW smallest subnormals over |x| for upstream gradients at the
    bottom of the subnormal range.  Over 4,000 random cases the worst
    errors were 2.1e-16 (y) and 2.2e-16 (VJP) of their units, and
    underflow left at most 1.6 smallest subnormals over |x|."""

    BOUND = 1e-14
    UNDERFLOW = 8
    NORMS = {
        "zero": 0.0,
        "below-cut": 1e-12 * (1 - 2**-20),
        "above-cut": 1e-12 * (1 + 2**-20),
        "tiny": 1e-13,
        "unit": 1.0,
        "large": 1e150,
    }

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.sampled_from(sorted(NORMS) + ["at-cut", "subnormal"]), min_size=1,
                      max_size=6),
        cols=st.integers(1, 6),
        upstream=st.sampled_from(["normal", "large", "subnormal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=["below-cut", "at-cut", "above-cut", "subnormal"], cols=3, upstream="subnormal",
             seed=0)
    @example(rows=["above-cut", "unit", "large"], cols=4, upstream="normal", seed=1)
    def test_within_bound_of_exact(self, rows, cols, upstream, seed):
        rng = np.random.default_rng(seed)
        x = np.empty((len(rows), cols))
        for i, kind in enumerate(rows):
            if kind == "subnormal":
                x[i] = rng.integers(-3, 4, cols) * 5e-324
            elif kind == "at-cut":  # one entry +-1e-12: the norm is the cut exactly
                x[i] = 0.0
                x[i, rng.integers(cols)] = rng.choice([-1e-12, 1e-12])
            else:
                direction = rng.standard_normal(cols)
                x[i] = direction / np.linalg.norm(direction) * self.NORMS[kind]
        if upstream == "subnormal":
            g = rng.integers(-1, 2, x.shape) * 5e-324
        else:
            g = rng.standard_normal(x.shape) * (1e10 if upstream == "large" else 1.0)
        y, grad = _kind_and_vjp("l2-normalize-rows", x, g)
        with mpmath.mp.workdps(60):
            for i, (xr, gr) in enumerate(zip(x, g)):
                xs, gs = _mp(xr), _mp(gr)
                norm = mpmath.sqrt(mpmath.fsum(v * v for v in xs))
                if norm < mpmath.mpf(1e-12):
                    assert np.array_equal(y[i], x[i]) and not grad[i].any(), f"row {i}"
                    continue
                e_y = [v / norm for v in xs]
                s = mpmath.fsum(a * b for a, b in zip(gs, e_y))
                unit = (max(abs(v) for v in gs) + mpmath.fsum(abs(a * b) for a, b in zip(gs, e_y))
                        ) / norm
                for j in range(cols):
                    assert abs(mpmath.mpf(float(y[i, j])) - e_y[j]) <= self.BOUND, f"y [{i}, {j}]"
                    assert abs(mpmath.mpf(float(grad[i, j])) - (gs[j] - e_y[j] * s) / norm) <= (
                        self.BOUND * unit + self.UNDERFLOW * _TINY / norm
                    ), f"grad [{i}, {j}]"


# The VJPs as they were before the kinds kept forward residuals: each
# recomputes what it needs from the input.
def _recomputed_vjp(kind, g, y, x, **params):
    if kind == "softmax-cross-entropy":
        targets = params["targets"]
        mass = targets.sum(axis=1, keepdims=True)
        return (g.item() / x.shape[0] * (mass * softmax_rows(x) - targets),)
    if kind == "l2-normalize-rows":
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        zero = norms < 1e-12
        safe = np.where(zero, 1.0, norms)
        grad = (g - y * (g * y).sum(axis=1, keepdims=True)) / safe
        return (np.where(zero, 0.0, grad),)
    assert kind == "batch-norm"
    return OPS[kind].vjp(g, y, batch_moments(x, params["eps"]), x, **params)


class TestResidualsMatchRecomputation:
    """A kind that keeps forward residuals gives, from them, the bytes its
    VJP gave when it recomputed them from the input."""

    def check(self, kind, x, upstream, **params):
        g = DiffGraph()
        xid = g.input(x)
        node = g.apply(kind, [xid], **params)
        x, y = g.value(xid), g.value(node)
        got = OPS[kind].vjp(upstream, y, g.residuals(node), x, **params)
        (expected,) = _recomputed_vjp(kind, upstream, y, x, **params)
        assert len(got) == 1 and got[0].shape == expected.shape
        assert got[0].tobytes() == expected.tobytes()
        return g.value(node)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        scale=st.sampled_from([0.1, 1.0, 30.0, 800.0]),
        target_kind=st.sampled_from(["uniform", "one-hot", "signed", "zero-rows"]),
        upstream=st.sampled_from([1.0, -0.37, 3.0, 5e-324]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_softmax_cross_entropy(self, rows, cols, scale, target_kind, upstream, seed):
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal((rows, cols))
        if target_kind == "one-hot":
            t = np.eye(cols)[rng.integers(0, cols, rows)]
        elif target_kind == "signed":
            t = rng.standard_normal((rows, cols))
        else:
            t = rng.uniform(0.0, 1.0, size=(rows, cols))
            if target_kind == "zero-rows":
                t[rng.random(rows) < 0.5] = 0.0
        value = self.check("softmax-cross-entropy", x, np.array(upstream), targets=t)
        mass = t.sum(axis=1, keepdims=True)
        expected = (mass * logsumexp_rows(x) - (t * x).sum(axis=1, keepdims=True)).mean()
        assert value.tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.sampled_from(["normal", "zero", "tiny", "large"]), min_size=1,
                      max_size=8),
        cols=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_l2_normalize_rows(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        scales = {"normal": 1.0, "zero": 0.0, "tiny": 1e-13, "large": 1e150}
        x = np.array([scales[r] * rng.standard_normal(cols) for r in rows])
        self.check("l2-normalize-rows", x, rng.standard_normal(x.shape))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 40),
        columns=st.lists(st.sampled_from(sorted(_COLUMNS)), min_size=1, max_size=12),
        eps=st.sampled_from([1e-5, 1e-12, 0.5]),
        weight_kind=st.sampled_from(["normal", "integer", "subnormal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_norm(self, n, columns, eps, weight_kind, seed):
        rng = np.random.default_rng(seed)
        h = np.stack([_COLUMNS[kind](rng, n) for kind in columns], axis=1)
        self.check("batch-norm", h, _draw(rng, weight_kind, h.shape), eps=eps)
        g = DiffGraph()
        node = g.apply("batch-norm", [g.input(h)], eps=eps)
        for kept, fresh in zip(g.residuals(node), batch_moments(h, eps)):
            assert kept.tobytes() == fresh.tobytes()
