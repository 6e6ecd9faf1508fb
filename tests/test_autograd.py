"""Finite-difference gradient checks for the autograd engine."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.neural.autograd import Tensor, no_grad
from repro.utils.exceptions import DataError

EPS = 1e-6


def numerical_gradient(fn, array):
    """Central finite differences of scalar fn with respect to array."""
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        index = it.multi_index
        original = array[index]
        array[index] = original + EPS
        up = fn()
        array[index] = original - EPS
        down = fn()
        array[index] = original
        grad[index] = (up - down) / (2 * EPS)
        it.iternext()
    return grad


def check_gradient(build, *arrays, atol=1e-5):
    """Compare autograd and numerical gradients of ``build(*tensors)``."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for tensor, array in zip(tensors, arrays):
        expected = numerical_gradient(
            lambda: build(*[Tensor(a) for a in arrays]).item(), array
        )
        assert tensor.grad is not None
        assert np.allclose(tensor.grad, expected, atol=atol), (
            f"gradient mismatch: {tensor.grad} vs {expected}"
        )


@pytest.fixture
def a():
    return np.random.default_rng(0).normal(size=(3, 4))


@pytest.fixture
def b():
    return np.random.default_rng(1).normal(size=(3, 4))


class TestElementwiseOps:
    def test_add(self, a, b):
        check_gradient(lambda x, y: (x + y).sum(), a, b)

    def test_add_broadcast_row(self, a):
        row = np.random.default_rng(2).normal(size=(4,))
        check_gradient(lambda x, y: (x + y).sum(), a, row)

    def test_sub(self, a, b):
        check_gradient(lambda x, y: (x - y).sum(), a, b)

    def test_rsub_scalar(self, a):
        check_gradient(lambda x: (1.0 - x).sum(), a)

    def test_mul(self, a, b):
        check_gradient(lambda x, y: (x * y).sum(), a, b)

    def test_div(self, a, b):
        check_gradient(lambda x, y: (x / (y * y + 1.0)).sum(), a, b)

    def test_neg(self, a):
        check_gradient(lambda x: (-x).sum(), a)

    def test_exp(self, a):
        check_gradient(lambda x: x.exp().sum(), a)

    def test_log(self, a):
        check_gradient(lambda x: (x * x + 1.0).log().sum(), a)

    def test_relu(self, a):
        a = a + 0.05  # keep away from the kink
        check_gradient(lambda x: x.relu().sum(), a)

    def test_sigmoid(self, a):
        check_gradient(lambda x: x.sigmoid().sum(), a)

    def test_tanh(self, a):
        check_gradient(lambda x: x.tanh().sum(), a)

    def test_square(self, a):
        check_gradient(lambda x: x.square().sum(), a)

    def test_softplus(self, a):
        check_gradient(lambda x: x.softplus().sum(), a)

    def test_softplus_stable_at_extremes(self):
        t = Tensor(np.array([-800.0, 800.0]), requires_grad=True)
        out = t.softplus()
        assert np.isfinite(out.data).all()
        assert out.data[0] == pytest.approx(0.0)
        assert out.data[1] == pytest.approx(800.0)


class TestMatmulAndShape:
    def test_matmul(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        w = np.random.default_rng(1).normal(size=(4, 2))
        check_gradient(lambda a, b: (a @ b).sum(), x, w)

    def test_matmul_requires_2d(self):
        with pytest.raises(DataError):
            Tensor(np.zeros(3)) @ Tensor(np.zeros(3))

    def test_sum_axis(self, a):
        check_gradient(lambda x: x.sum(axis=0).sum(), a)
        check_gradient(lambda x: x.sum(axis=1).sum(), a)

    def test_mean(self, a):
        check_gradient(lambda x: x.mean(), a)
        check_gradient(lambda x: x.mean(axis=1).sum(), a)

    def test_reshape(self, a):
        check_gradient(lambda x: (x.reshape(-1) * x.reshape(-1)).sum(), a)

    def test_concat(self):
        x = np.random.default_rng(0).normal(size=(3, 2))
        y = np.random.default_rng(1).normal(size=(3, 5))
        check_gradient(
            lambda a, b: (Tensor.concat([a, b], axis=1).square()).sum(), x, y
        )

    def test_take_rows_gathers(self):
        table = np.arange(12, dtype=float).reshape(4, 3)
        t = Tensor(table, requires_grad=True)
        out = t.take_rows(np.array([2, 0, 2]))
        assert np.array_equal(out.data, table[[2, 0, 2]])

    def test_take_rows_backward_accumulates_duplicates(self):
        table = np.zeros((4, 3))
        t = Tensor(table, requires_grad=True)
        out = t.take_rows(np.array([2, 0, 2])).sum()
        out.backward()
        assert np.array_equal(t.grad[2], np.full(3, 2.0))
        assert np.array_equal(t.grad[0], np.ones(3))
        assert np.array_equal(t.grad[1], np.zeros(3))


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self):
        """x used twice: d(x*x + x*x)/dx = 4x."""
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x * x
        y.backward()
        assert x.grad[0] == pytest.approx(12.0)

    def test_deep_chain(self):
        x = Tensor(np.array([0.5]), requires_grad=True)
        y = x
        for _ in range(20):
            y = y * 1.1
        y.backward()
        assert x.grad[0] == pytest.approx(1.1**20)

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(DataError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(DataError):
            Tensor(np.ones(2)).backward()

    def test_no_grad_disables_taping(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            y = (x * 3).sum()
        assert not y.requires_grad

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = (x * 2).detach()
        z = (y * 3).sum()
        assert not z.requires_grad

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * 3).sum().backward()
        (x * 3).sum().backward()
        assert x.grad[0] == pytest.approx(6.0)
        x.zero_grad()
        assert x.grad is None

    @given(
        data=st.lists(st.floats(-3, 3, allow_nan=False), min_size=4, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_composite_expression_gradcheck(self, data):
        array = np.array(data).reshape(2, 2) + 0.05
        check_gradient(
            lambda x: ((x.sigmoid() * x.tanh()).softplus() + x.square()).mean(),
            array,
        )


def test_no_grad_is_per_thread():
    """Overlapping scopes on two threads leave recording on everywhere else.

    Evaluation workers score neural models inside ``no_grad`` at the same
    time; a process-wide flag restored by the last scope to leave would
    switch graph recording off for good.
    """
    entered, leave = threading.Event(), threading.Event()
    seen = []

    def worker():
        with no_grad():
            seen.append(Tensor(np.ones(1), requires_grad=True).requires_grad)
            entered.set()
            leave.wait(10)
        seen.append(Tensor(np.ones(1), requires_grad=True).requires_grad)

    scope = no_grad()
    scope.__enter__()
    thread = threading.Thread(target=worker)
    thread.start()
    assert entered.wait(10)
    scope.__exit__(None, None, None)
    assert Tensor(np.ones(1), requires_grad=True).requires_grad
    leave.set()
    thread.join(10)
    assert seen == [False, True]
    assert Tensor(np.ones(1), requires_grad=True).requires_grad


def test_concurrent_no_grad_scopes_never_strand_recording_off():
    """Eight threads entering and leaving ``no_grad`` leave the trainer recording."""
    inside: list[bool] = []
    switch = sys.getswitchinterval()

    def worker():
        for _ in range(300):
            with no_grad():
                inside.append(Tensor(np.ones(1), requires_grad=True).requires_grad)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert len(inside) == 8 * 300 and not any(inside)
    assert Tensor(np.ones(1), requires_grad=True).requires_grad
