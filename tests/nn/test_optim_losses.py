"""Unit tests for optimizers, LR schedulers, and loss functions."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    ExponentialLR,
    Linear,
    Parameter,
    SGD,
    StepLR,
    Tensor,
    bce_with_logits,
    bpr_loss,
    l2_penalty,
    margin_loss_raw,
    mse_loss,
    sigmoid_margin_loss,
)
from repro.nn.gradcheck import check_gradients
from repro.nn.optim import extract_gradients

RNG = np.random.default_rng(99)


def quadratic_step(optimizer_factory, steps=200):
    """Minimize (w - 3)^2 and return final w."""
    w = Parameter(np.array([0.0]))
    opt = optimizer_factory([w])
    for _ in range(steps):
        opt.zero_grad()
        loss = ((w - 3.0) ** 2).sum()
        loss.backward()
        opt.step()
    return float(w.data[0])


class TestOptimizers:
    def test_sgd_converges(self):
        assert abs(quadratic_step(lambda p: SGD(p, lr=0.1)) - 3.0) < 1e-6

    def test_sgd_momentum_converges(self):
        assert abs(quadratic_step(lambda p: SGD(p, lr=0.05, momentum=0.9)) - 3.0) < 1e-4

    def test_adam_converges(self):
        assert abs(quadratic_step(lambda p: Adam(p, lr=0.1), steps=400) - 3.0) < 1e-4

    def test_weight_decay_shrinks_solution(self):
        no_decay = quadratic_step(lambda p: SGD(p, lr=0.1))
        decayed = quadratic_step(lambda p: SGD(p, lr=0.1, weight_decay=1.0))
        assert decayed < no_decay  # pulled toward zero

    def test_skip_parameters_without_grad(self):
        w = Parameter(np.array([1.0]))
        frozen = Parameter(np.array([5.0]))
        opt = SGD([w, frozen], lr=0.1)
        ((w - 3.0) ** 2).sum().backward()
        opt.step()
        np.testing.assert_allclose(frozen.data, [5.0])

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_bad_momentum_rejected(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.0)

    def test_bad_betas_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.1, betas=(1.0, 0.9))

    def test_adam_first_step_magnitude(self):
        # With bias correction, the very first Adam step is ~lr in magnitude.
        w = Parameter(np.array([0.0]))
        opt = Adam([w], lr=0.01)
        (w * 10.0).sum().backward()
        opt.step()
        assert abs(abs(w.data[0]) - 0.01) < 1e-6


class TestRowSparseRule:
    """Lazy Adam on embedding tables: only rows with a gradient step."""

    ROWS = np.array([1, 4, 5])

    def _table(self, seed=0):
        rng = np.random.default_rng(seed)
        table = Parameter(rng.normal(size=(8, 3)), row_sparse=True)
        grad = np.zeros_like(table.data)
        grad[self.ROWS] = rng.normal(size=(len(self.ROWS), 3))
        return table, grad

    def test_untouched_rows_and_moments_unchanged(self):
        table, grad = self._table()
        opt = Adam([table], lr=0.1, weight_decay=0.5)
        for step in range(3):
            # Moments of the touched rows are nonzero after the first step.
            before = [a.copy() for a in (table.data, opt._m[0], opt._v[0])]
            table.grad = grad * (step + 1)
            opt.step()
            after = (table.data, opt._m[0], opt._v[0])
            untouched = np.setdiff1d(np.arange(8), self.ROWS)
            for old, new in zip(before, after):
                assert np.array_equal(old[untouched], new[untouched])
                assert not np.array_equal(old[self.ROWS], new[self.ROWS])

    def test_touched_rows_get_exactly_the_l2_gradient(self):
        # weight_decay=2λ on the data gradient == no decay on the data
        # gradient plus 2λθ on exactly the touched rows.
        decayed, grad = self._table()
        reference, _ = self._table()
        coefficient = 2.0 * 1e-2
        opt_decayed = Adam([decayed], lr=0.1, weight_decay=coefficient)
        opt_reference = Adam([reference], lr=0.1)
        for _ in range(3):
            decayed.grad = grad.copy()
            explicit = np.zeros_like(grad)
            explicit[self.ROWS] = grad[self.ROWS] + coefficient * reference.data[self.ROWS]
            reference.grad = explicit
            opt_decayed.step()
            opt_reference.step()
            assert np.array_equal(decayed.data, reference.data)
            assert np.array_equal(opt_decayed._m[0], opt_reference._m[0])
            assert np.array_equal(opt_decayed._v[0], opt_reference._v[0])

    def test_dense_parameter_steps_every_entry(self):
        # A 2-D weight that is not an embedding table keeps dense Adam:
        # zero-gradient rows still decay and their moments still move.
        weight = Parameter(np.ones((4, 2)))
        opt = Adam([weight], lr=0.1, weight_decay=0.5)
        grad = np.zeros((4, 2))
        grad[0] = 1.0
        weight.grad = grad
        opt.step()
        assert np.all(weight.data < 1.0)
        assert np.all(opt._v[0] > 0.0)

    def test_step_is_step_rows_of_extracted_gradients(self):
        left, grad = self._table()
        right, _ = self._table()
        opt_left = Adam([left], lr=0.1, weight_decay=0.3)
        opt_right = Adam([right], lr=0.1, weight_decay=0.3)
        left.grad = grad.copy()
        right.grad = grad.copy()
        opt_left.step()
        opt_right.step_rows(extract_gradients([right]))
        assert np.array_equal(left.data, right.data)


class TestSchedulers:
    def test_step_lr(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        lrs = []
        for _ in range(4):
            sched.step()
            lrs.append(opt.lr)
        np.testing.assert_allclose(lrs, [1.0, 0.1, 0.1, 0.01])

    def test_step_lr_validates(self):
        with pytest.raises(ValueError):
            StepLR(SGD([Parameter(np.zeros(1))], lr=1.0), step_size=0)

    def test_exponential_lr(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        sched = ExponentialLR(opt, gamma=0.5)
        sched.step()
        sched.step()
        assert opt.lr == 0.25


class TestLossValues:
    def test_bce_matches_naive_formula(self):
        logits = Tensor(RNG.normal(size=20))
        targets = Tensor(RNG.integers(0, 2, 20).astype(float))
        stable = bce_with_logits(logits, targets).item()
        p = 1.0 / (1.0 + np.exp(-logits.data))
        naive = -(targets.data * np.log(p) + (1 - targets.data) * np.log(1 - p)).mean()
        assert abs(stable - naive) < 1e-10

    def test_bce_extreme_logits_finite(self):
        loss = bce_with_logits(Tensor([1000.0, -1000.0]), Tensor([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-6

    def test_bpr_matches_formula(self):
        pos = Tensor(RNG.normal(size=10))
        neg = Tensor(RNG.normal(size=10))
        expected = -np.log(1.0 / (1.0 + np.exp(-(pos.data - neg.data)))).mean()
        assert abs(bpr_loss(pos, neg).item() - expected) < 1e-10

    def test_bpr_zero_when_pos_much_higher(self):
        assert bpr_loss(Tensor([100.0]), Tensor([-100.0])).item() < 1e-10

    def test_margin_loss_zero_when_satisfied(self):
        # sigma(10) ~ 1, sigma(-10) ~ 0; margin 0.4 easily satisfied.
        loss = sigmoid_margin_loss(Tensor([10.0]), Tensor([-10.0]), margin=0.4)
        assert loss.item() == pytest.approx(0.0, abs=1e-4)

    def test_margin_loss_positive_when_violated(self):
        loss = sigmoid_margin_loss(Tensor([0.0]), Tensor([0.0]), margin=0.4)
        assert loss.item() == pytest.approx(0.4, abs=1e-12)

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            sigmoid_margin_loss(Tensor([0.0]), Tensor([0.0]), margin=1.5)

    def test_margin_raw_differs_from_sigmoid_version(self):
        pos, neg = Tensor([0.2]), Tensor([0.1])
        raw = margin_loss_raw(pos, neg, margin=0.4).item()
        squashed = sigmoid_margin_loss(pos, neg, margin=0.4).item()
        assert raw != pytest.approx(squashed)

    def test_mse(self):
        assert mse_loss(Tensor([1.0, 3.0]), Tensor([0.0, 0.0])).item() == 5.0

    def test_l2_penalty(self):
        params = [Parameter(np.array([1.0, 2.0])), Parameter(np.array([[2.0]]))]
        assert l2_penalty(params).item() == 9.0

    def test_l2_penalty_empty(self):
        assert l2_penalty([]).item() == 0.0

    def test_reduction_modes(self):
        pos, neg = Tensor(np.zeros(4)), Tensor(np.zeros(4))
        none = sigmoid_margin_loss(pos, neg, margin=0.3, reduction="none")
        assert none.shape == (4,)
        total = sigmoid_margin_loss(pos, neg, margin=0.3, reduction="sum")
        assert total.item() == pytest.approx(1.2)
        with pytest.raises(ValueError):
            sigmoid_margin_loss(pos, neg, reduction="bogus")


class TestLossGradients:
    def test_bce_grad(self):
        logits = Tensor(RNG.normal(size=8), requires_grad=True)
        targets = Tensor(RNG.integers(0, 2, 8).astype(float))
        check_gradients(lambda x: bce_with_logits(x, targets, reduction="none"), [logits])

    def test_bpr_grad(self):
        pos = Tensor(RNG.normal(size=8), requires_grad=True)
        neg = Tensor(RNG.normal(size=8), requires_grad=True)
        check_gradients(lambda a, b: bpr_loss(a, b, reduction="none"), [pos, neg])

    def test_sigmoid_margin_grad(self):
        pos = Tensor(RNG.normal(size=8), requires_grad=True)
        neg = Tensor(RNG.normal(size=8), requires_grad=True)
        check_gradients(
            lambda a, b: sigmoid_margin_loss(a, b, margin=0.4, reduction="none"),
            [pos, neg],
        )

    def test_l2_grad(self):
        p = Parameter(RNG.normal(size=(3, 2)))
        l2_penalty([p]).backward()
        np.testing.assert_allclose(p.grad, 2 * p.data)

    def test_end_to_end_logistic_regression(self):
        # BCE + SGD should separate a linearly separable toy problem.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        layer = Linear(2, 1, rng=rng)
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(200):
            opt.zero_grad()
            logits = layer(Tensor(X)).reshape(200)
            loss = bce_with_logits(logits, Tensor(y))
            loss.backward()
            opt.step()
        preds = (layer(Tensor(X)).data.ravel() > 0).astype(float)
        assert (preds == y).mean() > 0.95
