"""Contrastive objective: closed-form identities, the trainable
temperature, and the score-table loss against the per-document formula."""

import math

import numpy as np
import pytest

import oracles
from milalign.autodiff import ContractError, Var
from milalign.objective import Temperature, infonce_score_table


def make_scores(pos, negs):
    """A (K+1) x (K+1) table whose every column holds the matched score on
    the diagonal and the K mismatched scores below it (cyclically), so
    the table loss equals the loss of that one score vector."""
    negs = np.asarray(negs, dtype=np.float64)
    b = negs.size + 1
    table = np.empty((b, b))
    for i in range(b):
        table[i, i] = pos
        table[(i + 1 + np.arange(b - 1)) % b, i] = negs
    return table


def test_single_negative_frozen_value():
    # log(1 + exp(2 * (0.2 - 0.8)))
    loss = infonce_score_table(make_scores(0.8, [0.2]), 2.0)
    assert abs(loss.value - 0.26328246733803107) < 1e-15


def test_equal_scores_give_log_k_plus_one():
    for k in (1, 2, 3, 7, 31):
        loss = infonce_score_table(make_scores(0.4, [0.4] * k), 5.0)
        assert abs(loss.value - math.log(k + 1)) <= 1e-12


def test_loss_is_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pos = float(rng.uniform(-1, 1))
        negs = rng.uniform(-1, 1, size=int(rng.integers(1, 6)))
        gamma = float(rng.uniform(0.5, 20.0))
        shift = float(rng.uniform(-5, 5))
        a = infonce_score_table(make_scores(pos, negs), gamma).value
        b = infonce_score_table(make_scores(pos + shift, negs + shift), gamma).value
        assert abs(a - b) <= 1e-12


def test_loss_ignores_negative_order():
    rng = np.random.default_rng(1)
    for _ in range(50):
        negs = rng.uniform(-1, 1, size=5)
        a = infonce_score_table(make_scores(0.3, negs), 3.0).value
        b = infonce_score_table(make_scores(0.3, negs[rng.permutation(5)]), 3.0).value
        assert abs(a - b) <= 1e-12


def test_loss_matches_naive_formula():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pos = float(rng.uniform(-1, 1))
        negs = rng.uniform(-1, 1, size=int(rng.integers(1, 5)))
        gamma = float(rng.uniform(0.1, 10.0))
        got = infonce_score_table(make_scores(pos, negs), gamma).value
        assert abs(got - oracles.infonce(pos, negs, gamma)) < 1e-12


def test_loss_is_strictly_positive_and_monotone_in_margin():
    base = infonce_score_table(make_scores(0.9, [0.1]), 14.0).value
    assert base > 0.0
    worse = infonce_score_table(make_scores(0.5, [0.1]), 14.0).value
    assert worse > base


def test_extreme_temperature_is_finite():
    loss = infonce_score_table(make_scores(-1.0, [1.0, 1.0]), 1000.0)
    assert np.isfinite(loss.value)
    # dominated by the margin: gamma * 2 plus log of the negative count
    assert abs(loss.value - (2000.0 + math.log(2.0))) < 1e-9


def test_temperature_wraps_log_gamma():
    temp = Temperature(log_gamma=np.asarray(math.log(14.0)))
    assert abs(temp.gamma.value - 14.0) < 1e-12
    loss_t = infonce_score_table(make_scores(0.7, [0.2, 0.1]), temp).value
    loss_f = infonce_score_table(make_scores(0.7, [0.2, 0.1]), 14.0).value
    assert abs(loss_t - loss_f) < 1e-12


def test_temperature_validation():
    with pytest.raises(ContractError):
        infonce_score_table(make_scores(0.5, [0.1]), -1.0)
    with pytest.raises(ContractError):
        infonce_score_table(make_scores(0.5, [0.1]), np.ones(2))


def test_score_table_equals_mean_of_per_document_losses():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b = int(rng.integers(2, 6))
        table = rng.uniform(-1, 1, size=(b, b))
        gamma = float(rng.uniform(0.5, 20.0))
        got = infonce_score_table(table, gamma).value
        assert abs(got - oracles.table_loss(table.tolist(), gamma)) < 1e-12


def test_score_table_requires_square_at_least_two():
    with pytest.raises(ContractError):
        infonce_score_table(np.ones((2, 3)), 1.0)
    with pytest.raises(ContractError):
        infonce_score_table(np.ones((1, 1)), 1.0)


def test_equal_score_table_gives_log_b():
    for b in (2, 4, 32):
        got = infonce_score_table(np.full((b, b), 0.3), 14.0).value
        assert abs(got - math.log(b)) <= 1e-12


def test_loss_gradient_descends_on_positive_score():
    table = Var(make_scores(0.2, [0.5, 0.1]))
    loss = infonce_score_table(table, 4.0)
    loss.backward()
    off_diagonal = ~np.eye(3, dtype=bool)
    assert np.all(np.diag(table.grad) < 0.0)    # raising a matched score lowers the loss
    assert np.all(table.grad[off_diagonal] > 0.0)  # raising a mismatched one raises it
