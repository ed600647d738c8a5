"""The cosine, as `scoring.unit_rows` and the training score table build
it, and `evaluation.population_stats`, against frozen hand-computed
values and naive reimplementations."""

import numpy as np
import pytest

import milalign.autodiff as ad
import oracles
from milalign.aggregators import LocalAggregatorSpec, SentenceAggregatorSpec
from milalign.autodiff import ContractError
from milalign.evaluation import population_stats
from milalign.scoring import pairwise_score_tables, unit_rows


def cosine_table(a, b):
    """Cosines between the rows of a and b from the training score table:
    one region per image and one sentence per document, which Sum and Id
    pass through unchanged."""
    table, _ = pairwise_score_tables(
        a, 1, b, 1, LocalAggregatorSpec(kind="Sum"), None,
        SentenceAggregatorSpec(kind="Id"))
    return table.value


def cosine(x, y):
    return float(cosine_table(np.atleast_2d(x), np.atleast_2d(y))[0, 0])


def test_cosine_unit_axes():
    # cos((1,1), (1,0)) = 1/sqrt(2)
    c = cosine(np.asarray([1.0, 1.0]), np.asarray([1.0, 0.0]))
    assert abs(c - 0.7071067811865475) < 1e-15


def test_cosine_matches_naive_formula():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        assert abs(cosine(x, y) - oracles.cos(x, y)) < 1e-12


def test_cosine_scale_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        assert abs(cosine(x, y) - cosine(3.7 * x, 0.002 * y)) < 1e-12


def test_cosine_stays_in_range():
    v = np.asarray([1.0, 2.0, 3.0])
    assert cosine(v, v) <= 1.0
    assert cosine(v, -v) >= -1.0


def test_cosine_gradient():
    # the tape's cosine: unit rows multiplied together
    rng = np.random.default_rng(9)
    for _ in range(10):
        x0 = rng.standard_normal(5)
        y0 = unit_rows(rng.standard_normal((1, 5)))

        def f(v):
            return ad.vsum(ad.matmul(unit_rows(ad.reshape(v, (1, 5))),
                                     ad.transpose(y0)))

        report = ad.finite_difference_check(f, x0)
        assert report.passed


def test_population_stats_divides_by_n():
    mean, var = population_stats(np.asarray([1.0, 0.8]))
    assert abs(mean - 0.9) < 1e-15
    assert abs(var - 0.01) < 1e-15


def test_population_stats_single_value():
    mean, var = population_stats(np.asarray([0.3]))
    assert mean == 0.3
    assert var == 0.0


def test_population_stats_masks_each_row():
    values = np.asarray([[1.0, 0.8, 0.3], [0.5, 0.1, 0.9]])
    mask = np.asarray([[True, True, False], [False, False, True]])
    mean, var = population_stats(values, mask)
    for row, keep, m, v in zip(values, mask, mean, var):
        want_mean, want_var = population_stats(row[keep])
        assert m == want_mean and v == want_var
    with pytest.raises(ContractError, match="at least one value"):
        population_stats(values, np.zeros_like(mask))


def test_unit_rows_makes_unit_norm():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3)) * 10
    u = unit_rows(x)
    norms = np.linalg.norm(u.value, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_unit_rows_zero_row_stays_finite():
    x = np.zeros((1, 3))
    u = unit_rows(x)
    assert np.all(np.isfinite(u.value))


def test_cosine_matrix_matches_pairwise_similarity():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((3, 5))
    table = cosine_table(a, b)
    assert table.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert abs(table[i, j] - oracles.cos(a[i], b[j])) < 1e-12


def test_cosine_matrix_self_diagonal_is_one():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 4))
    table = cosine_table(a, a)
    assert np.allclose(np.diag(table), 1.0, atol=1e-12)
