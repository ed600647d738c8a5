"""Reverse-mode engine: hand-derived gradients, broadcasting, and the
finite-difference harness itself."""

import warnings

import numpy as np
import pytest

import oracles
import milalign.autodiff as ad
from milalign.autodiff import ContractError, Var, finite_difference_check


def test_add_mul_chain():
    x = Var(np.asarray(3.0))
    y = ad.mul(x, x)  # x^2
    z = ad.mul(y, y)  # x^4
    t = ad.mul(z, z)  # x^8
    t.backward()
    assert t.value == 3.0 ** 8
    assert x.grad == 8 * 3.0 ** 7


def test_grad_accumulates_over_shared_parents():
    x = Var(np.asarray(2.0))
    out = ad.add(ad.mul(x, x), x)
    out.backward()
    assert x.grad == 2 * 2.0 + 1.0


def test_sub_div_neg():
    a = Var(np.asarray(5.0))
    b = Var(np.asarray(2.0))
    out = ad.sub(ad.div(ad.sub(a, b), b), ad.mul(a, -1.0))
    out.backward()
    # d/da [(a-b)/b + a] = 1/b + 1; d/db = -(a)/b^2 (quotient rule on (a-b)/b)
    assert np.isclose(a.grad, 1 / 2.0 + 1.0)
    assert np.isclose(b.grad, -5.0 / 4.0)


def test_unary_math_values_and_grads():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.uniform(0.2, 2.0)
        for fn, ref, dref in [
            (ad.tanh, np.tanh, lambda u: 1 - np.tanh(u) ** 2),
            (ad.exp, np.exp, np.exp),
        ]:
            x = Var(np.asarray(v))
            y = fn(x)
            y.backward()
            assert np.isclose(y.value, ref(v))
            assert np.isclose(x.grad, dref(v))


def test_sigmoid_matches_logistic():
    x = Var(np.asarray(0.3))
    y = ad.sigmoid(x)
    y.backward()
    s = 1 / (1 + np.exp(-0.3))
    assert np.isclose(y.value, s)
    assert np.isclose(x.grad, s * (1 - s))


def test_expit_is_the_libm_logistic_bit_for_bit():
    # numpy's vectorized exp may differ from the C library's by an ulp;
    # expit must not, and must give 0.0 silently where exp(-x) overflows
    edges = [0.0, 1e-300, 1e-3, 5.0, 36.8, 709.0, 709.8, 710.0, 745.0, 1000.0]
    points = np.asarray(edges + [-x for x in edges])
    cube = np.random.default_rng(3).standard_normal((32, 32, 5)) * 40.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in [points, cube, np.asarray(-745.0)]:
            got = ad.expit(x)
            assert got.dtype == np.float64 and got.shape == x.shape
            want = [oracles._sigmoid(t) for t in x.ravel().tolist()]
            assert got.ravel().tolist() == want
        assert ad.sigmoid(Var(points)).value.tolist() == \
            [oracles._sigmoid(t) for t in points.tolist()]


def test_matmul_gradients_match_explicit_sums():
    rng = np.random.default_rng(0)
    a = Var(rng.standard_normal((3, 4)))
    b = Var(rng.standard_normal((4, 2)))
    out = ad.vsum(ad.matmul(a, b))
    out.backward()
    assert np.allclose(a.grad, np.ones((3, 2)) @ b.value.T)
    assert np.allclose(b.grad, a.value.T @ np.ones((3, 2)))


def test_batched_matmul_gradients_match_explicit_sums():
    rng = np.random.default_rng(1)
    a = Var(rng.standard_normal((2, 3, 4)))
    b = Var(rng.standard_normal((2, 4, 5)))
    mix = rng.standard_normal((2, 3, 5))
    out = ad.matmul(a, b)
    ad.vsum(ad.mul(out, mix)).backward()
    ga = np.zeros((2, 3, 4))
    gb = np.zeros((2, 4, 5))
    for s in range(2):
        for i in range(3):
            for k in range(4):
                for j in range(5):
                    assert abs(out.value[s, i, j]
                               - sum(a.value[s, i, t] * b.value[s, t, j]
                                     for t in range(4))) < 1e-12
                    ga[s, i, k] += mix[s, i, j] * b.value[s, k, j]
                    gb[s, k, j] += mix[s, i, j] * a.value[s, i, k]
    assert np.allclose(a.grad, ga, rtol=0.0, atol=1e-12)
    assert np.allclose(b.grad, gb, rtol=0.0, atol=1e-12)


def test_batched_matmul_requires_paired_stacks():
    with pytest.raises(ContractError, match="leading axes"):
        ad.matmul(np.ones((2, 3, 4)), np.ones((3, 4, 5)))
    with pytest.raises(ContractError, match="3-D"):
        ad.matmul(np.ones((2, 3, 4)), np.ones((4, 5)))


def test_broadcast_add_unbroadcasts_gradient():
    a = Var(np.zeros((3, 4)))
    b = Var(np.zeros(4))
    out = ad.vsum(ad.add(a, b))
    out.backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    assert np.all(b.grad == 3.0)


def test_vsum_vmean_vmax_axis():
    x = Var(np.asarray([[1.0, 5.0], [2.0, 0.0]]))
    s = ad.vsum(x, axis=0)
    assert np.allclose(s.value, [3.0, 5.0])
    m = ad.vmean(x, axis=1)
    assert np.allclose(m.value, [3.0, 1.0])
    mx = ad.vmax(x, axis=0)
    mx2 = ad.vsum(mx)
    mx2.backward()
    assert np.allclose(mx.value, [2.0, 5.0])
    # subgradient picks the argmax entries only
    assert np.allclose(x.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_vprod_handles_zero_entries():
    x = Var(np.asarray([2.0, 0.0, 3.0]))
    p = ad.vprod(x, axis=0)
    p.backward()
    assert p.value == 0.0
    # d/dx1 of x0*x1*x2 at (2, 0, 3) is 6; the others are 0
    assert np.allclose(x.grad, [0.0, 6.0, 0.0])


def test_logsumexp_is_shift_stable():
    big = Var(np.asarray([1000.0, 1000.0]))
    out = ad.logsumexp(big, 1.0, axis=0)
    assert np.isclose(out.value, 1000.0 + np.log(2.0))
    neg = Var(np.asarray([-1000.0, -1000.0]))
    out2 = ad.logsumexp(neg, 1.0, axis=0)
    assert np.isclose(out2.value, -1000.0 + np.log(2.0))


def test_logsumexp_frozen_pair():
    # gamma 1 over {1, 0}: log(e + 1)
    out = ad.logsumexp(np.asarray([1.0, 0.0]), 1.0)
    assert abs(out.value - 1.3132616875182228) < 1e-15
    # gamma 0.1 over {1, 0}: 10 log(e^0.1 + 1)
    out = ad.logsumexp(np.asarray([1.0, 0.0]), 0.1)
    assert abs(out.value - 7.44396660073571) < 1e-12


def test_logsumexp_no_overflow():
    out = ad.logsumexp(np.asarray([2000.0, 2000.0]), 1.0)
    assert np.isfinite(out.value)
    assert abs(out.value - (2000.0 + np.log(2.0))) < 1e-9


def test_softmax_rows_sum_to_one_and_grad_is_centered():
    rng = np.random.default_rng(3)
    x = Var(rng.standard_normal(5))
    p = ad.softmax(x, 2.0, axis=0)
    assert np.isclose(p.value.sum(), 1.0)
    out = ad.vsum(p)
    out.backward()
    # sum of softmax is constant, so its gradient vanishes
    assert np.allclose(x.grad, 0.0, atol=1e-12)


def test_softmax_frozen_pair():
    p = ad.softmax(Var(np.asarray([1.0, 0.0])), 1.0, axis=0)
    assert np.allclose(p.value,
                       [0.7310585786300049, 0.2689414213699951], atol=1e-15)


def test_softmax_sums_to_one_at_large_logits():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = ad.softmax(rng.standard_normal(7) * 50, 1.0)
        assert np.all(p.value >= 0.0)
        assert abs(float(p.value.sum()) - 1.0) < 1e-15


def test_reshape_transpose():
    x = Var(np.arange(6.0).reshape(2, 3))
    r = ad.reshape(x, (3, 2))
    assert r.value.shape == (3, 2)
    t = ad.transpose(x)
    assert t.value.shape == (3, 2)
    stack = Var(np.arange(24.0).reshape(2, 3, 4))
    ts = ad.transpose(stack)
    assert ts.value.shape == (2, 4, 3)
    assert np.array_equal(ts.value[1], stack.value[1].T)
    weights = np.arange(24.0).reshape(2, 4, 3)
    ad.vsum(ad.mul(ts, weights)).backward()
    assert np.array_equal(stack.grad, np.swapaxes(weights, 1, 2))
    with pytest.raises(ContractError):
        ad.transpose(Var(np.ones(3)))


def test_getitem_int_and_slice_only():
    x = Var(np.arange(4.0))
    assert x[1].value == 1.0
    assert np.allclose(x[1:3].value, [1.0, 2.0])
    with pytest.raises(ContractError):
        x[np.asarray([0, 1])]


def test_diag_part_gradient():
    x = Var(np.arange(9.0).reshape(3, 3))
    d = ad.diag_part(x)
    out = ad.vsum(d)
    out.backward()
    assert np.allclose(d.value, [0.0, 4.0, 8.0])
    assert np.allclose(x.grad, np.eye(3))


def test_clip_min_blocks_gradient_below_floor():
    x = Var(np.asarray([0.5, 2.0]))
    out = ad.vsum(ad.clip_min(x, 1.0))
    out.backward()
    assert np.allclose(x.grad, [0.0, 1.0])


def test_clamp_is_straight_through():
    x = Var(np.asarray([-2.0, 0.5, 2.0]))
    out = ad.vsum(ad.clamp(x, -1.0, 1.0))
    out.backward()
    assert np.allclose(out.value, -1.0 + 0.5 + 1.0)
    # gradient passes through unchanged even at the clamped entries
    assert np.allclose(x.grad, [1.0, 1.0, 1.0])


def test_l2norm_value():
    x = Var(np.asarray([3.0, 4.0]))
    n = ad.l2norm(x)
    n.backward()
    assert np.isclose(n.value, 5.0)
    assert np.allclose(x.grad, [3.0 / 5.0, 4.0 / 5.0])


def test_backward_requires_scalar_root():
    x = Var(np.ones(3))
    with pytest.raises(ContractError):
        ad.mul(x, 2.0).backward()


def test_finite_difference_check_accepts_smooth_function():
    rng = np.random.default_rng(11)

    def f(v):
        return ad.vsum(ad.mul(ad.tanh(v), v))

    for _ in range(5):
        report = finite_difference_check(f, rng.standard_normal(4))
        assert report.passed
        assert report.max_relative_error < 1e-6


def test_finite_difference_check_flags_wrong_gradient():
    def f(v):
        # correct value, deliberately broken vjp
        return Var(np.asarray(np.sum(v.value ** 2)), parents=(v,),
                   vjp=lambda g: (np.zeros_like(v.value),))

    report = finite_difference_check(f, np.asarray([1.0, 2.0]))
    assert not report.passed
    assert report.max_relative_error > 1e-2


def test_ops_on_plain_arrays_record_nothing():
    rng = np.random.default_rng(21)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    outs = [ad.matmul(a, b), ad.add(a, 1.0), ad.mul(a, a), ad.tanh(a),
            ad.softmax(a, 2.0, axis=1), ad.vsum(ad.exp(a), axis=0),
            ad.matmul(a[None], b[None])]
    for out in outs:
        assert out._parents == () and out._vjp is None
        assert not out.requires_grad
    assert np.array_equal(outs[0].value, a @ b)


def test_constant_operand_gets_no_cotangent():
    rng = np.random.default_rng(22)
    for a_shape, b_shape in (((3, 4), (4, 2)), ((4,), (4, 2)), ((3, 4), (4,)),
                             ((4,), (4,)), ((2, 3, 4), (2, 4, 5))):
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        for const_a in (True, False):
            left = a if const_a else Var(a)
            right = Var(b) if const_a else b
            out = ad.matmul(left, right)
            ga, gb = out._vjp(np.ones(out.value.shape))
            assert (ga is None) == const_a and (gb is None) != const_a
    y = Var(np.ones(3))
    ga, gb = ad.mul(np.full(3, 2.0), y)._vjp(np.ones(3))
    assert ga is None and np.array_equal(gb, np.full(3, 2.0))


def test_backward_keeps_only_root_and_leaf_gradients():
    rng = np.random.default_rng(23)
    x = Var(rng.standard_normal(5))
    scale = np.asarray(rng.standard_normal(5))
    h = ad.tanh(x)
    const = ad.as_var(scale)
    y = ad.vsum(ad.add(ad.mul(h, h), ad.mul(const, x)))
    y.backward()
    assert h.grad is None
    assert const.grad is None
    assert y.grad == 1.0
    t = np.tanh(x.value)
    assert np.array_equal(x.grad, (t + t) * (1.0 - t * t) + scale)
