"""The shift-and-matmul Conv1D against a direct einsum reference."""

import numpy as np
import pytest

from chainfolio.rlcore.network import CONV_KERNEL, Conv1D, Dense

_windows = np.lib.stride_tricks.sliding_window_view


def reference_forward(x, w, b):
    return np.einsum("bcmlk,ock->boml", _windows(x, w.shape[2], axis=3), w) + b[None, :, None, None]


def reference_backward(x, w, dy):
    """(dw, db, dx) of a valid conv along the last axis."""
    k = w.shape[2]
    dw = np.einsum("boml,bcmlk->ock", dy, _windows(x, k, axis=3))
    db = dy.sum(axis=(0, 2, 3))
    pad = np.pad(dy, ((0, 0), (0, 0), (0, 0), (k - 1, k - 1)))
    dx = np.einsum("bomik,ock->bcmi", _windows(pad, k, axis=3), w[:, :, ::-1])
    return dw, db, dx


def make_conv(c_in, c_out, rng):
    """A standalone layer with a He-normal weight and a zero bias."""
    w = rng.normal(0.0, np.sqrt(2.0 / (c_in * CONV_KERNEL)), size=(c_out, c_in, CONV_KERNEL))
    return Conv1D(w, np.zeros(c_out), np.zeros_like(w), np.zeros(c_out))


def assert_close(actual, desired):
    """rtol 1e-12, with an absolute floor at 1e-12 of the largest entry: where
    terms cancel, a reordered sum differs by an ulp of the terms, not of the result."""
    np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=1e-12 * np.abs(desired).max())


# (c_out, c_in, m) of the eam-1d conv and of both sam-4layer convs at the
# default feature shape (sam with the signal channel), over a 32-bar window
SHAPES = {"eam": (16, 15, 1), "sam": (8, 16, 2), "sam-second": (16, 8, 2)}


@pytest.mark.parametrize("batch", [1, 300])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_conv_matches_einsum_reference(shape, batch):
    c_out, c_in, m = SHAPES[shape]
    n = 32
    rng = np.random.default_rng(batch + c_in)
    conv = make_conv(c_in, c_out, rng)
    conv.b[...] = rng.normal(size=c_out)
    x = rng.normal(size=(batch, c_in, m, n))
    dy = rng.normal(size=(batch, c_out, m, n - CONV_KERNEL + 1))

    y = conv.forward(x)
    assert y.shape == (batch, c_out, m, n - CONV_KERNEL + 1)
    assert_close(y, reference_forward(x, conv.w, conv.b))

    dx = conv.backward(dy)
    dw, db, dx_ref = reference_backward(x, conv.w, dy)
    assert dx.shape == x.shape
    assert_close(conv.dw, dw)
    assert_close(conv.db, db)
    assert_close(dx, dx_ref)


def test_conv_gradients_accumulate_until_zeroed():
    rng = np.random.default_rng(3)
    conv = make_conv(2, 3, rng)
    y = conv.forward(rng.normal(size=(2, 2, 2, 5)))
    dy = rng.normal(size=y.shape)
    conv.backward(dy)
    once = (conv.dw.copy(), conv.db.copy())
    conv.backward(dy)
    np.testing.assert_array_equal(conv.dw, 2 * once[0])
    np.testing.assert_array_equal(conv.db, 2 * once[1])


@pytest.mark.parametrize("shape", list(SHAPES))
def test_conv_output_is_compact_channel_last_and_relu_keeps_it(shape):
    """The next conv reads Conv1D's output as (B, m, L, C) rows without a
    copy, ReLU in place keeps that memory order, and Dense flattens it as a
    view and returns its gradient in the same order."""
    c_out, c_in, m = SHAPES[shape]
    rng = np.random.default_rng(c_in)
    conv = make_conv(c_in, c_out, rng)
    y = conv.forward(rng.normal(size=(4, c_in, m, 32)))
    assert y.shape == (4, c_out, m, 32 - CONV_KERNEL + 1)
    assert y.transpose(0, 2, 3, 1).flags.c_contiguous
    pre = y.copy()
    np.maximum(y, 0.0, out=y)
    assert y.transpose(0, 2, 3, 1).flags.c_contiguous
    np.testing.assert_array_equal(y, np.where(pre > 0, pre, 0.0))
    flat = y.transpose(0, 2, 3, 1).reshape(4, -1)
    w = rng.normal(size=(5, flat.shape[1]))
    dense = Dense(w, rng.normal(size=5), np.zeros_like(w), np.zeros(5))
    np.testing.assert_array_equal(dense.forward(y), flat @ w.T + dense.b)
    assert np.shares_memory(dense._x, y)
    dy = rng.normal(size=(4, 5))
    back = dense.backward(dy)
    assert back.shape == y.shape
    assert back.transpose(0, 2, 3, 1).flags.c_contiguous
    np.testing.assert_array_equal(back.transpose(0, 2, 3, 1).reshape(4, -1), dy @ w)
    np.testing.assert_array_equal(dense.dw, dy.T @ flat)
