"""ConvWorkspace: bit-identical numerics, correct reuse, bounded growth,
and per-thread isolation."""

import gc
import threading

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.functional import (
    ConvWorkspace,
    clear_conv_workspace,
    conv2d,
    conv_workspace,
    conv_workspace_totals,
)


@pytest.fixture(autouse=True)
def fresh_workspace():
    clear_conv_workspace()
    yield
    conv_workspace().enabled = True
    clear_conv_workspace()


def _conv_pass(seed, stride=1, padding=1):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 3, 9, 9)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
               requires_grad=True)
    b = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
    out = conv2d(x, w, b, stride=stride, padding=padding)
    out.backward(np.ones_like(out.data))
    return out.data.copy(), x.grad.copy(), w.grad.copy(), b.grad.copy()


class TestBitIdentity:
    def test_cached_equals_uncached_over_repeated_calls(self):
        ws = conv_workspace()
        ws.enabled = False
        baseline = [_conv_pass(seed) for seed in range(3)]
        ws.enabled = True
        clear_conv_workspace()
        # Three passes so the later ones hit warm (dirty) buffers.
        for seed, want in zip(range(3), baseline):
            got = _conv_pass(seed)
            for got_arr, want_arr in zip(got, want):
                np.testing.assert_array_equal(got_arr, want_arr)
        assert ws.hits > 0

    def test_grad_accumulation_unaffected_by_buffer_reuse(self):
        # Two backward passes into the same leaves must accumulate exactly
        # as with fresh allocations (the aliasing rule of the workspace:
        # nothing routed into the graph may live in a cached buffer).
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 2, 7, 7)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
                   requires_grad=True)
        first = conv2d(x, w, padding=1)
        first.backward(np.ones_like(first.data))
        grad_once = x.grad.copy(), w.grad.copy()
        second = conv2d(x, w, padding=1)  # reuses the warm buffers
        second.backward(np.ones_like(second.data))
        np.testing.assert_array_equal(x.grad, 2 * grad_once[0])
        np.testing.assert_array_equal(w.grad, 2 * grad_once[1])


class TestReuseAndInvalidation:
    def test_buffers_are_reused_per_key(self):
        ws = ConvWorkspace()
        a = ws.buffer(("k", (2, 2)), (2, 2))
        b = ws.buffer(("k", (2, 2)), (2, 2))
        assert a is b
        assert ws.hits == 1 and ws.misses == 1
        assert ws.buffer(("other", (2, 2)), (2, 2)) is not a

    def test_pad_writes_interior_and_keeps_zero_border(self):
        ws = ConvWorkspace()
        x1 = np.full((1, 1, 2, 2), 5.0, dtype=np.float32)
        out1 = ws.pad("t", x1, 1)
        x2 = np.full((1, 1, 2, 2), -3.0, dtype=np.float32)
        out2 = ws.pad("t", x2, 1)
        assert out1 is out2  # reused
        np.testing.assert_array_equal(out2, np.pad(x2, ((0, 0), (0, 0), (1, 1), (1, 1))))

    def test_pad_zero_padding_passthrough(self):
        ws = ConvWorkspace()
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        assert ws.pad("t", x, 0) is x
        assert ws.stats()["buffers"] == 0

    def test_lru_eviction_bounds_memory(self):
        ws = ConvWorkspace(max_buffers=4)
        for i in range(10):
            ws.buffer(("k", i), (2,))
        assert ws.stats()["buffers"] == 4
        # Oldest keys evicted; newest retained.
        assert ws.buffer(("k", 9), (2,)) is not None
        assert ws.hits == 1

    def test_clear_invalidates_everything(self):
        ws = conv_workspace()
        _conv_pass(0)
        stats = ws.stats()
        assert stats["buffers"] > 0
        # The pass's (2, 3·3·3, 9·9) columns sit in the scratch, counted
        # on top of the cached pad buffer.
        assert stats["buffer_bytes"] > 2 * 27 * 81 * 4
        clear_conv_workspace()
        stats = ws.stats()
        assert stats == {"buffers": 0, "buffer_bytes": 0,
                         "max_bytes": ws.max_bytes, "evictions": 0,
                         "hits": 0, "misses": 0}

    def test_disabled_workspace_caches_nothing(self):
        ws = conv_workspace()
        ws.enabled = False
        _conv_pass(1)
        assert ws.stats()["buffers"] == 0


class TestByteBudget:
    """The LRU historically capped buffer *count* only: 64 cached pads of
    a large model could pin gigabytes. The byte budget closes that."""

    def test_bytes_accounting_tracks_cached_buffers(self):
        ws = ConvWorkspace()
        ws.buffer(("a", 1), (16,))
        ws.buffer(("b", 1), (8,))
        assert ws.stats()["buffer_bytes"] == (16 + 8) * 4

    def test_eviction_by_bytes_before_count(self):
        # Budget fits two 1 KiB buffers; the third insert must evict the
        # oldest even though the count cap (64) is nowhere near reached.
        ws = ConvWorkspace(max_bytes=2048)
        ws.buffer(("a", 1), (256,))
        ws.buffer(("b", 1), (256,))
        ws.buffer(("c", 1), (256,))
        stats = ws.stats()
        assert stats["buffers"] == 2
        assert stats["buffer_bytes"] <= 2048
        assert stats["evictions"] == 1
        # LRU order: "a" was oldest and must be the one gone.
        ws.buffer(("c", 1), (256,))
        assert ws.hits == 1
        ws.buffer(("a", 1), (256,))
        assert ws.misses == 4

    def test_oversized_request_not_cached(self):
        ws = ConvWorkspace(max_bytes=64)
        buf = ws.buffer(("huge", 1), (1024,))
        assert buf.shape == (1024,)
        assert ws.stats()["buffers"] == 0

    def test_clear_resets_byte_accounting(self):
        ws = ConvWorkspace(max_bytes=2048)
        for i in range(5):
            ws.buffer(("k", i), (256,))
        ws.clear()
        stats = ws.stats()
        assert stats["buffer_bytes"] == 0 and stats["evictions"] == 0


class TestInFlightPadGuard:
    """Documented aliasing rule: a pad buffer is consumed synchronously;
    two same-tag same-shape pads return the *same* array, so an
    overlapping second pad silently corrupts the first. Debug mode turns
    that silent corruption into an immediate error."""

    def test_overlapping_same_tag_pad_raises_in_debug(self):
        ws = ConvWorkspace(debug=True)
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        first = ws.pad("conv", x, 1)
        with pytest.raises(RuntimeError, match="aliasing"):
            ws.pad("conv", x, 1)
        ws.pad_release(first)
        ws.pad("conv", x, 1)  # released → legal again

    def test_distinct_tags_do_not_conflict(self):
        ws = ConvWorkspace(debug=True)
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        a = ws.pad("conv", x, 1)
        b = ws.pad("conv_bw", x, 1)
        assert a is not b
        ws.pad_release(a)
        ws.pad_release(b)

    def test_non_debug_mode_is_unguarded_and_free(self):
        ws = ConvWorkspace()
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        first = ws.pad("conv", x, 1)
        assert ws.pad("conv", x, 1) is first  # documented aliasing
        ws.pad_release(first)  # no-op, never raises

    def test_release_of_foreign_array_is_safe(self):
        ws = ConvWorkspace(debug=True)
        ws.pad_release(np.zeros(3, dtype=np.float32))

    def test_conv2d_round_trip_clean_under_guard(self):
        # The real conv forward+backward must never trip the guard: every
        # pad is released before the next same-tag pad.
        ws = conv_workspace()
        ws.debug = True
        try:
            _conv_pass(0)
            _conv_pass(1)
        finally:
            ws.debug = False


class TestColumnScratch:
    """Every conv's im2col columns, at every shape, share one scratch per
    workspace, grown to the largest request: a buffer per layer and
    shape would pile up across a compiled detector's per-batch plans."""

    def test_reused_across_shapes(self):
        ws = conv_workspace()
        _conv_pass(0)
        stats = ws.stats()
        # Stride 2 changes the column geometry (same pad shape, fewer
        # columns): no new buffer, no growth.
        _conv_pass(0, stride=2)
        assert ws.stats()["buffers"] == stats["buffers"]
        assert ws.stats()["buffer_bytes"] == stats["buffer_bytes"]

    def test_grows_to_largest_request(self):
        ws = ConvWorkspace()
        small = ws.scratch((2, 3, 4))
        big = ws.scratch((5, 7))
        assert big.base is not small.base
        assert ws.stats()["buffer_bytes"] == 35 * 4
        again = ws.scratch((2, 3, 4))
        assert again.base is big.base
        assert again.shape == (2, 3, 4) and again.flags.c_contiguous
        assert ws.stats()["buffer_bytes"] == 35 * 4

    def test_cleared_by_clear(self):
        ws = ConvWorkspace()
        ws.scratch((64,))
        assert ws.stats()["buffer_bytes"] == 64 * 4
        ws.clear()
        assert ws.stats()["buffer_bytes"] == 0

    def test_oversized_request_not_cached(self):
        ws = ConvWorkspace(max_bytes=64)
        assert ws.scratch((1024,)).shape == (1024,)
        assert ws.stats()["buffer_bytes"] == 0

    def test_guard_raises_in_debug(self):
        ws = ConvWorkspace(debug=True)
        cols = ws.scratch((4, 4))
        with pytest.raises(RuntimeError, match="aliasing"):
            ws.scratch((2,))
        ws.scratch_release(cols)
        ws.scratch_release(ws.scratch((2,)))  # released → legal again

    def test_totals_probe_counts_the_scratch(self):
        gc.collect()  # no dead workspace may be collected mid-measurement
        before = conv_workspace_totals()
        ws = ConvWorkspace()
        ws.scratch((256,))
        after = conv_workspace_totals()
        assert after["buffer_bytes"] - before["buffer_bytes"] == 256 * 4


class TestTotalsProbe:
    def test_totals_aggregate_across_workspaces(self):
        before = conv_workspace_totals()
        ws1 = ConvWorkspace()
        ws2 = ConvWorkspace()
        ws1.buffer(("a", 1), (256,))
        ws2.buffer(("b", 1), (128,))
        after = conv_workspace_totals()
        assert after["workspaces"] >= before["workspaces"] + 2
        assert (after["buffer_bytes"] - before["buffer_bytes"]
                == (256 + 128) * 4)
        assert all(isinstance(v, (int, float)) for v in after.values())


class TestThreadIsolation:
    """A shared (module-level) workspace corrupts concurrent forwards:
    two threads padding the same-shaped input reuse one cached buffer,
    so the second write destroys the first thread's windows mid-conv.
    These tests fail deterministically against that design."""

    def test_each_thread_gets_its_own_workspace(self):
        main_ws = conv_workspace()
        seen = {}

        def grab():
            seen["other"] = conv_workspace()

        thread = threading.Thread(target=grab)
        thread.start()
        thread.join()
        assert seen["other"] is not main_ws

    def test_concurrent_pad_does_not_corrupt_other_thread(self):
        # Lock-step schedule: main pads, the other thread pads the SAME
        # key, then main checks its result. With one shared cache the
        # second pad would have overwritten main's buffer in place.
        x_main = np.full((1, 1, 4, 4), 7.0, dtype=np.float32)
        x_other = np.full((1, 1, 4, 4), -1.0, dtype=np.float32)
        padded_main = conv_workspace().pad("conv", x_main, 1)
        other_done = threading.Event()

        def pad_other():
            conv_workspace().pad("conv", x_other, 1)
            other_done.set()

        thread = threading.Thread(target=pad_other)
        thread.start()
        assert other_done.wait(timeout=10)
        thread.join()
        np.testing.assert_array_equal(
            padded_main,
            np.pad(x_main, ((0, 0), (0, 0), (1, 1), (1, 1))))
