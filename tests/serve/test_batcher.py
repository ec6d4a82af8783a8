"""MicroBatcher mechanics: batching, fusion, futures, backpressure."""

import asyncio

import pytest

from repro.core.spec import StrideSpec
from repro.serve import batcher as batcher_module
from repro.serve.batcher import MicroBatcher, WorkItem
from repro.serve.session import Session


def run(coro):
    return asyncio.run(coro)


def make_item(loop, session_id, *, run_fn=None, pcs=(), values=()):
    """A STEP item (records, no ``run_fn``) or, with ``run_fn``, any
    other request."""
    return WorkItem(session_id=session_id, future=loop.create_future(),
                    run=run_fn, pcs=list(pcs), values=list(values))


class TestValidation:
    def test_bad_queue_depth(self):
        with pytest.raises(ValueError, match="queue_depth"):
            MicroBatcher(queue_depth=0)


class TestNextBatch:
    def test_collects_everything_available(self):
        async def body():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher()
            for i in range(5):
                await batcher.submit(make_item(loop, i))
            batch = await batcher.next_batch()
            assert [item.session_id for item in batch] == [0, 1, 2, 3, 4]
            assert batcher.batches == 1
            assert batcher.items == 5
        run(body())

    def test_caps_at_max_batch(self, monkeypatch):
        monkeypatch.setattr(batcher_module, "MAX_BATCH", 3)

        async def body():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher()
            for i in range(5):
                await batcher.submit(make_item(loop, i))
            assert len(await batcher.next_batch()) == 3
            assert len(await batcher.next_batch()) == 2
        run(body())

    def test_lone_item_leaves_without_a_timer(self):
        # Nothing else queued: next_batch hands the item over without
        # ever suspending -- no straggler window, no timer.
        async def body():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher()
            await batcher.submit(make_item(loop, 1))
            pending = batcher.next_batch()
            try:
                pending.send(None)
            except StopIteration as done:
                batch = done.value
            else:
                pending.close()
                pytest.fail("next_batch suspended with an item queued")
            assert [item.session_id for item in batch] == [1]
        run(body())

    def test_items_queued_while_busy_form_the_next_batch_and_fuse(self):
        async def body():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher()
            session = Session(1, StrideSpec(64))
            reference = Session(2, StrideSpec(64))
            blocks = [([4, 8], [10, 20]), ([4], [17]), ([8, 4], [31, 24]),
                      ([12], [5])]

            def step(pcs, values):
                return make_item(loop, 1, pcs=pcs, values=values)

            async def arrive_while_busy():
                for pcs, values in blocks[1:]:
                    await batcher.submit(step(pcs, values))

            await batcher.submit(step(*blocks[0]))
            late = asyncio.ensure_future(arrive_while_busy())
            first = await batcher.next_batch()
            assert len(first) == 1  # an idle shard does not wait
            await late  # the shard is busy with `first` meanwhile
            batcher.execute(first, {1: session})
            second = await batcher.next_batch()
            assert len(second) == 3
            batcher.execute(second, {1: session})
            assert batcher.fused_records == 4
            for item, (pcs, values) in zip(first + second, blocks):
                got, hits = item.future.result()
                want, want_hits = reference.step_block(pcs, values)
                assert list(got) == list(want) and hits == want_hits
            assert (batcher.batches, batcher.items) == (2, 4)
        run(body())


class TestFusion:
    def test_adjacent_matching_keys_fuse(self):
        # Adjacent STEP items fuse; an item with a run is a fence.
        loop = asyncio.new_event_loop()
        try:
            items = [make_item(loop, 1, pcs=[4], values=[1]),
                     make_item(loop, 1, pcs=[4], values=[2]),
                     make_item(loop, 1, run_fn=lambda s: "fence"),
                     make_item(loop, 1, pcs=[4], values=[3])]
            runs = MicroBatcher._fuse_runs(items)
            assert [len(r) for r in runs] == [2, 1, 1]
        finally:
            loop.close()

    def test_sessions_group_independently(self):
        loop = asyncio.new_event_loop()
        try:
            batch = [make_item(loop, 1), make_item(loop, 2),
                     make_item(loop, 1)]
            grouped = MicroBatcher._by_session(batch)
            assert [i.session_id for i in grouped[1]] == [1, 1]
            assert len(grouped[2]) == 1
        finally:
            loop.close()


class TestExecute:
    def test_fused_execution_matches_sequential(self):
        async def body():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher()
            session = Session(1, StrideSpec(64))
            reference = Session(2, StrideSpec(64))
            items = [
                make_item(loop, 1, pcs=[4, 8],
                          values=[10, 20]),
                make_item(loop, 1, pcs=[4],
                          values=[17]),
            ]
            batcher.execute(items, {1: session})
            expected = [reference.step_block([4, 8], [10, 20]),
                        reference.step_block([4], [17])]
            got = [item.future.result() for item in items]
            for (got_pred, got_hits), (want_pred, want_hits) in zip(got,
                                                                    expected):
                assert list(got_pred) == list(want_pred)
                assert got_hits == want_hits
            assert batcher.fused_records == 3
        run(body())

    def test_run_items_receive_session(self):
        async def body():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher()
            session = Session(5, StrideSpec(64))
            item = make_item(loop, 5, run_fn=lambda s: s.session_id)
            batcher.execute([item], {5: session})
            assert item.future.result() == 5
        run(body())

    def test_exception_lands_on_futures_not_worker(self):
        async def body():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher()
            bad = make_item(loop, 9, pcs=[1], values=[2])
            ok = make_item(loop, 1, pcs=[4], values=[7])
            batcher.execute([bad, ok], {1: Session(1, StrideSpec(64))})
            with pytest.raises(KeyError):
                bad.future.result()
            predicted, _hits = ok.future.result()
            assert len(predicted) == 1
        run(body())

    def test_cancelled_futures_are_skipped(self):
        async def body():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher()
            item = make_item(loop, 1, pcs=[4], values=[7])
            item.future.cancel()
            batcher.execute([item], {1: Session(1, StrideSpec(64))})
            assert item.future.cancelled()
        run(body())


class TestDrain:
    def test_drain_waits_for_task_done(self):
        async def body():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher()
            await batcher.submit(make_item(loop, 1))
            await batcher.submit(make_item(loop, 2))

            async def worker():
                batch = await batcher.next_batch()
                batcher.task_done(len(batch))

            task = asyncio.ensure_future(worker())
            pending = await batcher.drain()
            await task
            assert pending == 2
            assert batcher.qsize() == 0
        run(body())
