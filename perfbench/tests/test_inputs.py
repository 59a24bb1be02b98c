"""The same seed gives byte-identical inputs; another seed does not."""

import numpy as np

from benchlib import inputs


def _dashboard_bytes(seed):
    dash = inputs.dashboard_inputs(seed, 3.0)
    return (
        [b.body for b in dash.prefill],
        [(e.offset, e.kind, e.path, e.body, e.sent_before, e.check) for e in dash.events],
    )


def test_ingest_batches_are_deterministic():
    stream_a, batches_a = inputs.ingest_batches(5)
    stream_b, batches_b = inputs.ingest_batches(5)
    assert [b.body for b in batches_a] == [b.body for b in batches_b]
    assert np.array_equal(stream_a.timestamps, stream_b.timestamps)
    _, other = inputs.ingest_batches(6)
    assert batches_a[0].body != other[0].body


def test_ingest_batches_never_go_behind_the_watermark():
    stream, batches = inputs.ingest_batches(5)
    assert all(len(b.rows) == inputs.BATCH_TWEETS for b in batches[:-1])
    newest = -np.inf
    for batch in batches:
        times = stream.timestamps[batch.rows]
        assert times.min() >= newest
        newest = times.max()
    # Shuffled inside: a batch is not sent in time order.
    assert not np.all(np.diff(stream.timestamps[batches[0].rows]) >= 0)


def test_dashboard_schedule_is_deterministic():
    assert _dashboard_bytes(3) == _dashboard_bytes(3)
    assert _dashboard_bytes(3) != _dashboard_bytes(4)


def test_dashboard_reads_follow_the_cycle():
    dash = inputs.dashboard_inputs(3, 6.0)
    reads = [e for e in dash.events if e.kind != "ingest"]
    assert len(reads) == int(6.0 * inputs.READ_RATE)
    assert sum(e.check for e in reads) >= 2
    offsets = [e.offset for e in dash.events]
    assert offsets == sorted(offsets)


def test_pipeline_args_follow_the_seed():
    assert inputs.pipeline_args(7, "c") == inputs.pipeline_args(7, "c")
    assert "7" in inputs.pipeline_args(7, "c")
