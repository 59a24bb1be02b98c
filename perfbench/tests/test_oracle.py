"""The oracle accepts the service's answers and catches a corrupted count."""

import copy
import json

import numpy as np
import pytest

from benchlib import inputs, oracle, procs, serving
from benchlib.workloads import _world


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Eight hours of stream ingested into an in-process service, then read back."""
    work = tmp_path_factory.mktemp("oracle")
    stream = inputs.tweet_stream(2, 8.0)
    rng = np.random.default_rng(0)
    batches = [inputs.make_batch(stream, lo, min(lo + 1024, len(stream)), rng)
               for lo in range(0, len(stream), 1024)]
    server = serving.InProcessServer(
        serving.fresh_cache(serving.registry_cache(work), work, "serve"))
    try:
        client = procs.Client(server.port)
        tally = serving.Tally()
        serving.prefill(client, batches, tally)
        assert tally.failed == 0, tally.problems
        rows = [b.rows for b in batches]
        reads = serving.whole_span_reads(client, stream, rows)
        t1 = float(stream.timestamps[-1])
        path = f"/v1/flows?window={t1 - 3600.0!r}:{t1!r}"
        reads.append((path, json.loads(client.request("GET", path)[1])))
        client.close()
    finally:
        server.stop()
    return oracle.Oracle(_world(), stream, rows), reads


def test_served_answers_pass(served):
    checker, reads = served
    for path, payload in reads:
        assert oracle.check_read(checker, path, payload, checker.n) == []


def test_a_corrupted_tweet_count_is_caught(served):
    checker, reads = served
    path, payload = reads[0]
    bad = copy.deepcopy(payload)
    bad["areas"][3]["tweets"] += 1
    assert any("tweet counts" in p for p in oracle.check_read(checker, path, bad, checker.n))


def test_a_corrupted_user_count_is_caught(served):
    checker, reads = served
    path, payload = reads[0]
    bad = copy.deepcopy(payload)
    bad["areas"][0]["twitter_population"] += 1
    assert any("user counts" in p for p in oracle.check_read(checker, path, bad, checker.n))


def test_a_corrupted_flow_is_caught(served):
    checker, reads = served
    path, payload = reads[1]
    assert payload["flows"], "the stream should produce some flows"
    bad = copy.deepcopy(payload)
    bad["flows"][0]["flow"] += 1
    assert oracle.check_read(checker, path, bad, checker.n)
    bad = copy.deepcopy(payload)
    bad["flows"].pop()
    assert oracle.check_read(checker, path, bad, checker.n)


def test_an_answer_from_a_later_state_is_caught(served):
    checker, reads = served
    path, payload = reads[0]
    assert oracle.check_read(checker, path, payload, checker.n - 300)
