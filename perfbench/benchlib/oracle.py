"""Batch recompute of windowed answers, to check served ones.

The server labels each ingest batch after a stable sort by timestamp,
then counts per-area tweets and unique users within ε of each area, and
an OD transition for every pair of consecutive tweets of one user whose
labels differ — counted in the window of the *arriving* tweet (the
contract ``benchmarks/bench_summary.py`` checks).  :class:`Oracle`
recomputes exactly that from the tweets sent, with the ``repro.core``
kernels, for any prefix of the send order and any window.
"""

from __future__ import annotations

import math
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from benchlib.inputs import Stream

#: Rows per membership chunk: bounds the dense n x areas matrix in memory.
MEMBERSHIP_CHUNK = 8192


class Oracle:
    """Expected windowed answers for tweets sent in a known order.

    ``batches`` lists the stream rows of each ingest request in send
    order; rows are put into the server's processing order (stable sort
    by timestamp within each request) before anything is counted.
    """

    def __init__(self, world, stream: Stream, batches: list[np.ndarray]) -> None:
        from repro.core.label import label_points, membership_points

        order = [
            rows[np.argsort(stream.timestamps[rows], kind="stable")] for rows in batches
        ]
        rows = np.concatenate(order) if order else np.zeros(0, dtype=np.int64)
        self.world = world
        self.n = int(rows.size)
        self.ts = stream.timestamps[rows]
        users = stream.user_ids[rows]
        lats = stream.lats[rows]
        lons = stream.lons[rows]
        self.labels = label_points(world, lats, lons)
        # Sparse ε-membership as (row, area) pairs, built chunk by chunk.
        member_rows, member_areas = [], []
        for lo in range(0, self.n, MEMBERSHIP_CHUNK):
            hi = min(lo + MEMBERSHIP_CHUNK, self.n)
            r, a = np.nonzero(membership_points(world, lats[lo:hi], lons[lo:hi]))
            member_rows.append(r + lo)
            member_areas.append(a)
        self.member_rows = np.concatenate(member_rows) if member_rows else np.zeros(0, np.int64)
        self.member_areas = np.concatenate(member_areas) if member_areas else np.zeros(0, np.int64)
        _, self.user_index = np.unique(users, return_inverse=True)
        self.n_users = int(self.user_index.max()) + 1 if self.n else 0
        # prev[j]: the same user's previous row in processing order, or -1.
        by_user = np.argsort(self.user_index, kind="stable")
        self.prev = np.full(self.n, -1, dtype=np.int64)
        same = self.user_index[by_user[1:]] == self.user_index[by_user[:-1]]
        self.prev[by_user[1:][same]] = by_user[:-1][same]

    def expected(self, prefix: int, q0: int, q1: int) -> dict:
        """Counts over the first ``prefix`` rows with timestamps in ``[q0, q1)``."""
        n_areas = self.world.n_areas
        in_window = (np.arange(self.n) < prefix) & (self.ts >= q0) & (self.ts < q1)
        hit = in_window[self.member_rows]
        areas = self.member_areas[hit]
        tweet_counts = np.bincount(areas, minlength=n_areas)
        keys = np.unique(areas * max(self.n_users, 1) + self.user_index[self.member_rows[hit]])
        user_counts = np.bincount(keys // max(self.n_users, 1), minlength=n_areas)
        arriving = np.nonzero(in_window & (self.prev >= 0))[0]
        src = self.labels[self.prev[arriving]]
        dst = self.labels[arriving]
        valid = (src >= 0) & (dst >= 0) & (src != dst)
        flows = np.zeros((n_areas, n_areas), dtype=np.int64)
        np.add.at(flows, (src[valid], dst[valid]), 1)
        return {
            "tweet_counts": tweet_counts,
            "user_counts": user_counts,
            "flows": flows,
            "n_transitions": int(valid.sum()),
        }


def aligned_window(path: str) -> tuple[int, int]:
    """The minute-aligned ``[q0, q1)`` a windowed read must answer."""
    query = dict(parse_qsl(urlsplit(path).query))
    t0, t1 = (float(x) for x in query["window"].split(":"))
    return int(math.floor(t0 / 60.0)) * 60, int(math.ceil(t1 / 60.0)) * 60


def check_read(oracle: Oracle, path: str, payload: dict, prefix: int) -> list[str]:
    """Problems with one windowed read's answer (empty when it is right)."""
    q0, q1 = aligned_window(path)
    window = payload.get("window", {})
    problems = []
    if (window.get("t0"), window.get("t1")) != (q0, q1):
        problems.append(f"{path}: window {window} is not [{q0}, {q1})")
    want = oracle.expected(prefix, q0, q1)
    names = oracle.world.names
    if path.startswith("/v1/population"):
        areas = payload.get("areas", [])
        if [a.get("name") for a in areas] != list(names):
            return problems + [f"{path}: area list differs from the world"]
        tweets = np.array([a["tweets"] for a in areas], dtype=np.int64)
        users = np.array([a["twitter_population"] for a in areas], dtype=np.int64)
        if not np.array_equal(tweets, want["tweet_counts"]):
            problems.append(f"{path}: tweet counts differ in {int((tweets != want['tweet_counts']).sum())} areas")
        if not np.array_equal(users, want["user_counts"]):
            problems.append(f"{path}: user counts differ in {int((users != want['user_counts']).sum())} areas")
        return problems
    query = dict(parse_qsl(urlsplit(path).query))
    flows = want["flows"]
    rows = range(len(names))
    if "origin" in query:
        rows = [names.index(query["origin"])]
    expected = {
        (names[i], names[j]): int(flows[i, j])
        for i in rows
        for j in np.nonzero(flows[i])[0]
        if i != j
    }
    got = {(f["origin"], f["dest"]): f["flow"] for f in payload.get("flows", [])}
    if got != expected:
        wrong = len(set(got.items()) ^ set(expected.items()))
        problems.append(f"{path}: {wrong} flow entries differ")
    if payload.get("total_trips") != want["n_transitions"]:
        problems.append(
            f"{path}: total_trips {payload.get('total_trips')} != {want['n_transitions']}"
        )
    return problems
