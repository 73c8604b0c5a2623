"""Vectorized batch replay kernels: the exact LRU cache models.

The direct statement of an LRU cache walks the access stream one key at
a time through an ``OrderedDict`` per set — exact, but interpreter-bound
at a few million accesses per second, which puts the paper-size replays
(65536 bodies, 16 processors, tens of epochs) out of reach.  This module
computes the *same counts* with numpy batch algorithms, so the
per-access work happens in C, and is the only cache engine the
simulators run.  The per-access model survives as the test oracle,
``tests/oracles/cache.py``.

The core identity is the classic reuse-distance (stack-distance)
characterization of fully-associative LRU:

    an access to key ``k`` hits iff fewer than ``capacity`` *distinct*
    keys were referenced since the previous access to ``k``.

Let ``prev[i]`` be the index of the previous occurrence of ``keys[i]``
(``-1`` for a first occurrence).  The number of distinct keys referenced
strictly between ``prev[i]`` and ``i`` equals the number of positions
``t`` with ``prev[i] < t < i`` whose own previous occurrence lies at or
before ``prev[i]`` (``prev[t] <= prev[i]``) — i.e. the first occurrence
*within the window* of each distinct intervening key.  Because
``prev[t] < t`` always, that count telescopes to::

    dist[i] = #{t < i : prev[t] <= prev[i]}  -  (prev[i] + 1)

The left term — "how many earlier positions have a previous-occurrence
index at most mine" — is an offline 2-D dominance count.  We compute it
without a Fenwick tree via a bottom-up blocked merge count: at block
width ``w`` every pair of adjacent length-``w`` slices contributes, for
each right-slice element, the number of left-slice elements ``<=`` it;
every ordered pair of positions is counted at exactly one level.  Each
level is a single ``np.sort`` + ``np.searchsorted`` over all blocks at
once (blocks are lifted into disjoint value ranges so one global
``searchsorted`` serves them all), giving O(n log^2 n) work entirely in
vectorized numpy.

Set-associativity comes for free: grouping the stream by set index with
a *stable* argsort makes each set's substream contiguous and in program
order, and since a key only ever maps to one set, every reuse window
``(prev[i], i)`` lies inside a single set's segment.  One dominance
count over the grouped stream therefore yields per-set reuse distances,
and the miss rule is ``dist >= assoc`` uniformly.

Cache state across calls is carried as the *resident array*: the cached
keys grouped by set, LRU-first within each set.  LRU obeys inclusion —
a set's content is always its ``assoc`` most recently used distinct
keys — so replaying the resident keys as an uncharged prefix of the
stream reconstructs the exact state, and the post-replay state is read
off the last-occurrence indices.  Equality with the per-access oracle
(including interleaved invalidations) is asserted access-for-access in
``tests/machines/test_kernels.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StreamResult",
    "collapse_runs",
    "count_left_le",
    "reuse_distances",
    "lru_kernel",
    "setassoc_kernel",
    "setassoc_replay",
    "stack_distance_histogram",
    "miss_curve",
    "SetAssocSweep",
]

_COLD = np.iinfo(np.int64).max  # reuse distance of a first-ever occurrence


@dataclass(frozen=True)
class StreamResult:
    """Outcome of one batched replay.

    Attributes
    ----------
    misses:
        Misses charged to the stream (the uncharged resident prefix is
        excluded).
    evictions:
        Entries pushed out by capacity during the replay.
    resident:
        Cache content after the replay: keys grouped by ascending set
        index, LRU-first within each set — the format accepted back as
        the ``resident`` argument of the next call.
    """

    misses: int
    evictions: int
    resident: np.ndarray


def collapse_runs(keys: np.ndarray) -> np.ndarray:
    """Drop consecutive duplicate entries (miss-count preserving): a
    re-reference to the key just touched can never miss."""
    keys = np.asarray(keys)
    if keys.shape[0] <= 1:
        return keys
    keep = np.empty(keys.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    if keep.all():  # nothing to drop: skip the gather copy
        return keys
    return keys[keep]


def count_left_le(vals: np.ndarray) -> np.ndarray:
    """For each ``i``, count positions ``t < i`` with ``vals[t] <= vals[i]``.

    Offline dominance counting by bottom-up blocked merge: O(n log^2 n),
    all levels fully vectorized (one sort + one searchsorted per level).
    """
    vals = np.asarray(vals, dtype=np.int64)
    n = vals.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return counts
    # Shift values to [0, span-2]; span-1 is the padding sentinel, so
    # lifting block b by b*span keeps blocks in disjoint sorted ranges.
    v = vals - int(vals.min())
    span = int(v.max()) + 2
    m = 1 << (n - 1).bit_length()
    if m > n:
        v = np.concatenate([v, np.full(m - n, span - 1, dtype=np.int64)])
    positions = np.arange(m)
    width = 1
    while width < m:
        pairs = m // (2 * width)
        blocks = v.reshape(pairs, 2 * width)
        lift = np.arange(pairs, dtype=np.int64)[:, None] * span
        left = np.sort(blocks[:, :width], axis=1) + lift
        right = blocks[:, width:] + lift
        hits = np.searchsorted(left.ravel(), right.ravel(), side="right")
        hits -= np.repeat(np.arange(pairs, dtype=np.int64), width) * width
        pos = positions.reshape(pairs, 2 * width)[:, width:].ravel()
        real = pos < n
        counts[pos[real]] += hits[real]
        width *= 2
    return counts


def _count_left_le_at(vals: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """:func:`count_left_le` evaluated only at query positions ``idx``.

    ``idx`` must be sorted ascending.  Offline block decomposition:
    ``vals`` is cut into fixed-size blocks, each sorted once; query ``i``
    sums a vectorized ``searchsorted`` count over every full block left
    of ``i`` plus a direct scan of its own partial block.  Costs
    O(n log s + nb*m + m*s) for ``m`` queries against the full pass's
    O(n log^2 n) — the win when ``m << n``.
    """
    n = vals.shape[0]
    m = idx.shape[0]
    out = np.zeros(m, dtype=np.int64)
    if m == 0:
        return out
    thr = vals[idx]
    s = 2048
    nb = int(idx[-1]) // s
    if nb:
        blocks = np.sort(vals[: nb * s].reshape(nb, s), axis=1)
        # idx ascending => queries needing block b (those with i >= (b+1)*s)
        # form a suffix; starts[b] is where that suffix begins.
        starts = np.searchsorted(idx // s, np.arange(nb), side="right")
        for b in range(nb):
            lo = starts[b]
            if lo < m:
                out[lo:] += np.searchsorted(blocks[b], thr[lo:], side="right")
    base = (idx // s) * s
    for q in range(m):
        i = int(idx[q])
        lo = int(base[q])
        if i > lo:
            out[q] += int(np.count_nonzero(vals[lo:i] <= thr[q]))
    return out


def _narrow(keys: np.ndarray) -> np.ndarray:
    """Narrow non-negative keys to the smallest dtype for radix argsort.

    numpy's stable argsort is a byte-wise radix sort; int64 line/page ids
    that fit in 16 bits sort ~7x faster as uint16.  Keys with negative
    values (never produced by the layouts, but allowed by the cache API)
    are passed through unchanged.
    """
    if keys.shape[0] == 0 or keys.dtype.itemsize <= 1:
        return keys
    if keys.dtype.kind != "u" and int(keys.min()) < 0:
        return keys
    hi = int(keys.max())
    for dt, limit in ((np.uint8, 1 << 8), (np.uint16, 1 << 16), (np.uint32, 1 << 32)):
        if hi < limit:
            return keys if keys.dtype == dt else keys.astype(dt)
    return keys


def _prev_occurrence(keys: np.ndarray) -> np.ndarray:
    """Index of each key's previous occurrence in the stream (-1 if none)."""
    n = keys.shape[0]
    if n < 2:
        return np.full(n, -1, dtype=np.int64)
    k = _narrow(keys)
    order = np.argsort(k, kind="stable")
    # In sorted order each position's predecessor is the previous stream
    # index of the same key, except at key-group starts (typically few) —
    # shift, patch the group starts to -1, scatter back to stream order.
    ko = k[order]
    po = np.empty(n, dtype=np.int64)
    po[0] = -1
    po[1:] = order[:-1]
    po[np.flatnonzero(ko[1:] != ko[:-1]) + 1] = -1
    prev = np.empty(n, dtype=np.int64)
    prev[order] = po
    return prev


def reuse_distances(keys: np.ndarray) -> np.ndarray:
    """Distinct keys referenced strictly between consecutive occurrences.

    First occurrences get ``np.iinfo(np.int64).max`` (an infinite
    distance: always a miss at any finite capacity).
    """
    keys = np.asarray(keys)
    prev = _prev_occurrence(keys)
    dist = count_left_le(prev) - (prev + 1)
    dist[prev < 0] = _COLD
    return dist


def _miss_mask(prev: np.ndarray, seg_end: np.ndarray, capacity: int) -> np.ndarray:
    """Per-access miss flags for an LRU of ``capacity`` ways per segment.

    ``prev`` is the previous-occurrence index of each position in the
    set-grouped stream (each segment one set, program order inside);
    ``seg_end[i]`` is the exclusive end of ``i``'s segment.

    The miss test only needs ``dist >= capacity``, never the exact reuse
    distance, so the hot path is a *windowed* count: a position ``t`` is
    "live" at time ``i`` iff its key does not recur before ``i``
    (``next[t] >= i``), and live positions inside the reuse window are
    exactly the distinct intervening keys.  Scanning a lookback of ``W``
    shifted comparisons therefore decides, in O(n·W) fully vectorized
    work:

    * ``gap <= W+1``   — the whole window is inside the lookback: the
      live count *is* the reuse distance (exact hit/miss);
    * ``live >= capacity`` — at least ``capacity`` distinct keys already
      in the lookback suffix: a certain miss;

    Undecided positions (long gap, low-diversity suffix) are finished by
    :func:`_finish_undecided`: 4x larger gathered lookbacks, then an
    exact count for the last sliver.  Segment boundaries are
    folded into the liveness horizon (``next`` capped at ``seg_end - 1``),
    so no per-position segment comparison is needed in the hot loop.
    """
    n = prev.shape[0]
    miss = prev < 0  # cold
    if capacity >= n:  # can never evict: only cold misses
        return miss
    iota = np.arange(n, dtype=np.int32)
    gap = iota - prev.astype(np.int32)  # i - prev[i]; cold rows already decided
    has_next = prev >= 0
    # rem[t] = next-occurrence(t) - t, with the liveness horizon capped at
    # t's segment end; "t live at i" (no recurrence before i) is then the
    # scalar test rem[t] >= i - t.
    rem = np.empty(n, dtype=np.int32)
    rem[:] = seg_end - 1
    rem[prev[has_next]] = iota[has_next]
    rem -= iota

    # acc[i] = live positions among the last W with offset inside the
    # reuse window.  For gap <= W+1 the window fits the lookback, so acc
    # is the exact reuse distance; for gap > W+1 every lookback offset is
    # in-window, so acc is a lower bound and acc >= capacity proves a
    # miss.  (One accumulator serves both cases.)  1.5x capacity of
    # lookback decides all but a sliver of real streams in the first
    # pass: an undecided row needs a long gap AND heavy repetition among
    # the most recent accesses.
    W = int(min(capacity + capacity // 2, 64, n - 1))
    acc = np.zeros(n, dtype=np.uint8 if W <= 255 else np.int32)
    buf = np.empty(n, dtype=bool)
    win = np.empty(n, dtype=bool)
    for k in range(1, W + 1):
        a = np.greater_equal(rem[: n - k], k, out=buf[: n - k])
        a &= np.greater(gap[k:], k, out=win[: n - k])
        acc[k:] += a
    near = (gap <= W + 1) & ~miss  # window inside lookback: acc is exact
    miss |= acc >= capacity  # exact verdict for near rows, certain for far
    undec = np.flatnonzero(~(near | miss))
    if undec.size:
        dist = _finish_undecided(prev, gap, rem, undec, W, capacity)
        miss[undec] = dist >= capacity
    return miss


def _finish_undecided(
    prev: np.ndarray,
    gap: np.ndarray,
    rem: np.ndarray,
    undec: np.ndarray,
    W: int,
    cap: int,
) -> np.ndarray:
    """Reuse distances ``min(dist, cap)`` of the rows a first lookback pass
    of width ``W`` left undecided (``undec``, ascending).

    ``gap`` and ``rem`` are the first pass's ``i - prev[i]`` and capped
    next-occurrence offsets.  Each round retries the rows with a 4x
    larger gathered lookback: a row is decided once its window fits the
    lookback (the live count is its exact distance) or the lookback
    already holds ``cap`` live keys (it clamps).  Each round costs ``W``
    Python-level passes however few rows remain, so a sliver of at most
    ``n/64`` rows is finished instead by the per-query exact count
    :func:`_count_left_le_at`; if the lookback budget blows up, the exact
    O(n log^2 n) dominance count :func:`count_left_le` finishes the job.
    """
    n = prev.shape[0]
    out = np.empty(undec.size, dtype=np.int64)
    rows = np.arange(undec.size)  # where each still-open row goes in ``out``
    while undec.size:
        if undec.size * 64 <= n:
            dist = _count_left_le_at(prev, undec) - (prev[undec] + 1)
            out[rows] = np.minimum(dist, cap)
            break
        W = min(W * 4, n)
        if undec.size * W > 64 * n + (1 << 22):
            # Adversarial stream shape: finish with the exact global count.
            dist = count_left_le(prev) - (prev + 1)
            out[rows] = np.minimum(dist[undec], cap)
            break
        g = gap[undec]
        acc2 = np.zeros(undec.size, dtype=np.int32)
        # Rows below W need the t >= 0 guard; undec is sorted, so they
        # are a prefix and the (usually much larger) tail skips it.
        lo = int(np.searchsorted(undec, W))
        head, tail = undec[:lo], undec[lo:]
        acc_h, acc_t = acc2[:lo], acc2[lo:]
        g_h, g_t = g[:lo], g[lo:]
        for k in range(1, W + 1):
            if head.size:
                t = head - k
                acc_h += (t >= 0) & (rem[np.maximum(t, 0)] >= k) & (k < g_h)
            a = rem[tail - k] >= k
            a &= k < g_t
            acc_t += a
        decided = (g <= W + 1) | (acc2 >= cap)
        out[rows[decided]] = np.minimum(acc2[decided], cap)
        undec = undec[~decided]
        rows = rows[~decided]
    return out


def _replay_small_assoc(
    grouped: np.ndarray, bounds: np.ndarray, assoc: int
) -> tuple[np.ndarray, np.ndarray]:
    """Miss flags and end state for ``assoc <= 2``, O(n) without sorting.

    At associativity 1 an access hits iff it repeats the in-segment
    predecessor (reuse distance 0).  At associativity 2 the only other
    hit shape is reuse distance 1: the window back to the previous
    occurrence is a single *run* of one foreign key — so the first access
    of run ``j`` hits iff run ``j-2`` has the same key.  Both tests are
    local run analysis, which matters because the 2-way L2 is the
    simulator's highest-volume cache: this path skips the
    previous-occurrence radix sort entirely.  Segments are sets, and keys
    of different sets always differ, so a run never spans segments and
    equal keys two runs apart always share one.

    Returns ``(miss, resident)`` with ``resident`` in the usual grouped
    LRU-first format (per segment: the pre-final-run key, if any, then
    the final run's key).
    """
    n = grouped.shape[0]
    miss = np.empty(n, dtype=bool)  # run starts; repeats are dist-0 hits
    miss[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=miss[1:])
    ends = bounds[1:] - 1  # last position of each segment
    if assoc == 1:
        return miss, grouped[ends]
    starts = np.flatnonzero(miss)
    run_keys = grouped[starts]
    miss[starts[2:][run_keys[2:] == run_keys[:-2]]] = False  # dist-1 hits
    # End state: MRU = final run's key; LRU = the run before it, when
    # that run is inside the segment.
    last = np.searchsorted(starts, ends, side="right") - 1
    has_lru = last > np.searchsorted(starts, bounds[:-1])
    counts = 1 + has_lru.astype(np.int64)
    pos_end = np.cumsum(counts)
    resident = np.empty(int(pos_end[-1]), dtype=grouped.dtype)
    resident[pos_end - 1] = grouped[ends]
    resident[pos_end[has_lru] - 2] = run_keys[last[has_lru] - 1]
    return miss, resident


def setassoc_replay(
    keys: np.ndarray,
    nsets: int,
    assoc: int,
    resident: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-position miss flags of a set-associative LRU replay.

    The core of :func:`setassoc_kernel`.  Returns ``(grouped, miss,
    resident)``: ``grouped`` is the resident prefix followed by ``keys``,
    stably grouped by set (narrowed by :func:`_narrow`); ``miss[i]`` flags
    whether ``grouped[i]`` misses, with every resident-prefix position
    flagged (its keys are distinct, so each is a first occurrence); and
    ``resident`` is the end state in the same grouped LRU-first format,
    in the narrowed dtype.  Callers that encode an owner in the key's low
    bits (one segment per processor, say) read per-owner counts straight
    off ``grouped[miss]``.
    """
    if resident is None or resident.shape[0] == 0:
        combined = keys
    else:
        combined = np.concatenate([resident, keys])
    n = combined.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=bool), empty
    # Narrow once up front: every later pass (set extraction, sort gather,
    # run comparisons, extraction) then moves 1-4 bytes per key instead
    # of 8.  Negative keys fall back to int64 untouched.
    combined = _narrow(combined)
    # Group by set, program order preserved within each set; the
    # resident prefix of each set lands ahead of its stream accesses.
    if nsets > 1:
        mask = nsets - 1
        if combined.dtype == np.int64:
            sets_all = combined & mask
        elif mask >= (1 << (8 * combined.dtype.itemsize)) - 1:
            sets_all = combined  # mask covers the whole dtype: set id == key
        else:
            sets_all = combined & combined.dtype.type(mask)
        if nsets <= 1 << 16 and sets_all.dtype.itemsize > 2:
            # Stable argsort is a radix sort only up to 16-bit keys.
            sets_all = sets_all.astype(np.uint16)
        order = np.argsort(sets_all, kind="stable")
        grouped = combined[order]
        # Segment boundaries fall out of the per-set population counts —
        # no need to materialize the sorted set-id array for them.
        counts = np.bincount(sets_all, minlength=nsets)
        bounds = np.concatenate([[0], np.cumsum(counts[counts > 0])])
    else:
        grouped = combined
        bounds = np.array([0, n], dtype=np.int64)

    if assoc <= 2:
        miss, new_resident = _replay_small_assoc(grouped, bounds, assoc)
        return grouped, miss, new_resident
    seg_end = np.repeat(bounds[1:], np.diff(bounds))
    prev = _prev_occurrence(grouped)
    miss = _miss_mask(prev, seg_end, assoc)
    # Post-replay state: per set, the `assoc` distinct keys with the
    # largest last-occurrence index, emitted LRU-first.  A position is a
    # key's *last* occurrence iff nothing points back to it via ``prev``;
    # those positions, in stream order, are already sorted by set (the
    # grouping) and by recency within each set.
    is_last = np.ones(n, dtype=bool)
    has_next = prev >= 0
    is_last[prev[has_next]] = False
    idx = np.flatnonzero(is_last)
    keys_last = grouped[idx]
    if nsets > 1:
        set_of_last = sets_all[order[idx]]
        counts = np.bincount(set_of_last, minlength=nsets)
        from_end = np.cumsum(counts)[set_of_last] - np.arange(idx.shape[0])
        new_resident = keys_last[from_end <= assoc]  # from_end is 1-based
    elif keys_last.shape[0] > assoc:
        new_resident = keys_last[-assoc:]
    else:
        new_resident = keys_last
    return grouped, miss, new_resident


def setassoc_kernel(
    keys: np.ndarray,
    nsets: int,
    assoc: int,
    resident: np.ndarray | None = None,
) -> StreamResult:
    """Replay ``keys`` through a set-associative LRU, batch-vectorized.

    ``resident`` is the prior cache content in :class:`StreamResult`
    format (grouped by set, LRU-first); ``None`` means a cold cache.
    Keys map to set ``key & (nsets - 1)``.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if resident is None or resident.shape[0] == 0:
        resident = np.empty(0, dtype=np.int64)
    else:
        resident = np.ascontiguousarray(resident, dtype=np.int64)
    nres = resident.shape[0]
    if nres + keys.shape[0] == 0:
        return StreamResult(0, 0, resident)
    _, miss, new_resident = setassoc_replay(keys, nsets, assoc, resident)
    # Every uncharged prefix position carries a miss flag, so charging
    # the stream is a single subtraction.
    misses = int(np.count_nonzero(miss)) - nres
    evictions = nres + misses - new_resident.shape[0]
    # Resident state goes back out as int64 regardless of the internal
    # narrowing — it is tiny (<= nsets * assoc entries).
    return StreamResult(misses, int(evictions), new_resident.astype(np.int64, copy=False))


def lru_kernel(
    keys: np.ndarray, capacity: int, resident: np.ndarray | None = None
) -> StreamResult:
    """Fully-associative LRU replay: one set of ``capacity`` ways."""
    return setassoc_kernel(keys, 1, capacity, resident)


# ---------------------------------------------------------------------------
# Multi-capacity sweeps: miss curves from stack distances
# ---------------------------------------------------------------------------


def _group_by_set(keys: np.ndarray, nsets: int) -> tuple[np.ndarray, np.ndarray]:
    """Group a stream by set index (stable), returning (grouped, bounds)."""
    if nsets <= 1:
        return keys, np.array([0, keys.shape[0]], dtype=np.int64)
    sets = keys & (nsets - 1)
    order = np.argsort(sets, kind="stable")
    counts = np.bincount(sets, minlength=nsets)
    bounds = np.concatenate([[0], np.cumsum(counts[counts > 0])])
    return keys[order], bounds


def stack_distance_histogram(
    keys: np.ndarray, nsets: int = 1
) -> tuple[np.ndarray, int]:
    """Exact stack-distance histogram of a cold LRU replay.

    Returns ``(hist, cold)`` where ``hist[d]`` counts accesses at finite
    reuse distance ``d`` — distinct keys referenced since the previous
    occurrence, within the key's set when ``nsets > 1`` — and ``cold``
    counts first-ever occurrences.  By Mattson's stack-algorithm
    inclusion property an access hits a ``nsets x a`` LRU iff its
    distance is ``< a``, so the miss count at *every* associativity
    falls out of this one replay: ``cold + hist[a:].sum()``.

    Consecutive duplicate accesses contribute to ``hist[0]`` (distance
    zero); they are hits at any capacity, so miss counts derived from
    the histogram are collapse-invariant.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    n = keys.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    grouped, _ = _group_by_set(keys, nsets)
    prev = _prev_occurrence(grouped)
    dist = count_left_le(prev) - (prev + 1)
    d = dist[prev >= 0]
    hist = np.bincount(d).astype(np.int64) if d.size else np.zeros(0, np.int64)
    return hist, int(n - d.size)


def miss_curve(
    keys: np.ndarray, capacities: np.ndarray, nsets: int = 1
) -> np.ndarray:
    """Exact LRU miss counts for every capacity from one cold replay.

    ``capacities`` are ways per set (associativities) when ``nsets > 1``
    and plain capacities in the fully-associative ``nsets == 1`` case.
    Equivalent to one :func:`setassoc_kernel` replay of ``keys`` per
    capacity, but costs a single dominance-count pass for the
    whole curve.
    """
    caps = np.asarray(capacities, dtype=np.int64)
    hist, cold = stack_distance_histogram(keys, nsets)
    tail = np.concatenate([np.cumsum(hist[::-1])[::-1], [0]])
    return cold + tail[np.minimum(caps, hist.shape[0])]


def _clamped_distances(
    prev: np.ndarray, seg_end: np.ndarray, cmax: int
) -> np.ndarray:
    """Exact reuse distance per position, clamped at ``cmax``.

    Returns ``min(dist, cmax)`` with cold positions (``prev < 0``) at
    ``cmax``.  Same windowed-liveness trick as :func:`_miss_mask`, but
    keeping the accumulator *value* where the window fits the lookback
    (exact distance) instead of only the ``>= capacity`` verdict; far
    positions whose lookback already holds ``cmax`` distinct live keys
    are certain to clamp, and the rest go through the same lookback
    retries and exact finish as :func:`_miss_mask`
    (:func:`_finish_undecided`).
    """
    n = prev.shape[0]
    if n == 0 or cmax <= 0:
        return np.full(n, cmax, dtype=np.int64)
    cold = prev < 0
    if cmax >= n:
        dist = count_left_le(prev) - (prev + 1)
        np.minimum(dist, cmax, out=dist)
        dist[cold] = cmax
        return dist
    iota = np.arange(n, dtype=np.int32)
    gap = iota - prev.astype(np.int32)
    # rem as in _miss_mask; cold rows scatter into the spare slot 0.
    rem = np.empty(n + 1, dtype=np.int32)
    rem[1:] = seg_end - 1
    rem[prev + 1] = iota
    rem = rem[1:]
    rem -= iota
    W = int(min(max(cmax + cmax // 2, 8), 64, n - 1))
    acc = np.zeros(n, dtype=np.uint8 if W <= 255 else np.int32)
    buf = np.empty(n, dtype=bool)
    win = np.empty(n, dtype=bool)
    for k in range(1, W + 1):
        a = np.greater_equal(rem[: n - k], k, out=buf[: n - k])
        a &= np.greater(gap[k:], k, out=win[: n - k])
        acc[k:] += a
    near = (gap <= W + 1) & ~cold
    out = np.where(near, np.minimum(acc, cmax), cmax).astype(np.int64)
    undec = np.flatnonzero(~cold & ~near & (acc < cmax))
    if undec.size:
        out[undec] = _finish_undecided(prev, gap, rem, undec, W, cmax)
    return out


class SetAssocSweep:
    """Multi-capacity set-associative LRU replay: one pass, all capacities.

    Holds the set count fixed and answers every associativity ``1 ..
    max_assoc`` simultaneously, including across epoch boundaries and
    interleaved invalidations — the configuration family swept by
    :func:`repro.machines.hardware.simulate_hardware_sweep`.

    The carried state is one ``(key, mdepth)`` pair per tracked key,
    where ``mdepth`` is the maximum LRU stack depth the key has reached
    in its set *since its last access*.  Because LRU eviction is
    monotone in capacity and permanent (a key that ever reached depth
    ``d`` has been evicted from every cache with fewer than ``d+1``
    ways, and cannot re-enter until its next access), a key is resident
    at associativity ``a`` iff it is tracked and ``mdepth < a``.  An
    access's *generalized* stack distance is then::

        g = max(mdepth, depth rebuilt from the valid-prefix replay)

    and the access misses at associativity ``a`` iff ``g >= a`` — exact
    at every capacity at once.  (A plain stack distance over the
    surviving keys is *not* enough: deleting an invalidated key above a
    previously-evicted one would let the latter slide back under the
    capacity line; ``mdepth`` pins the historical maximum.)

    :meth:`access_stream` returns the histogram of ``g`` clamped at
    ``max_assoc`` — split by owner when the top ``owner_bits`` bits of
    the set index name one (a processor, say); miss counts are its
    suffix sums (:meth:`curve`).  An access that repeats the previous
    access to its set (``g = 0``) is counted without entering the
    distance passes; on reordered traces most accesses are such repeats
    once grouped by set.  A call replays only the state of the
    sets its keys touch, so a stream cut into blocks of ascending,
    disjoint set ranges costs no more than one call, and each block's
    state stays small.  :meth:`drop` removes the tracked keys (see
    :attr:`keys`) flagged by a mask and returns their ``mdepth``
    thresholds: a key was resident — hence actually invalidated — at
    associativity ``a`` iff its threshold is ``< a``;
    :meth:`invalidate_present` is the same drop by key list.  Equality
    with per-capacity replays of the per-access oracle is asserted in
    ``tests/machines/test_sweep_kernels.py``.
    """

    def __init__(self, nsets: int, max_assoc: int) -> None:
        if nsets < 1 or nsets & (nsets - 1):
            raise ValueError(f"nsets must be a positive power of two, got {nsets}")
        if max_assoc < 1:
            raise ValueError(f"max_assoc must be >= 1, got {max_assoc}")
        self.nsets = nsets
        self.max_assoc = max_assoc
        # Tracked keys grouped by ascending set, LRU-first (mdepth
        # strictly decreasing) within each set, with their set ids.
        self._keys = np.empty(0, dtype=np.int64)
        self._mdepth = np.empty(0, dtype=np.int64)
        self._sets = np.empty(0, dtype=np.int64)
        # Calls over ascending set ranges defer the splice: ``_parts``
        # holds the new state of everything before ``_pos`` in the arrays
        # above (sets below ``_next_set``), which :meth:`_splice` joins.
        self._parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pos = 0
        self._next_set = 0

    @staticmethod
    def curve(hist: np.ndarray, capacities: np.ndarray) -> np.ndarray:
        """Miss counts per associativity from an accumulated g-histogram."""
        caps = np.asarray(capacities, dtype=np.int64)
        tail = np.concatenate([np.cumsum(hist[::-1])[::-1], [0]])
        return tail[np.minimum(caps, hist.shape[0])]

    def _splice(self) -> None:
        """Join the deferred parts and the untouched rest of the state."""
        if self._parts:
            rest = (self._keys, self._mdepth, self._sets)
            cols = zip(*self._parts, (c[self._pos :] for c in rest))
            self._keys, self._mdepth, self._sets = (np.concatenate(c) for c in cols)
            self._parts = []
        self._pos = self._next_set = 0

    @property
    def keys(self) -> np.ndarray:
        """The tracked keys, grouped by ascending set (the mask order of
        :meth:`drop`)."""
        self._splice()
        return self._keys

    def access_stream(
        self, keys: np.ndarray, owner_bits: int | None = None
    ) -> np.ndarray:
        """Replay one epoch's accesses; return the clamped-g histogram.

        ``hist[v]`` counts accesses with ``min(g, max_assoc) == v``; the
        miss count at associativity ``a <= max_assoc`` is
        ``hist[a:].sum()``, matching a ``setassoc_kernel(keys, nsets, a)``
        replay.  With ``owner_bits`` the histogram is split by owner
        ``set >> (log2(nsets) - owner_bits)``: shape ``(2**owner_bits,
        max_assoc + 1)``.

        Set-local repeats — accesses whose predecessor in their set is an
        access to the same key — are counted in bin 0 and dropped before
        the previous-occurrence sort and the distance passes: they hit at
        every capacity and change no recency order and no other window's
        distinct-key count.  The first access after a tracked key is kept
        even when it repeats that key, since its ``g`` is the key's
        ``mdepth``.
        """
        cmax = self.max_assoc
        nown = 1 if owner_bits is None else 1 << owner_bits
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        n = keys.shape[0]
        if n == 0:
            hist = np.zeros((nown, cmax + 1), dtype=np.int64)
            return hist[0] if owner_bits is None else hist
        sets = keys & (self.nsets - 1)
        s0, s1 = int(sets.min()), int(sets.max())
        if s0 < self._next_set:
            self._splice()
        # The state of sets [s0, s1] is one slice; sets are local from here.
        a = self._pos + int(np.searchsorted(self._sets[self._pos :], s0))
        b = a + int(np.searchsorted(self._sets[a:], s1, side="right"))
        m = b - a
        nloc = s1 - s0 + 1
        sdt = np.uint16 if nloc <= 1 << 16 else np.int64
        local = np.concatenate([self._sets[a:b] - s0, sets - s0]).astype(sdt)

        # Combined stream: per set, the tracked keys LRU-first (an
        # uncharged prefix reconstructing the recency order) followed by
        # the accesses in program order.
        order = np.argsort(local, kind="stable")
        combined = np.concatenate([self._keys[a:b], keys])[order]
        # Drop the set-local repeats (equal keys share a set, so equal
        # neighbours are always in one set's segment).
        rep = np.zeros(m + n, dtype=bool)
        np.equal(combined[1:], combined[:-1], out=rep[1:])
        rep[1:] &= order[:-1] >= m
        ends = np.cumsum(np.bincount(local, minlength=nloc))
        # Each owner's sets are contiguous, so its accesses are one slice
        # of the set-grouped stream.
        tag_shift = self.nsets.bit_length() - 1
        oshift = tag_shift - (owner_bits or 0)
        o0, o1 = s0 >> oshift, (s1 >> oshift) + 1
        cuts = np.clip((np.arange(o0, o1 + 1) << oshift) - s0, 0, nloc)
        bounds = np.concatenate([[0], ends])[cuts]
        nrep = np.concatenate([[0], np.cumsum(rep)])
        repeats = np.diff(nrep[bounds])
        bounds -= nrep[bounds]
        ends -= nrep[ends]
        order, combined = order[~rep], combined[~rep]
        md_at = np.concatenate([self._mdepth[a:b], np.zeros(n, np.int64)])[order]
        is_stream = order >= m
        seg = local[order]
        counts = np.diff(ends, prepend=0)
        # Equal keys share a set, so relabelling each key by (tag, local
        # set) keeps equality and fits the radix sort's 16 bits far more
        # often than the raw key does.
        prev = _prev_occurrence((combined >> tag_shift) * nloc + seg)
        dist = _clamped_distances(prev, np.repeat(ends, counts), cmax)
        # A stream position's own mdepth is 0, so the max only lifts
        # re-accesses of prefix keys; cold positions are already cmax.
        # Prefix positions go to the spare bin cmax + 1.
        g = np.where(
            is_stream, np.maximum(md_at[np.maximum(prev, 0)], dist), cmax + 1
        )
        hist = np.zeros((nown, cmax + 2), dtype=np.int64)
        for o, lo, hi in zip(range(o0, o1), bounds[:-1], bounds[1:]):
            hist[o] = np.bincount(g[lo:hi], minlength=cmax + 2)
        hist[o0:o1, 0] += repeats
        hist = hist[:, : cmax + 1]

        # New state: each key's last position.  In LRU-first order, a
        # key's new mdepth is the number of keys after it in its set (for
        # an un-accessed prefix key, at least its old mdepth); keys that
        # reach ``cmax`` are gone at every capacity.  First occurrences
        # mark the spare slot 0.
        is_last = np.ones(prev.shape[0] + 1, dtype=bool)
        is_last[prev + 1] = False
        idx = np.flatnonzero(is_last[1:])
        lseg = seg[idx]
        after = np.cumsum(np.bincount(lseg, minlength=nloc))[lseg] - 1
        after -= np.arange(idx.shape[0])
        md = np.maximum(md_at[idx], after)
        keep = md < cmax
        pos = self._pos
        self._parts += [
            (self._keys[pos:a], self._mdepth[pos:a], self._sets[pos:a]),
            (combined[idx[keep]], md[keep], lseg[keep].astype(np.int64) + s0),
        ]
        self._pos, self._next_set = b, s1 + 1
        return hist[0] if owner_bits is None else hist

    def drop(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Drop the tracked keys flagged in ``mask`` (aligned with
        :attr:`keys`); return ``(removed, thresholds)``.

        A dropped key was resident — and therefore counted as an
        invalidation by the per-capacity simulator — at associativity
        ``a`` iff its returned threshold is ``< a``; at smaller
        capacities it had already been evicted, so the invalidation was
        a no-op there.
        """
        self._splice()
        removed, thr = self._keys[mask], self._mdepth[mask]
        if thr.shape[0]:
            keep = ~mask
            self._keys, self._mdepth, self._sets = (
                self._keys[keep], self._mdepth[keep], self._sets[keep]
            )
        return removed, thr

    def invalidate_present(
        self, keys: np.ndarray, assume_unique: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop tracked keys in ``keys``; return ``(removed, thresholds)``
        as :meth:`drop` does.  Keys absent from the state are not
        returned."""
        w = np.asarray(keys, dtype=np.int64)
        if not assume_unique:
            w = np.unique(w)
        tracked = self.keys
        if tracked.shape[0] == 0 or w.shape[0] == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return self.drop(np.isin(tracked, w, assume_unique=True))
