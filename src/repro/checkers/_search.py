"""Shared search scaffolding for the history checkers — bitmask core.

Both the classic and the CAL checker explore assignments of a complete
history's operations to positions in a candidate witness, constrained by
the real-time order.  This module precomputes the constraint structure:
per-operation predecessor/successor sets and the *frontier* function
(operations all of whose predecessors have been taken — by construction
pairwise concurrent, hence candidates for the same CA-element).

All sets of operation indices are represented as Python ints used as
bitmasks (bit ``i`` set ⇔ span ``i`` is in the set):

* membership/containment tests are single big-int operations
  (``taken & pred_mask == pred_mask`` instead of ``frozenset <=``);
* memo keys are ``(int, state_id)`` pairs — no per-node ``frozenset``
  allocation;
* frontiers update *incrementally*: taking a subset can only enable
  real-time successors of its members (``succ_masks``), so the checkers
  never rescan all spans per node.

The precedence masks depend only on the *index structure* of a history
(which response precedes which invocation), not on operation values, so
they are cached across the completions of one history: every completion
that drops the same pending invocations shares one mask computation
instead of rebuilding an O(n²) ``precedes`` matrix each time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from repro.core.history import History, OperationSpan

# Structural-key → (pred_masks, succ_masks) cache shared across the
# completions of a history (and across histories that happen to share an
# index shape).  Bounded: cleared wholesale when it grows past the cap —
# the workloads that matter re-enter steady state within one history.
_MASK_CACHE: Dict[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
_MASK_CACHE_CAP = 4096

# Process-local cache diagnostics (see mask_cache_stats()).  Plain module
# ints, not Metrics counters: hit rates depend on cache warmth, which is
# process history — keeping them out of Metrics keeps every Metrics
# counter deterministic (the parallel-merge equality guarantee).
_MASK_CACHE_HITS = 0
_MASK_CACHE_MISSES = 0


def structural_key(spans: Sequence[OperationSpan]) -> Tuple[Tuple[int, int], ...]:
    """The index shape of a history — the mask-cache key.

    Depends only on which response precedes which invocation, never on
    operation values; two histories with the same key share one
    precedence-mask computation.
    """
    return tuple(
        (s.inv_index, -1 if s.res_index is None else s.res_index) for s in spans
    )


def mask_cache_stats() -> Dict[str, int]:
    """Process-local structural-cache diagnostics (hits/misses/size)."""
    return {
        "hits": _MASK_CACHE_HITS,
        "misses": _MASK_CACHE_MISSES,
        "size": len(_MASK_CACHE),
    }


def _precedence_masks(
    spans: Sequence[OperationSpan],
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(pred_masks, succ_masks) for a complete history's spans.

    ``span_i ≺_H span_j`` iff ``res_index[i] < inv_index[j]``; instead of
    the O(n²) pairwise loop, sweep the spans in invocation order while
    accumulating the mask of already-responded operations — O(n log n).
    """
    global _MASK_CACHE_HITS, _MASK_CACHE_MISSES
    key = structural_key(spans)
    cached = _MASK_CACHE.get(key)
    if cached is not None:
        _MASK_CACHE_HITS += 1
        return cached
    _MASK_CACHE_MISSES += 1
    n = len(spans)
    by_inv = sorted(range(n), key=lambda i: spans[i].inv_index)
    by_res = sorted(range(n), key=lambda i: spans[i].res_index or 0)
    pred = [0] * n
    responded = 0
    r = 0
    for j in by_inv:
        inv_index = spans[j].inv_index
        while r < n and (spans[by_res[r]].res_index or 0) < inv_index:
            responded |= 1 << by_res[r]
            r += 1
        pred[j] = responded
    succ = [0] * n
    for j, mask in enumerate(pred):
        m = mask
        while m:
            low = m & -m
            succ[low.bit_length() - 1] |= 1 << j
            m ^= low
    result = (tuple(pred), tuple(succ))
    if len(_MASK_CACHE) >= _MASK_CACHE_CAP:
        _MASK_CACHE.clear()
    _MASK_CACHE[key] = result
    return result


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_masks(mask: int) -> Iterator[int]:
    """The set bits of ``mask`` as single-bit masks, ascending — the
    singleton candidates of a frontier."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


@dataclass(frozen=True)
class SearchProblem:
    """Precomputed precedence structure of a complete history.

    ``pred_masks[j]`` has bit ``i`` set iff ``span_i ≺_H span_j``;
    ``succ_masks[i]`` is the transpose.  ``full_mask`` is the goal test
    (all operations taken).
    """

    spans: Tuple[OperationSpan, ...]
    pred_masks: Tuple[int, ...]
    succ_masks: Tuple[int, ...]

    @staticmethod
    def of(
        history: History, validate: bool = True, metrics=None
    ) -> "SearchProblem":
        """Build the precedence structure of ``history``.

        ``validate=False`` skips the completeness re-check — for callers
        that have already validated the history (the checkers validate at
        their public ``check()`` boundary, and ``History.completions()``
        yields complete histories by construction).

        ``metrics`` (an :class:`~repro.obs.metrics.Metrics`) counts
        ``search.problems`` and tracks the largest problem built;
        structural-cache hit rates stay process-local — see
        :func:`mask_cache_stats`.
        """
        if validate and not history.is_complete():
            raise ValueError("search requires a complete history")
        spans = history.spans()
        pred, succ = _precedence_masks(spans)
        if metrics is not None:
            metrics.count("search.problems")
            metrics.record_max("search.problem_size_max", len(spans))
        return SearchProblem(spans=spans, pred_masks=pred, succ_masks=succ)

    # ------------------------------------------------------------------
    @property
    def full_mask(self) -> int:
        return (1 << len(self.spans)) - 1

    def predecessor_sets(self) -> Tuple[FrozenSet[int], ...]:
        """Frozenset view of ``pred_masks`` (for set-based searches such
        as the interval-linearizability checker)."""
        return tuple(frozenset(iter_bits(m)) for m in self.pred_masks)

    # ------------------------------------------------------------------
    def frontier_mask(self, taken: int) -> int:
        """Mask of untaken operations whose predecessors are all taken.

        Any two frontier operations are concurrent in the history: were
        one ordered before the other, the later one's predecessor set
        would contain the untaken earlier one.  Full scan — use once at
        the root, then :meth:`next_frontier` per step.
        """
        mask = 0
        for i, pred in enumerate(self.pred_masks):
            if not taken >> i & 1 and pred & ~taken == 0:
                mask |= 1 << i
        return mask

    def next_frontier(self, frontier: int, taken: int, subset: int) -> int:
        """Frontier after taking ``subset`` out of ``frontier``.

        ``taken`` is the mask *after* the subset was added.  Only
        real-time successors of the subset's members can have become
        newly enabled, so the update is local to ``succ_masks`` instead
        of a rescan of all spans.
        """
        new = frontier & ~subset
        candidates = 0
        m = subset
        while m:
            low = m & -m
            candidates |= self.succ_masks[low.bit_length() - 1]
            m ^= low
        candidates &= ~taken & ~new
        while candidates:
            low = candidates & -candidates
            if self.pred_masks[low.bit_length() - 1] & ~taken == 0:
                new |= low
            candidates ^= low
        return new

    # ------------------------------------------------------------------
    def frontier(self, taken) -> List[int]:
        """Frontier as a list of indices (compatibility helper).

        ``taken`` may be an int mask or any iterable of indices.
        """
        if not isinstance(taken, int):
            mask = 0
            for i in taken:
                mask |= 1 << i
            taken = mask
        return list(iter_bits(self.frontier_mask(taken)))

    def __len__(self) -> int:
        return len(self.spans)


def flush_search_tallies(
    metrics,
    nodes: int,
    memo_hits: int,
    memo_misses: int,
    candidates: int,
    rejections: int,
    frames: int,
    frontier_sum: int,
    frontier_max: int,
) -> None:
    """Fold one search's local tallies into a metrics registry.

    The checkers keep plain local ints in their hot loops (so the
    disabled-metrics path pays nothing but integer increments) and flush
    once per search through this helper; every value is a pure function
    of the searched history and spec, so parallel merges of per-worker
    registries reproduce the sequential totals exactly.
    """
    metrics.count("search.nodes", nodes)
    metrics.count("search.memo_hits", memo_hits)
    metrics.count("search.memo_misses", memo_misses)
    metrics.count("search.candidates_tried", candidates)
    metrics.count("search.spec_rejections", rejections)
    metrics.count("search.frames_pushed", frames)
    metrics.count("search.frontier_width_sum", frontier_sum)
    if frontier_max:
        metrics.record_max("search.frontier_width_max", frontier_max)
    observe = getattr(metrics, "observe_search", None)
    if observe is not None:
        # A profiling registry (repro.obs.profile.SearchProfiler) also
        # buckets the tallies by its current (checker, oid, width)
        # context; plain Metrics has no such hook.
        observe(
            nodes=nodes,
            memo_hits=memo_hits,
            memo_misses=memo_misses,
            candidates=candidates,
            rejections=rejections,
            frames=frames,
            frontier_sum=frontier_sum,
            frontier_max=frontier_max,
        )


def nonempty_subsets(items: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """All non-empty subsets, *lazily*, smallest first.

    Singletons are yielded before any pair is even constructed — a
    frontier of 20 concurrent operations no longer allocates ~1M tuples
    before the first candidate is tried (favours singleton witnesses,
    which keeps the classic-linearizability special case fast).
    """
    items = tuple(items)
    for size in range(1, len(items) + 1):
        yield from combinations(items, size)


def subset_masks(mask: int) -> Iterator[int]:
    """All non-empty submasks of ``mask``, lazily, in popcount order."""
    bits = [1 << i for i in iter_bits(mask)]
    for size in range(1, len(bits) + 1):
        for combo in combinations(bits, size):
            out = 0
            for bit in combo:
                out |= bit
            yield out
