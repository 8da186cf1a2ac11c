"""Per-campaign decision memo: decide each distinct history once.

Whether a run is CAL (Def. 6), and whether its recorded witness ``T_o``
agrees with ``H|o`` (Def. 5, §4), depends only on the projected history
and the witness — never on the schedule that produced them.  Exhaustive
and fuzz campaigns produce the same few histories thousands of times
(4,622 exchanger2 schedules, 10 distinct histories), so the campaign
drivers check through a memoizing subclass of their checker instead of
the bare one:

* **Key.** Search results are keyed on the projected history's
  type-exact :meth:`~repro.core.history.History.content_key` (plus the
  node budget); witness checks on that key plus the witness's
  :meth:`~repro.core.catrace.CATrace.content_key`.  Both keys are cached
  on the immutable history and trace.
* **Hit.** The public ``check``/``check_witness`` still run, so the
  ``check_begin``/``check_end`` trace events and the per-check counters
  (``cal.checks``, ``lin.failures``, …) are recorded as always; only the
  private decision hook is answered from the memo, with a copy of the
  stored result, and the counter and maxima deltas the first, real
  decision recorded (search tallies, ``SearchProfiler`` buckets) are
  merged into the caller's registry.  Stats, ``report.nodes``, coverage,
  ledgers and artifacts are therefore identical to an unmemoized run;
  only wall-clock timers differ.
* **What is stored.** Definitive results only: an ``UNKNOWN`` search
  (node budget or deadline trip) is re-run on every repeat, so each
  repeat trips — and emits ``budget_trip`` — exactly as before.
* **Bound.** At most :data:`_MEMO_CAP` entries, cleared wholesale when
  full.  A miss recomputes the identical answer, so eviction is
  invisible; a history or witness whose key cannot be hashed (a list
  argument) is simply checked without the memo.

There is deliberately no memo hit counter in :class:`~repro.obs.metrics.Metrics`:
hit counts depend on how a campaign is chunked across workers, which
would break the partition-transparent merge law of the stats.

The public :class:`~repro.checkers.cal.CALChecker` and
:class:`~repro.checkers.linearizability.LinearizabilityChecker` stay
stateless; only the drivers build memos, one per campaign call.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable

from repro.checkers.cal import CALChecker
from repro.checkers.linearizability import LinearizabilityChecker
from repro.checkers.result import CheckResult

#: Bound on the entries of one memo (see the module docstring).
_MEMO_CAP = 4096


def _fresh(value: Any) -> Any:
    """A shallow copy of a stored :class:`CheckResult`, so a caller that
    mutates its result (``result.nodes = …``) cannot touch the memo.
    Reason strings and None are immutable and returned as they are."""
    if not isinstance(value, CheckResult):
        return value
    fresh = object.__new__(CheckResult)
    fresh.__dict__.update(value.__dict__)
    return fresh


class DecisionMemo:
    """Mixin memoizing a checker's two decision hooks for one campaign:
    the search ``_check_impl`` and the witness check
    ``_check_witness_impl``, which both checker families share.

    Combine it ahead of a checker class; :class:`MemoCALChecker` and
    :class:`MemoLinearizabilityChecker` are the two the drivers use.
    """

    def __init__(self, spec) -> None:
        super().__init__(spec)  # type: ignore[call-arg]
        self._entries: Dict[Hashable, tuple] = {}

    def _check_impl(self, history, project, node_budget, deadline, metrics, trace):
        target = history.project_object(self.spec.oid) if project else history
        search = super()._check_impl  # type: ignore[misc]
        return self._decide(
            lambda: ("search", target.content_key(), node_budget),
            lambda registry: search(
                target, False, node_budget, deadline, registry, trace
            ),
            metrics,
        )

    def _check_witness_impl(self, history, trace, project):
        target = history.project_object(self.spec.oid) if project else history
        validate = super()._check_witness_impl  # type: ignore[misc]
        return self._decide(
            lambda: ("witness", target.content_key(), trace.content_key()),
            lambda _registry: validate(target, trace, False),
        )

    def _decide(
        self,
        key: Callable[[], Hashable],
        decide: Callable[[Any], Any],
        metrics=None,
    ) -> Any:
        """``decide(registry)``, answered from the memo when ``key()`` is.

        ``decide`` is the real decision; it records into the registry it
        is handed — a scratch ``type(metrics)()`` whose deltas are stored
        with the result, or None when the caller records nothing.  An
        entry stored without deltas cannot serve a caller that records,
        so that caller decides afresh and replaces it.
        """
        entries = self._entries
        try:
            memo_key = key()
            entry = entries.get(memo_key)
        except TypeError:  # unhashable argument or result: no memo
            return decide(metrics)
        if entry is not None:
            value, deltas = entry
            if metrics is None:
                return _fresh(value)
            if type(deltas) is type(metrics):
                metrics.merge(deltas)
                return _fresh(value)
        deltas = None if metrics is None else type(metrics)()
        value = decide(deltas)
        if deltas is not None:
            metrics.merge(deltas)
            deltas.timers.clear()  # wall clock is never replayed
        if not (isinstance(value, CheckResult) and value.unknown):
            if len(entries) >= _MEMO_CAP:
                entries.clear()
            if len(entries) < _MEMO_CAP:
                entries[memo_key] = (_fresh(value), deltas)
        return value


class MemoCALChecker(DecisionMemo, CALChecker):
    """:class:`CALChecker` deciding each distinct (projected) history and
    each distinct history/witness pair once."""


class MemoLinearizabilityChecker(DecisionMemo, LinearizabilityChecker):
    """:class:`LinearizabilityChecker` deciding each distinct (projected)
    history and each distinct history/singleton-witness pair once."""


__all__ = ["DecisionMemo", "MemoCALChecker", "MemoLinearizabilityChecker"]
