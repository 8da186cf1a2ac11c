"""Greybox schedule-prefix fuzzing: mutation operators + engine.

The engine implements the AFL loop at scheduler-decision granularity:

1. :meth:`GreyboxEngine.propose` — for each campaign seed, either draw
   a fresh uniform schedule (exploration) or pick a corpus entry by
   energy and mutate its prefix (exploitation).  Every draw comes from
   the ``mutation`` named stream (:func:`repro.search.rng.named_stream`)
   derived from that seed, so proposals are a pure function of
   ``(corpus state, seed)`` and never touch the schedule or fault
   streams.
2. The fuzz driver replays the proposed prefix (clamped modulo each
   decision's arity) and continues with the seed's usual random tail —
   :class:`repro.substrate.schedulers.PrefixRandomScheduler` — logging
   the *full* decision list, so recorded failures replay and shrink
   exactly like uniform ones.
3. :meth:`GreyboxEngine.observe` — after the run, the engine looks up
   the run's history and shape digests in the shared memo of
   :func:`~repro.obs.coverage.history_digests` and keeps the sets it
   has seen; runs that minted a new *semantic* fingerprint (history
   digest or history shape) donate their leading decisions to the
   corpus and credit the parent entry's ``hits``.  Schedule-prefix fingerprints are
   deliberately excluded from the novelty signal: under biased random
   sampling nearly every run mints a fresh prefix digest, which would
   flood the corpus with undistinguished entries and flatten the energy
   schedule into uniform replay.
4. :meth:`GreyboxEngine.record_failure` — the drivers feed verdict
   failures back with a large energy bonus and the *full* schedule (not
   just the leading decisions).  Mutations of a complete failing
   schedule re-trigger the failure at very high rates (truncations
   keep the corruption pinned; single-slot perturbs usually preserve
   it), so a corpus carrying a failure entry — e.g. warm-started from
   the campaign store's ``corpus`` table — re-finds the bug within a
   handful of runs where a cold uniform campaign needs hundreds.  This
   is the payoff measured by ``bench_e21_guided_search``.

The engine owns its novelty tracker precisely so that campaign-level
coverage collection (``coverage=`` on the drivers) stays optional and
observation-only: guidance behaves identically whether or not the
caller is also recording coverage.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Sequence, Tuple

from repro.obs.coverage import history_digests
from repro.search.corpus import CorpusEntry, ScheduleCorpus
from repro.search.rng import named_stream

#: Mutation operators, in the order the mutation stream chooses among.
MUTATION_OPS = ("truncate", "perturb", "extend", "splice")

#: Default length of the schedule prefix donated to the corpus.
DEFAULT_PREFIX_LEN = 12

#: Fraction of seeds that ignore the corpus and explore uniformly.
DEFAULT_EXPLORE_RATIO = 0.25

#: Exclusive upper bound for freshly-drawn decision indices.  Replay
#: clamps modulo arity, so this only shapes the draw distribution.
DEFAULT_MAX_VALUE = 4

#: Energy bonus a verdict failure's corpus entry starts with.  Failing
#: schedules are the highest-value mutation bases (their neighbourhood
#: re-triggers the failure at high probability), so they should absorb
#: most of the budget until their saturation curve decays.
FAILURE_ENERGY = 8


def mutate_prefix_op(
    rng: random.Random,
    prefix: Sequence[int],
    donor: Sequence[int],
    max_value: int = DEFAULT_MAX_VALUE,
) -> Tuple[str, Tuple[int, ...]]:
    """Like :func:`mutate_prefix`, also naming the operator applied.

    Returns ``(op, mutated)`` where ``op`` is the *effective* operator —
    a degenerate ``truncate``/``perturb``/``splice`` that fell back
    reports ``"extend"`` — so provenance telemetry attributes outcomes
    to what actually ran.  The rng draw sequence is identical to
    :func:`mutate_prefix`.
    """
    base = tuple(int(d) for d in prefix)
    op = rng.choice(MUTATION_OPS)
    if op == "truncate" and len(base) > 1:
        cut = rng.randrange(1, len(base))
        return op, base[:cut]
    if op == "perturb" and base:
        slot = rng.randrange(len(base))
        return op, base[:slot] + (rng.randrange(max_value),) + base[slot + 1 :]
    if op == "splice" and base and donor:
        head = rng.randrange(1, len(base) + 1)
        tail = rng.randrange(len(donor) + 1)
        return op, base[:head] + tuple(int(d) for d in donor)[tail:]
    # extend (also the fallback for degenerate truncate/perturb/splice)
    grown = base
    for _ in range(rng.randrange(1, 4)):
        grown += (rng.randrange(max_value),)
    return "extend", grown


def mutate_prefix(
    rng: random.Random,
    prefix: Sequence[int],
    donor: Sequence[int],
    max_value: int = DEFAULT_MAX_VALUE,
) -> Tuple[int, ...]:
    """Apply one mutation operator chosen by ``rng`` to ``prefix``.

    ``donor`` supplies the tail for ``splice``; all indices are drawn
    from ``rng`` only, so the result is a pure function of the inputs.
    Degenerate cases (empty prefixes) fall back to ``extend`` so the
    operator always returns a non-empty prefix.
    """
    return mutate_prefix_op(rng, prefix, donor, max_value)[1]


class GreyboxEngine:
    """Propose/observe loop the fuzz drivers call under ``guidance="greybox"``."""

    __slots__ = (
        "corpus",
        "prefix_len",
        "explore_ratio",
        "max_value",
        "ledger",
        "_histories",
        "_shapes",
        "_parent",
        "_pending_op",
        "proposed",
        "mutated",
    )

    def __init__(
        self,
        corpus: Optional[ScheduleCorpus] = None,
        prefix_len: int = DEFAULT_PREFIX_LEN,
        explore_ratio: float = DEFAULT_EXPLORE_RATIO,
        max_value: int = DEFAULT_MAX_VALUE,
        ledger=None,
    ) -> None:
        self.corpus = corpus if corpus is not None else ScheduleCorpus()
        self.prefix_len = prefix_len
        self.explore_ratio = explore_ratio
        self.max_value = max_value
        self.ledger = ledger  # optional ExplorationLedger (provenance)
        self._histories: set = set()  # history digests seen
        self._shapes: set = set()  # history shape digests seen
        self._parent: Optional[CorpusEntry] = None
        self._pending_op: Optional[str] = None
        self.proposed = 0  # seeds that got a mutated prefix
        self.mutated = 0  # mutations derived in total (== proposed)

    def propose(self, seed: int) -> Optional[List[int]]:
        """Return a mutated prefix for ``seed``, or None for a uniform draw."""
        self._parent = None
        self._pending_op = None
        if not len(self.corpus):
            return None
        rng = named_stream(seed, "mutation")
        if rng.random() < self.explore_ratio:
            return None
        entry = self.corpus.pick(rng)
        donor = self.corpus.pick(rng)
        if self.ledger is not None:
            # Energy at pick time, before this pick decays it.
            self.ledger.record_pick(entry.energy)
        op, prefix = mutate_prefix_op(
            rng, entry.prefix, donor.prefix, self.max_value
        )
        entry.children += 1
        self._parent = entry
        self._pending_op = op
        self.proposed += 1
        self.mutated += 1
        return list(prefix)

    def observe(self, position: int, run: Any, oid: Optional[str] = None) -> bool:
        """Feed one finished run back; returns True when it minted coverage.

        ``run`` is a :class:`~repro.substrate.runtime.RunResult` whose
        ``schedule`` the driver filled in; with ``oid`` its history is
        projected to that object first.  Minting a new semantic
        fingerprint (history digest or shape, from
        :func:`~repro.obs.coverage.history_digests`) adds the run's
        leading decisions to the corpus and credits the proposing entry.
        """
        history = run.history.project_object(oid) if oid is not None else run.history
        fingerprint, shape = history_digests(history)
        new_history = fingerprint not in self._histories
        minted = new_history or (shape is not None and shape not in self._shapes)
        self._histories.add(fingerprint)
        if shape is not None:
            self._shapes.add(shape)
        if self.ledger is not None:
            if self._pending_op is not None:
                self.ledger.record_mutation(self._pending_op, minted)
            if minted:
                self.ledger.record_admission("history" if new_history else "shape")
            else:
                self.ledger.record_rejection("duplicate")
        if minted:
            self.corpus.add(tuple(run.schedule[: self.prefix_len]))
            if self._parent is not None:
                self._parent.hits += 1
        self._parent = None
        self._pending_op = None
        return minted

    def record_failure(self, run: Any) -> Optional[CorpusEntry]:
        """Donate a verdict failure's *full* schedule at high energy.

        Returns the new corpus entry, or None when the schedule was
        already donated (a re-found failure keeps its original entry).
        """
        entry = self.corpus.add(tuple(run.schedule))
        if entry is not None:
            entry.hits += FAILURE_ENERGY
        if self.ledger is not None:
            self.ledger.count(
                "greybox.failure_donated"
                if entry is not None
                else "greybox.failure_duplicate"
            )
        return entry

    def stats(self) -> dict:
        """Counters for the campaign report / trace stream."""
        return {
            "corpus_size": len(self.corpus),
            "proposed": self.proposed,
            "novel": len(self._histories),
        }


__all__ = [
    "DEFAULT_EXPLORE_RATIO",
    "DEFAULT_MAX_VALUE",
    "DEFAULT_PREFIX_LEN",
    "FAILURE_ENERGY",
    "GreyboxEngine",
    "MUTATION_OPS",
    "mutate_prefix",
    "mutate_prefix_op",
]
