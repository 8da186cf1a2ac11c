"""Golden digests of checker searches and witness validations.

The CAL search (Def. 6) and classic linearizability — CAL over singleton
elements (§3) — may be restructured, but never allowed to move a single
observable.  Each case below runs a fixed family of checks and hashes,
per check, the verdict, reason, node count, witness, completion, the
``Metrics`` counters and maxima (``SearchProfiler`` buckets included)
and the trace events.  Every check gets a fresh registry and sink, and
runs both through the bare checker and through the campaign drivers'
decision memo (:class:`~repro.checkers.verify.CheckPolicy`).

Records are built from reprs that sort set contents (CA-elements print
their operations sorted) and from sorted counter items, so the digests
do not depend on ``hash()`` or set order.

The pinned digests were computed before the two searches were merged
into one.  Print the current ones with
``PYTHONPATH=src python tests/test_search_identity.py``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import pytest

from repro import cli
from repro.checkers.cal import CALChecker
from repro.checkers.linearizability import LinearizabilityChecker
from repro.checkers.verify import CheckPolicy
from repro.core.actions import Invocation, Operation, Response
from repro.core.catrace import (
    CAElement,
    CATrace,
    failed_exchange_element,
    swap_element,
)
from repro.core.history import History
from repro.obs import SearchProfiler, TraceSink
from repro.specs import ExchangerSpec, RegisterSpec, SequentializedExchangerSpec
from repro.substrate.explore import explore_all
from repro.substrate.faults import FaultCampaign
from repro.substrate.schedulers import RandomScheduler
from repro.workloads.figure3 import (
    figure3_history_h1,
    figure3_history_h2,
    figure3_history_h3,
)
from repro.workloads.synthetic import wide_overlap_history


def _registry(metrics: SearchProfiler) -> Tuple:
    return sorted(metrics.counters.items()), sorted(metrics.maxima.items())


def _events(sink: TraceSink) -> List:
    return [
        sorted((k, repr(v)) for k, v in event.items() if k != "elapsed_s")
        for event in sink.events
    ]


def _result(result) -> Tuple:
    return (
        result.verdict.value,
        result.ok,
        result.reason,
        result.nodes,
        repr(result.witness),
        repr(result.completion),
    )


def _search(checker, history: History, node_budget: Optional[int]) -> Tuple:
    metrics, sink = SearchProfiler(), TraceSink()
    result = checker.check(
        history, node_budget=node_budget, metrics=metrics, trace=sink
    )
    return ("search", _result(result), _registry(metrics), _events(sink))


def _searches(policy: CheckPolicy, bare, history, budgets) -> Iterator[Tuple]:
    for node_budget in budgets:
        yield _search(bare, history, node_budget)
        yield _search(policy.checker, history, node_budget)


def _witness(policy: CheckPolicy, history: History, witness: CATrace) -> Tuple:
    metrics = SearchProfiler()
    problem, nodes = policy.witness_problem(history, witness, metrics)
    return ("witness", problem, nodes, _registry(metrics))


def _dpor_exchanger3(count: int, budgets) -> Iterator[Tuple]:
    workload = cli.WORKLOADS["exchanger3"]
    spec = ExchangerSpec("E")
    policy = CheckPolicy.cal(spec, True, True, None)
    bare = CALChecker(spec)
    for run in explore_all(
        workload.make_setup(),
        max_steps=workload.max_steps,
        reduction="dpor",
        limit=count,
    ):
        yield from _searches(policy, bare, run.history, budgets)
        yield _witness(policy, run.history, policy.witness(run))


def _figure3(budgets) -> Iterator[Tuple]:
    """H1–H3 searched by both checkers, and validated against the CA-trace
    ``E.{swap(t1, t2)} · E.{fail(t3)}`` and its singleton splits."""
    cal = CheckPolicy.cal(ExchangerSpec("E"), True, True, None)
    lin = CheckPolicy.linearizability(SequentializedExchangerSpec("E"), True, None)
    swap = swap_element("E", "t1", 3, "t2", 4)
    fail = failed_exchange_element("E", "t3", 7)
    t1, t2 = sorted(swap.operations, key=str)
    witnesses = [
        CATrace([swap, fail]),
        CATrace([CAElement("E", [t1]), CAElement("E", [t2]), fail]),
        CATrace([fail, CAElement("E", [t2]), CAElement("E", [t1])]),
        CATrace([CAElement("E", [t1]), fail]),
    ]
    for make in (figure3_history_h1, figure3_history_h2, figure3_history_h3):
        history = make()
        yield from _searches(cal, CALChecker(cal.checker.spec), history, budgets)
        yield from _searches(
            lin, LinearizabilityChecker(lin.checker.spec), history, budgets
        )
        for witness in witnesses:
            yield _witness(cal, history, witness)
            yield _witness(lin, history, witness)


def _seeded_lin(
    name: str, seeds: range, budgets, faults: Any = None
) -> Iterator[Tuple]:
    """Seeded runs of a linearizability workload: every run is searched
    and its recorded singleton trace validated as a witness."""
    workload = cli.WORKLOADS[name]
    setup = workload.make_setup()
    spec = workload.make_spec()
    policy = CheckPolicy.linearizability(spec, True, None)
    bare = LinearizabilityChecker(spec)
    pending = 0
    for seed in seeds:
        runtime = setup(RandomScheduler(seed, yield_bias=workload.yield_bias))
        if faults is not None:
            runtime.inject(faults.plan(seed, runtime.thread_ids))
        run = runtime.run(max_steps=workload.max_steps)
        history = run.history
        pending += bool(history.project_object(spec.oid).pending_invocations())
        yield from _searches(policy, bare, history, budgets)
        yield _witness(policy, history, policy.witness(run))
    if faults is not None:
        assert pending, "the fault campaign left no pending invocation"


def _register_pending(budgets) -> Iterator[Tuple]:
    """Hand-built register histories whose pending invocations must be
    completed or dropped (Def. 2)."""
    spec = RegisterSpec("R")
    policy = CheckPolicy.linearizability(spec, False, None)
    bare = LinearizabilityChecker(spec)
    histories = [
        # A pending write explains the read: it must be completed.
        History(
            [
                Invocation("t1", "R", "write", (1,)),
                Invocation("t2", "R", "read", ()),
                Response("t2", "R", "read", (1,)),
            ]
        ),
        # A pending write the read never saw: it may be dropped.
        History(
            [
                Invocation("t1", "R", "write", (5,)),
                Invocation("t2", "R", "read", ()),
                Response("t2", "R", "read", (0,)),
                Invocation("t3", "R", "read", ()),
            ]
        ),
        # No completion explains the read.
        History(
            [
                Invocation("t1", "R", "write", (1,)),
                Response("t1", "R", "write", (None,)),
                Invocation("t2", "R", "write", (2,)),
                Invocation("t3", "R", "read", ()),
                Response("t3", "R", "read", (3,)),
            ]
        ),
    ]
    write = CAElement("R", [Operation.of("t1", "R", "write", (1,), (None,))])
    read = CAElement("R", [Operation.of("t2", "R", "read", (), (1,))])
    witnesses = [
        CATrace([write, read]),  # completes the pending write
        CATrace([read, write]),  # the spec rejects it
        CATrace([read]),  # the spec rejects it
    ]
    for history in histories:
        yield from _searches(policy, bare, history, budgets)
        for witness in witnesses:
            yield _witness(policy, history, witness)


def _wide_overlap(budgets) -> Iterator[Tuple]:
    policy = CheckPolicy.cal(ExchangerSpec("E"), True, True, None)
    bare = CALChecker(policy.checker.spec)
    for width in (1, 2, 3, 4, 5):
        yield from _searches(policy, bare, wide_overlap_history(width), budgets)


FULL = (None,)
CUTS = (1, 2)
CRASHES = FaultCampaign(crashes=1, window=12)

#: name -> check family.
CASES: Dict[str, Callable[[], Iterator[Tuple]]] = {
    "cal-exchanger3-dpor": lambda: _dpor_exchanger3(300, FULL),
    "cal-exchanger3-dpor-cuts": lambda: _dpor_exchanger3(60, CUTS),
    "cal-figure3": lambda: _figure3(FULL + CUTS),
    "cal-wide-overlap": lambda: _wide_overlap(FULL + CUTS),
    "lin-treiber-hazard-tso": lambda: _seeded_lin(
        "treiber-hazard-tso", range(200), FULL
    ),
    "lin-naive-queue": lambda: _seeded_lin("naive-queue", range(200), FULL),
    "lin-naive-queue-cuts": lambda: _seeded_lin("naive-queue", range(60), CUTS),
    "lin-msqueue-reclaim": lambda: _seeded_lin(
        "msqueue-reclaim", range(200), FULL + CUTS
    ),
    "lin-pending-treiber-hazard-tso": lambda: _seeded_lin(
        "treiber-hazard-tso", range(150), FULL + CUTS, faults=CRASHES
    ),
    "lin-pending-msqueue-reclaim": lambda: _seeded_lin(
        "msqueue-reclaim", range(150), FULL, faults=CRASHES
    ),
    "lin-pending-register": lambda: _register_pending(FULL + CUTS),
}

#: Digests computed at the commit before the searches were merged.
PINNED: Dict[str, Tuple[int, str]] = {
    "cal-exchanger3-dpor": (
        900,
        "7131fca0f2790565f98a334edb29ab791218a89d4a4c624337b139a3c02960d8",
    ),
    "cal-exchanger3-dpor-cuts": (
        300,
        "9ee92ee2761b009bc9c5475f3645b9dded02f18838b5669fc3e8a7076e687885",
    ),
    "cal-figure3": (
        60,
        "516013dd7c1fbf53d472c5684cb26e0cc885d3aaa2620b603e5e82a15a5bc576",
    ),
    "cal-wide-overlap": (
        30,
        "27f4ebc42fd334276bedfbae97c2cf20451c7c3ac4254e1b16e1c555898242da",
    ),
    "lin-msqueue-reclaim": (
        1400,
        "c031495b3386372d47b1b881d7493b7149d18e99d6dd527fa253ea5a7253c6be",
    ),
    "lin-naive-queue": (
        600,
        "aefaff7f75310c2bb3d3dc4cdabf7d70c9a8b40f3510d61b8717a0b2214c42ba",
    ),
    "lin-naive-queue-cuts": (
        300,
        "b3b9a094e784e0aaaf68e7921c3cf17c166376904683419936fa1f9e1e6e4c83",
    ),
    "lin-pending-msqueue-reclaim": (
        450,
        "02b846f190fc2a1844d0853ae922814b94a9849f7fcc04b63b7278a3c15ef00e",
    ),
    "lin-pending-register": (
        27,
        "987fe7bb735879346a5e8ea86ffea7af897b30db91d3eb6e85555655d5bdbd28",
    ),
    "lin-pending-treiber-hazard-tso": (
        1050,
        "9f8a2c0227ed7ae796fc45410abc29c6cdbd3d5e84c16cb6edb393f18d5cdc4d",
    ),
    "lin-treiber-hazard-tso": (
        600,
        "950e4228927c631d1b2f3d68d934562497d858a35d3351defe27a57d0ef03659",
    ),
}


def digest(name: str) -> Tuple[int, str]:
    """(number of records, sha256 over them) for one case."""
    sha = hashlib.sha256()
    count = 0
    for record in CASES[name]():
        sha.update(repr(record).encode())
        sha.update(b"\n")
        count += 1
    return count, sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_checks_match_pinned_digest(name):
    assert digest(name) == PINNED[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        count, sha = digest(case)
        print(f'    "{case}": (\n        {count},\n        "{sha}",\n    ),')
