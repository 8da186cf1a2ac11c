"""Source-set DPOR: cross-engine conformance and pinned reductions.

An aggressive pruner is exactly the kind of change that silently loses
counterexamples, so ``reduction="dpor"`` is held to *observational
identity* with the unreduced enumeration: identical outcome sets,
identical verdicts, and identical first counterexamples, on six curated
workloads spanning the CLI families (CAL and linearizability, SC and
TSO, passing and failing) plus fifty generated random programs (with
and without fault plans), sequentially, sharded across workers, and
through the durable drivers.

Schedule counts are pinned per workload: a change to the race analysis
or the wakeup-tree bookkeeping that alters pruning shows up as a count
diff even while equivalence still holds.  DPOR replaced the sleep-set
engine, and must never visit more schedules than that engine did: its
counts are pinned next to DPOR's.  Under TSO DPOR visits strictly fewer,
because sleep sets only skip the first step of an explored sibling while
wakeup trees never generate the redundant suffix at all.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.checkers.parallel import explore_parallel
from repro.checkers.verify import verify_cal, verify_linearizability
from repro.obs.provenance import ExplorationLedger
from repro.obs.tracing import TraceSink
from repro.specs import ExchangerSpec, RegisterSpec, StackSpec
from repro.store import (
    CHUNK_DONE,
    STATUS_INTERRUPTED,
    CampaignStore,
    StoreError,
    durable_explore,
    durable_verify,
    plan_resume,
)
from repro.substrate import Program, World
from repro.substrate.explore import (
    REDUCTIONS,
    explore_all,
    shard_sleep_seeds,
    validate_exploration,
)
from repro.substrate.schedulers import ReplayScheduler
from repro.workloads.programs import (
    StackWorkload,
    dual_stack_program,
    exchanger_program,
    manual_treiber_program,
    register_program,
)
from repro.workloads.randomprog import random_program
from tests.test_parallel import Broken
from tests.test_rendezvous import rv_setup


def broken2_setup(scheduler):
    """Two threads on the never-CAL exchanger (ghost-partner swaps)."""
    world = World()
    exchanger = Broken(world, "E")
    program = Program(world)
    for index, value in enumerate([1, 2]):
        program.thread(
            f"t{index}", lambda ctx, v=value: exchanger.exchange(ctx, v)
        )
    return program.runtime(scheduler)


def _small_treiber(memory_model):
    return manual_treiber_program(
        StackWorkload(scripts=[[("push", 3)], [("pop",)]]),
        policy="gc",
        seed_values=(1,),
        max_attempts=1,
        memory_model=memory_model,
    )


#: The six conformance workloads: (name, setup factory, max_steps,
#: unreduced count, sleep-set count, dpor count).  Counts are the
#: pruning contract; outcome identity is asserted alongside.  The
#: sleep-set counts are those of the retired sleep-set engine, the
#: bound DPOR must stay under.
WORKLOADS = [
    ("exchanger2", lambda: exchanger_program([3, 4]), 200, 4622, 58, 58),
    (
        "dual-stack",
        lambda: dual_stack_program(
            StackWorkload(scripts=[[("push", 1)], [("pop",)]])
        ),
        150,
        17742,
        41,
        41,
    ),
    ("rendezvous", lambda: rv_setup([3, 4], slots=1), 300, 70080, 208, 208),
    ("broken-exchanger", lambda: broken2_setup, 200, 70, 20, 20),
    ("treiber-gc-sc", lambda: _small_treiber("sc"), 200, 6561, 56, 56),
    ("treiber-gc-tso", lambda: _small_treiber("tso"), 200, 16875, 112, 56),
]

WORKLOAD_IDS = [w[0] for w in WORKLOADS]


def _signature(runs):
    """Hashable per-run observation: returns, history, crash set.

    The *set* of these across an enumeration is what every reduction
    must preserve — it determines each checker's verdict.
    """
    return {
        (
            tuple(sorted((tid, repr(v)) for tid, v in run.returns.items())),
            tuple(repr(action) for action in run.history.actions),
            tuple(sorted(run.crashed)),
        )
        for run in runs
    }


def _first_failure(report):
    failure = report.failures[0]
    return (
        failure.reason,
        failure.schedule,
        [repr(action) for action in failure.history.actions],
    )


class TestPinnedConformance:
    @pytest.mark.parametrize(
        "name, factory, max_steps, full_count, sleep_count, dpor_count",
        WORKLOADS,
        ids=WORKLOAD_IDS,
    )
    def test_outcomes_identical_and_counts_pinned(
        self, name, factory, max_steps, full_count, sleep_count, dpor_count
    ):
        setup = factory()
        full = list(explore_all(setup, max_steps=max_steps))
        dpor = list(
            explore_all(setup, max_steps=max_steps, reduction="dpor")
        )
        assert len(full) == full_count
        assert len(dpor) == dpor_count <= sleep_count
        assert _signature(dpor) == _signature(full)
        assert all(run.completed for run in dpor)

    def test_dpor_skips_the_enumerate_then_skip_cost(self):
        """Fully independent threads collapse to ONE schedule with zero
        pruned attempts — sleep sets visit (and discard) every sibling
        prefix; wakeup trees never generate them."""
        from repro.substrate import Program, World

        def setup(scheduler):
            world = World()
            refs = [world.heap.ref(f"c{i}", 0) for i in range(3)]

            def writer(ref):
                def body(ctx):
                    yield from ctx.write(ref, 1)
                    yield from ctx.write(ref, 2)

                return body

            program = Program(world)
            for index, ref in enumerate(refs):
                program.thread(f"t{index}", writer(ref))
            return program.runtime(scheduler)

        runs = list(explore_all(setup, max_steps=100, reduction="dpor"))
        assert len(runs) == 1


#: The two exploration engines.
ENGINES = ("none", "dpor")


class TestVerifyDifferential:
    def test_cal_fail_same_first_counterexample(self):
        reports = {
            red: verify_cal(
                broken2_setup,
                ExchangerSpec("E"),
                max_steps=200,
                reduction=red,
            )
            for red in ENGINES
        }
        verdicts = {red: r.verdict.name for red, r in reports.items()}
        assert verdicts == {red: "FAIL" for red in ENGINES}
        first = {red: _first_failure(r) for red, r in reports.items()}
        assert first["dpor"] == first["none"]

    def test_cal_pass_all_engines(self):
        runs = {}
        for red in ENGINES:
            report = verify_cal(
                exchanger_program([3, 4]),
                ExchangerSpec("E"),
                max_steps=200,
                search=True,
                reduction=red,
            )
            assert report.verdict.name == "OK", red
            runs[red] = report.runs
        assert runs["dpor"] < runs["none"]

    @pytest.mark.parametrize("memory_model", ["sc", "tso"])
    def test_linearizability_pass_all_engines(self, memory_model):
        setup = _small_treiber(memory_model)
        for red in ENGINES:
            report = verify_linearizability(
                setup,
                StackSpec("S", initial=(1,)),
                max_steps=200,
                check_witness=False,
                reduction=red,
            )
            assert report.verdict.name == "OK", (memory_model, red)

    def test_register_linearizability_verdict_identical(self):
        setup = register_program([1], readers=1)
        spec = RegisterSpec("R", initial_value=0)
        full = verify_linearizability(setup, spec, max_steps=100)
        reduced = verify_linearizability(
            setup, spec, max_steps=100, reduction="dpor"
        )
        assert reduced.verdict == full.verdict
        assert len(reduced.failures) == len(full.failures)
        assert reduced.runs < full.runs


#: Schedules the retired sleep-set engine visited on each program of the
#: random sweep, by (memory model, with faults), seeds 0-49 in order.
#: Printed with ``reduction="sleep-set"`` at fbfb47c, the last commit
#: with that engine; DPOR must never visit more.
SLEEP_SET_COUNTS = {
    ("sc", False): (
        1, 12, 3, 12, 1, 4, 48, 10, 2, 8, 16, 8, 4, 1, 6, 1, 8, 2, 4,
        30, 8, 4, 4, 3, 12, 3, 12, 3, 2, 4, 12, 3, 2, 24, 6, 6, 3, 30,
        6, 6, 4, 3, 30, 4, 3, 8, 1, 8, 3, 9,
    ),
    ("sc", True): (
        4, 5, 6, 10, 4, 24, 192, 5, 5, 10, 48, 5, 5, 4, 10, 4, 10, 24,
        5, 34, 48, 10, 8, 4, 72, 4, 24, 16, 4, 52, 109, 4, 8, 64, 24,
        56, 4, 109, 24, 5, 12, 6, 109, 16, 6, 10, 4, 10, 32, 5,
    ),
    ("tso", False): (
        4, 4, 9, 4, 11, 1, 4, 6, 2, 4, 2, 8, 2, 1, 6, 12, 2, 2, 8, 2, 2,
        2, 6, 3, 4, 4, 6, 1, 2, 2, 2, 6, 3, 2, 1, 6, 12, 6, 1, 2, 3, 8,
        6, 2, 9, 12, 12, 1, 1, 3,
    ),
    ("tso", True): (
        8, 8, 16, 8, 27, 15, 60, 15, 8, 12, 30, 32, 4, 4, 12, 28, 8, 28,
        16, 22, 15, 4, 15, 7, 22, 7, 22, 9, 4, 15, 15, 12, 13, 9, 9, 22,
        28, 68, 15, 4, 7, 24, 38, 12, 16, 8, 22, 6, 9, 8,
    ),
}

#: The programs where DPOR once scheduled a sleeping agent at the head of
#: a planned wakeup: (seed, with faults, dpor count), all under SC.  The
#: counts equal the sleep-set engine's; waking the sleeper gave 30, 8, 28
#: and 108 schedules.
SLEEPER_OVERRIDE_PROGRAMS = [
    (74, False, 24),
    (193, False, 6),
    (240, False, 24),
    (240, True, 104),
]


class TestRandomProgramConformance:
    """Differential sweep over generated programs.

    Every seed is checked under both memory models, with and without a
    fault plan — 4 configurations per seed, 50 seeds.  A failing seed is
    a complete reproducer: ``random_program(seed, ...)`` rebuilds the
    exact program.
    """

    @pytest.mark.parametrize("seed", range(50))
    def test_engines_agree(self, seed):
        for memory_model in ("sc", "tso"):
            for with_faults in (False, True):
                program = random_program(
                    seed,
                    memory_model=memory_model,
                    with_faults=with_faults,
                )
                full, dpor = (
                    list(
                        explore_all(
                            program.setup, max_steps=200, reduction=red
                        )
                    )
                    for red in ENGINES
                )
                context = program.describe()
                assert _signature(dpor) == _signature(full), context
                bound = SLEEP_SET_COUNTS[memory_model, with_faults][seed]
                assert len(dpor) <= bound, context

    @pytest.mark.parametrize(
        "seed, with_faults, count",
        SLEEPER_OVERRIDE_PROGRAMS,
        ids=["74", "193", "240", "240-faults"],
    )
    def test_planned_wakeups_never_wake_a_sleeper(
        self, seed, with_faults, count
    ):
        program = random_program(seed, with_faults=with_faults)
        full = list(explore_all(program.setup, max_steps=200))
        dpor = list(
            explore_all(program.setup, max_steps=200, reduction="dpor")
        )
        assert len(dpor) == count, program.describe()
        assert _signature(dpor) == _signature(full), program.describe()


class TestParallelConformance:
    """Sharding must lose nothing: seeded shards make the parallel
    reduced sweep *schedule-identical* to the sequential one, not merely
    outcome-equal."""

    @pytest.mark.parametrize("reduction", ["dpor"])
    def test_sharded_equals_sequential_schedules(self, reduction):
        setup = exchanger_program([3, 4])
        sequential = list(
            explore_all(setup, max_steps=200, reduction=reduction)
        )
        parallel = explore_parallel(
            setup, max_steps=200, workers=2, reduction=reduction
        )
        assert [r.schedule for r in parallel] == [
            r.schedule for r in sequential
        ]

    def test_sharded_random_tso_program(self):
        program = random_program(7, memory_model="tso")
        sequential = list(
            explore_all(program.setup, max_steps=200, reduction="dpor")
        )
        parallel = explore_parallel(
            program.setup, max_steps=200, workers=2, reduction="dpor"
        )
        assert [r.schedule for r in parallel] == [
            r.schedule for r in sequential
        ]


@pytest.fixture
def store(tmp_path):
    with CampaignStore(str(tmp_path / "campaigns.db")) as s:
        yield s


class TestDurableConformance:
    def test_durable_explore_refuses_a_sleep_set_config(self, store):
        """A campaign stored with the retired ``reduction="sleep-set"``
        (which ran dpor) is refused in one line, by the campaign entry
        point and by the resume planner, and its row and chunks stay as
        they were."""
        setup, config = exchanger_program([3, 4]), {"max_steps": 200}
        with pytest.raises(KeyboardInterrupt):
            durable_explore(
                store, "dpor-cut", "exchanger2", "cal", setup,
                dict(config, reduction="dpor"), abort_after=1,
            )
        retired, cid = dict(config, reduction="sleep-set"), "sleepset-test"
        store.create_campaign(cid, "explore", "exchanger2", "cal", retired)
        for index, payload in store.completed_payloads("dpor-cut").items():
            store.record_chunk(cid, index, index, 1, CHUNK_DONE, payload)
        store.set_status(cid, STATUS_INTERRUPTED)
        stored = store.get_campaign(cid), store.chunk_rows(cid)
        named = "reduction 'sleep-set'"
        with pytest.raises(ValueError, match=named) as refused:
            durable_explore(store, cid, "exchanger2", "cal", setup, retired)
        assert "\n" not in str(refused.value)
        with pytest.raises(StoreError, match=named) as refused:
            plan_resume(store, cid)
        assert "\n" not in str(refused.value)
        assert (store.get_campaign(cid), store.chunk_rows(cid)) == stored

    def test_durable_explore_matches_sequential_dpor(self, store):
        setup = exchanger_program([3, 4])
        sequential = list(
            explore_all(setup, max_steps=200, reduction="dpor")
        )
        merged = durable_explore(
            store,
            "dp1",
            "exchanger2",
            "cal",
            setup,
            {"max_steps": 200, "reduction": "dpor"},
        )
        assert [r.schedule for r in merged] == [
            r.schedule for r in sequential
        ]

    def test_interrupt_resume_equals_uninterrupted(self, store):
        """PR 5's durability contract extended to reduced sweeps: the
        resumed artifact equals the uninterrupted one modulo wall-clock,
        because the shard seeds are a pure function of the setup."""
        setup = exchanger_program([3, 4])
        config = {"max_steps": 200, "reduction": "dpor"}
        uninterrupted = durable_explore(
            store, "dp-full", "exchanger2", "cal", setup, dict(config)
        )
        with pytest.raises(KeyboardInterrupt):
            durable_explore(
                store,
                "dp-cut",
                "exchanger2",
                "cal",
                setup,
                dict(config),
                abort_after=1,
            )
        assert store.get_campaign("dp-cut")["status"] == STATUS_INTERRUPTED
        resumed = durable_explore(
            store, "dp-cut", "exchanger2", "cal", setup, dict(config)
        )
        assert [r.schedule for r in resumed] == [
            r.schedule for r in uninterrupted
        ]
        assert [r.returns for r in resumed] == [
            r.returns for r in uninterrupted
        ]

    def test_durable_verify_dpor_matches_sequential(self, store):
        setup = exchanger_program([3, 4])
        direct = verify_cal(
            setup,
            ExchangerSpec("E"),
            max_steps=200,
            search=True,
            reduction="dpor",
        )
        durable = durable_verify(
            store,
            "dv1",
            "exchanger2",
            "cal",
            setup,
            ExchangerSpec("E"),
            {"max_steps": 200, "reduction": "dpor"},
            driver_kwargs={"search": True},
        )
        assert durable.verdict == direct.verdict
        assert durable.runs == direct.runs


class TestValidation:
    """All reduction/bound/memory-model combinations are rejected up
    front with one shared message — before any partial setup, trace
    emission, or campaign row is created."""

    def test_reductions_registry(self):
        assert REDUCTIONS == ("none", "dpor")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reduction": "odd-sets"},
            {"reduction": "dpor", "preemption_bound": 1},
            {"reduction": "dpor", "memory_model": "alpha"},
            {"memory_model": "psox"},
        ],
        ids=[
            "unknown-reduction",
            "dpor+bound",
            "bad-memory-model",
            "bad-memory-model-unreduced",
        ],
    )
    def test_every_rejected_combo_shares_one_message(self, kwargs):
        with pytest.raises(
            ValueError, match="invalid exploration configuration"
        ):
            validate_exploration(**kwargs)

    @pytest.mark.parametrize("reduction", ["dpor"])
    def test_explore_all_rejects_bound_up_front(self, reduction):
        with pytest.raises(
            ValueError, match="invalid exploration configuration"
        ):
            explore_all(
                broken2_setup, reduction=reduction, preemption_bound=1
            )

    def test_explore_all_rejects_unknown_reduction(self):
        with pytest.raises(
            ValueError, match="invalid exploration configuration"
        ):
            explore_all(broken2_setup, reduction="odd-sets")

    def test_verify_rejects_before_emitting_trace(self):
        trace = TraceSink()
        with pytest.raises(
            ValueError, match="invalid exploration configuration"
        ):
            verify_cal(
                broken2_setup,
                ExchangerSpec("E"),
                max_steps=200,
                reduction="dpor",
                preemption_bound=2,
                trace=trace,
            )
        assert trace.events == []
        with pytest.raises(
            ValueError, match="invalid exploration configuration"
        ):
            verify_linearizability(
                broken2_setup,
                StackSpec("S"),
                max_steps=200,
                reduction="bogus",
                trace=trace,
            )
        assert trace.events == []

    def test_explore_parallel_rejects_up_front(self):
        with pytest.raises(
            ValueError, match="invalid exploration configuration"
        ):
            explore_parallel(
                broken2_setup,
                max_steps=200,
                reduction="dpor",
                preemption_bound=1,
            )

    def test_durable_drivers_reject_before_creating_campaign(
        self, store
    ):
        with pytest.raises(
            ValueError, match="invalid exploration configuration"
        ):
            durable_explore(
                store,
                "bad1",
                "exchanger2",
                "cal",
                exchanger_program([3, 4]),
                {"max_steps": 200, "reduction": "odd-sets"},
            )
        assert store.get_campaign("bad1") is None
        with pytest.raises(
            ValueError, match="invalid exploration configuration"
        ):
            durable_verify(
                store,
                "bad2",
                "exchanger2",
                "cal",
                exchanger_program([3, 4]),
                ExchangerSpec("E"),
                {"max_steps": 200, "reduction": "dpor"},
                driver_kwargs={"preemption_bound": 1},
            )
        assert store.get_campaign("bad2") is None


# ----------------------------------------------------------------------
# Golden engine identity
# ----------------------------------------------------------------------
#: The E22 quick cases: (name, setup factory, max_steps).
E22_QUICK = [
    workload[:3]
    for workload in WORKLOADS
    if workload[0]
    in ("exchanger2", "dual-stack", "treiber-gc-sc", "treiber-gc-tso")
]

#: Seeds of the random-program identity sweep.
IDENTITY_SEEDS = range(60)


def _sweep_records(setup, max_steps, pin_prefix=(), sleep_seed=None):
    """One record per executed dpor run, then the ledger snapshot."""
    ledger = ExplorationLedger()
    for run in explore_all(
        setup,
        max_steps=max_steps,
        include_incomplete=True,
        pin_prefix=pin_prefix,
        reduction="dpor",
        sleep_seed=sleep_seed,
        provenance=ledger,
    ):
        yield (tuple(run.schedule), run.completed)
    yield json.dumps(ledger.snapshot(), sort_keys=True)


def _first_decision_arity(setup, max_steps):
    scheduler = ReplayScheduler(())
    setup(scheduler).run(max_steps=max_steps)
    return scheduler.log[0][0] if scheduler.log else 0


def _e22_case(factory, max_steps, sharded):
    def records():
        setup = factory()
        if not sharded:
            yield from _sweep_records(setup, max_steps)
            return
        arity = _first_decision_arity(setup, max_steps)
        for pin, seed in enumerate(shard_sleep_seeds(setup, arity)):
            yield ("shard", pin)
            yield from _sweep_records(
                setup, max_steps, pin_prefix=[pin], sleep_seed=seed
            )

    return records


def _random_case(memory_model, with_faults):
    def records():
        for seed in IDENTITY_SEEDS:
            program = random_program(
                seed, memory_model=memory_model, with_faults=with_faults
            )
            yield ("seed", seed)
            yield from _sweep_records(program.setup, 200)

    return records


IDENTITY_CASES = {
    **{
        f"e22-{name}-dpor{'-sharded' if sharded else ''}": _e22_case(
            factory, max_steps, sharded
        )
        for name, factory, max_steps in E22_QUICK
        for sharded in (False, True)
    },
    **{
        f"random-{memory_model}-{faults}-dpor": _random_case(
            memory_model, faults == "faults"
        )
        for memory_model in ("sc", "tso")
        for faults in ("clean", "faults")
    },
}

#: Digests computed before the sleep-set engine became a subclass of
#: the DPOR engine; neither that nor its retirement moved them.
IDENTITY_PINNED = {
    "e22-dual-stack-dpor": (
        69,
        "a9130e27b69828d0831da641e5340ffdffa65c5e97305c1dce4b6009713c8846",
    ),
    "e22-dual-stack-dpor-sharded": (
        72,
        "880551ca94d4ba2401086bb2eac4fe33efec3f02f93499726c0e0a1988fbf08b",
    ),
    "e22-exchanger2-dpor": (
        59,
        "b9de55b7613e4dca91a7f0d92aecfacfaa7ef1b013d74b2536165f841caa333e",
    ),
    "e22-exchanger2-dpor-sharded": (
        62,
        "2ea950e4e808f8a33a08424273029b26248efa5fd105eb7477c3b6e2b734d32c",
    ),
    "e22-treiber-gc-sc-dpor": (
        147,
        "a3902d8d0d0632918f4266f66ae3f4a892b86c68b993d8b5370c8869f18c9f8b",
    ),
    "e22-treiber-gc-sc-dpor-sharded": (
        150,
        "fedd6edc124811ba5c7d737c04516cfe77d390d36929aa530710d33e17e6ac59",
    ),
    "e22-treiber-gc-tso-dpor": (
        147,
        "a3902d8d0d0632918f4266f66ae3f4a892b86c68b993d8b5370c8869f18c9f8b",
    ),
    "e22-treiber-gc-tso-dpor-sharded": (
        150,
        "fedd6edc124811ba5c7d737c04516cfe77d390d36929aa530710d33e17e6ac59",
    ),
    "random-sc-clean-dpor": (
        587,
        "c3a2ecb00e04468a8e4364970844a1be3798c718fdeba206e57b9d80e84e14f3",
    ),
    "random-sc-faults-dpor": (
        1542,
        "3c33ca118aa6d98549bbe58ae982a7c619a8bedf1daebc857650fc642a7e34eb",
    ),
    "random-tso-clean-dpor": (
        357,
        "2a5be0093bcd42386778802f28a03730b20a3371655f66269c4197379258b824",
    ),
    "random-tso-faults-dpor": (
        1051,
        "89f68dc2493f0ed2405958f555615fb32e8a34825e7716ac8365b317e9873d40",
    ),
}


def identity_digest(name):
    """(number of records, sha256 over them) for one identity case."""
    sha = hashlib.sha256()
    count = 0
    for record in IDENTITY_CASES[name]():
        sha.update(repr(record).encode())
        sha.update(b"\n")
        count += 1
    return count, sha.hexdigest()


class TestEngineIdentity:
    """Golden digests of the reduced engine: every run's schedule and
    ``completed`` flag, plus the provenance ledger, on the E22 quick
    cases (unsharded, and sharded with sleep seeds) and on random
    programs under SC and TSO, with and without faults.  Any change to
    which schedules an engine visits, in which order, or how it books
    them shows up as a digest diff.  Reprint the digests with
    ``PYTHONPATH=src python -m tests.test_dpor``."""

    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
    def test_matches_pinned_digest(self, name):
        assert identity_digest(name) == IDENTITY_PINNED[name]


if __name__ == "__main__":
    for case in sorted(IDENTITY_CASES):
        count, sha = identity_digest(case)
        print(f'    "{case}": (\n        {count},\n        "{sha}",\n    ),')
