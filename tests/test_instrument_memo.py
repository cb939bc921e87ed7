"""The process-wide failing-netlist memo (``shared_failing_netlist``).

Campaigns and scheduled runs over one golden netlist object share one
instrumented netlist per failure model.  These tests pin the memo's
keying (golden object identity plus its structural version), its
lifetime (entries go with their golden netlist), the lazy catalogue,
the read-only contract, and that a warm memo changes no result.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.campaign import CampaignEngine
from repro.campaign.engine import DeviceRunner
from repro.core import telemetry
from repro.core.config import (
    CampaignConfig,
    ErrorLiftingConfig,
    SchedulerConfig,
)
from repro.core.example import build_paper_adder
from repro.cpu.alu_design import build_alu
from repro.cpu.mappers import AluMapper
from repro.integration.library_gen import AgingLibrary
from repro.lifting import instrument
from repro.lifting.instrument import (
    make_failing_netlist,
    shared_failing_netlist,
)
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.scheduler import ScheduleSession
from repro.sta.timing import StaReport, TimingViolation

from oracles import unpacked_campaign

MODELS = [
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ZERO),
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ONE),
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.RANDOM),
]

CONFIG = CampaignConfig(
    devices=8,
    seed=11,
    shard_size=3,
    workers=1,
    silifuzz_snapshots=3,
    base_onset_years=6.0,
)

SCHED = SchedulerConfig(
    policy="thompson",
    policy_seed=7,
    batch_size=4,
    checkpoint_every=4,
    cycle_budget=40_000,
)

ADDER_MODEL = FailureModel("d4", "d10", ViolationKind.SETUP, CMode.ONE)


@pytest.fixture(scope="module")
def alu_netlist():
    return build_alu()


@pytest.fixture(scope="module")
def vega_library(alu_netlist):
    lifter = ErrorLifter(alu_netlist, ErrorLiftingConfig(), AluMapper())
    violation = TimingViolation(
        "setup", "a_q_r0", "res_q_r31", ("u",), 6.1, 6.0
    )
    return AgingLibrary(
        name="memo_vega",
        test_cases=lifter.lift_pair(violation).test_cases,
    )


def _counted(call):
    """Run ``call`` under a fresh telemetry; return (result, counters)."""
    tele = telemetry.Telemetry()
    with telemetry.use(tele):
        result = call()
    return result, tele.counters


class TestKeying:
    def test_runners_share_one_instrumented_netlist(
        self, alu_netlist, vega_library
    ):
        first = DeviceRunner(alu_netlist, "alu", CONFIG, vega_library)
        second = DeviceRunner(alu_netlist, "alu", CONFIG, vega_library)
        for model in MODELS:
            assert first.failing_netlist(model) is second.failing_netlist(
                model
            )

    def test_repeat_request_is_a_hit(self):
        golden = build_paper_adder()
        built, counters = _counted(
            lambda: [shared_failing_netlist(golden, ADDER_MODEL)
                     for _ in range(3)]
        )
        assert built[0] is built[1] is built[2]
        assert counters["lifting.instrument.misses"] == 1
        assert counters["lifting.instrument.hits"] == 2

    def test_golden_mutation_rebuilds(self):
        golden = build_paper_adder()
        before = shared_failing_netlist(golden, ADDER_MODEL)
        golden.add_net("spare")
        after, counters = _counted(
            lambda: shared_failing_netlist(golden, ADDER_MODEL)
        )
        assert after is not before
        assert counters["lifting.instrument.misses"] == 1
        assert "spare" in after.nets
        assert "spare" not in before.nets
        assert shared_failing_netlist(golden, ADDER_MODEL) is after

    def test_new_golden_object_misses(self):
        golden = build_paper_adder()
        shared = shared_failing_netlist(golden, ADDER_MODEL)
        twin = golden.clone()
        assert twin.structural_hash() == golden.structural_hash()
        other, counters = _counted(
            lambda: shared_failing_netlist(twin, ADDER_MODEL)
        )
        assert other is not shared
        assert counters["lifting.instrument.misses"] == 1

    def test_fresh_builder_stays_uncached(self):
        golden = build_paper_adder()
        shared = shared_failing_netlist(golden, ADDER_MODEL)
        fresh, counters = _counted(
            lambda: make_failing_netlist(golden, ADDER_MODEL).netlist
        )
        assert fresh is not shared
        assert fresh.structural_hash() == shared.structural_hash()
        assert "lifting.instrument.misses" not in counters


class TestLifetime:
    def test_entry_released_with_its_golden_netlist(self):
        golden = build_paper_adder()
        failing = weakref.ref(shared_failing_netlist(golden, ADDER_MODEL))
        golden_ref = weakref.ref(golden)
        del golden
        gc.collect()
        assert golden_ref() is None
        # The memo held the failing netlist strongly until then.
        assert failing() is None


class TestLazyCatalogue:
    def test_catalogue_instruments_on_first_netlist_read(self):
        golden = build_paper_adder()
        report = StaReport(netlist_name="adder", period_ns=1.0)
        report.violations.append(
            TimingViolation("setup", "d4", "d10", ("x5",), 1.1, 1.0)
        )
        failing, counters = _counted(
            lambda: ErrorLifter(golden).failing_netlists(report)
        )
        assert [f.model.c_mode for f in failing] == [
            CMode.ZERO, CMode.ONE, CMode.RANDOM,
        ]
        assert "lifting.instrument.misses" not in counters
        assert golden not in instrument._FAILING_MEMO

        netlist, counters = _counted(lambda: failing[1].netlist)
        assert counters["lifting.instrument.misses"] == 1
        assert netlist is shared_failing_netlist(golden, failing[1].model)
        assert failing[1].netlist is netlist
        assert netlist.name == f"{golden.name}__fail_{failing[1].model.label}"


class TestWarmMemoIsInvisible:
    """A warm memo changes no byte of any campaign or serve output,
    and nothing a campaign or a serve runs edits a shared netlist."""

    def test_serve_cold_and_warm(self, alu_netlist, vega_library):
        golden = alu_netlist.clone()

        def serve():
            return ScheduleSession(
                golden, "alu", vega_library, MODELS,
                config=CONFIG, scheduler=SCHED,
            ).run()

        cold, cold_counters = _counted(serve)
        warm, warm_counters = _counted(serve)
        assert cold_counters["lifting.instrument.misses"] > 0
        assert "lifting.instrument.misses" not in warm_counters
        assert warm_counters["lifting.instrument.hits"] > 0
        assert "sim.compile.misses" not in warm_counters
        assert warm.log.to_jsonl() == cold.log.to_jsonl()
        assert warm.report.to_json() == cold.report.to_json()
        assert warm.belief.digest() == cold.belief.digest()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_cold_and_warm(self, alu_netlist, vega_library, workers):
        golden = alu_netlist.clone()

        def campaign(workers):
            config = dataclasses.replace(CONFIG, workers=workers)
            return CampaignEngine(
                golden, "alu", vega_library, MODELS, config
            ).run().to_json()

        with unpacked_campaign():
            cold = campaign(workers)
            # Warms the memo in this process, which fork workers inherit.
            serial, counters = _counted(lambda: campaign(1))
            warm = campaign(workers)
        assert cold == serial == warm
        if workers == 1:
            assert counters["lifting.instrument.hits"] > 0
            assert "lifting.instrument.misses" not in counters
        assert golden in instrument._FAILING_MEMO

    def test_campaign_and_serve_leave_shared_netlists_unedited(
        self, alu_netlist, vega_library
    ):
        golden = alu_netlist.clone()
        with unpacked_campaign():
            CampaignEngine(golden, "alu", vega_library, MODELS, CONFIG).run()
        ScheduleSession(
            golden, "alu", vega_library, MODELS,
            config=CONFIG, scheduler=SCHED,
        ).run()
        version, shared = instrument._FAILING_MEMO[golden]
        assert version == golden.version
        assert shared and set(shared) <= set(MODELS)
        for model, netlist in shared.items():
            fresh = make_failing_netlist(golden, model).netlist
            assert netlist.version == fresh.version
            assert netlist.structural_hash() == fresh.structural_hash()
