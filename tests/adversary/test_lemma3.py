"""Tests for the executable Lemma 3 checker."""

import pytest

from repro.adversary.certificates import Lemma3Case
from repro.adversary.lemmas import find_bivalent_successor
from repro.core.events import NULL, Event
from repro.core.valency import Valency, ValencyAnalyzer


@pytest.fixture(scope="module")
def bivalent_initial(request):
    pass  # placeholder; per-test fixtures below use session protocols


class TestSuccessSide:
    def test_null_event_on_bivalent_initial(self, arbiter3, arbiter3_analyzer):
        config = arbiter3.initial_configuration([0, 0, 1])
        outcome = find_bivalent_successor(
            arbiter3, arbiter3_analyzer, config, Event("p1", NULL)
        )
        assert outcome.found
        certificate = outcome.certificate
        assert certificate.case is Lemma3Case.IMMEDIATE
        assert certificate.verify(arbiter3)

    def test_certificate_schedule_avoids_event(
        self, arbiter3, arbiter3_analyzer
    ):
        config = arbiter3.initial_configuration([0, 0, 1])
        event = Event("p1", NULL)
        outcome = find_bivalent_successor(
            arbiter3, arbiter3_analyzer, config, event
        )
        assert all(
            step != event
            for step in outcome.certificate.avoiding_schedule
        )

    def test_deferred_case_on_parity_arbiter(
        self, parity_arbiter3, parity_arbiter3_analyzer
    ):
        """Delivering a FRESH claim to the arbiter univalates e(C), so
        the search must defer: slip in an arbiter null step (parity
        flip) first, making the claim stale."""
        protocol = parity_arbiter3
        analyzer = parity_arbiter3_analyzer
        config = protocol.initial_configuration([0, 0, 1])
        # Let both proposers claim.
        config = protocol.apply_event(config, Event("p1", NULL))
        config = protocol.apply_event(config, Event("p2", NULL))
        assert analyzer.valency(config) is Valency.BIVALENT
        claim = Event("p0", ("claim", "p1", 0, 0))
        assert claim.is_applicable(config)
        outcome = find_bivalent_successor(protocol, analyzer, config, claim)
        assert outcome.found
        certificate = outcome.certificate
        assert certificate.case is Lemma3Case.DEFERRED
        assert len(certificate.avoiding_schedule) >= 1
        assert certificate.verify(protocol)

    def test_result_configuration_is_bivalent(
        self, arbiter3, arbiter3_analyzer
    ):
        config = arbiter3.initial_configuration([0, 1, 0])
        outcome = find_bivalent_successor(
            arbiter3, arbiter3_analyzer, config, Event("p2", NULL)
        )
        assert (
            arbiter3_analyzer.valency(outcome.certificate.result)
            is Valency.BIVALENT
        )


class TestFailureSide:
    def test_fresh_claim_to_plain_arbiter_fails_with_case2(
        self, arbiter3, arbiter3_analyzer
    ):
        """The plain arbiter has no parity escape: once both claims
        exist, delivering one to the arbiter always univalates, and the
        checker must recover the Case-2 pivot naming the arbiter."""
        protocol = arbiter3
        config = protocol.initial_configuration([0, 0, 1])
        config = protocol.apply_event(config, Event("p1", NULL))
        claim = Event("p0", ("claim", "p1", 0))
        outcome = find_bivalent_successor(
            protocol, arbiter3_analyzer, config, claim
        )
        assert not outcome.found
        failure = outcome.failure
        assert failure is not None
        assert failure.faulty_process == "p0"
        assert failure.pivot_event.process == "p0"
        assert {failure.anchor_valency, failure.neighbor_valency} == {
            Valency.ZERO_VALENT,
            Valency.ONE_VALENT,
        }

    def test_failure_anchor_is_reachable_without_event(
        self, arbiter3, arbiter3_analyzer
    ):
        protocol = arbiter3
        config = protocol.initial_configuration([0, 0, 1])
        config = protocol.apply_event(config, Event("p1", NULL))
        claim = Event("p0", ("claim", "p1", 0))
        outcome = find_bivalent_successor(
            protocol, arbiter3_analyzer, config, claim
        )
        failure = outcome.failure
        anchor = protocol.apply_schedule(config, failure.schedule_to_anchor)
        assert anchor == failure.anchor
        assert all(
            step != claim for step in failure.schedule_to_anchor
        )

    def test_no_pfree_deciding_run_from_anchor(
        self, arbiter3, arbiter3_analyzer
    ):
        """The Case-2 soundness claim, checked exhaustively: from the
        anchor, no configuration reachable without the faulty process
        has a decision."""
        from tests.reference import explore

        protocol = arbiter3
        config = protocol.initial_configuration([0, 0, 1])
        config = protocol.apply_event(config, Event("p1", NULL))
        claim = Event("p0", ("claim", "p1", 0))
        outcome = find_bivalent_successor(
            protocol, arbiter3_analyzer, config, claim
        )
        failure = outcome.failure
        graph = explore(
            protocol,
            failure.anchor,
            event_filter=lambda _c, e: e.process != failure.faulty_process,
        )
        assert graph.complete
        assert all(
            not member.has_decision for member in graph.configurations
        )


class TestInexactness:
    def test_tiny_budget_is_honest(self, arbiter3):
        analyzer = ValencyAnalyzer(arbiter3)
        config = arbiter3.initial_configuration([0, 0, 1])
        outcome = find_bivalent_successor(
            arbiter3,
            analyzer,
            config,
            Event("p1", NULL),
            max_configurations=2,
        )
        # Either it found a definitely-bivalent successor inside the
        # tiny graph, or it must admit inexactness — never a failure
        # verdict from partial data.
        if not outcome.found:
            assert not outcome.exact
            assert outcome.failure is None
