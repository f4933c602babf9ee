"""The process-symmetry quotient: reduction, refusal, and fallback.

Three behaviours matter and each gets pinned:

* a protocol that *is* symmetric gets a genuinely smaller graph with an
  identical census, and witnesses read off the quotient graph replay
  concretely (each orbit edge records its renaming);
* a protocol that never declared ``symmetric = True`` is refused loudly
  (``SymmetryError``) — the flag is an assertion about the automata,
  not a go-faster switch;
* a protocol that declares symmetry it does not have is caught by the
  transition-level automorphism check and falls back to the identity
  quotient with a warning, never a wrong verdict.

Deeper canonical-labeling properties (renaming invariance, refine/brute
orbit agreement, composed-reduction identity) live in
``test_symmetry_canonical.py``.
"""

import pytest

from repro.core.errors import SymmetryError
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.process import Transition
from repro.core.reduction import (
    ReductionPolicy,
    declares_symmetry,
    validate_symmetry,
)
from repro.core.valency import ValencyAnalyzer
from repro.protocols import (
    ArbiterProcess,
    QuorumVoteProcess,
    WaitForAllProcess,
    make_protocol,
)

SYM = ReductionPolicy(symmetry=True)


class LiarProcess(WaitForAllProcess):
    """Declares symmetry it does not have: p0 decides 0 on sight.

    The behaviour is name-dependent, so renaming does not commute with
    stepping and the automorphism validator must catch the lie.
    """

    symmetric = True

    def step(self, state, message_value):
        if self.name == "p0" and not state.decided:
            return Transition(state.with_decision(0), ())
        return super().step(state, message_value)


def census(protocol, reduction=None):
    analyzer = ValencyAnalyzer(protocol, reduction=reduction)
    try:
        verdicts = analyzer.classify_initials()
        return verdicts, len(analyzer.graph), analyzer.stats
    finally:
        analyzer.close()


class TestQuotientReduces:
    def test_smaller_graph_same_census(self):
        protocol = make_protocol(WaitForAllProcess, 3)
        full, full_nodes, _ = census(protocol)
        reduced, sym_nodes, stats = census(protocol, reduction=SYM)
        assert reduced == full
        assert sym_nodes < full_nodes
        assert stats.sym_canonical_hits > 0
        assert stats.sym_fallbacks == 0

    def test_combined_with_por_still_agrees(self):
        protocol = make_protocol(WaitForAllProcess, 3)
        full, _, _ = census(protocol)
        both, both_nodes, _ = census(
            protocol, reduction=ReductionPolicy(por=True, symmetry=True)
        )
        _, sym_nodes, _ = census(protocol, reduction=SYM)
        assert both == full
        assert both_nodes <= sym_nodes

    def test_witness_extraction_unquotients_under_quotient(self):
        # Quotient edges connect orbit representatives, but each edge
        # records its renaming, so the analyzer un-quotients the path
        # back into concrete schedules that replay from the *asked*
        # configuration through plain protocol semantics.
        protocol = make_protocol(QuorumVoteProcess, 3)
        analyzer = ValencyAnalyzer(protocol, reduction=SYM)
        try:
            analyzer.classify_initials()
            initial = protocol.initial_configuration([0, 1, 0])
            witness = analyzer.bivalence_witness(initial)
            assert witness is not None
            assert witness.verify(protocol)
        finally:
            analyzer.close()


class TestRefusals:
    def test_undeclared_protocol_is_rejected(self):
        # Arbiter's automata are genuinely asymmetric (one referee,
        # n-1 proposers) and never declare otherwise.
        protocol = make_protocol(ArbiterProcess, 3)
        assert not declares_symmetry(protocol)
        with pytest.raises(SymmetryError, match="symmetric = True"):
            GlobalConfigurationGraph(protocol, reduction=SYM)

class TestFallbacks:
    def test_declared_but_false_symmetry_warns_and_runs_full(self):
        liar = make_protocol(LiarProcess, 3)
        assert declares_symmetry(liar)
        assert validate_symmetry(liar)  # the validator sees the lie
        with pytest.warns(UserWarning, match="symmetry quotient disabled"):
            graph = GlobalConfigurationGraph(liar, reduction=SYM)
        assert graph._quotient is None
        assert graph.stats.sym_fallbacks == 1
        # The run proceeds unreduced and byte-identical to a plain one.
        root = liar.initial_configuration([1, 1, 1])
        graph.explore(root)
        plain = GlobalConfigurationGraph(liar)
        plain.explore(root)
        assert graph.fingerprint() == plain.fingerprint()
