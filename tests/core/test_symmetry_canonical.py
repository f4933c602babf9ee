"""Canonical-labeling properties of the partition-refinement quotient.

The quotient's contract has three independent layers, each pinned here:

* **Canonical labeling** — ``canonical(C) == canonical(π·C)`` for every
  renaming π (the function is constant on orbits), the result is itself
  a member of the orbit, and the map is idempotent.  Refinement and
  the n! oracle in ``tests/reference.py`` may elect *different*
  representatives, so they are never compared form-for-form — only
  their orbit *partitions* must agree.
* **Replayability** — a witness read off a quotient graph un-quotients
  into concrete schedules that replay through plain protocol semantics
  and pass the Section-2 admissibility audit, under ``--symmetry`` and
  ``--por --symmetry`` alike.
* **Composition** — POR×symmetry preserves the census of the unreduced
  graph, and the composed pipeline is deterministic: serial, parallel
  and checkpoint-resumed runs produce byte-identical fingerprints.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.errors import SymmetryError
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.reduction import (
    ReductionPolicy,
    SymmetryQuotient,
    validate_symmetry,
)
from repro.core.valency import ValencyAnalyzer
from repro.experiments.zoo import symmetric_zoo
from repro.faults import FaultPlan, audit_run
from repro.protocols import (
    ArbiterProcess,
    QuorumVoteProcess,
    make_protocol,
)
from tests.reference import brute_canonicalize

SYM = ReductionPolicy(symmetry=True)
BOTH = ReductionPolicy(por=True, symmetry=True)

#: Unreduced exploration depth for building raw configuration pools.
#: Deep enough to reach non-trivial buffers, shallow enough that the
#: unreduced n=3 graphs stay tiny.
_POOL_DEPTH = 4
_POOL_CAP = 1500

_pools: dict[str, tuple] = {}


def _pool(label):
    """``(quotient, packed_pool)`` for a zoo member.

    The pool is drawn from an *unreduced* exploration so it contains
    raw configurations, not just orbit representatives.
    """
    cached = _pools.get(label)
    if cached is not None:
        return cached
    instance = next(
        inst for inst in symmetric_zoo(quick=True) if inst.label == label
    )
    graph = GlobalConfigurationGraph(instance.protocol)
    for initial in instance.protocol.initial_configurations():
        graph.explore(
            initial,
            max_levels=_POOL_DEPTH,
            max_configurations=_POOL_CAP,
        )
    pool = [graph.packed_at(node) for node in range(len(graph))]
    quotient, problem = SymmetryQuotient.build(
        instance.protocol, graph.codec
    )
    assert problem is None, problem
    result = (quotient, pool)
    _pools[label] = result
    return result


_LABELS = [inst.label for inst in symmetric_zoo(quick=True)]


class TestCanonicalLabeling:
    @pytest.mark.parametrize("label", _LABELS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_canonical_constant_on_orbits(self, label, data):
        quotient, pool = _pool(label)
        packed = data.draw(st.sampled_from(pool))
        n = len(quotient.names)
        perm = tuple(data.draw(st.permutations(range(n))))
        renamed = quotient.apply_perm(packed, perm)
        canonical, rho = quotient.canonicalize_with_perm(packed)
        canonical_renamed, rho_renamed = quotient.canonicalize_with_perm(
            renamed
        )
        # Constant on the orbit, and each result is a genuine image of
        # its own argument under the returned renaming.
        assert canonical == canonical_renamed
        assert quotient.apply_perm(packed, rho) == canonical
        assert quotient.apply_perm(renamed, rho_renamed) == canonical
        # Idempotent: the representative is its own representative.
        again, identity = quotient.canonicalize_with_perm(canonical)
        assert again == canonical
        assert identity == quotient.identity

    @pytest.mark.parametrize("label", _LABELS)
    def test_refine_and_brute_agree_on_orbit_partition(self, label):
        # The two algorithms may elect different representatives, so
        # compare the partitions they induce, never the forms.
        quotient, pool = _pool(label)
        by_refine: dict[tuple, set] = {}
        by_brute: dict[tuple, set] = {}
        for index, packed in enumerate(pool):
            by_refine.setdefault(
                quotient.canonicalize(packed), set()
            ).add(index)
            by_brute.setdefault(
                brute_canonicalize(quotient, packed)[0], set()
            ).add(index)
        refine_partition = {frozenset(s) for s in by_refine.values()}
        brute_partition = {frozenset(s) for s in by_brute.values()}
        assert refine_partition == brute_partition

    @pytest.mark.parametrize("label", _LABELS)
    def test_zoo_members_pass_generator_validation(self, label):
        instance = next(
            inst
            for inst in symmetric_zoo(quick=True)
            if inst.label == label
        )
        assert validate_symmetry(instance.protocol) == []


class TestReplayableWitnesses:
    @pytest.mark.parametrize(
        "policy", [SYM, BOTH], ids=["symmetry", "por+symmetry"]
    )
    def test_witness_round_trip_replays_and_audits(self, policy):
        # quorum-vote/3 is symmetric, order-sensitive, and broken
        # enough to have bivalent initials — the interesting case for
        # un-quotienting: the canonical path's renamings must compose
        # back into schedules that replay from the *asked* initial.
        protocol = make_protocol(QuorumVoteProcess, 3)
        analyzer = ValencyAnalyzer(protocol, reduction=policy)
        try:
            analyzer.classify_initials()
            initial = protocol.initial_configuration([0, 1, 0])
            witness = analyzer.bivalence_witness(initial)
            assert witness is not None
            assert witness.verify(protocol)
            for schedule in (witness.to_zero, witness.to_one):
                verdict = audit_run(
                    protocol, initial, schedule, FaultPlan.none()
                )
                assert verdict.admissible, verdict.notes
        finally:
            analyzer.close()


class TestComposedReduction:
    @pytest.mark.parametrize(
        "label", ["wait-for-all/3", "quorum-vote/3"]
    )
    def test_composed_census_matches_unreduced(self, label):
        instance = next(
            inst
            for inst in symmetric_zoo(quick=True)
            if inst.label == label
        )
        protocol = instance.protocol

        def census(reduction):
            analyzer = ValencyAnalyzer(protocol, reduction=reduction)
            try:
                return (
                    analyzer.classify_initials(),
                    len(analyzer.graph),
                )
            finally:
                analyzer.close()

        full, full_nodes = census(None)
        composed, composed_nodes = census(BOTH)
        assert composed == full
        assert composed_nodes < full_nodes

    def test_benor_round_symmetry_census_bounded(self):
        # Ben-Or's state space is infinite (round numbers grow), so the
        # identity check is depth-bounded and symmetry-only: the
        # quotient maps BFS levels 1:1 through renamings, so decisions
        # reachable within the horizon must coincide level for level.
        instance = next(
            inst
            for inst in symmetric_zoo(quick=True)
            if inst.label == "benor/3"
        )
        protocol = instance.protocol
        root = protocol.initial_configuration([0, 1, 1])

        def decisions(reduction):
            graph = GlobalConfigurationGraph(protocol, reduction=reduction)
            result = graph.explore(
                root, max_levels=instance.depth_horizon
            )
            reached = set()
            for node in result.nodes:
                reached |= graph.codec.decision_values(
                    graph.packed_at(node)
                )
            return reached, len(result.nodes)

        full, full_nodes = decisions(None)
        reduced, reduced_nodes = decisions(SYM)
        assert reduced == full
        assert reduced_nodes < full_nodes

    def test_asymmetric_protocol_refused_composed(self):
        protocol = make_protocol(ArbiterProcess, 3)
        with pytest.raises(SymmetryError, match="symmetric = True"):
            GlobalConfigurationGraph(protocol, reduction=BOTH)

    def test_serial_parallel_resumed_fingerprints_agree(self, tmp_path):
        instance = next(
            inst
            for inst in symmetric_zoo(quick=True)
            if inst.label == "quorum-vote/3"
        )
        protocol = instance.protocol
        root = protocol.initial_configuration([0, 1, 0])

        serial = GlobalConfigurationGraph(protocol, reduction=BOTH)
        serial.explore(root)
        fingerprint = serial.fingerprint()

        parallel = GlobalConfigurationGraph(
            protocol, workers=4, min_batch_per_worker=1, reduction=BOTH
        )
        parallel.explore(root)
        assert parallel.fingerprint() == fingerprint

        partial = GlobalConfigurationGraph(protocol, reduction=BOTH)
        partial.explore(root, max_configurations=40)
        path = str(tmp_path / "composed.ckpt")
        save_checkpoint(partial, path)
        resumed = load_checkpoint(path, protocol)
        resumed.explore(root)
        assert resumed.fingerprint() == fingerprint


#: ``(canonical_misses, leaf_images, refine_branches)`` of each n=5
#: member's composed exploration below.  An n! regression in
#: refinement multiplies these counters long before it shows on a
#: clock; an n! sweep would build 119 images per miss.
N5_REFINE_WORK = {
    "wait-for-all/5": (164, 267, 69),
    "quorum-vote/5": (360, 549, 145),
    "benor/5": (20, 65, 17),
}


class TestScaledZoo:
    @pytest.mark.parametrize("label", list(N5_REFINE_WORK))
    def test_n5_members_explore_reduced_within_horizon(self, label):
        instance = next(
            inst
            for inst in symmetric_zoo(quick=False)
            if inst.label == label
        )
        # Tier-1 never runs the n=5 members unreduced — the composed
        # reduction is what makes the horizon affordable on one core.
        mixed = next(
            initial
            for initial in instance.protocol.initial_configurations()
            if len(set(instance.protocol.input_vector(initial))) > 1
        )
        graph = GlobalConfigurationGraph(
            instance.protocol, reduction=BOTH
        )
        result = graph.explore(
            mixed,
            max_levels=instance.depth_horizon,
            max_configurations=200_000,
        )
        assert result.nodes
        assert graph._quotient is not None
        assert graph.stats.sym_fallbacks == 0
        quotient = graph._quotient
        assert (
            quotient.canonical_misses,
            quotient.leaf_images,
            quotient.refine_branches,
        ) == N5_REFINE_WORK[label]
        assert graph.stats.sym_canonical_misses == quotient.canonical_misses
        assert graph.stats.sym_leaf_images == quotient.leaf_images
