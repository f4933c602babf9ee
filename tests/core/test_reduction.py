"""Soundness and determinism of the Lemma-1 ample-set reducer.

The reduction's contract is *verdict identity*: a POR-reduced graph may
intern fewer configurations, but every valency classification — and
everything built on it, up to the adversary's certificates — must be
identical to the unreduced graph's.  The zoo-wide sweep below is the
empirical closure of the honest caveat in ``MODEL.md`` ("Reduction
soundness"): the deferral heuristic is not locally checkable for
protocols where a deferred step sends new mail to the chosen process,
so identity is pinned here for every analyzable protocol in the
registry, not argued abstractly.
"""

import logging

import pytest

from repro import registry
from repro.adversary import FLPAdversary
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.errors import CheckpointMismatch
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.reduction import ReductionPolicy
from repro.core.valency import ValencyAnalyzer
from repro.protocols import BenOrProcess, WaitForAllProcess, make_protocol

POR = ReductionPolicy(por=True)

ZOO = sorted(
    name for name in registry.names() if registry.info(name).analyzable
)


def classify(protocol, reduction=None):
    analyzer = ValencyAnalyzer(protocol, reduction=reduction)
    try:
        return analyzer.classify_initials(), analyzer.stats.por_pruned
    finally:
        analyzer.close()


class TestZooVerdictIdentity:
    @pytest.mark.parametrize("name", ZOO)
    def test_reduced_and_full_censuses_agree(self, name):
        info = registry.info(name)
        full, _ = classify(info.build())
        reduced, _ = classify(info.build(), reduction=POR)
        assert reduced == full

    def test_reduction_actually_happens(self):
        # The sweep above would pass vacuously if the reducer never
        # pruned; wait-for-all's broadcast phase is all-commuting, so
        # here the pruning counter must move.
        protocol = make_protocol(WaitForAllProcess, 3)
        _, pruned = classify(protocol, reduction=POR)
        assert pruned > 0

    def test_adversary_certificates_identical(self):
        # The strongest downstream consumer: staged non-deciding runs
        # read witnesses and valencies off the shared graph.  Both
        # analyzers must hand the adversary the exact same certificate.
        runs = {}
        for label, reduction in (("full", None), ("por", POR)):
            protocol = registry.build("parity-arbiter")
            analyzer = ValencyAnalyzer(protocol, reduction=reduction)
            certificate = FLPAdversary(
                protocol, analyzer=analyzer
            ).build_run(stages=5)
            assert certificate.verify(protocol)
            runs[label] = certificate
            analyzer.close()
        assert runs["por"].schedule == runs["full"].schedule
        assert runs["por"].initial == runs["full"].initial
        assert runs["por"].mode == runs["full"].mode


#: Configurations interned by the full and the ``--por`` Ben-Or/3
#: exploration from inputs 011 at each pinned depth horizon: the
#: reduction ratio is 6.4x at depth 4 and 43.9x at depth 6.
BENOR_HORIZON_SIZES = {4: (160, 25), 6: (1932, 44)}


class TestReductionRatio:
    def test_depth_horizon_expansion_shrinks(self):
        # Ben-Or's interleaving blowup is the reducer's target: both
        # engines walk the same BFS levels from the same root, so the
        # counts differ only by what the reducer pruned.
        protocol = make_protocol(BenOrProcess, 3)
        root = protocol.initial_configuration([0, 1, 1])
        for depth, expected in BENOR_HORIZON_SIZES.items():
            full = GlobalConfigurationGraph(protocol)
            full.explore(root, 200_000, max_levels=depth)
            reduced = GlobalConfigurationGraph(protocol, reduction=POR)
            reduced.explore(root, 200_000, max_levels=depth)
            assert (len(full), len(reduced)) == expected, depth
            assert reduced.stats.por_pruned > 0
            assert reduced.stats.replay_checks > 0
            assert reduced.stats.replay_violations == 0


class TestDeterminism:
    def test_two_reduced_runs_fingerprint_identically(self):
        protocol = make_protocol(WaitForAllProcess, 3)
        root_inputs = [1, 0, 1]
        prints = set()
        for _ in range(2):
            graph = GlobalConfigurationGraph(protocol, reduction=POR)
            graph.explore(protocol.initial_configuration(root_inputs))
            prints.add(graph.fingerprint())
        assert len(prints) == 1

    def test_reduced_resume_matches_uninterrupted_run(self, tmp_path):
        # Checkpoint a reduced exploration mid-flight, restore into a
        # fresh engine, finish both: the resumed graph must be
        # fingerprint-identical, reducer sample position included.
        protocol = make_protocol(WaitForAllProcess, 3)
        root = protocol.initial_configuration([1, 1, 0])
        straight = GlobalConfigurationGraph(protocol, reduction=POR)
        straight.explore(root)

        partial = GlobalConfigurationGraph(protocol, reduction=POR)
        partial.explore(root, max_levels=2)
        path = str(tmp_path / "reduced.ckpt")
        save_checkpoint(partial, path)

        resumed = load_checkpoint(path, protocol)
        assert resumed.reduction is not None and resumed.reduction.por
        assert resumed._reducer.reduced_nodes == partial._reducer.reduced_nodes
        resumed.explore(root)
        assert resumed.fingerprint() == straight.fingerprint()
        assert resumed.stats.replay_violations == 0

    def test_restore_refuses_a_mismatched_policy(self, tmp_path):
        protocol = make_protocol(WaitForAllProcess, 3)
        graph = GlobalConfigurationGraph(protocol, reduction=POR)
        graph.explore(
            protocol.initial_configuration([1, 1, 0]), max_levels=2
        )
        path = str(tmp_path / "reduced.ckpt")
        save_checkpoint(graph, path)
        with pytest.raises(CheckpointMismatch, match="reduction"):
            load_checkpoint(
                path, protocol, reduction=ReductionPolicy(por=False)
            )
        # And the converse: an unreduced snapshot cannot be resumed
        # into a reducing engine (the pruned edges were never pruned).
        plain = GlobalConfigurationGraph(protocol)
        plain.explore(
            protocol.initial_configuration([1, 1, 0]), max_levels=2
        )
        plain_path = str(tmp_path / "plain.ckpt")
        save_checkpoint(plain, plain_path)
        with pytest.raises(CheckpointMismatch, match="reduction"):
            load_checkpoint(plain_path, protocol, reduction=POR)


class TestWorkerHonesty:
    def test_serial_utilization_is_none_not_zero(self):
        protocol = make_protocol(WaitForAllProcess, 3)
        graph = GlobalConfigurationGraph(protocol)
        graph.explore(protocol.initial_configuration([1, 0, 1]))
        assert graph.stats.worker_utilization is None
        assert graph.stats.as_dict()["worker_utilization"] is None

    def test_small_batches_skip_the_pool_and_say_so(self, caplog):
        # Every level of this tiny graph falls below the dispatch
        # threshold: the pool must never see a batch, utilization must
        # stay None (not 0.0), and exactly one honest log line explains.
        protocol = make_protocol(WaitForAllProcess, 3)
        graph = GlobalConfigurationGraph(
            protocol, workers=2, min_batch_per_worker=10_000
        )
        try:
            with caplog.at_level(logging.INFO, logger="repro.exploration"):
                graph.explore(protocol.initial_configuration([1, 0, 1]))
        finally:
            graph.close()
        assert graph.stats.small_batch_levels > 0
        assert graph.stats.worker_utilization is None
        inline = [
            record
            for record in caplog.records
            if "expanding inline without the pool" in record.getMessage()
        ]
        assert len(inline) == 1  # logged once, not per level
        assert any(
            "expanded serially" in record.getMessage()
            for record in caplog.records
        )
