"""Pinned census fingerprints: the engine's behavioural contract.

``GlobalConfigurationGraph.fingerprint()`` hashes every packed node and
its successor list in id order, so two runs share a fingerprint iff
they interned the same configurations under the same ids and recorded
the same edges in the same order.  The literals below were generated
once and must never move: any refactor of the successor computation,
the crew, the merge or checkpointing is behaviour-preserving exactly
when every value here still matches.

Each instance is checked three ways — a serial run, a two-worker crew
run (forced onto the crew even for small frontiers), and a run saved
to disk about halfway, reloaded with ``load_checkpoint`` and finished.
The halfway stop uses the depth horizon, so the saved graph ends on a
BFS-level boundary and the finished run is byte-identical to an
uninterrupted one.

Each instance also pins its ``semantic_fingerprint()``: the same graph
hashed without any interned state, buffer or event id, so a change to
the packed encoding itself can be checked against it.
"""

import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.reduction import ReductionPolicy
from repro.faults.model import FaultedProtocol
from repro.faults.plan import Crash, FaultPlan, Omission
from repro.protocols import (
    ArbiterProcess,
    BenOrProcess,
    ParityArbiterProcess,
    TwoPhaseCommitProcess,
    WaitForAllProcess,
    make_protocol,
)

#: Every instance explores from the initial configuration with inputs
#: ``001``.
INPUTS = (0, 0, 1)


def _faulted_benor():
    plan = FaultPlan(
        [Crash("p0", 0), Omission(destination="p2", budget=None)]
    )
    return FaultedProtocol(make_protocol(BenOrProcess, 3), plan)


def _benor_round():
    return make_protocol(BenOrProcess, 3, coin="round")


#: name -> (protocol factory, configuration budget or None for closure,
#: reduction policy, fingerprint).
CENSUS = {
    "arbiter3": (
        lambda: make_protocol(ArbiterProcess, 3), None, None,
        "17bcc6340c1c5c5208f0c50387786429d2b15b7351933c28d3e21e05d5a4a29c",
    ),
    "parity-arbiter3": (
        lambda: make_protocol(ParityArbiterProcess, 3), None, None,
        "4490279e17c350172d7ece333bcdbdd765269611f82e233bedf1e5ab71cab8b0",
    ),
    "wait-for-all3@800": (
        lambda: make_protocol(WaitForAllProcess, 3), 800, None,
        "b5bbea9408afeed4f392f201259384642c55a797dc44dc94deb6fc700332317b",
    ),
    "2pc3@800": (
        lambda: make_protocol(TwoPhaseCommitProcess, 3), 800, None,
        "adea1c0e8ac01d79562c6733c864f8092c53600860f2f6fa3ea9e5b6da944e87",
    ),
    "benor3@800": (
        lambda: make_protocol(BenOrProcess, 3), 800, None,
        "b32700421d7d10f32300f65ac95957ad9f6db44a5022bece31c3c536c94c109c",
    ),
    "faulted-benor3@2000": (
        _faulted_benor, 2000, None,
        "da9f8769ee99ae409a625da0a6c5090c39833e2116e3acc8988d48eec3e572e1",
    ),
    "benor3-round-por@2000": (
        _benor_round, 2000, ReductionPolicy(por=True),
        "045b580a95ec733978b0be6c5e2fbabe146eb65778da9b20f94209c22acf7a90",
    ),
    "benor3-round-symmetry@2000": (
        _benor_round, 2000, ReductionPolicy(symmetry=True),
        "cdae2f7cc59d3d546f5d5133a56d07c8949b74d028d47780b4ad47d2b23534ea",
    ),
    "benor3-round-por+symmetry@2000": (
        _benor_round, 2000, ReductionPolicy(por=True, symmetry=True),
        "1f17143edff2a2ac8371c8430b0f492e79e28ab9bc9338f5b7bdab59d9f27f30",
    ),
}


#: name -> :meth:`GlobalConfigurationGraph.semantic_fingerprint` of the
#: same run: the graph with no state, buffer or event id inside, so it
#: must hold across a change to the packed row's encoding that moves
#: the packed fingerprints above.
SEMANTIC = {
    "arbiter3":
        "ac5a246ff94504d03ca21061d3ab1ff8eb3692735b0f08029373d31fc0fd2cf0",
    "parity-arbiter3":
        "d0fc6e5db7f1a19c908422954306e8dacfd555f7a520f2694d7752280b5f843f",
    "wait-for-all3@800":
        "3cf95bbf357ca40eabdb169f28b22967e904141a25e9afe76c2530c5276f31a0",
    "2pc3@800":
        "a55aed4f73544b2560a4f934b455eb0bcd8268fb39980ab6255f0fd8e7fed519",
    "benor3@800":
        "ff1e8c5438342eaf973d96983c2c0937e932874ea665befaf66cc671e12d2411",
    "faulted-benor3@2000":
        "fb7b9b8f555b23ebed857bef47537dc474ac6ef0b4fe27b9bdf80988b38789ef",
    "benor3-round-por@2000":
        "aad9437b59d9aa3574465ab08249dfb57cac294242408a2079be6704dba66b35",
    "benor3-round-symmetry@2000":
        "b55963c3eb44bda0435f711df955b63fd9e3488d530a7944c6e332a302521b3b",
    "benor3-round-por+symmetry@2000":
        "69ccc1b298620fd5683b0bfdac88b694dde50a306d0817b821ff8307f95aa84b",
}


def census_fingerprint(name: str) -> str:
    """The pinned fingerprint of instance *name* (for other suites)."""
    return CENSUS[name][3]


def _budget(budget):
    return {} if budget is None else {"max_configurations": budget}


def _explored(name, **engine):
    """``(fingerprint, size, stats)`` of one uninterrupted run."""
    factory, budget, policy, _expected = CENSUS[name]
    protocol = factory()
    graph = GlobalConfigurationGraph(protocol, reduction=policy, **engine)
    try:
        root = protocol.initial_configuration(INPUTS)
        graph.explore(root, **_budget(budget))
        return graph.fingerprint(), len(graph), graph.stats
    finally:
        graph.close()


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_serial_run_matches_pinned_fingerprint(name):
    fingerprint, _size, _stats = _explored(name)
    assert fingerprint == census_fingerprint(name)


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_serial_run_matches_pinned_semantic_fingerprint(name):
    factory, budget, policy, expected = CENSUS[name]
    protocol = factory()
    graph = GlobalConfigurationGraph(protocol, reduction=policy)
    try:
        root = protocol.initial_configuration(INPUTS)
        graph.explore(root, **_budget(budget))
        assert graph.fingerprint() == expected
        assert graph.semantic_fingerprint() == SEMANTIC[name]
    finally:
        graph.close()


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_crew_run_matches_pinned_fingerprint(name):
    fingerprint, _size, stats = _explored(
        name, workers=2, min_batch_per_worker=1
    )
    assert stats.worker_batches > 0
    assert fingerprint == census_fingerprint(name)


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_resumed_run_matches_pinned_fingerprint(name, tmp_path):
    factory, budget, policy, expected = CENSUS[name]
    protocol = factory()
    root = protocol.initial_configuration(INPUTS)
    half = _explored(name)[1] // 2
    graph = GlobalConfigurationGraph(protocol, reduction=policy)
    levels = 0
    while len(graph) < half:
        levels += 1
        grown = graph.explore(root, **_budget(budget), max_levels=levels)
        if grown.complete:
            break
    assert not graph.complete
    path = str(tmp_path / "half.ckpt")
    save_checkpoint(graph, path)
    graph.close()

    resumed = load_checkpoint(path, factory())
    try:
        resumed.explore(root, **_budget(budget))
        assert resumed.stats.resumed_nodes == len(graph)
        assert resumed.fingerprint() == expected
    finally:
        resumed.close()


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_crew_half_resumed_run_matches_pinned_fingerprint(name, tmp_path):
    # The crew parent holds buffers as rep-only placeholders, so its
    # checkpoint carries them that way; a serial engine must resume
    # from it and finish byte-identically.
    factory, budget, policy, expected = CENSUS[name]
    protocol = factory()
    root = protocol.initial_configuration(INPUTS)
    half = _explored(name)[1] // 2
    graph = GlobalConfigurationGraph(
        protocol, reduction=policy, workers=2, min_batch_per_worker=1
    )
    try:
        levels = 0
        while len(graph) < half:
            levels += 1
            grown = graph.explore(root, **_budget(budget), max_levels=levels)
            if grown.complete:
                break
        assert graph.stats.worker_batches > 0
        assert not graph.complete
        path = str(tmp_path / "crew-half.ckpt")
        save_checkpoint(graph, path)
        saved = len(graph)
    finally:
        graph.close()

    resumed = load_checkpoint(path, factory())
    try:
        resumed.explore(root, **_budget(budget))
        assert resumed.stats.resumed_nodes == saved
        assert resumed.fingerprint() == expected
    finally:
        resumed.close()
