"""Pinned adversary output: the ``attack`` command's behavioural contract.

Each case runs one ``repro attack`` command line in process and pins
three things: the SHA-256 of the proof bundle it saves, the SHA-256 of
``repr(certificate.stages)`` (every stage's forced event, search depth,
Lemma-3 case and configurations examined), and the fingerprint of the
shared configuration graph the run leaves behind.  The stage records
come from the Lemma-3 search over 𝒞, the bundle from the witness path
search, and the graph fingerprint from every valency query the search
made, so a change to successor computation, the POR replay guard, the
symmetry quotient or the path search that moves any adversary output
moves one of these literals.  All values are identical across
``PYTHONHASHSEED`` settings.

The last test pins the Case-2 structure Lemma 3's failure analysis
recovers on the plain arbiter, from a fresh analyzer.
"""

import hashlib

import pytest

from repro.adversary.flp import FLPAdversary
from repro.adversary.lemmas import find_bivalent_successor
from repro.cli import main
from repro.core.events import NULL, Event
from repro.core.valency import Valency, ValencyAnalyzer
from repro.protocols import ArbiterProcess, make_protocol


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: case -> (argv, bundle sha256, stages-repr sha256, graph fingerprint).
ATTACKS = {
    "parity-arbiter-4": (
        ["attack", "parity-arbiter", "-n", "4", "--stages", "40"],
        "62d5dce6fe70ec4a9723932a9e5a62164a021f5f71017a8bf9940c20bec31224",
        "ebf8f4cebaa4fc60662a81206632a7de0cd9173ab278512df62c628d24dacb96",
        "5e5471755e04c4b520cb98fde86a2240b41b3ee38eb09f8f4491347035dfa7f2",
    ),
    # POR prunes the graph but every schedule the adversary returns is
    # the unreduced run's.
    "parity-arbiter-4-por": (
        ["attack", "parity-arbiter", "-n", "4", "--stages", "40", "--por"],
        "62d5dce6fe70ec4a9723932a9e5a62164a021f5f71017a8bf9940c20bec31224",
        "ebf8f4cebaa4fc60662a81206632a7de0cd9173ab278512df62c628d24dacb96",
        "54f2ce173939d155886f6647b360c35c6045c5eb971459f2ad099b73b428e687",
    ),
    "wait-for-all-symmetry": (
        ["attack", "wait-for-all", "--symmetry"],
        "42468c526b675c57731da8a5432092853bc2b67da2e30e3bc2304e2947ac1870",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "87e0e8de354e3e3fd8c4443f14a55ae9240c3dc7231e301af83b27f4242f7d54",
    ),
    "2pc-fault": (
        ["attack", "2pc", "--stages", "3"],
        "df645be83af8578e418ec2905a9aa751d580835f0de778b06d3dfd8519e67e7c",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "40f89e1f28ca69ed551a0c07ce327417b9311557be570eaa48451f01acb8537d",
    ),
    # Three bivalence-preserving stages, then a Lemma-3 Case-2 failure
    # switches the adversary to FAULT mode.
    "arbiter-case2": (
        ["attack", "arbiter"],
        "73fadabf5cce800ebccbab6fcea65339ce23d08b6d8c4d8ea5e88645303a1d58",
        "93d02d0272e5211d2c2321a3e4a6e6c662746b3d7a30286617b7f779d2737c22",
        "72f40847b9b76fff131c71aff71cd2cc3741b0ae106e7d0676b50c0556946828",
    ),
}


@pytest.mark.parametrize("case", sorted(ATTACKS))
def test_attack_output_is_pinned(case, tmp_path, monkeypatch, capsys):
    argv, bundle_sha, stages_sha, fingerprint = ATTACKS[case]
    runs = []
    build_run = FLPAdversary.build_run

    def recording(adversary, *args, **kwargs):
        certificate = build_run(adversary, *args, **kwargs)
        runs.append((adversary, certificate))
        return certificate

    monkeypatch.setattr(FLPAdversary, "build_run", recording)
    path = tmp_path / "bundle.json"
    assert main(argv + ["--save", str(path)]) == 0
    assert "verified by replay: True" in capsys.readouterr().out
    (adversary, certificate), = runs
    assert _sha(path.read_text()) == bundle_sha
    assert _sha(repr(certificate.stages)) == stages_sha
    assert adversary.analyzer.graph.fingerprint() == fingerprint


def test_case2_failure_on_plain_arbiter_is_pinned():
    protocol = make_protocol(ArbiterProcess, 3)
    analyzer = ValencyAnalyzer(protocol)
    config = protocol.initial_configuration([0, 0, 1])
    config = protocol.apply_event(config, Event("p1", NULL))
    outcome = find_bivalent_successor(
        protocol, analyzer, config, Event("p0", ("claim", "p1", 0))
    )
    failure = outcome.failure
    assert outcome.exact and outcome.certificate is None
    assert outcome.configurations_examined == 6
    assert failure.pivot_event == Event("p0", ("claim", "p2", 1))
    assert list(failure.schedule_to_anchor) == [Event("p2", NULL)]
    assert failure.anchor == protocol.apply_schedule(
        config, failure.schedule_to_anchor
    )
    assert failure.anchor_valency is Valency.ZERO_VALENT
    assert failure.neighbor_valency is Valency.ONE_VALENT
    assert _sha(repr(failure)) == (
        "8f29e86dfa6565e7515f3eac25bc5272f02f5443c003ad3ac2a7dec0fe627744"
    )
    assert analyzer.graph.fingerprint() == (
        "26e98cafb3380304a317a5b39329775204ca5eaef1019e1e2f41bf74cb1e073f"
    )
