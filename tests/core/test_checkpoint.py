"""Checkpoint format, integrity verification, and resume identity."""

import hashlib
import json
import os
import pickle

import pytest

import repro.core.checkpoint as checkpoint
from repro.core.checkpoint import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    read_checkpoint_header,
    restore_checkpoint,
    save_checkpoint,
)
from repro.core.errors import (
    CheckpointCorrupt,
    CheckpointError,
    CheckpointMismatch,
)
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.reduction import ReductionPolicy
from repro.core.resilience import CheckpointConfig
from repro.protocols import (
    ParityArbiterProcess,
    WaitForAllProcess,
    make_protocol,
)


@pytest.fixture(scope="module")
def protocol():
    return make_protocol(ParityArbiterProcess, 3)


def _root(protocol):
    return protocol.initial_configuration([0, 0, 1])


def _explored(protocol, *, budget=400):
    graph = GlobalConfigurationGraph(protocol)
    graph.explore(_root(protocol), max_configurations=budget)
    return graph


def _rewrite(path, header, state):
    """Write *state* under *header* with a correct payload checksum."""
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = dict(
        header,
        payload_sha256=hashlib.sha256(payload).hexdigest(),
        payload_bytes=len(payload),
    )
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode())
        handle.write(b"\n")
        handle.write(payload)


def _read_raw(path):
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        state = pickle.loads(handle.read())
    return header, state


#: The one snapshot shape this engine writes and reads.
SNAPSHOT_KINDS = pytest.mark.parametrize("engine", ["packed"])


class TestRoundTrip:
    @SNAPSHOT_KINDS
    def test_restore_preserves_everything(self, protocol, tmp_path, engine):
        graph = _explored(protocol)
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(graph, path)
        assert read_checkpoint_header(path)["engine"] == engine
        info = restore_checkpoint(
            GlobalConfigurationGraph(protocol), path
        )
        assert info.nodes == len(graph)
        assert info.edges == sum(len(out) for out in graph.successors)

        restored = load_checkpoint(path, protocol)
        assert len(restored) == len(graph)
        assert restored.successors == graph.successors
        assert restored.frontier_ids() == graph.frontier_ids()
        assert restored.fingerprint() == graph.fingerprint()
        assert restored.stats.resumed_nodes == len(graph)
        # Decision indexes are rebuilt in id order == intern order.
        for value in (0, 1):
            assert restored.decision_nodes(value) == graph.decision_nodes(
                value
            )

    def test_load_reads_and_verifies_the_file_once(
        self, protocol, tmp_path, monkeypatch
    ):
        graph = _explored(protocol)
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(graph, path)
        reads = []
        read = checkpoint._read

        def counting_read(target):
            reads.append(target)
            return read(target)

        monkeypatch.setattr(checkpoint, "_read", counting_read)
        restored = load_checkpoint(path, protocol)
        assert reads == [path]
        assert restored.fingerprint() == graph.fingerprint()

    def test_header_readable_without_unpickling(self, protocol, tmp_path):
        graph = _explored(protocol)
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(graph, path)
        header = read_checkpoint_header(path)
        assert header["magic"] == CHECKPOINT_MAGIC
        assert header["engine"] == "packed"
        assert header["nodes"] == len(graph)
        assert header["process_names"] == list(protocol.process_names)

    def test_write_is_atomic_no_temp_left_behind(self, protocol, tmp_path):
        graph = _explored(protocol)
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(graph, path)
        save_checkpoint(graph, path)  # overwrite goes through os.replace
        assert os.listdir(tmp_path) == ["g.ckpt"]


class TestResumeIdentity:
    @SNAPSHOT_KINDS
    def test_grow_after_restore_matches_uninterrupted(
        self, protocol, tmp_path, engine
    ):
        budget = 5000
        clean = GlobalConfigurationGraph(protocol)
        clean.explore(_root(protocol), max_configurations=budget)
        fingerprint = clean.fingerprint()

        partial = GlobalConfigurationGraph(protocol)
        partial.explore(_root(protocol), max_configurations=150)
        path = str(tmp_path / "partial.ckpt")
        save_checkpoint(partial, path)
        assert read_checkpoint_header(path)["engine"] == engine

        resumed = load_checkpoint(path, protocol)
        assert len(resumed) < len(clean)
        resumed.explore(_root(protocol), max_configurations=budget)
        assert resumed.fingerprint() == fingerprint

    def test_resumed_codec_keeps_interning_deterministic(
        self, protocol, tmp_path
    ):
        # The codec's id-allocation tables are the load-bearing state:
        # a resumed encode of a known configuration must produce the
        # packed tuple already in the node table, not a fresh id.
        graph = _explored(protocol, budget=200)
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(graph, path)
        resumed = load_checkpoint(path, protocol)
        for node in range(0, len(graph), 7):
            configuration = graph.configuration_at(node)
            assert resumed.find(configuration) == node


class TestIntegrity:
    def test_flipped_payload_byte_is_detected(self, protocol, tmp_path):
        graph = _explored(protocol)
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(graph, path)
        blob = bytearray(open(path, "rb").read())
        blob[-10] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointCorrupt, match="checksum"):
            load_checkpoint(path, protocol)

    def test_not_a_checkpoint(self, protocol, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        open(path, "w").write("this is not a checkpoint\npayload")
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint_header(path)

    def test_future_version_refused(self, protocol, tmp_path):
        # A future format, and version 2 (whose restore branches for
        # older payload shapes are gone): refused before unpickling,
        # with both versions named.
        graph = _explored(protocol)
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(graph, path)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            payload = handle.read()
        for version in (999, 2):
            header["version"] = version
            with open(path, "wb") as handle:
                handle.write(json.dumps(header).encode() + b"\n" + payload)
            expected = f"version {version}, this build reads 3"
            with pytest.raises(CheckpointMismatch, match=expected):
                read_checkpoint_header(path)
            with pytest.raises(CheckpointMismatch, match=expected):
                load_checkpoint(path, protocol)

    def test_header_with_a_missing_or_extra_field_is_corrupt(
        self, protocol, tmp_path
    ):
        graph = _explored(protocol)
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(graph, path)
        header, state = _read_raw(path)
        for damaged in (
            {k: v for k, v in header.items() if k != "reduction"},
            dict(header, extra=1),
            dict(header, reduction=[]),
        ):
            _rewrite(path, damaged, state)
            with pytest.raises(CheckpointCorrupt, match="malformed"):
                load_checkpoint(path, protocol)

    def test_missing_file(self, protocol, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.ckpt"), protocol)


def write_dict_engine_checkpoint(protocol, path):
    """A correctly checksummed snapshot of the retired dict-keyed engine:
    rich configurations and successor lists, ``"engine": "dict"``."""
    graph = _explored(protocol, budget=50)
    save_checkpoint(graph, path)
    header, _state = _read_raw(path)
    state = {
        "engine": "dict",
        "expanded": bytes(graph._expanded),
        "stats": graph.stats,
        "configurations": list(graph.configurations),
        "successors": list(graph.successors),
    }
    _rewrite(path, dict(header, engine="dict"), state)


SYMMETRY = ReductionPolicy(symmetry=True)


def _symmetric_graph(budget=200_000):
    protocol = make_protocol(WaitForAllProcess, 3)
    graph = GlobalConfigurationGraph(protocol, reduction=SYMMETRY)
    graph.explore(
        protocol.initial_configuration([0, 1, 1]),
        max_configurations=budget,
    )
    return protocol, graph


def write_brute_symmetry_checkpoint(path):
    """A correctly checksummed ``--symmetry`` snapshot whose header is
    stamped by the retired brute n! canonicalizer; returns its
    protocol."""
    protocol, graph = _symmetric_graph(budget=20)
    save_checkpoint(graph, path)
    header, state = _read_raw(path)
    reduction = dict(header["reduction"], symmetry_algorithm="brute")
    _rewrite(path, dict(header, reduction=reduction), state)
    return protocol


class TestSymmetryStamp:
    def test_refine_snapshot_round_trips(self, tmp_path):
        protocol, partial = _symmetric_graph(budget=20)
        path = str(tmp_path / "sym.ckpt")
        save_checkpoint(partial, path)
        assert read_checkpoint_header(path)["reduction"] == {
            "por": False,
            "symmetry": True,
            "symmetry_algorithm": "refine",
        }
        resumed = load_checkpoint(path, protocol)
        assert resumed.reduction == SYMMETRY
        assert resumed.fingerprint() == partial.fingerprint()
        _protocol, straight = _symmetric_graph()
        resumed.explore(protocol.initial_configuration([0, 1, 1]))
        assert resumed.fingerprint() == straight.fingerprint()

    @pytest.mark.parametrize(
        "reduction", [None, SYMMETRY], ids=["adopted", "explicit"]
    )
    def test_brute_stamped_snapshot_is_refused(self, tmp_path, reduction):
        path = str(tmp_path / "brute.ckpt")
        protocol = write_brute_symmetry_checkpoint(path)
        with pytest.raises(CheckpointMismatch, match="brute"):
            load_checkpoint(path, protocol, reduction=reduction)


class TestMismatches:
    def test_engine_mode_mismatch(self, protocol, tmp_path):
        path = str(tmp_path / "dict.ckpt")
        write_dict_engine_checkpoint(protocol, path)
        assert read_checkpoint_header(path)["engine"] == "dict"
        with pytest.raises(CheckpointMismatch, match="dict"):
            load_checkpoint(path, protocol)
        with pytest.raises(CheckpointMismatch, match="keyed"):
            restore_checkpoint(GlobalConfigurationGraph(protocol), path)

    def test_protocol_mismatch(self, tmp_path):
        graph = _explored(make_protocol(ParityArbiterProcess, 3))
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(graph, path)
        other = make_protocol(ParityArbiterProcess, 4)
        with pytest.raises(CheckpointMismatch, match="process"):
            load_checkpoint(path, other)

    def test_restore_into_nonempty_engine_refused(self, protocol, tmp_path):
        graph = _explored(protocol)
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(graph, path)
        target = _explored(protocol, budget=50)
        with pytest.raises(CheckpointError, match="fresh"):
            restore_checkpoint(target, path)


class TestCadence:
    def test_every_levels_writes_during_exploration(
        self, protocol, tmp_path
    ):
        path = str(tmp_path / "cadence.ckpt")
        graph = GlobalConfigurationGraph(
            protocol,
            checkpoint=CheckpointConfig(path=path, every_levels=1),
        )
        graph.explore(_root(protocol), max_configurations=400)
        assert graph.stats.checkpoints_written >= 2
        assert graph.stats.checkpoint_time > 0.0
        assert graph.last_checkpoint is not None
        assert os.path.exists(path)
        # The final per-level snapshot captures the final state.
        resumed = load_checkpoint(path, protocol)
        assert resumed.fingerprint() == graph.fingerprint()

    def test_no_config_means_no_writes(self, protocol):
        graph = _explored(protocol)
        assert graph.stats.checkpoints_written == 0
        assert graph.last_checkpoint is None

    def test_zero_cadence_only_writes_forced_snapshots(
        self, protocol, tmp_path
    ):
        path = str(tmp_path / "final-only.ckpt")
        graph = GlobalConfigurationGraph(
            protocol,
            checkpoint=CheckpointConfig(path=path),
        )
        graph.explore(_root(protocol), max_configurations=400)
        assert graph.stats.checkpoints_written == 0
        assert not os.path.exists(path)
