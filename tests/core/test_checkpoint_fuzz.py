"""Damaged checkpoints end in a typed error or in the original answer.

Byte flips and truncations of a saved engine checkpoint and of a saved
sweep checkpoint: every mutated file must either raise a
:class:`~repro.core.errors.CheckpointError` subclass or load to exactly
what was saved (the same graph fingerprint, the same sweep outcomes).
A flip may land where it changes nothing that is read back (a node
count in the header, whitespace in the sweep JSON); what must never
happen is a crash of another type, or a silently different resume.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.errors import CheckpointError
from repro.core.exploration import GlobalConfigurationGraph
from repro.protocols import ParityArbiterProcess, make_protocol
from repro.spectrum.montecarlo import SpectrumCell, SweepRunner

FUZZ = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

SWEEP_GRID = [
    SpectrumCell(
        protocol="benor", n=3, f=1, grade="oblivious", samples=4,
        horizon=20, drop_probability=0.5,
    ),
    SpectrumCell(
        protocol="rotating", n=3, f=1, grade="adaptive", gst=3, samples=4,
        horizon=12,
    ),
]


def mutations(blob: bytes):
    """Truncations anywhere, and one to three XOR flips, two thirds of
    them aimed at the first line (the engine header, where a flip can
    leave valid JSON; the whole sweep file)."""
    head = max(blob.find(b"\n"), 0)
    in_head = st.integers(0, head)
    position = st.one_of(in_head, in_head, st.integers(0, len(blob) - 1))
    flips = st.lists(
        st.tuples(position, st.integers(1, 255)), min_size=1, max_size=3
    )

    def flip(pairs):
        mutated = bytearray(blob)
        for index, mask in pairs:
            mutated[index] ^= mask
        return bytes(mutated)

    return st.one_of(
        st.integers(0, len(blob) - 1).map(lambda size: blob[:size]),
        flips.map(flip),
    )


@pytest.fixture(scope="module")
def engine_checkpoint(tmp_path_factory):
    protocol = make_protocol(ParityArbiterProcess, 3)
    graph = GlobalConfigurationGraph(protocol)
    graph.explore(
        protocol.initial_configuration([0, 0, 1]), max_configurations=60
    )
    path = tmp_path_factory.mktemp("engine") / "g.ckpt"
    save_checkpoint(graph, str(path))
    return protocol, path.read_bytes(), graph.fingerprint()


@pytest.fixture(scope="module")
def sweep_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "sweep.ckpt"
    result = SweepRunner(SWEEP_GRID, checkpoint_path=str(path)).run()
    return path.read_bytes(), result.fingerprint()


@FUZZ
@given(data=st.data())
def test_damaged_engine_checkpoint_is_refused_or_exact(
    engine_checkpoint, tmp_path, data
):
    protocol, blob, fingerprint = engine_checkpoint
    path = tmp_path / "mutated.ckpt"
    path.write_bytes(data.draw(mutations(blob)))
    try:
        graph = load_checkpoint(str(path), protocol)
    except CheckpointError:
        return
    assert graph.fingerprint() == fingerprint


@FUZZ
@given(data=st.data())
def test_damaged_sweep_checkpoint_is_refused_or_exact(
    sweep_checkpoint, tmp_path, data
):
    blob, fingerprint = sweep_checkpoint
    path = tmp_path / "mutated.ckpt"
    path.write_bytes(data.draw(mutations(blob)))
    try:
        result = SweepRunner(SWEEP_GRID, checkpoint_path=str(path)).run()
    except CheckpointError:
        return
    # Every cell came from the file; none was silently rerun.
    assert result.resumed_cells == len(SWEEP_GRID)
    assert result.fingerprint() == fingerprint
