"""Pinned correctness reports: the contract of ``repro check``.

Every analyzable registry protocol at its default ``n`` — the
``always-zero`` and ``input-echo`` negative controls included — is
checked for partial correctness and validity, and every field of both
reports must equal the literals below: verdicts, completeness,
``configurations_explored`` and the witnesses.  A witness is pinned as
the input vector of its initial configuration plus a schedule from
there; the report's witness must equal the configuration that schedule
reaches.  Reports read off an engine the valency census already grew
(``graph=``) must equal the self-built ones field for field, and
``repro check`` must explore the accessible set once.  The exact stdout of
``repro check`` is pinned too: every analyzable protocol at its
default ``n``, ``parity-arbiter -n 4`` and
``wait-for-all --por --symmetry``.

The literals were generated once and must never move: a change to how
the accessible set is built is behaviour-preserving exactly when every
value here still matches.
"""

from collections import namedtuple
from dataclasses import fields

import pytest

from repro import registry
from repro.cli import main
from repro.core.correctness import (
    check_partial_correctness,
    check_validity,
)
from repro.core.events import NULL, Event
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.kernel import TransitionKernel
from repro.core.valency import ValencyAnalyzer

PartialCorrectness = namedtuple(
    "PartialCorrectness",
    "agreement_ok zero_reachable one_reachable complete "
    "disagreement_witness configurations_explored",
)
Validity = namedtuple(
    "Validity",
    "valid complete violation_witness violating_value "
    "configurations_explored",
)

#: protocol name -> (partial-correctness report, validity report), with
#: witnesses as ``(inputs, schedule)`` pairs.
REPORTS = {
    "2pc": (
        PartialCorrectness(True, True, True, True, None, 128),
        Validity(True, True, None, None, 128),
    ),
    "3pc": (
        PartialCorrectness(True, True, True, True, None, 136),
        Validity(True, True, None, None, 136),
    ),
    "always-zero": (
        PartialCorrectness(True, True, False, True, None, 64),
        Validity(False, True, ((1, 1, 1), (Event("p0", NULL),)), 0, 64),
    ),
    "arbiter": (
        PartialCorrectness(True, True, True, True, None, 176),
        Validity(True, True, None, None, 176),
    ),
    "input-echo": (
        PartialCorrectness(
            False, True, True, True,
            ((1, 0), (Event("p0", NULL), Event("p1", NULL))),
            16,
        ),
        Validity(True, True, None, None, 16),
    ),
    "parity-arbiter": (
        PartialCorrectness(True, True, True, True, None, 1200),
        Validity(True, True, None, None, 1200),
    ),
    "quorum-vote": (
        PartialCorrectness(
            False, True, True, True,
            (
                (1, 0, 0),
                (
                    Event("p0", NULL),
                    Event("p1", ("vote", "p0", 1)),
                    Event("p2", ("vote", "p1", 0)),
                ),
            ),
            748,
        ),
        Validity(True, True, None, None, 748),
    ),
    "timeout-arbiter": (
        PartialCorrectness(
            False, True, True, True,
            (
                (0, 0, 1, 0),
                (
                    Event("p2", NULL),
                    Event("p2", NULL),
                    Event("p3", NULL),
                    Event("p0", ("claim", "p3", 0)),
                    Event("p1", ("claim", "p2", 1)),
                ),
            ),
            25896,
        ),
        Validity(True, True, None, None, 25896),
    ),
    "wait-for-all": (
        PartialCorrectness(True, True, True, True, None, 640),
        Validity(True, True, None, None, 640),
    ),
}


def _witness(protocol, pinned):
    if pinned is None:
        return None
    inputs, schedule = pinned
    return protocol.apply_schedule(
        protocol.initial_configuration(list(inputs)), schedule
    )


def test_every_analyzable_protocol_is_pinned():
    analyzable = {
        name for name in registry.names() if registry.info(name).analyzable
    }
    assert analyzable == set(REPORTS)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_partial_correctness_report(name):
    entry = registry.info(name)
    protocol = entry.build(entry.default_n)
    pinned = REPORTS[name][0]
    report = check_partial_correctness(protocol)
    assert report.agreement_ok is pinned.agreement_ok
    assert report.zero_reachable is pinned.zero_reachable
    assert report.one_reachable is pinned.one_reachable
    assert report.complete is pinned.complete
    assert report.disagreement_witness == _witness(
        protocol, pinned.disagreement_witness
    )
    assert report.configurations_explored == pinned.configurations_explored


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_validity_report(name):
    entry = registry.info(name)
    protocol = entry.build(entry.default_n)
    pinned = REPORTS[name][1]
    report = check_validity(protocol)
    assert report.valid is pinned.valid
    assert report.complete is pinned.complete
    assert report.violation_witness == _witness(
        protocol, pinned.violation_witness
    )
    assert report.violating_value == pinned.violating_value
    assert report.configurations_explored == pinned.configurations_explored


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_shared_closures_give_the_self_built_reports(name):
    entry = registry.info(name)
    protocol = entry.build(entry.default_n)
    analyzer = ValencyAnalyzer(protocol)
    analyzer.classify_initials()
    for check in (check_partial_correctness, check_validity):
        shared = check(protocol, graph=analyzer.graph)
        own = check(protocol)
        for spec in fields(own):
            assert getattr(shared, spec.name) == getattr(own, spec.name), (
                check.__name__,
                spec.name,
            )


def _count_engine_work(monkeypatch):
    """Count engines built and ``TransitionKernel.expand_row`` calls."""
    counts = {"engines": 0, "expand_row": 0}
    build = GlobalConfigurationGraph.__init__
    expand_row = TransitionKernel.expand_row

    def counted_build(self, *args, **kwargs):
        counts["engines"] += 1
        build(self, *args, **kwargs)

    def counted_expand_row(self, *args, **kwargs):
        counts["expand_row"] += 1
        return expand_row(self, *args, **kwargs)

    monkeypatch.setattr(GlobalConfigurationGraph, "__init__", counted_build)
    monkeypatch.setattr(TransitionKernel, "expand_row", counted_expand_row)
    return counts


def test_check_explores_the_accessible_set_once(monkeypatch, capsys):
    """Reports and census read one engine: 1,200 expansions, once."""
    counts = _count_engine_work(monkeypatch)
    assert main(["check", "parity-arbiter", "-n", "3"]) == 0
    assert counts == {"engines": 1, "expand_row": 1200}


def test_reduced_check_keeps_an_unreduced_engine_for_the_reports(
    monkeypatch, capsys
):
    counts = _count_engine_work(monkeypatch)
    assert main(["check", "wait-for-all", "--symmetry", "--stats"]) == 0
    assert counts["engines"] == 2
    assert "read a separate unreduced engine" in capsys.readouterr().out


CHECK_STDOUT = {
    ("parity-arbiter", "-n", "3"): (
        0,
        "protocol: Protocol(N=3, processes=['p0', 'p1', 'p2'])\n"
        "determinism: deterministic across 180 re-executed transitions\n"
        "partial correctness: partially correct: agreement=True, "
        "0-reachable=True, 1-reachable=True, explored=1200\n"
        "validity: holds\n"
        "\n"
        "initial-configuration valencies:\n"
        "inputs  valency \n"
        "------  --------\n"
        "000     0-valent\n"
        "001     bivalent\n"
        "010     bivalent\n"
        "011     1-valent\n"
        "100     0-valent\n"
        "101     bivalent\n"
        "110     bivalent\n"
        "111     1-valent\n",
    ),
    ("quorum-vote",): (
        1,
        "protocol: Protocol(N=3, processes=['p0', 'p1', 'p2'])\n"
        "determinism: deterministic across 180 re-executed transitions\n"
        "partial correctness: NOT partially correct: agreement=False, "
        "0-reachable=True, 1-reachable=True, explored=748\n"
        "validity: holds\n"
        "\n"
        "initial-configuration valencies:\n"
        "inputs  valency \n"
        "------  --------\n"
        "000     0-valent\n"
        "001     bivalent\n"
        "010     bivalent\n"
        "011     1-valent\n"
        "100     bivalent\n"
        "101     1-valent\n"
        "110     1-valent\n"
        "111     1-valent\n",
    ),
    ("2pc",): (
        0,
        "protocol: Protocol(N=3, processes=['p0', 'p1', 'p2'])\n"
        "determinism: deterministic across 138 re-executed transitions\n"
        "partial correctness: partially correct: agreement=True, "
        "0-reachable=True, 1-reachable=True, explored=128\n"
        "validity: holds\n"
        "\n"
        "initial-configuration valencies:\n"
        "inputs  valency \n"
        "------  --------\n"
        "000     0-valent\n"
        "001     0-valent\n"
        "010     0-valent\n"
        "011     0-valent\n"
        "100     0-valent\n"
        "101     0-valent\n"
        "110     0-valent\n"
        "111     1-valent\n",
    ),
    ("3pc",): (
        0,
        "protocol: Protocol(N=3, processes=['p0', 'p1', 'p2'])\n"
        "determinism: deterministic across 138 re-executed transitions\n"
        "partial correctness: partially correct: agreement=True, "
        "0-reachable=True, 1-reachable=True, explored=136\n"
        "validity: holds\n"
        "\n"
        "initial-configuration valencies:\n"
        "inputs  valency \n"
        "------  --------\n"
        "000     0-valent\n"
        "001     0-valent\n"
        "010     0-valent\n"
        "011     0-valent\n"
        "100     0-valent\n"
        "101     0-valent\n"
        "110     0-valent\n"
        "111     1-valent\n",
    ),
    ("always-zero",): (
        1,
        "protocol: Protocol(N=3, processes=['p0', 'p1', 'p2'])\n"
        "determinism: deterministic across 185 re-executed transitions\n"
        "partial correctness: NOT partially correct: agreement=True, "
        "0-reachable=True, 1-reachable=False, explored=64\n"
        "validity: VIOLATED\n"
        "\n"
        "initial-configuration valencies:\n"
        "inputs  valency \n"
        "------  --------\n"
        "000     0-valent\n"
        "001     0-valent\n"
        "010     0-valent\n"
        "011     0-valent\n"
        "100     0-valent\n"
        "101     0-valent\n"
        "110     0-valent\n"
        "111     0-valent\n",
    ),
    ("arbiter",): (
        0,
        "protocol: Protocol(N=3, processes=['p0', 'p1', 'p2'])\n"
        "determinism: deterministic across 181 re-executed transitions\n"
        "partial correctness: partially correct: agreement=True, "
        "0-reachable=True, 1-reachable=True, explored=176\n"
        "validity: holds\n"
        "\n"
        "initial-configuration valencies:\n"
        "inputs  valency \n"
        "------  --------\n"
        "000     0-valent\n"
        "001     bivalent\n"
        "010     bivalent\n"
        "011     1-valent\n"
        "100     0-valent\n"
        "101     bivalent\n"
        "110     bivalent\n"
        "111     1-valent\n",
    ),
    ("input-echo",): (
        1,
        "protocol: Protocol(N=2, processes=['p0', 'p1'])\n"
        "determinism: deterministic across 151 re-executed transitions\n"
        "partial correctness: NOT partially correct: agreement=False, "
        "0-reachable=True, 1-reachable=True, explored=16\n"
        "validity: holds\n"
        "\n"
        "initial-configuration valencies:\n"
        "inputs  valency \n"
        "------  --------\n"
        "00      0-valent\n"
        "01      bivalent\n"
        "10      bivalent\n"
        "11      1-valent\n",
    ),
    ("parity-arbiter",): (
        0,
        "protocol: Protocol(N=3, processes=['p0', 'p1', 'p2'])\n"
        "determinism: deterministic across 180 re-executed transitions\n"
        "partial correctness: partially correct: agreement=True, "
        "0-reachable=True, 1-reachable=True, explored=1200\n"
        "validity: holds\n"
        "\n"
        "initial-configuration valencies:\n"
        "inputs  valency \n"
        "------  --------\n"
        "000     0-valent\n"
        "001     bivalent\n"
        "010     bivalent\n"
        "011     1-valent\n"
        "100     0-valent\n"
        "101     bivalent\n"
        "110     bivalent\n"
        "111     1-valent\n",
    ),
    ("parity-arbiter", "-n", "4"): (
        0,
        "protocol: Protocol(N=4, processes=['p0', 'p1', 'p2', 'p3'])\n"
        "determinism: deterministic across 182 re-executed transitions\n"
        "partial correctness: partially correct: agreement=True, "
        "0-reachable=True, 1-reachable=True, explored=34016\n"
        "validity: holds\n"
        "\n"
        "initial-configuration valencies:\n"
        "inputs  valency \n"
        "------  --------\n"
        "0000    0-valent\n"
        "0001    bivalent\n"
        "0010    bivalent\n"
        "0011    bivalent\n"
        "0100    bivalent\n"
        "0101    bivalent\n"
        "0110    bivalent\n"
        "0111    1-valent\n"
        "1000    0-valent\n"
        "1001    bivalent\n"
        "1010    bivalent\n"
        "1011    bivalent\n"
        "1100    bivalent\n"
        "1101    bivalent\n"
        "1110    bivalent\n"
        "1111    1-valent\n",
    ),
    ("timeout-arbiter",): (
        1,
        "protocol: Protocol(N=4, processes=['p0', 'p1', 'p2', 'p3'])\n"
        "determinism: deterministic across 146 re-executed transitions\n"
        "partial correctness: NOT partially correct: agreement=False, "
        "0-reachable=True, 1-reachable=True, explored=25896\n"
        "validity: holds\n"
        "\n"
        "initial-configuration valencies:\n"
        "inputs  valency \n"
        "------  --------\n"
        "0000    0-valent\n"
        "0001    bivalent\n"
        "0010    bivalent\n"
        "0011    1-valent\n"
        "0100    0-valent\n"
        "0101    bivalent\n"
        "0110    bivalent\n"
        "0111    1-valent\n"
        "1000    0-valent\n"
        "1001    bivalent\n"
        "1010    bivalent\n"
        "1011    1-valent\n"
        "1100    0-valent\n"
        "1101    bivalent\n"
        "1110    bivalent\n"
        "1111    1-valent\n",
    ),
    ("wait-for-all",): (
        0,
        "protocol: Protocol(N=3, processes=['p0', 'p1', 'p2'])\n"
        "determinism: deterministic across 180 re-executed transitions\n"
        "partial correctness: partially correct: agreement=True, "
        "0-reachable=True, 1-reachable=True, explored=640\n"
        "validity: holds\n"
        "\n"
        "initial-configuration valencies:\n"
        "inputs  valency \n"
        "------  --------\n"
        "000     0-valent\n"
        "001     0-valent\n"
        "010     0-valent\n"
        "011     1-valent\n"
        "100     0-valent\n"
        "101     1-valent\n"
        "110     1-valent\n"
        "111     1-valent\n",
    ),
    ("wait-for-all", "--por", "--symmetry"): (
        0,
        "protocol: Protocol(N=3, processes=['p0', 'p1', 'p2'])\n"
        "determinism: deterministic across 180 re-executed transitions\n"
        "partial correctness: partially correct: agreement=True, "
        "0-reachable=True, 1-reachable=True, explored=640\n"
        "validity: holds\n"
        "\n"
        "initial-configuration valencies:\n"
        "inputs  valency \n"
        "------  --------\n"
        "000     0-valent\n"
        "001     0-valent\n"
        "010     0-valent\n"
        "011     1-valent\n"
        "100     0-valent\n"
        "101     1-valent\n"
        "110     1-valent\n"
        "111     1-valent\n",
    ),
}


def test_every_analyzable_protocol_has_pinned_stdout():
    assert {argv[0] for argv in CHECK_STDOUT} == set(REPORTS)


@pytest.mark.parametrize("argv", sorted(CHECK_STDOUT))
def test_check_stdout(argv, capsys):
    code, stdout = CHECK_STDOUT[argv]
    assert main(["check", *argv]) == code
    assert capsys.readouterr().out == stdout
