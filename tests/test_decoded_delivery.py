"""Whole runs with every packet delivered as the decoding of its encoding.

A transaction or block that a run hands over as an object carries what was
derived from it before: its facts record, its encoded size, its signature
verdict and a block's delivery facts.  A decoded copy carries none of them,
so each receiver derives all of them afresh.  A ``World.send`` wrapper
delivers each kind of ``CODECS`` as ``CODECS[kind](_encode(payload))``; a
``bo-handoff`` already travels as bytes, and the fetch kinds have no codec.
If a stored fact or verdict ever differed from a fresh one, a decoded run
would differ from a plain one, so:

* the four small parallel runs of ``test_run_pins.py`` still match their
  pins, chain tip included;
* two of the reach guard's runs end the same plain and decoded: the one
  whose stations serve fetches (``FullLedger.find_transaction`` walks) and
  the one whose forged signatures fail.
"""

import pytest

from proactlab.sim.agents import World

import test_run_pins
from test_packet_kinds import CODECS, _encode
from test_statements_reached import RUNS as GUARD_RUNS


def _deliver_decoded(monkeypatch):
    send = World.send

    def decoded(self, src, dst, kind, payload, size, meta=None, on_expired=None):
        if kind in CODECS:
            payload = CODECS[kind](_encode(payload))
        send(self, src, dst, kind, payload, size, meta=meta, on_expired=on_expired)

    monkeypatch.setattr(World, "send", decoded)


def _observe_decoded(name, monkeypatch):
    with monkeypatch.context() as patched:
        _deliver_decoded(patched)
        return test_run_pins.observe(name, patched)


def _assert_same(observed, lines, expected):
    test_run_pins.assert_pinned(observed, lines, expected)
    assert observed == expected


@pytest.mark.parametrize("name", [name for name in sorted(test_run_pins.RUNS)
                                  if name.endswith("/parallel")],
                         ids=lambda name: name.replace("/", "-"))
def test_a_decoded_run_matches_its_pin(name, monkeypatch):
    observed, lines = _observe_decoded(name, monkeypatch)
    _assert_same(observed, lines, test_run_pins._pins()[name])


@pytest.mark.parametrize("name", ["evictions-and-fetches", "forged-signatures"])
def test_a_decoded_run_equals_the_plain_run(name, monkeypatch):
    monkeypatch.setitem(test_run_pins.RUNS, name, GUARD_RUNS[name][0])
    with monkeypatch.context() as patched:
        expected, _ = test_run_pins.observe(name, patched)
    observed, lines = _observe_decoded(name, monkeypatch)
    _assert_same(observed, lines, expected)
