"""Every packet kind's size rule, checked against its encoding.

``agents.PACKET_SIZE`` holds the one size rule of each packet kind.  Three
of the reach guard's runs send every kind between them.  A ``World.send``
wrapper keeps each packet with the size it was charged, and after the runs:

* a transaction or a block encodes to exactly the size charged, and its
  encoding decodes to an equal object;
* a consensus message encodes to the size charged and decodes to an equal
  message;
* an orderer handoff travels as bytes: they are the size charged, and they
  decode to a state that encodes to the same bytes;
* a fetch request or response has no codec: it is charged its rule in
  ``NO_CODEC``.
"""

from proactlab import consensus, wire
from proactlab.sim.agents import PACKET_SIZE, World
from proactlab.sim.scenario import build_world

from test_statements_reached import RUNS

# kind -> the decoder of its payload's encoding
CODECS = {
    **dict.fromkeys(("tx", "tx-forward"), wire.decode_transaction),
    **dict.fromkeys(("genesis", "block", "committed-block", "block-copy"), wire.decode_block),
    "nbr": consensus.NbrMessage.decode,
    "assign": consensus.AssignMessage.decode,
    "ack": consensus.BlockAckMessage.decode,
    "block-error": consensus.BlockErrorMessage.decode,
    "void": consensus.VoidMessage.decode,
}

# kind -> (its size rule, the size it charges a payload); no codec reads these
NO_CODEC = {
    "fetch-req": ("96 bytes", lambda request: 96),
    "fetch-resp": ("64 bytes, or the encoded size of the transaction it carries",
                   lambda tx: 64 if tx is None else len(wire.encode_transaction(tx))),
}

RUN_NAMES = ("attacks-and-probes", "rotating-orderers", "rejected-miner")


def test_each_kind_has_a_codec_or_a_listed_rule():
    assert set(CODECS) | {"bo-handoff"} | set(NO_CODEC) == set(PACKET_SIZE)


def _sent_packets(monkeypatch):
    """(kind, payload, size) of every packet the three runs send."""
    sent = []
    send = World.send

    def keep(self, src, dst, kind, payload, size, meta=None, on_expired=None):
        sent.append((kind, payload, size))
        send(self, src, dst, kind, payload, size, meta=meta, on_expired=on_expired)

    monkeypatch.setattr(World, "send", keep)
    for name in RUN_NAMES:
        make_config, _ = RUNS[name]
        with monkeypatch.context() as patched:
            build_world(make_config(patched)).run()
    return sent


def _mismatch(kind, payload, size):
    """Why a packet's size or round trip is wrong, or None."""
    if kind == "bo-handoff":
        if len(payload) != size:
            return f"{len(payload)} bytes"
        if consensus.OrderingState.decode(payload).encode() != payload:
            return "does not re-encode to the same bytes"
        return None
    if kind in NO_CODEC:
        rule, charge = NO_CODEC[kind]
        return None if charge(payload) == size else f"its rule is {rule}"
    encoded = _encode(payload)
    if len(encoded) != size:
        return f"encodes to {len(encoded)} bytes"
    return None if CODECS[kind](encoded) == payload else "decodes to a different object"


def _encode(payload):
    if isinstance(payload, wire.Transaction):
        return wire.encode_transaction(payload)
    if isinstance(payload, wire.Block):
        return wire.encode_block(payload)
    return payload.encode()


def test_every_kind_is_sent_and_charged_its_encoding(monkeypatch):
    sent = _sent_packets(monkeypatch)
    assert {kind for kind, _, _ in sent} == set(PACKET_SIZE)
    checked = {}  # a payload sent to several receivers is checked once
    for kind, payload, size in sent:
        checked.setdefault((kind, id(payload), size), (kind, payload, size))
    wrong = [f"{kind} charged {size}: {problem}" for kind, payload, size in checked.values()
             if (problem := _mismatch(kind, payload, size)) is not None]
    assert wrong == [], f"{len(wrong)} of {len(sent)} packets:\n" + "\n".join(wrong[:20])
