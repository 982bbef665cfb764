"""Per-layer span tracer for proactlab, installed by rebinding names.

Every public function and method defined in a traced proactlab module is
replaced by a wrapper that opens a span for that module's layer.  A layer's
self time is the time inside its spans minus the time inside the spans they
contain.  The wrappers' own bookkeeping is kept apart as tracer time, so the
layer self times plus the tracer time add up to the time spent inside spans.

A wrapper replaces the original wherever the original can be looked up:
module attributes (names bound by ``from ... import`` included), class
attributes, and the default values of every function in the package.  Event
handlers are wrapped as they are scheduled, so time in a handler that no
other layer's span covers counts for the agents.

The tracer only reads program state; a traced run must produce the same
``metrics.csv`` row as an untraced one.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import sys
import types
from collections import Counter
from time import perf_counter

LAYER_OF_MODULE = {
    "proactlab.sim.engine": "engine",
    "proactlab.sim.netmodel": "net",
    "proactlab.wire": "wire",
    "proactlab.crypto": "crypto",
    "proactlab.txbuild": "txbuild",
    "proactlab.ledger": "ledger",
    "proactlab.consensus": "consensus",
    "proactlab.sim.agents": "agents",
    "proactlab.sim.metrics": "metrics",
    "proactlab.sim.energy": "energy",
    "proactlab.sim.scenario": "setup",
    "proactlab.config": "setup",
}
LAYERS = ("engine", "net", "wire", "crypto", "txbuild", "ledger", "consensus",
          "agents", "metrics", "energy", "setup")

# World's transport methods belong to the network layer.  The two private
# ones are entered from scheduled closures (next hop, retry), not from send.
NET_METHODS = {"World.send", "World.broadcast_tgcs", "World._send_hop",
               "World._send_on_link"}
# The caller times scenario.run itself; it is the root, not a span.
ROOT = "proactlab.sim.scenario:run"

CONSENSUS_KINDS = frozenset({"nbr", "assign", "block", "ack", "block-error",
                             "void", "bo-handoff"})


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.spans = dict.fromkeys(LAYERS, 0)
        self.counts: Counter = Counter()
        self.tracer_s = 0.0
        self.sim_queue_wait_us = 0
        self.world = None
        self._stack = [0.0]          # time covered by child spans, per open span
        self._distinct = set()
        self._last_delivered = None
        self._wrapped = {}           # original function -> wrapper

    # --- spans ---

    def wrap(self, fn, layer, after=None, before=None):
        """A callable that runs ``fn`` inside a span of ``layer``.

        ``before(args, kwargs)`` runs before the span opens and its result is
        passed to ``after(ctx, args, kwargs, result, exc)``, which runs after
        the span closes; both count as tracer time.
        """
        stack, self_s, spans, clock = self._stack, self.self_s, self.spans, perf_counter
        tracer = self

        def traced(*args, **kwargs):
            t0 = clock()
            ctx = before(args, kwargs) if before is not None else None
            stack.append(0.0)
            result = exc = None
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                t2 = clock()
                self_s[layer] += t2 - t1 - stack.pop()
                spans[layer] += 1
                if after is not None:
                    after(ctx, args, kwargs, result, exc)
                t3 = clock()
                stack[-1] += t3 - t0
                tracer.tracer_s += (t3 - t0) - (t2 - t1)

        return traced

    # --- installation ---

    def install(self) -> None:
        """Wrap every traced module; call before the scenario is built."""
        import proactlab.config  # noqa: F401  (imports every traced module)

        hooks = self._hooks()
        for mod_name, layer in LAYER_OF_MODULE.items():
            module = sys.modules[mod_name]
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and value.__module__ == mod_name:
                    key = f"{mod_name}:{name}"
                    if key != ROOT:
                        setattr(module, name, self._wrap_original(value, layer, hooks.get(key)))
                elif isinstance(value, type) and value.__module__ == mod_name \
                        and not issubclass(value, (enum.Enum, BaseException)):
                    self._wrap_class(value, layer, hooks)
        self._wrap_scheduler()
        self._rebind()

    def _wrap_original(self, fn, layer, hook):
        before, after = hook if isinstance(hook, tuple) else (None, hook)
        wrapper = functools.update_wrapper(self.wrap(fn, layer, after=after, before=before), fn)
        self._wrapped[fn] = wrapper
        return wrapper

    def _wrap_class(self, cls, layer, hooks) -> None:
        for name, value in list(vars(cls).items()):
            qualname = f"{cls.__name__}.{name}"
            if name.startswith("_") and qualname not in NET_METHODS:
                continue
            method_layer = "net" if qualname in NET_METHODS else layer
            hook = hooks.get(f"{cls.__module__}:{qualname}")
            if isinstance(value, types.FunctionType):
                setattr(cls, name, self._wrap_original(value, method_layer, hook))
            elif isinstance(value, (classmethod, staticmethod)):
                inner = self._wrap_original(value.__func__, method_layer, hook)
                setattr(cls, name, type(value)(inner))

    def _wrap_scheduler(self) -> None:
        """Wrap each handler as it is scheduled: firing it is one event."""
        from proactlab.sim.engine import Simulator

        counts, clock = self.counts, perf_counter
        tracer = self

        def fired(ctx, args, kwargs, result, exc):
            counts["engine.events_fired"] += 1

        traced_schedule = Simulator.schedule_at

        def schedule_at(sim, time_us, handler):
            t0 = clock()
            handler = tracer.wrap(handler, "agents", after=fired)
            t1 = clock()
            tracer._stack[-1] += t1 - t0
            tracer.tracer_s += t1 - t0
            return traced_schedule(sim, time_us, handler)

        Simulator.schedule_at = schedule_at

    def _rebind(self) -> None:
        """Point every remaining reference to an original at its wrapper."""
        wrapped = self._wrapped
        modules = [m for name, m in list(sys.modules.items())
                   if name == "proactlab" or name.startswith("proactlab.")]
        functions = []
        for module in modules:
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType):
                    if value in wrapped:
                        setattr(module, name, wrapped[value])
                    functions.append(getattr(value, "__wrapped__", value))
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for member in vars(value).values():
                        if isinstance(member, (classmethod, staticmethod)):
                            member = member.__func__
                        if isinstance(member, types.FunctionType):
                            functions.append(getattr(member, "__wrapped__", member))
        for fn in functions:
            if fn.__defaults__:
                fn.__defaults__ = tuple(wrapped.get(v, v) if callable(v) else v
                                        for v in fn.__defaults__)
            if fn.__kwdefaults__:
                fn.__kwdefaults__ = {k: wrapped.get(v, v) if callable(v) else v
                                     for k, v in fn.__kwdefaults__.items()}

    # --- counters kept at layer boundaries ---

    def _hooks(self):
        counts = self.counts

        def count(name):
            def after(ctx, args, kwargs, result, exc):
                counts[name] += 1
            return after

        def on_schedule(ctx, args, kwargs, result, exc):
            counts["engine.events_scheduled"] += 1
            pending = counts["engine.events_scheduled"] - counts["engine.events_fired"]
            if pending > counts["engine.queue_peak"]:
                counts["engine.queue_peak"] = pending

        def on_send(ctx, args, kwargs, result, exc):
            kind = _arg(args, kwargs, 3, "kind")
            counts["net.sends"] += 1
            counts["net.bytes_sent"] += _arg(args, kwargs, 5, "size")
            if kind in CONSENSUS_KINDS:
                counts["consensus.msgs"] += 1
            elif kind == "block-copy":
                counts["agents.block_copies"] += 1
            elif kind == "tx" and "report" in (_arg(args, kwargs, 6, "meta") or {}):
                counts["agents.reports"] += 1

        def before_link(args, kwargs):
            link, sim = args[0], args[1]
            return max(0, link.free_at_us - sim.now_us)

        def on_link(wait_us, args, kwargs, result, exc):
            counts["net.link_sends"] += 1
            if result:
                self.sim_queue_wait_us += wait_us
            else:
                counts["net.queue_refusals"] += 1

        def on_packet(ctx, args, kwargs, result, exc):
            packet = args[1]
            if packet is not self._last_delivered:  # a subclass hands it up once
                self._last_delivered = packet
                counts["net.delivered"] += 1

        def on_encode(ctx, args, kwargs, result, exc):
            counts["wire.encode_calls"] += 1
            if result is not None:
                counts["wire.encode_bytes"] += len(result)

        def on_digest(ctx, args, kwargs, result, exc):
            message = bytes(_arg(args, kwargs, 2, "message"))
            counts["crypto.digest_calls"] += 1
            counts["crypto.digest_bytes"] += len(message)
            fingerprint = hashlib.blake2b(message, digest_size=16).digest()
            if fingerprint not in self._distinct:
                self._distinct.add(fingerprint)
                counts["crypto.distinct_bytes"] += len(message)

        def on_store(ctx, args, kwargs, result, exc):
            counts["ledger.store_calls"] += 1
            if exc is not None:
                counts["ledger.store_refused"] += 1
            elif result:
                counts["ledger.evictions"] += len(result)

        def on_access(ctx, args, kwargs, result, exc):
            counts["ledger.access_checks"] += 1
            if result is not None and result.verdict.name != "ALLOW":
                counts["ledger.access_denials"] += 1

        def on_build_world(ctx, args, kwargs, result, exc):
            self.world = result

        return {
            "proactlab.sim.engine:Simulator.schedule_at": on_schedule,
            "proactlab.sim.agents:World.send": on_send,
            "proactlab.sim.agents:DroneAgent.on_packet": on_packet,
            "proactlab.sim.agents:GcsAgent.on_packet": on_packet,
            "proactlab.sim.agents:TgcsAgent.on_packet": on_packet,
            "proactlab.sim.agents:CaAgent.on_packet": on_packet,
            "proactlab.sim.netmodel:Link.send": (before_link, on_link),
            "proactlab.wire:encoded_tx_size": count("wire.tx_size_calls"),
            "proactlab.wire:encoded_block_size": count("wire.block_size_calls"),
            "proactlab.wire:encode_transaction": on_encode,
            "proactlab.wire:encode_header": on_encode,
            "proactlab.wire:encode_block": on_encode,
            "proactlab.crypto:SimulatedBackend.digest": on_digest,
            "proactlab.crypto:SpongentBackend.digest": on_digest,
            "proactlab.crypto:sign": count("crypto.sign_calls"),
            "proactlab.crypto:verify": count("crypto.verify_calls"),
            "proactlab.crypto:seal": count("crypto.seal_calls"),
            "proactlab.txbuild:build_transaction": count("txbuild.build_calls"),
            "proactlab.txbuild:verify_transaction": count("txbuild.verify_calls"),
            "proactlab.txbuild:transaction_overhead": count("txbuild.overhead_calls"),
            "proactlab.ledger:DroneLedger.store_block": on_store,
            "proactlab.ledger:validate_block": count("ledger.validate_calls"),
            "proactlab.ledger:FullLedger.append_block": count("ledger.append_calls"),
            "proactlab.ledger:check_access": on_access,
            "proactlab.sim.metrics:MetricsCollector.bto_sample": count("metrics.bto_samples"),
            "proactlab.sim.scenario:build_world": on_build_world,
        }

    # --- report ---

    def report(self, counters) -> dict:
        """Raw per-layer figures after a run; ``counters`` are the run's
        MetricsRecord counters."""
        counts, world = self.counts, self.world
        committed_blocks = max(1, counters["blocks_committed"])
        drones = [world.agents[d] for d in world.topo.drone_uavn]
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({f"{layer}.spans": self.spans[layer] for layer in LAYERS})
        for name in ("engine.events_fired", "engine.events_scheduled", "engine.queue_peak",
                     "net.sends", "net.bytes_sent", "net.link_sends", "net.queue_refusals",
                     "wire.tx_size_calls", "wire.block_size_calls", "wire.encode_calls",
                     "wire.encode_bytes", "crypto.digest_calls", "crypto.digest_bytes",
                     "crypto.distinct_bytes", "crypto.sign_calls", "crypto.verify_calls",
                     "crypto.seal_calls", "txbuild.build_calls", "txbuild.verify_calls",
                     "txbuild.overhead_calls", "ledger.store_calls", "ledger.store_refused",
                     "ledger.evictions", "ledger.validate_calls", "ledger.append_calls",
                     "ledger.access_checks", "ledger.access_denials",
                     "agents.block_copies", "agents.reports", "metrics.bto_samples"):
            out[name] = counts[name]
        out["net.no_route"] = world.net.packets_dropped
        out["net.delivery_ratio"] = counts["net.delivered"] / max(1, counts["net.sends"])
        out["net.sim_queue_wait_s"] = self.sim_queue_wait_us / 1e6
        out["wire.tx_size_calls_per_tx"] = (counts["wire.tx_size_calls"]
                                            / max(1, counters["txs_generated"]))
        out["crypto.rehash_ratio"] = (counts["crypto.digest_bytes"]
                                      / max(1, counts["crypto.distinct_bytes"]))
        out["ledger.drone_bytes_held"] = sum(d.ledger.current_bytes for d in drones)
        out["consensus.blocks_committed"] = counters["blocks_committed"]
        out["consensus.blocks_voided"] = counters["blocks_voided"]
        out["consensus.txs_per_block"] = counters["txs_committed"] / committed_blocks
        out["consensus.msgs_per_block"] = counts["consensus.msgs"] / committed_blocks
        out["energy.calls"] = self.spans["energy"]
        out["trace.tracer_s"] = self.tracer_s
        out["trace.spanned_s"] = self._stack[0]  # time inside top-level spans
        return out
