"""In-memory span tracing of calls into the faraday_qkd layers.

Spans are recorded from the benchmark's side only: ``install`` replaces the
module attributes that callers look up (``harness.round_uniforms``,
``batch.pns_rounds``, the ``qstate`` names imported into ``protocol`` and
``adversary``, ...) with wrappers that time each call, and ``uninstall``
puts the originals back.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time its direct child spans
cover.  Calls made inside worker processes are not recorded: a forked worker
inherits the wrappers, which then pass straight through.
"""
from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter


def _protocol_qubits(args, kw):
    attack = args[1] if len(args) > 1 else kw.get("attack")
    return 8 if attack and attack["kind"] == "general" else 4


# widest register each batch kernel holds, from its call arguments
_BATCH_QUBITS = {
    "protocol_rounds": _protocol_qubits,
    "one_home_rounds": lambda args, kw: 6,
    "pns_rounds": lambda args, kw: 8 if args[0] == "three-photon" else 10,
}


class Tracer:
    """Records (name, start, end, parent) spans and per-name counters."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list = []
        self.counters: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.specs: dict = defaultdict(set)
        self._stack: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------
    def span(self, original, name: str, count=None):
        """Return ``original`` wrapped in a span named ``name``; ``count(tracer,
        args, kwargs, result)`` adds work counters after each call."""
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                tracer.errors[name.split(".", 1)[0]] += 1
                raise
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, count=None):
        """Replace ``owner.attr`` by its traced version until ``uninstall``."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.span(original, name, count))
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- summary -----------------------------------------------------------
    def summary(self, wall_s: float) -> dict:
        """Per-name self time, total time and calls, and the share of ``wall_s``
        that no top-level span covers."""
        child = [0.0] * len(self.spans)
        covered = 0.0
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                covered += t1 - t0
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, t0, t1, _) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[i]
            total_s[name] += t1 - t0
            calls[name] += 1
        return {"self_s": dict(self_s), "total_s": dict(total_s), "calls": dict(calls),
                "unattributed_frac": max(0.0, 1.0 - covered / wall_s) if wall_s > 0 else 0.0}


def _count_draws(tr, args, kw, result):
    tr.counters["harness.round_uniforms.draws"] += result.size


def _count_csv_bytes(tr, args, kw, result):
    tr.counters["harness.write_csv.bytes"] += os.path.getsize(args[0])


def _count_batch(fn, chunk):
    qubits = _BATCH_QUBITS[fn]

    def count(tr, args, kw, result):
        u = args[1] if fn == "pns_rounds" else args[0]
        rounds = u.shape[0]
        tr.counters[f"batch.{fn}.rounds"] += rounds
        state = min(rounds, chunk) * (1 << qubits(args, kw)) * 16
        key = f"batch.{fn}.state_bytes"
        tr.counters[key] = max(tr.counters[key], state)
    return count


def _count_spec(tr, args, kw, result):
    spec = args[0] if args else kw["spec"]
    tr.specs["adversary.EveDiscriminator"].add(spec)


def _traced_hooks(tracer, owner, attr):
    """Wrap a hook factory so that every hook it returns has a traced
    transform, recorded as ``adversary.hooks``."""
    factory = getattr(owner, attr)

    @functools.wraps(factory)
    def make(*args, **kwargs):
        hooks = factory(*args, **kwargs)
        for hook in hooks:
            hook.transform = tracer.span(hook.transform, "adversary.hooks")
        return hooks

    setattr(owner, attr, make)
    tracer._restore.append((owner, attr, factory))


def install(tracer: Tracer, harness, batch, adversary, protocol, qstate, analysis):
    """Wrap every cross-module call site the benchmark's workloads reach."""
    w = tracer.wrap
    w(harness, "run_experiment", "harness.run_experiment")
    w(harness, "round_uniforms", "harness.round_uniforms", _count_draws)
    w(harness, "write_csv", "harness.write_csv", _count_csv_bytes)
    w(harness, "sample_test_rounds", "protocol.sample_test_rounds")
    w(harness, "EveDiscriminator", "adversary.EveDiscriminator", _count_spec)
    for fn in ("protocol_rounds", "one_home_rounds", "pns_rounds"):
        w(batch, fn, f"batch.{fn}", _count_batch(fn, batch.CHUNK))
    w(adversary, "EveDiscriminator", "adversary.EveDiscriminator", _count_spec)
    w(adversary, "eve_infer_keys", "adversary.eve_infer_keys")
    w(adversary, "pns_build", "adversary.pns_build")
    _traced_hooks(tracer, adversary, "general_attack_hooks")
    _traced_hooks(tracer, adversary, "intercept_resend_hooks")
    w(protocol, "run_round", "protocol.run_round")
    for fn in ("product_state", "apply_qfr", "measure_equator", "measure_z", "apply_pauli_x"):
        w(protocol, fn, f"qstate.{fn}")
    for fn in ("product_state", "apply_qfr", "measure_equator", "reduced_density",
               "append_qubit", "apply_1q_unitary", "apply_controlled_unitary"):
        w(adversary, fn, f"qstate.{fn}")
    w(qstate, "reduced_density", "qstate.reduced_density")
    w(analysis, "empirical_mutual_information", "analysis.empirical_mutual_information")
    for fn in ("find_security_threshold", "find_eve_optimum", "collective_bound"):
        w(analysis, fn, "analysis.solvers")
    w(analysis, "security_curve", "analysis.security_curve")
