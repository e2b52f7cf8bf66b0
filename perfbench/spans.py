"""Layer tracing from outside the package.

`Tracer.install` wraps the public entry points of each qbisim module and
rebinds every name under which a qbisim module holds the original, so calls
made through `from .lp import combination_weights` style imports are caught
too.  Spans nest on one stack: a span's self time is its duration minus the
time of the spans it encloses.  An entry into a module family that already
has an open span (a recursive `subst_values`, or a re-decision inside a
replay) belongs to that span, so it is counted once.

Spans are aggregated in memory per layer and read out once, with
`Tracer.self_times` and `Tracer.counts`, when the traced work ends.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter

import numpy as np

# (layer, module, attribute); an attribute may be "Class.method".
# A target that does not resolve is listed in `Tracer.missing`, and the
# traced run fails on it rather than report a layer that reads zero.
TARGETS = (
    ("calculus.parse", "qbisim.calculus", "parse_module"),
    ("calculus.parse", "qbisim.calculus", "parse_term"),
    ("calculus.subst", "qbisim.calculus", "subst_values"),
    ("calculus.subst", "qbisim.calculus", "subst_qubits"),
    ("semantics.step", "qbisim.semantics", "System.step"),
    ("quantum.op_apply", "qbisim.quantum", "SuperOperator.apply"),
    ("quantum.op_apply", "qbisim.quantum", "Measurement.apply"),
    ("linalg.eig", "qbisim.quantum", "jacobi_eigvalsh"),
    ("lp.solve", "qbisim.bisim", "combination_weights"),
    ("lp.solve", "qbisim.semantics", "combination_weights"),
    ("bisim.engine", "qbisim.bisim", "decide_bisim"),
    ("bisim.engine", "qbisim.bisim", "decide_state_based"),
    ("bisim.engine", "qbisim.bisim", "distance_upper_bound"),
    ("bisim.replay", "qbisim.bisim", "replay_refutation"),
    ("bisim.replay", "qbisim.bisim", "check_lambda_relation"),
    ("bb84.probability", "qbisim.bb84", "eventual_label_probabilities"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


def _resolve(module_name: str, attr: str):
    owner = sys.modules.get(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, name):
        return None, None, None
    return owner, name, getattr(owner, name)


class Tracer:
    """Self time and call counts per layer, plus a few per-layer counters."""

    def __init__(self):
        self.clock = time.perf_counter
        self.self_s = Counter()
        self.calls = Counter()
        self.count = Counter()
        self._stack = []        # frames of the open spans
        self._open = Counter()  # family -> open spans
        self._stepped = weakref.WeakKeyDictionary()
        self._matrices = set()
        self.missing = []

    # -- spans

    def _wrap(self, layer: str, fn, hook=None):
        family = layer.split(".")[0]
        stack, open_, clock = self._stack, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_[family]:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0]  # start, time of enclosed spans
            stack.append(frame)
            open_[family] += 1
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                open_[family] -= 1
                duration = end - frame[0]
                self.self_s[layer] += duration - frame[1]
                self.calls[layer] += 1
                if done and hook is not None:
                    hook(args, result)
                if stack:
                    # the hook's cost stays out of every layer's self time
                    stack[-1][1] += duration + (clock() - end)

        traced.__wrapped_layer__ = layer
        return traced

    def install(self):
        hooks = {
            "semantics.step": self._on_step,
            "lp.solve": self._on_lp,
            "bisim.engine": self._on_engine,
        }
        for layer, module_name, attr in TARGETS:
            owner, name, original = _resolve(module_name, attr)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if getattr(original, "__wrapped_layer__", None):
                continue  # the same object reached through another module
            traced = self._wrap(layer, original, hooks.get(layer))
            if isinstance(owner, type):
                setattr(owner, name, traced)
            else:
                self._rebind(original, traced)
        self._count_configurations()

    @staticmethod
    def _rebind(original, traced):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qbisim" or mod_name.startswith("qbisim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def _count_configurations(self):
        _, _, cls = _resolve("qbisim.semantics", "Configuration")
        if cls is None:
            self.missing.append("qbisim.semantics.Configuration")
            return
        init = cls.__init__
        count, matrices, stack, clock = self.count, self._matrices, self._stack, self.clock

        @functools.wraps(init)
        def counted(obj, term, register, matrix, *args, **kwargs):
            init(obj, term, register, matrix, *args, **kwargs)
            start = clock()
            count["semantics.configs"] += 1
            # the key the program interns matrices by: rounded, with -0.0
            # folded into 0.0
            matrices.add((np.round(np.asarray(matrix, dtype=complex), 10) + 0.0).tobytes())
            if stack:
                # like a hook, the counting stays out of every layer's self time
                stack[-1][1] += clock() - start

        cls.__init__ = counted

    # -- counters recorded at the layer boundaries

    def _on_step(self, args, result):
        system, config = args[0], args[1]
        seen = self._stepped.setdefault(system, set())
        if config.index not in seen:
            seen.add(config.index)
            self.count["semantics.step_distinct"] += 1

    def _on_lp(self, args, result):
        columns, target = args[0], args[1]
        rows = set(target)  # one equality row per key of the target or a column
        for col in columns:
            rows.update(col)
        self.count["lp.cols"] += len(columns)
        self.count["lp.rows"] += len(rows)
        self.count["lp.feasible"] += result is not None

    def _on_engine(self, args, result):
        if result.mode != "state-based":
            # decide_bisim or distance_upper_bound: either may end in
            # relation search, while decide_state_based never does
            self.count["bisim.distribution_calls"] += 1
        if result.mode == "relation-search":
            self.count["bisim.relation_search"] += 1
        if result.witness is not None:
            self.count["bisim.witness_pairs"] += len(result.witness.pairs)

    # -- read-out

    def counts(self) -> dict:
        """Every count the trace records, for exact repeatability checks."""
        out = {f"{layer}_calls": self.calls[layer] for layer in LAYERS}
        out.update(self.count)
        out["semantics.distinct_matrices"] = len(self._matrices)
        return dict(sorted(out.items()))

    def self_times(self) -> dict:
        return {layer: float(self.self_s[layer]) for layer in LAYERS}
