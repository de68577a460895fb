"""Spans around leibnizalg's layer entry points, recorded from outside.

:func:`instrument` replaces each entry point by a wrapper that records one
span per call: name, parent span, start and end. Spans stay in memory, in
flat arrays, until :meth:`Recorder.dump` writes them out; :meth:`Recorder.summary`
derives self times from them. A span's self time is its duration minus the
durations of its direct children, so the self times of all spans add up to the
duration of the root spans (one ``verify.runner`` span per scenario call).

Counters sit at the same boundaries: the equations of each system
``generate_constraints`` returns, the assignments each elimination makes, and
the widest ring ``eliminate`` is given (that covers the systems ``verify``
builds itself as well).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

_NS = 1e-9


class Recorder:
    """In-memory span store for one pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = {
            "extensions.generate_constraints.equations": 0,
            "extensions.eliminate.steps": 0,
            "extensions.ring_vars.max": 0,
        }

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """``fn`` with one span named ``name`` recorded around every call;
        ``on_call`` sees the arguments and ``on_result`` the result."""
        nid = self._name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: total self time and number of calls; plus counters."""
        n = len(self.name)
        child = array("q", bytes(8 * n))
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            k = name[i]
            self_ns[k] += end[i] - start[i] - child[i]
            calls[k] += 1
        return {
            "layers": {nm: {"self_s": self_ns[k] * _NS, "calls": calls[k]}
                       for k, nm in enumerate(self.names)},
            "counts": dict(self.counts),
            "spans": n,
        }

    def dump(self, path: str) -> None:
        """One JSON header line, then the four span arrays as raw bytes."""
        header = {"names": self.names, "spans": len(self.name), "byteorder": sys.byteorder,
                  "arrays": [["name", "i"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

    # -- counters -----------------------------------------------------------

    def _constraints(self, system) -> None:
        self.counts["extensions.generate_constraints.equations"] += len(system.equations)

    def _eliminating(self, system) -> None:
        width = len(system.ring.names)
        if width > self.counts["extensions.ring_vars.max"]:
            self.counts["extensions.ring_vars.max"] = width

    def _eliminated(self, outcome) -> None:
        self.counts["extensions.eliminate.steps"] += len(outcome.assignments)


def layer_targets():
    """Span name -> the functions it covers, as leibnizalg defines them."""
    from leibnizalg import algebra, derivations, extensions, families, linalg, verify
    from leibnizalg.poly import Poly

    return {
        "poly.add": [Poly.__add__],
        "poly.mul": [Poly.__mul__],
        "poly.substitute": [Poly.substitute],
        "poly.variables": [Poly.variables],
        "poly.linear_coefficient": [Poly.linear_coefficient],
        "poly.content_normalized": [Poly.content_normalized],
        "extensions.build_extension_problem": [extensions.build_extension_problem],
        "extensions.generate_constraints": [extensions.generate_constraints],
        "extensions.eliminate": [extensions.eliminate],
        "extensions.apply_basis_change": [extensions.apply_basis_change],
        "extensions.resolved_assignments": [extensions.resolved_assignments],
        "linalg.rref": [linalg.rref],
        # linalg calls the kernel as an attribute of the kernel module
        "linalg.rref_int": [linalg._kernel.rref_int],
        "derivations.derivation_space": [derivations.derivation_space],
        "derivations.max_nil_independent": [derivations.max_nil_independent],
        "algebra.leibniz_check": [algebra.leibniz_check],
        "algebra.bracket": [algebra.bracket],
        "algebra.structure": [algebra.is_nilpotent, algebra.is_solvable, algebra.nilradical_equals],
        "families.make": [fn for attr, fn in vars(families).items()
                          if attr.startswith("make_") and callable(fn)],
        "verify.sample_graded_alphas": [verify.sample_graded_alphas],
    }


def instrument(recorder: Recorder) -> None:
    """Wrap every layer entry point wherever leibnizalg binds it.

    A function is rebound in every leibnizalg module namespace and on the
    ``Poly`` class under every name that refers to it: modules import entry
    points by name (``from .extensions import eliminate``), and ``Poly`` binds
    ``__radd__``/``__rmul__`` to the same functions as ``__add__``/``__mul__``.
    """
    from leibnizalg.poly import Poly

    hooks = {  # span name -> (on_call, on_result)
        "extensions.generate_constraints": (None, recorder._constraints),
        "extensions.eliminate": (recorder._eliminating, recorder._eliminated),
    }
    wrappers = {}
    for name, fns in layer_targets().items():
        for fn in fns:
            wrappers[id(fn)] = (fn, recorder.wrap(name, fn, *hooks.get(name, (None, None))))
    namespaces = [mod for key, mod in sys.modules.items()
                  if key == "leibnizalg" or key.startswith("leibnizalg.")]
    namespaces.append(Poly)
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, attr, hit[1])
