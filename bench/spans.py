"""Spans around dissipgeo's public functions, installed from outside.

The program itself carries no tracing.  ``Tracer.install`` replaces each
traced function in every dissipgeo module namespace that binds it (the
modules import functions by name, so ``rk4_path`` alone is bound in
``integrators``, ``gkls``, ``purestate``, ``mechanics`` and ``checks``),
in ``checks.SUITES``, and on ``ContactLagrangianSystem``; ``uninstall``
puts the originals back.

Every call adds to its function's call count, total time and self time
(total minus the time of traced calls made inside it).  Calls of the
functions in ``HOT`` run thousands of times per op, so they are only
aggregated; every other call is also kept as a span
(id, name, start, end, parent span, op id) in memory until
``write_spans``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

from workloads import CHECK_SUITES

TARGETS = (
    ("algebra", "build_su_basis"),
    ("gkls", "build_model"),
    ("gkls", "decompose_field"),
    ("gkls", "integrate_coherence_field"),
    ("integrators", "rk4_path"),
    ("purestate", "z_field"),
    ("purestate", "integrate_sphere_flow"),
    ("mechanics", "contact_el_field"),
    ("mechanics", "integrate_contact"),
    ("mechanics", "analytic_energy_rate"),
    ("mechanics", "ContactLagrangianSystem.energy"),
    ("contact", "reeb_field"),
    ("contact", "contact_hamiltonian_field"),
    ("contact", "homomorphism_residual"),
    ("cli", "write_csv"),
    ("cli", "execute_scenario"),
)
RK4 = "integrators.rk4_path"
RHS = "integrators.rk4_path.rhs"
HOT = {RHS, "purestate.z_field", "mechanics.contact_el_field",
       "mechanics.analytic_energy_rate",
       "mechanics.ContactLagrangianSystem.energy",
       "contact.reeb_field", "contact.contact_hamiltonian_field"}


class Tracer:
    def __init__(self):
        self._patches = []    # (namespace, attribute, original)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, total
        self.counts = defaultdict(int)                  # steps, bytes
        self.spans = []
        self.op_id = None
        self._stack = []      # [child time, span id] per active call
        self._next_span = 0

    def wrap(self, name, fn, after=None):
        """fn timed under ``name``; after(args, result) runs untimed."""
        stack, stats = self._stack, self.stats
        clock = time.perf_counter
        keep_span = name not in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span = parent
            if keep_span:
                span = self._next_span
                self._next_span += 1
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                entry = stats[name]
                entry[0] += 1
                entry[1] += dur - frame[0]
                entry[2] += dur
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    self.spans.append((span, name, start, end, parent,
                                       self.op_id))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _traced_rk4(self, fn):
        def count_steps(args, result):
            self.counts["steps"] += len(result[0]) - 1

        inner = self.wrap(RK4, fn, after=count_steps)

        @functools.wraps(fn)
        def rk4_path(f, *args, **kwargs):
            return inner(self.wrap(RHS, f), *args, **kwargs)

        return rk4_path

    def _traced_write_csv(self, fn):
        def count_bytes(args, result):
            self.counts["csv_bytes"] += os.path.getsize(args[0])

        return self.wrap("cli.write_csv", fn, after=count_bytes)

    def install(self):
        from dissipgeo import checks, mechanics
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            if attr == "ContactLagrangianSystem.energy":
                cls = mechanics.ContactLagrangianSystem
                self._patches.append((cls, "energy", cls.energy))
                cls.energy = self.wrap(name, cls.energy)
                continue
            orig = getattr(sys.modules[f"dissipgeo.{mod_name}"], attr)
            if name == RK4:
                new = self._traced_rk4(orig)
            elif name == "cli.write_csv":
                new = self._traced_write_csv(orig)
            else:
                new = self.wrap(name, orig)
            self.rebind(orig, new)
        for suite, fn in list(checks.SUITES.items()):
            self._patches.append((checks.SUITES, suite, fn))
            checks.SUITES[suite] = self.wrap(f"checks.{suite}_suite", fn)

    def rebind(self, orig, new):
        """Replace every binding of ``orig`` in dissipgeo's modules."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.partition(".")[0] != "dissipgeo":
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def uninstall(self):
        for target, attr, orig in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._patches.clear()

    def layers(self, passes, time_scale=1.0):
        """Per-pass layer metrics: <name>.calls and <name>.self_s of every
        traced function, checks.<suite>_suite.s (total time), the
        rk4_path extras and cli.write_csv.bytes.  Times are multiplied by
        ``time_scale``."""
        def stat(name):
            return self.stats.get(name, (0, 0.0, 0.0))

        out = {}
        for mod_name, attr in TARGETS:
            calls, self_s, _ = stat(f"{mod_name}.{attr}")
            out[f"{mod_name}.{attr}.calls"] = calls / passes
            out[f"{mod_name}.{attr}.self_s"] = self_s * time_scale / passes
        for suite in CHECK_SUITES:
            out[f"checks.{suite}_suite.s"] = \
                stat(f"checks.{suite}_suite")[2] * time_scale / passes
        rhs_calls, _, rhs_s = stat(RHS)
        steps = self.counts["steps"]
        out[f"{RK4}.steps"] = steps / passes
        out[f"{RK4}.rhs_calls"] = rhs_calls / passes
        out[f"{RK4}.rhs_s"] = rhs_s * time_scale / passes
        out[f"{RK4}.rhs_per_step"] = rhs_calls / steps if steps else 0.0
        out["cli.write_csv.bytes"] = self.counts["csv_bytes"] / passes
        return out

    def write_spans(self, path):
        """One JSON object per kept span, in the order the calls ended."""
        with open(path, "w", newline="\n") as fh:
            for span, name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"id": span, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
