"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps public functions of the program's layers and
keeps, per wrapped name, the number of calls and the inclusive time of
the outermost calls, and per layer the self time (a call's duration
minus the calls it made into other wrapped functions).  Pass spans keep
their direct children as intervals and take their self time through
:func:`bench_util.self_time`.

Class methods are wrapped once on the class.  A module function is
wrapped at every place it is bound: :meth:`LayerTracer.patch_everywhere`
replaces each attribute of a loaded ``repro`` module that *is* the
original function, which covers the modules that imported it by name.
:meth:`LayerTracer.restore` undoes every patch.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

from bench_util import self_time

#: the layer whose spans take their self time from child intervals
PASS_LAYER = "transform"


class LayerTracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # ---- wrapping ----------------------------------------------------------
    def wrap(self, layer: str, name: str, fn: Callable, group: Optional[str] = None) -> Callable:
        """``fn`` counted under ``name`` and timed under ``group``
        (default ``name``) in ``layer``."""
        group = group or name
        calls, inclusive, self_s = self.calls, self.inclusive_s, self.self_s
        stack, depth, clock = self._stack, self._depth, self.clock
        keep_children = layer == PASS_LAYER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            # frame: start, summed child time, child intervals (pass spans)
            frame = [clock(), 0.0, [] if keep_children else None]
            stack.append(frame)
            depth[group] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[group] -= 1
                start = frame[0]
                dur = end - start
                if keep_children:
                    self_s[layer] += self_time((start, end), frame[2])
                else:
                    self_s[layer] += dur - frame[1]
                if depth[group] == 0:
                    inclusive[group] += dur
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    if parent[2] is not None:
                        parent[2].append((start, end))

        return wrapper

    def patch(self, owner: object, attr: str, layer: str, name: str,
              group: Optional[str] = None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, name, original, group))

    def patch_everywhere(self, fn: Callable, layer: str, name: str,
                         group: Optional[str] = None) -> int:
        """Replace ``fn`` in every loaded ``repro`` module that binds it;
        returns the number of sites patched."""
        wrapper = self.wrap(layer, name, fn, group)
        sites = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    sites += 1
        return sites

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ---- the program's layers ---------------------------------------------
    def install_compile_layers(self) -> dict:
        """Wrap the symbolic, analysis, ir and pass layers; returns the
        number of binding sites per wrapped module function."""
        import importlib

        from repro.analysis import dependence, feasibility, graph, sections
        from repro.ir import fingerprint
        from repro.pipeline import passes
        from repro.symbolic.assume import Assumptions

        # the package re-exports the function under the submodule's name
        simplify_mod = importlib.import_module("repro.symbolic.simplify")

        self.patch(Assumptions, "compare", "symbolic", "symbolic.compare")
        self.patch(Assumptions, "lower_bound", "symbolic", "symbolic.bound")
        self.patch(Assumptions, "upper_bound", "symbolic", "symbolic.bound")
        sites = {
            "simplify": self.patch_everywhere(
                simplify_mod.simplify, "symbolic", "symbolic.simplify"),
            "ir_fingerprint": self.patch_everywhere(
                fingerprint.ir_fingerprint, "ir", "ir.fingerprint"),
        }
        for fn in (dependence.all_dependences, dependence.dependences_between):
            sites[fn.__name__] = self.patch_everywhere(
                fn, "analysis", "analysis.dependence")
        for fn in (feasibility.feasible, feasibility.direction_feasible):
            sites[fn.__name__] = self.patch_everywhere(fn, "analysis", "analysis.fm")
        for attr in sorted(vars(sections)):
            fn = getattr(sections, attr)
            if (callable(fn) and not attr.startswith("_") and not isinstance(fn, type)
                    and getattr(fn, "__module__", "") == sections.__name__):
                sites[attr] = self.patch_everywhere(
                    fn, "analysis", "analysis.sections")
        self.patch(graph.DependenceGraph, "__init__", "analysis",
                   "analysis.graph.build", group="analysis.graph")
        for attr in ("statement_graph", "recurrence_components",
                     "preventing_dependences", "relative_deps"):
            self.patch(graph.DependenceGraph, attr, "analysis",
                       "analysis.graph.query", group="analysis.graph")
        for pname, pdef in list(passes._REGISTRY.items()):
            name = f"pipeline.pass.{pname}"
            passes._REGISTRY[pname] = type(pdef)(
                pdef.info,
                self.wrap(PASS_LAYER, name, pdef.precheck),
                self.wrap(PASS_LAYER, name, pdef.run),
            )
            self._undo.append((passes._REGISTRY, pname, pdef))
        return sites

    def install_runtime_layers(self) -> None:
        """Wrap codegen and the traced simulation."""
        from repro.machine import tracer
        from repro.runtime import codegen

        self.patch_everywhere(codegen.compile_procedure, "runtime", "runtime.codegen")
        self.patch_everywhere(tracer.trace_procedure, "machine", "machine.trace")
