"""Timing wrappers for the traced run; installed from here only, never in the end-to-end run.

Every public function of the six modules is replaced, in its defining
module and under every other name it is bound to (the package
namespace, a module that imported it, ``scipy.optimize.linprog`` as used
by the region module), by one wrapper that records a span.  Spans are
kept in memory as ``[id, parent, name, start, end, error, outermost]``
and written out when the run ends.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import time

MODULES = ("channel_model", "potential_graph", "region", "capacity_gap", "netsim", "cli")
#: Functions from outside the package, named by the layer that calls them.
FOREIGN = {("scipy.optimize", "linprog"): "region.linprog"}


def _infeasible(counts, name, args, out):
    counts[name + ".infeasible"] += not out.feasible


def _inequalities(counts, name, args, out):
    counts[name + ".inequalities"] += len(out.cycles)


def _kept(counts, name, args, out):
    counts[name + ".seen"] += len(args[0].cycles)
    counts[name + ".kept"] += len(out.cycles)


def _lp_status(counts, name, args, out):
    counts[name + ".not_success"] += not out.success


HOOKS = {
    "potential_graph.decide_membership": _infeasible,
    "region.polyhedral_region": _inequalities,
    "region.minimized": _kept,
    "region.linprog": _lp_status,
}


class Tracer:
    """Collects spans and per-function counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts = collections.Counter()
        self.names: set = set()
        self._stack: list = []
        self._open = collections.Counter()
        self._restore: list = []

    def span(self, name: str):
        """Open a span by hand (the benchmark's own operations); returns a closer."""
        rec = self._push(name)
        return lambda error=False: self._pop(rec, error)

    def _push(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, 0,
               self._open[name] == 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        self._open[name] += 1
        rec[3] = time.perf_counter()
        return rec

    def _pop(self, rec, error):
        rec[4] = time.perf_counter()
        rec[5] = int(error)
        self._stack.pop()
        self._open[rec[2]] -= 1

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        self.names.add(name)

        def traced(*args, **kwargs):
            rec = self._push(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._pop(rec, True)
                self.counts[name + ".errors"] += 1
                raise
            self._pop(rec, False)
            if hook is not None:
                hook(self.counts, name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, extra=()):
        """Wrap every public function of the package's modules, wherever it is bound.

        ``extra`` adds ``(module, attribute, span name)`` entries, such as
        the benchmark's own call into the CLI layer.
        """
        modules = [importlib.import_module("tinopt")]
        modules += [importlib.import_module(f"tinopt.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules[1:]:
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self.wrap(f"{mod.__name__.split('.', 1)[1]}.{attr}", fn)
        for (home, attr), name in FOREIGN.items():
            home_mod = importlib.import_module(home)
            fn = getattr(home_mod, attr)
            wrappers[id(fn)] = self.wrap(name, fn)
            modules.append(home_mod)
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrappers and callable(fn):
                    self._replace(mod, attr, wrappers[id(fn)])
        for mod, attr, name in extra:
            self._replace(mod, attr, self.wrap(name, getattr(mod, attr)))

    def _replace(self, mod, attr, new):
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self):
        for mod, attr, old in reversed(self._restore):
            setattr(mod, attr, old)
        self._restore.clear()

    def summary(self, root: str) -> dict:
        """Per-function calls, busy and self time, plus the hook counts.

        ``busy_s`` sums a function's outermost spans (recursion counted
        once); ``self_s`` subtracts the time its direct children cover.
        ``covered_s`` is the time covered by spans directly under a
        ``root`` span, that is, by calls into the package.
        """
        child = collections.defaultdict(float)
        for sid, parent, name, t0, t1, err, outer in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in self.names}
        covered = 0.0
        for sid, parent, name, t0, t1, err, outer in self.spans:
            if name == root:
                continue
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += (t1 - t0) - child[sid]
            if outer:
                s["busy_s"] += t1 - t0
            if parent < 0 or self.spans[parent][2] == root:
                covered += t1 - t0
        return {"functions": stats, "counts": dict(self.counts), "covered_s": covered}

    def write(self, path):
        """Spans as CSV: id, parent, name, start and end in microseconds, error flag."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_us,end_us,error\n")
            base = self.spans[0][3] if self.spans else 0.0
            for sid, parent, name, t0, t1, err, _ in self.spans:
                fh.write(f"{sid},{parent},{name},{(t0 - base) * 1e6:.3f},{(t1 - base) * 1e6:.3f},{err}\n")
