"""Spans around baltri's public functions, recorded from outside the package.

A wrapper replaces every module attribute (and every module-level dict
entry) that binds a traced function, because `from .x import f` copies the
binding into each importing module.  Each call records one span: name,
start, end, parent span and job.  Spans stay in memory until the run writes
them out; the aggregate per name is kept as calls and self time, where self
time is the span minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

# span name -> (module, attribute) of the function it wraps
TRACED = {
    "surface.validate": ("baltri.surface", "validate"),
    "flips.apply_flip": ("baltri.flips", "apply_flip"),
    "flips.enumerate_sites": ("baltri.flips", "enumerate_sites"),
    "canon.canonical_code": ("baltri.canon", "canonical_code"),
    "canon.canonical_form": ("baltri.canon", "canonical_form"),
    "explorer.bfs": ("baltri.explorer", "bfs"),
    "explorer.connect": ("baltri.explorer", "connect"),
    "explorer.random_walk": ("baltri.explorer", "random_walk"),
    "rewrites.expand_via_budget": ("baltri.rewrites", "expand_via_budget"),
    "rewrites.verify_expansion": ("baltri.rewrites", "verify_expansion"),
    "bipartite.normalize_sequence": ("baltri.bipartite", "normalize_sequence"),
    "bipartite.apply_bip": ("baltri.bipartite", "apply_bip"),
    "bipartite.find_isomorphism": ("baltri.bipartite", "find_isomorphism"),
    "fileio.parse": ("baltri.fileio", ("parse_tri", "parse_bip", "parse_bip_script")),
    "fileio.format": ("baltri.fileio", ("format_tri", "format_bip", "format_bip_script")),
}
SEARCHES = {"explorer.bfs": "bfs", "explorer.connect": "connect"}  # span -> count prefix


class Tracer:
    """Collects spans for jobs run between install() and uninstall()."""

    def __init__(self):
        self.spans = []  # (id, parent id, job, name, start ns, end ns)
        self.calls = {}
        self.self_ns = {}
        self.counts = {
            "sites_out": 0,
            "children": 0,
            "bfs.children": 0,
            "bfs.states": 0,
            "bfs.edges": 0,
            "connect.children": 0,
            "connect.codes": 0,
            "normalize.ops_in": 0,
            "normalize.apply_bip": 0,
        }
        self._stack = []  # [span id, start ns, child ns] per open span
        self._job = None
        self._search = None  # name of the innermost open search span
        self._codes = None  # distinct codes seen under the open connect
        self._in_normalize = 0
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append([sid, time.perf_counter_ns(), 0])
        return sid

    def _close(self, name):
        end = time.perf_counter_ns()
        sid, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += dur
        self.spans[sid] = (sid, parent, self._job, name, start, end)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child

    def job(self, job_id, run):
        """Run one CLI job under a 'cli' span."""
        self._job = job_id
        self._open()
        try:
            return run()
        finally:
            self._close("cli")
            self._job = None

    def _wrap(self, name, fn):
        tracer = self
        count = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer._search, tracer._codes
            if name in SEARCHES:
                tracer._search = name
                if name == "explorer.connect":
                    tracer._codes = set()
            elif name == "flips.apply_flip" and tracer._search:
                count["children"] += 1
                count[SEARCHES[tracer._search] + ".children"] += 1
            elif name == "bipartite.normalize_sequence":
                count["normalize.ops_in"] += len(args[1])
                tracer._in_normalize += 1
            elif name == "bipartite.apply_bip" and tracer._in_normalize:
                count["normalize.apply_bip"] += 1
            tracer._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(name)
                if name == "explorer.connect":
                    count["connect.codes"] += len(tracer._codes)
                if name in SEARCHES:
                    tracer._search, tracer._codes = outer
                elif name == "bipartite.normalize_sequence":
                    tracer._in_normalize -= 1
            if name == "flips.enumerate_sites":
                count["sites_out"] += len(out)
            elif name == "canon.canonical_code" and tracer._codes is not None:
                tracer._codes.add(out.data)
            elif name == "explorer.bfs":
                count["bfs.states"] += out.state_count
                count["bfs.edges"] += out.edge_count
            return out

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}
        for name, (module, attrs) in TRACED.items():
            for attr in (attrs,) if isinstance(attrs, str) else attrs:
                fn = getattr(sys.modules[module], attr)
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "baltri" and not mod_name.startswith("baltri."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((vars(module), attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            self._patches.append((value, key, item))
                            value[key] = wrappers[id(item)][1]

    def uninstall(self):
        for where, key, original in reversed(self._patches):
            where[key] = original
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tjob\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")

    def self_s(self, name):
        return self.self_ns.get(name, 0) / 1e9
