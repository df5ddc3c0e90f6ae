"""Function-to-layer map and cProfile attribution for the traced run.

Layers are named after the repository's modules.  ``src/repro/pipeline``
``cpu.py`` and ``fastpath.py`` hold every kernel stage in one class, so
their functions are mapped one by one (by qualified name, resolved to
the line cProfile reports); every other file maps by module.

cProfile charges a good part of the time to the standard library and
builtins (``json``, ``hashlib``, ``max``...).  That self time is charged
to the nearest ``repro`` caller along cProfile's caller edges, in
proportion to the time each edge carried, so ``other`` only holds code
outside the program (this benchmark) and unmapped ``repro`` modules.
"""

import ast
import os
from collections import defaultdict

LAYERS = (
    "engine.runner", "engine.specs", "engine.session", "engine.cache",
    "engine.backends",
    "pipeline.fetch", "pipeline.dispatch", "pipeline.issue",
    "pipeline.lsq", "pipeline.commit", "pipeline.fast_forward",
    "pipeline.loop",
    "memory", "optimizations", "isa", "lint.static", "lint.harness",
    "stats", "trace", "telemetry", "attacks", "other",
)

#: Per-function layers for the two kernel files (qualified names; one
#: entry covers every lambda of the same enclosing function).
KERNEL_FUNCTIONS = {
    "cpu.py": {
        "CPUStats.__init__": "pipeline.loop",
        "CPUStats.as_dict": "pipeline.loop",
        "CPUStats.ipc": "pipeline.loop",
        "CPU.__init__": "pipeline.loop",
        "CPU.install_trace": "trace",
        "CPU.install_trace.<lambda>": "trace",
        "CPU.allocate_plugin_pool": "optimizations",
        "CPU.schedule": "pipeline.loop",
        "CPU._fire_events": "pipeline.loop",
        "CPU.request_squash": "pipeline.commit",
        "CPU.run": "pipeline.loop",
        "CPU.advance": "pipeline.loop",
        "CPU.step": "pipeline.loop",
        "CPU._record_cycle_metrics": "stats",
        "CPU._apply_squash": "pipeline.commit",
        "CPU._free_preg": "pipeline.commit",
        "CPU._commit": "pipeline.commit",
        "CPU._lsq_step": "pipeline.lsq",
        "CPU._sources_ready": "pipeline.issue",
        "CPU.refill_ports": "pipeline.issue",
        "CPU._issue": "pipeline.issue",
        "CPU._find_pack_partner": "pipeline.issue",
        "CPU._issue_arith": "pipeline.issue",
        "CPU._issue_arith.<lambda>": "pipeline.issue",
        "CPU._issue_alu": "pipeline.issue",
        "CPU._issue_alu.<lambda>": "pipeline.issue",
        "CPU._compute_result": "pipeline.issue",
        "CPU._issue_store_agen": "pipeline.lsq",
        "CPU._issue_store_agen.<lambda>": "pipeline.lsq",
        "CPU._store_addr_resolved": "pipeline.lsq",
        "CPU._try_issue_load": "pipeline.lsq",
        "CPU._try_issue_load.<lambda>": "pipeline.lsq",
        "CPU._load_response": "pipeline.lsq",
        "CPU._writeback": "pipeline.issue",
        "CPU._resolve_branch": "pipeline.issue",
        "CPU._dispatch_stall": "pipeline.dispatch",
        "CPU._dispatch": "pipeline.dispatch",
        "CPU._fetch": "pipeline.fetch",
        "CPU._plugins_end_of_cycle": "optimizations",
        "CPU.arch_reg": "pipeline.loop",
        "run_on_cpu": "pipeline.loop",
    },
    "fastpath.py": {
        "InstTemplate.__init__": "pipeline.dispatch",
        "FastPathStats.__init__": "pipeline.loop",
        "FastPathStats.as_dict": "pipeline.loop",
        "FastPathStats.__repr__": "pipeline.loop",
        "_PoolRecycler.on_commit": "pipeline.dispatch",
        "_PoolRecycler.on_store_performed": "pipeline.dispatch",
        "FastPathCPU.__init__": "pipeline.loop",
        "FastPathCPU._template_for": "pipeline.dispatch",
        "FastPathCPU._recycle": "pipeline.dispatch",
        "FastPathCPU._dispatch": "pipeline.dispatch",
        "FastPathCPU._dispatch_stall": "pipeline.dispatch",
        "FastPathCPU._watch_sources": "pipeline.dispatch",
        "FastPathCPU._wake": "pipeline.issue",
        "FastPathCPU._writeback": "pipeline.issue",
        "FastPathCPU._apply_squash": "pipeline.commit",
        "FastPathCPU._issue": "pipeline.issue",
        "FastPathCPU._plugins_end_of_cycle": "optimizations",
        "FastPathCPU._record_cycle_metrics": "stats",
        "FastPathCPU.step": "pipeline.loop",
        "FastPathCPU.run": "pipeline.loop",
        "FastPathCPU.advance": "pipeline.loop",
        "FastPathCPU._fast_forward": "pipeline.fast_forward",
    },
}

#: Module-level layers, longest prefix first wins (paths relative to
#: the ``repro`` package).
MODULE_LAYERS = {
    "engine/runner.py": "engine.runner",
    "engine/__init__.py": "engine.runner",
    "engine/specs.py": "engine.specs",
    "engine/session.py": "engine.session",
    "engine/cache.py": "engine.cache",
    "engine/backends.py": "engine.backends",
    "pipeline/branch_predictor.py": "pipeline.fetch",
    "pipeline/dyninst.py": "pipeline.dispatch",
    "pipeline/plugins.py": "optimizations",
    "pipeline/trace.py": "trace",
    "pipeline/": "pipeline.loop",
    "memory/": "memory",
    "optimizations/": "optimizations",
    "isa/": "isa",
    "lint/taint.py": "lint.static",
    "lint/cfg.py": "lint.static",
    "lint/checker.py": "lint.static",
    "lint/contracts.py": "lint.static",
    "lint/report.py": "lint.static",
    "lint/": "lint.harness",
    "stats/": "stats",
    "trace/": "trace",
    "telemetry/": "telemetry",
    "attacks/": "attacks",
    "sandbox/": "attacks",
    "crypto/": "attacks",
}


def kernel_definitions(path):
    """``{first_line: qualified_name}`` for every function and lambda
    in one source file (the first line is what cProfile reports: the
    first decorator's line for a decorated function)."""
    with open(path) as handle:
        tree = ast.parse(handle.read())
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in
                                             child.decorator_list])
                found[line] = prefix + child.name
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.Lambda):
                found[child.lineno] = prefix + "<lambda>"
                walk(child, prefix)
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


class LayerMap:
    """Maps cProfile function keys to layer names (None: not ours)."""

    def __init__(self, package_dir, bench_dir):
        self.package = os.path.realpath(package_dir) + os.sep
        self.bench = os.path.realpath(bench_dir) + os.sep
        self.kernel = {
            os.path.join(self.package, "pipeline", name):
                (kernel_definitions(os.path.join(package_dir, "pipeline",
                                                 name)), table)
            for name, table in KERNEL_FUNCTIONS.items()}
        self._memo = {}

    def layer(self, func):
        filename, line, _ = func
        if filename not in self._memo:
            self._memo[filename] = self._file_layer(filename)
        layer = self._memo[filename]
        if layer != "kernel":
            return layer
        lines, table = self.kernel[os.path.realpath(filename)]
        return table.get(lines.get(line), "pipeline.loop")

    def _file_layer(self, filename):
        if filename == "~" or filename.startswith("<"):
            return None         # builtins and generated code
        path = os.path.realpath(filename)
        if path in self.kernel:
            return "kernel"
        if path.startswith(self.bench):
            return "other"
        if not path.startswith(self.package):
            return None
        rel = path[len(self.package):].replace(os.sep, "/")
        for prefix in sorted(MODULE_LAYERS, key=len, reverse=True):
            if rel.startswith(prefix):
                return MODULE_LAYERS[prefix]
        return "other"


def self_seconds(stats, layers):
    """``{layer: seconds}`` of profiled self time, builtins and the
    standard library charged to their nearest mapped caller."""
    upward = {}

    def spread(weights, seen):
        """Mix the callers' splits by ``weights``; callers that lead only
        back into a cycle say nothing and are left out."""
        out = defaultdict(float)
        placed = 0.0
        for caller, weight in weights.items():
            split = shares(caller, seen)
            if split and weight:
                placed += weight
                for name, part in split.items():
                    out[name] += part * weight
        return {name: part / placed for name, part in out.items()} \
            if placed else {}

    def shares(func, seen):
        """How ``func``'s time splits over layers, via its callers
        (empty when every caller is already on the path: a cycle)."""
        layer = layers.layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in upward:
            return upward[func]
        callers = stats[func][4] if func in stats else {}
        outside = {caller: edge for caller, edge in callers.items()
                   if caller != func and caller not in seen}
        weights = {caller: edge[3] for caller, edge in outside.items()}
        if not sum(weights.values()):
            weights = {caller: edge[1] for caller, edge in outside.items()}
        split = spread(weights, seen | {func})
        if not callers:
            split = {"other": 1.0}      # entered from outside any code
        if len(outside) == len(callers) - (func in callers):
            upward[func] = split        # did not depend on ``seen``
        return split

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, tottime, _, callers) in stats.items():
        if not tottime:
            continue
        layer = layers.layer(func)
        if layer is not None:
            totals[layer] += tottime
            continue
        # The function's own self time splits over its callers by the
        # self time each call edge carried.
        split = spread({caller: edge[2] for caller, edge in callers.items()
                        if caller != func}, frozenset({func})) \
            or shares(func, frozenset()) or {"other": 1.0}
        for name, part in split.items():
            totals[name] += tottime * part
    return totals


def _calls(stats, suffix, names):
    return sum(row[1] for (filename, _, name), row in stats.items()
               if name in names
               and filename.replace(os.sep, "/").endswith(suffix))


def call_counts(stats, layers):
    """The traced run's call counts, by public name."""
    hooks = sum(row[1] for func, row in stats.items()
                if layers.layer(func) == "optimizations")
    return {
        "engine.specs.fingerprint_calls":
            _calls(stats, "repro/engine/specs.py", {"fingerprint"}),
        "isa.program_encode_calls":
            _calls(stats, "repro/isa/assembler.py", {"encode"}),
        "engine.session.builds":
            _calls(stats, "repro/engine/session.py",
                   {"from_spec", "from_parts"}),
        "lint.static.programs":
            _calls(stats, "repro/lint/taint.py", {"analyze_taint"}),
        "optimizations.hook_calls": hooks,
    }


#: The calls ``run_batch`` makes inside each of its telemetry phases
#: (callee file suffix, callee name).  Loop bookkeeping inside
#: ``run_batch`` itself is in no call, so small phases read low.
PHASE_CALLS = {
    "build": (("repro/engine/specs.py", "fingerprint"),),
    "probe": (("repro/engine/runner.py", "_probe"),),
    "submit": (("repro/engine/backends.py", "submit"),),
    "merge": (("repro/engine/cache.py", "put"),
              ("repro/trace/batch.py", "record_executed_trial"),
              ("repro/telemetry/registry.py", "observe")),
}


def traced_phases(stats):
    """Profiled cumulative seconds of each ``run_batch`` phase's calls
    (callers: ``run_batch`` or a comprehension inside it)."""
    out = dict.fromkeys(PHASE_CALLS, 0.0)
    out["total"] = 0.0
    for (filename, _, name), row in stats.items():
        filename = filename.replace(os.sep, "/")
        if name == "run_batch" and filename.endswith(
                "repro/engine/runner.py"):
            out["total"] += row[3]
        for phase, calls in PHASE_CALLS.items():
            if not any(filename.endswith(suffix) and name == callee
                       for suffix, callee in calls):
                continue
            for (cfile, _, cname), edge in row[4].items():
                if cname in ("run_batch", "<listcomp>") and cfile.replace(
                        os.sep, "/").endswith("repro/engine/runner.py"):
                    out[phase] += edge[3]
    return out


def crosscheck(phase_s, stats, overhead_ratio):
    """Rows comparing ``repro_phase_seconds`` with the traced estimate.

    ``phase_s`` is the untraced run's telemetry; the traced estimate is
    scaled back by the overall tracing overhead.  A row disagrees when
    one side is more than twice the other and above a millisecond.  The
    ``total`` row sets the four phases against ``run_batch``'s whole
    profiled time.
    """
    phase_s = dict(phase_s, total=sum(phase_s.values()))
    rows = []
    for phase, traced in traced_phases(stats).items():
        measured = phase_s[phase]
        estimate = traced / overhead_ratio if overhead_ratio else 0.0
        if not measured and not estimate:
            continue
        low, high = sorted((measured, estimate))
        rows.append({"phase": phase, "telemetry_s": measured,
                     "traced_s": estimate,
                     "disagrees": low * 2 < high and high >= 1e-3})
    return rows
