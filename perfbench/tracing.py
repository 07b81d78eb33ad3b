"""Layer tracing from outside the package.

A ``Tracer`` wraps every public module-level function of the six
``leggettsim`` modules, under every name each function is bound to (``expsim``
imports ``joint_probabilities`` by name, so that binding is wrapped too), and
records one span per call: (id, name, layer, start, end, parent, op).  Self
time of a span is its duration minus the durations of its direct children.

Counters are taken at the same boundaries: tensor builds, sampled and
corrected settings with their clip events, and oracle cells with the peak
``tracemalloc`` allocation of the outermost oracle call.

Run as a script, this module executes one traced ``leggettsim`` command in a
fresh process and writes its spans and counters to a JSON file:

    python perfbench/tracing.py OUT.json -- thresholds --inequality i26
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("qstate", "geometry", "inequalities", "oracle", "expsim", "cli")

# span tuple fields
SPAN_FIELDS = ("id", "name", "layer", "start", "end", "parent", "op")
ID, NAME, LAYER, START, END, PARENT, OP = range(len(SPAN_FIELDS))


def _count_experiment(counters, bound, result):
    n = len(result.settings)
    counters["expsim.settings"] += n
    if result.corrected is not None:
        counters["expsim.corrected_settings"] += n
        counters["expsim.clip_events"] += result.clip_events


def _count_cells(counters, bound, result):
    grid = bound.arguments["grid_size"]
    counters["oracle.cells"] += grid * grid * len(bound.arguments["config"].pairs)


# qualified function name -> counter hook(counters, bound_arguments, result)
COUNTER_HOOKS = {
    "expsim.run_experiment": _count_experiment,
    "oracle.verify_bound": _count_cells,
    "oracle.oracle_max": _count_cells,
}


class Tracer:
    """Installs timing wrappers into ``leggettsim`` and collects spans."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.peak_alloc_bytes = 0
        self._stack = []
        self._next_id = 0
        self._oracle_depth = 0
        self._restore = []
        self.op = None
        self.op_span = None

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # --- installation -------------------------------------------------
    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"leggettsim.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}", layer)
        namespaces = [importlib.import_module("leggettsim"), *modules.values()]
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((namespace, name, obj))
                    setattr(namespace, name, wrappers[obj])
        return self

    def uninstall(self):
        for namespace, name, original in reversed(self._restore):
            setattr(namespace, name, original)
        self._restore.clear()

    def _wrap(self, func, qualname: str, layer: str):
        hook = COUNTER_HOOKS.get(qualname)
        signature = inspect.signature(func) if hook else None
        watch_memory = layer == "oracle"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            outermost_oracle = watch_memory and self._oracle_depth == 0
            if outermost_oracle and not tracemalloc.is_tracing():
                tracemalloc.start()
            else:
                outermost_oracle = False
            self._oracle_depth += watch_memory
            span_id = self.new_id()
            parent = self._stack[-1] if self._stack else self.op_span
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._oracle_depth -= watch_memory
                self.spans.append((span_id, qualname, layer, start, end, parent, self.op))
                if outermost_oracle:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc_bytes = max(self.peak_alloc_bytes, peak)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, bound, result)
            return result

        return wrapper

    # --- operations ---------------------------------------------------
    def begin_op(self, op: int):
        self.op = op
        self.op_span = self.new_id()

    def end_op(self, name: str, start: float, end: float):
        self.spans.append((self.op_span, name, "bench", start, end, None, self.op))
        self.op = self.op_span = None

    def adopt(self, spans, counters, peak_alloc_bytes):
        """Merge a child process's spans under the current op span."""
        renumber = {span[ID]: self.new_id() for span in spans}
        for span_id, name, layer, start, end, parent, _ in spans:
            parent = renumber.get(parent, self.op_span)
            self.spans.append((renumber[span_id], name, layer, start, end, parent, self.op))
        self.counters.update(counters)
        self.peak_alloc_bytes = max(self.peak_alloc_bytes, peak_alloc_bytes)

    def dump(self) -> dict:
        return {
            "fields": list(SPAN_FIELDS),
            "spans": self.spans,
            "counters": dict(self.counters),
            "peak_alloc_bytes": self.peak_alloc_bytes,
        }


def self_times(spans) -> dict:
    """Seconds of self time per layer: duration minus direct children's."""
    covered = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    out = defaultdict(float)
    for span in spans:
        out[span[LAYER]] += span[END] - span[START] - covered[span[ID]]
    return dict(out)


def _child_main(argv) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py OUT.json -- <leggettsim arguments>")
    tracer = Tracer().install()
    from leggettsim import cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
