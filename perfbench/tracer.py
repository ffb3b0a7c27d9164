"""Layer tracer for one `digitvec` CLI command, installed from outside.

Usage (with `src` on PYTHONPATH):

    python perfbench/tracer.py TRACE.json -- <digitvec cli arguments>

The tracer wraps the public functions and methods of every traced
`digitvec` module (one module or package is one layer), rebinds the
`from`-imported names in every other module to the wrappers, then runs
`digitvec.cli.main` in this process and writes one JSON record.

Only calls that cross from one layer into another open a span; a call
inside the same layer bumps counters and nothing else. Spans are
aggregated in memory as they close: per layer the self time (span
duration minus the part covered by its child spans) and the number of
calls that entered it. Worker threads of `pipeline._map` start with an
empty span stack; their outermost spans are children of the span the
main thread has open while it waits, so that span's self time excludes
the covered interval. Such a worker span counts as a call only when its
layer differs from the waiting span's, so call counts do not depend on
`--jobs`. Self times of concurrent threads add up, so with `--jobs > 1`
their sum exceeds the command's wall time by the overlap.
"""

import functools
import importlib
import inspect
import json
import sys
import threading
import time

# layer name -> module or package; `features` is not traced: no CLI path
# reaches it
LAYERS = {
    "cli": "digitvec.cli",
    "corpus": "digitvec.corpus",
    "pipeline": "digitvec.pipeline",
    "hmm": "digitvec.hmm",
    "_kernels": "digitvec._kernels",
    "stats": "digitvec.stats",
    "ivector": "digitvec.ivector",
    "compensation": "digitvec.compensation",
    "scoring": "digitvec.scoring",
    "metrics": "digitvec.metrics",
}


def _rows(a):
    return a.shape[0] if getattr(a, "ndim", 1) == 2 else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _cells(args, kwargs):
    emit = _arg(args, kwargs, 0, "emit")
    return emit.shape[0] * emit.shape[1]


# (counter, layer, function, increment computed from the call arguments)
COUNTERS = [
    ("hmm.gauss_evals", "hmm", "gaussian_loglik",
     lambda a, k: _rows(_arg(a, k, 0, "frames")) * _arg(a, k, 1, "means").shape[0]),
    ("ivector.precision_builds", "ivector", "extract_posterior", lambda a, k: 1),
    ("ivector.precision_builds", "ivector", "evidence", lambda a, k: 1),
    ("kernels.viterbi_cells", "_kernels", "viterbi_path", _cells),
]


def _layer_of(module_name):
    for layer, prefix in LAYERS.items():
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


class Tracer:
    """Span stacks per thread and in-memory aggregates, merged at the end."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # per-thread (layer -> [self_s, calls], counters)
        self._main_stack = None

    def _state(self):
        local = self._local
        try:
            return local.stack, local.layers, local.counters
        except AttributeError:
            local.stack, local.layers, local.counters = [], {}, {}
            if threading.current_thread() is threading.main_thread():
                self._main_stack = local.stack
            with self._lock:
                self._threads.append((local.layers, local.counters))
            return local.stack, local.layers, local.counters

    def wrap(self, layer, fn, counters_of_fn=()):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, layers, counters = self._state()
            for name, amount in counters_of_fn:
                counters[name] = counters.get(name, 0) + amount(args, kwargs)
            if stack:
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                parent = stack[-1]
            elif self._main_stack and threading.current_thread() is not threading.main_thread():
                parent = self._main_stack[-1]  # pool worker: the waiting span
            else:
                parent = None
            # a worker's call in the waiting span's layer does not cross a
            # layer: it gets a span, for the covered interval, but no call
            crossed = parent is None or parent[0] != layer
            # [layer, start, same-thread child time, other-thread child intervals]
            span = [layer, time.perf_counter(), 0.0, None]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - span[1]
                covered = span[2]
                if span[3]:
                    covered += _union_length(span[3], span[1], end)
                entry = layers.get(layer)
                if entry is None:
                    entry = layers[layer] = [0.0, 0]
                entry[0] += duration - covered
                entry[1] += crossed
                if stack:
                    parent[2] += duration
                elif parent is not None:
                    with self._lock:
                        if parent[3] is None:
                            parent[3] = []
                        parent[3].append((span[1], end))

        return traced

    def install(self):
        """Wrap the public callables of every layer; rebind imported names.

        Returns the imported `digitvec.cli` module.
        """
        cli = importlib.import_module("digitvec.cli")
        for prefix in LAYERS.values():
            importlib.import_module(prefix)
        counters_by_fn = {}
        for name, layer, fn, amount in COUNTERS:
            counters_by_fn.setdefault((layer, fn), []).append((name, amount))
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("digitvec")]
        replaced = {}  # id(original) -> (original, wrapper)
        for module in modules:
            layer = _layer_of(module.__name__)
            if layer is None:
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or id(obj) in replaced:
                    continue
                owner = _layer_of(getattr(obj, "__module__", None) or "")
                if owner != layer:
                    continue  # imported from another layer; rebound below
                if inspect.isfunction(obj) or inspect.isbuiltin(obj):
                    wrapper = self.wrap(layer, obj, counters_by_fn.get((layer, name), ()))
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            setattr(obj, attr, self.wrap(layer, member))
        # point every module attribute that names an original at its wrapper,
        # which covers `from .x import f` copies and package re-exports
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
        return cli

    def report(self):
        layers, counters = {}, {}
        with self._lock:
            for thread_layers, thread_counters in self._threads:
                for layer, (self_s, calls) in thread_layers.items():
                    entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
                    entry["self_s"] += self_s
                    entry["calls"] += calls
                for name, value in thread_counters.items():
                    counters[name] = counters.get(name, 0) + value
        return {"layers": layers, "counters": counters}


def _union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def run_traced(argv):
    """Run one CLI command under a fresh tracer; return (exit code, record)."""
    tracer = Tracer()
    cli = tracer.install()
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    record = tracer.report()
    record["wall_s"] = wall
    record["exit_code"] = code
    return code, record


def main(args):
    if len(args) < 2 or args[1] != "--":
        print("usage: tracer.py TRACE.json -- <digitvec cli arguments>", file=sys.stderr)
        return 2
    code, record = run_traced(args[2:])
    with open(args[0], "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
