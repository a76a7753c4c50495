"""
Per-layer tracing of one c4free command, installed from outside the package.

`install(tracer)` replaces the public functions of each layer module of
c4free (and the few private functions and methods the layer counts need)
with wrappers, in every c4free namespace that holds them. Each wrapper opens
a span on a stack; when the span closes, its duration goes to the function's
inclusive time, its duration minus the time of the spans it opened goes to
its layer's self time, and an observer may count something in the result.
A generator is traced per resumption, so the time a consumer spends between
items is not charged to the generator.

Only the aggregate is kept, in memory; `Tracer.layer_metrics()` turns it
into the named per-layer metrics once, at the end of the run. In a process
pool the workers inherit the wrappers but their spans are never collected,
so a traced run at two workers reports only what the parent process sees.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, Optional

# module name -> layer name; _kernels is reported under spectral as the kernel
LAYERS = {
    "canon": "canon",
    "enumeration": "enumeration",
    "graph": "graph",
    "spectral": "spectral",
    "_kernels": "kernel",
    "verify": "verify",
    "graph6": "graph6",
    "search": "search",
    "cli": "cli",
}

# private functions and methods traced besides the public functions
EXTRAS = {
    "enumeration": ["_extend_by_edges", "_extend_fixed_order"],
    "graph": ["Graph.__post_init__", "Graph.has_k2kp1", "Graph.has_c4"],
    "search": ["_climb_once"],
    "cli": ["_finish", "_RecordWriter.__call__"],
}

VERIFY_FOLDS = ("verify_theorem1", "verify_small_m", "verify_in3", "verify_conjecture", "verify_k2k1")

# spans the per-layer metrics read, besides those with an observer: a run
# that fails to wrap one of them would report 0 for it, so install() fails
TIMED = (
    "canon.canonical_form",
    "graph.Graph.__post_init__",
    "graph.Graph.has_k2kp1",
    "graph.adding_edge_creates_c4",
    "graph.Graph.has_c4",
    "kernel.power_iteration",
    "graph6.encode",
    "graph6.decode",
    "cli._finish",
    "cli._RecordWriter.__call__",
)

Observer = Callable[[object, tuple, dict], None]


class Tracer:
    def __init__(self) -> None:
        self.stack: list = []  # open spans: [layer, seconds of child spans]
        self.active: Counter = Counter()  # layer -> open spans
        self.calls: Counter = Counter()  # span name -> calls (resumptions for generators)
        self.incl_s: Dict[str, float] = defaultdict(float)  # span name -> seconds
        self.self_s: Dict[str, float] = defaultdict(float)  # layer -> seconds
        self.entered_s: Dict[str, float] = defaultdict(float)  # layer -> seconds entered from another layer
        self.counts: Counter = Counter()
        self.default_tol = 0.0

    def _open(self, layer: str) -> float:
        self.stack.append([layer, 0.0])
        self.active[layer] += 1
        return perf_counter()

    def _close(self, name: str, layer: str, t0: float) -> None:
        dt = perf_counter() - t0
        _, child_s = self.stack.pop()
        self.active[layer] -= 1
        self.calls[name] += 1
        self.incl_s[name] += dt
        self.self_s[layer] += dt - child_s
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dt
            if parent[0] != layer:
                self.entered_s[layer] += dt
        else:
            self.entered_s[layer] += dt

    def wrap(self, fn: Callable, name: str, layer: str, observe: Optional[Observer] = None) -> Callable:
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    t0 = self._open(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, layer, t0)
                    if observe:
                        observe(item, args, kwargs)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, layer, t0)
            if observe:
                observe(result, args, kwargs)
            return result

        return wrapper

    # --- observers: counts taken at the layer boundaries -------------------

    def _observers(self) -> Dict[str, Observer]:
        c = self.counts

        def stream_item(item, args, kwargs):
            if not self.active["enumeration"]:  # outermost stream only
                c["enumeration.classes"] += 1

        def children(result, args, kwargs):
            c["enumeration.children"] += len(result)

        def k2k1(result, args, kwargs):
            if result and self.active["enumeration"]:
                c["enumeration.pruned"] += 1

        def solve(result, args, kwargs):
            c["spectral.iters"] += result.iters
            tol = args[1] if len(args) > 1 else kwargs.get("tol", self.default_tol)
            if tol < self.default_tol:
                c["verify.rechecks"] += 1
            if self.active["search"]:
                c["search.solves"] += 1

        def fold(result, args, kwargs):
            c["verify.records"] += result.count
            c["verify.equalities"] += len(result.equalities)

        def proposed(result, args, kwargs):
            c["search.candidates"] += len(result)

        def climbed(result, args, kwargs):
            c["search.accepted"] += len(result.moves)

        obs = {
            "enumeration._extend_by_edges": children,
            "enumeration._extend_fixed_order": children,
            "graph.adding_edge_creates_k2kp1": k2k1,
            "spectral.spectral_radius": solve,
            "search.propose_moves": proposed,
            "search._climb_once": climbed,
        }
        for f in ("enumerate_c4free_by_edges", "enumerate_c4free_by_order", "enumerate_kfree_by_order"):
            obs[f"enumeration.{f}"] = stream_item
        for f in VERIFY_FOLDS:
            obs[f"verify.{f}"] = fold
        return obs

    # --- the named per-layer metrics -----------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        calls, incl, c = self.calls, self.incl_s, self.counts

        def both(*names):
            return sum(calls[n] for n in names), sum(incl[n] for n in names)

        classes = c["enumeration.classes"]
        solves = c["search.solves"]
        k2k1_calls, k2k1_s = both("graph.adding_edge_creates_k2kp1", "graph.Graph.has_k2kp1")
        c4_calls, c4_s = both("graph.adding_edge_creates_c4", "graph.Graph.has_c4")
        return {
            "canon.calls": calls["canon.canonical_form"],
            "canon.self_s": self.self_s["canon"],
            "canon.calls_per_class": calls["canon.canonical_form"] / classes if classes else 0.0,
            "enumeration.classes": classes,
            "enumeration.children": c["enumeration.children"],
            "enumeration.pruned": c["enumeration.pruned"],
            "enumeration.self_s": self.self_s["enumeration"],
            "enumeration.stream_s": self.entered_s["enumeration"],
            "graph.validate_calls": calls["graph.Graph.__post_init__"],
            "graph.validate_s": incl["graph.Graph.__post_init__"],
            "graph.k2k1_calls": k2k1_calls,
            "graph.k2k1_s": k2k1_s,
            "graph.c4_calls": c4_calls,
            "graph.c4_s": c4_s,
            "spectral.calls": calls["spectral.spectral_radius"],
            "spectral.self_s": self.self_s["spectral"],
            "spectral.kernel_calls": calls["kernel.power_iteration"],
            "spectral.kernel_s": incl["kernel.power_iteration"],
            "spectral.iters": c["spectral.iters"],
            "verify.records": c["verify.records"],
            "verify.equalities": c["verify.equalities"],
            "verify.rechecks": c["verify.rechecks"],
            "verify.self_s": self.self_s["verify"],
            "graph6.encode_calls": calls["graph6.encode"],
            "graph6.encode_s": incl["graph6.encode"],
            "graph6.decode_calls": calls["graph6.decode"],
            "search.propose_calls": calls["search.propose_moves"],
            "search.propose_s": incl["search.propose_moves"],
            "search.candidates": c["search.candidates"],
            "search.solves": solves,
            "search.accepted": c["search.accepted"],
            "search.useful_ratio": c["search.accepted"] / solves if solves else 0.0,
            "search.self_s": self.self_s["search"],
            "cli.sink_records": calls["cli._RecordWriter.__call__"],
            "cli.sink_s": incl["cli._RecordWriter.__call__"],
            "cli.finish_s": incl["cli._finish"],
        }


def _targets(module) -> Dict[str, object]:
    """Attribute path -> function: the public functions defined in the
    module (compiled ones such as numba dispatchers too), and its entries in
    EXTRAS."""
    short = module.__name__.rsplit(".", 1)[1]
    out = {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == module.__name__
    }
    for path in EXTRAS.get(short, []):
        owner, _, attr = path.rpartition(".")
        holder = getattr(module, owner) if owner else module
        out[path] = vars(holder)[attr]
    return out


def install(tracer: Tracer) -> None:
    """Wrap every traced function of c4free, in every c4free module that
    refers to it. Call before the command runs. Raises RuntimeError if a
    function that a per-layer metric reads was not found."""
    mods = {short: importlib.import_module(f"c4free.{short}") for short in LAYERS}
    namespaces = [m for name, m in sys.modules.items() if name == "c4free" or name.startswith("c4free.")]
    tracer.default_tol = mods["spectral"].DEFAULT_TOL
    observers = tracer._observers()
    wrapped_names = set()
    for short, module in mods.items():
        layer = LAYERS[short]
        for path, fn in _targets(module).items():
            name = f"{layer}.{path}"
            wrapped_names.add(name)
            wrapped = tracer.wrap(fn, name, layer, observers.get(name))
            owner, _, attr = path.rpartition(".")
            if owner:  # a method: replace it on its class
                setattr(getattr(module, owner), attr, wrapped)
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, key, wrapped)
    missing = (set(observers) | set(TIMED)) - wrapped_names
    if missing:
        raise RuntimeError(f"layer functions not found, their metrics would read 0: {sorted(missing)}")
