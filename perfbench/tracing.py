"""Per-layer tracing by rebinding baokit's public functions from outside.

Wrapped functions record a span (name, start, end, parent); the Boolean
operators of Element and HFUniverse.rel_holds, called millions of times,
only bump counters.  A layer's self time is its span minus its child
spans.  Spans stay in memory and are written out when the run ends.

Nothing is recorded while `active` is false, so set-up and the checks do
not count; the runner switches it on around each timed job only.  Spans
are kept while `keep` is true; the runner keeps those of the first cold
and the first warm pass, which bounds the size of the span file.
"""

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (owner, attribute, span name).  An owner is a module or a class inside
# one, named relative to the baokit package.
SPANS = [
    ("spaces", "cyl", "spaces.cyl"),
    ("spaces", "subst", "spaces.subst"),
    ("spaces", "diag", "spaces.diag"),
    ("spaces.RelationAlgebra", "compose", "spaces.compose"),
    ("terms", "eval_term", "terms.eval_term"),
    ("algebras", "generate_subalgebra", "algebras.generate_subalgebra"),
    ("algebras", "atoms", "algebras.atoms"),
    ("algebras", "is_hereditary_closed", "algebras.is_hereditary_closed"),
    ("algebras", "decompose_by_zero_dimensional",
     "algebras.decompose_by_zero_dimensional"),
    ("freeness", "find_isomorphism", "freeness.find_isomorphism"),
    ("freeness", "free_boolean_algebra", "freeness.free_boolean_algebra"),
    ("example", "example_algebra", "example.example_algebra"),
    ("models", "satisfaction_set", "models.satisfaction_set"),
    ("models", "holds", "models.holds"),
    ("compiler", "compiler_agrees", "compiler.compiler_agrees"),
    ("compiler", "compile_to_term", "compiler.compile_to_term"),
    ("translate", "tr_equivalent_on", "translate.tr_equivalent_on"),
    ("identities", "identity_sweep", "identities.identity_sweep"),
    ("window", "window_satisfaction", "window.window_satisfaction"),
    ("hf", "ordinal_oracles", "hf.ordinal_oracles"),
]

ELEMENT_OPS = ("__and__", "__or__", "__xor__", "__sub__", "__invert__")

# Every per-layer metric, with its unit and better direction.  Each is a
# per-pass figure: the median over the run's warm passes, except the
# compile_to_term self time, which is taken on the cold passes because
# warm passes hit its cache.
CALLS = [
    "spaces.cyl", "spaces.subst", "spaces.diag", "spaces.compose",
    "terms.eval_term", "algebras.generate_subalgebra", "algebras.atoms",
    "algebras.is_hereditary_closed", "algebras.decompose_by_zero_dimensional",
    "freeness.find_isomorphism", "models.satisfaction_set",
    "compiler.compiler_agrees", "translate.tr_equivalent_on",
    "window.window_satisfaction", "models.holds",
]
SELF_MS = CALLS + [
    "freeness.free_boolean_algebra", "example.example_algebra",
    "identities.identity_sweep", "compiler.compile_to_term", "hf.ordinal_oracles",
]
COLD_ONLY = {"compiler.compile_to_term.self_ms"}
PER_LAYER = (
    [(f"{name}.calls", "count", "lower") for name in CALLS]
    + [(f"{name}.self_ms", "ms", "lower") for name in SELF_MS]
    + [
        ("spaces.cyl.bits", "bits", "lower"),
        ("spaces.subst.bits", "bits", "lower"),
        ("spaces.element_ops.calls", "count", "lower"),
        ("hf.rel_holds.calls", "count", "lower"),
        ("algebras.closure.elements", "count", "lower"),
        ("algebras.closure.yield", "elem/op", "higher"),
    ]
)


def _resolve(package, owner: str):
    obj = package
    for part in owner.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.active = False
        self.keep = True
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time in child spans]
        self._closure_depth = 0
        self._reset()

    def _reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the functions of one freshly imported baokit package."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == package.__name__
                                  or name.startswith(package.__name__ + "."))
        ]
        for owner_name, attr, span_name in SPANS:
            owner = _resolve(package, owner_name)
            original = getattr(owner, attr)
            wrapper = self._span(span_name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            # Callers import these names into their own namespaces, some
            # under an alias, so rebind every reference to the original.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        element = package.spaces.Element
        for attr in ELEMENT_OPS:
            setattr(element, attr, self._counter("spaces.element_ops.calls",
                                                 getattr(element, attr)))
        universe = package.hf.HFUniverse
        universe.rel_holds = self._counter("hf.rel_holds.calls", universe.rel_holds)

    def _span(self, name: str, fn):
        tracer = self
        nid = len(self.names)
        self.names.append(name)
        closure = name == "algebras.generate_subalgebra"
        sized = name in ("spaces.cyl", "spaces.subst")
        kernel = name in ("spaces.cyl", "spaces.subst", "spaces.diag")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = -1
            if tracer.keep:
                index = len(tracer.span_start)
                tracer.span_name.append(nid)
                tracer.span_parent.append(stack[-1][0] if stack else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            frame = [index, 0.0]
            if sized:
                tracer.counts[name + ".bits"] += args[-1].space.size
            if kernel and tracer._closure_depth:
                tracer.counts["closure.ops"] += 1
            if closure:
                tracer._closure_depth += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if closure:
                    tracer._closure_depth -= 1
                if index >= 0:
                    tracer.span_start[index] = start
                    tracer.span_end[index] = end
                took = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
            if closure:
                tracer.counts["algebras.closure.elements"] += len(result.carrier)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.active:
                tracer.counts[key] += 1
                if tracer._closure_depth:
                    tracer.counts["closure.ops"] += 1
            return fn(*args)

        return wrapper

    # -- read-out -------------------------------------------------------------

    def take(self) -> dict:
        """The per-layer figures of the pass just run; starts a new pass."""
        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = self.calls[name]
        for name in SELF_MS:
            out[f"{name}.self_ms"] = self.self_s[name] * 1000.0
        for key in ("spaces.cyl.bits", "spaces.subst.bits",
                    "spaces.element_ops.calls", "hf.rel_holds.calls",
                    "algebras.closure.elements"):
            out[key] = self.counts[key]
        ops = self.counts["closure.ops"]
        elements = self.counts["algebras.closure.elements"]
        out["algebras.closure.yield"] = elements / ops if ops else 0.0
        self._reset()
        return out

    def write_spans(self, path: str) -> int:
        """Write every span as `name start end parent` lines; returns the count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            names = self.names
            for nid, start, end, parent in zip(self.span_name, self.span_start,
                                               self.span_end, self.span_parent):
                fh.write(f"{names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
        return len(self.span_start)
