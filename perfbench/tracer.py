"""Per-layer tracing of optsl2 from outside the package.

Tracer.install() replaces every public function of the traced modules,
and the arithmetic methods of Mat, with a wrapper that counts calls and
measures inclusive and self time.  It rebinds each name wherever the
package holds it (the defining module, every `from .x import f` copy,
the package namespace), so intra-module calls and calls from other
layers are both seen.  uninstall() puts the original objects back.

Leaf kernels (hundreds of thousands of calls) are only aggregated; the
other functions also keep one span per call in memory, written out by
write_spans() when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "optsl2"
MODULES = ("matrices", "jordan", "sl2", "springer", "orbits", "cochar",
           "tilting", "suites", "cli")

SUITES = ("centralizer", "conjugacy", "epsilon", "gcr", "order-formula",
          "spaltenstein", "springer", "tilting", "untwist", "weight-bound")

# several functions share one stat where the layer is a group of calls
GROUPS = {
    "matrices.Mat.__mul__": "matrices.mul",
    "matrices.Mat.__add__": "matrices.addscale",
    "matrices.Mat.__sub__": "matrices.addscale",
    "matrices.Mat.scale": "matrices.addscale",
    "matrices.rank": "matrices.elim",
    "matrices.rank_nullspace": "matrices.elim",
    "matrices.rref": "matrices.elim",
    "matrices.inverse": "matrices.elim",
    "matrices.solve": "matrices.elim",
}

# argument keys for distinct_share: how many calls repeat earlier ones
KEYS = {
    "sl2.eval_hom": lambda phi, g: (phi.block_sizes, phi.conjugator, g),
    "sl2.sym_power_rep": lambda m, g: (m, g),
    "jordan.nilpotent_jordan": lambda X: X,
}

# aggregated only, no span per call
LEAF_MODULES = ("matrices",)
LEAVES = ("sl2.eval_hom", "sl2.sym_power_rep", "sl2.sl2_x1", "sl2.sl2_y1",
          "sl2.sl2_torus", "sl2.sl2_sample", "jordan.jordan_block",
          "springer.eps_exp")

SL2_CHECKS = ("build_optimal", "conjugate_optimal", "verify_optimal",
              "exp_centralizer_check", "hom_centralizer_check", "gcr_check")
SPRINGER = ("springer_apply", "springer_invert", "orbit_bijection_check",
            "eps_exp", "additive_eval")

# (stat, fields) reported by a traced run, in output order
LAYER_METRICS = (
    [("matrices.mul", ("calls", "self_s")),
     ("matrices.addscale", ("calls", "self_s")),
     ("matrices.elim", ("calls", "self_s")),
     ("matrices.enumerate_group", ("calls", "yielded", "self_s")),
     ("sl2.eval_hom", ("calls", "total_s", "distinct_share")),
     ("sl2.sym_power_rep", ("calls", "self_s", "distinct_share"))]
    + [("sl2." + f, ("total_s",)) for f in SL2_CHECKS]
    + [("jordan.nilpotent_jordan", ("calls", "self_s", "distinct_share"))]
    + [("springer." + f, ("calls", "total_s")) for f in SPRINGER]
    + [("orbits.order_formula_report", ("total_s",)),
       ("orbits.associated_cocharacter", ("total_s",)),
       ("cochar.radical_class", ("total_s",)),
       ("tilting.adjoint_descriptor", ("total_s",)),
       ("tilting.tilting_decompose", ("total_s",))]
    + [("suites." + s, ("total_s",)) for s in SUITES]
    + [("cli.main", ("self_s",))])

UNITS = {"calls": "count", "yielded": "count", "self_s": "s",
         "total_s": "s", "distinct_share": "share"}


class Stat:
    __slots__ = ("calls", "yielded", "self_s", "total_s", "depth", "keys")

    def __init__(self):
        self.calls = self.yielded = self.depth = 0
        self.self_s = self.total_s = 0.0
        self.keys = set()

    @property
    def distinct_share(self) -> float:
        return len(self.keys) / self.calls if self.calls else 0.0


class Tracer:
    """Wraps the package's layers while installed; one pass at a time."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        # frames: [child seconds, span id, request id]; the root is a sentinel
        self._stack = [[0.0, None, None]]
        self._saved: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def _timed(self, fn, name, stat, span, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        if span:
            sid = len(self.spans)
            self.spans.append(None)
            frame = [0.0, sid, sid if parent[2] is None else parent[2]]
        else:
            frame = [0.0, parent[1], parent[2]]
        stack.append(frame)
        stat.depth += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            dt = t1 - t0
            stack.pop()
            parent[0] += dt
            stat.depth -= 1
            stat.self_s += dt - frame[0]
            if stat.depth == 0:  # recursion counts once in total_s
                stat.total_s += dt
            if span:
                self.spans[frame[1]] = (frame[1], parent[1], frame[2], name,
                                        t0, t1)

    def wrap(self, fn, name: str, span: bool, namer=None):
        """Wrapper around fn recording into the stat `name`, or into
        namer(*args) when given; a generator function is timed over each
        resumption and counts the values it yields."""
        keyfn = KEYS.get(name)
        stat = self._stat(GROUPS.get(name, name))
        timed = self._timed

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    try:
                        value = timed(next, name, stat, span, (it,), {})
                    except StopIteration:
                        return
                    stat.yielded += 1
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label, s = name, stat
            if namer is not None:
                label = namer(*args, **kwargs)
                s = self._stat(label)
            s.calls += 1
            if keyfn is not None:
                s.keys.add(keyfn(*args, **kwargs))
            return timed(fn, label, s, span, args, kwargs)
        return wrapper

    def wrap_attr(self, owner, attr: str, name: str) -> None:
        """Wrap one more attribute (a request function of the benchmark)
        as a span; restored by uninstall()."""
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, name, span=True))

    # -- installation ---------------------------------------------------

    def _targets(self):
        """(stat name, owner, attribute, function) for every function
        the tracer wraps."""
        for mod in MODULES:
            module = importlib.import_module("%s.%s" % (PACKAGE, mod))
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    yield "%s.%s" % (mod, attr), module, attr, value
        Mat = importlib.import_module(PACKAGE + ".matrices").Mat
        for attr in ("__mul__", "__add__", "__sub__", "scale"):
            yield "matrices.Mat." + attr, Mat, attr, vars(Mat)[attr]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        replace = {}
        for name, owner, attr, fn in self._targets():
            span = (name.split(".")[0] not in LEAF_MODULES
                    and name not in LEAVES)
            namer = None
            if name == "suites.run_suite":
                namer = lambda suite, *a, **k: "suites." + suite  # noqa: E731
            wrapped = self.wrap(fn, name, span, namer)
            if isinstance(owner, type):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                replace[id(fn)] = (fn, wrapped)
        # rebind every module attribute holding an original function
        prefix = PACKAGE + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE
                                      or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, zero for layers the pass never hit."""
        out = {}
        for stat_name, fields in LAYER_METRICS:
            stat = self.stats.get(stat_name) or Stat()
            for field in fields:
                out["%s.%s" % (stat_name, field)] = {
                    "value": getattr(stat, field), "unit": UNITS[field]}
        return out

    def write_spans(self, path) -> None:
        """Spans as JSON lines: id, parent id, request id, name, start
        and end (seconds, perf_counter clock)."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def metric_names() -> list:
    return ["%s.%s" % (s, f) for s, fields in LAYER_METRICS for f in fields] \
        + ["trace.overhead_share"]
