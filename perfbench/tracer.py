"""In-memory spans and counts around the library's layer boundaries.

``Tracer.install`` wraps the public functions of each ``biquadrates``
module and patches every place that looks the name up: module globals in
all ``biquadrates`` modules (``search`` binds ``decompose_fourth`` and
``is_fourth_power``, ``cli`` binds ``search`` and ``solution_from_nP``,
``derive`` binds ``mul_scalar``, ``poly.poly_gcd`` recurses through its own
global), dicts held in module globals (``identity.ALL_VERIFIERS``), and class
attributes including aliases such as ``IPoly.__rmul__``.  ``uninstall``
restores the originals, so untraced rounds run unwrapped code.

A span records (id, name, start, end, parent).  A name's time is the sum of
its outermost spans, so recursion is not counted twice; its self time is
duration minus the time its direct child spans cover.  Functions called
millions of times per round are counted, not timed.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter, defaultdict

SPAN_CAP = 200_000          # raw spans kept per round; aggregates stay exact
KRONECKER_OPERANDS = 1600   # operand length product above which IPoly uses Kronecker
ALLOC_LAYERS = ("search", "derive", "identity")

MB = float(1 << 20)


def _mul_hook(tr, args, result):
    if result is NotImplemented:
        return
    a, b = args
    b = b.coeffs if hasattr(b, "coeffs") else (b,)
    if len(a.coeffs) * len(b) > KRONECKER_OPERANDS:
        tr.extra["poly.mul_kronecker_calls"] += 1
    tr.extra["poly.mul_operand_bits"] += sum(abs(c).bit_length() for c in a.coeffs + b)
    tr.extra["poly.max_degree"] = max(tr.extra["poly.max_degree"], len(result.coeffs) - 1)


def _gcd_hook(tr, args, result):
    if tr.outer and len(result.coeffs) == 1:
        tr.extra["poly.gcd_trivial"] += 1


def _grid_hook(tr, args, result):
    nodes = 1
    for axis in args[0].nodes():
        nodes *= len(axis)
    tr.extra["identity.grid_nodes"] += nodes


def _search_hook(tr, args, result):
    tr.extra["search.solutions"] += len(result)


def _fourth_hook(tr, args, result):
    if result is not None:
        tr.extra["exact.fourth_power_hits"] += 1


# (module, attribute, span name, timed, hook).  "Class.attr" wraps a class
# attribute and every alias of it in the class.
SPECS = (
    ("cli", "main", "cli.main", True, None),
    ("search", "search", "search.search", True, _search_hook),
    ("search", "decompose_fourth", "search.decompose_fourth", True, None),
    ("exact", "is_fourth_power", "exact.is_fourth_power", False, _fourth_hook),
    ("exact", "canonicalize", "exact.canonicalize", True, None),
    ("exact", "check_solution", "exact.check_solution", False, None),
    ("poly", "IPoly.__mul__", "poly.mul", True, _mul_hook),
    ("poly", "IPoly.exact_div", "poly.exact_div", True, None),
    ("poly", "poly_gcd", "poly.gcd", True, _gcd_hook),
    ("poly", "format_poly", "poly.format_poly", True, None),
    ("poly", "RatFn.__init__", "poly.ratfn", True, None),
    ("poly", "RatFn.__add__", "poly.ratfn", True, None),
    ("poly", "RatFn.__sub__", "poly.ratfn", True, None),
    ("poly", "RatFn.__rsub__", "poly.ratfn", True, None),
    ("poly", "RatFn.__mul__", "poly.ratfn", True, None),
    ("poly", "RatFn.__truediv__", "poly.ratfn", True, None),
    ("poly", "RatFn.__rtruediv__", "poly.ratfn", True, None),
    ("poly", "RatFn.__pow__", "poly.ratfn", True, None),
    ("poly", "RatFn.reciprocal", "poly.ratfn", True, None),
    ("poly", "RatFn.evaluate", "poly.ratfn", True, None),
    ("curve", "mul_scalar", "curve.mul_scalar", True, None),
    ("curve", "on_curve", "curve.on_curve", True, None),
    ("derive", "solution_from_nP", "derive.solution_from_nP", True, None),
    ("derive", "numeric_solution_from_nP", "derive.numeric_solution_from_nP", True, None),
    ("derive", "weierstrass_to_quartic", "derive.weierstrass_to_quartic", True, None),
    ("derive", "quartic_point_to_param_solution",
     "derive.quartic_point_to_param_solution", True, None),
    ("derive", "evaluate_param", "derive.evaluate_param", True, None),
    ("families", "ParamSolution.residual", "families.residual", True, None),
    ("identity", "grid_verify", "identity.grid_verify", True, _grid_hook),
    ("pell", "pell3_nth", "pell.pell3_nth", True, None),
    ("pell", "pell_to_solution", "pell.pell_to_solution", False, None),
)

# Per-layer metric: (unit, better).  Times and counts are per round of the
# job list; ratios are within the round.
PER_LAYER = {
    "search.search_s": ("s", "lower"),
    "search.self_s": ("s", "lower"),
    "search.decompose_fourth_calls": ("count", "lower"),
    "search.decompose_fourth_s": ("s", "lower"),
    "search.solutions": ("count", "higher"),
    "search.hit_ratio": ("ratio", "higher"),
    "search.peak_alloc_mb": ("MB", "lower"),
    "exact.is_fourth_power_calls": ("count", "lower"),
    "exact.fourth_power_ratio": ("ratio", "higher"),
    "exact.canonicalize_calls": ("count", "lower"),
    "exact.canonicalize_s": ("s", "lower"),
    "exact.check_solution_calls": ("count", "lower"),
    "poly.mul_calls": ("count", "lower"),
    "poly.mul_kronecker_calls": ("count", "lower"),
    "poly.mul_s": ("s", "lower"),
    "poly.mul_operand_bits": ("bit", "lower"),
    "poly.gcd_calls": ("count", "lower"),
    "poly.gcd_s": ("s", "lower"),
    "poly.gcd_trivial_ratio": ("ratio", "lower"),
    "poly.exact_div_s": ("s", "lower"),
    "poly.ratfn_s": ("s", "lower"),
    "poly.max_degree": ("count", "lower"),
    "poly.format_poly_s": ("s", "lower"),
    "curve.mul_scalar_s": ("s", "lower"),
    "curve.on_curve_s": ("s", "lower"),
    "derive.solution_from_nP_s": ("s", "lower"),
    "derive.weierstrass_to_quartic_s": ("s", "lower"),
    "derive.quartic_point_to_param_solution_s": ("s", "lower"),
    "derive.numeric_solution_from_nP_calls": ("count", "lower"),
    "derive.evaluate_param_s": ("s", "lower"),
    "derive.peak_alloc_mb": ("MB", "lower"),
    "families.residual_calls": ("count", "lower"),
    "families.residual_s": ("s", "lower"),
    "identity.verify_s": ("s", "lower"),
    "identity.grid_verify_calls": ("count", "lower"),
    "identity.grid_nodes": ("count", "lower"),
    "identity.birational_roundtrip_s": ("s", "lower"),
    "identity.peak_alloc_mb": ("MB", "lower"),
    "pell.pell3_nth_s": ("s", "lower"),
    "pell.pell_to_solution_calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("byte", "lower"),
    "cli.fail_ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.alloc_overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self):
        self.stack = []           # open spans: [id, time covered by child spans]
        self.spans = []           # (id, name, start, end, parent id), first SPAN_CAP
        self.dropped = 0
        self.next_id = 1
        self.calls = Counter()
        self.outer_calls = Counter()
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.depth = Counter()
        self.extra = defaultdict(int)
        self.layer_depth = Counter()
        self.peak = defaultdict(int)
        self.outer = False        # whether the span a hook runs for was outermost
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, fn, name, hook):
        tr = self
        layer = name.split(".")[0]
        alloc = layer in ALLOC_LAYERS

        def wrapper(*args, **kwargs):
            outer = tr.depth[name] == 0
            tr.depth[name] += 1
            base = None
            if alloc and tr.layer_depth[layer] == 0 and tracemalloc.is_tracing():
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            tr.layer_depth[layer] += 1
            parent = tr.stack[-1][0] if tr.stack else 0
            frame = [tr.next_id, 0.0]
            tr.next_id += 1
            tr.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tr.stack.pop()
                tr.depth[name] -= 1
                tr.layer_depth[layer] -= 1
                dur = end - start
                if tr.stack:
                    tr.stack[-1][1] += dur
                tr.calls[name] += 1
                tr.self_time[name] += dur - frame[1]
                if outer:
                    tr.outer_calls[name] += 1
                    tr.time[name] += dur
                if base is not None:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    tr.peak[layer] = max(tr.peak[layer], peak)
                if len(tr.spans) < SPAN_CAP:
                    tr.spans.append((frame[0], name, start, end, parent))
                else:
                    tr.dropped += 1
            if hook is not None:
                tr.outer = outer
                hook(tr, args, result)
            return result
        return wrapper

    def _counted(self, fn, name, hook):
        tr = self

        def wrapper(*args, **kwargs):
            tr.calls[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(tr, args, result)
            return result
        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch_everywhere(self, orig, new, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((setattr, mod, attr, orig))
                    setattr(mod, attr, new)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._undo.append((dict.__setitem__, value, k, orig))
                            value[k] = new

    def install(self, layers=None):
        """Wrap the layer boundaries named in SPECS and the identity verifiers.

        ``layers`` limits the wrapping to spans of those layers.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("biquadrates.") and m is not None]
        by_name = {m.__name__.split(".", 1)[1]: m for m in modules}
        specs = list(SPECS)
        identity = by_name.get("identity")
        for vname, fn in getattr(identity, "ALL_VERIFIERS", {}).items():
            name = ("identity.birational_roundtrip" if vname == "birational_roundtrip"
                    else "identity.verify")
            specs.append(("identity", fn.__name__, name, True, None))
        for modname, attr, name, timed, hook in specs:
            mod = by_name.get(modname)
            if mod is None or (layers is not None and name.split(".")[0] not in layers):
                continue
            make = self._timed if timed else self._counted
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(meth)
                if orig is None:
                    continue
                new = make(orig, name, hook)
                for alias, value in list(vars(cls).items()):
                    if value is orig:
                        self._undo.append((setattr, cls, alias, orig))
                        setattr(cls, alias, new)
            else:
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                self._patch_everywhere(orig, make(orig, name, hook), modules)

    def uninstall(self):
        while self._undo:
            setter, target, key, orig = self._undo.pop()
            setter(target, key, orig)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics of the round (cli.*, trace.* are filled by the runner)."""
        c, t, x = self.calls, self.time, self.extra

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "search.search_s": t["search.search"],
            "search.self_s": self.self_time["search.search"],
            "search.decompose_fourth_calls": c["search.decompose_fourth"],
            "search.decompose_fourth_s": t["search.decompose_fourth"],
            "search.solutions": x["search.solutions"],
            "search.hit_ratio": ratio(x["search.solutions"], c["search.decompose_fourth"]),
            "exact.is_fourth_power_calls": c["exact.is_fourth_power"],
            "exact.fourth_power_ratio": ratio(x["exact.fourth_power_hits"],
                                              c["exact.is_fourth_power"]),
            "exact.canonicalize_calls": c["exact.canonicalize"],
            "exact.canonicalize_s": t["exact.canonicalize"],
            "exact.check_solution_calls": c["exact.check_solution"],
            "poly.mul_calls": c["poly.mul"],
            "poly.mul_kronecker_calls": x["poly.mul_kronecker_calls"],
            "poly.mul_s": t["poly.mul"],
            "poly.mul_operand_bits": x["poly.mul_operand_bits"],
            "poly.gcd_calls": self.outer_calls["poly.gcd"],
            "poly.gcd_s": t["poly.gcd"],
            "poly.gcd_trivial_ratio": ratio(x["poly.gcd_trivial"], self.outer_calls["poly.gcd"]),
            "poly.exact_div_s": t["poly.exact_div"],
            "poly.ratfn_s": t["poly.ratfn"],
            "poly.max_degree": x["poly.max_degree"],
            "poly.format_poly_s": t["poly.format_poly"],
            "curve.mul_scalar_s": t["curve.mul_scalar"],
            "curve.on_curve_s": t["curve.on_curve"],
            "derive.solution_from_nP_s": t["derive.solution_from_nP"],
            "derive.weierstrass_to_quartic_s": t["derive.weierstrass_to_quartic"],
            "derive.quartic_point_to_param_solution_s":
                t["derive.quartic_point_to_param_solution"],
            "derive.numeric_solution_from_nP_calls": c["derive.numeric_solution_from_nP"],
            "derive.evaluate_param_s": t["derive.evaluate_param"],
            "families.residual_calls": c["families.residual"],
            "families.residual_s": t["families.residual"],
            "identity.verify_s": t["identity.verify"] + t["identity.birational_roundtrip"],
            "identity.grid_verify_calls": c["identity.grid_verify"],
            "identity.grid_nodes": x["identity.grid_nodes"],
            "identity.birational_roundtrip_s": t["identity.birational_roundtrip"],
            "pell.pell3_nth_s": t["pell.pell3_nth"],
            "pell.pell_to_solution_calls": c["pell.pell_to_solution"],
            "cli.self_s": self.self_time["cli.main"],
        }

    def peak_metrics(self) -> dict:
        """Peak traced allocation within one outermost call of each layer."""
        return {layer + ".peak_alloc_mb": self.peak[layer] / MB for layer in ALLOC_LAYERS}

    def write_spans(self, path):
        """Tab-separated spans: id, parent, name, start, end (seconds)."""
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart\tend\n")
            for sid, name, start, end, parent in self.spans:
                f.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (sid, parent, name, start, end))
            if self.dropped:
                f.write("# %d further spans counted in the aggregates only\n" % self.dropped)
