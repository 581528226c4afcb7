"""Span recorder for the traced run.

install() wraps every public function of the eleven newtonmu layers, at
every module binding that names it (`from .geometry import convex_hull`
gives fans, polyhedra and newton_number bindings of their own), plus the
public methods and `__post_init__` constructors of the layers' classes,
such as `Fan` and its pairwise compatibility check.  A wrapper records one
span (name, start, end, parent span, case id) in memory; spans are written
out when the run ends.  A layer's self time is the time its spans cover
minus the time covered by their child spans.  The program is single
threaded, so no layer waits on another and no waiting time is reported.

Run as a script, it executes one CLI command under the recorder:

    python3 perfbench/tracing.py <spans-out.json> -- <newtonmu cli args>
"""

import collections
import functools
import inspect
import json
import math
import sys
import time
from fractions import Fraction

LAYERS = ("geometry", "polyhedra", "newton_number", "apex", "fans",
          "families", "groebner", "milnor", "resolution", "degenerate", "cli")

# Vector helpers called millions of times per run; a span each would cost
# more than the work they do.  Their time counts to the calling layer.
LEAVES = {"frac", "vec", "vadd", "vsub", "scale", "dot", "is_zero_vector",
          "primitive_vector", "sign_canonical"}

COUNTS = ("geometry.convex_hull.calls",
          "geometry.polytope_from_constraints.calls",
          "geometry.polytope_from_constraints.subsets",
          "geometry.solve_linear.calls",
          "polyhedra.newton_polyhedron.calls",
          "polyhedra.newton_polyhedron.subsets",
          "newton_number.difference_region.calls",
          "newton_number.volume_vector.calls",
          "apex.find_apex.calls",
          "fans.box_points.calls", "fans.box_points.scanned",
          "fans.intersect_cones.calls", "fans.cones_out",
          "groebner.groebner_basis.calls", "groebner.budget_exceeded",
          "milnor.truncation_rounds", "milnor.nondeg_faces",
          "resolution.charts")
RATIOS = {"polyhedra.newton_polyhedron.facet_yield":
          ("polyhedra.newton_polyhedron.facets",
           "polyhedra.newton_polyhedron.subsets"),
          "fans.box_points.yield":
          ("fans.box_points.points", "fans.box_points.scanned")}


def _rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# Counters read from a call's arguments (before) and result (after).

def _pfc_before(counts, args):
    equalities, inequalities, dim = args
    need = dim - (_rank([n for n, _ in equalities]) if equalities else 0)
    counts["geometry.polytope_from_constraints.subsets"] += math.comb(
        len(inequalities), need)


def _np_before(counts, args):
    m, n = len(args[0].points), args[0].dim
    counts["polyhedra.newton_polyhedron.subsets"] += sum(
        math.comb(m, k) * math.comb(n, n - k) for k in range(1, n + 1))


def _np_after(counts, result):
    counts["polyhedra.newton_polyhedron.facets"] += len(result.facets)


def _box_before(counts, args):
    rays = args[0].rays
    if rays:
        counts["fans.box_points.scanned"] += math.prod(
            sum(r[j] for r in rays) + 1 for j in range(len(rays[0]))) - 1


def _box_after(counts, result):
    counts["fans.box_points.points"] += len(result)


HOOKS = {
    "geometry.polytope_from_constraints": (_pfc_before, None),
    "polyhedra.newton_polyhedron": (_np_before, _np_after),
    "fans.box_points": (_box_before, _box_after),
    "fans.regularize_fan": (None, lambda c, r: c.update(
        {"fans.cones_out": len(r.maximal)})),
    "milnor.nondegeneracy_check": (None, lambda c, r: c.update(
        {"milnor.nondeg_faces": len(r.faces)})),
    "resolution.simultaneous_resolution": (None, lambda c, r: c.update(
        {"resolution.charts": len(r.charts)})),
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, case id]
        self.stack = []
        self.case = None
        self.counts = collections.Counter()

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(counts, args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.case]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                stack.pop()
                if name == "groebner.groebner_basis" and \
                        type(exc).__name__ == "BudgetExceeded":
                    counts["groebner.budget_exceeded"] += 1
                raise
            record[2] = clock()
            stack.pop()
            if after is not None:
                after(counts, result)
            return result
        return span

    def install(self):
        """Wrap the layers in place; returns the number of wrapped callables."""
        import importlib
        modules = {layer: importlib.import_module(f"newtonmu.{layer}")
                   for layer in LAYERS}
        functions, methods = {}, 0
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_") \
                        and attr not in LEAVES:
                    functions[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for name, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (
                                name == "__post_init__"
                                or not name.startswith("_")):
                            setattr(obj, name, self.wrap(
                                f"{layer}.{obj.__name__}.{name}", meth))
                            methods += 1
        # every module binding of a wrapped function, imported ones too
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in functions:
                    setattr(mod, attr, functions[obj])
        return len(functions) + methods

    def totals(self):
        """Additive totals: self seconds per layer, calls per span name and
        the hook counters.  Totals of several processes add up."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.Counter(self.counts)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            out[name.split(".")[0] + ".self_s"] += end - start - child[i]
            out[name + ".calls"] += 1
            if name == "groebner.groebner_basis" and self._under(
                    parent, "milnor.milnor_number"):
                out["milnor.truncation_rounds"] += 1
        out["trace.spans"] += len(self.spans)
        return out

    def _under(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "spans": self.spans,
                       "totals": self.totals()}, fh, separators=(",", ":"))


def layer_metrics(totals):
    """The per-layer metrics of BENCHMARK.json from additive totals."""
    out = {f"{layer}.self_s": (totals.get(f"{layer}.self_s", 0.0), "s")
           for layer in LAYERS}
    for name in COUNTS:
        out[name] = (totals.get(name, 0), "count")
    for name, (num, den) in RATIOS.items():
        d = totals.get(den, 0)
        out[name] = (totals.get(num, 0) / d if d else 0.0, "ratio")
    return out


def _traced_cli(out_path, argv):
    tracer = Tracer()
    tracer.install()
    tracer.case = "cli"
    import newtonmu.cli
    try:
        code = newtonmu.cli.main(argv)
    finally:
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracing.py <spans-out.json> -- <cli args>")
    sys.exit(_traced_cli(sys.argv[1], sys.argv[3:]))
