"""Span tracing from outside the program.

Each traced function is wrapped, and the wrapper is bound in place of the
original wherever a grobfan module (or class) holds it, so a call through any
imported name records one span.  Spans live in flat in-memory arrays (name,
start, end, parent, problem id, and a small per-span outcome flag) because
the hottest boundaries, such as term-order comparison, see hundreds of
thousands of calls per problem.  ``Tracer.restore`` puts every original
back.
"""

import gzip
import importlib
from array import array
from time import perf_counter

MODULES = ("rings", "orders", "division", "groebner", "polyhedra", "fans",
           "localfan", "cli")

C, S, T = "calls", "self_s", "total_s"

# (span name, attribute path in the span's module, reported fields, outcome
# flag or None).  The span name is "<module>.<attribute path>", except that
# the double-description kernel polyhedra._dd_generators is "polyhedra.dd".
TARGETS = (
    ("rings.Element.__mul__", "Element.__mul__", (C, S), None),
    ("orders.MatrixOrder.compare", "MatrixOrder.compare", (C, S), None),
    ("orders.leading_data", "leading_data", (C, S), None),
    ("division.divide", "divide", (C, S),
     lambda out: int(out[1].is_zero())),
    ("division.mora_divide", "mora_divide", (C, S), None),
    ("groebner.buchberger", "buchberger", (C, S, T), None),
    ("groebner.s_pair", "s_pair", (C,), None),
    ("groebner.interreduce", "interreduce", (T,), None),
    ("groebner.local_standard_basis", "local_standard_basis", (C, T), None),
    ("fans.enumerate_cones", "enumerate_cones", (C,), len),
    ("fans.groebner_cone", "groebner_cone", (C, S), None),
    ("fans.flip", "flip", (C, T), None),
    ("fans.facet_on_border", "facet_on_border", (T,), None),
    ("fans.assemble_closed_fan", "assemble_closed_fan", (T,), None),
    ("polyhedra.dd", "_dd_generators", (C, S), None),
    ("polyhedra.HCone.faces", "HCone.faces", (C, T), None),
    ("polyhedra.validate_fan", "validate_fan", (C, T), None),
    ("polyhedra.cone_from_rays", "cone_from_rays", (C,), None),
    ("polyhedra.normal_fan", "normal_fan", (T,), None),
    ("localfan.assemble_local_fan", "assemble_local_fan", (S,), None),
    ("localfan.merge_classes", "merge_classes", (T,), None),
    ("localfan.local_initials_equal", "local_initials_equal", (C, T), None),
    ("cli.parse_problem", "parse_problem", (T,), None),
    ("cli.run", "run", (S,), None),
    ("cli.emit", "emit", (T,), None),
    ("cli.check_fan_document", "check_fan_document", (T,), None),
)

NO_PARENT = -1


def _modules():
    """The traced modules by short name, plus the package, which re-exports
    many of the traced functions."""
    mods = {m: importlib.import_module("grobfan." + m) for m in MODULES}
    mods["grobfan"] = importlib.import_module("grobfan")
    return mods


def _resolve(mods, name, path):
    """(module, owner, attribute name, original) of a target."""
    module = mods[name.split(".")[0]]
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return module, owner, attr, owner.__dict__[attr]


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_ids = array("i")
        self.parents = array("i")
        self.problems = array("i")
        self.flags = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.problem = -1
        self._stack = [NO_PARENT]
        self._saved = []  # (owner, attribute, original)

    def __len__(self):
        return len(self.name_ids)

    def _wrap(self, fn, name_id, outcome):
        name_ids, parents, problems = self.name_ids, self.parents, \
            self.problems
        flags, starts, ends, stack = self.flags, self.starts, self.ends, \
            self._stack

        def traced(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            problems.append(self.problem)
            flags.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if outcome is not None:
                flags[i] = outcome(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Bind a wrapper in place of each target in every grobfan module
        and class namespace that holds the original."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        try:
            for name_id, (name, path, _, outcome) in enumerate(TARGETS):
                module, owner, attr, original = _resolve(mods, name, path)
                wrapper = self._wrap(original, name_id, outcome)
                self._rebind(owner, attr, original, wrapper)
                if owner is module:
                    for other in mods.values():
                        if (other is not owner
                                and other.__dict__.get(attr) is original):
                            self._rebind(other, attr, original, wrapper)
        except BaseException:
            self.restore()
            raise

    def _rebind(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every original back, newest binding first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path):
        """All spans as gzipped tab-separated text, one span a line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tproblem\tstart\tend\tflag\n")
            for i in range(len(self)):
                fh.write("%d\t%s\t%d\t%d\t%.9f\t%.9f\t%d\n" % (
                    i, self.names[self.name_ids[i]], self.parents[i],
                    self.problems[i], self.starts[i], self.ends[i],
                    self.flags[i]))


def originals_in_place():
    """True iff no grobfan module or class holds a traced wrapper."""
    mods = _modules()
    for name, path, _, _ in TARGETS:
        _, _, attr, original = _resolve(mods, name, path)
        if hasattr(original, "__wrapped__"):
            return False
        for other in mods.values():
            held = other.__dict__.get(attr)
            if held is not None and hasattr(held, "__wrapped__"):
                return False
    return True


def span_totals(names, name_ids, parents, starts, ends):
    """Per span name: (calls, self seconds, total seconds).

    Self time is a span's duration minus the durations of its child spans;
    spans of one thread nest, so children never overlap.  Total time sums
    the inclusive durations of the outermost spans of each name, so a
    recursive call is not counted twice.
    """
    n = len(name_ids)
    dur = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p != NO_PARENT:
            child[p] += dur[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    total_s = [0.0] * len(names)
    for i in range(n):
        k = name_ids[i]
        calls[k] += 1
        self_s[k] += dur[i] - child[i]
        p = parents[i]
        while p != NO_PARENT and name_ids[p] != k:
            p = parents[p]
        if p == NO_PARENT:
            total_s[k] += dur[i]
    return {names[k]: (calls[k], self_s[k], total_s[k])
            for k in range(len(names))}


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, keyed by metric name."""
    names = tracer.names
    ids = {nm: k for k, nm in enumerate(names)}
    tot = span_totals(names, tracer.name_ids, tracer.parents, tracer.starts,
                      tracer.ends)
    out = {}
    for name, _, fields, _ in TARGETS:
        for field in fields:
            out[name + "." + field] = tot[name][(C, S, T).index(field)]

    # Ratios measured at the boundary where the work happens.
    divide, buchberger = ids["division.divide"], ids["groebner.buchberger"]
    flip, gcone = ids["fans.flip"], ids["fans.groebner_cone"]
    enum = ids["fans.enumerate_cones"]
    from_bb = zero_bb = in_flip = new_cones = 0
    for i in range(len(tracer)):
        k = tracer.name_ids[i]
        p = tracer.parents[i]
        parent = tracer.name_ids[p] if p != NO_PARENT else None
        if k == divide and parent == buchberger:
            from_bb += 1
            zero_bb += tracer.flags[i]
        elif k == gcone and parent == flip:
            in_flip += 1
        elif k == enum:
            # every cone found past the starting cone came from a flip
            new_cones += max(tracer.flags[i] - 1, 0)
    flips = tot["fans.flip"][0]
    out["division.divide.zero_remainder_frac"] = (
        zero_bb / from_bb if from_bb else 0.0)
    out["fans.flip.new_cone_frac"] = new_cones / flips if flips else 0.0
    out["fans.flip.groebner_cones_per_flip"] = (
        in_flip / flips if flips else 0.0)
    return out


def inclusive_ranking(tracer, root="cli.run"):
    """Span names below ``root`` ordered by inclusive time, largest first,
    as (total seconds, name)."""
    names = tracer.names
    root_id = names.index(root)
    sub = []
    new_index = {}
    for i in range(len(tracer)):
        p = tracer.parents[i]
        if p != NO_PARENT and (tracer.name_ids[p] == root_id
                               or p in new_index):
            new_index[i] = len(sub)
            sub.append(i)
    tot = span_totals(names, [tracer.name_ids[i] for i in sub],
                      [new_index.get(tracer.parents[i], NO_PARENT)
                       for i in sub],
                      [tracer.starts[i] for i in sub],
                      [tracer.ends[i] for i in sub])
    return sorted(((v[2], k) for k, v in tot.items() if v[0]), reverse=True)
