"""Layer tracing for adlv from outside the package.

The tracer wraps public functions and methods of the adlv modules and never
edits them.  The modules import each other's functions with
``from .x import name``, so a wrapper is bound in every ``adlv.*`` namespace
that holds the original, and methods and properties are wrapped on their
class.  ``uninstall`` restores every original.

Each wrapped call is a span with a name, start, end and parent.  Kernel
functions (called up to millions of times) are aggregated as a count and
summed time; the other spans are also kept in memory and written out by the
caller after the run ends.  Self time is a span's duration minus the time its
traced children took.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute path, span name, kernel)
TARGETS = (
    ("roots", "FiniteWeylElt.__mul__", "roots.weyl_mul", True),
    ("roots", "weyl_group", "roots.weyl_group", False),
    ("roots", "dominant_rep", "roots.dominant_rep", True),
    ("lattices", "smith_normal_form", "lattices.smith_normal_form", True),
    ("elements", "ExtAffElt.__mul__", "elements.mul", True),
    ("elements", "ExtAffElt.length", "elements.length", True),
    ("elements", "elements_of_length", "elements.elements_of_length", False),
    ("elements", "tau_token", "elements.tau_token", True),
    ("conjugacy", "reduce_to_minimal", "conjugacy.reduce_to_minimal", False),
    ("conjugacy", "is_minimal_in_class", "conjugacy.is_minimal_in_class", False),
    ("conjugacy", "class_key", "conjugacy.class_key", False),
    ("conjugacy", "minimal_class_elements", "conjugacy.minimal_class_elements", False),
    ("conjugacy", "newton_point", "conjugacy.newton_point", True),
    ("conjugacy", "same_conjugacy_class", "conjugacy.same_conjugacy_class", True),
    ("conjugacy", "is_superstraight_class", "conjugacy.is_superstraight_class", False),
    ("hecke", "ClassPolyEngine.table", "hecke.table", True),
    ("hecke", "ClassPolyEngine._descent_options", "hecke.descent_options", False),
    ("dimension", "ghkr_check", "dimension.ghkr_check", False),
    ("dimension", "dim_adlv", "dimension.dim_adlv", False),
    ("dimension", "defect_basic", "dimension.defect_basic", False),
    ("dimension", "virtual_dimension", "dimension.virtual_dimension", False),
    ("cli", "main", "cli.main", False),
    ("cli", "TableCache.save", "cli.cache.save", False),
    ("cli", "TableCache.preload", "cli.cache.preload", False),
)


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "childless", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0  # outermost calls only, so recursion is not counted twice
        self.childless = 0  # calls that made no traced call
        # elements.length: evaluations with an empty cache; descent_options:
        # growth of the engine's public ``nodes``, which only that method
        # increments, so the sum is the total over all engines of the run
        self.extra = 0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for _, _, name, _ in TARGETS}
        self.spans = []  # (id, name, start, end, parent id) of non-kernel calls
        self._stack = [[0.0, False, None]]  # [child time, has child, span id]
        self._depth = {name: 0 for name in self.stats}
        self._next_id = 0
        self._restore = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, kernel, pre=None, post=None):
        stat = self.stats[name]
        stack = self._stack
        depth = self._depth
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = parent[2]  # a kernel's children hang on its nearest span
            if not kernel:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, False, span_id]
            stack.append(frame)
            depth[name] += 1
            token = pre(args) if pre is not None else None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if depth[name] == 0:
                    stat.incl_s += dur
                if not frame[1]:
                    stat.childless += 1
                if post is not None:
                    stat.extra += post(args, token)
                parent[0] += dur
                parent[1] = True
                if not kernel:
                    spans.append((span_id, name, start, end, parent[2]))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Bind a wrapper wherever an adlv namespace or class holds a target."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "adlv" or key.startswith("adlv."))
        ]
        for mod_name, path, name, kernel in TARGETS:
            owner = sys.modules["adlv." + mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            pre = post = None
            if name == "elements.length":
                pre = _length_uncached
                post = _count_token
            elif name == "hecke.descent_options":
                pre = _engine_nodes
                post = _nodes_added
            if isinstance(original, property):
                wrapped = property(self._wrap(original.fget, name, kernel, pre, post))
            else:
                wrapped = self._wrap(original, name, kernel, pre, post)
            if cls_path:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def class_key_misses(self):
        """class_key calls that have a minimal_class_elements child span."""
        keys = {sid for sid, name, _, _, _ in self.spans if name == "conjugacy.class_key"}
        return len({
            parent for _, name, _, _, parent in self.spans
            if name == "conjugacy.minimal_class_elements" and parent in keys
        })

    def summary(self):
        """Plain dict of every span name's counts and times."""
        return {
            name: {
                "calls": s.calls,
                "self_s": s.self_s,
                "incl_s": s.incl_s,
                "childless": s.childless,
                "extra": s.extra,
            }
            for name, s in self.stats.items()
        }


def _length_uncached(args):
    return args[0]._length is None


def _count_token(args, token):
    return 1 if token else 0


def _engine_nodes(args):
    return args[0].nodes


def _nodes_added(args, before):
    return args[0].nodes - before
