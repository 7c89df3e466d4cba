"""Per-layer spans recorded from outside the package.

``Tracer.install()`` wraps the public functions listed in SPANS and
patches every import site: each module of the package that holds the
original function object gets the wrapper instead, so
``quandles.analysis.iter_isomorphisms`` and ``quandles.core.iter_isomorphisms``
are timed alike.  ``uninstall()`` puts the originals back.  Nothing under
``src/`` changes.

A span is one call (or one resumption of a generator).  Spans nest on a
stack; for each function the tracer sums calls, inclusive time (busy_s,
not counted again while the same function is already open further up the
stack) and self time (busy minus the time covered by child spans).  The
totals are kept in memory and read out when the traced pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "core", "permgroup", "graphs", "constructions", "analysis")

# (module, attribute path) of every span.  Methods are given as Class.method.
SPANS = (
    ("cli", "main"),
    ("cli", "_read_json"),
    ("cli", "_dump"),
    ("core", "verify_axioms"),
    ("core", "quandle_from_dict"),
    ("core", "quandle_to_dict"),
    ("core", "iter_isomorphisms"),
    ("core", "find_isomorphism"),
    ("core", "enumerate_quandles"),
    ("core", "direct_product"),
    ("permgroup", "PermGroup.closure"),
    ("permgroup", "PermGroup.orbits"),
    ("permgroup", "PermGroup.is_abelian"),
    ("graphs", "graph_automorphisms"),
    ("graphs", "is_vertex_transitive"),
    ("graphs", "graph_from_dict"),
    ("graphs", "to_dot"),
    ("constructions", "dihedral"),
    ("constructions", "aknn"),
    ("constructions", "from_graph"),
    ("constructions", "is_cocycle"),
    ("constructions", "cocycle_extension"),
    ("constructions", "discrete_torus"),
    ("analysis", "inner_group"),
    ("analysis", "even_inner_group"),
    ("analysis", "displacement_group"),
    ("analysis", "automorphism_group"),
    ("analysis", "connected_components"),
    ("analysis", "property_report"),
    ("analysis", "to_graph"),
    ("analysis", "characterize"),
    ("analysis", "group_chain"),
    ("analysis", "flat_connected_census"),
)


def _q3_triples(args, kwargs, result):
    """Triples the Q3 loop of verify_axioms visits, computed from n and the verdict."""
    table = args[0] if args else kwargs["table"]
    n = table.size if hasattr(table, "size") else len(table)
    witness = result.first_violation
    if witness and witness[0] == "Q3":
        x, y, z = witness[1]
        return x * n * n + y * n + z + 1
    return 0 if witness else n**3


def _element_count(args, kwargs, result):
    return len(result.generators)


# Deterministic work counts taken from a span's arguments and result.
COUNTS = {
    "core.verify_axioms": ("q3_triples", _q3_triples),
    "core.enumerate_quandles": ("classes", lambda a, k, r: len(r)),
    "permgroup.PermGroup.closure": ("elements", lambda a, k, r: len(r)),
    "graphs.graph_automorphisms": ("elements", _element_count),
    "analysis.automorphism_group": ("elements", _element_count),
}
# Generators: count the items they yield.
YIELD_COUNTS = {"core.iter_isomorphisms": "yielded"}
# Spans that may refuse with ResourceLimitError: count the refusals.
REFUSALS = (
    "core.iter_isomorphisms",
    "permgroup.PermGroup.closure",
    "graphs.graph_automorphisms",
    "analysis.automorphism_group",
)


def span_name(module, attr):
    return f"{module}.{attr}"


class Tracer:
    def __init__(self, refusal_type):
        self.refusal_type = refusal_type
        self.stats = {span_name(m, a): {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for m, a in SPANS}
        for name, (count, _) in COUNTS.items():
            self.stats[name][count] = 0
        for name, count in YIELD_COUNTS.items():
            self.stats[name][count] = 0
        for name in REFUSALS:
            self.stats[name]["refused"] = 0
        self.top_level_s = 0.0
        self._stack = []  # [name, start, child time]
        self._open = {}  # name -> how many times it is open on the stack
        self._patched = []  # (holder, attribute, original)

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        elapsed = end - start
        self._open[name] -= 1
        st = self.stats[name]
        if not self._open[name]:
            st["busy_s"] += elapsed
        st["self_s"] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        else:
            self.top_level_s += elapsed

    def _wrap(self, name, fn):
        stats = self.stats[name]
        count = COUNTS.get(name)
        refusal = self.refusal_type if name in REFUSALS else ()

        if inspect.isgeneratorfunction(fn):
            yielded = YIELD_COUNTS[name]

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stats["calls"] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        self._enter(name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        except refusal:
                            stats["refused"] += 1
                            raise
                        finally:
                            self._exit()
                        stats[yielded] += 1
                        yield item
                finally:
                    gen.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except refusal:
                stats["refused"] += 1
                raise
            finally:
                self._exit()
            if count:
                stats[count[0]] += count[1](args, kwargs, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "quandles" or n.startswith("quandles.")]
        for module, attr in SPANS:
            holder = sys.modules.get(f"quandles.{module}")
            if holder is None:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                holder = getattr(holder, part, None)
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                continue  # a later version may drop the function; its stats stay zero
            wrapper = self._wrap(span_name(module, attr), original)
            if path:
                self._patch(holder, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, holder, key, wrapper):
        self._patched.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self):
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    # -- read-out -----------------------------------------------------------

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st["self_s"]
        return out

    def metrics(self):
        """Flat per-layer metrics: name -> (value, unit)."""
        units = {"busy_s": "s", "self_s": "s", "calls": "count"}
        out = {}
        for name, st in self.stats.items():
            for stat, value in st.items():
                out[f"{name}.{stat}"] = (value, units.get(stat, "count"))
        for layer, value in self.layer_self_s().items():
            out[f"{layer}.self_s"] = (value, "s")
        out["cli.json_s"] = (
            self.stats["cli._read_json"]["busy_s"] + self.stats["cli._dump"]["busy_s"],
            "s",
        )
        return out

    def counts(self):
        """Every deterministic count: calls and the work counts above."""
        return {
            f"{name}.{stat}": value
            for name, st in self.stats.items()
            for stat, value in st.items()
            if stat not in ("busy_s", "self_s")
        }
