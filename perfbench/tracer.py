"""Span tracer for the traced benchmark run.

The tracer wraps the public names of each carveq layer in every module
namespace that binds them (module attributes, the ``CAMPAIGNS`` registry and
the ``decide`` field of module-level relation handles), plus the two
validating constructors ``AtomSet.__post_init__`` and
``PPoint.__post_init__``.  No file of the package changes: ``install`` swaps
the bindings and ``uninstall`` puts every original back.

A span records one call at a layer boundary.  Spans nest on a stack; each
span's self time is its duration minus the durations of its direct child
spans, so the self times of all spans under one root add up to the root's
duration.  Every span entered with an empty stack opens a new root with a
fresh identifier, so the spans of one campaign or count call share it.

Spans are aggregated in memory by (root id, parent span name, span name) into
call count, total time and self time, which keeps memory bounded on the
1.5 M-constructor ``enumerate`` pass; ``dump`` writes them out at the end.
Counters (hot leaf functions, decision arms, enumeration budget) use the same
key and no clock.
"""

import dataclasses
import functools
import importlib
import json
import pkgutil
import types
from time import perf_counter

# (module, attribute or Class.method, span or counter name, kind)
#   span     timed span
#   count    call counter, no clock
#   budget   counter that adds the spent amount (enumeration budget)
#   special  span with a kind-specific hook, see Tracer._special
BOUNDARIES = (
    ("atoms", "AtomSet.__post_init__", "atoms.atomset_new", "span"),
    ("atoms", "atom_sort_key", "atoms.sort_key", "count"),
    ("codes", "range_set", "codes.range_set", "span"),
    ("codes", "saturation_bound", "codes.saturation_bound", "span"),
    ("codes", "value_at", "codes.value_at", "count"),
    ("codes", "pullback", "codes.pullback", "span"),
    ("codes", "binseq_eq", "codes.binseq_eq", "special"),
    ("pairing", "cantor_unpair", "pairing.cantor_unpair", "span"),
    ("pairing", "cantor_pair", "pairing.cantor_pair", "span"),
    ("relations", "PPoint.__post_init__", "relations.ppoint_validate", "span"),
    ("relations", "carve_pair", "relations.carve_pair", "span"),
    ("relations", "carve_family", "relations.carve_family", "span"),
    ("relations", "rel_E", "relations.rel_E", "span"),
    ("relations", "rel_F", "relations.rel_F", "span"),
    ("relations", "rel_G", "relations.rel_G", "span"),
    ("invariants", "e_invariant", "invariants.e_invariant", "span"),
    ("invariants", "fs2_invariant", "invariants.fs2_invariant", "span"),
    ("invariants", "g_invariant", "invariants.g_invariant", "span"),
    ("invariants", "count_classes", "invariants.count_classes", "special"),
    ("invariants", "_Budget.spend", "invariants.budget_spent", "budget"),
    ("reductions", "fiber_reduction", "reductions.fiber_reduction", "special"),
    ("reductions", "canonical_basepoint", "reductions.canonical_basepoint", "span"),
    ("reductions", "embed_fs2", "reductions.embed_fs2", "span"),
    ("reductions", "pair_interleave", "reductions.pair_interleave", "span"),
    ("reductions", "g_to_f", "reductions.g_to_f", "span"),
    ("reductions", "check_reduction", "reductions.check_reduction", "span"),
    ("reductions", "chain_report", "reductions.chain_report", "span"),
    ("campaigns", "_cyclic_point", "campaigns.cyclic_point", "span"),
    ("serialize", "to_text", "serialize.to_text", "span"),
    ("serialize", "parse_any", "serialize.parse_any", "special"),
)

LAYERS = (
    "atoms",
    "codes",
    "pairing",
    "relations",
    "invariants",
    "reductions",
    "generators",
    "campaigns",
    "serialize",
)


def carveq_modules():
    """The package and every submodule except the ``python -m`` entry point."""
    import carveq

    mods = [carveq]
    for info in pkgutil.iter_modules(carveq.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"carveq.{info.name}"))
    return mods


def _boundaries():
    """The fixed table plus every public generator and every campaign."""
    from carveq import campaigns, generators

    table = list(BOUNDARIES)
    for attr, value in vars(generators).items():
        if (
            isinstance(value, types.FunctionType)
            and value.__module__ == generators.__name__
            and not attr.startswith("_")
        ):
            table.append(("generators", attr, f"generators.{attr}", "span"))
    for target, fn in campaigns.CAMPAIGNS.items():
        table.append(("campaigns", fn.__name__, f"campaigns.{target}", "span"))
    table.append(("campaigns", "campaign_identity", "campaigns.identity", "span"))
    return table


def _resolve(module, path):
    """(owner, attribute, current value) for "name" or "Class.name"."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


class Tracer:
    def __init__(self):
        self._stack = []
        self._root_id = 0
        self.roots = []  # (id, name, start, end)
        self.spans = {}  # (root id, parent name, name) -> [count, total_s, self_s]
        self.counts = {}  # (root id, parent name, name) -> int
        self.missing = []  # boundaries not found in this version of the package
        self._restore = []
        self._level = []  # count_classes level stack, for per-level counters

    # -- recording -------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span called ``name`` (a root if none is open)."""
        if not self._stack:
            return self._root(name, fn, args, kwargs)
        return self._nested(name, fn, args, kwargs)

    def _root(self, name, fn, args, kwargs):
        self._root_id += 1
        rid = self._root_id
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.roots.append((rid, name, t0, t1))
            dt = t1 - t0
            self.spans[(rid, None, name)] = [1, dt, dt - frame[1]]

    def _nested(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            parent[1] += dt
            key = (self._root_id, parent[0], name)
            rec = self.spans.get(key)
            if rec is None:
                self.spans[key] = [1, dt, dt - frame[1]]
            else:
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

    def add(self, name, amount=1):
        stack = self._stack
        key = (self._root_id, stack[-1][0] if stack else None, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    def _counter(self, name, fn, budget=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            amount = 1
            if budget:
                amount = args[1] if len(args) > 1 else kwargs.get("amount", 1)
                if tracer._level:
                    tracer.add(f"{name}.{tracer._level[-1]}", amount)
            tracer.add(name, amount)
            return fn(*args, **kwargs)

        return wrapper

    def _special(self, name, fn):
        from carveq import errors
        from carveq.codes import CycW, Pullback

        undecided = getattr(errors, "IncomparableCodes", ())

        inner = self._span(name, fn)
        tracer = self

        if name == "codes.binseq_eq":

            def wrapper(u, v, *rest, **kwargs):
                if isinstance(u, CycW) and isinstance(v, CycW):
                    tracer.add("codes.binseq_eq.word_word")
                elif isinstance(u, Pullback) and isinstance(v, Pullback):
                    tracer.add("codes.binseq_eq.pull_pull")
                else:
                    tracer.add("codes.binseq_eq.mixed")
                try:
                    return inner(u, v, *rest, **kwargs)
                except undecided:
                    tracer.add("codes.binseq_eq.undecided")
                    raise

        elif name == "invariants.count_classes":

            def wrapper(level, *rest, **kwargs):
                tracer._level.append(level)
                try:
                    return tracer.call(f"{name}.{level}", fn, level, *rest, **kwargs)
                finally:
                    tracer._level.pop()

        elif name == "reductions.fiber_reduction":

            def wrapper(*args, **kwargs):
                record = inner(*args, **kwargs)
                return dataclasses.replace(
                    record, map=tracer._span("reductions.fiber_map", record.map)
                )

        elif name == "serialize.parse_any":

            def wrapper(text, *rest, **kwargs):
                tracer.add("serialize.parse.bytes", len(text.encode()))
                return inner(text, *rest, **kwargs)

        else:
            raise ValueError(f"no special wrapper for {name}")
        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self):
        """Swap every binding of every boundary for its wrapper."""
        from carveq.relations import EqRelHandle

        modules = carveq_modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        wrappers = {}
        for mod_name, path, name, kind in _boundaries():
            found = _resolve(by_name[mod_name], path)
            if found is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            owner, attr, fn = found
            if kind == "span":
                wrapper = self._span(name, fn)
            elif kind == "count":
                wrapper = self._counter(name, fn)
            elif kind == "budget":
                wrapper = self._counter(name, fn, budget=True)
            else:
                wrapper = self._special(name, fn)
            if isinstance(owner, type):
                self._swap(owner, attr, fn, wrapper, setattr)
            else:
                wrappers[fn] = wrapper

        def set_frozen(obj, attr, value):
            object.__setattr__(obj, attr, value)

        def set_item(obj, key, value):
            obj[key] = value

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._swap(mod, attr, value, wrappers[value], setattr)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in wrappers:
                            self._swap(value, key, item, wrappers[item], set_item)
                elif isinstance(value, EqRelHandle) and value.decide in wrappers:
                    self._swap(value, "decide", value.decide, wrappers[value.decide], set_frozen)

    def _swap(self, owner, key, original, wrapper, setter):
        self._restore.append((owner, key, original, setter))
        setter(owner, key, wrapper)

    def uninstall(self):
        while self._restore:
            owner, key, original, setter = self._restore.pop()
            setter(owner, key, original)

    # -- results ---------------------------------------------------------

    def totals(self, roots=None):
        """Per-name totals over the given root ids (all roots when None):
        spans name -> [count, total_s, self_s], counts name -> n, and edges
        (parent, name) -> [count, total_s, self_s]."""
        keep = roots if roots is not None else {rid for rid, _, _, _ in self.roots}
        spans, counts, edges = {}, {}, {}
        for (rid, parent, name), (n, total, own) in self.spans.items():
            if rid not in keep:
                continue
            for table, key in ((spans, name), (edges, (parent, name))):
                rec = table.setdefault(key, [0, 0.0, 0.0])
                rec[0] += n
                rec[1] += total
                rec[2] += own
        for (rid, _parent, name), n in self.counts.items():
            if rid in keep:
                counts[name] = counts.get(name, 0) + n
        return spans, counts, edges

    def dump(self, path, **meta):
        """Write roots, aggregated spans and counters as JSON."""
        doc = {
            **meta,
            "roots": [
                {"id": rid, "name": name, "start": t0, "end": t1} for rid, name, t0, t1 in self.roots
            ],
            "spans": [
                {"root": rid, "parent": parent, "name": name, "count": n, "total_s": total, "self_s": own}
                for (rid, parent, name), (n, total, own) in sorted(
                    self.spans.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2])
                )
            ],
            "counts": [
                {"root": rid, "parent": parent, "name": name, "count": n}
                for (rid, parent, name), n in sorted(
                    self.counts.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2])
                )
            ],
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def bindings():
    """Identity of the object every package binding holds: module
    attributes, dict entries, relation-handle ``decide`` fields and the
    attributes of the package's classes.  Equal before ``install`` and after
    ``uninstall``."""
    from carveq.relations import EqRelHandle

    held = {}
    for mod in carveq_modules():
        for attr, value in vars(mod).items():
            held[(mod.__name__, attr)] = id(value)
            if isinstance(value, dict):
                for key, item in value.items():
                    held[(mod.__name__, attr, repr(key))] = id(item)
            elif isinstance(value, EqRelHandle):
                held[(mod.__name__, attr, "decide")] = id(value.decide)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for name, item in vars(value).items():
                    held[(mod.__name__, attr, "." + name)] = id(item)
    return held


def changed_bindings(before):
    """Bindings that differ from the snapshot ``before``."""
    after = bindings()
    return sorted(".".join(map(str, key)) for key in before if after.get(key) != before[key])


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, edges):
    """The per-layer metrics, name -> (value, unit), from ``Tracer.totals``."""
    zero = (0, 0.0, 0.0)

    def calls(name):
        return spans.get(name, zero)[0]

    def total(name):
        return spans.get(name, zero)[1]

    def own(name):
        return spans.get(name, zero)[2]

    def layer_self(layer):
        return sum(rec[2] for name, rec in spans.items() if name.startswith(layer + "."))

    masks = counts.get("invariants.budget_spent.E", 0)
    covering = sum(
        rec[0]
        for (parent, name), rec in edges.items()
        if parent == "invariants.count_classes.E" and name == "relations.ppoint_validate"
    )
    realized = edges.get(("campaigns.cyclic_point", "generators.realize_ppoint"), zero)[0]
    parsed = counts.get("serialize.parse.bytes", 0)

    m = {
        "atoms.atomset_new.count": (calls("atoms.atomset_new"), "count"),
        "atoms.atomset_new.self_s": (own("atoms.atomset_new"), "s"),
        "atoms.sort_key.count": (counts.get("atoms.sort_key", 0), "count"),
        "codes.range_set.count": (calls("codes.range_set"), "count"),
        "codes.range_set.self_s": (own("codes.range_set"), "s"),
        "codes.value_at.count": (counts.get("codes.value_at", 0), "count"),
        "codes.pullback.count": (calls("codes.pullback"), "count"),
        "codes.pullback.self_s": (own("codes.pullback"), "s"),
    }
    for arm in ("word_word", "pull_pull", "mixed", "undecided"):
        m[f"codes.binseq_eq.{arm}.count"] = (counts.get(f"codes.binseq_eq.{arm}", 0), "count")
    m["codes.binseq_eq.self_s"] = (own("codes.binseq_eq"), "s")
    m["pairing.cantor_unpair.count"] = (calls("pairing.cantor_unpair"), "count")
    for name in ("ppoint_validate", "carve_pair"):
        m[f"relations.{name}.count"] = (calls(f"relations.{name}"), "count")
        m[f"relations.{name}.self_s"] = (own(f"relations.{name}"), "s")
    for level in "EFG":
        m[f"relations.rel_{level}.self_s"] = (own(f"relations.rel_{level}"), "s")
    m["invariants.e_invariant.count"] = (calls("invariants.e_invariant"), "count")
    m["invariants.e_invariant.self_s"] = (own("invariants.e_invariant"), "s")
    m["invariants.budget_spent"] = (counts.get("invariants.budget_spent", 0), "count")
    m["invariants.masks_enumerated"] = (masks, "count")
    m["invariants.cover_ratio"] = (_ratio(covering, masks), "ratio")
    m["reductions.fiber_map.count"] = (calls("reductions.fiber_map"), "count")
    m["reductions.fiber_map.self_s"] = (own("reductions.fiber_map"), "s")
    m["reductions.embed_fs2.self_s"] = (own("reductions.embed_fs2"), "s")
    m["reductions.check_reduction.self_s"] = (own("reductions.check_reduction"), "s")
    m["generators.cyclic_point.realize_calls"] = (realized, "count")
    m["generators.cyclic_point.accept_ratio"] = (
        _ratio(calls("campaigns.cyclic_point"), realized),
        "ratio",
    )
    for target in ("claim", "star", "remark", "embed", "interleave", "gtof", "constjump"):
        m[f"campaigns.{target}.wall_s"] = (total(f"campaigns.{target}"), "s")
    m["campaigns.chain.wall_s"] = (total("reductions.chain_report"), "s")
    m["serialize.to_text.self_s"] = (own("serialize.to_text"), "s")
    m["serialize.parse_any.self_s"] = (own("serialize.parse_any"), "s")
    m["serialize.parse.bytes_per_s"] = (_ratio(parsed, total("serialize.parse_any")), "B/s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    return m
