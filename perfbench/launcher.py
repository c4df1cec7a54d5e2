"""Run one brat request in this process, timed or traced from outside.

    python perfbench/launcher.py time  OUT.json -- ARGS...
    python perfbench/launcher.py trace OUT.json -- ARGS...

`time` records only the duration of `brat.cli.main(ARGS)`.  `trace`
first wraps every public function and public method of the brat
modules, and rebinds every `brat.*` name that refers to the same
function object (bratteli and ordered_group import `factorize` by
name), so a call is seen whichever module makes it.  Each call becomes
a span [name, start_ns, end_ns, parent]; a few hot leaf helpers are
only counted, and their time stays in the caller's self time.  Spans
stay in memory and are written to OUT.json when the request ends.
Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from time import perf_counter_ns

MODULES = ("cli", "catalog", "bratteli", "dot", "ordered_group", "supernatural", "primes")

# Leaf helpers called up to millions of times per request: counted, not spanned.
COUNT_ONLY = frozenset({
    "primes.is_prime",
    "primes.valuation",
    "supernatural.exp_add",
    "supernatural.exp_le",
    "supernatural.exp_max",
    "supernatural.exp_min",
    "supernatural.SupernaturalNumber.exponent",
    "supernatural.SupernaturalNumber.items",
    "bratteli.BratteliDiagram.matrix_at",
    "bratteli.BratteliDiagram.width_at",
    "bratteli.TowerProfile.height",
    "bratteli.TowerProfile.gcd",
    "bratteli.TowerProfile.ratio",
    "ordered_group.quadratic_sign",
    "ordered_group.QuadraticIrrationalGroup.sign",
})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.profiles: list = []
        self.factorized: list = []
        self.generators: list = []
        self.hooks = {
            "bratteli.tower_profile": lambda args, result: self.profiles.append(result),
            "primes.factorize": lambda args, result: self.factorized.append(args[0]),
            "ordered_group.semigroup_member": lambda args, result: self.generators.append(args[0]),
        }

    # -- observations on arguments and results, made at exit so that
    #    their cost falls in no span --------------------------------------

    def observations(self) -> dict:
        tables = set()
        for gens in self.generators:
            gens = sorted(set(gens))
            if gens and gens[0] >= 1:
                step = math.gcd(*gens)
                reduced = tuple(g // step for g in gens)
                if reduced[0] > 1:
                    tables.add(reduced)
        return {
            "levels": sum(p.depth for p in self.profiles),
            "max_height_bits": max((x.bit_length() for p in self.profiles for v in p.heights for x in v),
                                   default=0),
            "factorize_max_bits": max((int(n).bit_length() for n in self.factorized), default=0),
            "residue_entries": sum(t[0] for t in tables),
        }

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn):
        counts = self.counts
        counts[name] = 0
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, hook = self.spans, self.stack, self.hooks.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            span = [nid, perf_counter_ns(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result
        return spanned

    def install(self) -> None:
        modules = {name: importlib.import_module("brat." + name) for name in MODULES}
        replaced: dict[int, tuple[object, object]] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap("%s.%s" % (short, attr), obj))
                elif inspect.isclass(obj):
                    self._wrap_methods("%s.%s" % (short, attr), obj)
        for namespace in list(modules.values()) + [sys.modules["brat"]]:
            for attr, obj in list(vars(namespace).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(namespace, attr, entry[1])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr, type(raw)(self.wrap("%s.%s" % (prefix, attr), raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap("%s.%s" % (prefix, attr), raw))

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": {k: v for k, v in self.counts.items() if v},
            **self.observations(),
        }


def main() -> None:
    mode, out = sys.argv[1], sys.argv[2]
    if mode not in ("time", "trace") or sys.argv[3] != "--":
        raise SystemExit("usage: launcher.py time|trace OUT.json -- ARGS...")
    argv = sys.argv[4:]
    import brat.cli

    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    record: dict = {}
    start = perf_counter_ns()
    try:
        status = brat.cli.main(argv)
    finally:
        record["main_ns"] = perf_counter_ns() - start
        sys.stdout.flush()
        if tracer is not None:
            record.update(tracer.dump())
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))
    sys.exit(status)


if __name__ == "__main__":
    main()
