"""Per-layer spans for one `verlinde` request, recorded from outside the package.

Run in place of `python -m twistblocks.cli`, with the same arguments:

    PYTHONPATH=src python bench/tracer.py - --format structured

It wraps the public function of each layer under every name a twistblocks
module binds it to (the package imports most of them with `from .x import f`),
and the RootDatum methods on the class.  Then it runs the CLI unchanged and
writes one line `TRACE <json>` to stderr with the per-layer totals of this
process.  Stdout stays the CLI's own.

A span's self time is its duration minus the time its child spans cover.
`misses` counts distinct argument keys, which is what the process-global
caches compute.  Spans assume one thread; the benchmark never passes
`--threads`.
"""

import importlib
import json
import pkgutil
import sys
import time

TRACE_PREFIX = "TRACE "


def _key(args):
    """(datum or twist identity, weight tuple): the cache key of a layer."""
    owner, vec = args[0], args[1]
    return id(owner), tuple(int(x) for x in vec)


def _count_orbit(st, args, kwargs, result):
    if _miss(st, _key(args)):
        orbit, signs = result
        st["rows"] += len(orbit)
        st["bytes"] += orbit.nbytes + signs.nbytes


def _count_weights(st, args, kwargs, result):
    if _miss(st, _key(args)):
        st["weights"] += len(result)


def _count_branch(st, args, kwargs, result):
    _miss(st, _key(args))


def _count_character(st, args, kwargs, result):
    method = kwargs.get("method", args[3] if len(args) > 3 else "quotient")
    st["calls_weights" if method == "weights" else "calls_quotient"] += 1


def _count_len(field, of=lambda result: result):
    def count(st, args, kwargs, result):
        st[field] += len(of(result))
    return count


def _count_fold(st, args, kwargs, result):
    st["walls"] += result.status == "wall"


def _count_terms(st, args, kwargs, result):
    st["terms"] += len(args[0])


def _miss(st, key):
    seen = st["_keys"]
    if key in seen:
        return False
    seen.add(key)
    st["misses"] += 1
    return True


# layer -> (module, attribute, extra counters, count hook).  An attribute
# "RootDatum.x" is the method x, wrapped on the class.
LAYERS = {
    "cli.parse_request": ("cli", "parse_request", (), None),
    "cli.emit_report": ("cli", "emit_report", (), None),
    "liecore.build_root_datum": ("liecore", "build_root_datum", (), None),
    "liecore.signed_orbit": ("liecore", "RootDatum.signed_orbit",
                             ("misses", "rows", "bytes"), _count_orbit),
    "liecore.weight_system": ("liecore", "RootDatum.weight_system",
                              ("misses", "weights"), _count_weights),
    "liecore.tensor_multiplicities": ("liecore", "RootDatum.tensor_multiplicities",
                                      ("constituents",), _count_len("constituents")),
    "liecore.character_at_exponents": ("liecore", "RootDatum.character_at_exponents",
                                       ("calls_quotient", "calls_weights"),
                                       _count_character),
    "twist.build_twist": ("twist", "build_twist", (), None),
    "twist.branch_to_fixed": ("twist", "branch_to_fixed", ("misses",), _count_branch),
    "alcove.enumerate_sigma_c": ("alcove", "enumerate_sigma_c", ("points",),
                                 _count_len("points", lambda r: r.points)),
    "alcove.lattice_orders": ("alcove", "lattice_orders", (), None),
    "util.smith_normal_form": ("util", "smith_normal_form", (), None),
    "alcove.fold_to_alcove": ("alcove", "fold_to_alcove", ("walls",), _count_fold),
    "kacwalton.kac_walton_dimension": ("kacwalton", "kac_walton_dimension",
                                       ("constituents",),
                                       _count_len("constituents",
                                                  lambda r: r[1].contributions)),
    "dims.twisted_three_point": ("dims", "twisted_three_point", (), None),
    "dims.fusion_coefficient": ("dims", "fusion_coefficient", (), None),
    "dims.general_dimension": ("dims", "general_dimension", (), None),
    "dims.factorized_dimension": ("dims", "factorized_dimension", (), None),
    "dims.classical_verlinde": ("dims", "classical_verlinde", (), None),
    "util.tree_sum": ("util", "tree_sum", ("terms",), _count_terms),
}


class Tracer:
    """Per-layer call counts and self times for one process."""

    def __init__(self):
        self.stats = {}
        self._open = []   # child time covered so far, one entry per open span

    def wrap(self, layer, fn, fields, count):
        st = {"calls": 0, "self_s": 0.0, **{f: 0 for f in fields}}
        if "misses" in fields:
            st["_keys"] = set()
        self.stats[layer] = st
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                st["self_s"] += dur - open_spans.pop()
                st["calls"] += 1
                if open_spans:
                    open_spans[-1] += dur
            if count is not None:
                count(st, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def report(self):
        return {layer: {k: v for k, v in st.items() if not k.startswith("_")}
                for layer, st in self.stats.items()}


def _package_modules():
    pkg = importlib.import_module("twistblocks")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"twistblocks.{info.name}")
    return [m for name, m in sys.modules.items()
            if name == "twistblocks" or name.startswith("twistblocks.")]


def install(tracer):
    """Wrap every layer under each name bound to it; fail if one is missed.

    Returns the layers the package no longer has; they record nothing.
    """
    modules = _package_modules()
    originals = []
    absent = []
    for layer, (modname, attr, fields, count) in LAYERS.items():
        owner = sys.modules.get(f"twistblocks.{modname}")
        cls_name, _, name = attr.rpartition(".")
        holder = getattr(owner, cls_name, None) if cls_name else owner
        fn = vars(holder).get(name) if holder is not None else None
        if fn is None:
            absent.append(layer)
            continue
        wrapped = tracer.wrap(layer, fn, fields, count)
        if cls_name:
            setattr(holder, name, wrapped)
        else:
            for mod in modules:
                for binding, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, binding, wrapped)
        originals.append((layer, fn))
    # self-check: no module or class dict still reaches an unwrapped layer
    for layer, fn in originals:
        for mod in modules:
            spaces = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                    if isinstance(v, type)]
            for space in spaces:
                if any(val is fn for val in space.values()):
                    raise RuntimeError(f"tracer missed a binding of {layer} "
                                       f"in {mod.__name__}")
    return absent


def main(argv):
    tracer = Tracer()
    absent = install(tracer)
    from twistblocks import cli
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        print(TRACE_PREFIX + json.dumps({"layers": tracer.report(), "absent": absent}),
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
