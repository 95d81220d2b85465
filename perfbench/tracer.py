"""Span tracer that wraps the public functions of each oddsym layer from
outside the package.

Spans are aggregated in memory per (name, parent), because the hot functions
run millions of times in one job.  A span's self time is its duration minus
the durations of its child spans.  Installing replaces every binding of a
wrapped function, including from-imports and aliases in other modules, so a
call is traced whichever name it goes through.
"""

import importlib
import sys
import time

# metric prefix -> (module, attribute); "Class.method" wraps a method and
# every alias of it in the class (QPoly.__rmul__ is QPoly.__mul__).
SPANS = {
    "cli.main": ("cli", "main"),
    "gramdet.gram_matrix": ("gramdet", "gram_matrix"),
    "gramdet.gram_det": ("gramdet", "gram_det"),
    "gramdet.factor_multiplicity_check": ("gramdet", "factor_multiplicity_check"),
    "polyq.det_exact": ("polyq", "det_exact"),
    "polyq.qpoly_mul": ("polyq", "QPoly.__mul__"),
    "polyq.qpoly_divmod": ("polyq", "QPoly.divmod"),
    "polyq.unimodular_inverse": ("polyq", "unimodular_inverse"),
    "polyq.kernel_basis": ("polyq", "kernel_basis"),
    "form.pair_h_generic": ("form", "pair_h_generic"),
    "form.pair_h_at": ("form", "pair_h_at"),
    "form.pair_words_odd": ("form", "pair_words_odd"),
    "form.pair_words_generic": ("form", "pair_words_generic"),
    "oddring.normalize_word": ("oddring", "normalize_word"),
    "oddring.elt_init": ("oddring", "OddElt.__init__"),
    "oddring.elt_add": ("oddring", "OddElt.__add__"),
    "oddring.elt_mul": ("oddring", "OddElt.__mul__"),
    "oddring.pair": ("oddring", "pair"),
    "oddring.pair_tensor": ("oddring", "pair_tensor"),
    "oddring.coproduct": ("oddring", "coproduct"),
    "oddring.e_elt": ("oddring", "e_elt"),
    "bases.basis_matrix": ("bases", "basis_matrix"),
    "bases.kostka": ("bases", "kostka"),
    "bases.monomial": ("bases", "monomial"),
    "bases.forgotten": ("bases", "forgotten"),
    "bases.schur": ("bases", "schur"),
    "combinat.matrices_with_margins": ("combinat", "matrices_with_margins"),
    "combinat.ssyt": ("combinat", "ssyt"),
    "combinat.matrix_sign": ("combinat", "matrix_sign"),
    "combinat.is_partition": ("combinat", "is_partition"),
    "rsk.rsk": ("rsk", "rsk"),
    "rsk.row_insert": ("rsk", "row_insert"),
    "rsk.odd_rsk_check": ("rsk", "odd_rsk_check"),
    "hopf.antipode": ("hopf", "antipode"),
    "hopf.omega": ("hopf", "omega"),
    "hopf.reverse": ("hopf", "reverse"),
    "hopf.adjointness_check": ("hopf", "adjointness_check"),
    "hopf.antipode_axiom_check": ("hopf", "antipode_axiom_check"),
}

# Counters updated at span boundaries by the AFTER hooks below.
COUNTERS = (
    "polyq.det_max_coeff_bits",
    "combinat.margin_matrices",
    "combinat.tableaux",
    "rsk.report_matrices",
    "oddring.elt_add.terms",
)

# Memo caches reported one by one: metric prefix -> (module, cached function).
CACHES = {
    "oddring.normalize_word": ("oddring", "normalize_word"),
    "form.pair_h": ("form", "_pair_h"),
    "form.pair_colored": ("form", "_pair_colored"),
}

# Counters that the worker and run.py fill in.
EXTRA = {
    "cli.stdout_bytes": "bytes",
    "caches.entries_total": "count",
    "trace.overhead_s": "s",
}


def per_layer_metrics() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        out[name] = "bits" if name.endswith("_bits") else "count"
    for name in CACHES:
        out[f"{name}.hit_ratio"] = "ratio"
        out[f"{name}.entries"] = "count"
    out.update(EXTRA)
    return out


def _module(name: str):
    # import_module, because the package attribute oddsym.rsk is the rsk
    # function, which shadows the module of the same name.
    return importlib.import_module(f"oddsym.{name}")


def _det_bits(counters, args, det) -> None:
    coeffs = getattr(det, "coeffs", (det,))
    bits = max((abs(c).bit_length() for c in coeffs), default=0)
    key = "polyq.det_max_coeff_bits"
    counters[key] = max(counters[key], bits)


def _adder(key: str, size):
    def after(counters, args, result) -> None:
        counters[key] += size(args, result)
    return after


# span -> hook run on the arguments and result of each successful call
AFTER = {
    "polyq.det_exact": _det_bits,
    "combinat.matrices_with_margins":
        _adder("combinat.margin_matrices", lambda args, result: len(result)),
    "combinat.ssyt": _adder("combinat.tableaux", lambda args, result: len(result)),
    "rsk.odd_rsk_check":
        _adder("rsk.report_matrices", lambda args, result: len(result["matrices"])),
    "oddring.elt_add":
        _adder("oddring.elt_add.terms", lambda args, result: len(args[0].terms)),
}


class Tracer:
    """Wraps the functions in SPANS; `install` and `uninstall` are inverses."""

    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, counters = self.spans, self.counters
        stack = self._stack
        after = AFTER.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = spans.get((name, parent))
                if record is None:
                    spans[(name, parent)] = [1, elapsed - frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed - frame[1]
            if after is not None:
                after(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "oddsym" or key.startswith("oddsym.")]
        for name, (module, attr) in SPANS.items():
            owner = _module(module)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[method]
                wrapper = self._wrap(name, fn)
                for key, value in list(cls.__dict__.items()):
                    if value is fn:
                        self._rebind(cls, key, wrapper)
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict:
        """calls and self_s per span name (summed over parents), counters."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, _), (calls, self_s) in self.spans.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += self_s
        out.update(self.counters)
        return out

    def tree(self) -> list[dict]:
        """The aggregated spans, heaviest self time first."""
        rows = [{"name": name, "parent": parent, "calls": calls, "self_s": self_s}
                for (name, parent), (calls, self_s) in self.spans.items()]
        return sorted(rows, key=lambda r: -r["self_s"])


def memo_caches() -> dict:
    """Every lru_cache in oddsym, keyed by module.function."""
    out = {}
    for key, mod in sorted(sys.modules.items()):
        if key != "oddsym" and not key.startswith("oddsym."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == key:
                out[f"{key[len('oddsym.'):]}.{attr}"] = value
    return out


def cache_metrics() -> dict:
    """Hit ratios and sizes of the memo caches; call it with no tracer
    installed, since the wrappers hide cache_info."""
    caches = memo_caches()
    out = {}
    for name, (module, attr) in CACHES.items():
        info = getattr(_module(module), attr).cache_info()
        looked_up = info.hits + info.misses
        out[f"{name}.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        out[f"{name}.entries"] = info.currsize
    out["caches.entries_total"] = sum(c.cache_info().currsize for c in caches.values())
    return out
