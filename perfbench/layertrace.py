"""Per-layer tracing for the benchmark, installed from outside the library.

`Tracer.install()` replaces public functions and methods of the `defalg`
modules with wrappers that aggregate, in place, a call count and self time:
a call's duration minus the time covered by the wrapped calls inside it.
Spans (name, start, end, parent, job id) are kept only for coarse entry
points: the job and each public check call.  Hot leaves such as
`Element.__init__` and the GBV triple filter only count, because a span or
even a clock read per call would swamp what they measure.

A module function is replaced in every `defalg` module namespace that binds
the same object, because `from .core import koszul_sign` copies the name
into each importer.  `uninstall()` puts every original back.
"""

from __future__ import annotations

import importlib
import pkgutil
from time import perf_counter

_OPS = (
    "op_L_i", "op_Lambda_i", "op_L", "op_Lambda", "op_C", "op_C_inv",
    "op_P_bidegree", "op_P_total", "op_c_inv_star",
)
_PARSERS = (
    "load_json", "parse_basis", "parse_value", "parse_dgla", "parse_artin",
    "parse_nilpotent_lie", "parse_tensor_poly", "parse_pair_element",
    "parse_components", "parse_linfty", "parse_gbv", "parse_polyvector",
    "parse_covector", "parse_small_extension", "parse_unital_algebra",
    "parse_homotopy",
)

# (module, attribute path, stat names the wrapper feeds, kind).  kind is
# "timed", "span" (timed, and recorded as a span), "count" (calls only),
# "list" (calls, plus the length of the returned list as `yielded`).
TARGETS = (
    [
        ("core", "koszul_sign", ("core.koszul_sign",), "timed"),
        ("core", "sym_canonical", ("core.sym_canonical",), "timed"),
        ("core", "unshuffles", ("core.unshuffles",), "list"),
        ("core", "Element.__init__", ("core.Element.new",), "count"),
    ]
    + [
        ("core", f"Element.{m}", ("core.Element.arith",), "timed")
        for m in ("add_term", "__add__", "__sub__", "__neg__", "scale", "copy")
    ]
    + [
        ("scalars", f"GaussianScalar.{m}",
         ("scalars.GaussianScalar.arith",)
         + (("scalars.GaussianScalar.mul",) if "mul" in m else ()),
         "timed")
        for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                  "__mul__", "__rmul__", "__truediv__", "conjugate")
    ]
    + [
        ("linalg", "rref", ("linalg.rref",), "timed"),
        ("freelie", "TensorSeries.__mul__", ("freelie.TensorSeries.mul",), "timed"),
        ("freelie", "bch_explicit", ("freelie.bch_explicit",), "span"),
        ("freelie", "bch_free", ("freelie.bch_free",), "span"),
        ("freelie", "dsw_project", ("freelie.dsw_project",), "timed"),
        ("dgla", "DGLA.bracket", ("dgla.bracket",), "timed"),
        ("dgla", "TensorDgla.bracket", ("dgla.bracket",), "timed"),
        ("dgla", "ArtinDg.product", ("dgla.product",), "timed"),
        ("dgla", "check_dgla", ("dgla.check_dgla",), "span"),
        ("dgla", "TensorDgla.gauge_apply", ("dgla.gauge_apply",), "timed"),
        ("dgla", "obstruction_class", ("dgla.obstruction_class",), "span"),
        ("coalg", "Coderivation.apply_word", ("coalg.Coderivation.apply_word",), "timed"),
        ("coalg", "ComponentMap.apply_word", ("coalg.ComponentMap.apply_word",), "timed"),
        ("linfty", "check_linfty", ("linfty.check_linfty",), "span"),
        ("linfty", "mc_linfty", ("linfty.mc_linfty",), "span"),
        ("linfty", "from_dgla", ("linfty.from_dgla",), "timed"),
        ("gbv", "polyvector_gbv", ("gbv.polyvector_gbv",), "span"),
        ("gbv", "GradedCommAlgebra.product", ("gbv.product",), "timed"),
        ("gbv", "GBVStructure.derived_q", ("gbv.derived_q",), "timed"),
        ("gbv", "GBVStructure.delta", ("gbv.delta",), "count"),
        ("gbv", "GBVStructure.gbv_check", ("gbv.gbv_check",), "span"),
        ("gbv", "GBVStructure.dgla_verify", ("gbv.dgla_verify",), "span"),
        ("gbv", "delta_volume", ("gbv.delta_volume",), "timed"),
        ("gbv", "tian_todorov_check", ("gbv.tian_todorov_check",), "span"),
        ("lefschetz", "op_star", ("lefschetz.ops", "lefschetz.op_star"), "timed"),
    ]
    + [("lefschetz", op, ("lefschetz.ops",), "timed") for op in _OPS]
    + [
        ("lefschetz", "identities_report", ("lefschetz.identities_report",), "span"),
        ("lefschetz", "lefschetz_decompose", ("lefschetz.decompose",), "span"),
        ("cli", "main", ("cli.main",), "span"),
        ("suite", "run_suite", ("suite.run_suite",), "span"),
    ]
    + [("schemas", p, ("schemas.load",), "timed") for p in _PARSERS]
    + [
        ("report", f"CheckReport.{m}", ("report.render",), "timed")
        for m in ("to_dict", "to_json", "text")
    ]
)


class Stat:
    __slots__ = ("name", "calls", "self_s", "yielded", "admitted")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.yielded = 0
        self.admitted = 0


class Tracer:
    """Aggregated per-layer statistics plus coarse spans for one traced run."""

    def __init__(self):
        self.stats = {}
        self.spans = []  # [name, start, end, parent index or None, job id]
        self.job = None
        self._frames = []  # child time accumulated by each open timed call
        self._open_spans = []
        self._saved = []  # (owner, attribute, original)
        self.missing = []

    def stat(self, name) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(name)
        return self.stats[name]

    # -- recording ---------------------------------------------------------

    def _enter_span(self, name):
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self._open_spans.append(len(self.spans) - 1)

    def _exit_span(self):
        self.spans[self._open_spans.pop()][2] = perf_counter()

    def run_job(self, job_id, fn):
        """Run one job as a root span; its frame absorbs its children's time."""
        self.job = job_id
        self._enter_span("job")
        self._frames.append(0.0)
        try:
            return fn()
        finally:
            self._frames.pop()
            self._exit_span()
            self.job = None

    def _timed(self, fn, stats, span):
        frames = self._frames

        def wrapper(*args, **kwargs):
            if span:
                self._enter_span(stats[0].name)
            frames.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = frames.pop()
                if frames:
                    frames[-1] += dt
                for s in stats:
                    s.calls += 1
                    s.self_s += dt - child
                if span:
                    self._exit_span()

        return wrapper

    @staticmethod
    def _counted(fn, stats):
        def wrapper(*args, **kwargs):
            for s in stats:
                s.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def _listed(fn, stats):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            for s in stats:
                s.calls += 1
                s.yielded += len(out)
            return out

        return wrapper

    def _filter(self, fn):
        s = self.stat("gbv.triple_filter")

        def wrapper(i, j, k):
            s.calls += 1
            ok = fn(i, j, k)
            if ok:
                s.admitted += 1
            return ok

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        import defalg

        mods = [
            importlib.import_module(f"defalg.{info.name}")
            for info in pkgutil.iter_modules(defalg.__path__)
        ]
        for mod_name, path, stat_names, kind in TARGETS:
            stats = [self.stat(name) for name in stat_names]
            owner = importlib.import_module(f"defalg.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, "__dict__", {}).get(attr)
            if orig is None:
                # the library no longer has this entry point: its metrics
                # read 0, and the run says which targets were missing
                self.missing.append(f"{mod_name}.{path}")
                continue
            if kind in ("timed", "span"):
                new = self._timed(orig, stats, kind == "span")
            elif kind == "count":
                new = self._counted(orig, stats)
            else:
                new = self._listed(orig, stats)
            if cls_path:
                self._replace(owner, attr, new)
                continue
            for mod in mods:
                if mod.__dict__.get(attr) is orig:
                    self._replace(mod, attr, new)
        self._wrap_gbv_filter()

    def _wrap_gbv_filter(self):
        """Wrap `triple_filter` on every GBVStructure built while installed."""
        from defalg import gbv

        init = gbv.GBVStructure.__dict__["__init__"]
        tracer = self

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if obj.triple_filter is not None:
                obj.triple_filter = tracer._filter(obj.triple_filter)

        self._replace(gbv.GBVStructure, "__init__", __init__)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

