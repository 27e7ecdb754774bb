"""Spans around the public functions of each zipcone module, recorded from
outside the program.

`Tracer.install` replaces every listed function with a wrapper, rebinding
every copy of the name: the module attribute, the `from ... import` copies in
the other zipcone modules and the package namespace, or the class attribute
for methods.  While installed, each call records one span (boundary,
start, end, parent span, and `Tracer.request` as the request id) in
in-memory arrays; nothing is written until `write_spans`.  `uninstall`
restores the originals.  Per-element vector helpers such as `linalg.dot` are
deliberately not wrapped: they run millions of times, and their time lands
in the self time of the caller.
"""
from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

BOUNDARIES = (
    "linalg.solve_in_span",
    "linalg.rref",
    "linalg.mat_inverse",
    "rootdata.build_root_datum",
    "rootdata.datum_from_cartan",
    "rootdata.validate_frobenius",
    "rootdata.RootDatum.positive_roots_with_coroots",
    "rootdata.RootDatum.root_coefficients",
    "rootdata.RootDatum.is_positive_root_vector",
    "weyl.enumerate_parabolic",
    "weyl.sigma_fixed",
    "weyl.longest_element",
    "weyl.opposition_involution",
    "cones.dual_description",
    "cones.RationalCone.complete",
    "cones.RationalCone.contains",
    "zipcones.make_context",
    "zipcones.split_context",
    "zipcones.ZipContext.fixed_levi_weyl",
    "zipcones.gs_cone",
    "zipcones.pha_cone",
    "zipcones.hw_cone",
    "zipcones.lw_cone",
    "zipcones.weil_transport",
    "zipcones.zip_report",
    "hasse.classify",
    "hasse.compare_with_expected",
    "hasse.opposition_condition",
    "hasse.diagram_automorphisms",
    "hasse.classification_entry",
    "catalog.reproduce",
    "cli.main",
    "cli.load_context",
)

def _count_cartan(tracer, args, kwargs, result):
    cartan = args[0] if args else kwargs["cartan"]
    tracer.cartans.add(tuple(tuple(row) for row in cartan))


def _count_elements(tracer, args, kwargs, result):
    tracer.counts["enumerate_parabolic.elements"] += len(result)


def _count_sigma_fixed(tracer, args, kwargs, result):
    tracer.counts["sigma_fixed.examined"] += len(args[0])
    tracer.counts["sigma_fixed.kept"] += len(result)


def _count_dd(tracer, args, kwargs, result):
    tracer.counts["dual_description.rows_in"] += len(args[1])
    tracer.counts["dual_description.rays_out"] += len(result[0])


def _count_completion(tracer, args, kwargs):
    # complete() returns at once on a cone it already canonicalized; only the
    # calls that do the work are the base of dd_passes_per_complete
    if not args[0]._canonical:
        tracer.counts["complete.working"] += 1


AFTER = {
    "rootdata.datum_from_cartan": _count_cartan,
    "weyl.enumerate_parabolic": _count_elements,
    "weyl.sigma_fixed": _count_sigma_fixed,
    "cones.dual_description": _count_dd,
}
BEFORE = {"cones.RationalCone.complete": _count_completion}


class Tracer:
    def __init__(self):
        self.request = -1
        self.counts = Counter()
        self.cartans = set()
        self._stack = []
        self._depth = [0] * len(BOUNDARIES)
        self._bindings = []
        self.name = array("h")
        self.parent = array("q")
        self.req = array("q")
        self.outermost = array("b")
        self.start = array("d")
        self.end = array("d")

    def _wrap(self, index, fn, before, after):
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            span = len(self.name)
            self.name.append(index)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.req.append(self.request)
            self.outermost.append(self._depth[index] == 0)
            self.end.append(0.0)
            self._stack.append(span)
            self._depth[index] += 1
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = perf_counter()
                self._depth[index] -= 1
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _bind(self):
        """Find every binding of every boundary and build its wrapper."""
        modules = [m for n, m in sys.modules.items() if n == "zipcone" or n.startswith("zipcone.")]
        bindings = []
        for index, name in enumerate(BOUNDARIES):
            module, *path = name.split(".")
            owner = importlib.import_module(f"zipcone.{module}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            original = vars(owner)[attr]
            traced = self._wrap(index, original, BEFORE.get(name), AFTER.get(name))
            if isinstance(owner, type):
                targets = [(owner, attr)]
            else:
                targets = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            bindings += [(obj, key, original, traced) for obj, key in targets]
        return bindings

    def install(self):
        if not self._bindings:
            self._bindings = self._bind()
        for obj, key, _, traced in self._bindings:
            setattr(obj, key, traced)

    def uninstall(self):
        for obj, key, original, _ in self._bindings:
            setattr(obj, key, original)

    def metrics(self, requests: int) -> dict:
        """Per-layer metrics: span figures are means per traced request.

        `.s` sums the outermost span of each boundary (a recursive call is
        not counted twice); `.self_s` is a span minus its child spans.
        """
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(BOUNDARIES)
        inclusive = [0.0] * len(BOUNDARIES)
        own = [0.0] * len(BOUNDARIES)
        for i in range(n):
            k = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[k] += 1
            own[k] += dur - child[i]
            if self.outermost[i]:
                inclusive[k] += dur
        out = {}
        for k, name in enumerate(BOUNDARIES):
            out[f"{name}.calls"] = (calls[k] / requests, "count")
            out[f"{name}.s"] = (inclusive[k] / requests, "s")
            out[f"{name}.self_s"] = (own[k] / requests, "s")
        c = self.counts
        dd_calls = calls[BOUNDARIES.index("cones.dual_description")]
        out["rootdata.datum_from_cartan.distinct"] = (len(self.cartans), "count")
        out["weyl.enumerate_parabolic.elements"] = (c["enumerate_parabolic.elements"] / requests, "count")
        out["weyl.sigma_fixed.kept_ratio"] = (
            c["sigma_fixed.kept"] / c["sigma_fixed.examined"] if c["sigma_fixed.examined"] else 0.0,
            "ratio",
        )
        out["cones.dual_description.rows_in"] = (c["dual_description.rows_in"] / requests, "count")
        out["cones.dual_description.rays_out"] = (c["dual_description.rays_out"] / requests, "count")
        out["cones.dd_passes_per_complete"] = (
            dd_calls / c["complete.working"] if c["complete.working"] else 0.0,
            "ratio",
        )
        return out

    def write_spans(self, path):
        """One line per span: span, parent, request, boundary, start_s, end_s
        (seconds from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tboundary\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.req[i]}\t{BOUNDARIES[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
