"""Span tracing installed from outside the library.

`Tracer.install()` replaces the public functions of `linalg`, `hmod`,
`grassmann`, `functors` and `pimod` (and the public methods of the
counting engines) by timing wrappers; `uninstall()` puts the originals
back.  Library code looks module globals up at call time, so calls made
inside a module (`rank` -> `rref`) and across modules (`hmod.hom_basis`
-> `linalg.nullspace`) all pass through the wrappers.

Each call becomes a span (name, start, end, parent span, query id), kept
column-wise in memory and written out by `write_spans`.  A generator
function is traced one resumption at a time: every `next()` is a span and
its yields are counted.  Self time is a span's duration minus the time its
child spans cover; the run is single-threaded, so children never overlap
and that is a plain sum.  `linalg` spans are named by the type of the
field argument: `linalg.rank.fp`, `linalg.rank.q`, or `.none` without one.
"""

from __future__ import annotations

import inspect
import struct
import time
from array import array

from symquiv import fields, functors, grassmann, hmod, linalg, pimod
from symquiv.errors import TooLargeError

MODULES = {"linalg": linalg, "hmod": hmod, "grassmann": grassmann,
           "functors": functors, "pimod": pimod}

# private functions that a per-layer metric needs
EXTRA_FUNCTIONS = {"grassmann": ("_iter_lf_submodules",)}

CLASS_METHODS = {
    "grassmann.EulerEngine": (grassmann.EulerEngine, ("euler_char_grlf", "f_polynomial",
                                                      "flag_euler", "theta_eval")),
    "grassmann.Counter": (grassmann.Counter, ("class_rep", "bottom_e_groups", "flag_count")),
    "grassmann.ClassFlagCounter": (grassmann.ClassFlagCounter, ("_sub_groups", "count")),
    "grassmann.PBWEngine": (grassmann.PBWEngine, ("pairing", "filtration_exists")),
}

COUNT_FN = "grassmann.interpolate_counts.count_fn"


def _public_functions(module, extra=()):
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and obj.__module__ == module.__name__
                  and (not name.startswith("_") or name in extra))


class Counts:
    """Per-name totals of one phase of a traced run."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.yields = {}
        self.raised = {}
        self.true_results = {}
        self.int_results = {}
        self.budget_exhausted = 0

    def get(self, column, name):
        return getattr(self, column).get(name, 0)

    def total(self, column, predicate):
        return sum(v for n, v in getattr(self, column).items() if predicate(n))


def _bump(table, name, amount=1):
    table[name] = table.get(name, 0) + amount


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_query = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.phases = {}
        self.counts = Counts()
        self.query = -1
        self._stack = []  # frames: [name, span id, start, child time]
        self._next_span = 0
        self._last_exhaustion = None
        self._saved = []

    def set_phase(self, phase):
        self.counts = self.phases[phase] = Counts()

    # -- span bookkeeping --

    def _enter(self, name):
        self._next_span += 1
        self._stack.append([name, self._next_span, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        name, sid, start, child = self._stack.pop()
        dur = end - start
        _bump(self.counts.self_s, name, dur - child)
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            parent_sid = parent[1]
        else:
            parent_sid = 0
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_parent.append(parent_sid)
        self.span_query.append(self.query)
        self.span_start.append(start)
        self.span_end.append(end)

    def _raised(self, name, exc):
        _bump(self.counts.raised, name)
        # one exhaustion passes through several wrapped frames; count it once
        if isinstance(exc, TooLargeError) and exc is not self._last_exhaustion:
            self._last_exhaustion = exc
            self.counts.budget_exhausted += 1

    def _call(self, name, fn, args, kwargs):
        _bump(self.counts.calls, name)
        self._enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._raised(name, exc)
            raise
        finally:
            self._exit()
        if result is True:
            _bump(self.counts.true_results, name)
        elif type(result) is int:
            _bump(self.counts.int_results, name, result)
        return result

    def _steps(self, name, gen):
        try:
            while True:
                self._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException as exc:
                    self._raised(name, exc)
                    raise
                finally:
                    self._exit()
                _bump(self.counts.yields, name)
                yield item
        finally:
            gen.close()

    # -- wrappers --

    def _wrap(self, name, fn, field_split):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                _bump(tracer.counts.calls, name)
                return tracer._steps(name, fn(*args, **kwargs))
        elif field_split:
            by_field = {fields.PrimeField: name + ".fp", fields.RationalField: name + ".q"}
            no_field = name + ".none"

            def wrapper(*args, **kwargs):
                label = by_field.get(type(args[0]), no_field) if args else no_field
                return tracer._call(label, fn, args, kwargs)
        elif name == "grassmann.interpolate_counts":
            def wrapper(count_fn, *args, **kwargs):
                def counted(p):
                    _bump(tracer.counts.calls, COUNT_FN)
                    return count_fn(p)
                return tracer._call(name, fn, (counted,) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, module in MODULES.items():
            for fname in _public_functions(module, EXTRA_FUNCTIONS.get(mod_name, ())):
                fn = getattr(module, fname)
                self._saved.append((module, fname, fn))
                setattr(module, fname, self._wrap(f"{mod_name}.{fname}", fn,
                                                  field_split=module is linalg))
        for cls_name, (cls, methods) in CLASS_METHODS.items():
            for mname in methods:
                fn = cls.__dict__[mname]
                self._saved.append((cls, mname, fn))
                setattr(cls, mname, self._wrap(f"{cls_name}.{mname}", fn, False))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # -- output --

    def span_count(self):
        return len(self.span_id)

    def write_spans(self, path):
        """Binary dump in native byte order: two uint32 (name-table bytes, span
        count), the newline-separated name table, then one column after the
        other: span id (int64), name index (int32), parent span id (int64, 0
        at the root), query index (int32, -1 during set-up), start and end
        (float64 perf_counter seconds)."""
        names = "\n".join(self.names).encode()
        with open(path, "wb") as fh:
            fh.write(struct.pack("=II", len(names), self.span_count()))
            fh.write(names)
            for column in (self.span_id, self.span_name, self.span_parent,
                           self.span_query, self.span_start, self.span_end):
                column.tofile(fh)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of the traced query round (`functors.root_table.self_s`
    covers the traced set-up, where the root-module tables are built)."""
    c = tracer.phases["queries"]
    setup = tracer.phases["setup"]
    g = "grassmann."
    iso = "hmod.is_isomorphic"
    lf_candidates = c.get("yields", g + "iter_free_submodules")
    lf_submodules = (c.get("int_results", g + "count_locally_free_submodules")
                     + c.get("yields", g + "_iter_lf_submodules"))
    fits = c.get("calls", g + "interpolate_counts")

    def linalg_total(column, tag):
        return c.total(column, lambda n: n.startswith("linalg.") and n.endswith("." + tag))

    def self_of(*names):
        return float(sum(c.get("self_s", n) for n in names))

    values = {
        "linalg.q.calls": (linalg_total("calls", "q"), "count"),
        "linalg.q.self_s": (float(linalg_total("self_s", "q")), "s"),
        "linalg.fp.calls": (linalg_total("calls", "fp"), "count"),
        "linalg.fp.self_s": (float(linalg_total("self_s", "fp")), "s"),
        "hmod.is_isomorphic.calls": (c.get("calls", iso), "count"),
        "hmod.is_isomorphic.self_s": (self_of(iso), "s"),
        "hmod.is_isomorphic.true_frac": (_ratio(c.get("true_results", iso),
                                                c.get("calls", iso)), "ratio"),
        "hmod.is_isomorphic.raised": (c.get("raised", iso), "count"),
        "hmod.hom_basis.calls": (c.get("calls", "hmod.hom_basis"), "count"),
        "hmod.hom_basis.self_s": (self_of("hmod.hom_basis"), "s"),
        "hmod.subquot.calls": (c.get("calls", "hmod.submodule_from_subspaces")
                               + c.get("calls", "hmod.quotient_by_subspaces"), "count"),
        "hmod.subquot.self_s": (self_of("hmod.submodule_from_subspaces",
                                        "hmod.quotient_by_subspaces"), "s"),
        "grassmann.lf_candidates": (lf_candidates, "count"),
        "grassmann.lf_submodules": (lf_submodules, "count"),
        "grassmann.lf_accept_frac": (_ratio(lf_submodules, lf_candidates), "ratio"),
        "grassmann.rank1_generators": (c.get("yields", g + "iter_free_rank1_generators"),
                                       "count"),
        "grassmann.candidates.self_s": (self_of(g + "iter_free_submodules",
                                                g + "iter_free_rank1_generators"), "s"),
        "grassmann.count_lf.self_s": (self_of(g + "count_locally_free_submodules"), "s"),
        "grassmann.flag.self_s": (self_of(g + "Counter.bottom_e_groups",
                                          g + "Counter.flag_count"), "s"),
        "grassmann.classflag.self_s": (self_of(g + "ClassFlagCounter._sub_groups",
                                               g + "ClassFlagCounter.count",
                                               g + "_iter_lf_submodules"), "s"),
        "grassmann.budget_exhausted": (c.budget_exhausted, "count"),
        "grassmann.interp.fits": (fits, "count"),
        "grassmann.interp.primes_per_fit": (_ratio(c.get("calls", COUNT_FN), fits), "count"),
        "grassmann.interp.self_s": (self_of(g + "interpolate_counts",
                                            "linalg.lagrange_interpolate.none",
                                            "linalg.poly_eval.none"), "s"),
        "functors.root_table.self_s": (float(setup.total(
            "self_s", lambda n: n.startswith("functors."))), "s"),
        "pimod.generate.self_s": (self_of("pimod.random_E_filtered"), "s"),
        "pimod.ext1.self_s": (self_of("pimod.ext1_pi"), "s"),
        "pimod.filtered.self_s": (self_of("pimod.is_E_filtered"), "s"),
        "pimod.crystal.self_s": (self_of("pimod.is_crystal_module"), "s"),
        "pimod.calls": (c.total("calls", lambda n: n.startswith("pimod.")), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
