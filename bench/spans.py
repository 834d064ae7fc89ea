"""Span tracing of the ``rbsdelab`` layers, installed from outside the package.

:class:`Tracer` replaces the public functions of every ``rbsdelab``
module (and a few methods) with wrappers that record one span per call:
name, start, end, parent span, operation id and whether the call
returned normally.  A function imported by name into another module is
replaced there too, so calls between modules are seen.  Generator
callables are wrapped per driver as it enters a solver function.

Spans are kept in flat ``array`` columns (a few bytes each, since a
traced gate run records close to a million spans) and turned into
per-layer metrics by :func:`layer_metrics` after the run.
:meth:`Tracer.uninstall` restores every original object.
"""

import dataclasses
import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "lattice",
    "barriers",
    "drivers",
    "solver",
    "penalize",
    "snell",
    "oracle",
    "verify",
    "cli",
)

# methods that matter but are not module-level functions
_METHODS = {
    "lattice": {
        "AdaptedProcess": ("__init__",),
        "PredictableProcess": ("__init__",),
        "IncreasingProcess": ("__init__",),
    },
    "barriers": {"BarrierSet": ("__init__", "build")},
    "drivers": {"SemimartingaleSpec": ("reconstruct",)},
    "verify": {"CertificateLog": ("add",)},
    "cli": {"ScenarioConfig": ("__init__",)},
}

# 1 when the process stores the terminal level as well
_NODES_PER_PROCESS = {
    "AdaptedProcess": 1,
    "PredictableProcess": 0,
    "IncreasingProcess": 0,
}

# generator callables of a Driver: evaluated inside the implicit step
_GEN_FIELDS = ("f", "f_rest", "g", "penalty")
# per-level structural callables of a Driver
_STRUCT_FIELDS = ("quad", "source")


class Tracer:
    """Records spans at every wrapped boundary while installed."""

    def __init__(self):
        self._name_ids = {}  # span name -> id, in first-seen order
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.ok = array("b")
        self._stack = []
        self._op = -1
        self._ops = []
        self._saved = []
        self.nodes_built = 0.0
        self.nodes_solved = 0.0

    # ------------------------------------------------------------ recording

    def begin_op(self, label):
        """Start a new operation; later spans carry its id."""
        self._ops.append(label)
        self._op = len(self._ops) - 1

    def wrap(self, name, fn, on_call=None):
        """``fn`` recording a span named ``name`` per call; ``on_call``
        sees the positional arguments first."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        names, starts, ends = self.name, self.start, self.end
        parents, ops, oks, stack = self.parent, self.op, self.ok, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op)
            oks.append(0)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            if on_call is not None:
                on_call(args)
            starts[idx] = clock()
            try:
                out = fn(*args, **kwargs)
                oks[idx] = 1
                return out
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def traced_driver(self, driver):
        """Copy of ``driver`` whose callables record spans."""
        if getattr(driver, "_bench_traced", False):
            return driver
        changes = {}
        for field in _GEN_FIELDS + _STRUCT_FIELDS:
            fn = getattr(driver, field)
            if fn is not None:
                kind = "gen" if field in _GEN_FIELDS else "struct"
                changes[field] = self.wrap(f"drivers.{kind}", fn)
        out = dataclasses.replace(driver, **changes)
        object.__setattr__(out, "_bench_traced", True)
        return out

    # --------------------------------------------------------- installation

    def install(self, package, only=None):
        """Wrap the public functions of every module of ``package``.

        ``only`` restricts the wrapping to the listed span names.
        """

        def wanted(name):
            return only is None or name in only

        mods = {
            layer: sys.modules[f"{package.__name__}.{layer}"]
            for layer in LAYERS
        }
        replacements = {}
        for layer, mod in mods.items():
            for attr, obj in inspect.getmembers(mod, inspect.isfunction):
                name = f"{layer}.{attr}"
                if (
                    not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and wanted(name)
                ):
                    wrapped = self.wrap(name, obj)
                    if layer == "solver":
                        wrapped = self._with_traced_drivers(
                            wrapped, mods["drivers"].Driver
                        )
                    replacements[id(obj)] = (obj, wrapped)
        # rebind every module-level reference to a wrapped function
        for mod in list(mods.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, classes in _METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[layer], cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    if not wanted(name):
                        continue
                    raw = cls.__dict__[meth]
                    self._saved.append((cls, meth, raw))
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw, self._hook(cls_name)))

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def _with_traced_drivers(self, fn, driver_type):
        def call(*args, **kwargs):
            args = tuple(
                self.traced_driver(a) if isinstance(a, driver_type) else a
                for a in args
            )
            for k, v in kwargs.items():
                if isinstance(v, driver_type):
                    kwargs[k] = self.traced_driver(v)
            return fn(*args, **kwargs)

        return functools.wraps(fn)(call)

    def _hook(self, cls_name):
        """Node counter for a constructor or for an audited solve."""
        if cls_name == "CertificateLog":
            # args = (log, solution): a backward pass over levels 0..N-1
            def solved(args):
                n = args[1].lattice.steps
                self.nodes_solved += n * (n + 1) / 2.0

            return solved
        extra_level = _NODES_PER_PROCESS.get(cls_name)
        if extra_level is None:
            return None

        # args = (process, lattice, levels): level i holds i + 1 nodes;
        # adapted processes store the terminal level too
        def built(args):
            n = args[1].steps - 1 + extra_level
            self.nodes_built += (n + 1) * (n + 2) / 2.0

        return built

    # ---------------------------------------------------------------- output

    def frame(self):
        """The spans as numpy columns plus the name and operation tables."""
        return {
            "names": list(self._name_ids),
            "ops": list(self._ops),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "ok": np.frombuffer(self.ok, dtype=np.int8).copy(),
        }


class SpanTable:
    """Inclusive and self time per span name, from a :meth:`Tracer.frame`."""

    def __init__(self, frame):
        self.names = frame["names"]
        self.ops = frame["ops"]
        self.name = frame["name"]
        self.parent = frame["parent"]
        self.op = frame["op"]
        self.ok = frame["ok"].astype(bool)
        dur = (frame["end"] - frame["start"]).astype(float) * 1e-9
        self.dur = dur
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent],
            weights=dur[has_parent],
            minlength=dur.size,
        )
        self.self_time = dur - covered[: dur.size]
        # a span directly inside a span of the same metric (BarrierSet.build
        # calling BarrierSet.__init__) is not counted twice
        groups = {}
        group = np.array(
            [groups.setdefault(_METRIC_OF.get(n, n), len(groups)) for n in self.names],
            dtype=np.int64,
        )
        same = np.zeros(dur.size, dtype=bool)
        same[has_parent] = (
            group[self.name[has_parent]] == group[self.name[self.parent[has_parent]]]
        )
        self.outer = ~same

    def _mask(self, span_names, op=None):
        ids = [i for i, n in enumerate(self.names) if n in span_names]
        mask = np.isin(self.name, ids)
        if op is not None:
            mask &= self.op == op
        return mask

    def total(self, span_names, op=None):
        """Inclusive seconds over the outermost spans of these names."""
        m = self._mask(span_names, op) & self.outer
        return float(self.dur[m].sum())

    def count(self, span_names, op=None, ok_only=False):
        m = self._mask(span_names, op) & self.outer
        if ok_only:
            m &= self.ok
        return int(m.sum())

    def layer_self(self, layer):
        prefix = layer + "."
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return float(self.self_time[np.isin(self.name, ids)].sum())


# span names grouped under one metric; anything unlisted is its own group
_GROUPS = {
    "lattice.process_init": (
        "lattice.AdaptedProcess.__init__",
        "lattice.PredictableProcess.__init__",
        "lattice.IncreasingProcess.__init__",
    ),
    "lattice.expect_slope": (
        "lattice.expectation_level",
        "lattice.increment_level",
    ),
    "barriers.build": ("barriers.BarrierSet.build", "barriers.BarrierSet.__init__"),
    "barriers.merge": ("barriers.effective_barriers",),
    "barriers.envelope": (
        "barriers.envelope_profile",
        "barriers.envelope_n",
        "barriers.envelope_star_profile",
        "barriers.envelope_star",
    ),
    "drivers.gen": ("drivers.gen",),
    "drivers.dominated_build": ("drivers.build_dominated_driver",),
    "drivers.reconstruct": ("drivers.SemimartingaleSpec.reconstruct",),
    "solver.solve": ("solver.solve_rbsde",),
    "solver.budget": ("solver.budget_defect",),
    "solver.comparison": ("solver.comparison_check",),
    "penalize.family": (
        "penalize.build_family",
        "penalize.squeeze_limits",
    ),
    "penalize.penalized_solve": (
        "penalize.solve_penalized_lower",
        "penalize.solve_penalized_upper",
    ),
    "penalize.reduce": ("penalize.reduce_and_solve",),
    "penalize.exact_limits": ("penalize.exact_squeeze_barriers",),
    "snell.envelope": (
        "snell.snell_envelope",
        "snell.snell_lebesgue",
        "snell.snell_stopping_time_atom",
    ),
    "oracle.stopping": (
        "oracle.exhaustive_stopping_value",
        "oracle.stopping_rule_value",
    ),
    "oracle.dynkin": ("oracle.exhaustive_dynkin_value",),
    "oracle.envelope_bf": ("oracle.envelope_brute_force",),
    "oracle.closed_form": ("oracle.quadratic_closed_form",),
    "cli.parse": ("cli.load_config",),
    "cli.build": ("cli.ScenarioConfig.__init__",),
    "cli.run": (
        "cli.run_solve",
        "cli.run_penalize",
        "cli.run_snell",
        "cli.run_envelope",
        "cli.run_verify",
    ),
    "cli.write": (
        "cli.write_solution_csv",
        "cli.write_convergence_csv",
        "cli.write_envelope_csv",
        "cli.write_verify_csv",
        "cli.write_manifest",
    ),
}
_METRIC_OF = {n: g for g, names in _GROUPS.items() for n in names}

VERIFY_SUITES = {
    "c1": "verify.verify_envelope",
    "c2": "verify.verify_constraint_equivalence",
    "c3": "verify.verify_snell",
    "c4": "verify.verify_dynkin",
    "c5": "verify.verify_quadratic",
    "c6": "verify.verify_sandwich",
    "c7": "verify.verify_reduction",
    "c8": "verify.certificate_report",
    "c9": "verify.verify_comparison",
    "c10": "verify.verify_budget",
}


def layer_metrics(table, nodes_built):
    """Every per-layer metric a traced run reports, from its span table."""
    g = _GROUPS
    m = {
        "lattice.process_init_s": (table.total(g["lattice.process_init"]), "s"),
        "lattice.process_inits": (table.count(g["lattice.process_init"]), "count"),
        "lattice.expect_slope_s": (table.total(g["lattice.expect_slope"]), "s"),
        "lattice.expect_slope_calls": (
            table.count(g["lattice.expect_slope"]),
            "count",
        ),
        "lattice.nodes_built": (nodes_built, "count"),
        "barriers.build_s": (table.total(g["barriers.build"]), "s"),
        "barriers.builds": (table.count(g["barriers.build"]), "count"),
        "barriers.merge_s": (table.total(g["barriers.merge"]), "s"),
        "barriers.merge_calls": (table.count(g["barriers.merge"]), "count"),
        "barriers.envelope_s": (table.total(g["barriers.envelope"]), "s"),
        "drivers.gen_evals": (table.count(g["drivers.gen"]), "count"),
        "drivers.gen_s": (table.total(g["drivers.gen"]), "s"),
        "drivers.dominated_builds": (
            table.count(g["drivers.dominated_build"]),
            "count",
        ),
        "drivers.reconstruct_calls": (
            table.count(g["drivers.reconstruct"]),
            "count",
        ),
        "drivers.reconstruct_s": (table.total(g["drivers.reconstruct"]), "s"),
        "solver.solves": (table.count(g["solver.solve"]), "count"),
        "solver.budget_s": (table.total(g["solver.budget"]), "s"),
        "solver.comparison_s": (table.total(g["solver.comparison"]), "s"),
        "penalize.family_s": (table.total(g["penalize.family"]), "s"),
        "penalize.penalized_solves": (
            table.count(g["penalize.penalized_solve"]),
            "count",
        ),
        "penalize.reduce_s": (table.total(g["penalize.reduce"]), "s"),
        "penalize.exact_limits_s": (table.total(g["penalize.exact_limits"]), "s"),
        "snell.envelope_s": (table.total(g["snell.envelope"]), "s"),
        "snell.solves": (table.count(g["snell.envelope"]), "count"),
        "oracle.stopping_s": (table.total(g["oracle.stopping"]), "s"),
        "oracle.dynkin_s": (table.total(g["oracle.dynkin"]), "s"),
        "oracle.envelope_bf_s": (table.total(g["oracle.envelope_bf"]), "s"),
        "oracle.closed_form_s": (table.total(g["oracle.closed_form"]), "s"),
        "cli.parse_s": (table.total(g["cli.parse"]), "s"),
        "cli.build_s": (table.total(g["cli.build"]), "s"),
        "cli.run_s": (table.total(g["cli.run"]), "s"),
        "cli.write_s": (table.total(g["cli.write"]), "s"),
    }
    attempted = table.count(g["oracle.dynkin"])
    useful = table.count(g["oracle.dynkin"], ok_only=True)
    m["oracle.dynkin_value_ratio"] = (
        useful / attempted if attempted else 0.0,
        "ratio",
    )
    # solve_rbsde minus the time its lattice, barriers and drivers children
    # cover: the implicit step's own arithmetic, the clamp and bookkeeping
    solve_ids = [i for i, n in enumerate(table.names) if n == "solver.solve_rbsde"]
    in_solve = np.isin(table.name, solve_ids)
    m["solver.self_s"] = (float(table.self_time[in_solve].sum()), "s")
    for suite, name in VERIFY_SUITES.items():
        m[f"verify.suite_s.{suite}"] = (table.total((name,)), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (table.layer_self(layer), "s")
    return m
