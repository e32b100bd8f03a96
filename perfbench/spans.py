"""Span tracing of rmplates from outside the package.

`Tracer.install()` rebinds the rmplates callables named in TARGETS (in every
rmplates namespace that imported them, and in the given caller modules) and
scipy's `eigsh`/`splu` to thin wrappers that record spans: kind, parent,
start and end.  The LU objects
`splu` returns are proxied so that each `.solve` is a span of its own, which
splits factorization from shift-invert operator applications inside
`eigsh`.  Spans stay in memory; `layer_metrics` turns them into self times
and counts keyed by module name.  `uninstall()` restores every binding.

Work done only for the trace (hashing matrices and meshes to count distinct
ones, building L and U to count fill) runs on a paused clock, so it appears
in neither the spans nor the traced pass time.
"""

import hashlib
import importlib
import sys
import time

import numpy as np

# (module, attribute) -> span kind; a class attribute is "Class.method"
TARGETS = {
    ("geometry", "build_rect_mesh"): "geometry",
    ("geometry", "build_interval_mesh"): "geometry",
    ("geometry", "build_thin_mesh"): "geometry",
    ("geometry", "split_quads"): "geometry",
    ("assemble", "element_batch"): "tabulate",
    ("assemble", "assemble"): "kernel",
    ("rm_system", "rm_local_matrices"): "kernel",
    ("thin_limit", "assemble_limit_pencil"): "kernel",
    ("assemble", "assemble_from_local"): "scatter",
    ("assemble", "SparseSymMatrix.full"): "mirror",
    ("spaces", "build_dofmap"): "dofmap",
    ("spaces", "stack_dofmaps"): "dofmap",
    ("spaces", "edge_table"): "dofmap",
    ("eigensolve", "solve_gep_smallest"): "solver",
    ("eigensolve", "solve_gep_largest"): "solver",
    ("eigensolve", "principal_angles"): "connect",
    ("thin_limit", "ConnectingSystem.__init__"): "connect",
    ("thin_limit", "ConnectingSystem.average_pair"): "connect",
    ("thin_limit", "ConnectingSystem.hdelta_gap_norm"): "connect",
    ("thin_limit", "ConnectingSystem.h0_norm"): "connect",
    ("thin_limit", "resolvent_gap"): "thin_limit",
    ("thin_limit", "solve_limit_source"): "thin_limit",
    ("rm_system", "sparse_solve"): "sparse_solve",
    ("rm_system", "assemble_rm_pencil"): "rm_system",
    ("rm_system", "solve_rm_source"): "rm_system",
    ("rm_system", "kernel_count"): "rm_system",
    ("biharmonic", "assemble_biharmonic_pencil"): "biharmonic",
    ("experiments", "sweep_thickness"): "driver",
    ("experiments", "sweep_delta"): "driver",
    ("experiments", "kernel_census"): "driver",
    ("experiments", "korn_constant"): "driver",
    ("experiments", "poincare_check"): "driver",
}

ARPACK_MODULE = "scipy.sparse.linalg._eigen.arpack.arpack"


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


class _LuProxy:
    """SuperLU stand-in whose `solve` is traced; all else is forwarded."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        with self._tracer.span("lu_solve"):
            return self._lu.solve(rhs, trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder with a clock that excludes trace bookkeeping."""

    def __init__(self):
        self.spans = []  # [kind, parent index, start, end, attrs]
        self._stack = []
        self._paused = 0.0
        self._patches = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def bookkeeping(self, fn, *args):
        """Run fn off the span clock."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._paused += time.perf_counter() - t0

    @property
    def bookkeeping_s(self) -> float:
        return self._paused

    def span(self, kind, **attrs):
        return _Span(self, kind, attrs)

    # -- installation ------------------------------------------------------
    def install(self, *callers):
        """Rebind the targets in rmplates and in the given caller modules."""
        pkg_modules = [m for name, m in sys.modules.items() if name == "rmplates" or name.startswith("rmplates.")]
        pkg_modules += callers
        for (mod_name, attr), kind in TARGETS.items():
            # a target the package no longer has is skipped; its metrics read 0
            module = importlib.import_module(f"rmplates.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None:
                    self._patch(cls, meth, self._wrap(getattr(cls, meth), kind))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(orig, kind)
            for m in pkg_modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, name, wrapped)

        import scipy.sparse.linalg as spla

        arpack = importlib.import_module(ARPACK_MODULE)
        self._patch(spla, "eigsh", self._wrap(spla.eigsh, "eigsh"))
        traced_splu = self._traced_splu(spla.splu)
        self._patch(spla, "splu", traced_splu)
        self._patch(arpack, "splu", traced_splu)

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, fn, kind):
        tracer = self

        def traced(*args, **kwargs):
            attrs = {}
            if kind == "tabulate":
                mesh = args[0]
                attrs["mesh"] = tracer.bookkeeping(_digest, mesh.nodes, mesh.elements)
            with tracer.span(kind, **attrs):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _traced_splu(self, splu):
        tracer = self

        def traced(A, *args, **kwargs):
            key = tracer.bookkeeping(lambda: _digest(*_sparse_parts(A)))
            with tracer.span("splu", matrix=key) as sp:
                lu = splu(A, *args, **kwargs)
            sp.attrs["fill"] = tracer.bookkeeping(lambda: int(lu.L.nnz + lu.U.nnz))
            return _LuProxy(lu, tracer)

        traced.__wrapped__ = splu
        return traced


def _sparse_parts(A):
    if not hasattr(A, "indptr"):
        A = A.tocsc()
    return np.asarray(A.indptr), np.asarray(A.indices), np.asarray(A.data)


class _Span:
    __slots__ = ("tracer", "kind", "attrs", "index")

    def __init__(self, tracer, kind, attrs):
        self.tracer = tracer
        self.kind = kind
        self.attrs = attrs

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append([self.kind, parent, t.now(), None, self.attrs])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][3] = t.now()
        t._stack.pop()
        return False


# per-layer metric names in report order; the *_s entries are self times and
# together partition the traced pass time
LAYER_METRICS = [
    "geometry.calls",
    "geometry.self_s",
    "assemble.tabulate_calls",
    "assemble.tabulate_s",
    "assemble.kernel_s",
    "assemble.scatter_calls",
    "assemble.scatter_s",
    "assemble.mirror_calls",
    "assemble.mirror_s",
    "assemble.per_mesh",
    "spaces.dofmap_calls",
    "spaces.dofmap_s",
    "eigensolve.calls",
    "eigensolve.factor_calls",
    "eigensolve.factor_s",
    "eigensolve.lu_fill",
    "eigensolve.factors_per_matrix",
    "eigensolve.refine_factor_calls",
    "eigensolve.opinv_applies",
    "eigensolve.opinv_s",
    "eigensolve.lanczos_s",
    "eigensolve.post_s",
    "rm_system.solve_calls",
    "rm_system.solve_factor_s",
    "rm_system.solve_lu_fill",
    "rm_system.solve_lu_solves",
    "rm_system.solve_lu_s",
    "rm_system.solve_self_s",
    "rm_system.self_s",
    "biharmonic.self_s",
    "thin_limit.connect_calls",
    "thin_limit.connect_s",
    "thin_limit.self_s",
    "experiments.driver_s",
    "bench.self_s",
]

# metrics the traced run adds to LAYER_METRICS
RUN_METRICS = ["trace.pass_s", "trace.bookkeeping_s", "trace.attributed", "trace.overhead", "growth_exp", "src.lines"]

_RATIOS = ("trace.overhead", "trace.attributed", "assemble.per_mesh", "eigensolve.factors_per_matrix")


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in _RATIOS:
        return "ratio"
    if name.endswith("lu_fill"):
        return "nnz"
    return {"src.lines": "lines", "growth_exp": "slope"}.get(name, "count")


# span kind -> (calls metric or None, self-time metric)
_SIMPLE = {
    "geometry": ("geometry.calls", "geometry.self_s"),
    "tabulate": ("assemble.tabulate_calls", "assemble.tabulate_s"),
    "kernel": (None, "assemble.kernel_s"),
    "scatter": ("assemble.scatter_calls", "assemble.scatter_s"),
    "mirror": ("assemble.mirror_calls", "assemble.mirror_s"),
    "dofmap": ("spaces.dofmap_calls", "spaces.dofmap_s"),
    "solver": ("eigensolve.calls", "eigensolve.post_s"),
    "eigsh": (None, "eigensolve.lanczos_s"),
    "sparse_solve": ("rm_system.solve_calls", "rm_system.solve_self_s"),
    "rm_system": (None, "rm_system.self_s"),
    "biharmonic": (None, "biharmonic.self_s"),
    "connect": ("thin_limit.connect_calls", "thin_limit.connect_s"),
    "thin_limit": (None, "thin_limit.self_s"),
    "driver": (None, "experiments.driver_s"),
    "op": (None, "bench.self_s"),
}


def layer_metrics(spans) -> dict:
    """Counts and self times per layer from a list of finished spans.

    Operations of the benchmark itself are spans of kind "op"; their self
    time is benchmark code between library calls.
    """
    out = {name: 0.0 for name in LAYER_METRICS}
    child_time = [0.0] * len(spans)
    for kind, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    meshes, matrices = set(), set()
    for i, (kind, parent, start, end, attrs) in enumerate(spans):
        self_s = end - start - child_time[i]
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][1]
        if kind == "splu":
            if "sparse_solve" in ancestors:
                out["rm_system.solve_factor_s"] += self_s
                out["rm_system.solve_lu_fill"] += attrs["fill"]
                continue
            out["eigensolve.factor_calls"] += 1
            out["eigensolve.factor_s"] += self_s
            out["eigensolve.lu_fill"] += attrs["fill"]
            matrices.add(attrs["matrix"])
            if "eigsh" not in ancestors:
                out["eigensolve.refine_factor_calls"] += 1
        elif kind == "lu_solve":
            if "eigsh" in ancestors:
                out["eigensolve.opinv_applies"] += 1
                out["eigensolve.opinv_s"] += self_s
            elif "sparse_solve" in ancestors:
                out["rm_system.solve_lu_solves"] += 1
                out["rm_system.solve_lu_s"] += self_s
            else:  # block inverse iteration of the cluster refinement
                out["eigensolve.post_s"] += self_s
        else:
            calls, self_name = _SIMPLE[kind]
            if calls:
                out[calls] += 1
            out[self_name] += self_s
            if kind == "tabulate":
                meshes.add(attrs["mesh"])
    out["assemble.per_mesh"] = out["assemble.scatter_calls"] / max(len(meshes), 1)
    out["eigensolve.factors_per_matrix"] = out["eigensolve.factor_calls"] / max(len(matrices), 1)
    return out
