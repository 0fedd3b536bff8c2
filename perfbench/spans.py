"""In-memory span tracer that wraps the program's public functions from outside.

Each wrapped name records a span (id, name, parent, start, end) around the
call.  Names are wrapped where the caller looks them up: ``cli``,
``sigma_harmonic`` and ``homogenization`` import functions by name, so the
wrapper goes into their namespaces; ``elliptic_solver`` calls
``spla.splu`` through the module, so the wrapper goes onto
``scipy.sparse.linalg``.  Spans are recorded only inside a ``cli.sweep``
span, so code that runs between sweeps (the output checks) leaves no trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from time import perf_counter

ROOT = "cli.sweep"

# (module, attribute, span name) for every wrapped lookup site.
SITES = [
    ("beltramilab.cli", "sweep", ROOT),
    ("beltramilab.cli", "run", "cli.run"),
    ("beltramilab.cli", "build_mesh", "grid.build_mesh"),
    ("beltramilab.cli", "dyadic_squares", "grid.dyadic_squares"),
    ("beltramilab.cli", "export_vertices_csv", "grid.export"),
    ("beltramilab.cli", "export_triangles_csv", "grid.export"),
    ("beltramilab.cli", "export_vertex_values_csv", "grid.export"),
    ("beltramilab.cli", "export_element_values_csv", "grid.export"),
    ("beltramilab.cli", "write_csv", "grid.export"),
    ("beltramilab.weights_diagnostics", "write_csv", "grid.export"),
    ("beltramilab.coefficients", "constant_field", "coefficients.build"),
    ("beltramilab.coefficients", "hall_field", "coefficients.build"),
    ("beltramilab.coefficients", "laminate_field", "coefficients.build"),
    ("beltramilab.coefficients", "checkerboard_field", "coefficients.build"),
    ("beltramilab.coefficients", "hall_laminate_field", "coefficients.build"),
    ("beltramilab.coefficients", "random_piecewise_field", "coefficients.build"),
    ("beltramilab.coefficients", "explicit_field", "coefficients.build"),
    ("beltramilab.elliptic_solver", "validate_coefficient", "elliptic_solver.validate"),
    ("beltramilab.elliptic_solver", "solve_dirichlet", "elliptic_solver.solve_dirichlet"),
    ("beltramilab.sigma_harmonic", "solve_dirichlet", "elliptic_solver.solve_dirichlet"),
    ("beltramilab.cli", "solve_dirichlet", "elliptic_solver.solve_dirichlet"),
    ("beltramilab.elliptic_solver", "solve_periodic_cell", "elliptic_solver.solve_periodic_cell"),
    ("beltramilab.homogenization", "solve_periodic_cell", "elliptic_solver.solve_periodic_cell"),
    ("beltramilab.elliptic_solver", "stream_function", "elliptic_solver.stream_function"),
    ("beltramilab.sigma_harmonic", "stream_function", "elliptic_solver.stream_function"),
    ("beltramilab.homogenization", "stream_function", "elliptic_solver.stream_function"),
    ("beltramilab.cli", "primary_pair", "sigma_harmonic.primary_pair"),
    ("beltramilab.cli", "injectivity_check", "sigma_harmonic.injectivity"),
    ("beltramilab.sigma_harmonic", "injectivity_check", "sigma_harmonic.injectivity"),
    ("beltramilab.homogenization", "injectivity_check", "sigma_harmonic.injectivity"),
    ("beltramilab.cli", "equival_residual", "sigma_harmonic.identities"),
    ("beltramilab.cli", "beltrami_residual", "sigma_harmonic.identities"),
    ("beltramilab.cli", "wirtinger_exact", "sigma_harmonic.identities"),
    ("beltramilab.cli", "change_coordinates", "sigma_harmonic.change_coordinates"),
    ("beltramilab.cli", "cell_map", "homogenization.cell_map"),
    ("beltramilab.cli", "cell_complex_map", "homogenization.cell_complex_map"),
    ("beltramilab.cli", "ainfty_probe", "weights_diagnostics.ainfty_probe"),
    ("beltramilab.cli", "square_stats", "weights_diagnostics.square_stats"),
    ("beltramilab.cli", "bmo_norm", "weights_diagnostics.bmo_rh"),
    ("beltramilab.cli", "reverse_holder_constant", "weights_diagnostics.bmo_rh"),
    ("beltramilab.cli", "higher_integrability_probe", "weights_diagnostics.probes"),
    ("beltramilab.cli", "quantitative_jacobian_check", "weights_diagnostics.probes"),
]

SOLVER_SPANS = ("elliptic_solver.solve_dirichlet", "elliptic_solver.solve_periodic_cell",
                "elliptic_solver.stream_function")

# Per-layer metrics, in report order, with their units.
UNITS = {
    "lu.factorizations": "count",
    "lu.factor_s": "s",
    "lu.fill_mnz": "Mnnz",
    "lu.solve_s": "s",
    "elliptic_solver.solves": "count",
    "elliptic_solver.self_s": "s",
    "elliptic_solver.stream_s": "s",
    "elliptic_solver.validate_s": "s",
    "elliptic_solver.validate_calls": "count",
    "grid.build_mesh_s": "s",
    "grid.export_s": "s",
    "grid.dyadic_squares_s": "s",
    "coefficients.build_s": "s",
    "sigma_harmonic.primary_pair_s": "s",
    "sigma_harmonic.injectivity_s": "s",
    "sigma_harmonic.identities_s": "s",
    "sigma_harmonic.change_coordinates_s": "s",
    "homogenization.cell_map_s": "s",
    "homogenization.cell_complex_map_s": "s",
    "weights_diagnostics.ainfty_probe_s": "s",
    "weights_diagnostics.square_stats_s": "s",
    "weights_diagnostics.bmo_rh_s": "s",
    "weights_diagnostics.probes_s": "s",
    "cli.run_s": "s",
    "cli.self_s": "s",
}

# Per-layer self-time metric -> the span names whose self times it sums.
SELF_TIME_METRICS = {
    "lu.factor_s": ("lu.factor",),
    "lu.solve_s": ("lu.solve",),
    "elliptic_solver.self_s": SOLVER_SPANS,
    "elliptic_solver.validate_s": ("elliptic_solver.validate",),
    "grid.build_mesh_s": ("grid.build_mesh",),
    "grid.export_s": ("grid.export",),
    "grid.dyadic_squares_s": ("grid.dyadic_squares",),
    "coefficients.build_s": ("coefficients.build",),
    "sigma_harmonic.primary_pair_s": ("sigma_harmonic.primary_pair",),
    "sigma_harmonic.injectivity_s": ("sigma_harmonic.injectivity",),
    "sigma_harmonic.identities_s": ("sigma_harmonic.identities",),
    "sigma_harmonic.change_coordinates_s": ("sigma_harmonic.change_coordinates",),
    "homogenization.cell_map_s": ("homogenization.cell_map",),
    "homogenization.cell_complex_map_s": ("homogenization.cell_complex_map",),
    "weights_diagnostics.ainfty_probe_s": ("weights_diagnostics.ainfty_probe",),
    "weights_diagnostics.square_stats_s": ("weights_diagnostics.square_stats",),
    "weights_diagnostics.bmo_rh_s": ("weights_diagnostics.bmo_rh",),
    "weights_diagnostics.probes_s": ("weights_diagnostics.probes",),
    "cli.self_s": (ROOT, "cli.run"),
}
# Largest share of a sweep that may go to the self time of cli.sweep and
# cli.run; more means a hot path that no wrapped site covers.
MAX_CLI_SELF_SHARE = 0.05


class _TracedLU:
    """SuperLU stand-in whose ``solve`` records an ``lu.solve`` span."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        span = self._tracer.begin("lu.solve", nrhs=1 if rhs.ndim == 1 else rhs.shape[1])
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            self._tracer.end(span)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """Collects spans in memory; ``install`` wraps every site, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str, **attrs) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": perf_counter(), "end": None, **attrs}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack and name != ROOT:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        return traced

    def _wrap_splu(self, splu):
        tracer = self

        @functools.wraps(splu)
        def traced(A, *args, **kwargs):
            if not tracer._stack:
                return splu(A, *args, **kwargs)
            span = tracer.begin("lu.factor", n=int(A.shape[0]), nnz=int(A.nnz),
                                ordering=kwargs.get("permc_spec", "COLAMD"))
            try:
                lu = splu(A, *args, **kwargs)
            finally:
                tracer.end(span)
            # SuperLU.nnz counts the factors in place; reading .L or .U would copy them.
            span["fill"] = int(lu.nnz)
            return _TracedLU(lu, tracer)

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap(name, getattr(module, attr)))
        import scipy.sparse.linalg as spla

        self._patch(spla, "splu", self._wrap_splu(spla.splu))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _children(spans: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            out.setdefault(s["parent"], []).append(s)
    return out


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    kids = _children(spans)
    return {s["id"]: (s["end"] - s["start"]) - sum(c["end"] - c["start"] for c in kids.get(s["id"], []))
            for s in spans}


def subtree(spans: list[dict], root_id: int) -> list[dict]:
    """The span with id ``root_id`` and all spans below it (spans are in start order)."""
    inside = {root_id}
    out = []
    for s in spans:
        if s["id"] == root_id or s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out


def round_metrics(tree: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one sweep (``tree`` is one ``cli.sweep`` subtree)."""
    selves = self_times(tree)
    by_name: dict[str, list[dict]] = {}
    for s in tree:
        by_name.setdefault(s["name"], []).append(s)

    def total_self(names):
        return sum((selves[s["id"]] for n in names for s in by_name.get(n, [])), 0.0)

    def total_duration(name):
        return sum((s["end"] - s["start"] for s in by_name.get(name, [])), 0.0)

    out = {metric: total_self(names) for metric, names in SELF_TIME_METRICS.items()}
    factors = by_name.get("lu.factor", [])
    runs = by_name.get("cli.run", [])
    out.update({
        "lu.factorizations": len(factors),
        "lu.fill_mnz": sum(s["fill"] for s in factors) / 1e6,
        "elliptic_solver.solves": sum(len(by_name.get(n, [])) for n in SOLVER_SPANS),
        "elliptic_solver.stream_s": total_duration("elliptic_solver.stream_function"),
        "elliptic_solver.validate_calls": len(by_name.get("elliptic_solver.validate", [])),
        "cli.run_s": statistics.median(s["end"] - s["start"] for s in runs) if runs else 0.0,
    })
    return out


def round_problems(tree: list[dict], metrics: dict[str, float]) -> list[str]:
    """What shows that the self-time metrics of one sweep miss or misplace time.

    Every span name must feed one self-time metric, those metrics must add up
    to the sweep's duration, and the self time left in ``cli`` must stay small.
    """
    mapped = {n for names in SELF_TIME_METRICS.values() for n in names}
    problems = [f"span {name} feeds no self-time metric"
                for name in sorted({s["name"] for s in tree} - mapped)]
    sweep = tree[0]["end"] - tree[0]["start"]
    covered = sum(metrics[m] for m in SELF_TIME_METRICS)
    if abs(covered - sweep) > 1e-6 * max(1.0, sweep):
        problems.append(f"self-time metrics add up to {covered:.6f} s, the sweep took {sweep:.6f} s")
    if metrics["cli.self_s"] > MAX_CLI_SELF_SHARE * sweep:
        problems.append(f"cli self time {metrics['cli.self_s']:.3f} s is more than "
                        f"{MAX_CLI_SELF_SHARE:.0%} of the sweep ({sweep:.3f} s)")
    return problems


def per_layer_metrics(spans: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Median over sweeps of each per-layer metric, and the problems ``round_problems`` finds."""
    per_round, problems = [], []
    for root in (s for s in spans if s["name"] == ROOT):
        tree = subtree(spans, root["id"])
        metrics = round_metrics(tree)
        per_round.append(metrics)
        problems += round_problems(tree, metrics)
    medians = {name: statistics.median(m[name] for m in per_round) for name in UNITS}
    return medians, problems
