"""Span tracer that wraps public pqgalerkin entry points from outside.

Spans record a name, start, end and parent, live in memory, and are written
once when the run ends.  Every wrap is undone by `restore`.  A target that no
longer exists is recorded in `missing` with a note instead of raising, so the
metrics it feeds are reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _level_attrs(result, err) -> dict:
    if err is not None:
        diag = getattr(err, "diagnostics", {}) or {}
        return {"solved": False, "iterations": int(diag.get("iterations", 0)),
                "path": str(diag.get("path", ""))}
    return {"solved": True, "iterations": int(getattr(result, "iterations", 0)),
            "path": str(getattr(result, "path", ""))}


def _certify_attrs(result, err) -> dict:
    if err is not None:
        return {}
    certs = result.get("certificates", [])
    return {"certificates": len(certs),
            "failed": sum(1 for c in certs
                          if not c.get("passed") and not c.get("skipped"))}


def _mesh_attrs(result, err) -> dict:
    return {} if err is not None else {"cells": getattr(result, "n_cells", 0)}


# (span name, module, attribute path, options).  `inside` skips calls made
# outside an open span of that name; `rss` records the peak-RSS growth over
# the call; `attrs` reads counts off the result or the exception.
TARGETS = [
    ("cli.config", "pqgalerkin.cli", "load_config", {}),
    ("cli.config", "pqgalerkin.cli", "build_problem", {}),
    ("galerkin.hierarchy", "pqgalerkin.galerkin", "run_hierarchy", {}),
    ("mesh.refine", "pqgalerkin.mesh", "build_mesh", {"attrs": _mesh_attrs}),
    ("mesh.refine", "pqgalerkin.mesh", "refine", {"attrs": _mesh_attrs}),
    ("fespace.space", "pqgalerkin.fespace", "FeSpace.__init__", {}),
    ("fespace.prolongate", "pqgalerkin.fespace", "prolongate", {}),
    ("fespace.write_csv", "pqgalerkin.fespace", "write_csv", {}),
    ("estimates.compute", "pqgalerkin.estimates", "compute_estimates", {}),
    ("galerkin.level", "pqgalerkin.galerkin", "solve_level",
     {"attrs": _level_attrs}),
    ("galerkin.guard", "pqgalerkin.galerkin", "brouwer_guard", {"rss": True}),
    ("galerkin.linsolve", "numpy.linalg", "solve",
     {"inside": "galerkin.level"}),
    ("galerkin.linsolve", "numpy.linalg", "lstsq",
     {"inside": "galerkin.level"}),
    ("galerkin.linsolve", "scipy.sparse.linalg", "spsolve",
     {"inside": "galerkin.level"}),
    ("galerkin.linsolve", "scipy.sparse.linalg", "splu",
     {"inside": "galerkin.level"}),
    ("galerkin.linsolve", "scipy.sparse.linalg", "factorized",
     {"inside": "galerkin.level"}),
    ("operators.residual", "pqgalerkin.galerkin", "ProblemOperator.residual",
     {}),
    ("operators.pairing", "pqgalerkin.galerkin", "ProblemOperator.pairing",
     {}),
    ("verify.certify", "pqgalerkin.verify", "run_certificates",
     {"rss": True, "attrs": _certify_attrs}),
    ("verify.weak_demo", "pqgalerkin.verify", "weak_implies_generalized_demo",
     {}),
    ("verify.monotonicity", "pqgalerkin.verify",
     "check_monotonicity_inequalities", {}),
    ("verify.truncation", "pqgalerkin.verify", "check_truncation_consistency",
     {}),
]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.wrapped: set = set()
        self.missing: List[str] = []
        self._stack: List[Span] = []
        self._open_names: Dict[str, int] = {}
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        self._open_names[name] = self._open_names.get(name, 0) + 1
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._open_names[span.name] -= 1

    def _wrapper(self, name: str, fn: Callable, opts: dict) -> Callable:
        inside = opts.get("inside")
        want_rss = opts.get("rss", False)
        read_attrs = opts.get("attrs")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inside is not None and not self._open_names.get(inside):
                return fn(*args, **kwargs)
            span = self.open(name)
            rss0 = rss_mb() if want_rss else 0.0
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                self.close(span)
                if want_rss:
                    span.attrs["rss_growth_mb"] = rss_mb() - rss0
                if read_attrs is not None:
                    span.attrs.update(read_attrs(result, error))
        return traced

    # -- patching ------------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for name, module_name, path, opts in targets:
            key = f"{module_name}.{path}"
            try:
                module = importlib.import_module(module_name)
                owner = module
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                attr = parts[-1]
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError) as err:
                self.missing.append(f"wrap target {key} not found "
                                    f"({type(err).__name__}: {err})")
                continue
            self.wrapped.add(name)
            wrapped = self._wrapper(name, original, opts)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped, original)
                continue
            # `from x import f` copies the reference: rebind it everywhere
            # in the package and in the defining module.
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod is not owner and not mod_name.startswith("pqgalerkin"):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, alias, wrapped, original)

    def _set(self, owner, attr: str, value, original) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        payload = {"spans": [vars(s) for s in self.spans],
                   "wrapped": sorted(self.wrapped), "missing": self.missing}
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from a span file
# ---------------------------------------------------------------------------

# metric -> (unit, span names it needs); a metric whose spans were not
# wrapped is reported as missing.
LAYER_METRICS = {
    "galerkin.guard_s": ("s", ["galerkin.guard"]),
    "galerkin.guard_rss_growth_mb": ("MB", ["galerkin.guard"]),
    "galerkin.linsolve_s": ("s", ["galerkin.linsolve"]),
    "galerkin.linsolve_calls": ("count", ["galerkin.linsolve"]),
    "operators.residual_s": ("s", ["operators.residual"]),
    "operators.residual_calls": ("count", ["operators.residual"]),
    "operators.pairing_s": ("s", ["operators.pairing"]),
    "operators.pairing_calls": ("count", ["operators.pairing"]),
    "galerkin.newton_self_s": ("s", ["galerkin.level"]),
    "galerkin.newton_iterations": ("count", ["galerkin.level"]),
    "galerkin.residuals_per_iteration": (
        "ratio", ["galerkin.level", "operators.residual"]),
    "galerkin.levels_attempted": ("count", ["galerkin.level"]),
    "galerkin.levels_solved": ("count", ["galerkin.level"]),
    "galerkin.fallback_levels": ("count", ["galerkin.level"]),
    "galerkin.hierarchy_s": ("s", ["galerkin.hierarchy"]),
    "galerkin.tables_s": ("s", ["galerkin.hierarchy"]),
    "fespace.prolongate_s": ("s", ["fespace.prolongate"]),
    "fespace.prolongate_calls": ("count", ["fespace.prolongate"]),
    "verify.certify_s": ("s", ["verify.certify"]),
    "verify.weak_demo_s": ("s", ["verify.weak_demo"]),
    "verify.monotonicity_s": ("s", ["verify.monotonicity"]),
    "verify.truncation_s": ("s", ["verify.truncation"]),
    "verify.rss_growth_mb": ("MB", ["verify.certify"]),
    "verify.certificates": ("count", ["verify.certify"]),
    "verify.certificates_failed": ("count", ["verify.certify"]),
    "estimates.compute_s": ("s", ["estimates.compute"]),
    "mesh.refine_s": ("s", ["mesh.refine"]),
    "mesh.cells": ("count", ["mesh.refine"]),
    "fespace.space_s": ("s", ["fespace.space"]),
    "fespace.write_csv_s": ("s", ["fespace.write_csv"]),
    "cli.self_s": ("s", []),
    "cli.config_s": ("s", ["cli.config"]),
}


def layer_metrics(spans: List[dict], wrapped: List[str],
                  missing: List[str]) -> tuple:
    """Return ({metric: value}, notes) for one traced verify.

    The root span is `cli`; self times of all spans sum to its duration, so
    the self-time metrics plus `cli.self_s` account for the traced verify_s.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])

    def self_time(s) -> float:
        return s["end"] - s["start"] - child_time.get(s["id"], 0.0)

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total_self(name) -> float:
        return sum(self_time(s) for s in of(name))

    def has_ancestor(s, name) -> bool:
        pid = s["parent"]
        while pid is not None:
            if by_id[pid]["name"] == name:
                return True
            pid = by_id[pid]["parent"]
        return False

    levels = [s["attrs"] for s in of("galerkin.level")]
    iterations = sum(a.get("iterations", 0) for a in levels)
    level_residuals = sum(1 for s in of("operators.residual")
                          if has_ancestor(s, "galerkin.level"))
    certify = [s["attrs"] for s in of("verify.certify")]
    values = {
        "galerkin.guard_s": total_self("galerkin.guard"),
        "galerkin.guard_rss_growth_mb": sum(
            s["attrs"].get("rss_growth_mb", 0.0) for s in of("galerkin.guard")),
        "galerkin.linsolve_s": total_self("galerkin.linsolve"),
        "galerkin.linsolve_calls": len(of("galerkin.linsolve")),
        "operators.residual_s": total_self("operators.residual"),
        "operators.residual_calls": len(of("operators.residual")),
        "operators.pairing_s": total_self("operators.pairing"),
        "operators.pairing_calls": len(of("operators.pairing")),
        "galerkin.newton_self_s": total_self("galerkin.level"),
        "galerkin.newton_iterations": iterations,
        "galerkin.residuals_per_iteration":
            level_residuals / max(iterations, 1),
        "galerkin.levels_attempted": len(levels),
        "galerkin.levels_solved": sum(1 for a in levels if a.get("solved")),
        "galerkin.fallback_levels": sum(
            1 for a in levels if a.get("path") == "load-continuation"),
        "galerkin.hierarchy_s": sum(s["end"] - s["start"]
                                    for s in of("galerkin.hierarchy")),
        "galerkin.tables_s": total_self("galerkin.hierarchy"),
        "fespace.prolongate_s": total_self("fespace.prolongate"),
        "fespace.prolongate_calls": len(of("fespace.prolongate")),
        "verify.certify_s": total_self("verify.certify"),
        "verify.weak_demo_s": total_self("verify.weak_demo"),
        "verify.monotonicity_s": total_self("verify.monotonicity"),
        "verify.truncation_s": total_self("verify.truncation"),
        "verify.rss_growth_mb": sum(s["attrs"].get("rss_growth_mb", 0.0)
                                    for s in of("verify.certify")),
        "verify.certificates": sum(a.get("certificates", 0) for a in certify),
        "verify.certificates_failed": sum(a.get("failed", 0) for a in certify),
        "estimates.compute_s": total_self("estimates.compute"),
        "mesh.refine_s": total_self("mesh.refine"),
        "mesh.cells": sum(s["attrs"].get("cells", 0) for s in of("mesh.refine")),
        "fespace.space_s": total_self("fespace.space"),
        "fespace.write_csv_s": total_self("fespace.write_csv"),
        "cli.self_s": total_self("cli"),
        "cli.config_s": total_self("cli.config"),
    }
    notes = list(missing)
    for metric, (_, needs) in LAYER_METRICS.items():
        if any(name not in wrapped for name in needs):
            values.pop(metric)
            notes.append(f"{metric} missing: a span it needs was not wrapped")
    return values, notes
