"""Command line front end: estimate, solve, verify.

Configs are strict JSON: unknown keys are rejected so a typo cannot silently
fall back to a default.  All outputs are deterministic for a fixed config and
seed (sorted JSON keys, repr floats, no timestamps).

Exit codes: 0 success, 1 config or parse error, 2 hypothesis or regime
precondition violation, 3 level-solve failure, 4 certification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .estimates import CONVENTIONS, compute_estimates
from .fespace import FeSpace, jsonable, write_csv
from .galerkin import SolverConfig, run_hierarchy
from .mesh import Domain, MeshError, build_mesh
from .operators import (HypothesisViolation, Problem, adversarial_convection,
                        constant_convection, constant_weight,
                        quadratic_weight, saturating_convection,
                        zero_convection)
from .verify import run_certificates

__all__ = ["ConfigError", "load_config", "build_problem", "main"]


class ConfigError(ValueError):
    pass


def _check_keys(block: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(block: dict, key: str, where: str) -> float:
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number")
    return float(val)


def _build_domain(block: dict) -> Domain:
    _check_keys(block, {"kind", "bounds"}, {"kind", "bounds"},
                "problem.domain")
    kind = block["kind"]
    bounds = block["bounds"]
    if kind == "interval":
        if (not isinstance(bounds, list) or len(bounds) != 2):
            raise ConfigError("problem.domain.bounds: expected [a, b]")
        return Domain.interval(float(bounds[0]), float(bounds[1]))
    if kind == "rectangle":
        if (not isinstance(bounds, list) or len(bounds) != 2
                or any(not isinstance(b, list) or len(b) != 2 for b in bounds)):
            raise ConfigError(
                "problem.domain.bounds: expected [[ax, bx], [ay, by]]")
        (ax, bx), (ay, by) = bounds
        return Domain.rectangle(float(ax), float(bx), float(ay), float(by))
    raise ConfigError(f"problem.domain.kind: unknown kind {kind!r}")


def _build_weight(block: dict):
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("problem.weight: expected an object with a kind")
    kind = block["kind"]
    if kind == "constant":
        _check_keys(block, {"kind", "value"}, {"kind", "value"},
                    "problem.weight")
        return constant_weight(_number(block, "value", "problem.weight"))
    if kind == "quadratic":
        _check_keys(block, {"kind", "base", "coef"}, {"kind", "base"},
                    "problem.weight")
        coef = _number(block, "coef", "problem.weight") \
            if "coef" in block else 1.0
        return quadratic_weight(_number(block, "base", "problem.weight"), coef)
    raise ConfigError(f"problem.weight.kind: unknown kind {kind!r}")


def _build_convection(block: dict, p: float, a0: float):
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("problem.convection: expected an object with a kind")
    kind = block["kind"]
    where = "problem.convection"
    if kind == "zero":
        _check_keys(block, {"kind"}, {"kind"}, where)
        return zero_convection()
    if kind == "constant":
        _check_keys(block, {"kind", "value"}, {"kind", "value"}, where)
        return constant_convection(_number(block, "value", where))
    if kind == "saturating":
        _check_keys(block, {"kind", "alpha", "h_bound", "offset"},
                    {"kind"}, where)
        alpha = _number(block, "alpha", where) if "alpha" in block else 2.0
        h_bound = _number(block, "h_bound", where) if "h_bound" in block else 1.0
        offset = _number(block, "offset", where) if "offset" in block else 0.0
        return saturating_convection(p, alpha=alpha, h_bound=h_bound,
                                     offset=offset)
    if kind == "adversarial":
        _check_keys(block, {"kind"}, {"kind"}, where)
        return adversarial_convection(a0, p)
    raise ConfigError(f"problem.convection.kind: unknown kind {kind!r}")


def build_problem(block: dict) -> Problem:
    _check_keys(block,
                {"p", "q", "domain", "variant", "regime", "weight",
                 "convection"},
                {"p", "q", "domain", "weight", "convection"}, "problem")
    p = _number(block, "p", "problem")
    q = _number(block, "q", "problem")
    domain = _build_domain(block["domain"])
    weight = _build_weight(block["weight"])
    convection = _build_convection(block["convection"], p, weight.lower_bound)
    variant = block.get("variant", "competing")
    regime = block.get("regime", "H3")
    return Problem(p=p, q=q, domain=domain, weight=weight,
                   convection=convection, variant=variant, regime=regime)


def _build_solver(block: Optional[dict]) -> SolverConfig:
    if block is None:
        return SolverConfig()
    allowed = {"tolerance", "max_iterations", "continuation_steps",
               "homotopy_steps", "max_halvings", "regularization"}
    _check_keys(block, allowed, set(), "solver")
    kwargs = {}
    for key in allowed & set(block):
        val = block[key]
        if key in ("max_iterations", "continuation_steps", "homotopy_steps",
                   "max_halvings"):
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"solver.{key}: expected an integer")
            kwargs[key] = val
        else:
            kwargs[key] = _number(block, key, "solver")
    return SolverConfig(**kwargs)


def load_config(path: str) -> dict:
    text = Path(path).read_text()
    cfg = json.loads(text)
    _check_keys(cfg, {"problem", "mesh", "solver", "estimates", "output"},
                {"problem", "mesh"}, "config")
    _check_keys(cfg["mesh"], {"base_cells", "levels"},
                {"base_cells", "levels"}, "mesh")
    levels = cfg["mesh"]["levels"]
    if isinstance(levels, bool) or not isinstance(levels, int) or levels < 1:
        raise ConfigError("mesh.levels: expected a positive integer")
    base = cfg["mesh"]["base_cells"]
    if isinstance(base, list):
        if len(base) != 2 or any(isinstance(b, bool) or not isinstance(b, int)
                                 for b in base):
            raise ConfigError("mesh.base_cells: expected int or [nx, ny]")
        cfg["mesh"]["base_cells"] = tuple(base)
    elif isinstance(base, bool) or not isinstance(base, int):
        raise ConfigError("mesh.base_cells: expected int or [nx, ny]")
    est = cfg.get("estimates")
    if est is not None:
        _check_keys(est, {"convention", "sobolev_samples"}, set(), "estimates")
        if est.get("convention", "standard") not in CONVENTIONS:
            raise ConfigError(
                f"estimates.convention: expected one of {CONVENTIONS}")
    out = cfg.get("output")
    if out is not None:
        _check_keys(out, {"write_solutions", "write_diagnostics"}, set(),
                    "output")
        for key, val in out.items():
            if not isinstance(val, bool):
                raise ConfigError(f"output.{key}: expected a boolean")
    _build_solver(cfg.get("solver"))
    return cfg


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(jsonable(payload), sort_keys=True, indent=2)
                    + "\n")


def _write_lock(out_dir: Path, command: str, cfg: dict, seed: int) -> None:
    _write_json(out_dir / "run.lock.json",
                {"command": command, "seed": seed, "config": cfg})


def _write_diagnostics(out_dir: Path, report) -> None:
    lines = ["level,grad_norm_p,sup_norm,cond_b_max,cond_c,cond_cprime"]
    n = len(report.levels)
    for i in range(n):
        b_max = max(abs(x) for x in report.cond_b[i]) if report.cond_b else \
            float("nan")
        c = report.cond_c[i] if i < len(report.cond_c) else float("nan")
        cp = report.cond_cprime[i] if i < len(report.cond_cprime) else \
            float("nan")
        lines.append(",".join([
            str(report.levels[i].level),
            repr(float(report.grad_norms[i])),
            repr(float(report.sup_norms[i])),
            repr(float(b_max)),
            repr(float(c)),
            repr(float(cp)),
        ]))
    (out_dir / "diagnostics.csv").write_text("\n".join(lines) + "\n")


def _cmd_estimate(cfg: dict, out_dir: Path, seed: int) -> int:
    problem = build_problem(cfg["problem"])
    est_cfg = cfg.get("estimates") or {}
    convention = est_cfg.get("convention", "standard")
    samples = est_cfg.get("sobolev_samples", 1000)
    space = FeSpace(build_mesh(problem.domain, cfg["mesh"]["base_cells"]))
    report = compute_estimates(problem, space, convention=convention,
                               seed=seed, sobolev_samples=samples)
    _write_json(out_dir / "estimates.json", report)
    _write_lock(out_dir, "estimate", cfg, seed)
    print(f"wrote {out_dir / 'estimates.json'}")
    return 0


def _run(cfg: dict, seed: int):
    problem = build_problem(cfg["problem"])
    est_cfg = cfg.get("estimates") or {}
    convention = est_cfg.get("convention", "standard")
    solver = _build_solver(cfg.get("solver"))
    return run_hierarchy(problem, cfg["mesh"]["base_cells"],
                         cfg["mesh"]["levels"], cfg=solver,
                         convention=convention, seed=seed)


def _write_solutions(out_dir: Path, report) -> None:
    for lv in report.levels:
        write_csv(lv.solution, out_dir / f"solution_L{lv.level}.csv")


def _cmd_solve(cfg: dict, out_dir: Path, seed: int) -> int:
    report = _run(cfg, seed)
    out_cfg = cfg.get("output") or {}
    _write_json(out_dir / "report.json", {"hierarchy": report})
    if out_cfg.get("write_solutions", True):
        _write_solutions(out_dir, report)
    if out_cfg.get("write_diagnostics", True):
        _write_diagnostics(out_dir, report)
    _write_lock(out_dir, "solve", cfg, seed)
    if report.failed_level is not None:
        print(f"level {report.failed_level} failed: {report.failure_message}",
              file=sys.stderr)
        return 3
    print(f"solved {len(report.levels)} levels; "
          f"finest residual sup {report.levels[-1].residual_sup:.3e}")
    return 0


def _cmd_verify(cfg: dict, out_dir: Path, seed: int,
                report_path: Optional[str]) -> int:
    # with --report, certificates are appended to an existing solve report
    prior = None
    target = out_dir / "report.json"
    if report_path is not None:
        target = Path(report_path)
        if not target.is_file():
            print(f"missing report: {target}", file=sys.stderr)
            return 1
        prior = json.loads(target.read_text())
    report = _run(cfg, seed)
    out_cfg = cfg.get("output") or {}
    payload = prior if isinstance(prior, dict) else {}
    payload["hierarchy"] = report
    if report.failed_level is not None:
        payload["verification"] = None
        _write_json(target, payload)
        print(f"level {report.failed_level} failed: {report.failure_message}",
              file=sys.stderr)
        return 3
    verdict = run_certificates(report, seed=seed)
    payload["verification"] = verdict
    _write_json(target, payload)
    if out_cfg.get("write_solutions", True):
        _write_solutions(out_dir, report)
    if out_cfg.get("write_diagnostics", True):
        _write_diagnostics(out_dir, report)
    _write_lock(out_dir, "verify", cfg, seed)
    for cert in verdict["certificates"]:
        state = "skip" if cert["skipped"] else \
            ("pass" if cert["passed"] else "FAIL")
        print(f"[{state}] {cert['name']}: measured {cert['measured']:.3e} "
              f"vs threshold {cert['threshold']:.3e}")
    print(f"s-probe: {verdict['s_probe']['classification']}")
    if not verdict["all_passed"]:
        return 4
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pqgalerkin",
        description="Galerkin solver and certification harness for "
                    "competing power-law diffusion with convection")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("estimate", "compute regime constants and radii"),
            ("solve", "run the nested hierarchy"),
            ("verify", "run the hierarchy and certify the output")]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=0)
        if name == "verify":
            cmd.add_argument("--report", default=None,
                             help="report path override")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, json.JSONDecodeError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "estimate":
            return _cmd_estimate(cfg, out_dir, args.seed)
        if args.command == "solve":
            return _cmd_solve(cfg, out_dir, args.seed)
        return _cmd_verify(cfg, out_dir, args.seed, args.report)
    except (HypothesisViolation,) as err:
        print(f"hypothesis violation: {err}", file=sys.stderr)
        return 2
    except (ConfigError, MeshError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
