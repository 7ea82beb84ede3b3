"""Command line front end: estimate, solve, verify.

Configs are strict JSON: unknown and repeated keys are rejected so a typo
cannot silently fall back to a default.  All outputs are deterministic for a
fixed config and seed (sorted JSON keys, repr floats, non-finite floats as
null, no timestamps).

Exit codes: 0 success, 1 config or parse error, 2 hypothesis precondition
violation, 3 level-solve failure, 4 certification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .estimates import compute_estimates
from .fespace import jsonable, write_csv
from .galerkin import run_hierarchy
from .mesh import Domain, MeshError
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


def _number(block, key, where: str) -> float:
    val = block[key]
    # json reads NaN and Infinity; they, and ints beyond the float range,
    # fail the magnitude test
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not abs(val) <= sys.float_info.max:
        raise ConfigError(f"{where}.{key}: expected a finite number")
    return float(val)


def _build_domain(block: dict) -> Domain:
    _check_keys(block, {"kind", "bounds"}, {"kind", "bounds"},
                "problem.domain")
    kind = block["kind"]
    bounds = block["bounds"]
    if kind == "interval":
        if (not isinstance(bounds, list) or len(bounds) != 2):
            raise ConfigError("problem.domain.bounds: expected [a, b]")
        return Domain.interval(*(_number(bounds, i, "problem.domain.bounds")
                                 for i in range(2)))
    if kind == "rectangle":
        if (not isinstance(bounds, list) or len(bounds) != 2
                or any(not isinstance(b, list) or len(b) != 2 for b in bounds)):
            raise ConfigError(
                "problem.domain.bounds: expected [[ax, bx], [ay, by]]")
        return Domain.rectangle(*(_number(b, i, f"problem.domain.bounds.{j}")
                                  for j, b in enumerate(bounds)
                                  for i in range(2)))
    raise ConfigError(f"problem.domain.kind: unknown kind {kind!r}")


# Config kinds: block -> kind -> (factory, problem data it takes, required
# keys, optional keys).  The factory gets the data and the block's keys as
# keyword arguments, so an omitted optional key takes the factory's default.
KINDS = {
    "weight": {
        "constant": (constant_weight, (), {"value"}, set()),
        "quadratic": (quadratic_weight, (), {"base"}, {"coef"}),
    },
    "convection": {
        "zero": (zero_convection, (), set(), set()),
        "constant": (constant_convection, (), {"value"}, set()),
        "saturating": (saturating_convection, ("p",), set(),
                       {"alpha", "h_bound", "offset"}),
        "adversarial": (adversarial_convection, ("a0", "p"), set(), set()),
    },
}


def _build_kind(block, name: str, **data):
    where = f"problem.{name}"
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError(f"{where}: expected an object with a kind")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in KINDS[name]:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
    factory, takes, required, optional = KINDS[name][kind]
    _check_keys(block, {"kind"} | required | optional, {"kind"} | required,
                where)
    return factory(**{key: data[key] for key in takes},
                   **{key: _number(block, key, where)
                      for key in block if key != "kind"})


def build_problem(block: dict) -> Problem:
    _check_keys(block,
                {"p", "q", "domain", "variant", "weight", "convection"},
                {"p", "q", "domain", "weight", "convection"}, "problem")
    p = _number(block, "p", "problem")
    q = _number(block, "q", "problem")
    domain = _build_domain(block["domain"])
    weight = _build_kind(block["weight"], "weight")
    convection = _build_kind(block["convection"], "convection", p=p,
                             a0=weight.lower_bound)
    variant = block.get("variant", "competing")
    return Problem(p=p, q=q, domain=domain, weight=weight,
                   convection=convection, variant=variant)


def _unique_keys(pairs: list) -> dict:
    block = {}
    for key, value in pairs:
        if key in block:
            raise ConfigError(f"duplicate key {key!r}")
        block[key] = value
    return block


def load_config(path: str) -> dict:
    text = Path(path).read_text()
    cfg = json.loads(text, object_pairs_hook=_unique_keys)
    _check_keys(cfg, {"problem", "mesh"}, {"problem", "mesh"}, "config")
    _check_keys(cfg["mesh"], {"base_cells", "levels"},
                {"base_cells", "levels"}, "mesh")
    levels = cfg["mesh"]["levels"]
    if isinstance(levels, bool) or not isinstance(levels, int):
        raise ConfigError("mesh.levels: expected a positive integer")
    if levels < 2:
        raise ConfigError("mesh.levels: a hierarchy needs at least 2 levels")
    base = cfg["mesh"]["base_cells"]
    counts = base if isinstance(base, list) else [base]
    if (isinstance(base, list) and len(base) != 2) or any(
            isinstance(b, bool) or not isinstance(b, int) for b in counts):
        raise ConfigError("mesh.base_cells: expected int or [nx, ny]")
    if min(counts) < 2:
        raise ConfigError("mesh.base_cells: a mesh needs at least 2 cells "
                          "per side")
    if isinstance(base, list):
        cfg["mesh"]["base_cells"] = tuple(base)
    return cfg


def _fail(message: str, code: int = 1) -> int:
    print(message, file=sys.stderr)
    return code


def _write_json(path: Path, payload) -> None:
    # json writes non-finite floats as NaN and Infinity, which strict JSON
    # (RFC 8259) forbids; read back as None, they are written as null
    data = json.loads(json.dumps(jsonable(payload)),
                      parse_constant=lambda _: None)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _write_lock(out_dir: Path, command: str, cfg: dict, seed: int) -> None:
    _write_json(out_dir / "run.lock.json",
                {"command": command, "seed": seed, "config": cfg})


def _diagnostics_csv(out_dir: Path, report) -> None:
    lines = ["level,grad_norm_p,sup_norm,cond_b_max,cond_c,cond_cprime"]
    for lv in report.levels:
        row = (lv.grad_norm, lv.sup_norm, max(abs(x) for x in lv.cond_b),
               lv.cond_c, lv.cond_cprime)
        lines.append(",".join([str(lv.level)]
                              + [repr(float(x)) for x in row]))
    (out_dir / "diagnostics.csv").write_text("\n".join(lines) + "\n")


def _cmd_estimate(cfg: dict, problem: Problem, out_dir: Path,
                  seed: int) -> int:
    report = compute_estimates(problem)
    _write_json(out_dir / "estimates.json", report)
    _write_lock(out_dir, "estimate", cfg, seed)
    print(f"wrote {out_dir / 'estimates.json'}")
    return 0


def _cmd_solve(command: str, cfg: dict, problem: Problem, out_dir: Path,
               seed: int) -> int:
    """`solve`, and for `verify` the certificates of a solved hierarchy.
    Writes report.json, each solved level's solution CSV, diagnostics.csv
    and the lock into `out_dir`, whatever the exit code."""
    report = run_hierarchy(problem, cfg["mesh"]["base_cells"],
                           cfg["mesh"]["levels"], seed=seed)
    payload = {"hierarchy": report}
    failed = report.failed_level is not None
    if command == "verify":
        payload["verification"] = None if failed \
            else run_certificates(report, seed=seed)
    _write_json(out_dir / "report.json", payload)
    for lv in report.levels:
        write_csv(lv.solution, out_dir / f"solution_L{lv.level}.csv")
    _diagnostics_csv(out_dir, report)
    _write_lock(out_dir, command, cfg, seed)
    if failed:
        return _fail(report.failure_message, 3)
    if command == "solve":
        print(f"solved {len(report.levels)} levels; "
              f"finest residual sup {report.levels[-1].residual_sup:.3e}")
        return 0
    verdict = payload["verification"]
    for cert in verdict["certificates"]:
        state = "skip" if cert["skipped"] else \
            ("pass" if cert["passed"] else "FAIL")
        print(f"[{state}] {cert['name']}: measured {cert['measured']:.3e} "
              f"vs threshold {cert['threshold']:.3e}")
    print(f"s-probe: {verdict['s_probe']['classification']}")
    return 0 if verdict["all_passed"] else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pqgalerkin",
        description="Galerkin solver and certification harness for "
                    "competing power-law diffusion with convection")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("estimate", "compute the a priori constants and radii"),
            ("solve", "run the nested hierarchy"),
            ("verify", "run the hierarchy and certify the output")]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=0)
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            parser.error("argument --seed: expected a non-negative integer")
    except SystemExit as exc:  # a usage error is exit 1, not argparse's 2
        return 1 if exc.code else 0
    try:
        cfg = load_config(args.config)
    except (ValueError, OSError) as err:  # also bad JSON and bad UTF-8
        return _fail(f"config error: {err}")
    # the output directory is made by the first write into it, so an error
    # before that leaves nothing behind
    out_dir = Path(args.out)
    if any(p.exists() and not p.is_dir() for p in (out_dir, *out_dir.parents)):
        return _fail(f"--out is not a directory: {out_dir}")
    try:
        problem = build_problem(cfg["problem"])
        if problem.domain.dim == 1 and \
                isinstance(cfg["mesh"]["base_cells"], tuple):
            raise ConfigError("mesh.base_cells: expected int on an interval")
        if args.command == "estimate":
            return _cmd_estimate(cfg, problem, out_dir, args.seed)
        return _cmd_solve(args.command, cfg, problem, out_dir, args.seed)
    except (HypothesisViolation,) as err:
        return _fail(f"hypothesis violation: {err}", 2)
    except (ConfigError, MeshError, ValueError, ArithmeticError) as err:
        # ArithmeticError: no psi root bracket, or a float overflow in psi
        return _fail(f"config error: {err}")


if __name__ == "__main__":
    sys.exit(main())
