"""Benchmark of `pqgalerkin verify`: time, memory and failures per workload.

    python3 bench/run.py --workload coop-2d --seed 0 --seconds 36 --trace 0

Closed loop with one client: each sample is a fresh interpreter (child.py),
started only after the previous one has ended, with BLAS threads set to the
number of usable cores.  The child imports pqgalerkin from `src/`, parses the
workload config and runs `cli.main(["verify", ...])`.  Every sample's outputs
are checked; a sample whose checks fail counts as a failed operation.

With --trace 0 the last stdout line carries the end-to-end metrics (medians
over the samples of the run).  With --trace 1 untraced and traced samples
alternate, and it carries the per-layer metrics of the traced ones (see
tracer.py).  `--workload all` runs every workload in turn.  Workload configs,
the reasons for them and the layer-to-metric map are in workloads.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))
from tracer import LAYER_METRICS, layer_metrics  # noqa: E402

WORKLOADS = json.loads((BENCH / "workloads.json").read_text())
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# every run, the slowest sample included, ends well inside the 180 s limit
RUN_DEADLINE_S = 160.0
END_TO_END = {
    "setup_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "dofs_per_s": "1/s",
    "levels_solved_share": "ratio",
}
PER_LAYER = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
PER_LAYER.update({"cli.output_bytes": "bytes", "trace.verify_s": "s",
                  "trace.overhead_s": "s"})


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workload_config(name: str) -> dict:
    spec = WORKLOADS["workloads"][name]
    problem = dict(WORKLOADS["common"]["problem"])
    problem.update(spec["problem"])
    return {"problem": problem, "mesh": dict(spec["mesh"])}


def context() -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() \
                else None
    return {"nproc": nproc(), "blas_threads": nproc(),
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines}


class Run:
    """Samples of one workload at one seed, and their output checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.levels = WORKLOADS["workloads"][workload]["mesh"]["levels"]
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.samples: list = []
        self.setup_samples: list = []
        self.notes: list = []
        self.digest = None
        self.env = dict(os.environ)
        self.env.update({var: str(nproc()) for var in BLAS_VARS})
        self.env.pop("PYTHONPATH", None)
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def child(self, k: int, traced: bool = False, setup_only: bool = False):
        out = self.dir / f"s{k}"
        result = self.dir / f"s{k}.result.json"
        log = self.dir / f"s{k}.log"
        cmd = [sys.executable, str(BENCH / "child.py"), "--root", str(ROOT),
               "--config", str(self.dir / "config.json"), "--out", str(out),
               "--seed", str(self.seed), "--result", str(result),
               "--trace", str(int(traced))]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        cmd += ["--spawned", repr(spawned)]
        with open(log, "w") as fh:
            try:
                proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                      env=self.env, timeout=timeout,
                                      cwd=str(ROOT))
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code != 0 or not result.is_file():
            tail = log.read_text()[-2000:]
            return None, f"sample {k}: child exit {code}: {tail}"
        res = json.loads(result.read_text())
        res["wall_s"] = time.monotonic() - spawned
        res["traced"] = traced
        res["out"] = str(out)
        return res, None

    def check(self, res: dict) -> list:
        """Output checks of one verify sample; returns the failures.

        Also records the sample's solved dofs and levels from its report.
        """
        if res.get("error"):
            return [f"verify raised: {res['error'][-1500:]}"]
        code = res["exit_code"]
        if code not in (0, 3):
            return [f"exit code {code}, expected 0 (certified) or 3 "
                    f"(documented level-solve failure)"]
        report_path = Path(res["out"]) / "report.json"
        try:
            data = report_path.read_bytes()
            report = json.loads(data)
        except (OSError, ValueError) as err:
            return [f"report.json unreadable: {err}"]
        h = report["hierarchy"]
        bad = []
        if code == 0:
            if h["failed_level"] is not None or len(h["levels"]) != self.levels:
                bad.append("exit 0 but the hierarchy is incomplete")
            if not (report.get("verification") or {}).get("all_passed"):
                bad.append("exit 0 but all_passed is not true")
        else:
            if h["failed_level"] != len(h["levels"]):
                bad.append("exit 3 but failed_level does not follow the "
                           "solved levels")
            if report.get("verification") is not None:
                bad.append("exit 3 but a verification block was written")
        tol = h["solver_tolerance"]
        for lv in h["levels"]:
            if not (lv["converged"] and lv["residual_sup"] <= tol):
                bad.append(f"level {lv['level']} residual sup "
                           f"{lv['residual_sup']!r} above tolerance {tol!r}")
        for flag in ("within_grad_bound", "within_sup_bound"):
            if not all(h[flag]):
                bad.append(f"{flag} is false on some level")
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            bad.append("report.json differs from the first sample of the run")
        res["dofs"] = sum(lv["dim"] for lv in h["levels"])
        res["levels_solved"] = len(h["levels"])
        return bad

    def execute(self) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        (self.dir / "config.json").write_text(
            json.dumps(workload_config(self.workload), indent=2))
        # untimed warm-up: bytecode cache and page cache, as a user has them
        warm, err = self.child(0, setup_only=True)
        if warm is None:
            raise RuntimeError(f"warm-up failed: {err}")
        start = time.monotonic()

        def fits(duration: float) -> bool:
            now = time.monotonic()
            return (now - start + duration <= self.seconds
                    and now + duration <= self.deadline)

        longest = 0.0
        k = 1
        while len(self.samples) < (2 if self.trace else 1) or fits(longest):
            traced = self.trace and len(self.samples) % 2 == 1
            t0 = time.monotonic()
            res, err = self.child(k, traced=traced)
            k += 1
            if res is None:
                self.samples.append({"failed": [err]})
                self.notes.append(err)
                return
            res["failed"] = self.check(res)
            self.notes += [f"sample {k - 1}: {msg}" for msg in res["failed"]]
            self.setup_samples.append(res["setup_s"])
            self.samples.append(res)
            longest = max(longest, time.monotonic() - t0)
        if self.trace:
            return
        # set-up alone is short: the rest of the window buys more of it
        longest = 0.0
        while fits(longest):
            t0 = time.monotonic()
            res, err = self.child(k, setup_only=True)
            k += 1
            if res is None:
                self.notes.append(err)
                return
            self.setup_samples.append(res["setup_s"])
            longest = max(longest, time.monotonic() - t0)

    def end_to_end(self) -> dict:
        ok = [s for s in self.samples if "verify_s" in s]
        if not ok:
            raise RuntimeError("no sample produced timings:\n"
                               + "\n".join(self.notes))
        return {
            "setup_s": statistics.median(self.setup_samples),
            "verify_s": statistics.median(s["verify_s"] for s in ok),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
            "dofs_per_s": statistics.median(s.get("dofs", 0) / s["verify_s"]
                                            for s in ok),
            "levels_solved_share": statistics.median(
                s.get("levels_solved", 0) / self.levels for s in ok),
        }

    def per_layer(self) -> dict:
        traced = [s for s in self.samples if s.get("traced")]
        plain = [s for s in self.samples
                 if "verify_s" in s and not s.get("traced")]
        if not traced or not plain:
            raise RuntimeError("the traced run needs a traced and an "
                               "untraced sample:\n" + "\n".join(self.notes))
        per_sample = []
        for s in traced:
            spans = json.loads(Path(s["spans_file"]).read_text())
            values, notes = layer_metrics(spans["spans"], spans["wrapped"],
                                          spans["missing"])
            values["cli.output_bytes"] = s["output_bytes"]
            values["trace.verify_s"] = s["verify_s"]
            per_sample.append(values)
            self.notes += [n for n in notes if n not in self.notes]
        out = {}
        for name in PER_LAYER:
            vals = [v[name] for v in per_sample if name in v]
            if vals:
                out[name] = statistics.median(vals)
        out["trace.overhead_s"] = (
            statistics.median(s["verify_s"] for s in traced)
            - statistics.median(s["verify_s"] for s in plain))
        return out

    def save(self, ctx: dict, metrics: dict) -> None:
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{self.workload}-seed{self.seed}-trace{int(self.trace)}"
        traced = [s for s in self.samples if s.get("traced")]
        if traced:
            shutil.copy(traced[-1]["spans_file"],
                        results / f"{stem}.spans.json")
        keep = [{k: v for k, v in s.items() if k != "error"}
                for s in self.samples]
        (results / f"{stem}.json").write_text(json.dumps(
            {"context": ctx, "metrics": metrics, "samples": keep,
             "setup_samples": self.setup_samples, "notes": self.notes},
            indent=2))
        shutil.rmtree(self.dir, ignore_errors=True)


def run_workload(name: str, args, ctx: dict) -> dict:
    run = Run(name, args.seed, args.seconds, bool(args.trace))
    run.execute()
    values = run.per_layer() if args.trace else run.end_to_end()
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    run.save(ctx, metrics)
    failed = sum(1 for s in run.samples if s["failed"])
    verify_samples = sum(1 for s in run.samples if "verify_s" in s)
    print(f"{name}: {len(run.samples)} samples ({verify_samples} timed), "
          f"{len(run.setup_samples)} set-ups, {failed} failed")
    for key in units:
        if key in metrics:
            print(f"  {key:34s} {metrics[key]['value']:.6g} {units[key]}")
        else:
            print(f"  {key:34s} missing")
    for note in run.notes:
        print(f"note: {note}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(run.samples),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS["workloads"]) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.seed %= 2 ** 32
    if not (ROOT / "src" / "pqgalerkin" / "__init__.py").is_file():
        print(f"no pqgalerkin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ctx = context()
    print("context " + json.dumps(ctx, sort_keys=True))
    names = (list(WORKLOADS["workloads"]) if args.workload == "all"
             else [args.workload])
    try:
        results = {name: run_workload(name, args, ctx) for name in names}
    except RuntimeError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        for name, res in results.items():
            print(f"{name} " + json.dumps(res))
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
