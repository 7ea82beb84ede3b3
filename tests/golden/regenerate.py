"""Golden outputs: the bytes the CLI writes for a fixed set of configs.

    python tests/golden/regenerate.py

runs `estimate`, `solve` and `verify` at seed 0 on every config under
`configs/` and rewrites `manifest.json`: per run the exit code and the
sha256 of stdout, stderr and every output file, plus the numpy and scipy
versions the hashes were made with.  For each run it prints `unchanged` or
the outputs whose hash moved against the manifest it replaces, then the
number of changed runs.  A changed `solve` or `verify` run also prints its
trajectory as an entry of `TRAJECTORIES` in `tests/test_golden.py`, ready
to be copied there once the diff is reviewed.  The package is imported
from this checkout's `src/`.  `tests/test_golden.py` reruns each case in-process and
names the first output that differs; a change of output bytes is reviewed
as the diff of `manifest.json`.

The configs: the three bench workloads merged with their common block, the
criterion-9 config, and one each of q = 1.5, the (H3a) regime, the
adversarial convection and sweep config m (`tests/sweep.py`, s011) at 4
cells x 6 levels, whose level 3 fails (exit 3, a partial report).
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
MANIFEST = HERE / "manifest.json"
COMMANDS = ("estimate", "solve", "verify")
SEED = 0


def versions() -> dict:
    return {name: metadata.version(name) for name in ("numpy", "scipy")}


def cases() -> list:
    """(config name, command) pairs, in manifest order."""
    return [(path.stem, command) for path in sorted(CONFIGS.glob("*.json"))
            for command in COMMANDS]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def changed_outputs(old: dict, new: dict) -> list:
    """Names of the outputs (exit code, stdout, stderr, then files in name
    order) whose values differ between two runs; `old` may be empty."""
    keys = [key for key in ("exit_code", "stdout", "stderr")
            if old.get(key) != new[key]]
    files = old.get("files", {})
    return keys + [name for name in sorted(set(files) | set(new["files"]))
                   if files.get(name) != new["files"].get(name)]


def trajectory(exit_code: int, report: dict) -> tuple:
    """The solver's trajectory that `solve` and `verify` both record in
    report.json: the exit code, (path, iterations) of every solved level
    and the failure message."""
    hierarchy = report["hierarchy"]
    return (exit_code,
            [(lv["path"], lv["iterations"]) for lv in hierarchy["levels"]],
            hierarchy["failure_message"])


def trajectory_entry(name: str, traj: tuple) -> str:
    """`traj` as a line of `TRAJECTORIES`, a run of equal levels written
    as one level times its count."""
    code, levels, message = traj
    terms, singles = [], []
    for (path, iterations), run in itertools.groupby(levels):
        count, level = len(list(run)), f'("{path}", {iterations})'
        if count == 1:
            singles.append(level)
            continue
        if singles:
            terms.append(f"[{', '.join(singles)}]")
            singles = []
        terms.append(f"[{level}] * {count}")
    if singles or not terms:
        terms.append(f"[{', '.join(singles)}]")
    return f'"{name}": ({code}, {" + ".join(terms)}, {json.dumps(message)}),'


def run_case(name: str, command: str, work: Path) -> dict:
    """Run one command in-process with its output directory under `work`.

    The output directory's path is printed on stdout; it is replaced by
    `<out>` before hashing, so the hash does not depend on `work`.
    """
    from pqgalerkin.cli import main
    out = work / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main([command, "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(out), "--seed", str(SEED)])
    streams = {key: _sha256(buf.getvalue().replace(str(out), "<out>")
                            .encode())
               for key, buf in (("stdout", stdout), ("stderr", stderr))}
    files = {path.name: _sha256(path.read_bytes())
             for path in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit_code": code, **streams, "files": files}


def main() -> int:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    old = json.loads(MANIFEST.read_text())["cases"] \
        if MANIFEST.exists() else {}
    manifest = {"seed": SEED, "versions": versions(), "cases": {}}
    changed = 0
    for name, command in cases():
        with tempfile.TemporaryDirectory() as work:
            run = run_case(name, command, Path(work))
            report = Path(work) / "out" / "report.json"
            traj = trajectory(run["exit_code"],
                              json.loads(report.read_text())) \
                if command != "estimate" else None
        manifest["cases"].setdefault(name, {})[command] = run
        moved = changed_outputs(old.get(name, {}).get(command, {}), run)
        changed += bool(moved)
        print(f"{name} {command}: exit {run['exit_code']}, "
              f"{', '.join(moved) or 'unchanged'}")
        if moved and traj is not None:
            print(f"    {trajectory_entry(name, traj)}")
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"{changed} of {len(cases())} changed; wrote {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
