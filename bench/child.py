"""One benchmark sample: a fresh interpreter that runs `pqgalerkin verify`.

Started by run.py with the monotonic time it was spawned at; set-up is the
time from then until the config is parsed.  The package is imported from the
`src/` tree of the checkout given by --root, never from an installed copy.
Results go to the --result JSON file; the verify output goes to --out.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    from pqgalerkin import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"pqgalerkin imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    cfg = cli.load_config(args.config)
    cli.build_problem(cfg["problem"])
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        root = tracer.open("cli")
    argv = ["verify", "--config", args.config, "--out", args.out,
            "--seed", str(args.seed)]
    t0 = time.perf_counter()
    try:
        result["exit_code"] = cli.main(argv)
    except Exception:
        result["exit_code"] = None
        result["error"] = traceback.format_exc()
    finally:
        verify_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            tracer.restore()
    out = Path(args.out)
    result.update(
        verify_s=verify_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        output_bytes=sum(f.stat().st_size for f in out.iterdir()
                         if f.is_file()))
    if tracer is not None:
        result["spans_file"] = str(out.parent / (out.name + ".spans.json"))
        tracer.write(result["spans_file"])
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
