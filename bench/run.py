"""foldsat benchmark: four verdict workloads, end to end and per module.

Run from the root of a checkout:

    python3 bench/run.py --workload evaluate --seed 1 --seconds 25 --trace 0

prints a summary and, as the last line, one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-module metrics with ``--trace 1``.
The full result, with metadata, goes to ``bench/out/`` (spans too when
tracing).

    python3 bench/run.py --compare BASE NEW

prints each workload x metric as the ratio NEW/BASE of medians, where
BASE and NEW are result files or directories of them.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "foldsat"
OUT = BENCH / "out"

END_TO_END = {"jobs_per_s": "1/s", "verdict_p50_s": "s",
              "verdict_tail_s": "s", "decided_frac": "fraction",
              "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_per_s"):
        return {"cli.parse_chars_per_s": "chars/s"}.get(name, "1/s")
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_s"):
        return "s"
    return "count"


def commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed):
    return {"commit": commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed,
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in sorted(SRC.glob("*.py")))}


def run(args):
    if not (SRC / "__init__.py").exists():
        print(f"error: no foldsat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from harness import run_workload
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    spans = result.pop("spans", None)
    result.update(workload=args.workload, trace=bool(args.trace),
                  seconds=args.seconds, meta=metadata(args.seed))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    tail = result["tail"]
    print(f"workload {args.workload}: {result['attempted']} attempts in "
          f"{result['rounds']} rounds, {result['wrong_verdicts']} wrong "
          f"verdicts, {result['errors']} errors; tail is "
          f"p{tail['percentile']} of {tail['jobs']} jobs, "
          f"{tail['samples_beyond']} samples beyond")
    print(f"  unscaled: verdict_p50_s {result['raw_verdict_p50_s']:.4g}, "
          f"verdict_tail_s {result['raw_verdict_tail_s']:.4g}, "
          f"setup_s {result['raw_setup_s']:.4g}")
    for key, n in sorted(result["undecided"].items()):
        print(f"  undecided {key} x{n}")
    for slot in result["wrong"]:
        print(f"  WRONG {slot}")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in result["metrics"].items()}
    print(json.dumps({"correct": result["wrong_verdicts"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["wrong_verdicts"] + result["errors"],
                      "metrics": metrics}))
    return 0


def load_results(path):
    """Metric values by (workload, metric), and the metadata, of a result
    file or a directory of them; end-to-end values come from untraced
    runs and per-module values from traced ones."""
    path = Path(path)
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    runs, meta = {}, {}
    for f in files:
        data = json.loads(f.read_text())
        meta = data["meta"]
        values = data["layers"] if data["trace"] else data["metrics"]
        for k, v in values.items():
            if v is not None:
                runs.setdefault((data["workload"], k), []).append(v)
    return runs, meta


def compare(base_path, new_path):
    (base, bmeta) = load_results(base_path)
    (new, nmeta) = load_results(new_path)
    for label, meta in (("base", bmeta), ("new", nmeta)):
        print(f"{label}: commit {meta.get('commit')}, "
              f"{meta.get('src_lines')} source lines, Python "
              f"{meta.get('python')}, nproc {meta.get('nproc')}")
    print(f"{'workload':<11} {'metric':<26} {'base':>12} {'new':>12} "
          f"{'new/base':>9}")
    for key in sorted(base.keys() & new.keys()):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        ratio = f"{n / b:9.3f}" if b else f"{'-':>9}"
        print(f"{key[0]:<11} {key[1]:<26} {b:12.5g} {n:12.5g} {ratio}"
              f"  (runs {len(base[key])}/{len(new[key])})")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
