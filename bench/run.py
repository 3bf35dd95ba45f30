"""contact-mf benchmark: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py --workload survival --seed 1 --seconds 35 --trace 0

Run from the root of a contact-mf source tree.  Each round launches one
fresh `python3 -m contact_mf.cli` process (fresh, because walk.hitting_mc
and walk._absorbing_solve are lru_cached and a second call in the same
interpreter would time a cache hit), checks every output row, and records
its wall time and peak resident memory.  Rounds repeat the same command
until the next one would end past --seconds.  Untraced rounds also time
one bare `import contact_mf.cli` launch each, for setup_s.  With --trace 1
each round runs the command under bench/tracing.py instead and the
per-layer metrics are reported.  Every metric is the median over the
run's rounds.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _launch(argv: list[str], env: dict, workdir: Path) -> tuple[int, float, float, str]:
    """Run argv to completion through launch.py.

    Returns (exit code, wall s, peak RSS MB, combined stdout and stderr).
    """
    log, result = workdir / "command.log", workdir / "launch.json"
    with open(log, "w") as out:
        subprocess.run([sys.executable, str(BENCH_DIR / "launch.py"), str(result), *argv],
                       env=env, stdout=out, stderr=subprocess.STDOUT, check=True)
    with open(result) as fh:
        measured = json.load(fh)
    with open(log) as fh:
        text = fh.read()
    return measured["code"], measured["wall_s"], measured["peak_rss_mb"], text


def _setup_seconds(env: dict, workdir: Path) -> float:
    """Wall time of a fresh interpreter that only imports contact_mf.cli."""
    code, wall, _, text = _launch([sys.executable, "-c", "import contact_mf.cli"], env, workdir)
    if code != 0:
        raise SystemExit(f"importing contact_mf.cli failed:\n{text}")
    return wall


def _median(values: list, unit: str):
    # a count stays a whole number when the round count is even
    return statistics.median_low(values) if unit == "count" else statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "contact_mf" / "cli.py").is_file():
        print(f"no contact-mf source tree at {root} (src/contact_mf missing)", file=sys.stderr)
        return 2
    workdir = BENCH_DIR / "out" / f"{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    workload = WORKLOADS[args.workload](args.seed, workdir)

    started = time.perf_counter()
    walls, rss, setups, per_layer = [], [], [], []
    attempted = failed = 0
    while True:
        round_start = time.perf_counter()
        argv = workload.argv()
        if args.trace:
            spans_path = workdir / "spans.json"
            run_id = f"{args.workload}-{args.seed}-{len(walls)}"
            cmd = [sys.executable, str(BENCH_DIR / "tracing.py"),
                   "--spans", str(spans_path), "--run-id", run_id, "--", *argv]
        else:
            # one setup launch per round spreads them over the whole run
            setups.append(_setup_seconds(env, workdir))
            cmd = [sys.executable, "-m", "contact_mf.cli", *argv]
        code, wall, peak, stdout = _launch(cmd, env, workdir)
        results = workload.check(code, stdout)
        attempted += len(results)
        failed += results.count(False)
        walls.append(wall)
        rss.append(peak)
        if args.trace:
            with open(spans_path) as fh:
                per_layer.append(tracing.layer_metrics(json.load(fh), wall))
        now = time.perf_counter()
        if (now - started) + (now - round_start) > args.seconds:
            break

    if args.trace:
        values = {name: [m[name] for m in per_layer] for name in per_layer[0]}
        listed = SPEC["per_layer"]
    else:
        values = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
        listed = SPEC["end_to_end"]
    metrics = {
        m["name"]: {"value": _median(values[m["name"]], m["unit"]), "unit": m["unit"]}
        for m in listed
    }
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"round walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"rounds {len(walls)}, checks attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
