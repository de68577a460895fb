"""Verdict benchmark: how long leibnizalg's scenarios take to reach their verdicts.

    python3 verdictbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``. One
process runs the workload, one cold pass after another, each pass in a fresh
interpreter (``verify`` keeps a module-level cache, and a CLI user always
starts cold). Every scenario call goes through
``leibnizalg.cli.main(["verify", ID, "--n", N, "--seed", S, "--format", "machine"])``
and its report is checked against the committed sha256 in ``golden/``.

Pass ``i`` of a run uses workload seed ``(N + i) mod 16``; goldens exist for
those 16 seeds. A run makes one pass, and then another as long as the last
pass's duration still fits before ``--seconds`` is up.

``--trace 0`` prints the end-to-end metrics. ``wall_ref`` is the median over
passes of the time until every scenario has its verdict, and
``slowest_verdict_ref`` the largest per-scenario median; both in reference
units (``child.SpeedSampler``): each call's seconds divided by the time of a
fixed reference loop (``REFERENCE``) sampled during the call. On a shared host the seconds
themselves drift by up to 2x between runs; they are printed as ``wall_s`` and
``slowest_verdict_s`` above the result. ``peak_rss_mb`` is the median peak RSS
of a pass, ``setup_s`` the median set-up time (interpreter start,
``import leibnizalg`` and building the CLI parser) over every pass plus eight
set-up-only interpreters before each pass and after the last, and
``fail_ratio`` (failed / attempted calls) is printed and carried in
``failed`` and ``attempted``.

``--trace 1`` runs an untraced pass and two traced passes on one seed, then
alternates the two kinds while a pass still fits before ``--seconds``. It
prints per-layer self times and call counts, exact counts, and the tracing overhead
(traced over untraced wall seconds). Calls and counts must repeat exactly
across traced passes.

The last line of standard output is the result object. The exit code is 1
when a call failed or traced passes disagree, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_SEEDS = 16
SETUP_SAMPLES_PER_BREAK = 8
PASS_TIMEOUT_S = 150

# Scenario ids with their n. nonexist and numeric run at n = 7, the middle
# of ROADMAP's `verify all --n 5..8` traffic; the shapes at n = 8, because at
# n = 7 they finish in a fraction of a second (prop44-shape takes odd n only).
# classify runs at n = 5 (thm36-class takes even n only, so 6): at n = 7 the
# seed alone moves a pass by up to 17% and a pass takes 25 s, so a run could
# not average over enough seeds to be steady. WORKLOADS.md has the numbers.
WORKLOADS = {
    "nonexist": ("prop32-nonexist@7", "prop33-nonexist@7", "thm39-nonexist@7"),
    "classify": ("thm35-class@5", "thm36-class@6", "thm37-class@5", "thm42-class@5",
                 "thm45-class@5", "prop43-nolie@5", "prop46-nolie@5"),
    "numeric": ("prop31-shape@8", "prop34-shape@8", "prop38-shape@8", "prop41-shape@8",
                "prop44-shape@7", "thm26-bound@7", "conj-i@7", "conj-ii@7"),
}

# The reference loop each workload's times are divided by (child.SpeedSampler):
# the one that slowed down like the workload when the host did.
REFERENCE = {"nonexist": "poly", "classify": "poly", "numeric": "mixed"}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


class BenchError(Exception):
    """The measurement itself is unsound."""


def golden_path(seed: int) -> str:
    return os.path.join(HERE, "golden", f"seed-{seed:02d}.json")


def golden(seed: int) -> dict:
    path = golden_path(seed)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read golden {path}: {exc}") from exc


def run_pass(root: str, calls, seed: int, spans: str = "-", reference: str = "poly") -> dict:
    """One child interpreter; its payload plus ``setup_s`` and ``crash``."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), root, str(seed), spans, reference,
           *calls]
    # Set-up is measured with compiled bytecode cached, as for an installed
    # CLI, whatever the caller's environment says about writing it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        return {"crash": f"pass timed out after {PASS_TIMEOUT_S}s", "calls": []}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"crash": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", "calls": []}
    payload = json.loads(proc.stdout.splitlines()[-1])
    payload["setup_s"] = payload["ready"] - started
    payload["crash"] = None
    return payload


def failed_calls(payload: dict, calls, seed: int) -> list:
    """Messages for each call of the pass that did not give the golden report."""
    if payload["crash"] is not None:
        return [f"seed {seed}: {payload['crash']}"] * len(calls)
    expected = golden(seed)
    out = []
    for call, res in zip(calls, payload["calls"]):
        if res["error"] is not None:
            out.append(f"{call} seed {seed}: raised {res['error']}")
        elif res["rc"] != 0 or res["verdict"] != "pass":
            out.append(f"{call} seed {seed}: exit {res['rc']}, verdict {res['verdict']}")
        elif res["sha256"] != expected.get(call):
            out.append(f"{call} seed {seed}: report differs from the golden")
    return out


def check_root(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "leibnizalg", "cli.py")):
        raise SetupError(f"no leibnizalg sources under {root}/src; run from the repository root")
    setup_samples(root, 1)


def setup_samples(root: str, count: int) -> list:
    """Set-up times of ``count`` interpreters that only import and build the parser."""
    out = []
    for _ in range(count):
        probe = run_pass(root, (), 0)
        if probe["crash"] is not None:
            raise SetupError(f"cannot start leibnizalg: {probe['crash']}")
        out.append(probe["setup_s"])
    return out


def measure(root: str, workload: str, seed: int, seconds: float):
    calls = WORKLOADS[workload]
    deadline = time.perf_counter() + seconds
    setups, passes, failures, durations = [], [], [], []
    while not durations or time.perf_counter() + durations[-1] <= deadline:
        # set-up samples before every pass and after the last, so that they
        # span the run as the passes do
        setups += setup_samples(root, SETUP_SAMPLES_PER_BREAK)
        ws = (seed + len(passes)) % GOLDEN_SEEDS
        t = time.perf_counter()
        payload = run_pass(root, calls, ws, reference=REFERENCE[workload])
        durations.append(time.perf_counter() - t)
        failures += failed_calls(payload, calls, ws)
        if payload["crash"] is not None:
            break
        passes.append(payload)
        setups.append(payload["setup_s"])
    setups += setup_samples(root, SETUP_SAMPLES_PER_BREAK)
    attempted = len(durations) * len(calls)
    if not passes:
        return attempted, failures, {}
    seconds_by_call, refs_by_call = {}, {}
    for p in passes:
        for call, res in zip(calls, p["calls"]):
            seconds_by_call.setdefault(call, []).append(res["seconds"])
            refs_by_call.setdefault(call, []).append(res["seconds"] / res["ref_s"])
    pass_refs = [sum(c["seconds"] / c["ref_s"] for c in p["calls"]) for p in passes]
    raw = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "slowest_verdict_s": (max(statistics.median(v) for v in seconds_by_call.values()), "s"),
    }
    metrics = {
        "wall_ref": (statistics.median(pass_refs), "ref"),
        "slowest_verdict_ref": (max(statistics.median(v) for v in refs_by_call.values()), "ref"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"{workload}: {len(passes)} passes, seeds {seed % GOLDEN_SEEDS}.."
          f"{(seed + len(durations) - 1) % GOLDEN_SEEDS} (mod {GOLDEN_SEEDS}), "
          f"{len(setups)} set-up samples")
    print("  pass wall_s:   " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    print("  pass wall_ref: " + " ".join(f"{r:.1f}" for r in pass_refs))
    print("  set-up quartiles (ms): " + " ".join(
        f"{1e3 * q:.1f}" for q in statistics.quantiles(setups, n=4)))
    for name, (value, unit) in raw.items():
        print(f"  {name} = {value:.6g} {unit}")
    return attempted, failures, metrics


def measure_traced(root: str, workload: str, seed: int, seconds: float):
    calls = WORKLOADS[workload]
    ws = seed % GOLDEN_SEEDS
    spans = os.path.join(HERE, "out", f"spans-{workload}.bin")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    deadline = time.perf_counter() + seconds
    plain, traced, failures, durations = [], [], [], []
    # untraced, traced, traced; then alternate while a pass still fits
    while len(traced) < 2 or time.perf_counter() + durations[-1] <= deadline:
        tracing = bool(plain) and (len(traced) < 2 or len(traced) <= len(plain))
        t = time.perf_counter()
        payload = run_pass(root, calls, ws, spans if tracing else "-", REFERENCE[workload])
        durations.append(time.perf_counter() - t)
        failures += failed_calls(payload, calls, ws)
        if payload["crash"] is not None:
            break
        (traced if tracing else plain).append(payload)
    attempted = len(durations) * len(calls)
    if len(traced) < 2:
        return attempted, failures, {}
    exact = [({k: v["calls"] for k, v in p["trace"]["layers"].items()}, p["trace"]["counts"])
             for p in traced]
    if any(e != exact[0] for e in exact[1:]):
        raise BenchError(f"traced passes on seed {ws} disagree on calls or counts: {exact}")
    metrics = {}
    layers = traced[0]["trace"]["layers"]
    for name in layers:
        metrics[f"{name}.self_s"] = (
            statistics.median(p["trace"]["layers"][name]["self_s"] for p in traced), "s")
        metrics[f"{name}.calls"] = (layers[name]["calls"], "count")
    for name, value in traced[0]["trace"]["counts"].items():
        metrics[name] = (value, "count")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    self_sum = statistics.median(sum(v["self_s"] for v in p["trace"]["layers"].values())
                                 for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.self_sum_s"] = (self_sum, "s")
    metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio")
    print(f"{workload}: {len(traced)} traced and {len(plain)} untraced passes on seed {ws}; "
          f"traced wall {traced_wall:.3f}s, untraced {plain_wall:.3f}s, "
          f"self times sum to {self_sum:.3f}s")
    for name in sorted(layers, key=lambda k: -metrics[f"{k}.self_s"][0]):
        share = metrics[f"{name}.self_s"][0] / self_sum
        print(f"  {name:36s} {100 * share:5.1f}%  {metrics[f'{name}.calls'][0]:>9d} calls")
    return attempted, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        check_root(root)
        for ws in range(GOLDEN_SEEDS):
            golden(ws)
        run = measure_traced if args.trace else measure
        attempted, failures, metrics = run(root, args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"fail_ratio: {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
