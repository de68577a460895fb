"""One cold pass of a workload, in a fresh interpreter.

    python3 child.py ROOT SEED SPANS REFERENCE SCENARIO@N [SCENARIO@N ...]

Imports leibnizalg from ROOT/src, builds the CLI parser, and then drives each
scenario through ``leibnizalg.cli.main(["verify", ...])`` with its report
captured. The last line of standard output is one JSON object: the clock
reading when set-up ended, and per call its exit code, verdict, the sha256 of
the canonical ``--format machine`` report, its duration, and the machine speed
during it, timed with the REFERENCE loop (:class:`SpeedSampler`).

SPANS is ``-`` for an untraced pass. Otherwise the layer entry points are
wrapped by :mod:`tracing`, the spans are written to the file SPANS at the end,
and the object also carries the per-layer self times, call counts and exact
counts of the pass. With no SCENARIO@N the pass only measures set-up.
"""

import gc
import signal
import sys
import time
from fractions import Fraction

SAMPLE_INTERVAL_S = 0.1
REF_WIDTH = 90


def reference_factors():
    """Two fixed 9-term polynomials over a 90-variable ring, as dicts from
    dense exponent tuples to Fraction coefficients."""
    factors = []
    for shift in (0, 1):
        terms = {}
        for i in range(9):
            exp = [0] * REF_WIDTH
            exp[(7 * i + shift) % REF_WIDTH] += 1
            exp[(13 * i + 5 * shift + 3) % REF_WIDTH] += 1
            terms[tuple(exp)] = Fraction(i % 7 + 1, i % 5 + 2)
        factors.append(terms)
    return factors


def poly_loop(factors):
    """Four products of the two ``factors``, each term combined the way a
    dense polynomial product combines them: tuple sums, dict updates and
    Fraction arithmetic."""
    left, right = factors
    for _ in range(4):
        out = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
    return out


def fraction_loop():
    """Small-tuple dict updates and a running Fraction sum."""
    table = {}
    acc = Fraction(0)
    for i in range(1200):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return acc


class SpeedSampler:
    """Times a fixed reference loop every ``SAMPLE_INTERVAL_S`` from SIGALRM.

    On a shared host, neighbours can slow this process down by up to 2x for
    seconds to tens of seconds at a time. A call's duration divided by the
    harmonic mean of the reference times sampled during it is its duration in
    reference units, which such slowdowns move much less. The harmonic mean
    weights each 100 ms of the call by the speed measured in it, which is
    right for a speed that changes during the call, and a single slow sample
    barely moves it. The collector is off while a sample runs, so that a
    collection of the program's heap is not timed as part of the reference.

    ``reference`` names the loop. ``"poly"`` runs :func:`poly_loop`, like the
    dense polynomial products the elimination workloads spend their time on.
    ``"mixed"`` runs :func:`fraction_loop` after it, for a workload that
    spends its time on Fraction tensors: in the host's slow spells that work
    slows down more than polynomial work does, and each loop slows down about
    as much as the work it stands for. The loops are frozen here, so that
    changes to the program do not change the unit; changing them breaks
    comparison with earlier runs.
    """

    def __init__(self, reference: str):
        self.samples: list[float] = []
        self.busy = 0.0
        self.factors = reference_factors()
        self.mixed = {"poly": False, "mixed": True}[reference]

    def _tick(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            poly_loop(self.factors)
            if self.mixed:
                fraction_loop()
            dt = time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
        self.samples.append(dt)
        self.busy += dt

    def start(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def since(self, mark: int) -> float:
        """Harmonic mean of the reference times sampled after ``mark``
        (the latest one if there are none)."""
        from statistics import harmonic_mean  # not at the top: it would count as set-up

        return harmonic_mean(self.samples[mark:] or self.samples[-1:])


def main(argv) -> int:
    root, seed, spans, reference, *calls = argv
    sys.path.insert(0, root + "/src")
    import leibnizalg.cli as cli

    cli.build_parser()
    ready = time.perf_counter()

    import contextlib
    import hashlib
    import io
    import json
    import os
    import resource

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(root + "/src") + os.sep):
        print(f"error: leibnizalg was imported from {cli.__file__}, not from {root}/src",
              file=sys.stderr)
        return 2
    recorder = sampler = None
    runner = cli.main
    if spans != "-":
        import tracing

        recorder = tracing.Recorder()
        tracing.instrument(recorder)
        runner = recorder.wrap("verify.runner", cli.main)
    elif calls:
        # the sampler would add its own time to the layer spans, so traced
        # passes run without it
        sampler = SpeedSampler(reference)
        sampler.start()

    results = []
    wall = 0.0
    for call in calls:
        scenario, _, n = call.partition("@")
        argv = ["verify", scenario, "--n", n, "--seed", seed, "--format", "machine"]
        out = io.StringIO()
        error = None
        if sampler is not None:
            mark, busy = len(sampler.samples), sampler.busy
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = runner(argv)
        except Exception as exc:  # a raising scenario is a failed call, not a crashed pass
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        ref = None
        if sampler is not None:
            seconds -= sampler.busy - busy
            ref = sampler.since(mark)
        wall += seconds
        text = out.getvalue()
        try:
            verdict = json.loads(text)[0]["verdict"] if error is None else None
        except (ValueError, LookupError, TypeError):
            verdict = None
        results.append({
            "scenario": scenario, "n": int(n), "rc": rc, "verdict": verdict, "error": error,
            "sha256": hashlib.sha256(text.encode()).hexdigest(), "seconds": seconds,
            "ref_s": ref,
        })
    if sampler is not None:
        sampler.stop()
    payload = {
        "ready": ready,
        "calls": results,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        payload["trace"] = recorder.summary()
        recorder.dump(spans)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
