"""Record perfbench/reference.json from the program in this checkout.

    python3 perfbench/record.py

The table holds what the benchmark checks answers against and how it
draws the amenable-conjugates inputs:

- `h1`: invariants of H^1 for psl2, sl2 and gl2 at even n <= 32;
- `gamma0bar`: invariants of H^1 for gamma0bar:p at n = 4;
- `amenable.bases`: the sl2 type of each matrix of hyperbolic_corpus(200)
  and whether a dihedral witness exists;
- `amenable.strata`: the (base, conjugator word) pairs grouped into bands
  of recorded `classify` time (the fastest of CONJ_REPEATS), each band
  with the number of pairs a run draws from it.  Bands are CONJ_BAND wide
  (a time ratio), so every seed draws nearly the same mix of cheap and
  heavy cases; a band takes one pair in CONJ_STRIDE, and pairs slower
  than CONJ_CAP_S are left out.

Re-record only when the benchmark itself changes: a change that claims a
gain must be measured against the table its parent used.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
from time import perf_counter

import run

CONJ_WORDS = ("S", "T", "t", "ST", "St", "TS", "tS", "TT", "tt",
              "TST", "TSt", "tST", "tSt")
CONJ_CAP_S = 2.0
CONJ_BAND = 1.2
CONJ_STRIDE = 5
CONJ_REPEATS = 3
BASES = 200


class _Timeout(BaseException):
    """Not an Exception, so Runner.call lets it through."""


def _alarm(signum, frame):
    raise _Timeout()


def _report(runner, argv):
    rep = runner.report(" ".join(argv), argv)
    if rep is None:
        raise SystemExit("failed: %s %s" % (argv, runner.checks.messages))
    return rep


def _fastest(runner, argv):
    """Fastest of CONJ_REPEATS timings, or None past CONJ_CAP_S."""
    best = None
    for _ in range(CONJ_REPEATS):
        signal.setitimer(signal.ITIMER_REAL, CONJ_CAP_S)
        try:
            t = perf_counter()
            _report(runner, argv)
            seconds = perf_counter() - t
        except _Timeout:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        best = seconds if best is None else min(best, seconds)
    return best


def main():
    sys.path.insert(0, run.SRC)
    modh1 = run.import_modh1()
    runner = run.Runner(modh1["cli"], run.Checks())
    ref = {"recorded_on": {"cpu": run.cpu_model(), "nproc": os.cpu_count(),
                           "python": sys.version.split()[0]}}

    ref["h1"] = {
        group: {str(n): _report(runner, ["h1", "--group", group,
                                         "--n", str(n)])
                ["results"]["invariants"]
                for n in range(2, run.H1Ladder.N_MAX + 1, 2)}
        for group in run.H1Ladder.GROUPS}
    ref["gamma0bar"] = {
        str(p): _report(runner, ["h1", "--group", "gamma0bar:%d" % p,
                                 "--n", str(run.FreeLiftCerts.H1_DEGREE)])
        ["results"]["invariants"]
        for p in run.FreeLiftCerts.PRIMES}

    bases = [g.entries() for g in modh1["cli"].hyperbolic_corpus(BASES)]
    rows = []
    for g in bases:
        res = _report(runner, ["classify", "--matrix=%d,%d;%d,%d" % g])
        rows.append([list(g), res["results"]["sl2_type"],
                     "witness" in res["results"]])

    signal.signal(signal.SIGALRM, _alarm)
    timed = []
    for i, g in enumerate(bases):
        for word in CONJ_WORDS:
            h = run.word_matrix(word)
            argv = ["classify", "--matrix=%d,%d;%d,%d"
                    % run.mul2(run.mul2(h, g), run.inv2(h))]
            seconds = _fastest(runner, argv)
            if seconds is not None:
                timed.append((seconds, i, word))
        print("timed conjugates of base %d/%d" % (i + 1, BASES),
              file=sys.stderr)
    bands = {}
    for seconds, i, word in sorted(timed):
        band = math.floor(math.log(seconds) / math.log(CONJ_BAND))
        bands.setdefault(band, []).append([i, word])
    strata = []
    for band in sorted(bands):
        take = round(len(bands[band]) / CONJ_STRIDE)
        if take:
            strata.append({"band_s": [CONJ_BAND ** band,
                                      CONJ_BAND ** (band + 1)],
                           "take": take, "pairs": bands[band]})
    ref["amenable"] = {"bases": rows, "words": list(CONJ_WORDS),
                       "strata": strata}

    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
