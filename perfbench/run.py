"""modh1 benchmark: three workloads through `modh1.cli.main`, in-process.

    python3 perfbench/run.py --workload h1-ladder --seed 1 --seconds 40 \
        --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The last line of standard output is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1` the
per-layer ones.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 25
TAIL_BEYOND = 10  # samples beyond the tail percentile
# Host-speed probe: median seconds of one `probe_work()` on the reference
# host (Intel Xeon, 2 vCPU, Python 3.11.7), how often a probe runs while
# measuring, and how many probes on each side of a timed interval count.
PROBE_NOMINAL_S = 0.00033
PROBE_EVERY_S = 0.01
PROBE_SIDE = 3

sys.path.insert(0, HERE)
import tracing  # noqa: E402


class Checks:
    """Counts correctness checks; fail_frac = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def probe_work():
    """Fixed pure-Python work whose duration tracks the host's speed.

    Small-int and bignum arithmetic, a dict and a list comprehension, the
    kinds of work modh1 does.  It is the benchmark's own code, so a change
    to modh1 cannot move it.
    """
    acc, counts, big = 0, {}, 3 ** 200
    for i in range(200):
        x = (i * 7919) % 1013
        counts[x] = counts.get(x, 0) + 1
        big = (big * 1000003 + i) % (1 << 400)
        acc += len([j for j in range(8) if (x + j) % 3])
    return acc + len(counts) + (big & 1)


class Probe:
    """Host-speed probes, and times scaled to the reference host's speed.

    The host's speed drifts by up to 2x, in phases from under a second to
    tens of seconds long, that slow modh1 and `probe_work` alike.  While
    measuring, a timer signal runs `probe_work` every PROBE_EVERY_S, also
    in the middle of a case.  A timed interval is its wall time less the
    probes run inside it, scaled by PROBE_NOMINAL_S over the mean of the
    probes inside it and the PROBE_SIDE on each side, so the value reads
    as seconds on the reference host at the probe's median speed there.
    The mean, not the median: the probes are evenly spaced in time, so
    their mean follows the host's speed averaged over the interval.
    """

    def __init__(self):
        self.times = []  # duration of each probe, in order
        self.busy = 0.0  # seconds spent probing so far
        self._probing = False

    def run(self, count=1):
        if self._probing:  # a timer signal that lands inside a probe
            return
        self._probing = True
        try:
            for _ in range(count):
                t = perf_counter()
                probe_work()
                seconds = perf_counter() - t
                self.times.append(seconds)
                self.busy += seconds
        finally:
            self._probing = False

    def _on_timer(self, signum, frame):
        self.run()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """The start of a timed interval."""
        return perf_counter(), self.busy, len(self.times)

    def interval(self, mark):
        """(wall seconds less probing, first probe, end probe) since mark."""
        start, busy, first = mark
        return (perf_counter() - start - (self.busy - busy), first,
                len(self.times))

    def scale(self, seconds, first, end):
        near = self.times[max(0, first - PROBE_SIDE):end + PROBE_SIDE]
        return seconds * PROBE_NOMINAL_S / statistics.fmean(near)


class Runner:
    """Times one `main([...])` call per case and keeps its outcome.

    With a running Probe, `calls` keeps each case's key, pass index and
    `Probe.interval`, to be scaled once the probes after it are in.
    """

    def __init__(self, cli, checks, probe=None):
        self.cli = cli  # main is looked up per call, so tracing sees it
        self.checks = checks
        self.probe = probe
        self.calls = []  # (key, pass index, (seconds, first, end probe))
        self.pass_index = 0
        self.tracer = None

    def call(self, key, argv):
        out, err = io.StringIO(), io.StringIO()
        mark = None if self.probe is None else self.probe.mark()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # a traceback is a failed case, not a crash
            rc = "exception %r" % (e,)
        if mark is not None:
            self.calls.append((key, self.pass_index,
                               self.probe.interval(mark)))
        return rc, out.getvalue()

    def report(self, key, argv, expect_rc=0):
        """Run a case that prints a JSON report; None when it failed."""
        rc, text = self.call(key, argv + ["--format", "json"])
        if not self.checks.expect(rc == expect_rc,
                                  "%s: exit %r, wanted %d" % (key, rc,
                                                              expect_rc)):
            return None
        try:
            return json.loads(text)
        except ValueError:
            self.checks.expect(False, "%s: report is not JSON" % key)
            return None


# ----------------------------------------------------------- 2x2 helpers --
# Own integer arithmetic, so input generation and witness checks do not
# lean on the program under test.

def mul2(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def inv2(x):
    # inverse of a determinant 1 matrix
    return (x[3], -x[1], -x[2], x[0])


def det2(x):
    return x[0] * x[3] - x[1] * x[2]


LETTERS = {"S": (0, -1, 1, 0), "T": (1, 1, 0, 1), "t": (1, -1, 0, 1)}


def word_matrix(word):
    m = (1, 0, 0, 1)
    for letter in word:
        m = mul2(m, LETTERS[letter])
    return m


def parse2(text):
    rows = [r.split(",") for r in text.split(";")]
    return tuple(int(x) for row in rows for x in row)


BRUTE_BOUND = 50


def brute_witness(g, bound):
    """A trace-zero B = (x y; z -x) with det 1 and B g = g^-1 B, or None.

    det B = 1 says y z = -(1 + x^2), so y runs over the divisors of
    1 + x^2; the conjugation condition is b z = (d - a) x - c y.  The
    search covers every such B with |x|, |y| <= bound.
    """
    a, b, c, d = g
    for x in range(-bound, bound + 1):
        m = 1 + x * x
        for y in range(1, min(bound, m) + 1):
            if m % y:
                continue
            for sy in (y, -y):
                z = -m // sy
                if b * z == (d - a) * x - c * sy:
                    return (x, sy, z, -x)
    return None


def valid_witness(w, g):
    return (w[0] + w[3] == 0 and det2(w) == 1
            and mul2(w, g) == mul2(inv2(g), w))


# ------------------------------------------------------------- workloads --


class H1Ladder:
    """`h1 --group G --n n` for G in psl2, sl2, gl2 and even n <= N_MAX."""

    GROUPS = ("psl2", "sl2", "gl2")
    N_MAX = 32

    def __init__(self, modh1, ref, rng, workdir):
        coh = modh1["cohomology"]
        self.ref = ref["h1"]
        self.cases = [(g, n) for g in self.GROUPS
                      for n in range(2, self.N_MAX + 1, 2)]
        rng.shuffle(self.cases)
        self.rank = {("psl2", n): coh.rank_psl2(n)
                     for n in range(2, self.N_MAX + 1, 2)}
        self.rank.update({("gl2", n): coh.rank_gl2(n)
                          for n in range(2, self.N_MAX + 1, 2)})

    def run_pass(self, runner):
        checks = runner.checks
        seen = {}
        for group, n in self.cases:
            key = "h1 %s n=%d" % (group, n)
            rep = runner.report(key, ["h1", "--group", group, "--n", str(n)])
            if rep is None:
                continue
            inv = rep["results"]["invariants"]
            seen[group, n] = inv
            checks.expect(inv == self.ref[group][str(n)],
                          "%s: invariants %r differ from the reference"
                          % (key, inv))
            if (group, n) in self.rank:
                checks.expect(inv["free_rank"] == self.rank[group, n],
                              "%s: free rank off the closed form" % key)
        for n in range(2, self.N_MAX + 1, 2):
            if ("sl2", n) in seen and ("psl2", n) in seen:
                checks.expect(seen["sl2", n] == seen["psl2", n],
                              "sl2 and psl2 invariants differ at n=%d" % n)

    def finish(self, runner):
        pass


class FreeLiftCerts:
    """Free-lift certificates at p = 11 mod 12: write, re-read, tamper, h1."""

    PRIMES = (11, 23, 47, 59, 71, 83, 107, 131)
    DEGREES = (1, 3)
    H1_DEGREE = 4
    OVERGROUPS = ["K x <eps>", "sl2"]

    def __init__(self, modh1, ref, rng, workdir):
        self.ref = ref["gamma0bar"]
        self.workdir = workdir
        self.cases = [(p, n) for p in self.PRIMES for n in self.DEGREES]
        rng.shuffle(self.cases)
        # which overgroup's refutation functional the tampered copy zeroes
        self.tamper = {case: rng.randrange(len(self.OVERGROUPS))
                       for case in self.cases}

    def run_pass(self, runner):
        checks = runner.checks
        for p, n in self.cases:
            tag = "p=%d n=%d" % (p, n)
            k = 1 + (p + 1) // 6
            cert = os.path.join(self.workdir, "free-lift-%d-%d.json" % (p, n))
            rep = runner.report("witness " + tag,
                                ["witness", "--kind", "free-lift:%d" % p,
                                 "--n", str(n), "--cert", cert])
            if rep is not None:
                res = rep["results"]
                checks.expect(res.get("basis_rank") == k,
                              "witness %s: basis rank" % tag)
                checks.expect(res.get("overgroups") == self.OVERGROUPS,
                              "witness %s: refuted overgroups" % tag)
            runner.report("verify " + tag, ["verify-certificate", cert])
            self._tamper_case(runner, tag, cert, self.tamper[p, n])
            rep = runner.report("h1 gamma0bar " + tag,
                                ["h1", "--group", "gamma0bar:%d" % p,
                                 "--n", str(self.H1_DEGREE)])
            if rep is not None:
                inv = rep["results"]["invariants"]
                checks.expect(inv["free_rank"] == (k - 1) * (self.H1_DEGREE
                                                             + 1),
                              "h1 gamma0bar:%d: free rank" % p)
                checks.expect(inv == self.ref[str(p)],
                              "h1 gamma0bar:%d: invariants %r differ from "
                              "the reference" % (p, inv))

    def _tamper_case(self, runner, tag, cert, which):
        # Zeroing the refutation functional must be rejected.  Scaling the
        # cocycle or editing the stored pairing is no tamper: the claim
        # stays true or the field is recomputed.
        try:
            with open(cert, encoding="utf-8") as fh:
                text = fh.read()
            payload = json.loads(text)
            ref = payload["overgroups"][which]["refutation"]
            ref["functional"] = [0] * len(ref["functional"])
        except (OSError, ValueError, LookupError) as e:
            runner.checks.expect(False, "tamper %s: no certificate to tamper "
                                 "with (%r)" % (tag, e))
            return
        if runner.tracer is not None:
            runner.tracer.count_cert_bytes(len(text.encode("utf-8")))
        bad = cert[:-len(".json")] + "-tampered.json"
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        runner.report("tampered " + tag, ["verify-certificate", bad],
                      expect_rc=1)

    def finish(self, runner):
        pass


class AmenableConjugates:
    """`classify --matrix` on hyperbolic_corpus(200) and seeded conjugates."""

    def __init__(self, modh1, ref, rng, workdir):
        amen = ref["amenable"]
        # the bases are hyperbolic_corpus(200) as recorded, with decisions
        self.bases = [tuple(entries) for entries, _, _ in amen["bases"]]
        self.expected = {tuple(entries): (sl2_type, dihedral)
                         for entries, sl2_type, dihedral in amen["bases"]}
        self.cases = [(g, g) for g in self.bases]
        # fixed draws from each cost stratum keep the per-seed total steady
        for stratum in amen["strata"]:
            for i, word in rng.sample(stratum["pairs"], stratum["take"]):
                g = self.bases[i]
                h = word_matrix(word)
                self.cases.append((mul2(mul2(h, g), inv2(h)), g))
        rng.shuffle(self.cases)
        self.decided = {}

    def run_pass(self, runner):
        checks = runner.checks
        for index, (m, base) in enumerate(self.cases):
            # one matrix may appear twice; the index keeps the keys apart
            key = "#%d classify %d,%d;%d,%d" % ((index,) + m)
            rep = runner.report(key, ["classify", "--matrix=%d,%d;%d,%d" % m])
            if rep is None:
                continue
            res = rep["results"]
            sl2_type, dihedral = self.expected[base]
            w = res.get("witness")
            checks.expect(res.get("sl2_type") == sl2_type
                          and (w is not None) == dihedral,
                          "%s: decision differs from its base" % key)
            if w is not None:
                checks.expect(valid_witness(parse2(w), m),
                              "%s: invalid witness %s" % (key, w))
            if m == base:
                self.decided[base] = None if w is None else parse2(w)

    def finish(self, runner):
        # the bases against the brute-force search, once per run
        for g, w in self.decided.items():
            brute = brute_witness(g, BRUTE_BOUND)
            runner.checks.expect(brute is None or w is not None,
                                 "%r: brute force found a witness" % (g,))
            if w is not None and max(abs(w[0]), abs(w[1])) <= BRUTE_BOUND:
                runner.checks.expect(brute is not None,
                                     "%r: witness inside the brute-force "
                                     "box, search found none" % (g,))


WORKLOADS = {"h1-ladder": H1Ladder, "free-lift-certs": FreeLiftCerts,
             "amenable-conjugates": AmenableConjugates}


# ----------------------------------------------------------------- setup --


def import_modh1():
    for name in [m for m in sys.modules if m == "modh1"
                 or m.startswith("modh1.")]:
        del sys.modules[name]
    return {layer: importlib.import_module("modh1." + layer)
            for layer in tracing.LAYERS}


def setup(name, seed, workdir):
    """Import, reference table and inputs; returns the workload."""
    modh1 = import_modh1()
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    return modh1, WORKLOADS[name](modh1, ref, random.Random(seed), workdir)


# --------------------------------------------------------------- metrics --


def tail(values):
    """(value, percentile): the highest one with TAIL_BEYOND samples above."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_passes(workload, runner, seconds):
    """Whole passes until the next one would overrun; pass times."""
    passes = []
    start = perf_counter()
    while True:
        runner.pass_index = len(passes)
        t = perf_counter()
        workload.run_pass(runner)
        passes.append(perf_counter() - t)
        if perf_counter() - start + statistics.median(passes) > seconds:
            return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modh1", "__init__.py")):
        print("error: no modh1 sources under %s" % SRC, file=sys.stderr)
        return 2
    os.environ.pop("MODH1_JOBS", None)
    sys.path.insert(0, SRC)

    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    probe = Probe()
    try:
        probe.start()
        setups = []
        for _ in range(SETUP_REPEATS):
            mark = probe.mark()
            modh1, workload = setup(args.workload, args.seed, workdir)
            setups.append(probe.interval(mark))
        checks = Checks()
        if args.trace:
            probe.stop()  # no probes inside traced spans
            runner = Runner(modh1["cli"], checks)
            metrics, info = traced_run(workload, runner)
        else:
            runner = Runner(modh1["cli"], checks, probe)
            passes = run_passes(workload, runner, args.seconds)
            probe.run(PROBE_SIDE)  # the last case needs probes after it
            probe.stop()
            metrics, info = scaled_times(runner)
            metrics["setup_s"] = statistics.median(
                probe.scale(*interval) for interval in setups)
            info.update({
                "passes_s": passes,
                "setup_wall_s": statistics.median(s for s, _, _ in setups),
                "probes": len(probe.times),
                "probe_median_s": statistics.median(probe.times)})
        workload.finish(runner)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    info.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "cpu": cpu_model(),
        "fail_frac": checks.failed / max(checks.attempted, 1),
    })
    for msg in checks.messages:
        print("FAILED: " + msg)
    print("env " + json.dumps(info, sort_keys=True))
    if not args.trace:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        # a function a later change removes reads as never called
        value = metrics.get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-52s %s %s" % (m["name"], value, m["unit"]))
    print(json.dumps({"correct": checks.failed == 0 and checks.attempted > 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": out}))
    return 0


def scaled_times(runner):
    """run_s, case_p50_s and case_tail_s at the reference host's speed.

    run_s sums a pass's case times; the wall-clock case medians go to the
    `env` line beside them.
    """
    case_times, pass_times, wall = {}, {}, {}
    for key, index, interval in runner.calls:
        scaled = runner.probe.scale(*interval)
        case_times.setdefault(key, []).append(scaled)
        pass_times[index] = pass_times.get(index, 0.0) + scaled
        wall.setdefault(key, []).append(interval[0])
    per_case = [statistics.median(v) for v in case_times.values()]
    wall_case = [statistics.median(v) for v in wall.values()]
    value, pct = tail(per_case)
    metrics = {"run_s": statistics.median(pass_times.values()),
               "case_p50_s": statistics.median(per_case),
               "case_tail_s": value}
    return metrics, {
        "passes_scaled_s": list(pass_times.values()),
        "cases": len(per_case), "case_tail_percentile": pct,
        "wall": {"case_p50_s": statistics.median(wall_case),
                 "case_tail_s": tail(wall_case)[0]}}


def traced_run(workload, runner):
    """One untraced pass, then two traced passes over the same inputs."""
    t = perf_counter()
    workload.run_pass(runner)
    untraced = perf_counter() - t
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            t = perf_counter()
            workload.run_pass(runner)
            elapsed = perf_counter() - t
        finally:
            tracer.uninstall()
            runner.tracer = None
        runs.append((elapsed, tracer.metrics()))
    (first_s, metrics), (_, again) = runs
    same = tracing.counts(metrics) == tracing.counts(again)
    runner.checks.expect(same, "counts differ between two traced passes")
    layers = {layer: metrics[layer + ".self_s"] for layer in tracing.LAYERS}
    print("all traced functions (calls, total_s, self_s):")
    for key in sorted(k[:-len(".calls")] for k in metrics
                      if k.endswith(".calls")):
        if metrics[key + ".calls"]:
            print("  %-48s %8d %10.4f %10.4f" % (
                key, metrics[key + ".calls"], metrics[key + ".total_s"],
                metrics[key + ".self_s"]))
    return metrics, {"untraced_run_s": untraced, "traced_run_s": first_s,
                      "trace_overhead_s": first_s - untraced,
                      "layer_self_s": layers, "counts_repeat": same}


if __name__ == "__main__":
    sys.exit(main())
