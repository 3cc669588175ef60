"""ribbonflow benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the library is imported from ``src``.
The loop is closed and single-threaded: one job at a time, each started
when the previous one returns.  Jobs come in passes (see workloads.py);
a run ends after the first whole pass that finishes once ``--seconds``
have passed and at least MIN_JOBS jobs are done, so that job_p90_ms has at
least ten samples above it, or once a job has failed, which voids the run.
Every job is checked against the recorded seed results in refs.json and
against the identities named in workloads.py.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of passes untraced, the same passes
again traced, replays the sampled exact operations, and reports the
per-layer metrics; the spans go to ``.perfbench_out/``.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it repeat the metrics for
people, with the sample counts, fail_ratio, nproc, Python version, git sha
and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / 'src'
OUT_DIR = ROOT / '.perfbench_out'
MIN_JOBS = 100          # p90 keeps ten samples above it
SETUP_SAMPLES = 5       # fresh-interpreter set-ups per run, median reported
HARD_STOP_S = 140       # the run returns well inside 180 s whatever happens


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--setup-only', action='store_true',
                        help='time one set-up in this interpreter and exit')
    return parser.parse_args(argv)


def import_workloads():
    """Import the benchmark's workloads, and with them ribbonflow from this
    checkout's src; exits with an error when the checkout has no library."""
    if not (SRC / 'ribbonflow' / '__init__.py').is_file():
        sys.exit('perfbench: no ribbonflow sources under %s' % SRC)
    sys.path.insert(0, str(SRC))
    import workloads
    import ribbonflow
    if Path(ribbonflow.__file__).resolve().parent != SRC / 'ribbonflow':
        sys.exit('perfbench: imported ribbonflow from %s, not %s'
                 % (ribbonflow.__file__, SRC))
    return workloads


def run_info(seed):
    head = ROOT / '.git' / 'HEAD'
    sha = 'none'
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith('ref: '):
            target = ROOT / '.git' / ref[5:]
            sha = target.read_text().strip() if target.is_file() else ref
        else:
            sha = ref
    src = hashlib.sha256()
    for path in sorted((SRC / 'ribbonflow').glob('*.py')):
        src.update(path.read_bytes())
    return {'nproc': os.cpu_count(), 'python': platform.python_version(),
            'git_sha': sha, 'src_sha256': src.hexdigest()[:16],
            'seed': seed}


class Outcome:
    """Checks and timings of the jobs run so far."""

    def __init__(self, refs, agrees):
        self.refs = refs
        self.agrees = agrees
        self.attempted = self.failed = 0
        # (ns, speed scale, units, float steps) of every job that passed
        self.passed = []
        self.errors = []

    def check(self, job, raw, ns, error, scale=1.0, counted=True):
        """Record one finished job; raw is its result, or error the
        exception it raised, and scale converts its time to the reference
        speed.  A job not counted (a warm-up) is checked but not timed.
        Returns whether it passed."""
        self.attempted += 1
        if error is None:
            try:
                summary, units = job.summarize(raw)
                if not self.agrees(summary, self.refs.get(job.key)):
                    error = 'result %r differs from the recorded %r' % (
                        summary, self.refs.get(job.key))
            except Exception as exc:    # Mismatch, or a malformed result
                error = 'check failed: %s' % exc
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append('%s: %s' % (job.key, error))
            return False
        if counted:
            self.passed.append((ns, scale,
                                None if job.float_steps else units,
                                job.float_steps))
        return True

    def metrics(self, scaled=True):
        """Job latency percentiles and throughputs, at the reference speed
        or (scaled=False) as the wall clock read them."""
        rows = [(ns * scale if scaled else ns, units, steps)
                for ns, scale, units, steps in self.passed]
        times_ms = [ns / 1e6 for ns, _, _ in rows]
        p90 = statistics.quantiles(times_ms, n=10)[-1]
        unit_ns = sum(ns for ns, units, _ in rows if units is not None)
        float_ns = sum(ns for ns, _, steps in rows if steps)
        return {
            'job_p50_ms': statistics.median(times_ms),
            'job_p90_ms': p90,
            'units_per_s': sum(u for _, u, _ in rows if u is not None)
            / (unit_ns / 1e9),
            'float_steps_per_s': sum(s for _, _, s in rows) / (float_ns / 1e9)
            if float_ns else 0.0,
            'above_p90': sum(1 for t in times_ms if t > p90),
        }


def time_job(job, tracer=None, job_id=0):
    """Run one job; returns (raw result, ns, error text or None)."""
    span = tracer.open_job(job_id, job.template) if tracer else None
    t0 = time.perf_counter_ns()
    try:
        raw, error = job.run(), None
    except Exception as exc:    # a raising job is a failed job
        raw, error = None, 'raised %s: %s' % (type(exc).__name__, exc)
    ns = time.perf_counter_ns() - t0
    if tracer:
        tracer.close_job(span)
    return raw, ns, error


def probe_defects(workloads, ctx):
    """Run the CLI inputs whose documented exit the seed misses; returns
    (name, description, matches documentation) per input."""
    out = []
    for name, argv, want, env in ctx.get('defects', ()):
        try:
            code, _ = workloads.run_cli(argv, env)
            what = 'exit %s' % code
            ok = code == want
        except Exception as exc:
            what, ok = 'raised %s' % type(exc).__name__, False
        out.append((name, '%s, documented exit %d' % (what, want), ok))
    return out


def setup_record(wall_s):
    """One set-up time, as measured and at the reference speed (scaled by
    the calibration loops run right after it)."""
    return {'setup_wall_s': wall_s,
            'setup_s': wall_s * speed.scale(speed.endpoint())}


def setup_samples(args, own):
    """Set-up records: this interpreter's own plus SETUP_SAMPLES - 1 fresh
    ones, run one after another."""
    records = [own]
    cmd = [sys.executable, str(HERE / 'run.py'), '--workload', args.workload,
           '--seed', str(args.seed), '--setup-only']
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        records.append(json.loads(proc.stdout.splitlines()[-1]))
    return records


def run_timed(args, workloads, wl, ctx, refs, setup_own):
    outcome = Outcome(refs, workloads.agrees)
    rng = random.Random('%s:%d' % (wl.name, args.seed))
    if wl.warm_up:
        for job in wl.make_pass(ctx, rng):  # untimed: fill the caches
            outcome.check(job, *time_job(job), counted=False)
    start = time.perf_counter()
    before = speed.endpoint()
    while True:
        for job in wl.make_pass(ctx, rng):
            raw, ns, error = time_job(job)
            after = speed.endpoint()
            outcome.check(job, raw, ns, error, speed.scale(before + after))
            before = after
        elapsed = time.perf_counter() - start
        # a run with a failed job is void; no need to fill up its samples
        enough = len(outcome.passed) >= MIN_JOBS or outcome.failed
        if elapsed >= HARD_STOP_S or (elapsed >= args.seconds and enough):
            break
    defects = probe_defects(workloads, ctx)
    setups = setup_samples(args, setup_own)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, extra = {}, [('unit', wl.unit)]
    if len(outcome.passed) >= 2:
        ref, wall = outcome.metrics(), outcome.metrics(scaled=False)
        metrics = {
            'setup_s': (statistics.median(r['setup_s'] for r in setups), 's'),
            'job_p50_ms': (ref['job_p50_ms'], 'ms'),
            'job_p90_ms': (ref['job_p90_ms'], 'ms'),
            'units_per_s': (ref['units_per_s'], '1/s'),
            'peak_rss_mb': (rss_mb, 'MB'),
        }
        if ref['float_steps_per_s']:
            extra.append(('float_steps_per_s', '%.6g 1/s (wall %.6g)' % (
                ref['float_steps_per_s'], wall['float_steps_per_s'])))
        extra += [
            ('wall setup_s', '%.6g s' % statistics.median(
                r['setup_wall_s'] for r in setups)),
            ('wall job_p50_ms', '%.6g ms' % wall['job_p50_ms']),
            ('wall job_p90_ms', '%.6g ms' % wall['job_p90_ms']),
            ('wall units_per_s', '%.6g 1/s' % wall['units_per_s']),
            ('jobs above p90', str(ref['above_p90'])),
        ]
    extra += [
        ('jobs', '%d passed of %d attempted in %.1f s'
         % (len(outcome.passed), outcome.attempted, elapsed)),
        ('fail_ratio', '%.4f' % (outcome.failed / outcome.attempted)),
        ('setup_s samples', ' '.join('%.4f' % r['setup_s'] for r in setups)),
    ]
    for name, what, ok in defects:
        extra.append(('known defect %s' % name,
                      '%s (%s)' % (what, 'fixed' if ok else 'still open')))
    return outcome, metrics, extra


def run_traced(args, workloads, wl, ctx, refs):
    import tracing
    outcome = Outcome(refs, workloads.agrees)
    rng = random.Random('%s:%d' % (wl.name, args.seed))
    count = max(1, int(args.seconds // (3 * wl.nominal_pass_s)))
    jobs = [job for _ in range(count) for job in wl.make_pass(ctx, rng)]
    for job in jobs[:len(jobs) // count]:       # untimed: fill the caches
        outcome.check(job, *time_job(job), counted=False)
    tracer = tracing.Tracer(extra_modules=(workloads,))
    tracer.install()
    try:
        span = tracer.open_job(-1, 'setup')
        wl.setup()
        tracer.close_job(span)
    finally:
        tracer.uninstall()
    setup_top = {k: v[1] for k, v in tracer.exact_calls.items()}
    # each job runs untraced, then traced, so that drift in the machine's
    # speed cancels out of trace.overhead
    untraced_ns = 0
    finished = []
    for job_id, job in enumerate(jobs):
        raw, ns, error = time_job(job)
        outcome.check(job, raw, ns, error)
        untraced_ns += ns
        tracer.install()
        try:
            finished.append((job,) + time_job(job, tracer, job_id))
        finally:
            tracer.uninstall()
    tracer.install()
    try:
        defects = probe_defects(workloads, ctx)
    finally:
        tracer.uninstall()
    for kind, top in setup_top.items():
        tracer.exact_calls[kind][1] -= top
    traced_ns = out_bytes = mismatches = 0
    for job, raw, ns, error in finished:
        outcome.check(job, raw, ns, error)
        traced_ns += ns
        if job.exit_code is not None:
            code, out = raw if raw is not None else (None, '')
            out_bytes += len(out)
            mismatches += code != job.exit_code
    mismatches += sum(1 for _, _, ok in defects if not ok)
    rep = tracing.replay(tracer)
    metrics = tracing.per_layer(tracer, rep, untraced_ns, traced_ns,
                                out_bytes, mismatches)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ('trace-%s-seed%d.jsonl' % (wl.name, args.seed))
    tracer.write_spans(path, dict(run_info(args.seed), workload=wl.name,
                                  columns=['name', 'start_ns', 'end_ns',
                                           'parent', 'job']))
    extra = [('traced passes', '%d (%d jobs), after one warm-up pass'
              % (count, len(jobs))),
             ('spans', str(path.relative_to(ROOT)))]
    return outcome, metrics, extra


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit('perfbench: unknown workload %r (have %s)' % (
            args.workload, ', '.join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]
    ctx = wl.setup()
    setup_own = setup_record(time.perf_counter() - t0)
    if args.setup_only:
        print(json.dumps(setup_own))
        return 0
    refs = json.loads((HERE / 'refs.json').read_text())[wl.name]
    if args.trace:
        outcome, metrics, extra = run_traced(args, workloads, wl, ctx, refs)
    else:
        outcome, metrics, extra = run_timed(args, workloads, wl, ctx, refs,
                                            setup_own)
    for key, value in run_info(args.seed).items():
        print('%-28s %s' % (key, value))
    print('%-28s %s' % ('workload', wl.name))
    for name, (value, unit) in metrics.items():
        print('%-28s %.6g %s' % (name, value, unit))
    for name, value in extra:
        print('%-28s %s' % (name, value))
    for line in outcome.errors:
        print('FAILED %s' % line, file=sys.stderr)
    print(json.dumps({
        'correct': outcome.failed == 0 and bool(metrics),
        'attempted': outcome.attempted,
        'failed': outcome.failed,
        'metrics': {name: {'value': value, 'unit': unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
