"""Alternated-pairs benchmark: a parent commit against the work tree.

    python3 tools/bench_pairs.py --parent SHA --out BENCH_N.json \\
        --l3 tools/l3_flow.py [--what TEXT] [--claim WORKLOAD:METRIC]
        [--workloads orbit,cli-readme,eigen-verify,matched-pair] [--seed 1]

Run it from the repository root, with nothing else running.  It makes two
checkouts in a temporary directory: the parent from ``git archive`` of its
commit, the change from a copy of the work tree's files that git tracks or
would add (ignored files left out).  Then, one process at a time:

- end to end: ``perfbench/run.py --workload W --seed N --seconds 10
  --trace 0`` once per side per pair, 10 pairs, the side that runs first
  alternating (parent first on odd pairs), one workload after another;
- L3: the --l3 script, run from each side's root in a fresh interpreter,
  8 rounds alternated as the pairs are.  It prints one JSON object of
  timings, None where a side is too slow to time, and the table gives
  each timing's median over rounds.  tools/l3_flow.py times the geometric
  flow; a change to another layer names its own script;
- L5: the Tier-1 suite's wall time and test_c06's call time, per side per
  round, 3 rounds alternated.

The JSON written has the keys what, sha, nproc, python, method, claim,
end_to_end and layers.  A claim is met when the change is better on at
least 9 of the 10 pairs and its median beats the parent's by more than the
width of the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ('orbit', 'cli-readme', 'eigen-verify', 'matched-pair')
METRICS = {'setup_s': 'lower', 'job_p50_ms': 'lower', 'job_p90_ms': 'lower',
           'units_per_s': 'higher', 'peak_rss_mb': 'lower'}
PAIRS = 10
SECONDS = 10
ROUNDS = 8
TIER1_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--parent', required=True,
                        help='commit the work tree is measured against')
    parser.add_argument('--out', required=True, type=Path)
    parser.add_argument('--l3', required=True, type=Path,
                        help='script that prints one JSON object of timings')
    parser.add_argument('--what', default='')
    parser.add_argument('--claim', default=None,
                        help='WORKLOAD:METRIC the change claims to improve')
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--workloads', default=','.join(WORKLOADS))
    return parser.parse_args(argv)


def make_checkouts(parent, base: Path):
    """The parent from git archive, the change copied from the work tree:
    every file git tracks or would add."""
    sides = {'parent': base / 'parent', 'change': base / 'change'}
    for path in sides.values():
        path.mkdir()
    archive = subprocess.run(['git', 'archive', parent], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(['tar', '-x', '-C', str(sides['parent'])], input=archive,
                   check=True)
    listed = subprocess.run(['git', 'ls-files', '-co', '--exclude-standard',
                             '-z'], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout
    for name in filter(None, listed.split('\0')):
        if (ROOT / name).is_file():
            dst = sides['change'] / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dst)
    return sides


def order(k):
    """The sides in running order for pair or round k, from 1."""
    return ('parent', 'change') if k % 2 else ('change', 'parent')


def run_bench(cwd: Path, workload, seed):
    out = subprocess.run(
        [sys.executable, 'perfbench/run.py', '--workload', workload,
         '--seed', str(seed), '--seconds', str(SECONDS), '--trace', '0'],
        cwd=cwd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    q = statistics.quantiles(values, n=4, method='inclusive')
    return [round(q[0], 4), round(q[2], 4)]


def compare(parent_runs, change_runs, better):
    wins = sum((c < p) if better == 'lower' else (c > p)
               for p, c in zip(parent_runs, change_runs))
    pm, cm = statistics.median(parent_runs), statistics.median(change_runs)
    return {'parent': round(pm, 4), 'change': round(cm, 4),
            'parent_quartiles': quartiles(parent_runs),
            'change_quartiles': quartiles(change_runs),
            'change_over_parent': round(cm / pm, 4) if pm else None,
            'change_wins': wins,
            'parent_runs': [round(v, 4) for v in parent_runs],
            'change_runs': [round(v, 4) for v in change_runs]}


def end_to_end(sides, workload, seed):
    runs = {'parent': [], 'change': []}
    for k in range(1, PAIRS + 1):
        for side in order(k):
            runs[side].append(run_bench(sides[side], workload, seed))
        print('%s pair %d/%d' % (workload, k, PAIRS), file=sys.stderr)
    record = {
        'pairs': PAIRS, 'seeds': [seed],
        'order': 'parent first on odd pairs, change first on even pairs',
        'correct': {s: all(r['correct'] for r in runs[s]) for s in runs},
        'failed': {s: sum(r['failed'] for r in runs[s]) for s in runs},
        'attempted': {s: sum(r['attempted'] for r in runs[s]) for s in runs},
    }
    for metric, better in METRICS.items():
        record[metric] = compare(
            [r['metrics'][metric]['value'] for r in runs['parent']],
            [r['metrics'][metric]['value'] for r in runs['change']], better)
    return record


def layers(sides, script: Path):
    """L3: the median over rounds of each timing the script prints."""
    runs = {'parent': [], 'change': []}
    for k in range(1, ROUNDS + 1):
        for side in order(k):
            out = subprocess.run([sys.executable, str(script)],
                                 cwd=sides[side], check=True,
                                 capture_output=True, text=True).stdout
            runs[side].append(json.loads(out))
    table = {}
    for name in runs['change'][0]:
        par = [r.get(name) for r in runs['parent']]
        chg = [r[name] for r in runs['change']]
        if None in par or None in chg:
            table[name] = {
                side: None if None in v else round(statistics.median(v), 3)
                for side, v in (('parent', par), ('change', chg))}
            table[name].update(rounds=ROUNDS,
                               note='None: too slow to time on that side')
            continue
        pm, cm = statistics.median(par), statistics.median(chg)
        table[name] = {'parent': round(pm, 3), 'change': round(cm, 3),
                       'ratio': round(cm / pm, 4),
                       'change_wins': sum(c < p for p, c in zip(par, chg)),
                       'rounds': ROUNDS}
    return table


def pytest_run(cwd: Path, args):
    env = dict(os.environ, PYTHONPATH='src')
    t = time.perf_counter()
    out = subprocess.run([sys.executable, '-m', 'pytest', '-q'] + args,
                         cwd=cwd, env=env, capture_output=True, text=True)
    return time.perf_counter() - t, out.stdout


def tier1(sides):
    """L5: Tier-1 wall seconds and test_c06's call seconds per round."""
    walls = {'parent': [], 'change': []}
    c06 = {'parent': [], 'change': []}
    summary = {}
    for k in range(1, TIER1_ROUNDS + 1):
        for side in order(k):
            wall, out = pytest_run(sides[side],
                                   ['--continue-on-collection-errors'])
            walls[side].append(round(wall, 2))
            summary[side] = out.strip().splitlines()[-1]
            _, out = pytest_run(sides[side], [
                'tests/test_acceptance.py', '-k', 'c06', '--durations=1'])
            hit = re.search(r'([\d.]+)s call\s+\S*test_c06', out)
            c06[side].append(float(hit.group(1)) if hit else None)
        print('tier-1 round %d/%d' % (k, TIER1_ROUNDS), file=sys.stderr)
    return {
        'L5 Tier-1 wall s (python -m pytest -q)': {
            'parent': walls['parent'], 'change': walls['change'],
            'summary': summary},
        'L5 test_c06 call s (pytest --durations)': c06,
    }


def claim_record(end, claim):
    workload, metric = claim.split(':')
    rec = end[workload][metric]
    better = METRICS[metric]
    lo, hi = rec['parent_quartiles']
    gap = (rec['parent'] - rec['change'] if better == 'lower'
           else rec['change'] - rec['parent'])
    return {'workload': workload, 'metric': metric,
            'parent_median': rec['parent'], 'change_median': rec['change'],
            'parent_iqr': [lo, hi], 'change_wins': rec['change_wins'],
            'pairs': PAIRS,
            'met': rec['change_wins'] >= 0.9 * PAIRS and gap > hi - lo}


def main(argv=None):
    args = parse_args(argv)
    parent = subprocess.run(['git', 'rev-parse', args.parent], cwd=ROOT,
                            check=True, capture_output=True,
                            text=True).stdout.strip()
    script = args.l3.resolve()
    base = Path(tempfile.mkdtemp(prefix='bench_pairs_'))
    try:
        sides = make_checkouts(parent, base)
        end = {w: end_to_end(sides, w, args.seed)
               for w in args.workloads.split(',')}
        table = layers(sides, script)
        table.update(tier1(sides))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    record = {
        'what': args.what,
        'sha': {'parent': parent, 'change': 'the commit that adds this file'},
        'nproc': os.cpu_count(),
        'python': platform.python_version(),
        'method': {
            'end_to_end': 'python3 perfbench/run.py --workload W --seed %d '
                          '--seconds %d --trace 0, one run per side per pair:'
                          ' the parent from git archive of its commit, the '
                          'change from a copy of the work tree (files git '
                          'tracks or would add); the side that runs first '
                          'alternates (parent first on odd pairs); %d pairs '
                          'per workload, one workload after another (%s), '
                          'nothing else running (tools/bench_pairs.py)'
                          % (args.seed, SECONDS, PAIRS, args.workloads),
            'layers': 'L3: python3 %s from each side\'s root, one fresh '
                      'interpreter per side per round, %d alternated rounds '
                      '(parent first on odd rounds), run after the '
                      'end-to-end pairs; the table gives the median over '
                      'rounds.  L5: the Tier-1 suite and test_c06 per side '
                      'per round, %d alternated rounds'
                      % (args.l3, ROUNDS, TIER1_ROUNDS),
        },
        'claim': claim_record(end, args.claim) if args.claim else None,
        'end_to_end': end,
        'layers': table,
    }
    args.out.write_text(json.dumps(record, indent=1) + '\n')
    return 0


if __name__ == '__main__':
    sys.exit(main())
