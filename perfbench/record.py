"""Record the reference result of every job variant into refs.json.

    python3 perfbench/record.py [WORKLOAD ...]

Run it from the repository root on the commit whose results are the
reference.  Each variant runs once; its summary (a digest of CLI stdout,
a final orbit state, a witness, a conjugacy image, a halving index) is
what the benchmark compares every later job against.  A variant that
breaks an independent identity stops the recording.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, import_workloads


def main(argv):
    workloads = import_workloads()
    path = HERE / 'refs.json'
    refs = json.loads(path.read_text()) if path.is_file() else {}
    names = argv or list(workloads.WORKLOADS)
    for name in names:
        wl = workloads.WORKLOADS[name]
        ctx = wl.setup()
        t0 = time.perf_counter()
        table = {}
        for job in wl.all_jobs(ctx):
            summary, _ = job.summarize(job.run())
            table[job.key] = summary
        refs[name] = dict(sorted(table.items()))
        print('%-14s %4d variants in %.1f s' % (name, len(table),
                                                time.perf_counter() - t0))
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + '\n')
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
