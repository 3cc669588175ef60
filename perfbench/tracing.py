"""The traced run: spans and counters around ribbonflow's public
functions, installed from outside the library.

``from .x import y`` copies a function into the importing module, so a
function is rebound at every binding site: the defining module, every
ribbonflow module that imported it, and the benchmark's own modules.
Public functions get spans (name, start, end, parent, job id).  Hot leaf
calls (``QuadNum`` operators, ``Surface.width``, ``RibbonGraph.neighbors``,
``OracleFun.__call__``, ``Word.__init__``) get counters only.  The exact
operators also keep a thinned sample of their operands, which ``replay``
times afterwards with tracing off.  Spans stay in memory until
``write_spans``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter

from ribbonflow import (cli, dynamics, eigen, exact, freegrp, graphs,
                        measures, renorm, surface)

# exact op kind -> QuadNum attributes counted under it
EXACT_OPS = {
    'add': ('__add__', '__radd__', '__sub__', '__rsub__'),
    'mul': ('__mul__', '__rmul__'),
    'div': ('__truediv__', '__rtruediv__'),
    'sign': ('sign',),
    'cmp': ('__lt__', '__eq__'),
    'floor': ('__floor__',),
    'mod': ('__mod__',),
    'init': ('__init__',),
}
REPLAYED = ('add', 'mul', 'sign', 'floor', 'mod')
SAMPLE_CAP = 1024


def _observe_sum(key, measure):
    def observe(tracer, args, kwargs, result):
        tracer.extra[key] += measure(args, kwargs, result)
    return observe


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_upsilon(tracer, args, kwargs, result):
    tracer.extra['graphs.upsilon.letters'] += len(_arg(args, kwargs, 1,
                                                       'word'))
    tracer.extra['graphs.upsilon.support'] += len(result.items())


# (module, attribute, span name, observer); methods are "Class.method"
SPANS = (
    (freegrp, 'gamma', 'freegrp.gamma', None),
    (freegrp, 'rho', 'freegrp.rho', None),
    (renorm, 'shrinking_sequence', 'renorm.shrinking_sequence',
     _observe_sum('renorm.increments', lambda a, k, r: len(r.increments))),
    (renorm, 'omega_test', 'renorm.omega_test', None),
    (graphs, 'vertices_in_ball', 'graphs.vertices_in_ball',
     _observe_sum('graphs.ball.vertices', lambda a, k, r: len(r))),
    (graphs, 'upsilon', 'graphs.upsilon', _observe_upsilon),
    (graphs, 'upsilon_eval', 'graphs.upsilon_eval', None),
    (graphs, 'pairing', 'graphs.pairing',
     _observe_sum('graphs.pairing.terms',
                  lambda a, k, r: len(_arg(a, k, 1, 'x').items()))),
    (eigen, 'verify_family', 'eigen.verify',
     _observe_sum('eigen.verify.vertices', lambda a, k, r: r.vertex_count)),
    (surface, 'Surface.edge_offsets', 'surface.edge_offsets',
     _observe_sum('surface.edge_offsets.entries', lambda a, k, r: len(r))),
    (surface, 'ball_growth', 'surface.ball_growth', None),
    (dynamics, 'iet_step', 'dynamics.iet_step', None),
    (dynamics, 'resolve', 'dynamics.resolve', None),
    (dynamics, 'flow_to_next_edge', 'dynamics.flow', None),
    (dynamics, 'skew_step', 'dynamics.skew_step', None),
    (dynamics, 'skew_orbit', 'dynamics.skew_orbit', None),
    (dynamics, 'code_orbit', 'dynamics.code_orbit',
     _observe_sum('dynamics.code_orbit.steps',
                  lambda a, k, r: _arg(a, k, 3, 'steps'))),
    (dynamics, 'skew_orbit_float', 'dynamics.skew_orbit_float',
     _observe_sum('dynamics.float_steps',
                  lambda a, k, r: _arg(a, k, 5, 'steps'))),
    (dynamics, 'iet_step_float', 'dynamics.iet_step_float',
     _observe_sum('dynamics.float_steps', lambda a, k, r: 1)),
    (measures, 'survivor_check', 'measures.survivor_check', None),
    (measures, 'decay_profile', 'measures.decay_profile', None),
    (measures, 'conjugate_boundary_point', 'measures.conjugate', None),
    (cli, 'main', 'cli.main', None),
)

# (class, method, counter name)
COUNTERS = (
    (freegrp.Word, '__init__', 'freegrp.word.calls'),
    (graphs.RibbonGraph, 'neighbors', 'graphs.neighbors.calls'),
    (graphs.OracleFun, '__call__', 'eigen.oracle.calls'),
    (surface.Surface, 'width', 'surface.width.calls'),
)

LIBRARY = (exact, freegrp, renorm, graphs, eigen, surface, dynamics,
           measures, cli)


class Sampler:
    """Every stride-th call's (function, operands), thinned to stay under
    SAMPLE_CAP while keeping the whole run covered evenly."""

    __slots__ = ('mask', 'items')

    def __init__(self):
        self.mask = 0
        self.items = []

    def add(self, fn, args):
        self.items.append((fn, args))
        if len(self.items) >= SAMPLE_CAP:
            del self.items[1::2]
            self.mask = self.mask * 2 + 1


class Tracer:
    def __init__(self, extra_modules=()):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.jobs = []
        self.stack = []
        self.job = -1
        self.span_names = []
        self._name_ids = {}
        self.extra = Counter()
        self.counters = {}
        self.exact_calls = {k: [0, 0] for k in EXACT_OPS}   # all, top level
        self.samplers = {k: Sampler() for k in EXACT_OPS}
        self.eval_pairs = {}                                # job -> set
        self._depth = [0]
        self._undo = []
        self._modules = LIBRARY + tuple(extra_modules)

    # -------------------------------------------------------- wrappers

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    def _span_wrapper(self, name, fn, observe):
        nid = self._name_id(name)
        names, starts, ends = self.names, self.starts, self.ends
        parents, jobs, stack = self.parents, self.jobs, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _eval_observer(self):
        # upsilon_eval reached through measures: count it and remember the
        # distinct (word, vertex) pairs each job asked for
        def observe(tracer, args, kwargs, result):
            tracer.extra['measures.evals'] += 1
            seen = tracer.eval_pairs.setdefault(tracer.job, set())
            seen.add((_arg(args, kwargs, 1, 'word'),
                      _arg(args, kwargs, 3, 'v')))
        return observe

    def _counter_wrapper(self, fn, cell):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _exact_wrapper(self, fn, cell, sampler):
        depth = self._depth

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if not cell[0] & sampler.mask:
                sampler.add(fn, args)
            if depth[0]:
                return fn(*args, **kwargs)
            cell[1] += 1
            depth[0] = 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] = 0
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _oracle_delta(self, fn):
        # oracle calls made while a verification runs
        cell = self.counters['eigen.oracle.calls']
        extra = self.extra

        def wrapper(*args, **kwargs):
            before = cell[0]
            try:
                return fn(*args, **kwargs)
            finally:
                extra['eigen.verify.oracle_calls'] += cell[0] - before
        return wrapper

    def _wrap(self, name, fn, observe):
        wrapper = self._span_wrapper(name, fn, observe)
        if name == 'eigen.verify':
            wrapper = self._oracle_delta(wrapper)
        return wrapper

    def install(self):
        for cls, meth, name in COUNTERS:
            cell = self.counters.setdefault(name, [0])
            self._set(cls, meth, self._counter_wrapper(cls.__dict__[meth],
                                                       cell))
        for module, attr, name, observe in SPANS:
            if '.' in attr:
                cls_name, meth = attr.split('.')
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth],
                                                observe))
                continue
            orig = getattr(module, attr)
            for site in self._modules:
                for key, value in list(vars(site).items()):
                    if value is not orig:
                        continue
                    obs = observe
                    if name == 'graphs.upsilon_eval' and site is measures:
                        obs = self._eval_observer()
                    self._set(site, key, self._wrap(name, orig, obs))
        for kind, attrs in EXACT_OPS.items():
            for attr in attrs:
                fn = exact.QuadNum.__dict__[attr]
                self._set(exact.QuadNum, attr, self._exact_wrapper(
                    fn, self.exact_calls[kind], self.samplers[kind]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ----------------------------------------------------------- spans

    def open_job(self, job_id, name):
        """Root span of one job; returns the index to close it with."""
        self.job = job_id
        i = len(self.starts)
        self.names.append(self._name_id('job.' + name))
        self.parents.append(-1)
        self.jobs.append(job_id)
        self.ends.append(0)
        self.stack.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def close_job(self, i):
        self.ends[i] = time.perf_counter_ns()
        self.stack.pop()
        self.job = -1

    def span_totals(self):
        """name -> [calls, total ns, self ns]; self time is the span's
        duration minus the time its child spans cover."""
        n = len(self.starts)
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            name = self.span_names[self.names[i]]
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def write_spans(self, path, meta):
        with open(path, 'w') as handle:
            handle.write(json.dumps(meta, sort_keys=True) + '\n')
            for i in range(len(self.starts)):
                handle.write('["%s",%d,%d,%d,%d]\n' % (
                    self.span_names[self.names[i]], self.starts[i],
                    self.ends[i], self.parents[i], self.jobs[i]))


# -------------------------------------------------------------- replay

def _bits(x) -> int:
    a, b = x.rational_part, x.radical_part
    return max(a.numerator.bit_length(), a.denominator.bit_length(),
               b.numerator.bit_length(), b.denominator.bit_length())


def _is_quad(x) -> bool:
    return isinstance(x, exact.QuadNum)


def replay(tracer: Tracer) -> dict:
    """Time each replayed op kind on its own operand sample, with tracing
    off, and summarize operand sizes and the float floor estimate."""
    ns = {}
    for kind in REPLAYED:
        items = tracer.samplers[kind].items
        if not items:
            ns[kind] = 0.0
            continue
        rounds = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for fn, args in items:
                fn(*args)
            rounds.append(time.perf_counter_ns() - t0)
            if sum(rounds) > 2e8:
                break
        ns[kind] = statistics.median(rounds) / len(items)
    bits = []
    rational = weighted = 0.0
    for kind, sampler in tracer.samplers.items():
        items = sampler.items
        if kind == 'init' or not items:
            continue
        flags = []
        for _, args in items:
            quads = [x for x in args if _is_quad(x)]
            bits.extend(_bits(x) for x in quads)
            flags.append(all(x.is_rational for x in quads))
        calls = tracer.exact_calls[kind][0]
        rational += calls * sum(flags) / len(flags)
        weighted += calls
    misses = []
    for _, args in tracer.samplers['floor'].items:
        x = args[0]
        if x.is_rational:
            continue
        try:
            estimate = math.floor(float(x))
        except OverflowError:
            continue
        misses.append(abs(math.floor(x) - estimate))
    bits.sort()
    return {
        'ns': ns,
        'bits_p50': statistics.median(bits) if bits else 0,
        'bits_max': bits[-1] if bits else 0,
        'rational_share': rational / weighted if weighted else 0.0,
        'float_miss': statistics.fmean(misses) if misses else 0.0,
    }


# ------------------------------------------------------------- metrics

def per_layer(tracer: Tracer, rep: dict, untraced_ns: int, traced_ns: int,
              out_bytes: int, exit_mismatch: int) -> dict:
    """The per-layer metrics, each as (value, unit).  The traced jobs ran
    in untraced_ns without tracing and traced_ns with it."""
    spans = tracer.span_totals()

    def calls(name):
        return spans.get(name, (0, 0, 0))[0]

    def self_ms(name):
        return spans.get(name, (0, 0, 0))[2] / 1e6

    def mean_us(name, column=1):
        row = spans.get(name)
        return row[column] / row[0] / 1e3 if row else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    x = tracer.extra
    counters = {k: v[0] for k, v in tracer.counters.items()}
    ops = tracer.exact_calls
    busy = sum(ops[k][1] * rep['ns'][k] for k in REPLAYED)
    verified = x['eigen.verify.vertices']
    distinct = sum(len(s) for s in tracer.eval_pairs.values())
    float_ns = (spans.get('dynamics.skew_orbit_float', (0, 0))[1]
                + spans.get('dynamics.iet_step_float', (0, 0))[1])
    m = {}
    for kind in EXACT_OPS:
        m['exact.%s.calls' % kind] = (ops[kind][0], 'count')
    m['exact.rational_share'] = (rep['rational_share'], 'ratio')
    for kind in REPLAYED:
        m['exact.%s.ns' % kind] = (rep['ns'][kind], 'ns')
    m['exact.operand_bits.p50'] = (rep['bits_p50'], 'bits')
    m['exact.operand_bits.max'] = (rep['bits_max'], 'bits')
    m['exact.floor.float_miss'] = (rep['float_miss'], 'count')
    m['exact.busy_share'] = (ratio(busy, untraced_ns), 'ratio')
    m['freegrp.word.calls'] = (counters['freegrp.word.calls'], 'count')
    m['freegrp.gamma.calls'] = (calls('freegrp.gamma'), 'count')
    m['freegrp.rho.calls'] = (calls('freegrp.rho'), 'count')
    m['freegrp.rho.self_ms'] = (self_ms('freegrp.rho'), 'ms')
    m['renorm.shrinking_sequence.calls'] = (
        calls('renorm.shrinking_sequence'), 'count')
    m['renorm.shrinking_sequence.self_ms'] = (
        self_ms('renorm.shrinking_sequence'), 'ms')
    m['renorm.increments'] = (x['renorm.increments'], 'count')
    m['renorm.omega_test.calls'] = (calls('renorm.omega_test'), 'count')
    m['graphs.vertices_in_ball.calls'] = (
        calls('graphs.vertices_in_ball'), 'count')
    m['graphs.ball.vertices'] = (x['graphs.ball.vertices'], 'count')
    m['graphs.vertices_in_ball.self_ms'] = (
        self_ms('graphs.vertices_in_ball'), 'ms')
    m['graphs.neighbors.calls'] = (counters['graphs.neighbors.calls'],
                                   'count')
    m['graphs.upsilon.calls'] = (calls('graphs.upsilon'), 'count')
    m['graphs.upsilon.letters'] = (x['graphs.upsilon.letters'], 'count')
    m['graphs.upsilon.support'] = (x['graphs.upsilon.support'], 'count')
    m['graphs.upsilon.self_ms'] = (self_ms('graphs.upsilon'), 'ms')
    m['graphs.upsilon_eval.calls'] = (calls('graphs.upsilon_eval'), 'count')
    m['graphs.pairing.terms'] = (x['graphs.pairing.terms'], 'count')
    m['graphs.pairing.self_ms'] = (self_ms('graphs.pairing'), 'ms')
    m['eigen.verify.calls'] = (calls('eigen.verify'), 'count')
    m['eigen.verify.vertices'] = (verified, 'count')
    m['eigen.verify.self_ms'] = (self_ms('eigen.verify'), 'ms')
    m['eigen.verify.us_per_vertex'] = (
        ratio(spans.get('eigen.verify', (0, 0))[1] / 1e3, verified), 'us')
    m['eigen.oracle.calls'] = (counters['eigen.oracle.calls'], 'count')
    m['eigen.oracle.per_vertex'] = (
        ratio(x['eigen.verify.oracle_calls'], verified), 'ratio')
    m['surface.edge_offsets.calls'] = (calls('surface.edge_offsets'),
                                       'count')
    m['surface.edge_offsets.entries'] = (
        x['surface.edge_offsets.entries'], 'count')
    m['surface.edge_offsets.self_ms'] = (self_ms('surface.edge_offsets'),
                                         'ms')
    m['surface.width.calls'] = (counters['surface.width.calls'], 'count')
    m['surface.ball_growth.self_ms'] = (self_ms('surface.ball_growth'), 'ms')
    m['dynamics.iet_step.calls'] = (calls('dynamics.iet_step'), 'count')
    m['dynamics.iet_step.us'] = (mean_us('dynamics.iet_step'), 'us')
    m['dynamics.iet_step.self_us'] = (mean_us('dynamics.iet_step', 2), 'us')
    m['dynamics.resolve.calls'] = (calls('dynamics.resolve'), 'count')
    m['dynamics.flow.calls'] = (calls('dynamics.flow'), 'count')
    m['dynamics.flow.us'] = (mean_us('dynamics.flow'), 'us')
    m['dynamics.skew_step.us'] = (mean_us('dynamics.skew_step'), 'us')
    m['dynamics.code_orbit.steps'] = (x['dynamics.code_orbit.steps'],
                                      'count')
    m['dynamics.float_step.ns'] = (ratio(float_ns, x['dynamics.float_steps']),
                                   'ns')
    m['measures.survivor_check.self_ms'] = (
        self_ms('measures.survivor_check'), 'ms')
    m['measures.decay_profile.self_ms'] = (
        self_ms('measures.decay_profile'), 'ms')
    m['measures.conjugate.self_ms'] = (self_ms('measures.conjugate'), 'ms')
    m['measures.evals'] = (x['measures.evals'], 'count')
    m['measures.eval_reuse'] = (ratio(distinct, x['measures.evals']),
                                'ratio')
    m['cli.main.calls'] = (calls('cli.main'), 'count')
    m['cli.main.self_ms'] = (self_ms('cli.main'), 'ms')
    m['cli.out_bytes'] = (out_bytes, 'bytes')
    m['cli.exit_mismatch'] = (exit_mismatch, 'count')
    m['trace.overhead'] = (ratio(traced_ns, untraced_ns), 'ratio')
    m['trace.spans'] = (len(tracer.starts), 'count')
    return m
