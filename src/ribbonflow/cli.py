"""Batch front-end over the library.

Subcommands build the named graph families, analyze directions, run the
invariant-measure machinery, simulate orbits, and emit small SVG
renders.  All numeric input is exact: rationals or a+b*sqrt(D)
literals, never floats.  Runs are deterministic; every artifact records
the package version and the seed it was invoked with, and identical
configurations produce byte-identical output.

Family, group and direction values share one grammar: an int, an exact
number, a name such as Z^d, or a tuple of values in (...) or [...],
with quotes optional ("(1/2,1)" is "('1/2',1)").  A float is refused,
and Python-only spellings such as 0x3 or string escapes are not read.
A family flag value reads as its inline key=value does ("--chi 41/10"
is "chi=41/10"), and "--theta x, y" is the tuple (x, y).  A value may
start with "-": "--alpha -1/2+sqrt(2)" is "--alpha=-1/2+sqrt(2)".

An argv that starts with a subcommand's name goes straight to that
subcommand's parser, which gives the namespace the full parser would;
any other argv (none, --help, --version, an unknown name, a leading
flag) is parsed by the full parser, which names the refusal.

Exit codes: 0 on success, 2 for unusable arguments, each refused in one
"error:" line (only --help prints the usage), 3 when an orbit, search or
drawing budget runs out, 4 when an input direction fails to be
renormalizable where the subcommand requires it, or when conjugate's
--theta2 is not the direction matched to --theta.  Any other exception
is an internal error: it keeps its traceback and exits 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys

from . import __version__
from .dynamics import (OrbitEscapedBudget, from_edge, located_orbit,
                       skew_orbit, skew_orbit_float)
from .eigen import EigenFamily, family_eigen, verify_family
from .exact import (FieldMixError, QuadNum, _reduced, _sign, as_quad,
                    parse_quad, sqrt_rational)
from .freegrp import LETTERS
from .graphs import make_group, vertices_in_ball
from .measures import (MatchedPair, NotRenormalizable,
                       conjugate_boundary_point, decay_profiles,
                       survivor_check)
from .renorm import OmegaKind, omega_test, shrinking_sequence
from .surface import (BudgetExhausted, Surface, ball_growth,
                      svg_truncation)

BUDGET_ENV = 'RIBBONFLOW_BUDGET'

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_NOT_RENORM = 4


def _theta(text: str) -> tuple:
    """A direction "x, y", with or without its brackets: two numbers."""
    value = _value('(%s)' % text, text)
    if not (isinstance(value, tuple) and len(value) == 2
            and all(isinstance(v, (int, QuadNum)) for v in value)):
        raise ValueError('direction needs two numbers "x, y", got %r' % text)
    return tuple(map(as_quad, value))


_NAME = re.compile(r'[A-Za-z][A-Za-z0-9_^]*')
_CLOSE = {'(': ')', '[': ']'}
_MAX_NESTING = 16   # so a value costs at most this many scans of its text


def _value(text: str, whole: str | None = None, depth: int = 0):
    """The value written in text: an int, an exact number, a name such as
    Z^d, or a tuple of values in (...) or [...], split on the top-level
    commas with one trailing comma allowed; as in Python, (4) is 4 and
    (4,) a tuple.  One pair of quotes around any value is dropped.  Bad
    brackets and empty entries are refused naming the whole value, and a
    float, whose binary value is not the decimal written, naming itself."""
    whole = text if whole is None else whole
    text = text.strip()
    if len(text) > 1 and text[0] == text[-1] and text[0] in '\'"':
        text = text[1:-1].strip()
    close = _CLOSE.get(text[:1])
    if not text or close and (text[-1] != close or depth == _MAX_NESTING):
        raise ValueError('not a literal: %r' % whole)
    if close:
        parts = _top_level_parts(text[1:-1])
        if not parts[-1].strip():
            parts.pop()   # a trailing comma, or the empty tuple
        elif len(parts) == 1 and close == ')':
            return _value(parts[0], whole, depth + 1)
        return tuple(_value(part, whole, depth + 1) for part in parts)
    try:
        return int(text)
    except ValueError:
        pass
    if _NAME.fullmatch(text):
        return text
    try:
        float(text)
    except ValueError:
        return parse_quad(text)
    raise ValueError("float %s in literal %r: write a rational or a sqrt "
                     "form, e.g. 41/10 or 1+sqrt(2)" % (text, whole))


def _param(key: str, text: str):
    """A family or group value, read by _value the same from a flag or
    inline; generators must be a non-empty tuple."""
    value = _value(text)
    if key == 'generators' and not (isinstance(value, tuple) and value):
        raise ValueError('argument --generators: takes a non-empty tuple '
                         'of generators such as "(1,-1)", got %r' % text)
    return value


def _int(text: str, kind: str = '') -> int:
    """An integer flag, read by int: an integer with more digits than
    Python converts is refused by its digit count, never echoed."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().lstrip('+-')
        if digits.isdecimal():
            raise argparse.ArgumentTypeError(
                'takes an integer%s of at most %d digits, got %d digits'
                % (kind, sys.get_int_max_str_digits(), len(digits))) from None
        raise argparse.ArgumentTypeError('invalid int value: %r'
                                         % text) from None


def _size(text: str) -> int:
    """Depths, windows and step counts: integers >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError('takes an integer >= 0, got %r'
                                         % text)
    return _int(text, ' >= 0')


_FAMILY_FLAGS = ('t', 's', 'n', 'm', 'd', 'k', 'group', 'generators', 'chi')


def _flags(args) -> dict:
    """The family and group flags set in args, each read by _param."""
    return {k: _param(k, getattr(args, k)) for k in _FAMILY_FLAGS
            if getattr(args, k, None) is not None}


def _top_level_parts(text: str) -> list:
    """text split on the commas outside brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in '([':
            depth += 1
        elif ch in ')]':
            depth -= 1
        elif ch == ',' and not depth:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def _family(spec: str, args=None) -> EigenFamily:
    """Resolve "name" or "name:key=value,key=value", with every family
    flag set in args overriding the inline value.  Both are read by
    _param: "character:group=Z,generators=(1,-1),chi=41/10" is the
    family of "character --group Z --generators (1,-1) --chi 41/10".
    """
    if not spec:
        raise ValueError('--family is required')
    name, _, tail = spec.partition(':')
    params: dict = {}
    if tail:
        for part in _top_level_parts(tail):
            key, eq, raw = part.partition('=')
            if not eq:
                raise ValueError('bad family parameter %r' % part)
            key = key.strip()
            params[key] = _param(key, raw.strip())
    params.update(_flags(args))
    return family_eigen(name, **params)


def _emit_text(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, 'w') as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError('cannot write --out %s: %s'
                             % (args.out, exc.strerror or exc)) from None
    else:
        sys.stdout.write(text)


def _emit_table(args, meta: dict, header: list, rows: list) -> None:
    meta = {k: v if isinstance(v, (int, str)) else str(v)
            for k, v in meta.items()}
    if args.format == 'json':
        doc = {'version': __version__, 'seed': args.seed}
        doc.update(meta)
        doc['columns'] = list(header)
        doc['rows'] = [list(r) for r in rows]
        _emit_text(args, json.dumps(doc, sort_keys=True, indent=2) + '\n')
        return
    buf = io.StringIO()
    buf.write('# ribbonflow %s\n' % __version__)
    buf.write('# seed %d\n' % args.seed)
    for key in sorted(meta):
        buf.write('# %s %s\n' % (key, meta[key]))
    writer = csv.writer(buf, lineterminator='\n')
    writer.writerow(header)
    writer.writerows(rows)
    _emit_text(args, buf.getvalue())


def _shrink_rows(data, depth: int):
    rows = []
    last = min(depth, len(data.vectors) - 1)
    for n in range(last + 1):
        letter = str(data.increments[n - 1]) if n else ''
        v = data.vectors[n]
        sign = data.signs[n]
        critical = ''
        if n:
            critical = int(sign is not None and sign == data.signs[n - 1])
        rows.append([n, letter, str(v.x), str(v.y),
                     '' if sign is None else str(sign), critical])
    return rows


def cmd_shrink(args) -> int:
    lam = parse_quad(args.lam)
    theta = _theta(args.theta)
    data = shrinking_sequence(lam, theta, max_steps=args.depth)
    meta = {'lambda': lam, 'status': data.status.name.lower(),
            'period': '%d+%d' % data.period if data.period else ''}
    header = ['n', 'letter', 'x', 'y', 'sign', 'critical']
    _emit_table(args, meta, header, _shrink_rows(data, args.depth))
    return EXIT_OK


def cmd_omega(args) -> int:
    result = omega_test(args.n, parse_quad(args.alpha),
                        max_steps=args.depth)
    period = ''
    if result.data is not None and result.data.period:
        period = '%d+%d' % result.data.period
    meta = {'n': args.n, 'alpha': args.alpha}
    _emit_table(args, meta, ['kind', 'reason', 'period'],
                [[result.kind.value, result.reason, period]])
    if result.kind is OmegaKind.IN_OMEGA:
        return EXIT_OK
    if result.kind is OmegaKind.UNDETERMINED:
        print('undetermined: %s at --depth %d' % (result.reason, args.depth),
              file=sys.stderr)
        return EXIT_BUDGET
    print('%s: %s' % (result.kind.value, result.reason), file=sys.stderr)
    return EXIT_NOT_RENORM


def _window(args, graph) -> list:
    """The ball of radius --window around the root, in repr order."""
    return sorted(vertices_in_ball(graph, graph.root(), args.window),
                  key=repr)


def cmd_eigen(args) -> int:
    fam = _family(args.family, args)
    report = verify_family(fam, args.window)
    rows = [[repr(v), fam.graph.vertex_class(v), str(fam.weight(v))]
            for v in _window(args, fam.graph)]
    meta = {'family': fam.name, 'lambda': fam.lam,
            'residual_max': report.max_abs,
            'residual_ok': int(report.ok)}
    _emit_table(args, meta, ['vertex', 'class', 'weight'], rows)
    return EXIT_OK


def _budget(args) -> int | None:
    """--budget, or BUDGET_ENV without the flag: None (unbounded) for 0
    or neither set."""
    raw = os.environ.get(BUDGET_ENV, '0') if args.budget is None \
        else args.budget
    if not raw.isdecimal():
        raise ValueError('--budget and %s take an integer >= 0, got %r'
                         % (BUDGET_ENV, raw))
    try:
        return int(raw) or None
    except ValueError:
        # more digits than Python converts; the digits are not echoed
        raise ValueError('--budget and %s take an integer >= 0 of at most '
                         '%d digits, got %d digits'
                         % (BUDGET_ENV, sys.get_int_max_str_digits(),
                            len(raw))) from None


def cmd_simulate(args) -> int:
    budget = _budget(args)
    skew = args.group is not None
    if skew and args.family is not None:
        raise ValueError("--group runs the skew rotation and reads no "
                         "--family; name a character family's group "
                         "inline, as in --family 'character:group=Z,...'")
    mode = '--group' if skew else '--family'
    for key in ('generators', 'alpha') if skew else ('theta',):
        if getattr(args, key) is None:
            raise ValueError('%s needs --%s' % (mode, key))
    for key in ('theta', 'branch') if skew else ('alpha', 'mode'):
        if getattr(args, key) is not None:
            raise ValueError('%s reads no --%s' % (mode, key))
    if skew:
        params = _flags(args)
        generators = params.pop('generators')
        group = make_group(params.pop('group'), **params)
        for key in sorted(params.keys() - vars(group)):
            raise ValueError('--group %s reads no --%s' % (args.group, key))
        orbit, cell = ((skew_orbit_float, repr) if args.mode == 'float'
                       else (skew_orbit, str))
        states = orbit(len(generators), parse_quad(args.alpha), group,
                       generators, (QuadNum(0), group.identity), args.steps,
                       budget=budget)
        rows = [[k + 1, cell(x), repr(g)] for k, (x, g) in enumerate(states)]
        meta = {'group': args.group, 'alpha': args.alpha, 'steps': args.steps}
        _emit_table(args, meta, ['step', 'x', 'g'], rows)
        return EXIT_OK
    fam = _family(args.family, args)
    surface = Surface.from_family(fam)
    theta = _theta(args.theta)
    edge = fam.graph.base_edge(fam.root)
    start = from_edge(surface, edge, surface.width(edge) / 2)
    legs = located_orbit(surface, theta, start, args.steps,
                         branch=args.branch or 'right', budget=budget)
    rows = [[k, repr(p.a), str(p.t), repr(e), str(o)]
            for k, (e, o, p) in enumerate(legs)]
    meta = {'family': fam.name, 'theta': args.theta, 'steps': args.steps}
    _emit_table(args, meta, ['step', 'circle', 't', 'edge', 'offset'], rows)
    return EXIT_OK


def _matched(args) -> tuple:
    """The MatchedPair of the flags, and the metadata of its table."""
    theta2 = None if args.theta2 is None else _theta(args.theta2)
    pair = MatchedPair(_family(args.family, args), _family(args.family2),
                       _theta(args.theta), theta2, args.depth)
    return pair, {'depth': args.depth, 'lambda1': pair.family1.lam,
                  'lambda2': pair.family2.lam}


def cmd_survivor(args) -> int:
    pair, meta = _matched(args)
    witness = survivor_check(pair.graph, pair.plane, pair.data, args.depth,
                             _window(args, pair.graph))
    row = (['pass', '', '', ''] if witness is None else
           ['witness', witness.n, repr(witness.vertex),
            '+' if witness.sign > 0 else '-'])
    _emit_table(args, dict(meta, window=args.window),
                ['result', 'n', 'vertex', 'sign'], [row])
    return EXIT_OK


def cmd_decay(args) -> int:
    pair, meta = _matched(args)
    window = _window(args, pair.graph)
    rows = []
    for v, prof in zip(window, decay_profiles(pair.graph, pair.plane,
                                              pair.data, args.depth, window)):
        name, ok = repr(v), int(prof.survivor_ok)
        halving = '' if prof.halving_index is None else prof.halving_index
        last = None
        for n, value in enumerate(prof.values):
            # a value the letter did not move is the one before: one text
            if value is not last:
                last, text = value, str(value)
            rows.append([name, n, text, int(n in prof.critical), halving, ok])
    header = ['vertex', 'n', 'value', 'critical', 'halving', 'survivor_ok']
    _emit_table(args, dict(meta, window=args.window), header, rows)
    return EXIT_OK


def cmd_growth(args) -> int:
    fam = _family(args.family, args)
    lengths, sides = ball_growth(Surface.from_family(fam), args.depth)
    lam = fam.lam
    rows = []
    for n, (ln, side) in enumerate(zip(lengths, sides)):
        ok = eq = ''
        if n >= 2:
            bound = lam * lengths[n - 1] - lengths[n - 2]
            ok, eq = int(ln <= bound), int(ln == bound)
        rows.append([n, str(ln), str(side), ok, eq])
    meta = {'family': fam.name, 'lambda': lam}
    _emit_table(args, meta, ['n', 'length', 'max_side', 'concave', 'tight'],
                rows)
    return EXIT_OK


def cmd_conjugate(args) -> int:
    pair, meta = _matched(args)
    if not pair.matched:
        try:
            # named when in reach: a long period's root may not split
            derived = '%s, ' % (pair.derived,)
        except (ValueError, FieldMixError):
            derived = ''
        raise NotRenormalizable(
            '--theta2 is not parallel to %sthe direction matched to --theta,'
            ' so it gives no measure; survivor reports the witness' % derived)
    s1, s2 = pair.surfaces
    edge = pair.graph.base_edge(pair.graph.root())
    w, h = s1.width(edge), s1.height(edge)
    jobs = [('bottom', QuadNum(0)), ('bottom', w / 2), ('bottom', w),
            ('top', w), ('left', h), ('right', h)]
    rows = []
    for side, t in jobs:
        img = conjugate_boundary_point(s1, s2, pair.theta1, pair.theta2,
                                       edge, side, t, args.depth)
        rows.append([side, str(t), str(img.x), str(img.y), str(img.error)])
    meta['edge'] = repr(edge)
    _emit_table(args, meta, ['side', 't', 'x', 'y', 'error'], rows)
    return EXIT_OK


def _limit_set_svg(lam: QuadNum, depth: int, budget=None) -> str:
    gap = lam * lam - 4
    if lam <= 2 or not gap.is_rational:
        raise ValueError('limit-set render needs lambda > 2 with '
                         'lambda^2 - 4 rational')
    if budget is not None:
        # 1 word of length 0 and 4 * 3^(n-1) of each length n >= 1, added
        # level by level until the depth or the budget is passed
        words, level, n = 1, 4, 0
        while n < depth and words <= budget:
            words, level, n = words + level, 3 * level, n + 1
        if words > budget:
            raise BudgetExhausted('budget exhausted: the limit set to '
                                  '--depth %d has more than %d words'
                                  % (depth, budget))
    root = sqrt_rational(gap)
    # lam and root share one field Q(sqrt d): lam -+ root names two
    # fields in a FieldMixError
    ends = lam - root, lam + root
    d = lam._d or root._d
    rd = math.sqrt(d)

    def coord(a: int, b: int, q: int) -> tuple:
        """(a + b*sqrt(d))/q reduced, as (a, b, q, its float as
        float(QuadNum) rounds it, its text)."""
        x = _reduced(a, b, q, d)
        a, b, q = x._a, x._b, x._q
        return a, b, q, a / q + b / q * rd, str(x)

    # an image is a pair of coords: a shear moves one, on ints, and the
    # other keeps its float and text
    offs = {l: (l.gen == 'h', l.exp * lam._a, l.exp * lam._b, lam._q)
            for l in LETTERS}

    def shear(letter, image: tuple) -> tuple:
        h, oa, ob, oq = offs[letter]
        fixed, moved = (image[1], image[0]) if h else image
        ma, mb, mq = moved[:3]
        fa, fb, fq = fixed[:3]
        s = oq * fq
        # moved + off * fixed
        new = coord(ma * s + mq * (oa * fa + ob * fb * d),
                    mb * s + mq * (oa * fb + ob * fa), mq * s)
        return (new, fixed) if h else (fixed, new)

    def chart(image: tuple) -> float:
        x, y = image
        if not (x[0] or x[1]):
            return 1.0 if _sign(y[0], y[1], d) >= 0 else -1.0
        return (2 / math.pi) * math.atan(y[3] / x[3])

    width, height, pad = 800, 120, 10
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" '
             'width="%d" height="%d">' % (width, height),
             '<line x1="%d" y1="60" x2="%d" y2="60" '
             'stroke="black" stroke-width="1"/>' % (pad, width - pad)]
    # a word's rightmost letter acts first, so rho(l s) sends the ends to
    # l's shear of rho(s)'s images: each level keeps its words' labels and
    # images, keyed by their letters, and the next level reads its
    # suffixes there; a word's label is its parent's and one letter more
    after = {l: [m for m in LETTERS if m != l.inverse()] for l in LETTERS}
    two = coord(2, 0, 1)
    level = {(): ('e', *((two, coord(y._a, y._b, y._q)) for y in ends))}
    for n in range(depth + 1):
        if n:
            prev, level = level, {}
            for w, (label, _, _) in prev.items():
                for letter in after[w[-1]] if w else LETTERS:
                    ext = w + (letter,)
                    _, a, b = prev[ext[1:]]
                    level[ext] = ('%s %s' % (label, letter) if w
                                  else str(letter),
                                  shear(ext[0], a), shear(ext[0], b))
        for label, a, b in level.values():
            lo, hi = sorted((chart(a), chart(b)))
            x1 = pad + (lo + 1) / 2 * (width - 2 * pad)
            x2 = pad + (hi + 1) / 2 * (width - 2 * pad)
            parts.append('<g><title>%s: %s,%s to %s,%s</title>'
                         '<line x1="%.3f" y1="60" x2="%.3f" y2="60" '
                         'stroke="white" stroke-width="5"/></g>'
                         % (label, a[0][4], a[1][4], b[0][4], b[1][4],
                            x1, x2))
    parts.append('</svg>')
    return '\n'.join(parts) + '\n'


def cmd_render(args) -> int:
    budget = _budget(args)
    if args.style == 'limitset':
        if not args.lam:
            raise ValueError('limit-set render needs --lambda')
        lam = parse_quad(args.lam)
        draw = lambda: _limit_set_svg(lam, args.depth, budget)
    else:
        surface = Surface.from_family(_family(args.family, args))
        draw = lambda: svg_truncation(surface, args.depth, budget)
    try:
        svg = '<!-- ribbonflow %s seed %d -->\n%s' % (__version__, args.seed,
                                                      draw())
    except OverflowError:
        # a drawing rounds its exact coordinates, which can outgrow floats
        raise ValueError('the drawing at --depth %d has coordinates beyond '
                         'the float range' % args.depth) from None
    _emit_text(args, svg)
    return EXIT_OK


def _add_common(sub, formats=('csv', 'json')):
    sub.add_argument('--out')
    sub.add_argument('--format', choices=formats, default=formats[0])
    sub.add_argument('--seed', type=_int, default=0)


def _add_family_knobs(sub):
    sub.add_argument('--family')
    for key in _FAMILY_FLAGS:
        sub.add_argument('--' + key)   # a string, read by _flags


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A ValueError, which main prints as one line, not the usage."""
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog='ribbonflow',
        description='renormalization toolkit for graph-built interval '
                    'exchanges')
    parser.add_argument('--version', action='version',
                        version='ribbonflow %s' % __version__)
    subs = parser.add_subparsers(dest='subcommand', required=True)

    p = subs.add_parser('shrink', help='greedy shrinking sequence table')
    p.add_argument('--lambda', dest='lam', required=True)
    p.add_argument('--theta', required=True)
    p.add_argument('--depth', type=_size, default=32)
    _add_common(p)
    p.set_defaults(handler=cmd_shrink)

    p = subs.add_parser('omega', help='renormalizable parameter test')
    p.add_argument('--n', type=_int, required=True)
    p.add_argument('--alpha', required=True)
    p.add_argument('--depth', type=_size, default=64)
    _add_common(p)
    p.set_defaults(handler=cmd_omega)

    p = subs.add_parser('eigen', help='eigenfunction family dump')
    _add_family_knobs(p)
    p.add_argument('--window', type=_size, default=6)
    _add_common(p)
    p.set_defaults(handler=cmd_eigen)

    p = subs.add_parser('simulate', help='orbit of the return map or a '
                                         'skew rotation')
    _add_family_knobs(p)
    p.add_argument('--theta')
    p.add_argument('--alpha')
    p.add_argument('--steps', type=_size, default=100)
    # exact and right by default; each is read only in its own mode
    p.add_argument('--mode', choices=('exact', 'float'))
    p.add_argument('--branch', choices=('left', 'right'))
    # default from BUDGET_ENV, read by _budget where a bad value exits 2
    p.add_argument('--budget')
    _add_common(p)
    p.set_defaults(handler=cmd_simulate)

    for name, handler in (('survivor', cmd_survivor), ('decay', cmd_decay)):
        p = subs.add_parser(name, help='%s analysis of a matched pair'
                            % name)
        _add_family_knobs(p)
        p.add_argument('--family2', required=True)
        p.add_argument('--theta', required=True)
        p.add_argument('--theta2')   # derived from --theta when omitted
        p.add_argument('--depth', type=_size, default=12)
        p.add_argument('--window', type=_size, default=12)
        _add_common(p)
        p.set_defaults(handler=handler)

    p = subs.add_parser('growth', help='cylinder-union boundary growth')
    _add_family_knobs(p)
    p.add_argument('--depth', type=_size, default=10)
    _add_common(p)
    p.set_defaults(handler=cmd_growth)

    p = subs.add_parser('conjugate', help='boundary conjugacy images')
    _add_family_knobs(p)
    p.add_argument('--family2', required=True)
    p.add_argument('--theta', required=True)
    p.add_argument('--theta2')   # derived from --theta when omitted
    p.add_argument('--depth', type=_size, default=14)
    _add_common(p)
    p.set_defaults(handler=cmd_conjugate)

    p = subs.add_parser('render', help='svg of a truncated surface or '
                                       'limit set')
    _add_family_knobs(p)
    p.add_argument('--style', choices=('surface', 'limitset'),
                   default='surface')
    p.add_argument('--lambda', dest='lam')
    p.add_argument('--depth', type=_size, default=3)
    p.add_argument('--budget')   # read as simulate reads it
    _add_common(p, formats=('svg',))
    p.set_defaults(handler=cmd_render)
    return parser


def _joined(argv: list) -> list:
    """argv with each token that starts with one '-' joined to the flag
    before it, as in "--alpha=-1/2+sqrt(2)": argparse reads such a token
    as a flag.  Every option but --help and --version takes a value."""
    out = []
    for tok in argv:
        flag = out[-1] if out else ''
        if (tok[:1] == '-' and tok[:2] != '--' and flag[:2] == '--'
                and '=' not in flag and not '--help'.startswith(flag)
                and not '--version'.startswith(flag)):
            out[-1] = flag + '=' + tok
        else:
            out.append(tok)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call of a process and kept:
    building it takes longer than most commands.  Its subcommands'
    parsers are kept with it, by name, as its subcommands table."""
    parser = build_parser()
    parser.subcommands = next(
        a.choices for a in parser._actions
        if isinstance(a, argparse._SubParsersAction))
    return parser


def main(argv=None) -> int:
    try:
        argv = _joined(sys.argv[1:] if argv is None else argv)
        parser = _parser()
        sub = parser.subcommands.get(argv[0]) if argv else None
        if sub is None:
            args = parser.parse_args(argv)
        else:
            # the namespace the full parser would give, parsed once
            args = sub.parse_args(argv[1:],
                                  argparse.Namespace(subcommand=argv[0]))
        return args.handler(args)
    except SystemExit as exc:
        # only --help and --version exit: refusals raise ValueError
        return exc.code
    except OrbitEscapedBudget as exc:
        print('budget exhausted after %d steps' % exc.steps_done,
              file=sys.stderr)
        return EXIT_BUDGET
    except BudgetExhausted as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    except NotRenormalizable as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NOT_RENORM
    except (ValueError, FieldMixError) as exc:
        print('error: %s' % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == '__main__':
    sys.exit(main())
