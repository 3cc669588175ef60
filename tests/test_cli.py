"""Exit codes, output discipline, and the documented invocations."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import xml.dom.minidom
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ribbonflow import __version__, cli, dynamics, measures
from ribbonflow.cli import (EXIT_BUDGET, EXIT_NOT_RENORM, EXIT_OK,
                            EXIT_PARSE, _theta, build_parser, main)
from ribbonflow.exact import QuadNum, QVec2, parse_quad, sqrt_rational
from ribbonflow.freegrp import H, H_INV, V, V_INV, Word, rho
from ribbonflow.renorm import (direction_from_sequence, matched_direction,
                               omega_test, shrinking_sequence)

GZ_PAIR = ['--family', 'gz_constant', '--family2', 'gz_exponential:t=2',
           '--theta', '1, -1+sqrt(2)', '--theta2', '4, -5+sqrt(41)']


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def csv_rows(text):
    """The rows of a CSV table, read by the csv module: a vertex cell
    such as ('r', 1, 2) holds commas."""
    return list(csv.reader(l for l in text.splitlines()
                           if not l.startswith('#')))[1:]


def csv_body(text):
    lines = [l for l in text.splitlines() if not l.startswith('#')]
    return lines[0].split(','), [l.split(',') for l in lines[1:]]


def test_omega_accepts_period_two(capsys):
    code, out = run(capsys, ['omega', '--n', '2', '--alpha', '1/2*sqrt(2)'])
    assert code == EXIT_OK
    header, rows = csv_body(out)
    assert rows[0][0] == 'in-omega'
    assert rows[0][2] == '0+2'


def test_omega_rejects_rational(capsys):
    code, out = run(capsys, ['omega', '--n', '2', '--alpha', '1/3'])
    assert code == EXIT_NOT_RENORM
    assert 'rational' in out


def test_omega_rejects_gap_endpoint(capsys):
    code, out = run(capsys, ['omega', '--n', '3', '--alpha',
                             '5/6+1/6*sqrt(5)'])
    assert code == EXIT_NOT_RENORM
    assert 'excluded tail' in out


def test_eigen_tripod_example(capsys):
    code, out = run(capsys, ['eigen', '--family', 'tripod', '--t',
                             'sqrt(2)'])
    assert code == EXIT_OK
    assert '# lambda 3/2*sqrt(2)' in out
    assert '# residual_ok 1' in out


def test_shrink_example_all_critical(capsys):
    code, out = run(capsys, ['shrink', '--lambda', '2', '--theta',
                             '1, -1+sqrt(2)', '--depth', '8'])
    assert code == EXIT_OK
    header, rows = csv_body(out)
    assert header == ['n', 'letter', 'x', 'y', 'sign', 'critical']
    assert all(r[4] == '++' for r in rows)
    assert all(r[5] == '1' for r in rows[1:])
    letters = [r[1] for r in rows[1:]]
    assert letters[:4] == ['h^-1', 'v^-1', 'h^-1', 'v^-1']


def test_shrink_cells_roundtrip_exactly(capsys):
    code, out = run(capsys, ['shrink', '--lambda', '5/2', '--theta',
                             '4, -5+sqrt(41)', '--depth', '6'])
    assert code == EXIT_OK
    _, rows = csv_body(out)
    contraction = parse_quad(rows[2][2]) / parse_quad(rows[0][2])
    for r in rows:
        for cell in (r[2], r[3]):
            q = parse_quad(cell)
            assert str(q) == cell
    assert contraction == QuadNum(33, -5, 41) / 8


def test_headers_record_version_and_seed(capsys):
    code, out = run(capsys, ['growth', '--family', 'gz_constant',
                             '--depth', '3', '--seed', '7'])
    assert code == EXIT_OK
    assert out.splitlines()[0] == '# ribbonflow %s' % __version__
    assert out.splitlines()[1] == '# seed 7'


def test_json_output_is_structured(capsys):
    code, out = run(capsys, ['omega', '--n', '2', '--alpha', '1/2*sqrt(2)',
                             '--format', 'json'])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc['version'] == __version__
    assert doc['seed'] == 0
    assert doc['columns'] == ['kind', 'reason', 'period']


def test_byte_identical_reruns(tmp_path, capsys):
    paths = [tmp_path / 'a.csv', tmp_path / 'b.csv']
    for p in paths:
        code = main(['survivor', *GZ_PAIR, '--depth', '6', '--window', '6',
                     '--out', str(p)])
        assert code == EXIT_OK
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_survivor_pass_and_witness(capsys):
    code, out = run(capsys, ['survivor', *GZ_PAIR, '--depth', '8',
                             '--window', '8'])
    assert code == EXIT_OK
    assert 'pass' in out
    perturbed = list(GZ_PAIR)
    perturbed[7] = '4, -4999/1000+sqrt(41)'
    code, out = run(capsys, ['survivor', *perturbed, '--depth', '12',
                             '--window', '12'])
    assert code == EXIT_OK
    _, rows = csv_body(out)
    assert rows[0][0] == 'witness'
    assert int(rows[0][1]) <= 12


def test_survivor_requires_renormalizable_direction(capsys):
    bad = list(GZ_PAIR)
    bad[5] = '1, 1/3'
    code, _ = run(capsys, ['survivor', *bad, '--depth', '6',
                           '--window', '4'])
    assert code == EXIT_NOT_RENORM


def test_decay_reports_halving(capsys):
    code, out = run(capsys, ['decay', *GZ_PAIR, '--depth', '6',
                             '--window', '3'])
    assert code == EXIT_OK
    header, rows = csv_body(out)
    assert header[:3] == ['vertex', 'n', 'value']
    assert all(r[5] == '1' for r in rows)
    assert all(r[4] != '' for r in rows)


def test_growth_tight_on_trees(capsys):
    code, out = run(capsys, ['growth', '--family', 'tripod', '--t', '2',
                             '--depth', '6'])
    assert code == EXIT_OK
    _, rows = csv_body(out)
    assert all(r[3] == '1' and r[4] == '1' for r in rows[2:])


def test_conjugate_full_bottom_edge(capsys):
    code, out = run(capsys, ['conjugate', *GZ_PAIR, '--depth', '8'])
    assert code == EXIT_OK
    _, rows = csv_body(out)
    full = [r for r in rows if r[0] == 'bottom'][-1]
    assert parse_quad(full[2]) == QuadNum('1/2')
    assert parse_quad(full[4]) == 0


@pytest.mark.parametrize('argv,digest', [
    (['--family', 'gz_constant', '--family2', 'gz_exponential:t=2',
      '--theta', '1, -1+sqrt(2)', '--theta2', '4, -5+sqrt(41)',
      '--depth', '12'],
     '85f2ee46fbce96d29037919ef4bdace32f16287f06c2c6b3a360c1946e496cb2'),
    (['--family', 'tripod:t=2', '--family2', 'tripod:t=3',
      '--theta', '4, -5+sqrt(41)', '--theta2', '3, -5+sqrt(34)',
      '--depth', '8'],
     '6bdc41c5c604c83a6d08462979eb2334916be612a57c5c051a46d7965804681e'),
    # the CLI's default depth
    (['--family', 'tripod:t=2', '--family2', 'tripod:t=3',
      '--theta', '4, -5+sqrt(41)', '--theta2', '3, -5+sqrt(34)'],
     '6bff18c0751bcfcd52c023adaabe8a549c2b6e2a8759f7f99da780ef1e1b5dc4'),
    # a skew surface, whose circles wrap images past their ends, and a
    # leftward first direction, both with theta2 derived: digests of the
    # chains that walked every rectangle
    (['--family', 'character:group=Z,generators=[1,-1],chi=4',
      '--family2', 'character:group=Z,generators=[1,-1],chi=1/4',
      '--theta', '4, -5+sqrt(41)', '--depth', '8'],
     '544e11336c72b31b3e5f919d788b1fa021a51c90da0ca8e7f89c1c44eca8734c'),
    (['--family', 'gz_constant', '--family2', 'gz_exponential:t=2',
      '--theta', '-1, -1+sqrt(2)', '--depth', '12'],
     '98142a3e8041569cf8ad5974c3df611d2a20a4d9d9d986c9f1087fd7fc17a8c2'),
], ids=['gz-12', 'tripod-8', 'tripod-14', 'z-skew-8', 'gz-leftward-12'])
def test_conjugate_output_is_pinned(capsys, argv, digest):
    # digests of the output of the full-grid measure this one replaced
    code, out = run(capsys, ['conjugate', *argv])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


HEIS_GENERATORS = '((1,0,0),(-1,0,0),(0,1,0),(0,-1,0))'


@pytest.mark.parametrize('argv,digest', [
    (['--group', 'Z', '--generators', '(1,-1)', '--steps', '2000',
      '--alpha', '10000000000000000+sqrt(2)'],
     'd5ab73899551c9b1c57377593e1337226061970d6d9087436d523f5f966012d4'),
    (['--group', 'heisenberg', '--generators', HEIS_GENERATORS,
      '--alpha', '7/3+1/5*sqrt(5)', '--steps', '3000'],
     '9bb99c5f7c5b48e39d572f383308b98e2d97319d96bd53de48f942efb6045b73'),
], ids=['z-10^16', 'heisenberg'])
def test_exact_skew_output_is_pinned(capsys, argv, digest):
    # every column of the exact skew orbits whose group column CI compares
    # with the float orbits': the circle coordinate is pinned too
    code, out = run(capsys, ['simulate', *argv, '--mode', 'exact'])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize('argv', [
    # the README pair with an unmatched second direction: the bottom
    # midpoint's error read -1645/136+29/17*sqrt(42)
    GZ_PAIR[:-1] + ['4, -5+sqrt(42)'],
    # a rational first direction has no periodic tail
    GZ_PAIR[:5] + ['1, 2'] + GZ_PAIR[6:],
], ids=['sqrt42', 'rational'])
def test_conjugate_refuses_an_unmatched_pair(capsys, argv):
    assert main(['conjugate', *argv, '--depth', '12']) == EXIT_NOT_RENORM
    out, err = capsys.readouterr()
    assert out == '' and err.count('\n') == 1


TRIPOD_README_PAIR = ['--family', 'tripod:t=2', '--family2', 'tripod:t=3',
                      '--theta', '4, -5+sqrt(41)', '--theta2',
                      '3, -5+sqrt(34)']


@pytest.mark.parametrize('pair', [GZ_PAIR, TRIPOD_README_PAIR],
                         ids=['gz', 'tripod'])
def test_an_omitted_theta2_is_the_matched_one(capsys, pair):
    # conjugate divides by |y2| and survivor reads only signs, so the
    # derived direction, a positive multiple of the typed one, gives the
    # same bytes; decay's values scale with theta2
    for command in (['conjugate', '--depth', '8'],
                    ['survivor', '--depth', '8', '--window', '6']):
        code, typed = run(capsys, command + pair)
        assert code == EXIT_OK
        assert run(capsys, command + pair[:-2]) == (EXIT_OK, typed)
    decay = ['decay', '--depth', '6', '--window', '2']
    _, typed = run(capsys, decay + pair)
    _, derived = run(capsys, decay + pair[:-2])
    assert typed != derived
    values = [(parse_quad(t[2]), parse_quad(d[2]))
              for t, d in zip(csv_rows(typed), csv_rows(derived))]
    t0, d0 = next((t, d) for t, d in values if t)
    assert d0 / t0 > 0 and all(d * t0 == t * d0 for t, d in values)


def test_a_typed_theta2_is_matched_without_the_period_root(capsys):
    # theta1's period has 52 letters, and the square root of its matrix's
    # discriminant does not split: the typed theta2 is still decided,
    # unmatched, and refused without naming the derived direction
    argv = ['conjugate', '--family', 'gz_constant', '--family2',
            'gz_exponential:t=2', '--theta', '3, 1/2*sqrt(41)',
            '--theta2', '4, -5+sqrt(41)']
    assert main(argv) == EXIT_NOT_RENORM
    out, err = capsys.readouterr()
    assert out == '' and err == (
        '--theta2 is not parallel to the direction matched to --theta, so '
        'it gives no measure; survivor reports the witness\n')
    # without theta2 the direction is derived, and the root refuses
    assert main(argv[:-2]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == '' and err.startswith('error: cannot split ')
    assert err.count('\n') == 1 and len(err.encode()) < 200


@pytest.mark.parametrize('command', ['survivor', 'decay', 'conjugate'])
def test_a_zero_theta2_is_refused(capsys, command):
    # its plane function is 0 and keeps every sign: survivor printed pass
    # and decay all zeros with survivor_ok 1, while conjugate refused it
    # as unmatched; each exits 4 with one stderr line and no stdout
    assert main([command, *GZ_PAIR[:-1], '0, 0']) == EXIT_NOT_RENORM
    out, err = capsys.readouterr()
    assert out == '' and err.count('\n') == 1
    if command != 'conjugate':
        assert err == 'theta2 is the zero vector, so it gives no measure\n'


HEISENBERG_CHI = ('character:group=heisenberg,'
              'generators=((1,0,0),(-1,0,0),(0,1,0),(0,-1,0)),chi=')


@pytest.mark.parametrize('command', ['survivor', 'decay', 'conjugate'])
@pytest.mark.parametrize('theta2', [[], ['--theta2', '1, 2']],
                         ids=['derived', 'given'])
def test_a_matched_direction_outside_one_field_exits_two(capsys, command,
                                                        theta2):
    # chi = (2, 1) has lambda sqrt(70)/2, and the direction matched to
    # theta1 mixes sqrt(70) with sqrt(1505); a given theta2 is never
    # derived from it: survivor and decay run, and conjugate decides the
    # match without it and refuses in one line that cannot name it
    argv = [command, '--family', HEISENBERG_CHI + '(1,1)', '--family2',
            HEISENBERG_CHI + '(2,1)', '--theta', '-1/2+1/4*sqrt(5), 1/4',
            '--depth', '4', *theta2]
    code = main(argv + (['--window', '1'] if command != 'conjugate' else []))
    out, err = capsys.readouterr()
    if theta2 and command != 'conjugate':
        assert code == EXIT_OK and err == ''
        return
    if theta2:
        assert code == EXIT_NOT_RENORM and out == ''
        assert err == ('--theta2 is not parallel to the direction matched '
                       'to --theta, so it gives no measure; survivor '
                       'reports the witness\n')
        return
    assert code == EXIT_PARSE and out == ''
    assert err == ('error: eigendirection (-1/2*sqrt(70), '
                   '-35/4-1/4*sqrt(1505)) lies in no one quadratic field\n')


# the builtin pairs on one graph, and upward directions (conjugate flows
# up): the pairs' own, those a short periodic word renormalizes at
# lambda1, and small literals
PAIRS = [('gz_constant', 'gz_exponential:t=2', 2, '5/2'),
         ('tripod:t=2', 'tripod:t=3', '5/2', '10/3'),
         ('character:group=Z,generators=[1,-1],chi=4',
          'character:group=Z,generators=[1,-1],chi=1/4', '5/2', '5/2')]


def word_theta(lam, word):
    try:
        v = direction_from_sequence(lam, period=word)
    except ValueError:
        return '1, 2'   # the word renormalizes nothing
    return '%s, %s' % (v.x, v.y)


@st.composite
def pair_and_theta(draw):
    pair = draw(st.sampled_from(PAIRS))
    theta = draw(st.one_of(
        st.sampled_from(['1, -1+sqrt(2)', '4, -5+sqrt(41)',
                         '3, -5+sqrt(34)']),
        st.lists(st.sampled_from([H, H_INV, V, V_INV]), min_size=2,
                 max_size=4).map(lambda w: word_theta(pair[2], w)),
        st.builds(lambda a, b, d: a + b * sqrt_rational(d),
                  st.integers(-6, 6), st.sampled_from([1, -1, QuadNum('1/2')]),
                  st.sampled_from([2, 3, 5, 34, 41])).filter(
            lambda y: y > 0).flatmap(lambda y: st.integers(1, 5).map(
                lambda x: '%d, %s' % (x, y)))))
    return pair, theta


@settings(max_examples=60, deadline=None)
@given(pair_and_theta(), st.sampled_from(['2', '4', '6']))
@example((PAIRS[0], '3, 1/2*sqrt(41)'), '2')
@example((PAIRS[0], '1, -1+sqrt(2)'), '6')
def test_conjugate_prints_no_negative_error(case, depth):
    (family, family2, lam1, lam2), theta = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(['conjugate', '--family', family, '--family2', family2,
                     '--theta', theta, '--depth', depth])
    if code != EXIT_OK:
        assert out.getvalue() == '' and err.getvalue().count('\n') == 1
    if code == EXIT_PARSE:
        # the derived direction is out of exact reach: a long period's
        # discriminant too large to split into a square and a squarefree
        # part, as for (3, 1/2*sqrt(41)) at lambda 2, whose period has 52
        # letters
        data = shrinking_sequence(parse_quad(lam1), _theta(theta))
        with pytest.raises(ValueError):
            matched_direction(data, parse_quad(lam2))
    if code != EXIT_OK:
        assert code in (EXIT_NOT_RENORM, EXIT_PARSE), (case, err.getvalue())
        return
    assert err.getvalue() == '', (case, err.getvalue())
    for row in csv_body(out.getvalue())[1]:
        assert parse_quad(row[4]) >= 0, (case, row)


GZ_CUT_ORBIT = ['simulate', '--family', 'gz_constant', '--theta', '1, 2',
                '--steps', '400', '--branch']


@pytest.mark.parametrize('argv,digest', [
    # lands on cuts, so the left branch steps through the QuadNum jump
    (GZ_CUT_ORBIT + ['left'],
     'd8c9c17f7de143ebb16882aaa9008f97b4ea2561e49e46e44f801d1fc9a2e160'),
    # denominators grow with every step
    (['simulate', '--family', 'tripod:t=2', '--theta', '1, sqrt(3)',
      '--steps', '300'],
     '81008ae35d812950bf557d05aa4b6453f46182ef48ff4ec1df228aa2fe9b2c27'),
], ids=['gz-cuts-left', 'tripod-growing'])
def test_simulate_orbits_are_pinned(capsys, argv, digest):
    code, out = run(capsys, argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_the_pinned_cut_orbit_depends_on_its_branch(capsys):
    outs = [run(capsys, GZ_CUT_ORBIT + [branch])[1]
            for branch in ('left', 'right')]
    assert outs[0] != outs[1]


@pytest.mark.parametrize('argv, code, digest', [
    (['omega', '--n', '2', '--alpha', '1/2*sqrt(2)'], EXIT_OK,
     'd107a3f96165a6ac34f16889e7c76ebaf4faced1629fb781566225ab9f4f65c4'),
    (['omega', '--n', '3', '--alpha', '5/6+1/6*sqrt(5)'], EXIT_NOT_RENORM,
     '686293817addea0529d599e170c35af46dfcc820ebc90d99aa2d96b089482686'),
    (['shrink', '--lambda', '2', '--theta', '1, -1+sqrt(2)', '--depth', '6'],
     EXIT_OK,
     '7be0d3bfee1caa4a9e2872d17799125d40416dfef667fd3b5d97e75640bbe2f8'),
    (['survivor', *GZ_PAIR], EXIT_OK,
     'f07ca6fd53a291076869964b20426e169832bc24b7f74b999187179e4e07c09e'),
    (['decay', *GZ_PAIR], EXIT_OK,
     '59dd6a7412b84d0cc48b09033cde3a325e6eefca6d794841545ebe0b69911ca1'),
], ids=['omega-2', 'omega-3', 'shrink', 'survivor', 'decay'])
def test_shrink_readme_outputs_are_pinned(capsys, argv, code, digest):
    # digests of the output of the matrix route to the shrinking sequence
    got, out = run(capsys, argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize('argv, digest', [
    # a period 0+3 whose revisit scales by -3+2*sqrt(2), replayed for 197
    # letters
    (['shrink', '--lambda', '2', '--theta', '-1+1/2*sqrt(2), 1/2',
      '--depth', '200'],
     '5cfc1e36f20b85c5e456640b7b2a7bdc9b2ff3167c520ed8971201d92a6b0ba3'),
    # 2*3^6 - 1 = 1457 words, each labelled and sheared from its suffix's
    (['render', '--style', 'limitset', '--lambda', '3', '--depth', '6'],
     'e4fff226f48ad28d8efcc7117a466d1c6a43e9d9bfb09b3426a4508aa851abc5'),
], ids=['shrink-negative-scale', 'limitset-6'])
def test_word_outputs_are_pinned(capsys, argv, digest):
    # digests taken when every replayed vector was built with its letter,
    # and every limit-set image as a QVec2 with its Word's label
    code, out = run(capsys, argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.fixture
def built(monkeypatch):
    """A one-item list that counts the QVec2s built from here on."""
    count = [0]
    init = QVec2.__init__

    def counted(self, x, y):
        count[0] += 1
        init(self, x, y)

    monkeypatch.setattr(QVec2, '__init__', counted)
    return count


@pytest.mark.parametrize('argv', [
    ['survivor', *GZ_PAIR], ['decay', *GZ_PAIR],
    ['conjugate', *GZ_PAIR, '--depth', '12'],
    ['conjugate', *GZ_PAIR[:-2], '--depth', '12'],
], ids=['survivor', 'decay', 'conjugate', 'conjugate-derived'])
def test_pair_commands_build_no_replayed_vector(capsys, monkeypatch, built,
                                                argv):
    # the pair reads letters, signs and the period alone: replaying 1000
    # more letters builds no more vectors and prints the same bytes
    shrink = measures.shrinking_sequence
    runs = []
    for more in (0, 1000):
        monkeypatch.setattr(measures, 'shrinking_sequence',
                            lambda lam, theta, max_steps:
                            shrink(lam, theta, max_steps + more))
        built[0] = 0
        code, out = run(capsys, argv)
        assert code == EXIT_OK
        runs.append((built[0], out))
    assert runs[0] == runs[1]


@pytest.mark.parametrize('n, alpha', [
    (2, '1/2*sqrt(2)'), (2, '-3/2+1/2*sqrt(2)'), (3, '5/6+1/6*sqrt(5)'),
], ids=['periodic', 'negative-scale', 'excluded-tail'])
def test_omega_builds_no_replayed_vector(built, n, alpha):
    counts = []
    for depth in (64, 2000):
        built[0] = 0
        assert len(omega_test(n, parse_quad(alpha), depth).data) == depth
        counts.append(built[0])
    assert counts[0] == counts[1]


@pytest.mark.parametrize('branch', ['left', 'right'])
def test_simulate_locates_each_point_once(capsys, monkeypatch, branch):
    # the rows read the edge and offset the orbit's step located: no
    # resolve, and one locate per row
    calls = {'resolve': 0, '_locate': 0}

    def counted(name):
        fn = getattr(dynamics, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(dynamics, name, counted(name))
    code, out = run(capsys, GZ_CUT_ORBIT[:-3] + ['--steps', '40',
                                                 '--branch', branch])
    assert code == EXIT_OK
    assert len(csv_body(out)[1]) == 40
    assert calls == {'resolve': 0, '_locate': 40}


def test_simulate_left_branch_on_a_one_edge_circle(capsys):
    # one generator: the one A-vertex's circle is one edge, its own west
    # neighbour, and the left branch codes a cut as that edge at its full
    # width, as the step itself took it
    code, out = run(capsys, ['simulate', '--family',
                             'character:group=Z,generators=(0,),chi=1',
                             '--theta', '1, 2', '--steps', '3',
                             '--branch', 'left'])
    assert code == EXIT_OK
    edge = '"(\'e\', 0, 1)"'
    assert [','.join(r) for r in csv_body(out)[1]] == [
        '0,"(\'a\', 0)",1/2,%s,1/2' % edge, '1,"(\'a\', 0)",0,%s,1' % edge,
        '2,"(\'a\', 0)",1/2,%s,1/2' % edge]


def test_simulate_surface_exact_cells(capsys):
    code, out = run(capsys, ['simulate', '--family', 'gz_constant',
                             '--theta', '1, -1+sqrt(2)', '--steps', '5'])
    assert code == EXIT_OK
    _, rows = csv_body(out)
    assert len(rows) == 5
    for r in rows:
        parse_quad(r[2])


def test_simulate_left_branch_prints_its_own_symbol(capsys):
    # rows 1 and 3 land on cuts; the left branch codes them as the west
    # edge at its full width
    argv = ['simulate', '--family', 'gz_constant', '--theta', '1, 2',
            '--steps', '4']
    code, out = run(capsys, argv + ['--branch', 'left'])
    assert code == EXIT_OK
    assert [','.join(r) for r in csv_body(out)[1]] == [
        '0,0,1/2,-1,1/2', '1,-2,0,-2,1', '2,0,3/2,0,1/2', '3,2,1,1,1']
    code, out = run(capsys, argv)
    assert code == EXIT_OK
    assert [','.join(r) for r in csv_body(out)[1]] == [
        '0,0,1/2,-1,1/2', '1,-2,0,-3,0', '2,-4,3/2,-4,1/2', '3,-2,1,-2,0']


def test_simulate_skew_budget_exit(capsys, monkeypatch):
    monkeypatch.setenv('RIBBONFLOW_BUDGET', '3')
    code, _ = run(capsys, ['simulate', '--group', 'Z', '--generators',
                           '(1,1)', '--alpha', '1/2*sqrt(2)', '--steps',
                           '50'])
    assert code == EXIT_BUDGET


GZ_BUDGET_1 = ['simulate', '--family', 'gz_constant', '--theta',
               '1, -1+sqrt(2)', '--budget', '1', '--steps']


def test_simulate_budget_counts_the_landings_made(capsys):
    # the one row of a 1-step orbit is its start, on circle 0; the orbit
    # used to make one more landing, off that circle, and exit 3
    code, out = run(capsys, GZ_BUDGET_1 + ['1'])
    assert code == EXIT_OK
    assert [','.join(r) for r in csv_body(out)[1]] == ['0,0,1/2,-1,1/2']
    assert main(GZ_BUDGET_1 + ['2']) == EXIT_BUDGET
    assert capsys.readouterr() == ('', 'budget exhausted after 1 steps\n')


SKEW_Z = ['simulate', '--group', 'Z', '--generators', '(1,1)', '--alpha',
          '1/2*sqrt(2)', '--steps', '5']


@pytest.mark.parametrize('spelling', ['flag', 'env'])
def test_float_skew_orbit_obeys_the_budget(capsys, monkeypatch, spelling):
    # the float mode used to print all 50 rows with exit 0
    argv = SKEW_Z[:-1] + ['50']
    budget = ['--budget', '3']
    if spelling == 'env':
        monkeypatch.setenv('RIBBONFLOW_BUDGET', '3')
        budget = []
    assert main(argv + budget) == EXIT_BUDGET
    exact = capsys.readouterr()
    assert main(argv + budget + ['--mode', 'float']) == EXIT_BUDGET
    assert capsys.readouterr() == exact == ('', 'budget exhausted after 3 '
                                            'steps\n')


def test_budget_zero_is_unbounded_for_flag_and_env(capsys, monkeypatch):
    code, by_flag = run(capsys, SKEW_Z + ['--budget', '0'])
    assert code == EXIT_OK
    monkeypatch.setenv('RIBBONFLOW_BUDGET', '0')
    code, by_env = run(capsys, SKEW_Z)
    assert code == EXIT_OK
    assert by_flag == by_env and len(csv_body(by_flag)[1]) == 5


def test_negative_budget_exits_two(capsys, monkeypatch):
    assert main(SKEW_Z + ['--budget', '-1']) == EXIT_PARSE
    monkeypatch.setenv('RIBBONFLOW_BUDGET', '-1')
    assert main(SKEW_Z) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count('\n') == 2 and 'RIBBONFLOW_BUDGET' in err


@pytest.mark.parametrize('argv', [
    ['shrink', '--lambda', '2', '--theta', '1, -1+sqrt(2)', '--depth'],
    ['eigen', '--family', 'gz_constant', '--window'],
    ['simulate', '--family', 'gz_constant', '--theta', '1, -1+sqrt(2)',
     '--steps'],
    ['omega', '--alpha', 'sqrt(2)', '--n'],
    ['shrink', '--lambda', '2', '--theta', '1, -1+sqrt(2)', '--seed'],
], ids=['depth', 'window', 'steps', 'n', 'seed'])
def test_an_integer_flag_beyond_int_conversion_names_the_flag(capsys, argv):
    # 5000 digits are more than Python converts to an int: one line
    # naming the flag and the digit count, not the digits
    assert main(argv + ['9' * 5000]) == EXIT_PARSE
    out, err = capsys.readouterr()
    kind = ' >= 0' if argv[-1] in ('--depth', '--window', '--steps') else ''
    assert out == '' and err == (
        'error: argument %s: takes an integer%s of at most %d digits, got '
        '5000 digits\n' % (argv[-1], kind, sys.get_int_max_str_digits()))
    # a value that is no integer is echoed as before
    assert main(argv + ['x1']) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == "error: argument %s: %s 'x1'\n" % (argv[-1], (
        'takes an integer >= 0, got' if kind else 'invalid int value:'))


@pytest.mark.parametrize('argv', [
    SKEW_Z, ['render', '--style', 'limitset', '--lambda', '3', '--depth', '2'],
], ids=['simulate', 'render'])
@pytest.mark.parametrize('spelling', ['flag', 'env'])
def test_a_budget_beyond_int_conversion_names_flag_and_variable(
        capsys, monkeypatch, argv, spelling):
    # 5000 digits are more than Python converts to an int: one line
    # naming both spellings, and not the digits
    digits = '9' * 5000
    if spelling == 'flag':
        argv = argv + ['--budget', digits]
    else:
        monkeypatch.setenv('RIBBONFLOW_BUDGET', digits)
    assert main(argv) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == '' and err.count('\n') == 1
    assert err.startswith('error: --budget and RIBBONFLOW_BUDGET take ')
    assert '5000 digits' in err and '99999' not in err


@pytest.mark.parametrize('drop', ['--generators', '--alpha'])
def test_skew_simulate_names_missing_flag(capsys, drop):
    i = SKEW_Z.index(drop)
    code = main(SKEW_Z[:i] + SKEW_Z[i + 2:])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.count('\n') == 1 and drop in err


def test_surface_simulate_names_missing_theta(capsys):
    code = main(['simulate', '--family', 'gz_constant', '--steps', '3'])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.count('\n') == 1 and '--theta' in err


TRIPOD_PAIR = ['--family2', 'tripod:t=3', '--theta', '4, -5+sqrt(41)',
               '--theta2', '3, -5+sqrt(34)', '--depth', '4']


def test_conjugate_refuses_a_vertical_second_direction(capsys):
    # a matched second direction is never vertical, so the pair refuses
    # (0, 1) as unmatched before any side is mapped; the library's own
    # refusal is test_conjugacy_refuses_a_vertical_second_direction
    code = main(['conjugate', '--family', 'gz_constant', '--family2',
                 'gz_constant', '--theta', '1, -1+sqrt(2)', '--theta2',
                 '0, 1', '--depth', '2'])
    out, err = capsys.readouterr()
    assert code == EXIT_NOT_RENORM
    assert out == '' and err == (
        '--theta2 is not parallel to (2, -2+2*sqrt(2)), the direction '
        'matched to --theta, so it gives no measure; survivor reports the '
        'witness\n')


def test_conjugate_t_is_the_family_parameter(capsys):
    # --t sets the tripod's t, exactly as the inline spelling does, and
    # conjugate prints its six fixed boundary points
    code, by_flag = run(capsys, ['conjugate', '--family', 'tripod', '--t',
                                 '2', *TRIPOD_PAIR])
    assert code == EXIT_OK
    code, inline = run(capsys, ['conjugate', '--family', 'tripod:t=2',
                                *TRIPOD_PAIR])
    assert code == EXIT_OK
    assert by_flag == inline
    assert len(csv_body(by_flag)[1]) == 6


def test_simulate_skew_float_mode(capsys):
    code, out = run(capsys, ['simulate', '--group', 'Z', '--generators',
                             '(1,-1)', '--alpha', '1/2*sqrt(2)', '--mode',
                             'float', '--steps', '3'])
    assert code == EXIT_OK
    _, rows = csv_body(out)
    assert rows[0][2] == '1'
    assert abs(float(rows[0][1]) - 0.7071067811865476) == 0


@pytest.mark.parametrize('alpha', [
    'sqrt(2)', '10000000000000000+sqrt(2)', '%d+sqrt(2)' % 10 ** 400,
    '-7/3+sqrt(2)'], ids=['1', '10^16', '10^400', '-7/3'])
def test_float_skew_orbit_reduces_alpha_before_rounding(capsys, alpha):
    # the float mode used to round alpha before reducing it mod 1, which
    # lost its fraction (x = 0.0 on every row) or overflowed
    argv = ['simulate', '--group', 'Z', '--generators', '(1,-1)',
            '--alpha', alpha, '--steps', '2000', '--mode']
    groups = []
    for mode in ('exact', 'float'):
        code, out = run(capsys, argv + [mode])
        assert code == EXIT_OK
        groups.append([row[2] for row in csv_body(out)[1]])
    assert len(groups[0]) == 2000
    assert groups[0] == groups[1]


@pytest.mark.parametrize('argv', [
    ['simulate', '--family', 'tripod:t=3', '--theta', '4, -5+sqrt(41)',
     '--steps', '400'],
    ['simulate', '--family', 'gz_exponential:t=3', '--theta',
     '4, -5+sqrt(41)', '--steps', '400'],
    ['simulate', '--family', 'ntree_horo:n=3,s=2', '--theta',
     '1, -1+sqrt(2)', '--steps', '600'],
    # (3, -5+sqrt(34)) is periodic at t=3's lambda 10/3, and its match at
    # t=2's 5/2 is (4, -5+sqrt(41))
    ['conjugate', '--family', 'tripod:t=3', '--family2', 'tripod:t=2',
     '--theta', '3, -5+sqrt(34)', '--theta2', '4, -5+sqrt(41)',
     '--depth', '400'],
])
def test_exact_runs_never_round(capsys, argv):
    # a section used to round its cuts on first use, so an exact run
    # that reached a cut beyond the float range raised OverflowError
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == '' and csv_body(out)[1]


def test_parse_errors_exit_two(capsys):
    assert main(['shrink', '--lambda', '2', '--theta', 'nope']) == EXIT_PARSE
    assert main(['omega', '--n', '2', '--alpha', '0.707']) == EXIT_PARSE
    assert main(['eigen', '--family', 'unknown']) == EXIT_PARSE
    assert main(['render', '--family', 'gz_constant',
                 '--format', 'csv']) == EXIT_PARSE
    capsys.readouterr()


def test_mixed_fields_exit_two(capsys):
    code = main(['shrink', '--lambda', '3/2*sqrt(2)', '--theta',
                 '1, sqrt(3)'])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err == 'error: cannot combine sqrt(2) with sqrt(3)\n'


def test_mixed_fields_in_the_return_map_name_the_surface_first(capsys):
    code = main(['simulate', '--family', 'tripod:t=sqrt(2)', '--theta',
                 '1, sqrt(3)', '--steps', '5'])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err == 'error: cannot combine sqrt(2) with sqrt(3)\n'


def test_lambda_below_two_exits_two(capsys):
    code = main(['shrink', '--lambda', '1', '--theta', '1, -1+sqrt(2)',
                 '--depth', '3'])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err == 'error: lambda must be at least 2, got 1\n'


@pytest.mark.parametrize('command', ['conjugate', 'survivor', 'decay'])
def test_pair_families_must_share_a_graph(capsys, command):
    code = main([command, '--family', 'gz_constant', '--family2',
                 'tripod:t=2', '--theta', '1, -1+sqrt(2)', '--theta2',
                 '4, -5+sqrt(41)', '--depth', '2'])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err == ('error: gz_constant and tripod t=2 weight different '
                   'graphs\n')


def test_budget_and_format_flags_are_per_command(capsys):
    shrink = ['shrink', '--lambda', '2', '--theta', '1, -1+sqrt(2)']
    assert main(shrink + ['--budget', '5']) == EXIT_PARSE
    assert main(shrink + ['--format', 'svg']) == EXIT_PARSE
    capsys.readouterr()


def test_missing_family_parameter_names_it(capsys):
    code = main(['growth', '--family', 'tripod'])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.count('\n') == 1 and 'tripod' in err and "'t'" in err


def test_missing_family_and_malformed_literal_exit_two(capsys):
    assert main(['growth', '--depth', '3']) == EXIT_PARSE
    assert main(['eigen', '--family', 'character', '--group', 'Z',
                 '--generators', '(1,', '--chi', '4']) == EXIT_PARSE
    capsys.readouterr()
    assert main(['growth', '--family', 'character:group=Z,generators=(1,-1),'
                 'chi=(41/10,']) == EXIT_PARSE
    assert capsys.readouterr().err == "error: not a literal: '(41/10,'\n"


CHARACTER_Z = ['--family', 'character', '--group', 'Z', '--generators',
               '(1,-1)', '--chi', '4']


@pytest.mark.parametrize('flag,literal,leaf', [
    ('--chi', '4.0', '4.0'), ('--chi', '4.1', '4.1'),
    ('--generators', '(1.0,-1.0)', '1.0')])
def test_float_literals_exit_two_asking_for_exact_forms(capsys, flag,
                                                         literal, leaf):
    argv = ['growth', *CHARACTER_Z, flag, literal, '--depth', '2']
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ''
    errors = [line for line in captured.err.splitlines() if 'error:' in line]
    assert len(errors) == 1
    assert repr(literal) in errors[0] and 'float %s' % leaf in errors[0]
    assert 'rational' in errors[0] and 'sqrt' in errors[0]


HEISENBERG = ['growth', '--family', 'character', '--group', 'heisenberg',
              '--generators', '((1,0,0),(-1,0,0),(0,1,0),(0,-1,0))']


@pytest.mark.parametrize('plain, quoted', [
    (HEISENBERG + ['--chi', '(1/2,1)'], HEISENBERG + ['--chi', "('1/2',1)"]),
    (['shrink', '--lambda', '2', '--theta', '(1, -1+sqrt(2))', '--depth',
      '6'],
     ['shrink', '--lambda', '2', '--theta', '1, -1+sqrt(2)', '--depth',
      '6']),
], ids=['tuple-of-rationals', 'bracketed-direction'])
def test_tuples_take_exact_numbers_as_scalars_do(capsys, plain, quoted):
    # the first spelling of each pair used to exit 2
    first, second = (run(capsys, argv) for argv in (plain, quoted))
    assert first == second and first[0] == EXIT_OK


@pytest.mark.parametrize('argv', [
    ['--group', 'Z', '--generators', '(1,-1)', '--chi', '((1,2),)'],
    ['--group', 'free', '--k', '2', '--generators',
     '((1,),(2,),(-2,),(-1,))', '--chi', '[(),]'],
], ids=['Z', 'free'])
def test_nested_chi_exits_two(capsys, argv):
    # a tuple inside chi used to reach as_quad: a TypeError traceback
    code = main(['growth', '--family', 'character', *argv, '--depth', '2'])
    out, err = capsys.readouterr()
    assert code == EXIT_PARSE and out == ''
    assert err.count('\n') == 1 and err.startswith('error: ')
    assert "'chi'" in err


def spell(value, opener='(', quote=''):
    """value in the CLI grammar, tuples in opener's brackets and each
    leaf in quote."""
    if not isinstance(value, tuple):
        return quote + str(value) + quote
    inner = ', '.join(spell(v, opener, quote) for v in value)
    close = {'(': ')', '[': ']'}[opener]
    return opener + inner + ',' * (len(value) == 1) + close


NAMES = st.from_regex(r'[A-Za-z][A-Za-z0-9_^]{0,4}', fullmatch=True)
QUADS = st.builds(QuadNum, st.fractions(-20, 20, max_denominator=9),
                  st.fractions(-20, 20, max_denominator=9),
                  st.sampled_from([2, 3, 5, 41]))


def nested(leaves, depth=3):
    """leaves, and tuples of them nested up to depth."""
    if not depth:
        return leaves
    return st.one_of(leaves, st.lists(nested(leaves, depth - 1),
                                      max_size=3).map(tuple))


LEAVES = st.one_of(st.integers(-10 ** 20, 10 ** 20), QUADS, NAMES)
VALUES = nested(LEAVES)


@given(VALUES, st.sampled_from('(['), st.sampled_from(['', "'", '"']))
def test_values_read_back_as_spelled(value, opener, quote):
    assert cli._value(spell(value, opener, quote)) == value


# the tuple branch of VALUES, drawn directly: filtering VALUES for tuples
# failed the filter_too_much health check on some seeds
@given(st.lists(nested(LEAVES, 2), max_size=3).map(tuple),
       st.sampled_from('(['), st.floats(allow_nan=False, allow_infinity=False))
def test_off_grammar_values_raise_value_error(value, opener, x):
    text = spell(value, opener)
    flawed = [text[:-1], '(' + text, '%s, %r)' % (text[:-1], x), repr(x),
              text.replace(',', ',,', 1) if ',' in text else '(,)',
              '', "''", '(' * 20 + ')' * 20]
    for bad in flawed:
        with pytest.raises(ValueError):
            cli._value(bad)


# (group flags, generators, chi) of a valid character family per group
FUZZ_GROUPS = [
    (['--group', 'Z'], '(1,-1)', '4'),
    (['--group', 'Z^d', '--d', '2'], '((1,0),(-1,0),(0,1),(0,-1))',
     '(2,3)'),
    (['--group', 'heisenberg'], '((1,0,0),(-1,0,0),(0,1,0),(0,-1,0))',
     '(1/2,1)'),
    (['--group', 'free', '--k', '2'], '((1,),(2,),(-2,),(-1,))', '(2,3)'),
    (['--group', 'cyclic', '--m', '3'], '(1,-1)', '1'),
]
# junk whose longest number is 22222
FUZZ_JUNK = st.text(alphabet='012-+/*.,()[]\' sqrtZx^', max_size=12).filter(
    lambda t: not re.search(r'\d{6}', t))
# grammar values with small ints, so no family grows a large ball, and junk
FUZZ_TEXT = st.one_of(
    st.builds(spell, nested(st.one_of(st.integers(-3, 6), QUADS, NAMES)),
              st.sampled_from('([')),
    FUZZ_JUNK, st.sampled_from([gens for _, gens, _ in FUZZ_GROUPS]))


def small_size(text):
    """Whether text reads as no int above 8."""
    try:
        value = cli._value(text)
    except ValueError:
        return True
    return not (type(value) is int and value > 8)


# tree valences and group sizes: the window-1 ball of the n-tree has
# about n^2 vertices, so only ints in -3..8 and junk that reads as no
# larger int
FUZZ_SIZE = st.one_of(st.integers(-3, 8).map(str),
                      FUZZ_JUNK.filter(small_size))


def group_flags(flags):
    """The group flags, with the size of a group such as Z^d kept or
    drawn from FUZZ_SIZE."""
    if len(flags) == 2:
        return st.just(flags)
    return st.builds(lambda size: flags[:3] + [size],
                     st.one_of(st.just(flags[3]), FUZZ_SIZE))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.sampled_from(FUZZ_GROUPS).flatmap(lambda group: st.builds(
        lambda flags, gens, chi: ['growth', '--family', 'character', *flags,
                                  '--generators', gens, '--chi', chi,
                                  '--depth', '1'],
        group_flags(group[0]),
        st.one_of(st.just(group[1]), FUZZ_TEXT),
        st.one_of(st.just(group[2]), FUZZ_TEXT))),
    st.sampled_from(FUZZ_GROUPS).flatmap(lambda group: st.builds(
        lambda flags: ['simulate', *flags, '--generators', group[1],
                       '--alpha', '1/2*sqrt(2)', '--steps', '2'],
        group_flags(group[0]))),
    st.builds(lambda family, value: ['eigen', '--family', family[0],
                                     family[1], value, '--window', '1'],
              st.sampled_from([('tripod', '--t'), ('ntree_horo:n=3', '--s')]),
              FUZZ_TEXT),
    st.builds(lambda family, value: ['eigen', '--family', family, '--n',
                                     value, '--window', '1'],
              st.sampled_from(['ntree_constant', 'ntree_horo:s=1/2']),
              FUZZ_SIZE)))
def test_fuzzed_family_values_end_in_zero_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_PARSE), argv
    assert err.getvalue().count('\n') == (code == EXIT_PARSE), argv


def with_keys(spec, extra):
    """spec with the inline keys extra appended."""
    return spec + (',' if ':' in spec else ':') + extra if extra else spec


FUZZ_SPECS = st.builds(with_keys, st.sampled_from([
    'gz_constant', 'gz_exponential:t=2', 'tripod:t=2', 'tripod:t=sqrt(2)',
    'ntree_horo:n=3,s=1/2', 'character:group=Z,generators=(1,-1),chi=4',
    'character:group=free,k=2,generators=((1,),(2,),(-2,),(-1,)),chi=2']),
    st.sampled_from(['', 'chi=4', 'name=Z', 'd=2', 'k=2', 't=3', 'x=(1,)']))
FUZZ_THETAS = st.one_of(st.sampled_from([
    '1, -1+sqrt(2)', '4, -5+sqrt(41)', '3, -5+sqrt(34)', '1, 1/3', '0, 1',
    '1, 0']), FUZZ_TEXT)
FUZZ_NUMBERS = st.one_of(st.sampled_from([
    '1/2*sqrt(2)', '5/6+1/6*sqrt(5)', '1/3+sqrt(2)', '3', '2', '-1']),
    FUZZ_TEXT)
# depths, windows and steps of 2 to 4, so that each case takes milliseconds
FUZZ_SIZES = st.sampled_from(['2', '3', '4'])


def fuzz_argv(*parts):
    """Commands built from parts: fixed tokens and token strategies."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p
                       for p in parts)).map(list)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    fuzz_argv('shrink', '--lambda', FUZZ_NUMBERS, '--theta', FUZZ_THETAS,
              '--depth', FUZZ_SIZES),
    fuzz_argv('omega', '--n', st.sampled_from(['2', '3', '4']), '--alpha',
              FUZZ_NUMBERS, '--depth', FUZZ_SIZES),
    fuzz_argv('simulate', '--group', 'Z', '--generators', '(1,-1)',
              '--alpha', FUZZ_NUMBERS, '--steps', FUZZ_SIZES, '--mode',
              st.sampled_from(['exact', 'float']), '--budget',
              st.sampled_from(['0', '1', '2'])),
    fuzz_argv('simulate', '--family', FUZZ_SPECS, '--theta', FUZZ_THETAS,
              '--steps', FUZZ_SIZES),
    fuzz_argv(st.sampled_from(['survivor', 'decay']), '--family', FUZZ_SPECS,
              '--family2', FUZZ_SPECS, '--theta', FUZZ_THETAS, '--theta2',
              FUZZ_THETAS, '--depth', FUZZ_SIZES, '--window', FUZZ_SIZES),
    fuzz_argv('conjugate', '--family', FUZZ_SPECS, '--family2', FUZZ_SPECS,
              '--theta', FUZZ_THETAS, '--theta2', FUZZ_THETAS, '--depth',
              FUZZ_SIZES),
    fuzz_argv('render', '--style', 'surface', '--family', FUZZ_SPECS,
              '--depth', FUZZ_SIZES),
    fuzz_argv('render', '--style', 'limitset', '--lambda', FUZZ_NUMBERS,
              '--depth', FUZZ_SIZES)))
def test_fuzzed_subcommands_end_in_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_BUDGET, EXIT_NOT_RENORM), argv
    assert err.getvalue().count('\n') == (code != EXIT_OK), argv


def test_character_family_reaches_growth_and_render(tmp_path, capsys):
    code, out = run(capsys, ['growth', *CHARACTER_Z, '--depth', '4'])
    assert code == EXIT_OK
    assert '# lambda 5/2' in out
    svg = tmp_path / 'staircase.svg'
    code = main(['render', '--style', 'surface', *CHARACTER_Z, '--depth',
                 '2', '--out', str(svg)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert xml.dom.minidom.parse(str(svg)).documentElement.tagName == 'svg'


def test_character_family_inline_matches_flags(capsys):
    code, by_flag = run(capsys, ['growth', *CHARACTER_Z])
    assert code == EXIT_OK
    code, inline = run(capsys, ['growth', '--family',
                                'character:group=Z,generators=(1,-1),chi=4'])
    assert code == EXIT_OK
    assert inline == by_flag


@pytest.mark.parametrize('family, flags', [
    ('tripod', [('t', 'sqrt(2)')]),
    ('ntree_horo:n=3', [('s', '1/2')]),
    ('ntree_constant', [('n', '3')]),
    ('character:group=Z,generators=(1,-1)', [('chi', '4')]),
    ('character:group=Z,generators=(1,-1)', [('chi', '41/10')]),
    ('character:group=Z,chi=4', [('generators', '(1,-1)')]),
    ('character:generators=((1,0),(-1,0),(0,1),(0,-1)),chi=(1,1)',
     [('group', 'Z^d'), ('d', '2')]),
], ids=['t', 's', 'n', 'chi-int', 'chi-rational', 'generators', 'group-d'])
def test_family_flags_read_as_inline_values(capsys, family, flags):
    by_flag = ['--family', family]
    for key, value in flags:
        by_flag += ['--' + key, value]
    inline = family + (',' if ':' in family else ':') + ','.join(
        '%s=%s' % pair for pair in flags)
    runs = [run(capsys, ['eigen', *argv, '--window', '2'])
            for argv in (by_flag, ['--family', inline])]
    assert runs[0] == runs[1] and runs[0][0] == EXIT_OK


FREE_CHI = ('character:group=free,k=2,generators=((1,),(2,),(-2,),(-1,)),'
            'chi=(2,3)')
LATTICE_CHI = ['--family', 'character', '--group', 'Z^d', '--d', '2',
               '--generators', '((1,0),(-1,0),(0,1),(0,-1))', '--chi',
               '(2,3)']
SKEW_STAIRCASE = ['simulate', '--group', 'Z', '--generators', '(1,-1)',
                  '--alpha', '1/2*sqrt(2)', '--steps', '3']
SKEW_LATTICE = ['simulate', '--group', 'Z^d', '--d', '2', '--generators',
                '((1,0),(-1,0))', '--alpha', '1/2*sqrt(2)', '--steps', '3']


# (a command that runs, the same with keys that nothing reads, the
# refusal's words); each refused one used to exit 0, the keys dropped
@pytest.mark.parametrize('runs, refused, words', [
    (['growth', '--family', 'tripod:t=2'],
     ['growth', '--family', 'tripod:t=2,name=Z'],
     "family tripod takes no parameter 'name'"),
    (['growth', *CHARACTER_Z],
     ['growth', '--family', 'character:name=Z', *CHARACTER_Z[2:]],
     "family character takes no parameter 'name'"),
    (['growth', '--family', 'tripod', '--t', '2', '--depth', '2'],
     ['growth', '--family', 'tripod', '--t', '2', '--chi', '4', '--depth',
      '2'], "family tripod takes no parameter 'chi'"),
    (['growth', '--family', 'tripod:t=2', '--depth', '2'],
     ['growth', '--family', 'tripod:t=2,chi=4', '--depth', '2'],
     "family tripod takes no parameter 'chi'"),
    (SKEW_STAIRCASE, SKEW_STAIRCASE + ['--chi', '4', '--t', '2'],
     '--group Z reads no --chi'),
    (SKEW_LATTICE, SKEW_LATTICE + ['--k', '2'], '--group Z^d reads no --k'),
    (['eigen', '--family', FREE_CHI, '--window', '2'],
     ['eigen', '--family', FREE_CHI + ',d=2', '--window', '2'],
     "family character takes no parameter 'd'"),
    (['growth', *LATTICE_CHI, '--depth', '2'],
     ['growth', *LATTICE_CHI, '--m', '3', '--depth', '2'],
     "family character takes no parameter 'm'"),
], ids=['name-inline', 'character-name', 'chi-flag', 'chi-inline',
        'skew-chi-t', 'skew-lattice-k', 'free-d', 'lattice-m'])
def test_family_refuses_keys_nothing_reads(capsys, runs, refused, words):
    # name= once collided with the builders' own name: a TypeError
    assert main(runs) == EXIT_OK
    capsys.readouterr()
    assert main(refused) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == '' and err.count('\n') == 1
    assert err.startswith('error: ') and words in err


def test_character_family_can_be_the_second_family(capsys):
    code, out = run(capsys, [
        'conjugate', *CHARACTER_Z, '--family2',
        'character:group=Z,generators=(1,-1),chi=4', '--theta',
        '4, -5+sqrt(41)', '--theta2', '4, -5+sqrt(41)', '--depth', '4'])
    assert code == EXIT_OK
    assert len(csv_body(out)[1]) == 6


@pytest.mark.parametrize('mode', ['exact', 'float'])
def test_empty_generators_exit_two(capsys, mode):
    code = main(['simulate', '--group', 'Z', '--generators', '()',
                 '--alpha', '1/2*sqrt(2)', '--steps', '3', '--mode', mode])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert 'argument --generators' in err.splitlines()[-1]


def test_bad_budget_env_exits_two(capsys, monkeypatch):
    monkeypatch.setenv('RIBBONFLOW_BUDGET', 'abc')
    code = main(['simulate', '--group', 'Z', '--generators', '(1,-1)',
                 '--alpha', '1/2*sqrt(2)', '--steps', '5'])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.count('\n') == 1 and 'RIBBONFLOW_BUDGET' in err


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == EXIT_PARSE
    capsys.readouterr()


@pytest.mark.parametrize('argv', [
    ['shrink', '--lambda', '2', '--theta', '1, -1+sqrt(2)', '--depth', '-1'],
    ['omega', '--n', 'x', '--alpha', '1/2*sqrt(2)'],
    ['omega', '--n', '2', '--alpha', '1/2*sqrt(2)', '--bogus'],
    ['render', '--style', 'nope', '--family', 'gz_constant'],
    [],
], ids=['negative-depth', 'non-int-n', 'unknown-flag', 'bad-style',
        'no-subcommand'])
def test_parser_refusals_are_one_line(capsys, argv):
    assert main(argv) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == '' and err.count('\n') == 1 and err.startswith('error: ')


def subcommands():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_help_matches_a_fresh_parser(capsys):
    names = list(subcommands())
    assert len(names) == 9
    for argv in [['--help'], ['--version']] + [[n, '--help'] for n in names]:
        assert main(argv) == EXIT_OK
        kept = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == kept != ''


# the cli-readme benchmark's error paths, and argv lists the subcommand
# table does not take: no argv, a top-level flag, an unknown name, a flag
# before the subcommand, and an unknown flag after it
CLI_ERROR_PATHS = [
    ['omega', '--alpha', 'abc', '--n', '2'],
    ['simulate', '--group', 'Z', '--generators', '[1, -1]', '--alpha',
     '1/2*sqrt(2)', '--steps', '20', '--budget', '3'],
    ['survivor', '--family', 'gz_constant', '--family2',
     'gz_exponential:t=2', '--theta', '1, 1/3', '--theta2', '4, -5+sqrt(41)',
     '--depth', '6', '--window', '4'],
]
FULL_PARSER_ARGVS = [
    [], ['--version'], ['--help'], ['bogus', '--depth', '2'],
    ['--seed', '1', 'shrink', '--lambda', '2', '--theta', '1, -1+sqrt(2)'],
    ['shrink', '--lambda', '2', '--theta', '1, -1+sqrt(2)', '--bogus', '3'],
]


def test_direct_dispatch_matches_the_full_parser(tmp_path, monkeypatch,
                                                 capsys):
    # main hands argv[1:] to the named subcommand's parser: every README
    # line, error path and refusal ends as it does when the emptied
    # subcommand table leaves every argv to the full parser
    monkeypatch.chdir(tmp_path)
    argvs = ([argv for argv, _ in readme_commands()] + CLI_ERROR_PATHS
             + FULL_PARSER_ARGVS)

    def ends(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for p in tmp_path.iterdir():
            p.unlink()
        return code, out, err, files

    direct = [ends(argv) for argv in argvs]
    monkeypatch.setattr(cli._parser(), 'subcommands', {})
    assert [ends(argv) for argv in argvs] == direct
    codes = [code for code, _, _, _ in direct[-len(FULL_PARSER_ARGVS):]]
    assert codes == [EXIT_PARSE, EXIT_OK, EXIT_OK, EXIT_PARSE, EXIT_PARSE,
                     EXIT_PARSE]


def test_dispatched_namespace_is_the_full_parsers(monkeypatch):
    parser = cli._parser()
    assert set(parser.subcommands) == set(subcommands())
    seen = []
    for sub in parser.subcommands.values():
        monkeypatch.setitem(sub._defaults, 'handler',
                            lambda args: seen.append(vars(args)) or EXIT_OK)
    full, calls = parser.parse_args, []
    monkeypatch.setattr(parser, 'parse_args',
                        lambda argv: calls.append(argv) or full(argv))
    for argv, _ in readme_commands():
        argv = cli._joined(argv)
        assert main(argv) == EXIT_OK
        # the top-level parser is not run on a subcommand's argv
        assert not calls
        assert seen.pop() == vars(full(argv))
        assert not seen


def test_back_to_back_calls_match_separate_calls(capsys):
    argvs = [
        ['shrink', '--lambda', '2', '--theta', '1, -1+sqrt(2)',
         '--depth', '4'],
        ['omega', '--alpha', 'abc', '--n', '2'],
        ['conjugate', *GZ_PAIR, '--depth', '4', '--format', 'json'],
        ['simulate', '--group', 'Z', '--generators', '[1, -1]', '--alpha',
         '1/2*sqrt(2)', '--steps', '20', '--budget', '3'],
        ['growth', '--family', 'tripod:t=2', '--depth', '4'],
        ['shrink', '--lambda', '5/2', '--theta', '4, -5+sqrt(41)'],
        ['eigen', '--family', 'tripod', '--t', 'sqrt(2)', '--window', '2'],
        ['shrink'],
    ]
    together = [(main(argv), *capsys.readouterr()) for argv in argvs]
    assert [code for code, _, _ in together] == [
        EXIT_OK, EXIT_PARSE, EXIT_OK, EXIT_BUDGET, EXIT_OK, EXIT_OK,
        EXIT_OK, EXIT_PARSE]
    for argv, expected in zip(argvs, together):
        cli._parser.cache_clear()
        assert (main(argv), *capsys.readouterr()) == expected, argv


def test_render_surface_svg(tmp_path, capsys):
    out = tmp_path / 'surface.svg'
    code = main(['render', '--family', 'gz_exponential:t=2', '--depth',
                 '2', '--out', str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    doc = xml.dom.minidom.parse(str(out))
    assert doc.documentElement.tagName == 'svg'
    assert out.read_text().startswith('<!-- ribbonflow %s' % __version__)


def test_render_limit_set_svg(tmp_path, capsys):
    out = tmp_path / 'limit.svg'
    code = main(['render', '--style', 'limitset', '--lambda', '3',
                 '--depth', '3', '--out', str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    text = out.read_text()
    xml.dom.minidom.parse(str(out))
    assert '3-sqrt(5)' in text and '3+sqrt(5)' in text
    assert text.count('<line') == 1 + sum(4 * 3 ** k for k in range(3)) + 1


def _limit_set_svg_by_matrices(lam, depth):
    """The limit-set drawing with each word's matrix built from the
    identity by rho, kept as the oracle for the suffix shears of
    cli._limit_set_svg."""
    root = sqrt_rational(lam * lam - 4)
    ends = (QVec2(QuadNum(2), lam - root), QVec2(QuadNum(2), lam + root))

    def chart(v):
        if v.x == 0:
            return 1.0 if v.y >= 0 else -1.0
        return (2 / math.pi) * math.atan(float(v.y) / float(v.x))

    words = [Word()]
    frontier = [Word()]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for letter in (H, H_INV, V, V_INV):
                ext = w * Word([letter])
                if len(ext) > len(w):
                    nxt.append(ext)
        words.extend(nxt)
        frontier = nxt
    width, height, pad = 800, 120, 10
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" '
             'width="%d" height="%d">' % (width, height),
             '<line x1="%d" y1="60" x2="%d" y2="60" '
             'stroke="black" stroke-width="1"/>' % (pad, width - pad)]
    for w in words:
        mat = rho(lam, w)
        a, b = mat * ends[0], mat * ends[1]
        lo, hi = sorted((chart(a), chart(b)))
        x1 = pad + (lo + 1) / 2 * (width - 2 * pad)
        x2 = pad + (hi + 1) / 2 * (width - 2 * pad)
        parts.append('<g><title>%s: %s,%s to %s,%s</title>'
                     '<line x1="%.3f" y1="60" x2="%.3f" y2="60" '
                     'stroke="white" stroke-width="5"/></g>'
                     % (w, a.x, a.y, b.x, b.y, x1, x2))
    parts.append('</svg>')
    return '\n'.join(parts) + '\n'


@pytest.mark.parametrize('lam', ['3', '5/2', '7/3', 'sqrt(5)', '2*sqrt(2)'])
def test_limit_set_shears_match_a_matrix_per_word(lam):
    lam = parse_quad(lam)
    for depth in range(6):
        assert cli._limit_set_svg(lam, depth) == \
            _limit_set_svg_by_matrices(lam, depth), depth


@pytest.mark.parametrize('depth', ['40', '100000'])
@pytest.mark.parametrize('spelling', ['flag', 'env'])
def test_render_budget_refuses_a_limit_set_before_building_it(
        capsys, monkeypatch, spelling, depth):
    # 2*3^40 - 1 words: without a budget this ran until it was killed; the
    # count stops once it passes the budget, so a depth whose word count
    # has tens of thousands of digits is refused as fast
    budget = ['--budget', '1000']
    if spelling == 'env':
        monkeypatch.setenv('RIBBONFLOW_BUDGET', '1000')
        budget = []
    start = time.perf_counter()
    code = main(['render', '--style', 'limitset', '--lambda', '5/2',
                 '--depth', depth, *budget])
    assert time.perf_counter() - start < 5
    assert code == EXIT_BUDGET
    assert capsys.readouterr() == ('', (
        'budget exhausted: the limit set to --depth %s has more than 1000 '
        'words\n' % depth))


@pytest.mark.parametrize('argv, shapes', [
    (['--style', 'limitset', '--lambda', '5/2', '--depth', '5'], '<title>'),
    (['--family', 'ntree_horo:n=3,s=1/2', '--depth', '6'], '<rect'),
], ids=['limitset', 'surface'])
def test_render_budget_counts_every_shape_drawn(capsys, argv, shapes):
    # a budget of exactly the shapes drawn, or 0, leaves the bytes as they
    # are; one less exits 3 with one line and no output
    code, svg = run(capsys, ['render', *argv])
    assert code == EXIT_OK
    n = svg.count(shapes)
    assert n > 1
    for budget in (0, n, n + 1):
        assert run(capsys, ['render', *argv, '--budget', str(budget)]) == \
            (EXIT_OK, svg)
    assert main(['render', *argv, '--budget', str(n - 1)]) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == '' and err.count('\n') == 1
    assert err.startswith('budget exhausted: ')
    assert main(['render', *argv, '--budget', '-1']) == EXIT_PARSE
    assert capsys.readouterr().err.count('\n') == 1


def test_render_budget_stops_a_surface_within_its_ring(capsys):
    # ntree_horo at depth 16 took 11 s to lay out: the budget stops it at
    # the rectangle that would pass it
    start = time.perf_counter()
    code = main(['render', '--family', 'ntree_horo:n=3,s=1/2', '--depth',
                 '16', '--budget', '200'])
    assert time.perf_counter() - start < 10
    assert code == EXIT_BUDGET
    assert capsys.readouterr() == ('', (
        'budget exhausted: ring 10 of --depth 16 places more than 200 '
        'rectangles\n'))


def test_render_limit_set_needs_hyperbolic_lambda(capsys):
    for lam in ('2', '-3', '1+sqrt(2)'):
        assert main(['render', '--style', 'limitset', '--lambda', lam,
                     '--depth', '2']) == EXIT_PARSE
        assert capsys.readouterr().err == (
            'error: limit-set render needs lambda > 2 with lambda^2 - 4 '
            'rational\n')
    # sqrt(5) is irrational, but lambda^2 - 4 = 1 is not
    assert main(['render', '--style', 'limitset', '--lambda', 'sqrt(5)',
                 '--depth', '2']) == EXIT_OK
    assert '<svg' in capsys.readouterr().out


@pytest.mark.parametrize('argv', [
    ['render', '--style', 'surface', '--family',
     'gz_exponential:t=1' + '0' * 200, '--depth', '2'],
    # lambda = t + 1/t with t = 10^200, so lambda^2 - 4 is a square
    ['render', '--style', 'limitset', '--lambda',
     '%d/%d' % (10 ** 400 + 1, 10 ** 200), '--depth', '2'],
])
def test_render_refuses_coordinates_beyond_the_float_range(capsys, argv):
    # the drawing rounds exact coordinates, and used to end in an
    # OverflowError traceback with exit 1
    assert main(argv) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ''
    assert err == ('error: the drawing at --depth 2 has coordinates '
                   'beyond the float range\n')


@pytest.mark.parametrize('argv', [
    ['omega', '--n', '2', '--alpha', '-1/2+sqrt(2)'],
    ['shrink', '--lambda', '2', '--theta', '-1,1+sqrt(2)', '--depth', '4'],
    ['render', '--style', 'limitset', '--lambda', '-sqrt(5)'],
    ['simulate', '--group', 'Z', '--generators', '(1,-1)', '--alpha',
     '-1/2*sqrt(2)', '--steps', '4'],
], ids=['omega', 'shrink', 'render', 'simulate'])
def test_negative_literals_read_as_flag_values(capsys, argv):
    i = next(i for i, tok in enumerate(argv) if tok.startswith('-')
             and not tok.startswith('--'))
    joined = argv[:i - 1] + [argv[i - 1] + '=' + argv[i]] + argv[i + 1:]
    spaced = (main(argv), *capsys.readouterr())
    assert spaced == (main(joined), *capsys.readouterr())
    assert 'expected one argument' not in spaced[2]


def run_module(argv):
    """The CLI in a fresh interpreter, stopped after 30 s, so an input
    that makes it loop fails the test instead of stalling the suite."""
    src = str(Path(__file__).resolve().parents[1] / 'src')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get('PYTHONPATH')])))
    return subprocess.run([sys.executable, *argv], env=env, timeout=30,
                          capture_output=True, text=True)


@pytest.mark.parametrize('argv', [
    ['eigen', '--family', 'gz_constant', '--window', '-1'],
    ['survivor', *GZ_PAIR, '--window', '-1'],
    ['decay', *GZ_PAIR, '--depth', '-1', '--window', '0'],
    ['simulate', '--family', 'gz_constant', '--theta', '1, -1+sqrt(2)',
     '--steps', '-1'],
])
def test_negative_sizes_exit_two(argv):
    proc = run_module(['-m', 'ribbonflow.cli', *argv])
    assert proc.returncode == EXIT_PARSE
    assert 'Traceback' not in proc.stderr
    assert 'integer >= 0' in proc.stderr.splitlines()[-1]


def test_huge_radicand_exits_at_once():
    proc = run_module(['-c', 'from ribbonflow.exact import parse_quad; '
                       "parse_quad('sqrt(100000000000000000039)')"])
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith('ValueError: ')
    assert '10^18' in proc.stderr.splitlines()[-1]
    proc = run_module(['-m', 'ribbonflow.cli', 'shrink', '--lambda', '2',
                       '--theta', '1, sqrt(1000000000000000000117)'])
    assert proc.returncode == EXIT_PARSE
    assert proc.stderr.count('\n') == 1 and '10^18' in proc.stderr


@pytest.mark.parametrize('argv', [
    ['shrink', '--lambda', '2', '--theta', '1/0, 1', '--depth', '3'],
    ['shrink', '--lambda', '1/0', '--theta', '1, -1+sqrt(2)', '--depth', '3'],
    ['omega', '--n', '2', '--alpha', '1/0'],
    ['growth', '--family', 'tripod:t=1/0', '--depth', '2'],
    ['eigen', '--family', 'gz_exponential:t=1/0', '--window', '2'],
])
def test_zero_denominator_exits_two(argv):
    proc = run_module(['-m', 'ribbonflow.cli', *argv])
    assert proc.returncode == EXIT_PARSE
    assert proc.stderr == "error: zero denominator in '1/0'\n"


def test_ball_rejects_negative_radius():
    proc = run_module(['-c', 'from ribbonflow.graphs import PathGraph, '
                       'vertices_in_ball; vertices_in_ball(PathGraph(), 0, '
                       '-1)'])
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == \
        'ValueError: radius must be >= 0, got -1'


def test_missing_group_parameter_names_it(capsys):
    code = main(['simulate', '--group', 'Z^d', '--generators',
                 '((1,0),(-1,0))', '--alpha', '1/2*sqrt(2)'])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err == "error: group Z^d needs parameter 'd'\n"


def test_non_integer_valence_exits_two(capsys):
    code = main(['growth', '--family', 'ntree_constant:n=5/2'])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.count('\n') == 1 and 'valence' in err and '5/2' in err


@pytest.mark.parametrize('spec', [
    ['ntree_horo:s=1/2', '--n', 'x'], ['ntree_horo:n=x,s=1/2']])
def test_horofunction_valence_is_checked_before_use(capsys, spec):
    # a junk valence used to end in a TypeError traceback with exit 1
    code = main(['eigen', '--family', *spec, '--window', '1'])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == ('error: valence must be an integer '
                                       '>= 2, got x\n')


@pytest.mark.parametrize('argv', [
    ['growth', '--family', 'character', '--group', 'Z', '--chi', '4'],
    ['simulate', '--group', 'Z', '--alpha', '1/2*sqrt(2)'],
])
def test_generators_must_be_a_tuple(capsys, argv):
    code = main(argv + ['--generators', '5'])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert 'argument --generators' in err.splitlines()[-1]


@pytest.mark.parametrize('argv, element', [
    (['--group', 'Z^d', '--d', '2', '--generators', '[(1,0,5), (-1,0,-5)]'],
     '(1, 0, 5) is not an element of IntegerLattice(d=2)'),
    (['--group', 'heisenberg', '--generators', '[1, -1]'],
     '1 is not an element of Heisenberg()'),
    (['--group', 'free', '--k', '1', '--generators', '[(2,), (-2,)]'],
     '(2,) is not an element of FreeGroup(k=1)'),
], ids=['lattice-rank', 'heisenberg-int', 'free-letter'])
@pytest.mark.parametrize('mode', ['exact', 'float'])
def test_generators_outside_the_group_exit_two(capsys, argv, element, mode):
    # the lattice orbit used to be truncated by zip and exit 0; the
    # heisenberg one exited 2 naming no element
    code = main(['simulate', *argv, '--alpha', '1/2*sqrt(2)', '--steps', '3',
                 '--mode', mode])
    out, err = capsys.readouterr()
    assert code == EXIT_PARSE and out == ''
    assert err == 'error: %s\n' % element


def test_character_generators_outside_the_group_exit_two(capsys):
    code = main(['eigen', '--family', 'character', '--group', 'Z^d', '--d',
                 '2', '--generators', '((1,0,5),(-1,0,-5))', '--chi',
                 '(1,1)'])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == \
        'error: (1, 0, 5) is not an element of IntegerLattice(d=2)\n'


@pytest.mark.parametrize('argv, code', [
    (['omega', '--n', '2', '--alpha', '1/2*sqrt(2)'], EXIT_OK),
    (['omega', '--n', '2', '--alpha', 'sqrt(-2)'], EXIT_PARSE),
    (['simulate', '--group', 'Z', '--generators', '(1,1)', '--alpha',
      '1/2*sqrt(2)', '--steps', '50', '--budget', '3'], EXIT_BUDGET),
    (['survivor', '--family', 'gz_constant', '--family2',
      'gz_exponential:t=2', '--theta', '1, 1', '--theta2', '1, 2'],
     EXIT_NOT_RENORM),
], ids=['0', '2', '3', '4'])
def test_each_documented_exit_code(capsys, argv, code):
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        assert err == '' and out
    else:
        assert err.count('\n') == 1 and 'Traceback' not in err


@pytest.mark.parametrize('argv, code, line', [
    (['--n', '2', '--alpha', '1/3+sqrt(2)', '--depth', '4'], EXIT_BUDGET,
     'undetermined: budget exhausted at --depth 4'),
    (['--n', '3', '--alpha', '5/6+1/6*sqrt(5)'], EXIT_NOT_RENORM,
     'not-in-omega: excluded tail h^-1 v'),
    (['--n', '2', '--alpha', '1/3'], EXIT_NOT_RENORM,
     'not-in-omega: alpha is rational'),
], ids=['undetermined', 'excluded-tail', 'rational'])
def test_omega_verdicts_give_their_reason_on_stderr(capsys, argv, code,
                                                    line):
    # stderr used to be empty; the reason is also the table's reason cell
    assert main(['omega', *argv]) == code
    out, err = capsys.readouterr()
    assert err == line + '\n'
    kind, reason = csv_body(out)[1][0][:2]
    assert line.startswith('%s: %s' % (kind, reason))


@pytest.mark.parametrize('argv', [
    ['omega', '--n', '2', '--alpha', '1/2*sqrt(2)'],
    ['render', '--style', 'limitset', '--lambda', '3', '--depth', '1'],
], ids=['table', 'svg'])
def test_unwritable_out_exits_two(tmp_path, capsys, argv):
    # the OSError of --out used to end in a traceback with exit 1
    for out, reason in ((tmp_path / 'missing' / 'x.csv',
                         'No such file or directory'),
                        (tmp_path, 'Is a directory')):
        assert main(argv + ['--out', str(out)]) == EXIT_PARSE
        assert capsys.readouterr() == ('', 'error: cannot write --out %s: '
                                       '%s\n' % (out, reason))


SURFACE_ORBIT = ['simulate', '--family', 'gz_constant', '--theta',
                 '1, -1+sqrt(2)', '--steps', '3']


@pytest.mark.parametrize('argv, flag', [
    (SURFACE_ORBIT + ['--mode', 'float'], '--family reads no --mode'),
    (SURFACE_ORBIT + ['--alpha', '1/2*sqrt(2)'], '--family reads no --alpha'),
    (SKEW_Z + ['--family', 'gz_constant'], "character family's group "
                                           "inline"),
    (SKEW_Z + ['--theta', '1, 2'], '--group reads no --theta'),
    (SKEW_Z + ['--branch', 'left'], '--group reads no --branch'),
    (['simulate', '--group', '', '--generators', '(1,-1)', '--alpha',
      '1/2*sqrt(2)'], "not a literal: ''"),
], ids=['family-mode', 'family-alpha', 'group-family', 'group-theta',
        'group-branch', 'empty-group'])
def test_simulate_refuses_flags_its_mode_does_not_read(capsys, argv, flag):
    # each of these used to exit 0, the flag ignored
    assert main(argv) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == '' and err.count('\n') == 1 and flag in err


def test_internal_errors_keep_their_traceback(monkeypatch):
    # only domain errors map to exit 2; a bug in a handler propagates
    def broken(args):
        raise KeyError('not a domain error')

    monkeypatch.setattr(cli, 'cmd_omega', broken)
    cli._parser.cache_clear()
    try:
        with pytest.raises(KeyError, match='not a domain error'):
            main(['omega', '--n', '2', '--alpha', '1/2*sqrt(2)'])
    finally:
        cli._parser.cache_clear()
    proc = run_module(['-c', 'import sys; from ribbonflow import cli; '
                       'cli.cmd_omega = lambda args: {}["x"]; '
                       "sys.exit(cli.main(['omega', '--n', '2', "
                       "'--alpha', '1/2*sqrt(2)']))"])
    assert proc.returncode == 1
    assert proc.stderr.startswith('Traceback')
    assert proc.stderr.splitlines()[-1] == "KeyError: 'x'"


def readme_commands():
    """(argv, documented exit code) for every ribbonflow line of the sh
    blocks in the README's CLI section."""
    readme = Path(__file__).resolve().parents[1] / 'README.md'
    section = readme.read_text().split('\n## CLI\n', 1)[1]
    section = section.split('\n## ', 1)[0]
    commands = []
    for block in re.findall(r'```sh\n(.*?)```', section, re.S):
        for line in block.replace('\\\n', ' ').splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ['ribbonflow']:
                documented = re.search(r'#.*\bexit (\d+)', line)
                commands.append((argv[1:], int(documented.group(1))
                                 if documented else EXIT_OK))
    return commands


def test_readme_examples_rerun_byte_identical(tmp_path, capsys):
    commands = readme_commands()
    assert len(commands) >= 12
    assert [code for _, code in commands].count(EXIT_NOT_RENORM) == 1
    for argv, documented in commands:
        outputs = []
        for run_index in range(2):
            argv_run = list(argv)
            out = None
            if '--out' in argv_run:
                i = argv_run.index('--out') + 1
                out = tmp_path / ('%d-%s' % (run_index, argv_run[i]))
                argv_run[i] = str(out)
            code = main(argv_run)
            captured = capsys.readouterr()
            assert code == documented, (argv, captured.err)
            outputs.append(out.read_bytes() if out else
                           captured.out.encode())
        assert outputs[0] and outputs[0] == outputs[1], argv
