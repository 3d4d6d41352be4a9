#!/usr/bin/env python3
"""Closed-loop adaptation-stream benchmark: build, run, check, report.

Run from the repository root:

    python3 adaptbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 adaptbench/run.py --all --seed N --seconds S --trace 0|1

The first form builds the harness (adapt_stream.cpp against ../src) into
.bench_build/adaptbench, runs one workload and prints, last, one JSON
line {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. It exits 0 whenever it produced that line; a failed output
check shows as "correct": false. The second form runs every workload
and exits 1 if any output check failed. See README.md beside this file.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join('.bench_build', 'adaptbench')
BINARY = os.path.join(BUILD_DIR, 'adapt_stream')
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print('adaptbench: ' + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build the harness; compiler output goes to stderr."""
    tmp = os.path.abspath(os.path.join(BUILD_DIR, 'tmp'))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds = [['cmake', '--build', BUILD_DIR, '--target', 'adapt_stream',
             '-j', jobs]]
    # Once configured, the build step re-runs CMake itself when a
    # CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD_DIR, 'CMakeCache.txt')):
        cmds.insert(0, ['cmake', '-S', HERE, '-B', BUILD_DIR,
                        '-DCMAKE_BUILD_TYPE=Release'])
    for cmd in cmds:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail('build timed out: ' + ' '.join(cmd))
        if r.returncode != 0:
            fail('build failed: ' + ' '.join(cmd))


def git_sha():
    try:
        r = subprocess.run(['git', 'rev-parse', 'HEAD'], capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return 'unknown'
    return r.stdout.strip() if r.returncode == 0 else 'unknown'


def run_workload(spec, refs, workload, seed, seconds, trace):
    """Run one workload; print its report; return the result object."""
    cmd = [BINARY, '--workload', workload, '--seed', str(seed),
           '--seconds', str(seconds), '--trace', str(trace)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail('%s timed out after %d s' % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail('%s exited with code %d' % (workload, r.returncode))
    for line in lines[:-1]:
        print(line)
    out = json.loads(lines[-1])
    prov = dict(out['provenance'], git_sha=git_sha())
    print('provenance ' + json.dumps(prov, sort_keys=True))

    checks = list(out['checks'])
    bound = {m['name']: m['bound'] for m in spec['end_to_end']}
    variant_refs = refs.get(workload, {}).get(prov['simd'])
    for alg in ('noadapt', 'bnnorm', 'bnopt'):
        name = alg + '_error_pct'
        got = out['metrics'][name]['value']
        if variant_refs is None:
            checks.append({'name': 'error_reference.' + alg, 'ok': False,
                           'detail': 'no reference recorded for simd %s'
                                     % prov['simd']})
            continue
        ref = variant_refs[alg]
        ok = abs(got - ref) <= bound[name] * ref
        checks.append({'name': 'error_reference.' + alg, 'ok': ok,
                       'detail': '%.2f%% vs reference %.2f%% (bound %g)'
                                 % (got, ref, bound[name])})
    for c in checks:
        print('check %-32s %s  %s' % (c['name'], 'ok  ' if c['ok'] else
                                      'FAIL', c['detail']))

    wanted = spec['per_layer'] if trace else spec['end_to_end']
    metrics = {}
    for m in wanted:
        got = out['metrics'].get(m['name'])
        if got is None or got['value'] is None or got['unit'] != m['unit']:
            fail('%s: metric %s missing, non-finite or with another unit'
                 % (workload, m['name']))
        metrics[m['name']] = {'value': got['value'], 'unit': got['unit']}
        print('metric %-40s %14.6g %-10s n=%d'
              % (m['name'], got['value'], got['unit'], got['samples']))

    # Batch failures are counted per batch; every other failed check
    # adds one.
    failed = out['failed_batches'] + sum(
        1 for c in checks
        if not c['ok'] and c['name'] != 'finite_and_repeatable_batches')
    return {'correct': failed == 0, 'attempted': out['attempted'],
            'failed': failed, 'metrics': metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument('--workload')
    which.add_argument('--all', action='store_true')
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=int, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail('--seed must be >= 0 and --seconds >= 1')

    try:
        with open('BENCHMARK.json') as f:
            spec = json.load(f)
        with open(os.path.join(HERE, 'references.json')) as f:
            refs = json.load(f)
    except (OSError, ValueError) as e:
        fail('cannot read the benchmark definition: %s' % e)
    names = [w['name'] for w in spec['workloads']]
    if args.workload is not None and args.workload not in names:
        fail('unknown workload %r (have %s)' % (args.workload,
                                                ', '.join(names)))

    build()
    if args.workload is not None:
        result = run_workload(spec, refs, args.workload, args.seed,
                              args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    all_ok = True
    for name in names:
        print('== ' + name)
        result = run_workload(spec, refs, name, args.seed, args.seconds,
                              args.trace)
        all_ok = all_ok and result['correct']
        print(json.dumps(result))
    return 0 if all_ok else 1


if __name__ == '__main__':
    sys.exit(main())
