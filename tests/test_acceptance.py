"""Acceptance suite: twelve pinned criteria, one pass/fail line each.

Each test prints `criterion NN PASS|FAIL  <label>` before asserting, so a
full run leaves a readable scoreboard in the transcript.  Tolerances and
runtime budgets are pinned in-line; oracle values come from tests/oracles.py
or are frozen from hand derivations spelled out in the assertions.
"""

import json
import random
import time

from ttlam import (
    all_turns,
    detect_inps,
    dual_language,
    eigenray_equivalence,
    eigenray_prefix,
    gates,
    ilt_contraction,
    ilt_count,
    is_legal_turn,
    is_train_track,
    leaf_language,
    leaf_window,
    pf_data,
    periodic_structures,
    singular_leaves,
    transition_matrix,
    two_gates_everywhere,
    uniform_recurrence_check,
    used_turns,
)
from ttlam.cli import run_command
from ttlam.graph import is_reduced, turns_of_path
from ttlam.graph_map import compose
from ttlam.lamination import illegality_profile
from ttlam.spectral import is_primitive
from ttlam.train_track import turn_image

from oracles import bisect_root, brute_force_inps, random_reduced_word, reduced_successors


def _report(num: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d} {status}  {label}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _gate_sets(f):
    name = f.graph.dart_name
    return {frozenset(name(d) for d in m) for m in gates(f).members}


def test_criterion_01_structural_trib(trib):
    t0 = time.perf_counter()
    bad = []
    if not trib.is_expanding:
        bad.append("not expanding")
    if not is_train_track(trib):
        bad.append("not a train track")
    want_gates = {
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
        frozenset({"b~"}),
        frozenset({"a~", "c~"}),
    }
    if _gate_sets(trib) != want_gates:
        bad.append(f"gates {_gate_sets(trib)}")
    if not two_gates_everywhere(trib):
        bad.append("fewer than 2 gates somewhere")
    m = transition_matrix(trib)
    if m.tolist() != [[0, 0, 1], [1, 0, 1], [0, 1, 0]]:
        bad.append(f"matrix {m.tolist()}")
    if not is_primitive(m):
        bad.append("not primitive")
    lam = pf_data(trib).lam
    root = bisect_root(lambda x: x**3 - x - 1, 1.0, 2.0)
    if abs(lam - root) > 1e-9:
        bad.append(f"lambda {lam} vs bisection {root}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        bad.append(f"took {elapsed:.2f}s")
    _report(1, f"structural suite, forward tribonacci ({elapsed:.2f}s)", bad)


def test_criterion_02_structural_trib_inv(trib, trib_inv):
    t0 = time.perf_counter()
    bad = []
    if not is_train_track(trib_inv):
        bad.append("not a train track")
    # gate partition recomputed from the derivative-orbit definition; the
    # merges b~a~, c~b~, a~c~ are forced by Df(a~)=a, Df(b~)=a~, Df(c~)=b~
    want_gates = {
        frozenset({"b", "a~"}),
        frozenset({"c", "b~"}),
        frozenset({"a", "c~"}),
    }
    if _gate_sets(trib_inv) != want_gates:
        bad.append(f"gates {_gate_sets(trib_inv)}")
    # definitional re-check: darts share a gate iff some Df power merges them
    table = trib_inv.derivative_table
    for d1 in range(6):
        for d2 in range(d1 + 1, 6):
            x, y, merged = d1, d2, False
            for _ in range(12):
                if x == y:
                    merged = True
                    break
                x, y = table[x], table[y]
            gt = gates(trib_inv)
            if merged != gt.same_gate(d1, d2):
                bad.append(f"gate mismatch on darts {d1},{d2}")
    # inverse pair: composing in both orders is the identity on generators
    for outer, inner in ((trib, trib_inv), (trib_inv, trib)):
        both = compose(outer, inner)
        for e in range(3):
            if both.edge_image[e] != (2 * e,):
                bad.append(f"composition moved edge {e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        bad.append(f"took {elapsed:.2f}s")
    _report(2, f"structural suite, inverse tribonacci ({elapsed:.2f}s)", bad)


def test_criterion_03_ilt_monotone(all_maps):
    t0 = time.perf_counter()
    bad = []
    rng = random.Random(20240817)
    violations = 0
    for f in all_maps.values():
        g = f.graph
        nexts = reduced_successors(g)
        for _ in range(10_000):
            w = random_reduced_word(g, rng.randrange(2, 201), rng, nexts)
            if ilt_count(f, f.apply(w)) > ilt_count(f, w):
                violations += 1
    if violations:
        bad.append(f"{violations} monotonicity violations")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        bad.append(f"took {elapsed:.2f}s")
    _report(3, f"ILT monotone on 4x10^4 random words ({elapsed:.2f}s)", bad)


def test_criterion_04_used_turn_laws(all_maps, trib, rose3):
    bad = []
    for name, f in all_maps.items():
        used = used_turns(f)
        for t in used:
            if not is_legal_turn(f, t):
                bad.append(f"{name}: used turn {t} illegal")
            if turn_image(f, t) not in used:
                bad.append(f"{name}: used set not closed at {t}")
        if used - set(all_turns(f.graph)):
            bad.append(f"{name}: used turns outside the turn set")
    dname = rose3.dart_name
    used = {tuple(dname(d) for d in t) for t in used_turns(trib)}
    want = {
        ("a", "b~"),
        ("a", "c~"),
        ("a~", "b"),
        ("b", "b~"),
        ("b", "c~"),
        ("b~", "c"),
        ("c", "c~"),
    }
    if used != want:
        bad.append(f"forward tribonacci used set {sorted(used)}")
    _report(4, "used-turn laws, exhaustive over all fixtures", bad)


def test_criterion_05_eigenray_suite(all_maps):
    bad = []
    for name, f in all_maps.items():
        pd = periodic_structures(f)
        gt = gates(f)
        eigen = set(pd.dart_period)
        for v in pd.vertex_period:
            n_gates = len(gt.gates_at(v))
            n_rays = sum(1 for d in eigen if f.graph.origin(d) == v)
            if n_gates != n_rays:
                bad.append(f"{name}: vertex {v} has {n_gates} gates, {n_rays} rays")
        for d in sorted(eigen):
            r512 = eigenray_prefix(f, d, 512)
            for n in (8, 64, 256):
                if r512[:n] != eigenray_prefix(f, d, n):
                    bad.append(f"{name}: prefixes of dart {d} not nested at {n}")
            head = r512[:200]
            for p in range(1, 21):
                if all(head[i] == head[i + p] for i in range(200 - p)):
                    bad.append(f"{name}: ray of dart {d} has word period {p}")
                    break
    _report(5, "eigenrays: counts, nesting to 512, no period <= 20", bad)


def test_criterion_06_inp_suite(fib):
    t0 = time.perf_counter()
    bad = []
    rep = detect_inps(fib)
    if len(rep.inps) < 1:
        bad.append("no INP detected")
    for inp in rep.inps:
        w = inp.path
        for _ in range(inp.period):
            w = fib.apply(w)
        if w != inp.path:
            bad.append(f"INP {inp.path} not exactly periodic")
    def canon(p):
        return min(p, tuple(x ^ 1 for x in reversed(p)))
    # oracle on the rose: every one-illegal-turn path to simplicial length 8
    oracle_rose = brute_force_inps(fib, max_len=8, max_period=4)
    if {canon(p.path) for p in rep.inps} != oracle_rose:
        bad.append(f"rose count {len(rep.inps)} vs oracle {len(oracle_rose)}")
    # oracle on the subdivided graph; the surviving INP crosses 10 subedges,
    # so the exhaustive bound must be at least 10 (12 leaves slack)
    if rep.subdivision is None:
        bad.append("no subdivision produced")
    else:
        oracle_sub = brute_force_inps(rep.subdivision.map, max_len=12, max_period=4)
        got_sub = {canon(p.path) for p in rep.subdivided_inps}
        if got_sub != oracle_sub:
            bad.append(f"subdivided {len(got_sub)} vs oracle {len(oracle_sub)}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        bad.append(f"took {elapsed:.2f}s")
    _report(6, f"INP detection vs exhaustive oracle ({elapsed:.2f}s)", bad)


def test_criterion_07_iwip_certificates(trib, trib_inv, fixture_dir):
    bad = []
    for name, f in (("forward", trib), ("inverse", trib_inv)):
        eq = eigenray_equivalence(f)
        if eq.num_classes != 1:
            bad.append(f"{name}: {eq.num_classes} classes")
    code, text = run_command(["check", str(fixture_dir / "reducible.tt"), "--json"])
    data = json.loads(text)
    if code != 1:
        bad.append(f"reducible check exit {code}")
    if data.get("equivalence_classes", 0) < 2:
        bad.append("reducible did not split into >= 2 classes")
    if not data.get("not_iwip_certificate"):
        bad.append("missing NOT-iwip certificate")
    _report(7, "equivalence classes and NOT-iwip certificate", bad)


def test_criterion_08_singular_suite(trib):
    bad = []
    rep = singular_leaves(trib)
    name = trib.graph.dart_name
    got = {(name(leaf.entry), name(leaf.exit)) for leaf in rep.leaves if not leaf.connector}
    want = {("a", "b"), ("a", "c"), ("b", "c"), ("b~", "c~")}
    if got != want:
        bad.append(f"turn pairs {sorted(got)}")
    used = used_turns(trib)
    for n in (8, 16, 32):
        for leaf in rep.leaves:
            w = leaf_window(trib, leaf, n)
            if not is_reduced(w):
                bad.append(f"window n={n} for {leaf} not reduced")
            if ilt_count(trib, w) > 1:
                bad.append(f"window n={n} for {leaf} has ILT > 1")
            unused = [t for t in turns_of_path(w) if t not in used]
            if len(unused) != 1:
                bad.append(f"window n={n} for {leaf}: {len(unused)} unused turns")
    _report(8, "singular leaves: 4 turn pairs, almost-legal windows", bad)


def test_criterion_09_dual_illegality(trib, trib_inv):
    t0 = time.perf_counter()
    bad = []
    runs = {}
    for n in (8, 16, 32):
        words = sorted(dual_language(trib_inv, n))
        prof = illegality_profile(trib, words)
        runs[n] = prof.max_run
        if prof.max_run > prof.c_illegal:
            bad.append(f"n={n}: max run {prof.max_run} above c={prof.c_illegal}")
        if not prof.all_below:
            bad.append(f"n={n}: profile not below the illegality constant")
    if runs[32] > runs[8]:
        bad.append(f"max run grew with n: {runs}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        bad.append(f"took {elapsed:.2f}s")
    _report(9, f"dual windows totally illegal, runs {runs} ({elapsed:.2f}s)", bad)


def test_criterion_10_contraction(trib, trib_inv, fib, rose2):
    bad = []
    windows = sorted(dual_language(trib_inv, 64))
    for w in windows:
        rep = ilt_contraction(trib, w, steps=30)
        if any(x < y for x, y in zip(rep.series, rep.series[1:])):
            bad.append(f"series increased for a window: {rep.series[:8]}")
            break
        if not rep.reached_le_one or rep.step_reached > 30:
            bad.append(f"window never contracted: {rep.series}")
            break
    inp = rose2.parse_path("a~ b~ a b")
    rep = ilt_contraction(fib, inp, steps=30, chop=0)
    if set(rep.series) != {1}:
        bad.append(f"INP series moved: {rep.series}")
    _report(10, f"contraction of {len(windows)} dual windows + INP word", bad)


def test_criterion_11_recurrence(fib, trib, trib_inv):
    bad = []
    for name, f in (("fibonacci", fib), ("forward", trib), ("inverse", trib_inv)):
        for m in (2, 3, 4):
            rep = uniform_recurrence_check(f, m)
            if not rep.conclusive:
                bad.append(f"{name} m={m} inconclusive")
            elif rep.witness > 25:
                bad.append(f"{name} m={m} witness {rep.witness}")
    _report(11, "uniform recurrence, m in 2..4, witness <= 25", bad)


def test_criterion_12_determinism(fixture_dir):
    bad = []
    fixtures = ["tribonacci.tt", "tribonacci-inv.tt", "fibonacci.tt", "reducible.tt"]
    word = "a b a b a b a b a"
    commands = [
        ["check"],
        ["gates"],
        ["turns"],
        ["pf"],
        ["inps"],
        ["eigenrays", "--length", "16"],
        ["bfh", "--window", "4"],
        ["singular"],
        ["dual", "--window", "4"],
        ["illegality", "--against", str(fixture_dir / "tribonacci.tt"), "--window", "4"],
        ["contract", "--word", word, "--steps", "5"],
    ]
    for fx in fixtures:
        path = str(fixture_dir / fx)
        for cmd in commands:
            argv = [cmd[0], path, *cmd[1:], "--json"]
            code1, out1 = run_command(argv)
            code2, out2 = run_command(argv)
            if (code1, out1) != (code2, out2):
                bad.append(f"{fx} {cmd[0]}: runs differ")
            if out1 and not out1.endswith("\n"):
                bad.append(f"{fx} {cmd[0]}: missing trailing newline")
    _report(12, "byte-identical JSON across repeated runs", bad)
