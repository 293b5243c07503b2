"""Command line behavior: exit codes, JSON canonicality, error mapping."""

import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ttlam import cli
from ttlam.cli import run_command
from ttlam.errors import (
    BudgetExceededError,
    ConvergenceError,
    GraphError,
    IncompatibleGraphsError,
    MapError,
    NotExpandingError,
    NotPrimitiveError,
    NotTrainTrackError,
    ParseError,
    SubdivisionError,
    TtError,
)
from ttlam.lamination import dual_language, leaf_language
from ttlam.mapfile import MapFile, parse_map_path, serialize_map_file
from ttlam.train_track import require_train_track

from conftest import RECORDED, THREE_VERTEX_TT, demo_env, fixture_argv, positive_rose_maps, train_track_automorphisms


def _run(fixture_dir, *args):
    return run_command([str(a).replace("FIX", str(fixture_dir)) for a in args])


def test_check_pass(fixture_dir):
    code, text = run_command(["check", str(fixture_dir / "tribonacci.tt"), "--json"])
    assert code == 0
    data = json.loads(text)
    assert data["schema"] == 1
    assert data["pass"] is True
    assert data["num_gates"] == 5
    assert data["primitive"] is True
    assert data["train_track"] is True
    assert data["assumptions"] == ["iwip", "atoroidal"]


def test_check_reducible_fails_with_certificate(fixture_dir):
    code, text = run_command(["check", str(fixture_dir / "reducible.tt"), "--json"])
    assert code == 1
    data = json.loads(text)
    assert data["pass"] is False
    assert data["equivalence_classes"] >= 2
    assert data["not_iwip_certificate"]


def test_check_non_expanding_witness(tmp_path):
    bad = tmp_path / "ident.tt"
    bad.write_text(
        "graph ident\nvertex v\nedge a v v\nedge b v v\nmap\na -> a\nb -> b\n"
    )
    code, text = run_command(["check", str(bad), "--json"])
    assert code == 1
    data = json.loads(text)
    assert data["expanding"] is False
    assert data["non_expanding_witness"] == "a"


def test_check_walks_the_expanding_witness_once(monkeypatch, fixture_dir):
    from ttlam.graph_map import GraphSelfMap

    walks = []
    witness = GraphSelfMap.non_expanding_witness
    monkeypatch.setattr(GraphSelfMap, "non_expanding_witness", lambda f: walks.append(f) or witness(f))
    assert run_command(["check", str(fixture_dir / "tribonacci.tt")])[0] == 0
    assert len(walks) == 1


def test_missing_file_is_input_error():
    code, text = run_command(["check", "no-such-file.tt", "--json"])
    assert code == 3
    assert json.loads(text)["kind"] == "input"


def test_bad_syntax_is_input_error(tmp_path):
    bad = tmp_path / "bad.tt"
    bad.write_text("graph g\nvertex v\nedge a v w\n")
    code, text = run_command(["check", str(bad), "--json"])
    assert code == 3
    data = json.loads(text)
    assert "line 3" in data["error"]


def test_unknown_flag_is_input_error(fixture_dir):
    code, _ = run_command(["pf", str(fixture_dir / "tribonacci.tt"), "--bogus"])
    assert code == 3


def test_pf_nonprimitive_is_violation(fixture_dir):
    code, text = run_command(["pf", str(fixture_dir / "reducible.tt"), "--json"])
    assert code == 1
    assert json.loads(text)["primitive"] is False


def test_pf_values(fixture_dir):
    code, text = run_command(["pf", str(fixture_dir / "fibonacci.tt"), "--json"])
    assert code == 0
    data = json.loads(text)
    assert data["charpoly"] == [1, -1, -1]
    assert abs(data["lambda"] - 1.618033988749895) < 1e-9
    assert data["c_illegal"] == 11


def test_inps_fibonacci_single(fixture_dir):
    code, text = run_command(["inps", str(fixture_dir / "fibonacci.tt"), "--json"])
    assert code == 0
    data = json.loads(text)
    assert data["conclusive"] is True
    assert len(data["inps"]) == 1
    assert data["inps"][0]["path"] == "a~ b~ a b"
    assert data["inps"][0]["period"] == 2
    assert data["stability"]["status"] == "fail"


def test_inps_reducible_inconclusive(fixture_dir):
    code, text = run_command(["inps", str(fixture_dir / "reducible.tt"), "--json"])
    assert code == 2
    assert json.loads(text)["conclusive"] is False


def test_dual_requires_inverse_metadata(fixture_dir):
    code, text = run_command(
        ["dual", str(fixture_dir / "tribonacci.tt"), "--window", "4", "--json"]
    )
    assert code == 3
    code2, text2 = run_command(
        [
            "dual",
            str(fixture_dir / "tribonacci.tt"),
            "--window",
            "4",
            "--assume-inverse",
            "--json",
        ]
    )
    assert code2 == 0
    assert "inverse-of (assumed by flag)" in json.loads(text2)["assumptions"]


def test_dual_with_metadata(fixture_dir):
    code, text = run_command(
        ["dual", str(fixture_dir / "tribonacci-inv.tt"), "--window", "8", "--json"]
    )
    assert code == 0
    data = json.loads(text)
    assert data["count"] == 56
    assert data["equals_leaf_language"] is True


def test_illegality_requires_same_graph(fixture_dir):
    code, _ = run_command(
        [
            "illegality",
            str(fixture_dir / "fibonacci.tt"),
            "--against",
            str(fixture_dir / "tribonacci.tt"),
            "--window",
            "4",
            "--json",
        ]
    )
    assert code == 3


def test_illegality_dual_direction(fixture_dir):
    code, text = run_command(
        [
            "illegality",
            str(fixture_dir / "tribonacci-inv.tt"),
            "--against",
            str(fixture_dir / "tribonacci.tt"),
            "--window",
            "16",
            "--json",
        ]
    )
    assert code == 0
    data = json.loads(text)
    assert data["language"] == "dual"
    assert data["all_below"] is True
    assert data["max_run"] <= 4


def test_illegality_refuses_an_inverse_assertion_that_fails(fixture_dir, tmp_path):
    # tribonacci-inv asserts it inverts tribonacci, not itself
    code, text = run_command(
        [
            "illegality",
            str(fixture_dir / "tribonacci-inv.tt"),
            "--against",
            str(fixture_dir / "tribonacci-inv.tt"),
            "--window",
            "5",
            "--json",
        ]
    )
    assert code == 1
    assert "language" not in json.loads(text)
    assert "inverse-of tribonacci" in json.loads(text)["error"]
    # the right name on a map that tribonacci-inv does not invert
    (tmp_path / "ref.tt").write_text(
        "graph tribonacci\nvertex v\nedge a v v\nedge b v v\nedge c v v\n"
        "map\na -> a b\nb -> c\nc -> a\n"
    )
    code, text = run_command(
        [
            "illegality",
            str(fixture_dir / "tribonacci-inv.tt"),
            "--against",
            str(tmp_path / "ref.tt"),
            "--window",
            "5",
            "--json",
        ]
    )
    assert code == 1
    assert json.loads(text)["error"] == "tribonacci . tribonacci-inv is not an inner automorphism"


def test_contract_output(fixture_dir):
    code, text = run_command(
        [
            "contract",
            str(fixture_dir / "fibonacci.tt"),
            "--word",
            "a~ b~ a b",
            "--steps",
            "6",
            "--chop",
            "0",
            "--json",
        ]
    )
    assert code == 0
    data = json.loads(text)
    assert data["series"] == [1] * 7


def test_gates_output_shape(fixture_dir):
    code, text = run_command(["gates", str(fixture_dir / "tribonacci.tt"), "--json"])
    assert code == 0
    data = json.loads(text)
    assert len(data["vertices"]) == 1
    assert len(data["vertices"][0]["gates"]) == 5
    assert len(data["eigen_darts"]) == 5


def test_turns_counts(fixture_dir):
    code, text = run_command(["turns", str(fixture_dir / "tribonacci.tt"), "--json"])
    assert code == 0
    counts = json.loads(text)["counts"]
    assert counts == {"total": 15, "legal": 14, "illegal": 1, "used": 7, "used_illegal": 0}


def test_eigenrays_output(fixture_dir):
    code, text = run_command(
        ["eigenrays", str(fixture_dir / "tribonacci.tt"), "--length", "4", "--json"]
    )
    assert code == 0
    data = json.loads(text)
    rays = {r["dart"]: r["prefix"] for r in data["rays"]}
    assert rays["a"] == "a b b c"


def test_bfh_window(fixture_dir):
    code, text = run_command(
        ["bfh", str(fixture_dir / "fibonacci.tt"), "--window", "2", "--json"]
    )
    assert code == 0
    data = json.loads(text)
    assert data["count"] == 6
    assert "a a" in data["words"]


def test_bfh_not_train_track_is_violation(tmp_path):
    collapsing = tmp_path / "collapse.tt"
    collapsing.write_text(
        "graph collapse\nvertex v\nedge a v v\nedge b v v\nmap\na -> a b\nb -> b~ a~\n"
    )
    # at window 1 no image cancels, so only the train track test can refuse it
    for window in ("8", "1"):
        code, text = run_command(["bfh", str(collapsing), "--window", window, "--json"])
        assert code == 1
        assert json.loads(text)["kind"] == "property"


def test_singular_windows_listed(fixture_dir):
    code, text = run_command(
        ["singular", str(fixture_dir / "tribonacci.tt"), "--window", "6", "--json"]
    )
    assert code == 0
    data = json.loads(text)
    assert len(data["turn_pairs"]) == 4
    assert len(data["windows"]) == 4


def test_json_is_canonical(fixture_dir):
    _, text = run_command(["pf", str(fixture_dir / "tribonacci.tt"), "--json"])
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def test_text_mode_runs(fixture_dir):
    code, text = run_command(["check", str(fixture_dir / "tribonacci.tt")])
    assert code == 0
    assert "schema: 1" in text
    assert "pass: True" in text


REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "bench" / "reference" / "fixtures-cli.json"


def test_fixture_commands_match_reference_reports(fixture_dir):
    # all 44 fixture commands of the benchmark, run one after another through
    # the one per-process parser, against the reports recorded for the
    # benchmark: same exit code, same bytes
    reference = json.loads(REFERENCE.read_text())
    assert len(reference) == 44
    for key in sorted(reference):
        head, flag, word = key.partition(" --word ")  # the word is one argument
        argv = [str(fixture_dir / a) if a.endswith(".tt") else a for a in head.split()]
        argv += [flag.strip(), word] if flag else []
        code, text = run_command(argv + ["--json"])
        assert (code, text) == (reference[key]["exit"], reference[key]["report"]), key


def test_fixture_commands_match_reference_text_reports():
    # the same 44 commands in text mode, against tests/reference/fixtures-text.json
    reference = json.loads((RECORDED / "fixtures-text.json").read_text())
    assert sorted(reference) == sorted(json.loads(REFERENCE.read_text()))
    for key, want in sorted(reference.items()):
        assert run_command(fixture_argv(key)) == (want["exit"], want["report"]), key


# the module-level check of a fresh interpreter, then one after each command
_NUMPY_PROBE = """
import json, sys
from ttlam.cli import run_command
loaded, reports = ["numpy" in sys.modules], []
for argv in json.loads(sys.argv[1]):
    reports.append(run_command(argv + ["--json"]))
    loaded.append("numpy" in sys.modules)
print(json.dumps([loaded, reports]))
"""


def test_numpy_is_loaded_only_to_compute_pf_data():
    # in a fresh interpreter, `import ttlam.cli` and gates, turns, eigenrays
    # and bfh load no numpy; pf does.  Each gives its pinned report
    keys = ["gates tribonacci.tt", "turns tribonacci.tt", "eigenrays tribonacci.tt", "bfh tribonacci.tt --window 5", "pf tribonacci.tt"]
    argvs = json.dumps([fixture_argv(key) for key in keys])
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, argvs], env=demo_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded, reports = json.loads(proc.stdout)
    assert loaded == [False] * 5 + [True]
    reference = json.loads(REFERENCE.read_text())
    assert reports == [[reference[key]["exit"], reference[key]["report"]] for key in keys]


def _floats(report):
    if isinstance(report, float):
        yield report
    elif isinstance(report, (dict, list)):
        for value in report.values() if isinstance(report, dict) else report:
            yield from _floats(value)


def _assert_rounded(text):
    # every float of a report is given to 12 significant digits
    floats = list(_floats(json.loads(text)))
    assert all(x == float(f"{x:.12g}") for x in floats), floats
    return floats


def test_only_pf_reports_hold_floats():
    holding = {key.split()[0] for key in json.loads(REFERENCE.read_text())
               if _assert_rounded(run_command(fixture_argv(key) + ["--json"])[1])}
    assert holding == {"pf"}


@given(positive_rose_maps())
def test_pf_floats_are_rounded(tmp_path_factory, f):
    path = tmp_path_factory.mktemp("pf") / "map.tt"
    path.write_text(serialize_map_file(MapFile("random", f, ())))
    code, text = run_command(["pf", str(path), "--json"])
    assert code == 0
    assert _assert_rounded(text)


def test_derived_data_built_once_per_map(monkeypatch, fixture_dir):
    # each undecorated computation, counted by the map instance (or per-map
    # table) it ran for: gates (one Gates built by `gates`, keyed by the map
    # in its frame), used turns (one turn image per turn they close over),
    # periodic data (one call per table) and the INP search
    import sys

    import ttlam.nielsen as nielsen
    import ttlam.train_track as train_track

    keys = {}
    alive = []  # every argument stays alive, so no id is reused in a command

    def count(module, name, key):
        inner = getattr(module, name)

        def counted(*args):
            alive.append(args)
            keys[name].append(key(*args))
            return inner(*args)

        keys[name] = []
        monkeypatch.setattr(module, name, counted)

    count(train_track, "Gates", lambda *_: id(sys._getframe(2).f_locals["f"]))
    count(train_track, "turn_image", lambda f, t: (id(f), t))
    count(nielsen, "_cycle_periods", lambda step: id(step))
    count(nielsen, "_detect_on", lambda f, *_: id(f))
    for command, computed in (("check", 3), ("singular", 4)):
        for seen in keys.values():
            seen.clear()
        code, _ = run_command([command, str(fixture_dir / "tribonacci.tt"), "--json"])
        assert code == 0
        assert sum(1 for seen in keys.values() if seen) == computed, command
        for name, seen in keys.items():
            assert len(seen) == len(set(seen)), (command, name)


def test_derived_data_lives_on_the_map(fixture_dir):
    import gc
    import weakref

    from ttlam import gates, periodic_structures, transition_matrix, used_turns
    from ttlam.train_track import used_illegal_turns

    f = parse_map_path(str(fixture_dir / "tribonacci.tt")).map
    for compute in (gates, used_turns, used_illegal_turns, periodic_structures, transition_matrix):
        assert compute(f) is compute(f)
    # every caller shares the one matrix, so none may write to it
    with pytest.raises(ValueError, match="read-only"):
        transition_matrix(f)[0, 0] = 7
    # no cache outside the map keeps it alive
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_eigenrays_refuse_a_map_that_is_no_train_track_map(tmp_path):
    # a -> b, b -> a~ b~ is no train track map, and [f^3] fixes each of its
    # Df-periodic darts: every command that reads the lamination, eigenrays
    # included, refuses it with the same property error
    mf = tmp_path / "stall.tt"
    mf.write_text("graph stall\nvertex v\nedge a v v\nedge b v v\nmap\na -> b\nb -> a~ b~\n")
    reports = {}
    for argv in (
        ["eigenrays"],
        ["bfh", "--window", "3"],
        ["inps"],
        ["singular"],
        ["dual", "--window", "3", "--assume-inverse"],
        ["contract", "--word", "a b a b"],
    ):
        code, text = run_command([argv[0], str(mf), *argv[1:], "--json"])
        reports[argv[0]] = json.loads(text)
        assert (code, reports[argv[0]]["kind"]) == (1, "property"), argv
    assert reports["eigenrays"] == {
        "error": "used turns are degenerate under Df iterates: (a, b~)",
        "kind": "property",
        "schema": 1,
    }


def _non_train_track_map(tmp_path):
    mf = tmp_path / "nontt.tt"
    mf.write_text("graph nt\nvertex v\nedge a v v\nedge b v v\nmap\na -> a b\nb -> b~ a\n")
    return mf


def test_turns_of_a_non_train_track_map(tmp_path):
    # the closure of the used turns under Df reaches the degenerate turns
    # (a~, a~) and (b~, b~); the command neither raises nor counts them,
    # so its counts agree with the rows it lists
    mf = _non_train_track_map(tmp_path)
    code, text = run_command(["turns", str(mf), "--json"])
    assert code == 0
    data = json.loads(text)
    rows, counts = data["turns"], data["counts"]
    assert counts["total"] == len(rows)
    assert counts["legal"] == sum(r["legal"] for r in rows)
    assert counts["used"] == sum(r["used"] for r in rows)
    assert counts["used_illegal"] == sum(r["used"] and not r["legal"] for r in rows)
    assert (counts["total"], counts["legal"], counts["used"], counts["used_illegal"]) == (6, 5, 4, 1)


def test_check_of_a_non_train_track_map_lists_used_illegal_rows(tmp_path):
    # `check` lists exactly the used and illegal rows of `turns`: the
    # degenerate turns (a~, a~) and (b~, b~) that Df reaches are no used turns
    mf = _non_train_track_map(tmp_path)
    _, text = run_command(["turns", str(mf), "--json"])
    rows = json.loads(text)["turns"]
    _, text = run_command(["check", str(mf), "--json"])
    data = json.loads(text)
    assert data["train_track"] is False
    assert data["used_illegal"] == [r["turn"] for r in rows if r["used"] and not r["legal"]]
    assert data["used_illegal"] == [["a~", "b"]]
    with pytest.raises(NotTrainTrackError, match=r"^used turns are degenerate under Df iterates: \(a~, b\)$"):
        require_train_track(parse_map_path(str(mf)).map)


@pytest.mark.parametrize("image", ["a", "a~"])
def test_non_expanding_primitive_map_is_violation(tmp_path, image):
    # M = (1) is primitive but the map never expands: every command that
    # needs expansion exits 1 with a property error, none crashes or runs
    # into a search cap
    mf = tmp_path / "rank1.tt"
    mf.write_text(f"graph rank1\nvertex v\nedge a v v\nmap\na -> {image}\n")
    commands = (["inps"], ["singular"], ["contract", "--word", "a"], ["eigenrays"], ["bfh", "--window", "2"])
    for argv in commands:
        code, text = run_command([argv[0], str(mf)] + argv[1:] + ["--json"])
        data = json.loads(text)
        assert (code, data["kind"]) == (1, "property"), argv
        assert "never grow" in data["error"]


def _input_error(fixture_dir, *args):
    code, text = _run(fixture_dir, *args, "--json")
    assert code == 3
    data = json.loads(text)
    assert data["kind"] == "input"
    return data["error"]


def test_contract_rejects_negative_chop(fixture_dir):
    # a slice w[-1:len(w)+1] would keep only the last dart of every image
    error = _input_error(
        fixture_dir, "contract", "FIX/tribonacci.tt", "--word", "a b c", "--chop", "-1", "--steps", "3"
    )
    assert error == "boundary trim must be >= 0"


def test_contract_rejects_negative_steps(fixture_dir):
    error = _input_error(fixture_dir, "contract", "FIX/tribonacci.tt", "--word", "a b c a b", "--steps", "-1")
    assert error == "step count must be >= 0"


def test_contract_of_a_non_train_track_map_is_violation(tmp_path):
    # without the train track property the series may grow: this map gave
    # 12, 33, 86, 183, 492 and exit 0
    mf = tmp_path / "nontt3.tt"
    mf.write_text(
        "graph nt3\nvertex v\nedge a v v\nedge b v v\nedge c v v\nmap\n"
        "a -> b~ c~ b~\nb -> c~ a~\nc -> c a c~\n"
    )
    code, text = run_command(["contract", str(mf), "--word", " ".join(["a b"] * 12), "--steps", "4", "--json"])
    assert (code, json.loads(text)["kind"]) == (1, "property")


def test_contract_rejects_a_word_that_is_not_an_edge_path(tmp_path):
    # e0 ends at v1, where e0 does not start: the word has no image to count
    mf = tmp_path / "chain.tt"
    mf.write_text(THREE_VERTEX_TT)
    argv = ["contract", str(mf), "--word", "e0 e0", "--steps", "3", "--chop", "0", "--json"]
    assert run_command(argv) == (3, '{"error":"word is not an edge path","kind":"input","schema":1}\n')


@pytest.mark.parametrize("length", ["0", "-3"])
def test_eigenrays_rejects_empty_length(fixture_dir, length):
    error = _input_error(fixture_dir, "eigenrays", "FIX/tribonacci.tt", "--length", length)
    assert error == "prefix length must be >= 1"


@pytest.mark.parametrize("window", ["0", "-2"])
def test_singular_rejects_empty_window(fixture_dir, window):
    # tribonacci-inv has no singular leaf, so no window reaches the library
    for name in ("tribonacci", "tribonacci-inv", "fibonacci", "reducible"):
        error = _input_error(fixture_dir, "singular", f"FIX/{name}.tt", "--window", window)
        assert error == "prefix length must be >= 1", name


@pytest.mark.parametrize("bound", ["0", "-1", "nan", "inf"])
def test_inps_rejects_unusable_max_pf_len(fixture_dir, bound):
    # nan and inf used to crash while sizing the window; 0 and -1 were
    # silently replaced by the smallest window
    error = _input_error(fixture_dir, "inps", "FIX/fibonacci.tt", "--max-pf-len", bound)
    assert error == "max_pf_len must be > 0 and finite"


# the README's exit codes: 1 a property violation, 2 inconclusive, 3 bad input
ERROR_EXITS = [
    (TtError, 3, "input"),
    (GraphError, 3, "input"),
    (MapError, 3, "input"),
    (ParseError, 3, "input"),
    (IncompatibleGraphsError, 3, "input"),
    (NotExpandingError, 1, "property"),
    (NotTrainTrackError, 1, "property"),
    (NotPrimitiveError, 1, "property"),
    (SubdivisionError, 1, "property"),
    (ConvergenceError, 2, "inconclusive"),
    (BudgetExceededError, 2, "inconclusive"),
]


def test_every_error_class_has_an_exit():
    assert set(TtError.__subclasses__()) | {TtError} == {error for error, _, _ in ERROR_EXITS}


@pytest.mark.parametrize("error, exit_code, kind", ERROR_EXITS)
def test_error_kind_sets_the_exit_code(monkeypatch, fixture_dir, error, exit_code, kind):
    def fail(f):
        raise error("stopped")

    monkeypatch.setattr(cli, "gates", fail)
    argv = ["gates", str(fixture_dir / "fibonacci.tt")]
    assert run_command(argv) == (exit_code, f"schema: 1\nerror: stopped\nkind: {kind}\n")
    assert run_command(argv + ["--json"]) == (exit_code, f'{{"error":"stopped","kind":"{kind}","schema":1}}\n')


@settings(max_examples=20)
@given(st.one_of(
    positive_rose_maps(),
    st.builds(lambda seed: train_track_automorphisms(3, 1, seed)[0], st.integers(0, 10**6)),
))
def test_language_reports_name_the_library_words(tmp_path_factory, f):
    # bfh and dual name their words from coded strings; the names must be
    # the library's words through Graph.path_str, sorted, in both formats.
    # The signed automorphisms have backward darts, named with "~"
    path = tmp_path_factory.mktemp("words") / "map.tt"
    path.write_text(serialize_map_file(MapFile("random", f, ())))
    g = f.graph
    for n in range(1, 7):
        for argv, lang in (
            (["bfh", str(path), "--window", str(n)], leaf_language(f, n)),
            (["dual", str(path), "--window", str(n), "--assume-inverse"], dual_language(f, n)),
        ):
            want = sorted(g.path_str(w) for w in lang)
            code, text = run_command(argv + ["--json"])
            data = json.loads(text)
            assert code == 0 and data["words"] == want
            assert data.get("equals_leaf_language", True) == (lang == leaf_language(f, n))
            code, text = run_command(argv)
            assert code == 0 and f"\nwords: {' '.join(want)}\n" in text


def test_language_reports_build_no_word_as_darts(monkeypatch, fixture_dir):
    # bfh and dual flip and name their words coded: no language is decoded
    # to dart tuples and no word is named as one, which took the time of a
    # bfh report
    import ttlam.lamination as lamination
    from ttlam.graph import Graph

    def per_word(*args):
        raise AssertionError("a word built as a tuple of darts")

    for decoded in ("leaf_language", "singular_language", "dual_language", "leaf_window"):
        monkeypatch.setattr(lamination, decoded, per_word)
    monkeypatch.setattr(Graph, "path_str", per_word)
    for name in ("tribonacci", "fibonacci"):
        path = str(fixture_dir / f"{name}.tt")
        for argv in (["bfh", path, "--window", "6"], ["dual", path, "--window", "6", "--assume-inverse"]):
            code, text = run_command(argv + ["--json"])
            assert code == 0 and json.loads(text)["words"]


# -- argv dispatch -----------------------------------------------------------------

def _argv_corpus(fixture_dir):
    """Each subcommand with all its options, without each one, in the
    --opt=value and abbreviated forms and with bad values, plus argvs that
    name no subcommand."""
    path, other = str(fixture_dir / "tribonacci.tt"), str(fixture_dir / "tribonacci-inv.tt")
    options = {
        "check": [], "gates": [], "turns": [], "pf": [],
        "inps": [["--max-period", "1"], ["--max-pf-len", "3.5"]],
        "eigenrays": [["--length", "8"]],
        "bfh": [["--window", "4"]],
        "singular": [["--window", "4"]],
        "dual": [["--window", "4"], ["--assume-inverse"]],
        "illegality": [["--against", other], ["--window", "4"]],
        "contract": [["--word", "a b~ c"], ["--steps", "2"], ["--chop", "1"]],
    }
    corpus = [[], ["-h"], ["--help"], ["chek", path], ["--json"], ["--", "check", path], [path, "check"]]
    for sub, opts in options.items():
        full = [x for opt in opts for x in opt]
        corpus += [
            [sub], [sub, path], [sub, path, "--json"], [sub, path, *full], [sub, path, *full, "--json"],
            [sub, *full, path], [sub, path, *full, "--bogus"], [sub, path, *full, "extra"],
            [sub, "--json", path, *full], [sub, "--", path, *full], [sub, path, *full, "--js"],
            [sub, path, *full, "-h"],
        ]
        for i, opt in enumerate(opts):
            rest = [x for o in opts[:i] + opts[i + 1 :] for x in o]
            corpus.append([sub, path, *rest])  # without this option
            if len(opt) == 2:
                corpus += [
                    [sub, path, *rest, f"{opt[0]}={opt[1]}"],
                    [sub, path, *rest, opt[0][:5], opt[1]],
                    [sub, path, *rest, opt[0], "x"],
                    [sub, path, *rest, opt[0]],
                ]
    return corpus


def _outcome(argv, capsys):
    try:
        result = run_command(argv)
    except SystemExit as exc:  # help
        result = ("exit", exc.code)
    return result, capsys.readouterr().out


def test_argv_dispatch_matches_the_top_level_parser(monkeypatch, capsys, fixture_dir):
    # every argv gives the (exit code, report), or help, that parsing it all
    # with the top-level parser gives, as it does when no subparser is known
    top = cli._parsers()[0]
    corpus = _argv_corpus(fixture_dir)
    direct = [_outcome(argv, capsys) for argv in corpus]
    monkeypatch.setattr(cli, "_parsers", lambda: (top, {}))
    assert [_outcome(argv, capsys) for argv in corpus] == direct
    codes = {result[0] for result, _ in direct}
    assert {0, 3, "exit"} <= codes


def test_help_texts_are_pinned(monkeypatch, capsys):
    # tests/reference/help.json holds `ttlam -h` and each `ttlam <sub> -h`
    monkeypatch.setenv("COLUMNS", "80")
    helps = json.loads((RECORDED / "help.json").read_text())
    assert len(helps) == 12
    for key, want in helps.items():
        assert _outcome(key.split(), capsys) == (("exit", want["exit"]), want["text"]), key
