import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from distseq import fileio, semigroup
from distseq.cli import dispatch


def lines_of(capsys):
    return capsys.readouterr().out.strip().split("\n")


def value_of(lines, key):
    for line in lines:
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise KeyError(key)


@pytest.fixture
def fig1_file(tmp_path):
    path = str(tmp_path / "fig1_n4.maut")
    assert dispatch(["extremal", "fig1", "--n", "4", "--out", path]) == 0
    return path


class TestPds:
    def test_pair_found(self, fig1_file, capsys):
        capsys.readouterr()
        code = dispatch(["pds", "--file", fig1_file, "--subset", "0,1"])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "status") == "ok"
        assert value_of(out, "result.word") == "1"
        assert value_of(out, "result.length") == "1"

    def test_triple_absent(self, fig1_file, capsys):
        capsys.readouterr()
        code = dispatch(["pds", "--file", fig1_file, "--subset", "0,1,2"])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "status") == "absent"

    def test_missing_file_is_error(self, capsys):
        code = dispatch(["pds", "--file", "/nonexistent.maut", "--subset", "0,1"])
        out = lines_of(capsys)
        assert code == 1
        assert value_of(out, "status") == "error"

    def test_worst_cap_gives_up(self, capsys):
        code = dispatch(["pds-worst", "--states", "3", "--inputs", "2",
                         "--outputs", "2", "--k", "2", "--cap", "100"])
        out = lines_of(capsys)
        assert code == 2
        assert value_of(out, "status") == "gave-up"

    def test_worst_tiny(self, capsys):
        code = dispatch(["pds-worst", "--states", "2", "--inputs", "2",
                         "--outputs", "2", "--k", "2"])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "result.max_length") == "1"

    @pytest.mark.parametrize("inputs, outputs", [("2", "0"), ("-1", "2")])
    def test_worst_rejects_empty_alphabet(self, capsys, inputs, outputs):
        # no automaton has an empty alphabet: an error, not max_length 0
        code = dispatch(["pds-worst", "--states", "3", "--inputs", inputs,
                         "--outputs", outputs, "--k", "2"])
        out = lines_of(capsys)
        assert code == 1
        assert value_of(out, "status") == "error"
        assert value_of(out, "result.message") == \
            "automaton dimensions must be positive"


class TestLandauCommand:
    def test_k5(self, capsys):
        code = dispatch(["landau", "--k", "5"])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "result.value") == "6"
        assert value_of(out, "result.partition") == "2+3"

    def test_json_rendering(self, capsys):
        code = dispatch(["landau", "--k", "5", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["status"] == "ok"
        assert report["result"] == {"value": 6, "partition": "2+3"}

    def test_out_of_range(self, capsys):
        assert dispatch(["landau", "--k", "0"]) == 1

    def test_over_cap_gives_up(self, capsys):
        code = dispatch(["landau", "--k", "201"])
        out = lines_of(capsys)
        assert code == 2
        assert value_of(out, "status") == "gave-up"
        assert value_of(out, "result.message") == \
            "would run the DP to k = 201 (cap 200)"


class TestSemigroupCommands:
    def test_closure(self, capsys):
        code = dispatch(["semigroup", "closure", "--ground", "2",
                         "--maps", "1,0"])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "result.size") == "2"
        assert value_of(out, "result.max_level") == "2"

    @pytest.mark.parametrize("ground,maps,size,max_level,witness", [
        ("4", "1,2,3,0;1,0,2,3", "24", "6", "1,0,3,2"),
        ("5", "1,2,3,4,0;1,0,2,3,4;0,0,2,3,4", "3125", "16", "2,0,1,0,1"),
    ])
    def test_closure_witness(self, capsys, ground, maps, size, max_level,
                             witness):
        code = dispatch(["semigroup", "closure", "--ground", ground,
                         "--maps", maps])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "result.size") == size
        assert value_of(out, "result.max_level") == max_level
        assert value_of(out, "result.witness") == witness

    def test_closure_map_outside_ground_set(self, capsys):
        code = dispatch(["semigroup", "closure", "--ground", "2",
                         "--maps", "1,2"])
        out = lines_of(capsys)
        assert code == 1
        assert value_of(out, "status") == "error"

    def test_worst_t2(self, capsys):
        code = dispatch(["semigroup", "worst", "--ground", "2", "--set", "tn"])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "result.value") == "2"

    @pytest.mark.parametrize("ground", ["-1", "0"])
    @pytest.mark.parametrize("kind", ["tn", "sn"])
    def test_worst_rejects_empty_ground_set(self, capsys, ground, kind):
        code = dispatch(["semigroup", "worst", "--ground", ground,
                         "--set", kind])
        out = lines_of(capsys)
        assert code == 1
        assert value_of(out, "status") == "error"
        assert value_of(out, "result.message") == "--ground must be at least 1"

    @pytest.mark.parametrize("ground,kind,maps", [("6", "tn", 46656),
                                                  ("8", "sn", 40320)])
    def test_worst_gives_up_past_digit_limit(self, capsys, ground, kind, maps):
        # 2^maps - 1 has more digits than Python converts to a string
        code = dispatch(["semigroup", "worst", "--ground", ground,
                         "--set", kind])
        out = lines_of(capsys)
        assert code == 2
        assert value_of(out, "status") == "gave-up"
        assert value_of(out, "result.message") == \
            f"would enumerate 2^{maps} - 1 bases (cap {semigroup.DEFAULT_BASES_CAP})"

    def test_diam_three_cycle(self, capsys):
        code = dispatch(["semigroup", "diam", "--ground", "3",
                         "--maps", "1,2,0"])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "result.value") == "3"

    def test_diam_checks_maps_against_ground(self, capsys):
        code = dispatch(["semigroup", "diam", "--ground", "5",
                         "--maps", "1,0"])
        assert code == 1
        assert value_of(lines_of(capsys), "status") == "error"

    def test_closure_gives_up_at_element_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(semigroup, "DEFAULT_ELEMENT_CAP", 10)
        code = dispatch(["semigroup", "closure", "--ground", "4",
                         "--maps", "1,2,3,0;1,0,2,3"])
        assert code == 2
        assert value_of(lines_of(capsys), "status") == "gave-up"

    def test_diam_rejects_non_bijection(self, capsys):
        assert dispatch(["semigroup", "diam", "--ground", "2",
                         "--maps", "0,0"]) == 1


class TestKgraphCommands:
    def test_build_and_dot(self, tmp_path, capsys):
        dot = str(tmp_path / "g.dot")
        code = dispatch(["kgraph", "build", "--ground", "3", "--k", "2",
                         "--maps", "0,1,2;1,2,0", "--dot", dot])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "result.vertices") == "3"
        assert open(dot).read().startswith("digraph")

    def test_scc(self, capsys):
        code = dispatch(["kgraph", "scc", "--ground", "3", "--k", "2",
                         "--maps", "0,1,2"])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "result.count") == "3"

    def test_compress(self, capsys):
        code = dispatch(["kgraph", "compress", "--ground", "3", "--k", "2",
                         "--maps", "1,2,0", "--start", "0,1",
                         "--walk", "0,0,0"])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "result.original_length") == "3"
        assert value_of(out, "result.eval_domain") == "0,1"

    @pytest.mark.parametrize("argv,message", [
        (["build", "--ground", "3", "--k", "2", "--maps", "1,2,7"],
         "every image must lie in 0..ground-1"),
        (["scc", "--ground", "3", "--k", "2", "--maps", "1,2,7"],
         "every image must lie in 0..ground-1"),
        (["compress", "--ground", "3", "--k", "2", "--maps", "1,2,7",
          "--start", "0,1", "--walk", "0"],
         "every image must lie in 0..ground-1"),
        (["compress", "--ground", "3", "--k", "2", "--maps", "1,2,0",
          "--start", "0,1,2", "--walk", "0"],
         "start (0, 1, 2) is not a vertex (a sorted 2-subset of 0..2)"),
        (["compress", "--ground", "3", "--k", "2", "--maps", "1,2,0",
          "--start", "0,1", "--walk", "0,7"],
         "basis index 7 is not in 0..0"),
    ])
    def test_bad_input_is_error(self, capsys, argv, message):
        # an uncaught KeyError would propagate out of dispatch
        assert dispatch(["kgraph"] + argv) == 1
        out = lines_of(capsys)
        assert value_of(out, "status") == "error"
        assert value_of(out, "result.message") == message

    def test_compress_bad_walk(self, capsys):
        assert dispatch(["kgraph", "compress", "--ground", "3", "--k", "2",
                         "--maps", "0,0,1", "--start", "0,1",
                         "--walk", "0"]) == 1


class TestExtremalAndSyncCommands:
    def test_sokolovskii_verify(self, capsys):
        code = dispatch(["extremal", "sokolovskii", "--n", "4", "--k", "2",
                         "--verify"])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "result.computed") == "3"
        assert value_of(out, "result.bound") == "3"
        assert value_of(out, "result.cycle_characterization") == "True"
        assert value_of(out, "result.state_numbering") == "q1..qn -> 0..n-1"

    def test_psemi_round_trip_through_sync(self, tmp_path, capsys):
        path = str(tmp_path / "sok.psemi")
        assert dispatch(["extremal", "sokolovskii", "--n", "4", "--k", "2",
                         "--out", path]) == 0
        assert fileio.load(path) is not None
        capsys.readouterr()
        code = dispatch(["sync", "careful", "--file", path])
        out = lines_of(capsys)
        # the sink absorbs everything, so a careful word exists
        assert code == 0
        assert value_of(out, "status") == "ok"

    def test_sync_check(self, tmp_path, capsys):
        path = str(tmp_path / "perm.psemi")
        fileio.dump(fileio.loads("psemi 2 1\n0 0 1\n1 0 0\n"), path)
        capsys.readouterr()
        code = dispatch(["sync", "check", "--file", path, "--word", ""])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "result.irreducible") == "True"

    def test_sync_check_symbol_out_of_range(self, tmp_path, capsys):
        # symbol 5 follows a step that is undefined on state 0
        path = str(tmp_path / "partial.psemi")
        fileio.dump(fileio.loads("psemi 2 2\n0 1 0\n1 0 1\n1 1 1\n"), path)
        capsys.readouterr()
        code = dispatch(["sync", "check", "--file", path, "--word", "0,5"])
        out = lines_of(capsys)
        assert code == 1
        assert value_of(out, "status") == "error"

    def test_sync_needs_psemi(self, fig1_file, capsys):
        assert dispatch(["sync", "careful", "--file", fig1_file]) == 1


class TestBoundsCommands:
    def test_row(self, capsys):
        code = dispatch(["bounds", "row", "--n", "3", "--k", "2"])
        out = lines_of(capsys)
        assert code == 0
        assert value_of(out, "result.gill") == "9"
        assert value_of(out, "result.moore") == "2"

    def test_table_csv_byte_identical(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert dispatch(["bounds", "table", "--n-max", "12", "--csv", p1]) == 0
        assert dispatch(["bounds", "table", "--n-max", "12", "--csv", p2]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_repeated_runs_identical_modulo_elapsed(fig1_file, capsys):
    def run():
        dispatch(["pds", "--file", fig1_file, "--subset", "1,3"])
        return [l for l in lines_of(capsys) if not l.startswith("elapsed")]
    assert run() == run()


def test_verify_quick(capsys):
    code = dispatch(["verify", "--level", "quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 8
    assert "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ["bounds", "table", "--n-max", "400"],   # fails while writing
    ["landau", "--k", "5"],                  # fails at the final flush
])
def test_closed_stdout_exits_quietly(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "distseq.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
