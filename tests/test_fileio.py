import pytest
from hypothesis import given, settings, strategies as st

from distseq import fileio
from distseq.automata import MealyAutomaton, PartialSemiautomaton
from distseq.extremal import fig1_automaton, sokolovskii_instance


def test_mealy_round_trip(tmp_path):
    aut = fig1_automaton(5)
    path = tmp_path / "a.maut"
    fileio.dump(aut, path)
    assert fileio.load(path) == aut


def test_psemi_round_trip(tmp_path):
    semi = sokolovskii_instance(4, 2).semiautomaton
    path = tmp_path / "a.psemi"
    fileio.dump(semi, path)
    assert fileio.load(path) == semi


def test_comments_and_blank_lines():
    text = "# header comment\nmealy 1 1 1  # trailing\n\n0 0 0 0\n"
    aut = fileio.loads(text)
    assert isinstance(aut, MealyAutomaton)
    assert aut.nxt == ((0,),)


def test_partial_cells_stay_undefined():
    semi = fileio.loads("psemi 2 2\n0 0 1\n1 1 0\n")
    assert semi.nxt == ((1, None), (None, 0))
    assert not semi.is_complete()


def test_duplicate_pair_reports_line():
    with pytest.raises(fileio.FormatError, match="line 3"):
        fileio.loads("mealy 1 1 1\n0 0 0 0\n0 0 0 0\n")


def test_missing_cell():
    with pytest.raises(fileio.FormatError, match="missing"):
        fileio.loads("mealy 2 1 1\n0 0 1 0\n")


def test_bad_field_count():
    with pytest.raises(fileio.FormatError, match="line 2"):
        fileio.loads("psemi 2 1\n0 0\n")


def test_unknown_header():
    with pytest.raises(fileio.FormatError, match="unknown"):
        fileio.loads("moore 2 1\n")


def test_out_of_range_target():
    with pytest.raises(fileio.FormatError):
        fileio.loads("psemi 2 1\n0 0 7\n")


def test_non_integer_header():
    with pytest.raises(fileio.FormatError, match="line 2: non-integer"):
        fileio.loads("# comment\nmealy x 2 2\n")


def test_out_of_range_mealy_target_reports_line():
    with pytest.raises(fileio.FormatError, match="line 3: target state 5"):
        fileio.loads("mealy 2 1 1\n0 0 1 0\n1 0 5 0\n")


def test_out_of_range_output_reports_line():
    with pytest.raises(fileio.FormatError, match="line 4: output 7"):
        fileio.loads("mealy 2 1 2\n0 0 1 0\n\n1 0 0 7\n")


def test_out_of_range_psemi_target_reports_line():
    with pytest.raises(fileio.FormatError, match="line 3: target state 9"):
        fileio.loads("psemi 2 1\n0 0 1\n1 0 9\n")


def test_missing_cell_names_header_line():
    with pytest.raises(fileio.FormatError, match="line 2: missing"):
        fileio.loads("# comment\nmealy 2 1 1\n0 0 1 0\n")


def tables(n, a, cell):
    return st.tuples(*[st.tuples(*[cell] * a)] * n)


@st.composite
def automata(draw):
    n, a, b = (draw(st.integers(1, 4)) for _ in range(3))
    if draw(st.booleans()):
        return MealyAutomaton(n, a, b, draw(tables(n, a, st.integers(0, n - 1))),
                              draw(tables(n, a, st.integers(0, b - 1))))
    return PartialSemiautomaton(
        n, a, draw(tables(n, a, st.none() | st.integers(0, n - 1))))


@settings(max_examples=100, deadline=None)
@given(automata())
def test_dumps_loads_round_trip(aut):
    assert fileio.loads(fileio.dumps(aut)) == aut
