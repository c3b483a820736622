"""Command-line front end: parsing, errors, goldens, determinism."""

import io
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cli_demo import DEMO_EXPECTED, DEMO_SCRIPT
from liepar.cli import CommandError, Session, main, parse_central
from liepar import (InfiniteCenterFixedPoints, central_fixed_points,
                    enumerate_X, enumerate_Z, from_type, strong_real_forms,
                    trivial_inner_class)


def run_session(script, verbose=False):
    out = io.StringIO()
    session = Session(out, verbose=verbose)
    session.run(io.StringIO(script))
    return out.getvalue()


def test_demo_script_golden():
    assert run_session(DEMO_SCRIPT) == DEMO_EXPECTED


# root data with more than 256 roots (A16 272, D12 264, B12 288), whose
# root permutations are tuples; frozen from the session before permutations
# were held as bytes
LARGE_SCRIPT = """\
type A16 sc
inner c
dual
inner u
type D12 sc
inner c
dual
type B12 ad
inner c
dual
"""

LARGE_EXPECTED = """\
root datum: A16 sc (rank 16, 136 positive roots)
inner class: diagram permutation 1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16
switched to the dual inner class (rank 16, 136 positive roots)
inner class: diagram permutation 16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1
root datum: D12 sc (rank 12, 132 positive roots)
inner class: diagram permutation 1,2,3,4,5,6,7,8,9,10,11,12
switched to the dual inner class (rank 12, 132 positive roots)
root datum: B12 ad (rank 12, 144 positive roots)
inner class: diagram permutation 1,2,3,4,5,6,7,8,9,10,11,12
switched to the dual inner class (rank 12, 144 positive roots)
"""


def test_large_root_data_replay_their_frozen_transcript():
    assert run_session(LARGE_SCRIPT) == LARGE_EXPECTED


def test_demo_script_deterministic():
    runs = [run_session(DEMO_SCRIPT) for _ in range(4)]
    assert all(r == runs[0] for r in runs)


def test_cmd_file_subprocess(tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text(DEMO_SCRIPT)
    outs = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-m", "liepar.cli", "--cmd-file", str(script)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == DEMO_EXPECTED
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_stdin_batch(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "liepar.cli"],
        input="type A1 sc\ninner c\nX\n",
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "X size: 5" in proc.stdout


def test_a_closed_stdout_ends_the_session_quietly():
    # the reader stops after three lines, long before the output ends:
    # the CLI exits non-zero and writes no traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "liepar.cli"], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdin.write("type C3 ad\ninner c\n" + "block 2\n" * 100)
    proc.stdin.close()
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert head[2] == "74 pairs:\n"
    assert "Traceback" not in err


def test_run_splits_a_string_into_lines():
    out = io.StringIO()
    Session(out).run("type A1 sc\ninner c\nX")
    assert out.getvalue() == run_session("type A1 sc\ninner c\nX\n")
    assert "X size: 5" in out.getvalue() and "error" not in out.getvalue()


def test_verbose_adds_timings():
    out = run_session("type A1 sc\ninner c\n", verbose=True)
    assert out.count("# ") == 2
    assert "root datum" in out


def test_errors_do_not_stop_the_session():
    out = run_session("X\ntype A1 sc\ninner c\nX\n")
    assert out.startswith("error (line 1): no root datum")
    assert "X size: 5" in out


def test_error_line_numbers_accumulate():
    out = run_session("\n\nbogus\n")
    assert "error (line 3" in out


def test_inner_before_type():
    out = run_session("inner c\n")
    assert "no root datum" in out


def test_inner_u_requires_unique_involution():
    out = run_session("type A1 sc\ninner u\n")
    assert "error" in out and "diagram involution" in out
    out2 = run_session("type A3 sc\ninner u\nstrongreal\n")
    assert "diagram permutation 3,2,1" in out2


def test_inner_perm():
    out = run_session("type A2 sc\ninner 2,1\nX\n")
    assert "diagram permutation 2,1" in out
    assert "X size: 4" in out
    out2 = run_session("type A2 sc\ninner 1,2\nX\n")
    assert "diagram permutation 1,2" in out2


def test_inner_perm_on_a_coordinate_permutation():
    # a datum with a central torus takes gamma as the permutation
    # matrix of the coordinates; a permutation that is no involution is
    # an error line
    assert run_session("type A1.A1.T1 ad\ninner 2,1\ncartan\n") == (
        "root datum: A1.A1.T1 ad (rank 3, 2 positive roots)\n"
        "inner class: diagram permutation 2,1\n"
        "1 Cartan classes:\n"
        "cartan 0: tau e, size 2, signature split=0 compact=1 complex=1\n")
    assert run_session("type A1.A1.A1.T1 sc\ninner 2,3,1\n") == (
        "root datum: A1.A1.A1.T1 sc (rank 4, 3 positive roots)\n"
        "error (line 2): no lattice involution realizes this permutation "
        "(gamma is not an involution)\n")
    out = run_session("type A1.A1.T1 matrix\n1,0,0;1,1,0;0,0,1\n"
                      "inner 2,1\n")
    assert out.splitlines()[-1] == (
        "error (line 3): no lattice involution realizes this permutation "
        "(gamma does not permute the simple roots (alpha_0))")


def test_inner_perm_on_a_semisimple_datum_is_solved_for():
    assert run_session("type A3 sc\ninner 2,3,1\ninner 2,1,3\n"
                       "type B2 sc\ninner 2,1\n").splitlines() == [
        "root datum: A3 sc (rank 3, 6 positive roots)",
        "error (line 2): no lattice involution realizes this permutation "
        "(permutation is not an involution)",
        "error (line 3): no lattice involution realizes this permutation "
        "(the permutation does not extend to a lattice involution)",
        "root datum: B2 sc (rank 2, 4 positive roots)",
        "error (line 5): no lattice involution realizes this permutation "
        "(the permutation does not extend to a lattice involution)"]


def test_parse_central():
    ic = trivial_inner_class(from_type("A1", "sc"))
    assert parse_central(ic, "1").entries == (0,)
    assert str(parse_central(ic, "-1").entries[0]) == "1/2"
    assert parse_central(ic, "1/2").entries[0] == \
        parse_central(ic, "-1").entries[0]
    with pytest.raises(CommandError):
        parse_central(ic, "1/3")        # not central
    with pytest.raises(CommandError):
        parse_central(ic, "1/2,1/2")    # wrong rank
    with pytest.raises(CommandError):
        parse_central(ic, "pi")
    ad = trivial_inner_class(from_type("A1", "ad"))
    with pytest.raises(CommandError, match="no central element has order 2"):
        parse_central(ad, "-1")
    d4 = trivial_inner_class(from_type("D4", "sc"))
    with pytest.raises(CommandError, match="ambiguous: 3 central elements"):
        parse_central(d4, "-1")


def test_matrix_mode_identity_is_sc():
    out = run_session("type C2 matrix\n1,0;0,1\ninner c\nX\n")
    assert "rank 2, 4 positive roots" in out
    assert "X size: 17" in out


def test_matrix_mode_rejects_bad_basis():
    out = run_session("type A1 matrix\n0\n")
    assert "singular" in out
    out2 = run_session("type A1 matrix\n1,0\n")
    assert "must be 1x1" in out2
    # root lattice not contained in the span
    out3 = run_session("type A1 matrix\n3\n")
    assert "not contained" in out3


def test_dot_command(tmp_path):
    path = tmp_path / "graph.dot"
    out = run_session(f"type A1 sc\ninner c\ndot X {path}\n")
    assert f"wrote {path}" in out
    text = path.read_text()
    assert text.startswith("digraph") and "->" in text


def test_dot_unwritable_path_is_an_error(tmp_path):
    path = tmp_path / "missing" / "graph.dot"
    out = run_session(f"type A1 sc\ninner c\ndot X {path}\nX\n")
    assert f"error (line 3): cannot write {path}" in out
    assert "X size: 5" in out


def test_threads_option_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_an_unreadable_cmd_file_is_one_error_line(tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"type A1 sc\n\xe9\n")
    missing = tmp_path / "none.txt"
    for path, message in (
            (missing, f"cannot read {missing}: No such file or directory"),
            (tmp_path, f"cannot read {tmp_path}: Is a directory"),
            (latin1, f"{latin1} is not UTF-8 text")):
        assert main(["--cmd-file", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_stdin_that_is_not_utf8_is_one_error_line(monkeypatch, capsys):
    # decoded strictly even where stdin was opened with surrogateescape
    stdin = io.TextIOWrapper(io.BytesIO(b"type A1 sc\n\xe9\n"),
                             encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main([]) == 1
    assert capsys.readouterr() == ("", "error: standard input is not UTF-8 "
                                       "text\n")


def test_a_closed_stdin_is_one_error_line(monkeypatch, capsys):
    # Python sets sys.stdin to None when file descriptor 0 is closed
    monkeypatch.setattr(sys, "stdin", None)
    assert main([]) == 1
    assert capsys.readouterr() == (
        "", "error: cannot read standard input: it is closed\n")


def test_quit_stops():
    out = run_session("type A1 sc\nquit\ntype A2 sc\n")
    assert "A2" not in out


@pytest.mark.parametrize("type_string, inner", [
    ("C2", "c"), ("B3", "c"), ("G2", "c"), ("A3", "u")])
def test_block_rows_are_the_form_slice_of_z(type_string, inner):
    # each block lists the pairs of the whole pair space whose x lies in
    # the form (and whose y has the given square), in pair-space order
    out = io.StringIO()
    session = Session(out)
    session.run(io.StringIO(f"type {type_string} sc\ninner {inner}\n"))
    ic = session.ic
    pairs = enumerate_Z(ic)
    expected, script = [], []
    for form in enumerate_X(ic).forms:
        f, ids = form.index, form.element_ids
        for z in (None,) + central_fixed_points(ic.dual):
            arg = "" if z is None else \
                " " + ",".join(str(a) for a in z.entries)
            script.append(f"block {f}{arg}\n")
            rows = [p.line() for p in pairs if p.x in ids
                    and (z is None or p.y_square == z)]
            expected.append([f"{len(rows)} pairs:"] + rows)
    out.seek(0)
    out.truncate()
    session.run(io.StringIO("".join(script)))
    lines = out.getvalue().splitlines()
    got, start = [], 0
    for i, line in enumerate(lines):
        if line.endswith(" pairs:"):
            start = i
        elif line.startswith("per infinitesimal-character class:"):
            got.append(lines[start:i])
    assert got == expected


@pytest.mark.parametrize("type_string, form, per", [
    ("C3", 2, "0,0,0:42 0,0,1/2:32"), ("D4", 1, "0,0,0,0:28 1/2,0,1/2,0:12")])
def test_an_adjoint_block_counts_each_dual_square(type_string, form, per):
    # the dual squares of these forms get different counts; the closed
    # form is the count at the trivial one
    out = run_session(f"type {type_string} ad\ninner c\nblock {form}\n")
    lines = out.splitlines()
    total = sum(int(part.split(":")[1]) for part in per.split())
    assert lines[2] == f"{total} pairs:"
    assert len(lines) == total + 4
    assert lines[-1] == f"per infinitesimal-character class: {per}"
    assert "error" not in out


def test_a_block_without_rho_notes_the_rho_cover():
    assert run_session("type A1 ad\ninner c\nblock 0\n") == (
        "root datum: A1 ad (rank 1, 1 positive roots)\n"
        "inner class: diagram permutation 1\n"
        "note: half-sum of positive roots is not a character; counts refer "
        "to the rho-cover\n"
        "1 pairs:\n"
        "0 4 0 1/2 e\n"
        "per infinitesimal-character class: 1/2:1\n")


@pytest.mark.parametrize("spec, rank", [
    ("T1 sc", 1), ("T2 sc", 2), ("T1 matrix\n1", 1)])
def test_pure_torus_reports_its_rank_and_refuses_strongreal(spec, rank):
    out = run_session(f"type {spec}\ninner c\nstrongreal\n").splitlines()
    assert out[-3].endswith(f"(rank {rank}, 0 positive roots)")
    # the same typed refusal that A1.T1 gives
    refusal = run_session("type A1.T1 sc\ninner c\nstrongreal\n")
    reason = ": the twist fixes a central torus; central squares are not " \
        "finite"
    assert refusal.splitlines()[-1] == "error (line 3)" + reason
    assert out[-1].startswith("error (line ") and out[-1].endswith(reason)
    with pytest.raises(InfiniteCenterFixedPoints):
        strong_real_forms(trivial_inner_class(from_type(spec[:2], "sc")))


def test_a_twist_fixed_torus_counts_pairs_over_given_squares():
    # X and Z are not built, but count-z with both squares reads fibers
    out = run_session("type A1.T1 sc\ninner c\ncount-z 1 1\ncount-z\n")
    assert out.splitlines()[-3:] == [
        "tau e: 4 x 1 = 4", "total 4",
        "error (line 4): the twist fixes a central torus; central squares "
        "are not finite"]


def test_a_torus_session_switches_to_the_dual():
    out = run_session("type T1 sc\ninner c\ndual\ncartan\n")
    assert out.splitlines()[-3:] == [
        "switched to the dual inner class (rank 1, 0 positive roots)",
        "1 Cartan classes:",
        "cartan 0: tau e, size 1, signature split=1 compact=0 complex=0"]


# ---------------------------------------------------------------------------
# random sessions over C2, A2 u and G2: valid commands, bad ids, bad arity
# and unknown words never end a session with a traceback, and a fresh
# session replays the same lines to the same bytes

FUZZ_STARTS = ["", "type C2 sc\ninner c\n", "type A2 sc\ninner u\n",
               "type G2 sc\ninner c\n"]
FUZZ_ARGS = ["0", "1", "2", "3", "9", "40", "-1", "1/2", "x", "1,0", "0,1/2",
             "1/2,0", "1/3,2/3"]
FUZZ_COMMANDS = st.one_of(
    st.sampled_from([
        "type C2 sc", "type A2 sc", "type G2 sc", "type G2 ad",
        "type Z2 sc", "type A2 matrix", "1,0;0,1", "2,1;1,1", "1,1",
        "inner c", "inner u", "inner 2,1", "inner 2,2", "strongreal", "cartan", "X", "dual", "count-z", "quit",
        "dot", "dot X", "dot X a b", "# a comment", ""]),
    st.tuples(st.sampled_from(["kgb", "block", "realweyl", "count-z", "type",
                               "inner", "X", "strongreal", "cartan", "dual"]),
              st.lists(st.sampled_from(FUZZ_ARGS), max_size=3))
    .map(lambda c: " ".join([c[0]] + c[1])),
    st.text(alphabet="abqxz-#,/19 ", min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FUZZ_STARTS), st.lists(FUZZ_COMMANDS, max_size=10))
def test_random_sessions_replay_without_traceback(start, commands):
    script = start + "".join(c + "\n" for c in commands)
    first = run_session(script)     # an escaping exception fails the test
    assert "Traceback" not in first
    assert run_session(script) == first
