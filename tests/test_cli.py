"""Session behaviour, switches, diagnostics, exports and the arg parser."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tensorcanon import cli, frontend
from tensorcanon.cli import Session
from tensorcanon.texpr import Registry

from conftest import RELATIONS
from test_frontend import mutate, random_script


def run_session(text, **kw):
    out, err = io.StringIO(), io.StringIO()
    s = Session(out=out, err=err, **kw)
    status = s.run_text(text)
    return status, out.getvalue(), err.getvalue()


SETUP = "tensor a2; tsym a2(i,j)+a2(j,i);\n"

EXPORT_SETUP = (
    "tensor a2, a3, ri;\n"
    "tsym a2(i,j)+a2(j,i);\n"
    "tsym a3(i,j,k)+a3(j,i,k), a3(i,j,k)-a3(j,k,i);\n"
    "tsym ri(i,j,k,l)+ri(j,i,k,l), ri(i,j,k,l)+ri(i,j,l,k),"
    " ri(i,j,k,l)+ri(i,k,l,j)+ri(i,l,j,k);\n")

# sha256 of the --export-basis dumps under EXPORT_SETUP, text and --json:
# the export format is pinned byte for byte
EXPORT_DIGESTS = {
    ("ri", False):
        "2092007b6ff594e183998b8f3d398a0cb6499ee44a04fc2e6b749966ccdd4fa8",
    ("ri", True):
        "af4941fb151548a0b5ed2ca6343fa37bec3a860acdaea1fb150d7cb7055314ae",
    ("a3", False):
        "c9e71c77db2b2b313b6f42872f403720bf47053fe841bc05dffe928e24523745",
    ("a3", True):
        "60ca6c033c6299eded69393d01183640365a7b9bce9a215dc7561756b011487a",
    ("a2(ri)", False):
        "060485345f3f23cb30ac3ed1431ed5fb47ba86baeed98b60c566ae9990cd4ca5",
    ("a2(ri)", True):
        "77c7f5ed1e8efb42eb36c45c079adae8204e604879959a3ba6e0208bccdd31cb",
}


class TestSession:
    def test_simplify_line(self):
        status, out, err = run_session(SETUP + "a2(j,i);")
        assert status == 0
        assert out.strip() == "(-1)*a2(i,j)"
        assert err == ""

    def test_notes_go_to_stderr_alone(self):
        # a registry with a diagnostic sink keeps no copy of its notes
        out, err = io.StringIO(), io.StringIO()
        s = Session(out=out, err=err)
        assert s.run_text("tensor a2, a2; tclear b; a2(i,i,i,j);") == 0
        assert err.getvalue() == (
            "+++ a2 is already declared as tensor.\n+++ b is not a tensor.\n"
            "+++ index i appears more than twice; extra occurrences are kept"
            " free\n")
        assert s.registry.messages == []

    def test_kbasis_output(self):
        _, out, _ = run_session(SETUP + "kbasis a2;")
        lines = out.strip().split("\n")
        assert lines == ["a2(j,i) + a2(i,j)", "1"]

    def test_echo_mode(self):
        _, out, _ = run_session(SETUP + "a2(k,k);", echo=True)
        assert "a2(k,k);" in out
        assert out.strip().split("\n")[-1] == "0"

    def test_bindings(self):
        _, out, _ = run_session(SETUP + "x := a2(i,j)+a2(j,i); x;")
        assert out.strip() == "0"

    @pytest.mark.parametrize("text, refused, bound", [
        ("x := y; x;", ["y", "x"], []),     # the refused binding is not kept
        ("tsym y;", ["y"], []),
        ("y;", ["y"], []),
        (SETUP + "x := a2(i,j); z := x*y; z;", ["y", "z"], ["x"]),
    ], ids=["assignment", "tsym", "evaluation", "beside-a-binding"])
    def test_unbound_name(self, text, refused, bound):
        out, err = io.StringIO(), io.StringIO()
        s = Session(out=out, err=err)
        assert s.run_text(text) == 1
        assert err.getvalue() == "".join(
            f"***** {x} is not bound to an expression\n" for x in refused)
        assert out.getvalue() == ""
        assert sorted(s.bindings) == bound

    def test_unknown_switch(self):
        _, _, err = run_session("on nosuch;")
        assert "unknown switch" in err

    def test_packed_is_unknown(self):
        script = SETUP + "a2(j,i); on shortest; a2(i,j)-2*a2(j,i);"
        status, out, err = run_session("on packed; " + script)
        assert (status, err) == (0, "+++ unknown switch: packed\n")
        assert out == run_session(script)[1] == "(-1)*a2(i,j)\n3*a2(i,j)\n"

    def test_shortest_switch(self):
        script = (SETUP
                  + "on shortest; a2(i,j)+a2(j,i);")
        _, out, _ = run_session(script)
        assert out.strip() == "0"

    def test_dummypri_switch(self):
        _, out, _ = run_session(
            "tensor s2; tsym s2(i,j)-s2(j,i); on dummypri; s2(m,m);")
        assert out.strip() == "s2(m_1,m_2)"

    def test_error_continues_with_status(self):
        status, out, err = run_session("nope(i,j); " + SETUP + "a2(k,k);")
        assert status == 1
        assert err.startswith("***** ")
        assert out.strip() == "0"

    def test_parse_error_status(self):
        status, _, err = run_session("tensor $;")
        assert status == 1
        assert "*****" in err

    def test_deep_nesting(self):
        depth = 1000
        text = "tensor a2; " + "(" * depth + "a2(i,j)" + ")" * depth + ";"
        status, out, err = run_session(text)
        assert status == 1
        assert err.startswith("*****")
        assert out == ""

    def test_registry_diag_on_stderr(self):
        _, _, err = run_session("tensor a2; tensor a2;")
        assert "already declared" in err

    def test_showtime(self):
        _, out, _ = run_session("showtime;")
        assert out.startswith("Time: ")
        assert out.strip().endswith("ms")

    def test_auto_time(self):
        _, out, _ = run_session(SETUP + "a2(k,k);", auto_time=True)
        lines = out.strip().split("\n")
        assert lines[0] == "0"
        assert lines[1].startswith("Time: ")


class TestBasisQueries:
    def test_product_basis_dim(self):
        script = ("tensor a2,s2; tsym a2(i,j)+a2(j,i); "
                  "tsym s2(i,j)-s2(j,i); kbasis a2(s2);")
        _, out, _ = run_session(script)
        # each of the 6 cosets of the slot-symmetry group (order 4)
        # contributes 3 independent relations: dim K = 24 - 6 = 18
        assert out.strip().split("\n")[-1] == "18"

    def test_product_slot_names(self):
        # both factors display their slots as i,j(,k), so the product
        # slots take the default names instead of printing i,i,j,j
        decl = ("tensor a2,s2,a3; tsym a2(i,j)+a2(j,i); tsym s2(i,j)-s2(j,i);"
                " tsym a3(i,j,k)+a3(j,i,k); tsym a3(i,j,k)-a3(j,k,i);")
        for spec, names, dim in (("a2(s2)", "ijkl", "18"),
                                 ("a3(a3)", "ijklmn", "710")):
            _, out, err = run_session(decl + f"kbasis {spec};")
            assert err == ""
            *rows, last = out.strip().split("\n")
            assert last == dim and len(rows) == int(dim)
            for row in rows:
                # a row's terms, each as the index lists of its factors
                terms = [tuple(re.findall(r"\(([a-z,]+)\)", t))
                         for t in row.split(" + ")]
                assert len(set(terms)) == len(terms), row
                for t in terms:
                    assert sorted(",".join(t).split(",")) == list(names), row

    def test_unknown_tensor(self):
        _, _, err = run_session("kbasis zz;")
        assert "Invalid as tensor: zz" in err

    def test_unfixed_arity(self):
        _, _, err = run_session("tensor zz; kbasis zz;")
        assert "not fixed" in err


class TestExports:
    def _session(self):
        out = io.StringIO()
        s = Session(out=out, err=io.StringIO())
        s.run_text(SETUP)
        return s

    def test_text_export(self):
        dump = cli.export_basis(self._session(), "a2", as_json=False)
        assert dump.strip().split("\n")[-1] == "1"

    def test_json_export_structure(self):
        obj = json.loads(cli.export_basis(self._session(), "a2",
                                          as_json=True))
        assert obj["dimension"] == 1
        assert len(obj["rows"]) == 1
        assert obj["rows"][0]["perms"] == [[2, 1], [1, 2]]

    def test_dumps_byte_for_byte(self):
        for (spec, as_json), digest in EXPORT_DIGESTS.items():
            out, err = io.StringIO(), io.StringIO()
            argv = ["--export-basis", spec] + (["--json"] if as_json else [])
            status = cli.run(argv, stdin=io.StringIO(EXPORT_SETUP),
                             stdout=out, stderr=err)
            assert (status, err.getvalue()) == (0, ""), spec
            got = hashlib.sha256(out.getvalue().encode()).hexdigest()
            assert got == digest, (spec, as_json)


class TestReadme:
    def test_library_example(self):
        # the python block of the README's "Library use" section runs and
        # prints what its comment says
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(blocks[0], {})
        assert out.getvalue() == "(-1)*a2(i,j)\n"
        assert "# (-1)*a2(i,j)" in blocks[0]


class TestMemtable:
    def test_values(self):
        table = cli.memtable(3)
        lines = table.strip().split("\n")
        assert lines[0].split() == ["rank", "Mcells", "MByte"]
        assert len(lines) == 4
        assert lines[3].split()[0] == "3"

    def test_limit(self):
        with pytest.raises(ValueError):
            cli.memtable(21)


class TestRun:
    def test_stdin_mode(self):
        out, err = io.StringIO(), io.StringIO()
        status = cli.run([], stdin=io.StringIO(SETUP + "a2(j,i);"),
                         stdout=out, stderr=err)
        assert status == 0
        assert out.getvalue().strip() == "(-1)*a2(i,j)"

    def test_overlong_integer_is_a_parse_error(self):
        # int() refuses over 4300 digits by default; the lexer reports it
        # at the integer's position instead of raising ValueError
        out, err = io.StringIO(), io.StringIO()
        text = "tensor a2; " + "9" * 5000 + "*a2(i,j);"
        status = cli.run([], stdin=io.StringIO(text), stdout=out, stderr=err)
        assert status == 1
        assert err.getvalue() == ("***** integer of 5000 digits is too long"
                                  " (line 1, column 12)\n")
        assert out.getvalue() == ""

    def test_overlong_output_coefficient_is_a_diagnostic(self):
        # each literal is under int()'s 4300 digits, their product is not:
        # str() refuses to print it, so the printer reports its length
        out, err = io.StringIO(), io.StringIO()
        text = "tensor a2; " + "9" * 3000 + "*" + "9" * 3000 + "*a2(i,j);"
        status = cli.run([], stdin=io.StringIO(text), stdout=out, stderr=err)
        assert status == 1
        assert err.getvalue() == ("***** coefficient of 6000 digits is too"
                                  " long to print\n")
        assert "Traceback" not in err.getvalue()
        assert out.getvalue() == ""

    @pytest.mark.parametrize("text, count, where", [
        # each squaring squares the term count: x4 would hold 65,536 terms
        # and x5 2^32, so x4 is refused and the later names are unbound;
        # substituting a bound name has no token to point at
        ("tensor v; x0 := v(a)+v(b); x1 := x0*x0; x2 := x1*x1;"
         " x3 := x2*x2; x4 := x3*x3; x5 := x4*x4; x5;", 65536, ""),
        # the parser points at the '*' of the 14th binomial, column 198
        ("tensor v; " + "*".join(f"(v(a{i})+v(b{i}))" for i in range(24))
         + ";", 16384, " (line 1, column 198)"),
    ])
    def test_expansion_limit(self, text, count, where):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        status = cli.run([], stdin=io.StringIO(text), stdout=out, stderr=err)
        assert time.perf_counter() - start < 1
        assert status == 1
        assert err.getvalue().splitlines()[0] == (
            f"***** a product of {count} terms exceeds the limit of"
            f" {frontend.MAX_TERMS}{where}")
        assert "Traceback" not in err.getvalue()
        assert out.getvalue() == ""

    def test_import_loads_no_dataclasses(self):
        # the engine's value classes are plain __slots__ classes, so the
        # import pulls in neither dataclasses nor what it imports; modules
        # that the interpreter loaded before (a site hook) do not count
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); before ="
                " set(sys.modules); import tensorcanon.cli;"
                " print(*sorted(set(sys.modules) - before))")
        run = subprocess.run([sys.executable, "-I", "-c", code, src],
                             capture_output=True, text=True, check=True)
        added = set(run.stdout.split())
        assert "tensorcanon.cli" in added
        assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis",
                                 "argparse", "gettext", "locale"})

    def test_golden_run_loads_no_argparse(self):
        # cli.run reads its flags from one table: a run of the golden
        # script builds no argparse parser, whose first build loads gettext
        # and locale to look for message catalogs
        src = str(Path(cli.__file__).resolve().parents[1])
        golden = str(Path(src).parent / "scripts" / "golden_session.tsc")
        code = ("import io, sys; sys.path.insert(0, sys.argv[1]); before ="
                " set(sys.modules); from tensorcanon import cli;"
                " status = cli.run(['--script', sys.argv[2]],"
                " stdout=io.StringIO(), stderr=sys.stderr);"
                " print(status, *sorted(set(sys.modules) - before))")
        run = subprocess.run([sys.executable, "-I", "-c", code, src, golden],
                             capture_output=True, text=True, check=True)
        assert run.stderr == ""
        status, *added = run.stdout.split()
        assert status == "0"
        assert "tensorcanon.cli" in added
        assert set(added).isdisjoint({"argparse", "gettext", "locale"})

    def test_memtable_flag(self):
        out = io.StringIO()
        assert cli.run(["--memtable", "5"], stdout=out) == 0
        assert out.getvalue().startswith("rank")

    def test_memtable_below_one(self):
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(["--memtable", "-3"], stdout=out, stderr=err) == 1
        assert err.getvalue().startswith("*****")
        assert out.getvalue() == ""

    def test_max_rank_below_one(self):
        out, err = io.StringIO(), io.StringIO()
        status = cli.run(["--max-rank", "-1"], stdin=io.StringIO(SETUP),
                         stdout=out, stderr=err)
        assert status == 1
        assert err.getvalue().startswith("*****")
        assert out.getvalue() == ""

    def test_missing_script(self):
        err = io.StringIO()
        assert cli.run(["--script", "/no/such/file"], stdout=io.StringIO(),
                       stderr=err) == 1
        assert "*****" in err.getvalue()

    # a UnicodeDecodeError is a ValueError, not an OSError
    BAD_BYTES = SETUP.encode() + b"a2(j,i)\xff;"

    def test_undecodable_script(self, tmp_path):
        script = tmp_path / "bad.tsc"
        script.write_bytes(self.BAD_BYTES)
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(["--script", str(script)], stdout=out,
                       stderr=err) == 1
        # a script is read as UTF-8 whatever the locale
        assert err.getvalue() == ("***** 'utf-8' codec can't decode byte 0xff"
                                  f" in position {len(SETUP) + 7}: invalid"
                                  " start byte\n")
        assert out.getvalue() == ""

    def test_utf8_script_under_c_locale(self, tmp_path):
        # under the C locale without UTF-8 mode the locale's codec is
        # ASCII, which cannot read the comment's é
        script = tmp_path / "cafe.tsc"
        script.write_bytes(SETUP.encode() + "a2(j,i); % café\n".encode())
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONUTF8="0",
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-m", "tensorcanon.cli",
                              "--script", str(script)],
                             capture_output=True, env=env)
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout.decode().splitlines()[-1] == "(-1)*a2(i,j)"

    def test_undecodable_stdin(self):
        # stdin read as under PYTHONIOENCODING=utf-8:strict
        stdin = io.TextIOWrapper(io.BytesIO(self.BAD_BYTES), encoding="utf-8",
                                 errors="strict")
        out, err = io.StringIO(), io.StringIO()
        assert cli.run([], stdin=stdin, stdout=out, stderr=err) == 1
        assert err.getvalue() == ("***** 'utf-8' codec can't decode byte 0xff"
                                  f" in position {len(SETUP) + 7}: invalid"
                                  " start byte\n")
        assert out.getvalue() == ""

    def test_undecodable_input_under_c_locale(self, tmp_path):
        # stdin is read as bytes and decoded as UTF-8, as --script is, so
        # both paths print the codec's diagnostic whatever the locale
        script = tmp_path / "bad.tsc"
        script.write_bytes(self.BAD_BYTES)
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONUTF8="0",
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        want = ("***** 'utf-8' codec can't decode byte 0xff in position"
                f" {len(SETUP) + 7}: invalid start byte\n").encode()
        for args, stdin in ((["--script", str(script)], b""),
                            ([], self.BAD_BYTES)):
            run = subprocess.run([sys.executable, "-m", "tensorcanon.cli",
                                  *args], input=stdin, capture_output=True,
                                 env=env)
            assert (run.returncode, run.stderr, run.stdout) == (1, want, b"")

    def test_export_flag(self):
        out = io.StringIO()
        status = cli.run(["--export-basis", "a2", "--json"],
                         stdin=io.StringIO(SETUP), stdout=out,
                         stderr=io.StringIO())
        assert status == 0
        assert json.loads(out.getvalue())["dimension"] == 1

    def test_export_to_file(self, tmp_path):
        target = tmp_path / "basis.txt"
        status = cli.run(["--export-basis", "a2", "--output", str(target)],
                         stdin=io.StringIO(SETUP), stdout=io.StringIO(),
                         stderr=io.StringIO())
        assert status == 0
        assert target.read_text().strip().split("\n")[-1] == "1"

    def test_export_to_missing_dir(self, tmp_path):
        err = io.StringIO()
        target = tmp_path / "missing" / "basis.txt"
        status = cli.run(["--export-basis", "a2", "--output", str(target)],
                         stdin=io.StringIO(SETUP), stdout=io.StringIO(),
                         stderr=err)
        assert status == 1
        assert "*****" in err.getvalue()

    def test_export_rejects_trailing_junk(self):
        for spec in ("a2 junk", "a2(a2) x", "a2;"):
            out, err = io.StringIO(), io.StringIO()
            status = cli.run(["--export-basis", spec],
                             stdin=io.StringIO(SETUP), stdout=out,
                             stderr=err)
            assert status == 1, spec
            assert err.getvalue().startswith("***** unexpected token"), spec
            assert out.getvalue() == "", spec

    def test_max_rank_flag(self):
        err = io.StringIO()
        status = cli.run(
            ["--max-rank", "3"],
            stdin=io.StringIO(SETUP + "a2(i,j)*a2(k,l);"),
            stdout=io.StringIO(), stderr=err)
        assert status == 1
        assert "MByte" in err.getvalue()

    def test_coset_guard(self):
        # ri^3 has 10395 cosets, under the 8! of the default limit; one
        # pair at degree 10 leaves 10!/2
        ri = ("tensor ri, s2; tsym ri(i,j,k,l)+ri(j,i,k,l),"
              " ri(i,j,k,l)+ri(i,j,l,k), ri(i,j,k,l)+ri(i,k,l,j)+ri(i,l,j,k);")
        out, err = io.StringIO(), io.StringIO()
        status = cli.run([], stdin=io.StringIO(
            ri + "ri(a,b,c,d)*ri(c,d,e,f)*ri(e,f,a,b);"),
            stdout=out, stderr=err)
        assert (status, err.getvalue()) == (0, "")
        assert out.getvalue() == "ri(a,b,c,d)*ri(a,b,e,f)*ri(c,d,e,f)\n"
        out, err = io.StringIO(), io.StringIO()
        status = cli.run([], stdin=io.StringIO(
            ri + "ri(m,a,b,c)*ri(m,d,e,f)*s2(g,h);"), stdout=out, stderr=err)
        assert status == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("***** 10 indices with 1 dummy"
                                         " pairs give 1814400 cosets")

    def test_coset_guard_estimate(self):
        out, err = io.StringIO(), io.StringIO()
        status = cli.run([], stdin=io.StringIO(
            "tensor ri, s2; ri(m,a,b,c)*ri(m,d,e,f)*s2(g,h);"),
            stdout=out, stderr=err)
        assert status == 1 and out.getvalue() == ""
        assert re.search(r"1814400 cosets, .* Mcells \([\d.]+ MByte\)",
                         err.getvalue())

    def test_max_rank_guards_tsym(self):
        err = io.StringIO()
        status = cli.run(
            ["--max-rank", "3"],
            stdin=io.StringIO("tensor t; tsym t(a,b,c,d)+t(b,a,c,d);"),
            stdout=io.StringIO(), stderr=err)
        assert status == 1
        assert "MByte" in err.getvalue()


class TestArgv:
    FLAGS = ("--script", "--max-rank", "--export-basis", "--json", "--output",
             "--time", "--memtable")

    @pytest.mark.parametrize("argv", [
        ["--bogus"], ["script.tsc"], ["--script"], ["--max-rank"],
        ["--max-rank", "x"], ["--max-rank=1.5"], ["--memtable", ""],
        ["--json=yes"], ["--time=1"], ["--help=1"], ["--max", "3"], ["-x"],
        ["--"], ["--export-basis="], ["--output", ""],
    ])
    def test_bad_argument(self, argv):
        # one ***** line on the given stderr and status 1, where argparse
        # printed its usage to the process's stderr and raised SystemExit
        out, err = io.StringIO(), io.StringIO()
        status = cli.run(argv, stdin=io.StringIO(SETUP), stdout=out,
                         stderr=err)
        assert status == 1
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("***** ")
        assert out.getvalue() == ""

    @pytest.mark.parametrize("argv, flags", [
        (["--json"], "--json"),
        (["--output", "basis.txt"], "--output"),
        (["--output=basis.txt", "--json"], "--json and --output"),
    ])
    def test_export_options_need_export_basis(self, argv, flags, tmp_path,
                                              monkeypatch):
        # refused before any input is read
        self.assert_refused_before_input(
            argv, f"--export-basis is needed for {flags}", tmp_path,
            monkeypatch)

    @pytest.mark.parametrize("argv, flag", [
        (["--json", "--export-basis", "a2", "--export-basis="],
         "--export-basis"),
        (["--export-basis", "a2", "--output="], "--output"),
        (["--script="], "--script"),
        (["--max-rank="], "--max-rank"),
        (["--memtable", ""], "--memtable"),
    ])
    def test_empty_value_is_refused(self, argv, flag, tmp_path, monkeypatch):
        # an empty value is refused as a missing one is, before any input
        # is read; `--export-basis=` does not read as "no export"
        self.assert_refused_before_input(argv, f"{flag} needs a value",
                                         tmp_path, monkeypatch)

    def assert_refused_before_input(self, argv, diag, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out, err = io.StringIO(), io.StringIO()
        stdin = io.StringIO(SETUP + "a2(j,i);")
        assert cli.run(argv, stdin=stdin, stdout=out, stderr=err) == 1
        assert err.getvalue() == f"***** {diag}\n"
        assert out.getvalue() == "" and stdin.tell() == 0
        assert list(tmp_path.iterdir()) == []

    def test_no_abbreviations(self, tmp_path):
        # argparse took --scr for --script; only exact names are flags
        script = tmp_path / "ok.tsc"
        script.write_text(SETUP)
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(["--scr", str(script)], stdout=out, stderr=err) == 1
        assert err.getvalue() == ("***** unrecognized argument: --scr"
                                  " (see --help)\n")
        assert out.getvalue() == ""

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, flag):
        out, err = io.StringIO(), io.StringIO()
        assert cli.run([flag], stdout=out, stderr=err) == 0
        assert err.getvalue() == ""
        listed = re.findall(r"^  (--?[a-z-]+)", out.getvalue(), re.M)
        assert set(listed) == {"--help", *self.FLAGS}
        assert re.search(r"(?<!-)-h\b", out.getvalue())

    def run_max_rank(self, argv):
        err = io.StringIO()
        status = cli.run(argv, stdin=io.StringIO(SETUP + "a2(i,j)*a2(k,l);"),
                         stdout=io.StringIO(), stderr=err)
        return status, err.getvalue()

    def test_equals_form(self):
        refused = self.run_max_rank(["--max-rank", "3"])
        assert refused[0] == 1 and "MByte" in refused[1]
        assert self.run_max_rank(["--max-rank=3"]) == refused

    def test_last_occurrence_wins(self):
        refused = self.run_max_rank(["--max-rank", "3"])
        assert self.run_max_rank(["--max-rank", "8", "--max-rank=3"]) \
            == refused
        assert self.run_max_rank(["--max-rank=3", "--max-rank", "8"]) \
            == (0, "")

    def test_value_is_verbatim(self):
        # a value that starts with a dash is the flag's value, not a flag:
        # here the name of a script that does not exist
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(["--script", "--json"], stdout=out, stderr=err) == 1
        assert err.getvalue().startswith("***** [Errno 2]")
        assert "'--json'" in err.getvalue()
        assert out.getvalue() == ""


class TestRefusalLeavesRegistry:
    """A refused statement fixes no arity and no display names."""

    def run(self, text):
        out, err = io.StringIO(), io.StringIO()
        status = cli.run([], stdin=io.StringIO(text), stdout=out, stderr=err)
        return status, out.getvalue(), err.getvalue()

    def test_refused_product_fixes_no_arity(self):
        assert self.run(
            "tensor t, s; t(i,j,k)*s(l) + t(i,j,k); t(i,j)*s(k);") == (
            1, "s(k)*t(i,j)\n", "***** terms of one expression must share"
            " the same product of basic tensors\n")

    def test_refused_arity_fixes_no_arity(self):
        assert self.run("tensor a; a(i,j)+a(i,j,k); a(i,j,k);") == (
            1, "a(i,j,k)\n", "***** a takes 2 indices, given 3\n")

    def test_refused_by_coset_guard_fixes_no_arity(self):
        assert self.run("tensor ri, s2; ri(m,a,b,c)*ri(m,d,e,f)*s2(g,h);"
                        " s2(i,j,k);") == (
            1, "s2(i,j,k)\n", "***** 10 indices with 1 dummy pairs give"
            " 1814400 cosets, more than the 40320 (= 8!) of the rank limit"
            " of 8; they need about 14.5 Mcells (113.4 MByte) -- raise the"
            " rank limit to proceed\n")

    def test_refused_tsym_fixes_no_arity_or_names(self):
        status, out, err = self.run(
            "tensor u; tsym u(i,j)+u(i,k); tsym u(a,b,c)-u(b,a,c);"
            " kbasis u;")
        assert (status, err) == (1, "***** symmetry relation terms must use"
                                    " the same index names\n")
        assert out.split("\n")[0] == "u(b,a,c) + (-1)*u(a,b,c)"
        assert out.endswith("\n3\n")

    def test_cancelled_tsym_fixes_an_empty_basis(self):
        # the arity is fixed, the relation adds no row
        assert self.run("tensor u; tsym u(i,j)-u(i,j); u(i,j); kbasis u;") \
            == (0, "u(i,j)\n0\n", "")


class TestOutcomes:
    """Every script through `cli.run` ends as its output with status 0 or
    with `*****` lines and status 1; an engine fault is no refusal."""

    PRELUDE = "tensor a2, s2, ri;\n" + "".join(
        f"tsym {', '.join(RELATIONS[name])};\n" for name in ("a2", "s2", "ri"))

    def test_random_scripts(self):
        rng = random.Random(2810)
        accepted = 0
        for k in range(300):
            text = random_script(rng)
            if k % 2:
                text = mutate(rng, text)
            err = io.StringIO()
            status = cli.run([], stdin=io.StringIO(self.PRELUDE + text),
                             stdout=io.StringIO(), stderr=err)
            lines = err.getvalue().splitlines()
            refused = any(line.startswith("*****") for line in lines)
            assert (status, refused) in ((0, False), (1, True)), text
            assert all(line.startswith(("*****", "+++")) for line in lines), \
                text
            accepted += status == 0
        # both outcomes occur
        assert 0 < accepted < 300

    def test_engine_fault_raises(self, monkeypatch):
        # run_text is outside both refusal handlers of cli.run
        def fault(self, expr):
            raise ValueError("engine fault")

        monkeypatch.setattr(Registry, "simplify", fault)
        err = io.StringIO()
        with pytest.raises(ValueError, match="engine fault"):
            cli.run([], stdin=io.StringIO("tensor a2; a2(i,j);"),
                    stdout=io.StringIO(), stderr=err)
        assert "*****" not in err.getvalue()
