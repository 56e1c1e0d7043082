"""Command line interface: file formats, subcommands, exit codes."""

import contextlib
import io
import os
import shutil
import subprocess
import sys

import pytest

import laddermod
from laddermod import Matrix, QQ, cli
from laddermod.cli import (
    MorphismDoc,
    ParseError,
    main,
    parse_module_text,
    parse_morphism_text,
    print_module,
    print_morphism,
)


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def data(data_dir, name):
    return os.path.join(data_dir, name)


PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")
# the directory holding the imported package, so that children run the same code
PACKAGE_ROOT = os.path.dirname(os.path.dirname(laddermod.__file__))


def script_target(name):
    """The `module:function` target that `[project.scripts]` declares for `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


@pytest.fixture(scope="module")
def laddermod_cmd():
    """Command line of the `laddermod` console script.

    An installed script on PATH is run as it is. Otherwise (the package is
    imported from `src/` through PYTHONPATH and nothing is installed) the
    declared entry point is run with the current interpreter, the way the
    generated wrapper runs it.
    """
    path = shutil.which("laddermod")
    if path is not None:
        return [path]
    module, func = script_target("laddermod").split(":")
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


def run_child(cmd, preexec_fn=None, **env):
    """Run `cmd` with `os.environ` plus `env`, and the laddermod under test
    first on the child's PYTHONPATH. preexec_fn runs in the child before it
    starts `cmd`."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(cmd, capture_output=True, text=True, env=env, preexec_fn=preexec_fn)


def test_module_round_trip(running):
    text = print_module(running.V)
    assert parse_module_text(text) == running.V
    assert print_module(parse_module_text(text)) == text


def test_morphism_round_trip(running):
    text = print_morphism(running.doc)
    doc2 = parse_morphism_text(text)
    assert doc2 == running.doc
    assert print_morphism(doc2) == text


def test_golden_corpus_is_canonical(data_dir):
    for name in sorted(os.listdir(data_dir)):
        path = os.path.join(data_dir, name)
        with open(path) as f:
            text = f.read()
        if text.startswith("morphism"):
            assert print_morphism(parse_morphism_text(text)) == text, name
        else:
            assert print_module(parse_module_text(text)) == text, name


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_module_text("module\ndims 1 2\nmap 1\n1 2 3\n")
    assert exc.value.lineno == 4
    with pytest.raises(ParseError):
        parse_module_text("module\nfield rational\n")
    with pytest.raises(ParseError):
        parse_morphism_text("morphism\ndelta 0\n")


def test_zero_dimension_maps_round_trip():
    # map 1 is 0x1 (no row lines at all); map 2 is 1x0 (one blank row line)
    good = "module\nfield rational\ndims 1 0 1\nmap 1\nmap 2\n\n"
    m = parse_module_text(good)
    assert m.dims == (1, 0, 1)
    assert print_module(m) == good
    # a row with the wrong number of entries is rejected
    with pytest.raises(ParseError):
        parse_module_text("module\nfield rational\ndims 1 0 1\nmap 1\nmap 2\n0\n")


def test_barcode_command(data_dir):
    code, out = run_cli("barcode", data(data_dir, "V.txt"))
    assert code == 0
    assert out == "[0,4] [1,7] [4,4]\n"


def test_barcode_diagram_and_svg(data_dir, tmp_path):
    svg_path = str(tmp_path / "V.svg")
    code, out = run_cli("barcode", data(data_dir, "V.txt"), "--diagram", "--svg", svg_path)
    assert code == 0
    assert "#####...  [0,4]" in out
    assert "wrote" in out
    with open(svg_path) as f:
        svg = f.read()
    assert svg.startswith("<?xml")
    assert "<svg" in svg and "</svg>" in svg


def test_decompose_command(data_dir):
    code, out = run_cli("decompose", data(data_dir, "run.txt"))
    assert code == 0
    assert "nestedness domain Xi=3" in out
    assert "nestedness codomain Xi=inf" in out
    assert "precondition 2*delta=2 < min(Xi): ok" in out
    assert "certified 1-interleaving: yes" in out
    assert "summands: R [0,4]->[0,4], R [1,7]->[0,5], I+ [4,4]" in out


def test_decompose_pivot_rule_flag(data_dir):
    code, out = run_cli("decompose", data(data_dir, "run.txt"), "--pivot-rule", "last")
    assert code == 0
    assert "summands: R [0,4]->[0,4], R [1,7]->[0,5], I+ [4,4]" in out


def test_decompose_counterexample_exits_2(data_dir):
    code, out = run_cli("decompose", data(data_dir, "cex.txt"))
    assert code == 2
    assert "stuck at entry" in out
    assert "exhaustive search: 3 states explored, exhausted=True" in out
    assert "matching form found: False" in out


def test_decompose_coarse(data_dir):
    code, out = run_cli("decompose", data(data_dir, "run.txt"), "--q", "2", "--variant", "both")
    assert code == 0
    assert "coarse variant=both q=2 delta=1 bound=2" in out
    assert "inequality 2*delta+q < min(Xi): ok" in out
    assert "summands: R [0,4]->[0,4], R [1,7]->[0,5]" in out


def test_match_command(data_dir):
    code, out = run_cli("match", data(data_dir, "run.txt"))
    assert code == 0
    assert "pair [0,4] -> [1,5] x1" in out
    assert "pair [1,7] -> [1,6] x1" in out
    assert "unmatched source [4,4] x1" in out
    assert "cost 1" in out


def test_match_methods_agree_on_running(data_dir):
    code, out = run_cli("match", data(data_dir, "run.txt"), "--compare")
    assert code == 0
    assert "methods agree" in out


def test_match_methods_differ_on_bl(data_dir):
    code_phi, out_phi = run_cli("match", data(data_dir, "bl_phi.txt"), "--compare")
    code_psi, out_psi = run_cli("match", data(data_dir, "bl_psi.txt"), "--compare")
    assert code_phi == 0 and code_psi == 0
    assert "methods agree" in out_phi
    assert "methods differ" in out_psi


# V = [0,2] and W = [0,0] + [0,2] at delta 1: the bar [0,0] of W dies before
# delta, so the shifted codomain no longer holds it
EARLY_DYING_BAR = """morphism
delta 1
domain
module
field rational
dims 1 1 1
map 1
1
map 2
1
codomain
module
field rational
dims 2 1 1
map 1
0 1
map 2
1
components
comp 0
1
comp 1
1
comp 2
"""


def test_match_accounts_for_codomain_bars_that_die_before_delta(tmp_path):
    path = tmp_path / "early.txt"
    path.write_text(EARLY_DYING_BAR)
    code, out = run_cli("match", str(path), "--compare")
    assert code == 0
    ladder_block, bl_block = out.split("bl:\n")
    for block in (ladder_block, bl_block):
        assert "pair [0,2] -> [0,2] x1" in block
        assert "unmatched target [0,0] x1" in block
    assert out.splitlines()[-1] == "methods agree"
    code, out = run_cli("match", str(path), "--method", "bl")
    assert code == 0
    assert "unmatched target [0,0] x1" in out


def test_verify_command(data_dir):
    code, out = run_cli("verify", data(data_dir, "run.txt"), "--delta", "1")
    assert code == 0
    assert "domain triangles: pass" in out
    assert "codomain triangles: pass" in out
    assert "certified 1-interleaving" in out


def test_verify_failure_exits_2(data_dir):
    code, out = run_cli("verify", data(data_dir, "run.txt"), "--delta", "0")
    assert code == 2
    assert "FAIL" in out


def test_verify_scan(data_dir):
    code, out = run_cli("verify", data(data_dir, "run.txt"), "--scan-delta-max", "3")
    assert code == 0
    assert "smallest certified delta: 1" in out
    code, out = run_cli("verify", data(data_dir, "id.txt"), "--scan-delta-max", "3")
    assert code == 0
    assert "smallest certified delta: 0" in out


def test_match_identity_cost_zero(data_dir):
    code, out = run_cli("match", data(data_dir, "id.txt"))
    assert code == 0
    assert "cost 0" in out


def test_missing_file_exits_1(tmp_path):
    code = main(["barcode", str(tmp_path / "absent.txt")])
    assert code == 1


def test_field_order_too_large_exits_1(data_dir, tmp_path, capsys):
    with open(data(data_dir, "run.txt")) as f:
        text = f.read()
    huge = tmp_path / "huge.txt"
    huge.write_text(text.replace("field rational", "field prime 3317044064679887385961981", 1))
    assert main(["decompose", str(huge)]) == 1
    err = capsys.readouterr().err
    assert "line 5" in err and "too large" in err
    # a 61-bit prime order is accepted without trial division
    big = tmp_path / "big.txt"
    big.write_text(text.replace("field rational", "field prime %d" % (2**61 - 1)))
    code, out = run_cli("decompose", str(big))
    assert code == 0
    assert "summands: R [0,4]->[0,4], R [1,7]->[0,5], I+ [4,4]" in out


def _with_line(data_dir, tmp_path, name, lineno, text):
    with open(data(data_dir, name)) as f:
        lines = f.read().split("\n")
    lines[lineno - 1] = text
    path = tmp_path / ("edited-" + name)
    path.write_text("\n".join(lines))
    return str(path)


def test_scalar_with_exponent_exits_1(data_dir, tmp_path, capsys):
    # Fraction would expand an exponent into a full integer, which for a
    # large one never finishes; small ones show the refusal
    for tok in ("1e50", "2E3", "-1.5e-3", ".5e2"):
        path = _with_line(data_dir, tmp_path, "V.txt", 5, tok)
        assert main(["barcode", path]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 5: map 1: exponent notation is not accepted in '%s'\n" % tok
    # integers, p/q and plain decimals parse as before
    for tok in ("1", "2/4", "0.5", "-.25"):
        code, out = run_cli("barcode", _with_line(data_dir, tmp_path, "V.txt", 5, tok))
        assert code == 0 and out.startswith("[0,4]")


def test_entries_follow_one_ascii_grammar(data_dir, tmp_path, capsys):
    # int, and Fraction from Python 3.11, read digit separators, and both read
    # non-ASCII digits, which the printer writes back in ASCII; int also reads
    # a signed denominator, which QQ refuses. Neither field takes any of them.
    refused = {
        "V.txt": ("Invalid literal for Fraction: %r",
                  ["1_0", "1/1_0", "\uff12", "\u0663", "1/\uff12", "1/-2", "1/+2"]),
        "mod5.txt": ("%r is neither an integer nor one fraction n/d",
                     ["1_0", "1/1_0", "\uff12", "\u0663", "1/\uff12", "1/-2", "1/+2", "1/-0"]),
    }
    for name, (message, toks) in refused.items():
        for tok in toks:
            path = _with_line(data_dir, tmp_path, name, 5, tok)
            assert main(["barcode", path]) == 1
            err = capsys.readouterr().err
            assert err == "error: line 5: map 1: %s\n" % (message % tok), tok
    # signs, leading zeros and fractions of ASCII digits still parse in both
    for name in refused:
        for tok in ("+1", "-3", "007", "+1/2", "-1/2", "2/4"):
            code, out = run_cli("barcode", _with_line(data_dir, tmp_path, name, 5, tok))
            assert code == 0, (name, tok)


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_entries_have_at_most_4300_digits_in_a_row(field_name):
    # Python's own limit on int-string conversion would refuse these with a
    # message that names sys.set_int_max_str_digits and differs by version
    def parse(tok):
        return parse_module_text("module\nfield %s\ndims 1 1\nmap 1\n%s\n" % (field_name, tok))

    long_, ok = "7" * 4301, "7" * 4300
    refused = [long_, "-" + long_, "1/" + long_, long_ + "/3", "0." + long_,
               "x/" + long_, long_ + "e1", "1" + "_1" * 4300, "\u0663" * 4301]
    for tok in refused:
        with pytest.raises(ParseError) as e:
            parse(tok)
        assert str(e.value) == "line 5: map 1: an entry may have at most 4300 digits in a row"
    accepted = [ok, "-" + ok, "1/" + ok, ok + "/3"]
    if field_name == "rational":
        accepted += ["0." + ok, "." + ok, "1" * 3000 + "." + "1" * 3000]
    for tok in accepted:
        m = parse(tok)
        assert m.maps[0].get(0, 0) == m.field.parse(tok)
    m = parse(ok)
    assert m.maps[0].get(0, 0) == m.field.of(int(ok))


def test_prime_field_scalar_with_two_slashes_exits_1(data_dir, tmp_path, capsys):
    path = _with_line(data_dir, tmp_path, "mod5.txt", 5, "1/2/3")
    assert main(["barcode", path]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 5: map 1: '1/2/3' is neither an integer nor one fraction n/d\n"


def test_delta_with_two_values_exits_1(data_dir, tmp_path, capsys):
    for text in ("delta 1 2", "delta -1", "delta x"):
        path = _with_line(data_dir, tmp_path, "run.txt", 2, text)
        assert main(["decompose", path]) == 1
        err = capsys.readouterr().err
        if text == "delta x":
            assert err == "error: line 2: bad integer list in 'delta x'\n"
        else:
            assert err == "error: line 2: delta must be a single integer >= 0\n"


def test_integer_lines_follow_the_ascii_grammar(data_dir, tmp_path, capsys, monkeypatch):
    # int reads digit separators and non-ASCII digits, which print_module would
    # write back as other bytes; the dims, delta and field lines refuse them
    refused = [
        ("V.txt", 3, "dims 1_0", "bad integer list in 'dims 1_0'"),
        ("V.txt", 3, "dims \u0663", "bad integer list in 'dims \u0663'"),
        ("run.txt", 2, "delta \u0660", "bad integer list in 'delta \u0660'"),
        ("V.txt", 2, "field prime 1_1", "unknown field spec 'prime 1_1'"),
    ]
    for name, lineno, text, message in refused:
        assert main(["decompose" if name == "run.txt" else "barcode",
                     _with_line(data_dir, tmp_path, name, lineno, text)]) == 1
        assert capsys.readouterr().err == "error: line %d: %s\n" % (lineno, message), text
    nofield = tmp_path / "nofield.txt"
    with open(data(data_dir, "V.txt")) as f:
        nofield.write_text(f.read().replace("field rational\n", ""))
    monkeypatch.setenv("LADDERMOD_FIELD", "prime 1_1")
    assert main(["barcode", str(nofield)]) == 1
    assert capsys.readouterr().err == (
        "error: line 1: LADDERMOD_FIELD: unknown field spec 'prime 1_1'\n")
    monkeypatch.setenv("LADDERMOD_FIELD", "prime 007")
    assert run_cli("barcode", str(nofield)) == (0, "[0,4] [1,7] [4,4]\n")
    # a signed integer and leading zeros still parse
    m = parse_module_text("module\nfield prime 007\ndims +3\n")
    assert m.dims == (3,) and m.field.p == 7
    assert print_module(m) == "module\nfield prime 7\ndims 3\n"


def test_blanks_are_ascii_spaces_and_tabs(data_dir, tmp_path, capsys):
    # a blank is an ASCII space or tab; a keyword ends at a blank, and any
    # other text refused here would print back as other bytes
    refused = [
        ("V.txt", 3, "dims3", "expected 'dims ...', got 'dims3'"),
        ("V.txt", 3, "dims 1\u00a02 2 2 3 1 1 1", "bad integer list in 'dims 1\u00a02 2 2 3 1 1 1'"),
        ("run.txt", 2, "delta 1\u2003", "bad integer list in 'delta 1\u2003'"),
        # map 1 of V.txt has one column, so the row is one token of the entry grammar
        ("V.txt", 5, "1\u20032", "map 1: Invalid literal for Fraction: '1\\u20032'"),
    ]
    for name, lineno, text, message in refused:
        assert main(["decompose" if name == "run.txt" else "barcode",
                     _with_line(data_dir, tmp_path, name, lineno, text)]) == 1
        assert capsys.readouterr().err == "error: line %d: %s\n" % (lineno, message), text
    # tabs are blanks, on the dims line and in matrix rows, and a run of
    # blanks is one separator
    tabbed = _with_line(data_dir, tmp_path, "V.txt", 3, "dims\t1 2\t2 2 3 1 1 1")
    with open(tabbed) as f:
        text = f.read().replace("\n1 0\n0 1\n", "\n1\t0\n 0  1 \n")
    assert "1\t0\n 0  1 \n" in text
    with open(data(data_dir, "V.txt")) as f:
        assert print_module(parse_module_text(text)) == f.read()
    # and on the delta line
    with open(_with_line(data_dir, tmp_path, "run.txt", 2, "delta\t1")) as f:
        text = f.read()
    with open(data(data_dir, "run.txt")) as f:
        assert print_morphism(parse_morphism_text(text)) == f.read()


def _bytes_with_bad_line(path, lineno):
    """The bytes of path with byte 0xff put at the end of line lineno."""
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    lines[lineno - 1] += b"\xff"
    return b"\n".join(lines)


def test_bytes_that_are_not_utf8_are_refused_on_their_line(running, data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(_bytes_with_bad_line(data(data_dir, "V.txt"), 5))
    assert main(["barcode", str(bad)]) == 1
    assert capsys.readouterr().err == "error: line 5: not valid UTF-8\n"
    # past the first buffer a text-mode reader decodes, the line still counts from the start
    far = tmp_path / "far.txt"
    far.write_bytes(b"module\n" + (b"x" * 79 + b"\n") * 200 + b"\xff\n")
    assert far.stat().st_size > 10000
    assert main(["barcode", str(far)]) == 1
    assert capsys.readouterr().err == "error: line 202: not valid UTF-8\n"
    fa, fb = _split_running(running, tmp_path)
    with open(fb, "rb") as f:
        psi_bytes = f.read()
    with open(fb, "wb") as f:
        f.write(psi_bytes.replace(b"\ncomponents\n", b"\ncomponents\xff\n"))
    lineno = 1 + psi_bytes[:psi_bytes.index(b"\ncomponents\n") + 1].count(b"\n")
    assert main(["verify", fa, "--inverse", fb]) == 1
    assert capsys.readouterr().err == "error: line %d: not valid UTF-8\n" % lineno


def test_crlf_and_cr_files_parse_as_lf_files(data_dir, tmp_path, capsys):
    with open(data(data_dir, "run.txt"), "rb") as f:
        lf = f.read()
    want = run_cli("decompose", data(data_dir, "run.txt"))
    assert want[0] == 0
    bad = _bytes_with_bad_line(data(data_dir, "run.txt"), 5)
    for newline in (b"\r\n", b"\r"):
        path = tmp_path / "newlines.txt"
        path.write_bytes(lf.replace(b"\n", newline))
        assert run_cli("decompose", str(path)) == want
        path.write_bytes(bad.replace(b"\n", newline))
        assert main(["decompose", str(path)]) == 1
        assert capsys.readouterr().err == "error: line 5: not valid UTF-8\n"


def test_bad_arguments_exit_1():
    # argparse failures leave through SystemExit, remapped to status 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_console_script_and_module_entry(laddermod_cmd, data_dir, tmp_path):
    r = run_child(laddermod_cmd + ["barcode", data(data_dir, "V.txt")])
    assert r.returncode == 0
    assert r.stdout == "[0,4] [1,7] [4,4]\n"
    r = run_child([sys.executable, "-m", "laddermod.cli", "decompose", data(data_dir, "cex.txt")])
    assert r.returncode == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("module\ndims 1 2\nmap 1\n1 2 3\n")
    r = run_child(laddermod_cmd + ["barcode", str(bad)])
    assert r.returncode == 1
    assert "line" in r.stderr


def test_absurd_dims_rejected_on_their_line(laddermod_cmd, tmp_path):
    """A module file whose dims would need a huge identity per level fails
    with its line number before anything is allocated."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        # a child that allocates anyway dies fast instead of exhausting the host
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    huge = tmp_path / "huge.txt"
    huge.write_text("module\nfield rational\ndims 1000000000 0\nmap 1\n")
    r = run_child(laddermod_cmd + ["barcode", str(huge)], preexec_fn=limit_memory)
    assert r.returncode == 1
    assert r.stderr.startswith("error: line 3: dimensions too large")
    # the limit is on the sum of squares: 3162^2 is below 10^7, 3163^2 above
    assert parse_module_text("module\nfield rational\ndims 3162\n").dims == (3162,)
    with pytest.raises(ParseError) as exc:
        parse_module_text("module\nfield rational\ndims 3163\n")
    assert exc.value.lineno == 3
    with pytest.raises(ParseError) as exc:
        parse_module_text("module\nfield rational\ndims 3000 2000\nmap 1\n")
    assert exc.value.lineno == 3


def test_field_env_default(laddermod_cmd, data_dir, tmp_path):
    with open(data(data_dir, "V.txt")) as f:
        text = f.read()
    nofield = tmp_path / "nofield.txt"
    nofield.write_text(text.replace("field rational\n", ""))
    r = run_child(laddermod_cmd + ["barcode", str(nofield)], LADDERMOD_FIELD="prime 5")
    assert r.returncode == 0
    assert r.stdout == "[0,4] [1,7] [4,4]\n"
    r = run_child(laddermod_cmd + ["barcode", str(nofield)], LADDERMOD_FIELD="prime 4")
    assert r.returncode == 1


def test_prime_field_file_round_trip(data_dir):
    code, out = run_cli("barcode", data(data_dir, "mod5.txt"))
    assert code == 0
    assert out == "[0,3] [1,5] [2,2]\n"


def test_inverse_file_flag(running, data_dir, tmp_path):
    # split the running pair into two files: phi-only and psi-as-its-own-doc
    phi_only = MorphismDoc(running.V, running.W, 1, running.phi.comps, ())
    psi_only = MorphismDoc(running.W, running.V, 1, running.psi.comps, ())
    fa = tmp_path / "phi.txt"
    fb = tmp_path / "psi.txt"
    fa.write_text(print_morphism(phi_only))
    fb.write_text(print_morphism(psi_only))
    code, out = run_cli("verify", str(fa), "--delta", "1", "--inverse", str(fb))
    assert code == 0
    assert "certified 1-interleaving" in out
    code, out = run_cli("decompose", str(fa), "--inverse", str(fb))
    assert code == 0
    assert "certified 1-interleaving: yes" in out


def test_verify_without_inverse_exits_1(running, tmp_path):
    phi_only = MorphismDoc(running.V, running.W, 1, running.phi.comps, ())
    f = tmp_path / "phi.txt"
    f.write_text(print_morphism(phi_only))
    code = main(["verify", str(f), "--delta", "1"])
    assert code == 1


def _split_running(running, tmp_path):
    phi_only = MorphismDoc(running.V, running.W, 1, running.phi.comps, ())
    psi_only = MorphismDoc(running.W, running.V, 1, running.psi.comps, ())
    fa = tmp_path / "phi.txt"
    fb = tmp_path / "psi.txt"
    fa.write_text(print_morphism(phi_only))
    fb.write_text(print_morphism(psi_only))
    return str(fa), str(fb)


def test_verify_reads_inverse_file_once(running, tmp_path, monkeypatch):
    fa, fb = _split_running(running, tmp_path)
    reads = []
    real_read = cli._read

    def counting_read(path):
        reads.append(path)
        return real_read(path)

    monkeypatch.setattr(cli, "_read", counting_read)
    code, out = run_cli("verify", fa, "--inverse", fb, "--scan-delta-max", "3")
    assert code == 0
    assert out == "smallest certified delta: 1\n"
    assert reads.count(fb) == 1
    assert reads.count(fa) == 1


def test_inverse_file_with_other_endpoints_exits_1(running, tmp_path, capsys):
    fa, _ = _split_running(running, tmp_path)
    # phi read as its own inverse: V -> W where W -> V is needed
    for argv in (["verify", fa, "--inverse", fa], ["decompose", fa, "--inverse", fa]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --inverse file does not match the morphism's endpoints\n"


def test_commands_prove_commutation_only_while_parsing(data_dir, monkeypatch):
    """The parser validates the morphism and its inverse and marks them, so
    match --compare and decompose --q 2 run validate_ladder twice, both times
    inside parse_morphism_text, and never again on the ladders built from
    the parsed ones."""
    from laddermod import coarse, morphism

    parse, validate = cli.parse_morphism_text, morphism.validate_ladder
    parsing, calls = [], []

    def traced_parse(text):
        parsing.append(True)
        try:
            return parse(text)
        finally:
            parsing.pop()

    def traced_validate(lm):
        calls.append("parse" if parsing else "elsewhere")
        return validate(lm)

    monkeypatch.setattr(cli, "parse_morphism_text", traced_parse)
    for module in (cli, coarse, morphism):
        monkeypatch.setattr(module, "validate_ladder", traced_validate)
    for argv in (("match", "--compare"), ("decompose", "--q", "2")):
        calls.clear()
        code, _ = run_cli(argv[0], data(data_dir, "run.txt"), *argv[1:])
        assert code == 0
        assert calls == ["parse", "parse"], argv
