import hashlib
import io
import json

import pytest

from strahler import cli, enumeration
from strahler.cli import main
from strahler.enumeration import all_dyck_paths, all_full_binary_trees, catalan
from strahler.tree import LEAF, tau, tree_to_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- single-shot commands -----------------------------------------------------

def test_tau(capsys):
    code, out, _ = run(capsys, "tau", "3")
    assert code == 0
    assert out == "((..)(..))\n"


def test_format_before_the_subcommand(capsys):
    code, out, _ = run(capsys, "--format", "json", "tau", "3")
    assert code == 0
    assert out == '{"r": 3, "tree": "((..)(..))"}\n'
    for argv in (["hs", "(.((..).))"], ["verify", "--max-n", "3"]):
        assert run(capsys, "--format", "json", *argv) == run(capsys, *argv, "--format", "json")


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_tau_json(capsys):
    code, out, _ = run(capsys, "tau", "--format", "json", "1")
    assert code == 0
    assert json.loads(out) == {"r": 1, "tree": "(..)"}


def test_tau_text_matches_the_tree(capsys):
    rs = list(range(201)) + [2**s - 1 for s in range(8, 17)]
    for r in rs:
        assert run(capsys, "tau", str(r)) == (0, tree_to_text(tau(r)) + "\n", "")


def test_tau_refuses_r_above_the_cap(capsys, monkeypatch):
    def build(r):
        raise AssertionError(f"tau {r} was built")

    monkeypatch.setattr(cli, "_tau_text", build)
    cap = cli._TAU_MAX_R
    assert run(capsys, "tau", str(cap + 1)) == (2, "", f"error: R must be <= {cap}\n")
    monkeypatch.setattr(cli, "_tau_text", lambda r: f"tau {r}")
    assert run(capsys, "tau", str(cap)) == (0, f"tau {cap}\n", "")


def test_hs(capsys):
    code, out, _ = run(capsys, "hs", "(.((..).))")
    assert code == 0
    assert out == "refined 2\nclassical 1\n"


def test_hs_json_matches_text(capsys):
    _, text_out, _ = run(capsys, "hs", "(.((..).))")
    _, json_out, _ = run(capsys, "hs", "--format", "json", "(.((..).))")
    obj = json.loads(json_out)
    assert obj == {"refined": 2, "classical": 1}
    assert f"refined {obj['refined']}" in text_out
    assert f"classical {obj['classical']}" in text_out


def test_d2t(capsys):
    code, out, _ = run(capsys, "d2t", "UD")
    assert code == 0
    assert out == "(..)\n"


def test_d2t_height_sequence_input(capsys):
    code, out, _ = run(capsys, "d2t", "0,1,2,1,2,1,0")
    assert code == 0
    assert out == "(.((..).))\n"


def test_t2d(capsys):
    code, out, _ = run(capsys, "t2d", "(.((..).))")
    assert code == 0
    assert out == "UUDUDD\n"


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("(..)\n"))
    code, out, _ = run(capsys, "t2d", "-")
    assert code == 0
    assert out == "UD\n"


def test_decompose_tree_text(capsys):
    code, out, _ = run(capsys, "decompose-tree", "(.((..).))")
    assert code == 0
    assert out == "h 2\nfix .\nfree (..)\nspine 1 .\n"


def test_decompose_tree_json(capsys):
    code, out, _ = run(capsys, "decompose-tree", "--format", "json", "(.((..).))")
    assert code == 0
    assert json.loads(out) == {
        "h": 2,
        "fix": ".",
        "free": "(..)",
        "spine": [{"side": 1, "tree": "."}],
    }


def test_decompose_path_text(capsys):
    code, out, _ = run(capsys, "decompose-path", "UUDUDD")
    assert code == 0
    assert out == "h 2\nfix\nfree UD\nspine +1\n"


def test_decompose_path_json(capsys):
    code, out, _ = run(capsys, "decompose-path", "--format", "json", "UUDUDD")
    assert code == 0
    assert json.loads(out) == {
        "h": 2,
        "fix": "",
        "free": "UD",
        "spine": [{"sign": 1, "path": ""}],
    }


# --- enumerate -----------------------------------------------------------------

def test_enumerate_paths(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--side", "paths")
    assert code == 0
    lines = out.splitlines()
    assert lines == sorted(lines)
    assert lines == [d.steps() for d in all_dyck_paths(3)]


def test_enumerate_trees_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--side", "trees", "--format", "json")
    assert code == 0
    assert [json.loads(line)["tree"] for line in out.splitlines()] == [
        "((..).)",
        "(.(..))",
    ]


@pytest.mark.parametrize(
    "side, digest",
    [
        ("paths", "0ed3e881a430d40f91e2ff836814ea4b90b205a011785685d73cdf03a578a0ef"),
        ("trees", "e66f364b5558ddffdfdcc9dc7208a7636d689bebae2b48d010f845e25895f172"),
    ],
)
def test_enumerate_output_pinned(capsys, side, digest):
    # sha256 of the whole stdout at n = 10: any change of order or format shows
    code, out, _ = run(capsys, "enumerate", "--n", "10", "--side", side)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# --- verify ----------------------------------------------------------------------

def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "8")
    assert code == 0
    assert "all checks passed for n <= 8" in out
    assert out.count("ok") >= 27


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--format", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    cells = [r for r in lines if "count" in r]
    assert {"n": 3, "h": 2, "count": 3} in cells
    summary = lines[-1]
    assert summary == {"max_n": 3, "ok": True}
    per_n = [r for r in lines if "equal" in r]
    assert all(r["equal"] and r["dyadic"] and r["bijection"] for r in per_n)
    assert [r["objects"] for r in per_n] == [catalan(n) for n in range(4)]


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "5dc2609364ec9ef7ad0f9bb2b99a42425d83401e2a63eec973b71e7de96dcc8f"),
        ("json", "aa90fa069b6944cf8bb646349d18aa5b9597bb27acd3bfce6f7d0d5d318818fa"),
    ],
)
def test_verify_output_pinned(capsys, fmt, digest):
    # sha256 of the whole stdout at max-n 10: any change of counts or format shows
    code, out, _ = run(capsys, "verify", "--max-n", "10", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_timings_only_add_elapsed_s(capsys):
    # --timings adds elapsed_s to each per-n JSON row and changes nothing else
    _, plain, _ = run(capsys, "verify", "--max-n", "6", "--format", "json")
    code, timed, _ = run(capsys, "verify", "--max-n", "6", "--format", "json", "--timings")
    assert code == 0
    rows = [json.loads(line) for line in timed.splitlines()]
    per_n = [r for r in rows if "equal" in r]
    assert len(per_n) == 7
    assert all(r.pop("elapsed_s") >= 0 for r in per_n)
    assert "elapsed_s" not in plain
    assert rows == [json.loads(line) for line in plain.splitlines()]
    assert run(capsys, "verify", "--max-n", "6", "--timings") == run(capsys, "verify", "--max-n", "6")


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    # a wrong image for every path must surface as a failed run, not pass
    monkeypatch.setattr(enumeration, "path_to_tree", lambda d: LEAF)
    code, out, _ = run(capsys, "verify", "--max-n", "3")
    assert code == 1
    assert "MISMATCH FOUND" in out


# --- exit codes --------------------------------------------------------------------

def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "d2t", "XYZ")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "hs", "((..)")
    assert code == 2


def test_negative_sizes_exit_2(capsys):
    assert run(capsys, "tau", "-1") == (2, "", "error: R must be >= 0\n")
    assert run(capsys, "enumerate", "--n", "-1", "--side", "paths") == (
        2,
        "",
        "error: --n must be >= 0\n",
    )


def test_broken_pipe_exits_0(monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr("sys.stdout", Closed())
    assert main(["tau", "3"]) == 0


def test_decompose_leaf_exits_2(capsys):
    code, _, err = run(capsys, "decompose-tree", ".")
    assert code == 2
    assert "leaf" in err
    code, _, err = run(capsys, "decompose-path", "")
    assert code == 2


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


# --- identity and format invariants --------------------------------------------------

def test_t2d_d2t_identity_on_all_small_inputs(capsys):
    for n in range(9):
        for t in all_full_binary_trees(n):
            text = tree_to_text(t)
            code, steps, _ = run(capsys, "t2d", text)
            assert code == 0
            code, back, _ = run(capsys, "d2t", steps.strip() if steps.strip() else "0")
            assert code == 0
            assert back.strip() == text


def test_json_and_text_agree_numerically(capsys):
    _, text_out, _ = run(capsys, "decompose-path", "UUUDUDDUDD")
    _, json_out, _ = run(capsys, "decompose-path", "--format", "json", "UUUDUDDUDD")
    obj = json.loads(json_out)
    assert f"h {obj['h']}" in text_out
    for entry in obj["spine"]:
        assert f"{entry['sign']:+d}" in text_out
