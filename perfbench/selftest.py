"""Show that the benchmark's output checks are not vacuous.

    python3 perfbench/selftest.py

Each check is fed a correct output, which it must accept, and a corrupted
one, which it must reject: a tree with one subtree swapped, a verify count
that is off by one, and a truncated path.  The independent evaluators are
also compared with the library on every small object, and the metric names
are compared with BENCHMARK.json.  Prints one line per case and exits 1 if
any case goes the wrong way.
"""

from __future__ import annotations

import json
import random
import sys

import checks
import run
from workloads import run_cli, tau_text

FAILURES = []


def expect(name: str, got: bool, want: bool) -> None:
    status = "ok" if got == want else "WRONG"
    print(f"{status:>5}  {'accepts' if want else 'rejects'}  {name}")
    if got != want:
        FAILURES.append(name)


def swap_root(lib, t):
    """t with the two subtrees of its root exchanged (they must differ)."""
    if lib.tree_to_text(t.left) == lib.tree_to_text(t.right):
        raise RuntimeError("corruption would not change the tree")
    return lib.Tree(t.right, t.left)


def main() -> int:
    if not (run.SRC / "strahler" / "__init__.py").is_file():
        print(f"error: no library at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    lib = run.import_library()
    cli = lib.cli.main

    # roundtrip-n1000: path -> tree -> path in the library
    d = lib.random_path(1000, random.Random(0))
    steps = checks.steps_from_heights(d.heights)
    t = lib.path_to_tree(d)
    back = checks.steps_from_heights(lib.tree_to_path(t).heights)
    expect("roundtrip: correct round trip", checks.check_roundtrip(steps, t, back), True)
    swapped = swap_root(lib, t)
    swapped_back = checks.steps_from_heights(lib.tree_to_path(swapped).heights)
    expect("roundtrip: image with root subtrees swapped",
           checks.check_roundtrip(steps, swapped, swapped_back), False)
    expect("roundtrip: truncated path back",
           checks.check_roundtrip(steps, t, back[:-1]), False)

    # convert-large: CLI text in both directions, each output checked, then
    # converted back and compared with the input
    def d2t_pair(path_steps, tree_text):
        code, out = run_cli(cli, ["t2d", tree_text])
        return (checks.check_path_to_tree_text(path_steps, tree_text)
                and code == 0 and out.rstrip("\n") == path_steps)

    code, out = run_cli(cli, ["d2t", steps])
    text = out.rstrip("\n")
    expect("convert: d2t output and its t2d round trip", code == 0 and d2t_pair(steps, text), True)
    expect("convert: d2t output with root subtrees swapped",
           d2t_pair(steps, lib.tree_to_text(swapped)), False)
    r = 1000
    tau = tau_text(r)
    expect("convert: tau(r) text equals the library's tau(r)",
           tau == lib.tree_to_text(lib.tau(r)), True)
    code, out = run_cli(cli, ["t2d", tau])
    path = out.rstrip("\n")
    expect("convert: t2d of tau(r) has height r",
           code == 0 and checks.check_tree_to_path_text(tau, path, r), True)
    expect("convert: t2d of tau(r) truncated",
           checks.check_tree_to_path_text(tau, path[:-1], r), False)
    expect("convert: t2d of tau(r) claimed as height r + 1",
           checks.check_tree_to_path_text(tau, path, r + 1), False)

    # verify: every (n, h, count) line, row flag and the verdict
    max_n = 7
    code, out = run_cli(cli, ["verify", "--max-n", str(max_n), "--format", "json"])
    expect("verify: real output", checks.check_verify(out, code, max_n), True)
    lines = out.splitlines()
    cell = next(i for i, line in enumerate(lines) if '"h"' in line and json.loads(line)["n"] == max_n)
    record = json.loads(lines[cell])
    record["count"] += 1
    off_by_one = lines[:cell] + [json.dumps(record)] + lines[cell + 1:]
    expect("verify: one count off by one", checks.check_verify("\n".join(off_by_one), code, max_n), False)
    expect("verify: nonzero exit code", checks.check_verify(out, 1, max_n), False)
    expect("verify: verdict line missing", checks.check_verify("\n".join(lines[:-1]), code, max_n), False)

    # the independent evaluators agree with the library on every small object
    agree = all(
        checks.tree_text_stats(lib.tree_to_text(t)) == (n, lib.refined_hs(t))
        and checks.tree_object_stats(t) == (n, lib.refined_hs(t))
        for n in range(8) for t in lib.all_full_binary_trees(n)
    )
    expect("evaluators: refined number of every tree with n <= 7", agree, True)
    agree = all(checks.height_counts(n) == lib.histogram_by_height(n).counts for n in range(10))
    expect("evaluators: height counts for every n <= 9", agree, True)

    # the metric names and units match BENCHMARK.json
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect("BENCHMARK.json: end-to-end metrics", declared == run.END_TO_END, True)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect("BENCHMARK.json: per-layer metrics", declared == run.per_layer_units(), True)
    expect("BENCHMARK.json: workloads",
           [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), True)

    print(f"{len(FAILURES)} case(s) went the wrong way" if FAILURES else "all cases went the right way")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
