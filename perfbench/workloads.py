"""The benchmark's workloads, its tracer, and the per-layer probes.

A workload makes its inputs in ``setup`` (timed as set-up), then runs whole
rounds of the same operations.  Each operation is timed around the library or
CLI call alone; its output is checked afterwards with ``checks``, which
shares no code with the library.  The layers are the library's five modules,
measured from outside by timing calls into their public functions.
"""

from __future__ import annotations

import io
import random
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from time import perf_counter

import checks


class Tracer:
    """Spans ``[name, start, end, parent]`` and counters, kept in memory.

    A disabled tracer only forwards calls, so untraced runs time the bare call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def call(self, name: str, fn, *args, nodes: int = 0):
        if not self.enabled:
            return fn(*args)
        if nodes:
            self.count(name + ".nodes", nodes)
        with self.span(name):
            return fn(*args)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def busy(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def run_cli(main, argv):
    """Call the CLI entry point in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def cli_call(tracer: Tracer, lib, argv, replay):
    """One timed CLI call.  A traced run then replays the same library calls
    (``replay``), so that ``cli.self_s`` is main() time minus library time."""
    start = perf_counter()
    code, out = tracer.call("cli.main", run_cli, lib.cli.main, argv)
    seconds = perf_counter() - start
    if tracer.enabled:
        tracer.count("cli.output_bytes", len(out.encode()))
        with tracer.span("cli.library"):
            replay()
    return seconds, code, out


def _replay_d2t(tracer, lib, text, nodes):
    d = tracer.call("dyck.parse_path", lib.parse_path, text)
    t = tracer.call("bijection.path_to_tree", lib.path_to_tree, d, nodes=nodes)
    tracer.call("tree.tree_to_text", lib.tree_to_text, t)


def _replay_t2d(tracer, lib, text, nodes):
    t = tracer.call("tree.parse_tree", lib.parse_tree, text)
    d = tracer.call("bijection.tree_to_path", lib.tree_to_path, t, nodes=nodes)
    tracer.call("dyck.steps", d.steps)


# ---------------------------------------------------------------------------
# Per-layer probes, called once per traced run on the workload's own inputs.

def decomposition_profile(lib, d):
    """(frames, sliced elements) of the recursive decomposition of path d.

    A frame is one decompose_path call on a non-empty piece; the sliced
    elements are the heights in the pieces it returns.  Both are properties
    of the input under the paper's decomposition, whatever the library does
    internally.
    """
    frames = sliced = 0
    stack = [d]
    while stack:
        p = stack.pop()
        if len(p.heights) == 1:
            continue
        parts = lib.decompose_path(p)
        pieces = [parts.fix, parts.free] + [q for _, q in parts.spine]
        frames += 1
        sliced += sum(len(q.heights) for q in pieces)
        stack.extend(pieces)
    return frames, sliced


def probe_paths(tracer, lib, paths):
    for d in paths:
        steps = tracer.call("dyck.steps", d.steps)
        tracer.call("dyck.parse_path", lib.parse_path, steps)
        if len(d.heights) > 1:
            parts = tracer.call("dyck.decompose_path", lib.decompose_path, d)
            tracer.call("dyck.compose_path", lib.compose_path, parts.height, parts)
        frames, sliced = decomposition_profile(lib, d)
        tracer.count("dyck.frames", frames)
        tracer.count("dyck.sliced_elements", sliced)


def probe_trees(tracer, lib, trees):
    for t in trees:
        text = tracer.call("tree.tree_to_text", lib.tree_to_text, t)
        tracer.call("tree.parse_tree", lib.parse_tree, text)
        tracer.call("tree.refined_hs", lib.refined_hs, t)
        if t.left is not None:
            parts = tracer.call("tree.decompose_tree", lib.decompose_tree, t)
            tracer.call("tree.compose_tree", lib.compose_tree, parts.hs, parts)


def _drain(stream) -> int:
    return sum(1 for _ in stream)


def probe_enumeration(tracer, lib, max_n):
    """Every enumeration pass verify makes, for each n <= max_n, one span each."""
    objects = 0
    for n in range(max_n + 1):
        objects += tracer.call("enumeration.all_dyck_paths", _drain, lib.all_dyck_paths(n))
        tracer.call("enumeration.all_full_binary_trees", _drain, lib.all_full_binary_trees(n))
        tracer.call("enumeration.histogram_by_height", lib.histogram_by_height, n)
        tracer.call("enumeration.histogram_by_refined_hs", lib.histogram_by_refined_hs, n)
        tracer.call("enumeration.histogram_by_classical_hs", lib.histogram_by_classical_hs, n)
    tracer.count("enumeration.objects", objects)
    with tracer.span("enumeration.bijection_pass"):
        for n in range(max_n + 1):
            for d in lib.all_dyck_paths(n):
                tracer.call("bijection.path_to_tree", lib.path_to_tree, d, nodes=n)


# ---------------------------------------------------------------------------
# Workloads.

class Roundtrip:
    """Uniform random paths of half-length 1000, path_to_tree then tree_to_path."""

    name = "roundtrip-n1000"
    n = 1000
    paths_per_round = 250
    probe_sample = 100

    def setup(self, lib, seed):
        self.lib, self.seed = lib, seed
        rng = random.Random(seed)
        self.paths = [lib.random_path(self.n, rng) for _ in range(self.paths_per_round)]

    def prepare(self):
        self.steps = [checks.steps_from_heights(d.heights) for d in self.paths]

    def warmup(self):
        for d in self.paths[:10]:
            self.lib.tree_to_path(self.lib.path_to_tree(d))

    def round(self, tracer, record):
        p2t, t2p, n = self.lib.path_to_tree, self.lib.tree_to_path, self.n
        for d, steps in zip(self.paths, self.steps):
            start = perf_counter()
            t = tracer.call("bijection.path_to_tree", p2t, d, nodes=n)
            back = tracer.call("bijection.tree_to_path", t2p, t, nodes=n)
            seconds = perf_counter() - start
            back_steps = checks.steps_from_heights(back.heights)
            record("roundtrip", seconds, 1, checks.check_roundtrip(steps, t, back_steps))

    def probe(self, tracer):
        lib = self.lib
        rng = random.Random(self.seed)
        sample = self.paths[: self.probe_sample]  # what random_path(n, rng) gives first
        for _ in sample:
            tracer.call("dyck.random_path", lib.random_path, self.n, rng)
        probe_paths(tracer, lib, sample)
        probe_trees(tracer, lib, [lib.path_to_tree(d) for d in sample])


def mountains(heights) -> str:
    return "".join("U" * k + "D" * k for k in heights)


def complete_text(s: int) -> str:
    text = "."
    for _ in range(s):
        text = "(" + text + text + ")"
    return text


def tau_text(r: int) -> str:
    """Text of tau(r): a leaf for r = 0, else tau(r // 2) on the left and
    tau((r - 1) // 2) on the right.  The recursion is log2(r) deep."""
    memo = {0: "."}

    def text(x):
        if x not in memo:
            memo[x] = "(" + text(x // 2) + text((x - 1) // 2) + ")"
        return memo[x]

    return text(r)


class ConvertLarge:
    """`strahler d2t` / `strahler t2d` in-process on shapes of half-length ~10**5.

    Each input is converted, then its output converted back; both are
    operations.  Tree-side inputs carry their refined number by construction.
    """

    name = "convert-large"
    scale = dict(n=100_000, k=400, s=16, r=99_999)
    warmup_scale = dict(n=500, k=20, s=6, r=499)

    def setup(self, lib, seed):
        self.lib, self.seed = lib, seed
        self.inputs = self.make_inputs(**self.scale)

    def make_inputs(self, n, k, s, r):
        """[(shape, command, text, refined number of a tree input or None)]."""
        uniform = self.lib.random_path(n, random.Random(self.seed)).steps()
        return [
            ("uniform", "d2t", uniform, None),
            ("rising-mountains", "d2t", mountains(range(1, k + 1)), None),
            ("falling-mountains", "d2t", mountains(range(k, 0, -1)), None),
            ("mountain", "d2t", mountains([n]), None),
            ("sawtooth", "d2t", "UD" * n, None),
            ("left-comb", "t2d", "(" * n + "." + ".)" * n, 2),
            ("complete-binary", "t2d", complete_text(s), 2**s - 1),
            ("tau", "t2d", tau_text(r), r),
        ]

    def prepare(self):
        self.sizes = {}
        for shape, command, text, refined in self.inputs:
            if command == "d2t":
                self.sizes[shape] = checks.path_stats(text)[0]
            else:
                nodes, value = checks.tree_text_stats(text)
                if value != refined:
                    raise RuntimeError(f"benchmark input {shape} has refined number {value}")
                self.sizes[shape] = nodes

    def warmup(self):
        small = ConvertLarge()
        small.lib, small.seed = self.lib, self.seed
        small.inputs = small.make_inputs(**self.warmup_scale)
        small.prepare()
        small.round(Tracer(False), lambda *_: None)

    def round(self, tracer, record):
        lib = self.lib
        replay = {"d2t": _replay_d2t, "t2d": _replay_t2d}
        for shape, command, text, refined in self.inputs:
            n = self.sizes[shape]
            back_command = "t2d" if command == "d2t" else "d2t"
            seconds, code, out = cli_call(
                tracer, lib, [command, text], lambda: replay[command](tracer, lib, text, n)
            )
            out = out.rstrip("\n")
            if command == "d2t":
                ok = checks.check_path_to_tree_text(text, out)
            else:
                ok = checks.check_tree_to_path_text(text, out, refined)
            record(f"{shape} {command}", seconds, n, code == 0 and ok)
            seconds, code, back = cli_call(
                tracer, lib, [back_command, out],
                lambda: replay[back_command](tracer, lib, out, n),
            )
            record(f"{shape} {back_command}", seconds, n, code == 0 and back.rstrip("\n") == text)

    def probe(self, tracer):
        lib = self.lib
        tracer.call("dyck.random_path", lib.random_path, self.scale["n"], random.Random(self.seed))
        paths, trees = [], []
        for _, command, text, _ in self.inputs:
            if command == "d2t":
                paths.append(lib.parse_path(text))
            else:
                trees.append(lib.parse_tree(text))
        probe_paths(tracer, lib, paths)
        probe_trees(tracer, lib, trees)


class Verify:
    """`strahler verify --max-n 10 --format json` in-process: one call per operation."""

    name = "verify"
    max_n = 10
    sample = 200  # random paths of half-length max_n for the dyck/tree probes

    def setup(self, lib, seed):
        self.lib, self.seed = lib, seed
        self.argv = ["verify", "--max-n", str(self.max_n), "--format", "json"]

    def prepare(self):
        self.objects = sum(checks.catalan(n) for n in range(self.max_n + 1))

    def warmup(self):
        run_cli(self.lib.cli.main, ["verify", "--max-n", "7", "--format", "json"])

    def round(self, tracer, record):
        lib = self.lib
        seconds, code, out = cli_call(
            tracer, lib, self.argv, lambda: lib.verify_equidistribution(self.max_n)
        )
        record("verify", seconds, self.objects, checks.check_verify(out, code, self.max_n))

    def probe(self, tracer):
        lib = self.lib
        probe_enumeration(tracer, lib, self.max_n)
        rng = random.Random(self.seed)
        paths = [
            tracer.call("dyck.random_path", lib.random_path, self.max_n, rng)
            for _ in range(self.sample)
        ]
        probe_paths(tracer, lib, paths)
        trees = [lib.path_to_tree(d) for d in paths]
        probe_trees(tracer, lib, trees)
        for t in trees:
            tracer.call("bijection.tree_to_path", lib.tree_to_path, t, nodes=self.max_n)


WORKLOADS = {w.name: w for w in (Roundtrip, ConvertLarge, Verify)}
