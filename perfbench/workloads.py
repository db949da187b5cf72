"""The benchmark's workloads.

Each workload builds its inputs from the workload seed (`setup`), runs one
pass over them through the package's public functions (`run`), and checks
every result against an independent route (`check`). A wrong result and an
exception both count as a failed result. Only `run` is timed.

Size "full" is what the benchmark measures; size "tiny" runs the same code
on small inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import io
import os
import random
import re
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from gammatri import cli, cluster, coxeter, series, subdivisions, verify
from gammatri.poly import Poly2

SRC = Path(__file__).resolve().parent.parent / "src"
CLI_TIMEOUT_S = 150


@dataclass
class Outcome:
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _attempt(fn, *args):
    """Call fn; an exception becomes the result, to be counted as failed."""
    try:
        return fn(*args)
    except Exception as exc:  # every failure mode of a pass is a result
        return exc


class Workload:
    name = ""

    def setup(self, seed: int, size: str):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def run_in_process(self, inputs):
        """The pass as the traced run makes it."""
        return self.run(inputs)

    def check(self, inputs, results) -> Outcome:
        raise NotImplementedError

    def peak_rss_mb(self, results) -> float:
        """Peak resident memory of the process that ran the pass."""
        return _own_peak_rss_mb()


def _relabel(data: dict, rng: random.Random) -> dict:
    """The same subdivision under fresh, shuffled vertex and index labels."""
    verts = data["complex"]["vertices"]
    index = data["index_set"]
    codes = rng.sample(range(10 * (len(verts) + len(index))), len(verts) + len(index))
    vname = {v: f"v{c}" for v, c in zip(verts, codes)}
    iname = {i: f"s{c}" for i, c in zip(index, codes[len(verts):])}
    facets = [[vname[v] for v in f] for f in data["complex"]["facets"]]
    rng.shuffle(facets)
    new_verts = [vname[v] for v in verts]
    rng.shuffle(new_verts)
    new_index = [iname[i] for i in index]
    rng.shuffle(new_index)
    return {
        "complex": {"vertices": new_verts, "facets": facets},
        "index_set": new_index,
        "sigma": {vname[v]: [iname[i] for i in s] for v, s in data["sigma"].items()},
    }


class FaceModel(Workload):
    """Type A models of ranks 1-7 and dihedral models I2(m), m = 2..12,
    each loaded through Subdivision.from_dict (which validates) and checked
    three ways: model route == local-sum route == closed form."""

    name = "face-model"

    def setup(self, seed, size):
        rng = random.Random(seed)
        ranks, dihedral = ((range(1, 8), range(2, 13)) if size == "full"
                           else (range(1, 4), range(2, 6)))
        models = [("A", n, cluster.type_a_subdivision(n)) for n in ranks]
        models += [("I2", m, cluster.dihedral_subdivision(m)) for m in dihedral]
        inputs = [(kind, n, _relabel(s.to_dict(), rng)) for kind, n, s in models]
        rng.shuffle(inputs)
        return inputs

    @staticmethod
    def _three_ways(kind, n, data):
        s = subdivisions.Subdivision.from_dict(data)
        closed = (coxeter.closed_gamma_triangle("A", n) if kind == "A"
                  else coxeter.rank23_formula(n, 2))
        return verify.model_gamma(s), subdivisions.gamma_from_local_sum(s), closed

    def run(self, inputs):
        return [_attempt(self._three_ways, *case) for case in inputs]

    def check(self, inputs, results):
        out = Outcome(len(inputs), 0)
        for (kind, n, _), got in zip(inputs, results):
            if isinstance(got, Exception):
                out.errors.append(f"{kind}{n}: {type(got).__name__}: {got}")
            elif not got[0] == got[1] == got[2]:
                out.errors.append(f"{kind}{n}: model, local-sum and closed form differ")
        out.failed = len(out.errors)
        return out


class SeriesIdentities(Workload):
    """series.verify_identities at order 48, plus the closed route of GA
    against its defining triple sum at half that order (G_closed is what
    no identity calls; at full order it would add a sixth to the pass).
    The inputs are fixed; the seed reaches this workload as the hash seed."""

    name = "series-identities"

    def setup(self, seed, size):
        return 48 if size == "full" else 8

    @staticmethod
    def _checks(order):
        checks = [(c.name, c.ok) for c in series.verify_identities(order)]
        half = order // 2
        closed = series.G_closed("A", half)
        checks.append(("GA_closed_vs_sum", closed == series.G_sum("A", half)))
        return checks

    def run(self, order):
        return _attempt(self._checks, order)

    def check(self, order, results):
        expected = len(series.IDENTITY_NAMES) + 1
        if isinstance(results, Exception):
            return Outcome(expected, expected,
                           [f"{type(results).__name__}: {results}"])
        errors = [name for name, ok in results if not ok]
        if len(results) != expected:
            errors.append(f"{len(results)} checks reported, expected {expected}")
        return Outcome(max(expected, len(results)), len(errors), errors)


# Connected finite types as (kind, rank, m), the arguments of
# coxeter.standard_diagram. I2(3) is A2 and is left out.
CATALOG = tuple(
    [("A", r, None) for r in range(1, 13)]
    + [("B", r, None) for r in range(3, 13)]
    + [("D", r, None) for r in range(4, 13)]
    + [(k, int(k[1]), None) for k in ("E6", "E7", "E8", "F4", "H3", "H4")]
    + [("I2", 2, m) for m in range(4, 13)])


def component_triangle(kind, rank, m):
    """Γ-triangle of one connected type, computed without the diagram sum."""
    if kind in ("A", "B"):
        return coxeter.closed_gamma_triangle(kind, rank)
    if kind == "D":
        return coxeter.gamma_triangle_D(rank)
    if kind == "I2":
        return coxeter.rank23_formula(m, 2)
    if kind == "H3":
        return coxeter.rank23_formula(10, 3)
    return coxeter.reference_tables()[kind]


def _repeated(rank, rng):
    """Two or more copies of one type, topped up by a smaller type A."""
    comp = rng.choice([c for c in CATALOG if 2 <= c[1] <= rank // 2])
    copies = rank // comp[1]
    rest = rank - copies * comp[1]
    return [comp] * copies + ([("A", rest, None)] if rest else [])


def _distinct(rank, rng):
    """Two or more types, no two alike."""
    while True:
        left, used = rank, []
        while left:
            cap = left if used else rank - 2
            choices = [c for c in CATALOG if c[1] <= cap and c not in used]
            if not choices:
                break
            used.append(rng.choice(choices))
            left -= used[-1][1]
        if not left:
            return used


def disjoint_union(components, rng):
    """One diagram holding a copy of each component under fresh, shuffled
    labels."""
    total = sum(rank for _, rank, _ in components)
    codes = iter(rng.sample(range(10 * total), total))
    verts, edges = [], []
    for kind, rank, m in components:
        part = coxeter.standard_diagram(kind, rank, m)
        name = {v: f"c{next(codes)}" for v in part.vertices}
        verts += name.values()
        edges += [(name[u], name[v], label) for u, v, label in part.edges]
    rng.shuffle(verts)
    return coxeter.CoxeterDiagram.make(verts, edges)


class DiagramSums(Workload):
    """Γ-triangles of disjoint unions by the 2^n subset sum. At each total
    rank one union repeats a component type and one has no type twice; the
    independent route is the product of the components' triangles."""

    name = "diagram-sums"

    def setup(self, seed, size):
        rng = random.Random(seed)
        ranks = (10, 12, 14) if size == "full" else (4, 5, 6)
        inputs = []
        for rank in ranks:
            for make in (_repeated, _distinct):
                components = make(rank, rng)
                inputs.append((components, disjoint_union(components, rng)))
        return inputs

    def run(self, inputs):
        return [_attempt(coxeter.gamma_triangle_diagram, dgm) for _, dgm in inputs]

    def check(self, inputs, results):
        out = Outcome(len(inputs), 0)
        for (components, _), got in zip(inputs, results):
            label = "+".join(f"{k}{r}" if m is None else f"I2({m})"
                             for k, r, m in components)
            if isinstance(got, Exception):
                out.errors.append(f"{label}: {type(got).__name__}: {got}")
                continue
            want = Poly2.one()
            for comp in components:
                want = want * component_triangle(*comp).to_poly2()
            if got.to_poly2() != want or got.degree != sum(r for _, r, _ in components):
                out.errors.append(f"{label}: differs from the product of its components")
        out.failed = len(out.errors)
        return out


VERIFY_SUMMARY = re.compile(r"summary: (\d+)/(\d+) passed")


def parse_verify(text: str) -> tuple[int, int, int, int]:
    """(PASS lines, FAIL lines, passed, total) from `verify` table output,
    the last two summed over the suites' summary lines."""
    tags = {"[PASS]": 0, "[FAIL]": 0}
    passed = total = 0
    for line in text.splitlines():
        line = line.strip()
        if line[:6] in tags:
            tags[line[:6]] += 1
        m = VERIFY_SUMMARY.fullmatch(line)
        if m:
            passed += int(m[1])
            total += int(m[2])
    return tags["[PASS]"], tags["[FAIL]"], passed, total


@dataclass
class CliRun:
    returncode: int
    output: str
    peak_rss_mb: float | None


class VerifyCli(Workload):
    """`python -m gammatri verify --suite all` as a subprocess, defaults
    otherwise; it must exit 0 with every check passing. The seed reaches
    this workload as the hash seed, which the subprocess inherits."""

    name = "verify-cli"

    def setup(self, seed, size):
        if size == "full":
            return ["verify", "--suite", "all"], 177
        return ["verify", "--suite", "all", "--order", "6", "--max-rank", "2"], 1

    def run(self, inputs):
        argv, _ = inputs
        env = dict(os.environ, PYTHONPATH=str(SRC), NO_COLOR="1")
        proc = subprocess.Popen([sys.executable, "-m", "gammatri", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                env=env)
        try:
            output, _ = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            output, _ = proc.communicate()
        # the pass's process is the only child a worker waits for
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return CliRun(proc.returncode, output.decode("utf-8", "replace"), peak)

    def run_in_process(self, inputs):
        argv, _ = inputs
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = _attempt(cli.main, list(argv))
        if isinstance(code, Exception):
            return CliRun(1, f"{type(code).__name__}: {code}", None)
        return CliRun(code, buf.getvalue(), None)

    def check(self, inputs, results):
        _, minimum = inputs
        pass_lines, fail_lines, passed, total = parse_verify(results.output)
        attempted = max(minimum, total, pass_lines + fail_lines)
        errors = []
        if results.returncode != 0:
            errors.append(f"exit code {results.returncode}")
        if fail_lines:
            errors.append(f"{fail_lines} [FAIL] lines")
        if not pass_lines == passed == total >= minimum:
            errors.append(f"{pass_lines} [PASS] lines, summaries {passed}/{total}, "
                          f"at least {minimum} checks expected")
        failed = attempted - pass_lines
        if errors and not failed:
            failed = 1
        return Outcome(attempted, failed, errors)

    def peak_rss_mb(self, results):
        if results.peak_rss_mb is None:
            return _own_peak_rss_mb()
        return results.peak_rss_mb


WORKLOADS = {w.name: w for w in (FaceModel(), SeriesIdentities(), DiagramSums(), VerifyCli())}
