"""Seeded inputs and output checks for the three benchmark workloads.

Set-up time includes importing structcon, so nothing here imports it at
module level: every generator takes the freshly imported package (and, for the
CLI workload, its ``cli`` module) as an argument.

Every workload repeats a fixed mix of work classes, and the seed changes the
concrete inputs inside each class (node labels, drift coefficients, sampling
seeds).  A fixed mix keeps the medians and percentiles of one run comparable
with the next: with independently drawn random corpora the heavy su(7)/su(8)
closures made the throughput of a 30-second sweep vary by about 17% from seed
to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"

BUNDLED_SPECS = (
    "so6_bridged_triangles",
    "gl4_pair_rings_loop",
    "gl4_pair_rings_no_loop",
    "gl4_unit_drift",
    "su5_hub_with_loops",
    "su6_two_triads",
)
CLI_COMMANDS = (("check",), ("report",), ("closure", "--json"))

# Sparse large-n `report` specs: one drift base and one control base.  Their
# closure is tiny, so the time goes to interpreter start, import and the
# O(n^4) structure-constant table.  The sizes are chosen so their report times
# cluster (about 0.28-0.30 s on a 2-vCPU Xeon VM; su(20), gl(20) and so(28)
# took 0.72, 0.49 and 0.56 s and spread the class), so that the 90th
# percentile of cli_cold falls in the middle of this class (5 of every 23
# requests), not on a boundary between kinds.
SPARSE_KINDS = (("su", 16), ("gl", 18), ("so", 25), ("su", 16), ("gl", 18))

# (drift tag, drift nodes, control tag, control nodes, closure dimension):
# letters stand for distinct seeded nodes.  The dimensions follow from the
# brackets of two basis elements (a commuting pair spans 2; an su(2)/sl(2)
# triple spans 3).
SPARSE_SHAPES = {
    "so": (("B", "ab", "B", "bc", 3), ("B", "ab", "B", "cd", 2)),
    "gl": (("E", "ab", "E", "ba", 3), ("E", "ab", "E", "bc", 3),
           ("E", "ab", "E", "cd", 2), ("E", "aa", "E", "ab", 2)),
    "su": (("B", "ab", "C", "ab", 3), ("B", "ab", "B", "bc", 3),
           ("C", "ab", "C", "bc", 3), ("B", "ab", "C", "cd", 2)),
}
SPARSE_TRIALS = 8  # the CLI default for `report`

# dense_closure: one cycle of scenarios, each reaching the full algebra.
# Three light requests (20-50 ms), four medium ones whose time hardly changes
# with the seed (dense su(6) and the gl(12) cycle, about 110 ms each), one
# su(14) path (80-300 ms: the time depends on where the path puts the labels)
# and two heavy dense su(7) requests (0.6-0.8 s).  The median falls in the
# middle of the steady medium block and the 90th percentile in the middle of
# the su(7) class, so neither sits on a boundary between classes.
DENSE_CYCLE = (("dense_su", 5), ("dense_su", 6), ("gl_cycle", 8), ("dense_su", 7),
               ("gl_cycle", 12), ("su_path", 10), ("dense_su", 6), ("su_path", 14),
               ("dense_su", 7), ("gl_cycle", 12))
DENSE_TRIALS = 2

# random_sweep: a corpus of criterion-7 style pairs, one per (family, n) kind
# in each block, drawn once from a fixed generator seed and recorded with its
# checker verdicts and oracle dimensions in golden/random_sweep.json.  su(8)
# is left out: its pairs took 57% of a run's time, one of them up to 8 s
# depending on the node labels, so a run measured few pairs and its
# throughput and 90th percentile moved with which su(8) pairs it met.  The
# corpus is about as large as a 40-second run gets through, so that a run's
# percentiles come from as many distinct pairs as it can measure.
SWEEP_KINDS = tuple((family, n) for family in ("so", "gl", "su") for n in range(3, 9)
                    if (family, n) != ("su", 8))
SWEEP_BLOCKS = 80
SWEEP_CORPUS_SEED = 701
SWEEP_TRIALS = 8


@dataclass(frozen=True)
class CliRequest:
    """One `python -m structcon.cli` invocation and what its stdout must be."""

    argv: tuple[str, ...]
    golden: bytes | None = None        # bundled specs: exact stdout
    sparse_dim: int = 0                # generated specs: expected closure dimension
    target: int = 0


@dataclass(frozen=True)
class PairRequest:
    """One in-process `cross_validate(pair, trials, seed)` call."""

    pair: Any
    trials: int
    seed: int
    expected_dims: tuple[int, ...]
    expected_verdict: str | None = None


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _kind(sc, family: str, n: int):
    return {"so": sc.so, "gl": sc.gl, "su": sc.su}[family](n)


def _basis(sc, tag: str, i: int, j: int):
    """Basis element on nodes i, j; B, C and D need i < j (C is symmetric,
    and the sign of B or D does not change the span it generates)."""
    if tag != "E" and i > j:
        i, j = j, i
    return sc.BasisElement(tag, i, j)


def _pair(sc, kind, drift_bases, control):
    drift = sc.DriftPattern(kind, tuple(drift_bases))
    return sc.ZeroPatternPair(drift, sc.ControlPattern(kind, tuple(control)))


def relabel(sc, pair, perm: dict[int, int]):
    """The same pair with node k renamed perm[k].

    Renaming nodes is conjugation by a permutation matrix, an automorphism of
    so(n), gl(n) and su(n), so the checker verdict and every oracle dimension
    are unchanged; drift bases keep their order, so the sampled coefficients
    are the same too.
    """
    kind = pair.kind

    def move(b, c):
        i, j = perm[b.i], perm[b.j]
        if b.tag != "E" and i > j:
            # B_ji = -B_ij, C_ji = C_ij, D_ji = -D_ij
            return sc.BasisElement(b.tag, j, i), (c if b.tag == "C" else -c)
        return sc.BasisElement(b.tag, i, j), c

    bases = [sc.AlgebraElement.build(kind, [move(b, c) for b, c in base.items()])
             for base in pair.drift.bases]
    control = [move(b, 1)[0] for b in pair.control.bases]
    return _pair(sc, kind, bases, control)


def _permutation(rng: random.Random, n: int) -> dict[int, int]:
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return dict(zip(range(1, n + 1), image))


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def golden_cli_path(spec: str, command: tuple[str, ...]) -> Path:
    return GOLDEN_DIR / "cli" / f"{spec}.{command[0]}.out"


def bundled_cli_requests(root: Path) -> list[tuple[tuple[str, ...], Path]]:
    """(argv, golden path) for every bundled spec and command."""
    specs = root / "src" / "structcon" / "specs"
    return [((command[0], str(specs / f"{name}.json"), *command[1:]),
             golden_cli_path(name, command))
            for name in BUNDLED_SPECS for command in CLI_COMMANDS]


def sparse_pair(sc, family: str, n: int, shape: tuple, nodes: dict[str, int], coeff: int):
    """The pair of one SPARSE_SHAPES entry on the given nodes."""
    kind = _kind(sc, family, n)
    dtag, dnodes, ctag, cnodes, _dim = shape
    drift = _basis(sc, dtag, nodes[dnodes[0]], nodes[dnodes[1]])
    control = _basis(sc, ctag, nodes[cnodes[0]], nodes[cnodes[1]])
    return _pair(sc, kind, [sc.AlgebraElement.build(kind, [(drift, coeff)])], [control])


def sparse_spec(sc, cli, rng: random.Random, family: str, n: int) -> tuple[dict, int]:
    """A seeded sparse spec document and its closure dimension."""
    shape = rng.choice(SPARSE_SHAPES[family])
    nodes = dict(zip("abcd", rng.sample(range(1, n + 1), 4)))
    coeff = rng.choice([c for c in range(-9, 10) if c])
    return cli.pair_to_document(sparse_pair(sc, family, n, shape, nodes, coeff)), shape[4]


def cli_cold_requests(sc, cli, root: Path, seed: int, workdir: Path,
                      cycles: int) -> list[CliRequest]:
    """`cycles` rounds of the 18 bundled requests with 5 sparse `report`
    requests interleaved; writes the sparse spec files into workdir."""
    rng = random.Random(seed)
    bundled = [CliRequest(argv, golden=path.read_bytes())
               for argv, path in bundled_cli_requests(root)]
    workdir.mkdir(parents=True, exist_ok=True)
    out: list[CliRequest] = []
    for c in range(cycles):
        sparse = []
        for j, (family, n) in enumerate(SPARSE_KINDS):
            doc, dim = sparse_spec(sc, cli, rng, family, n)
            path = workdir / f"c{c}_{j}_{family}{n}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            sparse.append(CliRequest(("report", str(path), "--json"), sparse_dim=dim,
                                     target=_kind(sc, family, n).dimension))
        for k, req in enumerate(bundled):
            out.append(req)
            if k % 4 == 3 and sparse:
                out.append(sparse.pop(0))
        out.extend(sparse)
    return out


def check_cli(req: CliRequest, returncode: int, stdout: bytes) -> bool:
    """A CLI request succeeds on exit 0 with the expected stdout."""
    if returncode != 0:
        return False
    if req.golden is not None:
        return stdout == req.golden
    try:
        doc = json.loads(stdout)
        return (doc["verdict"] == "NecessaryFailedNo"
                and doc["contradiction"] is False
                and doc["oracle"]["target"] == req.target
                and doc["oracle"]["dimensions"] == [req.sparse_dim] * SPARSE_TRIALS)
    except (ValueError, KeyError, TypeError):
        return False


# ---------------------------------------------------------------------------
# dense_closure
# ---------------------------------------------------------------------------


def dense_pair(sc, rng: random.Random, scenario: str, n: int):
    """A pattern whose closure is the whole algebra, on seeded node labels."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    a, b = perm[0], perm[1]
    if scenario == "dense_su":
        # every B_ij as its own rigid drift base, plus one C control
        kind = sc.su(n)
        bases = [sc.AlgebraElement.basis(kind, "B", i, j)
                 for i in range(1, n) for j in range(i + 1, n + 1)]
        return _pair(sc, kind, bases, [_basis(sc, "C", a, b)])
    if scenario == "gl_cycle":
        # an n-cycle of matrix units generates sl(n); E_aa adds the trace
        kind = sc.gl(n)
        control = [sc.BasisElement("E", perm[k], perm[(k + 1) % n]) for k in range(n)]
        return _pair(sc, kind, [sc.AlgebraElement.basis(kind, "E", a, a)], control)
    if scenario == "su_path":
        # a B-path over all nodes generates so(n); one C drift adds the rest of su(n)
        kind = sc.su(n)
        control = [_basis(sc, "B", perm[k], perm[k + 1]) for k in range(n - 1)]
        c, d = rng.sample(range(1, n + 1), 2)
        drift = sc.AlgebraElement.build(kind, [(_basis(sc, "C", c, d), 1)])
        return _pair(sc, kind, [drift], control)
    raise ValueError(f"unknown dense scenario {scenario!r}")


def dense_closure_requests(sc, seed: int, cycles: int) -> list[PairRequest]:
    rng = random.Random(seed)
    out = []
    for _ in range(cycles):
        for scenario, n in DENSE_CYCLE:
            pair = dense_pair(sc, rng, scenario, n)
            full = pair.kind.dimension
            out.append(PairRequest(pair, DENSE_TRIALS, rng.randrange(1 << 30),
                                   (full,) * DENSE_TRIALS))
    return out


# ---------------------------------------------------------------------------
# random_sweep
# ---------------------------------------------------------------------------


def random_pair(sc, rng: random.Random, family: str, n: int):
    """A random pair in the style of acceptance criterion 7, for a given kind."""
    kind = _kind(sc, family, n)
    if family == "so":
        candidates = [sc.BasisElement("B", i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    elif family == "gl":
        candidates = [sc.BasisElement("E", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    else:
        candidates = [sc.BasisElement(t, i, j) for t in "BCD"
                      for i in range(1, n) for j in range(i + 1, n + 1)]
    control = rng.sample(candidates, rng.randint(1, min(6, len(candidates))))
    bases = []
    for _ in range(rng.randint(1, 3)):
        base = sc.AlgebraElement.zero(kind)
        while base.is_zero:  # D terms can cancel after canonicalization
            picks = rng.sample(candidates, rng.randint(1, 3))
            coeffs = [rng.choice([c for c in range(-4, 5) if c]) for _ in picks]
            base = sc.AlgebraElement.build(kind, list(zip(picks, coeffs)))
        bases.append(base)
    return _pair(sc, kind, bases, control)


def sweep_corpus(sc) -> list:
    """The fixed corpus, before relabelling: blocks of one pair per kind."""
    rng = random.Random(SWEEP_CORPUS_SEED)
    return [random_pair(sc, rng, family, n)
            for _ in range(SWEEP_BLOCKS) for family, n in SWEEP_KINDS]


def load_sweep_golden() -> list[tuple[str, tuple[int, ...]]]:
    rows = json.loads((GOLDEN_DIR / "random_sweep.json").read_text(encoding="utf-8"))
    return [(verdict, tuple(dims)) for verdict, dims in rows]


def random_sweep_requests(sc, seed: int, golden) -> list[PairRequest]:
    """The corpus with every pair's nodes relabelled by a seeded permutation;
    request k samples its drifts with oracle seed k."""
    corpus = sweep_corpus(sc)
    if len(golden) != len(corpus):
        raise ValueError(f"{len(golden)} golden rows for {len(corpus)} corpus pairs")
    rng = random.Random(seed)
    out = []
    for k, (pair, (verdict, dims)) in enumerate(zip(corpus, golden)):
        moved = relabel(sc, pair, _permutation(rng, pair.kind.n))
        out.append(PairRequest(moved, SWEEP_TRIALS, k, dims, verdict))
    return out


def check_pair(req: PairRequest, report) -> bool:
    """No contradiction, no unconfirmed Yes, and the expected dimensions."""
    if report.contradiction or report.oracle is None:
        return False
    if report.verdict.value in ("SufficientYes", "ExactYes") and not report.oracle.achieved_full:
        return False
    if req.expected_verdict is not None and report.verdict.value != req.expected_verdict:
        return False
    return tuple(report.oracle.dimensions) == req.expected_dims
