"""The benchmark's four workloads, as cycles of jobs with known verdicts.

A job is a call, or a short fixed sequence of calls, into `defalg` that ends
in a verdict the benchmark knows in advance; it returns True when the
library's answer matches.  Every cycle of a workload has the same
composition, and cycle `c` of seed `s` draws its inputs from its own
generators, so one seed always gives the same inputs.  A run measures whole
cycles, so the median and p90 fall at the same place in the job mix on
every run; each composition puts them inside a band of jobs of one kind
rather than on the edge between two.

The library is imported inside the jobs, from the checkout the runner put
on `sys.path`, and reached through module attributes at call time
(`linfty.check_linfty`, not a name bound here), so the tracer's wrappers
see the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction


def seeded(workload, seed, cycle, pos):
    """A factory for the job's generator: a job run twice sees the same
    inputs.  str seeds hash with SHA-512, independent of PYTHONHASHSEED."""
    return lambda: random.Random(f"{workload}:{seed}:{cycle}:{pos}")


def _coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


# ---------------------------------------------------------------------------
# gbv-polyvector: tabled GBV structures, Tian-Todorov and delta^2 instances
# ---------------------------------------------------------------------------

# Table-build jobs, in cycle order.  (2, 2) appears three times so that the
# p90 of the cycle falls in the middle of its band; the larger sizes of the
# test suite take seconds each and would leave too few jobs per run for a
# p90.
GBV_TABLE_SIZES = ((1, 4), (2, 2), (2, 1), (2, 2), (3, 1), (2, 2), (2, 3))
GBV_TT_PER_TABLE = 5


def gbv_table_job(nvars, cap):
    from defalg import gbv

    S = gbv.polyvector_gbv(nvars, cap)
    return S.gbv_check().ok() and S.dgla_verify().ok()


def _random_polyvector(rng, n, frame_size, terms):
    from defalg import gbv

    out = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, 2) for _ in range(n))
        frame = tuple(sorted(rng.sample(range(n), frame_size)))
        out[(mono, frame)] = _coeff(rng)
    return gbv.Polyvector(n, None, out)


def gbv_tt_job(rng, k):
    """Tian-Todorov and delta^2 = 0 on seeded polyvectors in 3 variables.
    Slot k fixes the frame sizes (the left argument must be homogeneous), so
    only monomials and coefficients vary with the seed."""
    from defalg import gbv

    a = _random_polyvector(rng, 3, k % 4, 2)
    b = _random_polyvector(rng, 3, (k + 1) % 4, 2)
    return (
        gbv.tian_todorov_check(a, b).ok()
        and gbv.delta_volume(gbv.delta_volume(a)).is_zero()
    )


def gbv_cycle(seed, c):
    jobs = []
    for size in GBV_TABLE_SIZES:
        jobs.append((f"table{size[0]}{size[1]}", lambda size=size: gbv_table_job(*size)))
        for k in range(GBV_TT_PER_TABLE):
            rng = seeded("gbv-polyvector", seed, c, len(jobs))
            jobs.append(("tian-todorov", lambda rng=rng, k=k: gbv_tt_job(rng(), k)))
    return jobs


# ---------------------------------------------------------------------------
# homotopy-battery: homotopy Lie checks, gauge action, MC, obstructions
# ---------------------------------------------------------------------------


def linfty_stratum(S):
    """The family branch of `random_linfty` a structure came from, with the
    number of generators: the cost of checking it depends mostly on this.
    DGLA-derived structures of dimension 5 cost 24-37 ms; those of lower
    dimension range from 0.1 to 26 ms."""
    if S.max_arity == 3:
        return f"cubic{len(S.space) - 2}"
    return f"dgla{len(S.space)}"


def linfty_pair(rng, stratum):
    """A `random_linfty` structure from the given branch (by rejection) and
    its `inject_linfty_violation` twin, or None when the space admits no
    violating single perturbation.  These are the job's inputs: the twin
    search reruns the checker a random number of times, which would make the
    job's cost depend on luck rather than on the checker."""
    from defalg import generators

    while True:
        S = generators.random_linfty(rng)
        if linfty_stratum(S) == stratum:
            return S, generators.inject_linfty_violation(rng, S)


def linfty_job(S, bad):
    """A random homotopy Lie structure passes; its injected twin fails."""
    from defalg import linfty

    return linfty.check_linfty(S, 5).ok() and (
        bad is None or not linfty.check_linfty(bad, 5).ok()
    )


def gauge_job(rng):
    """Gauge action preserves MC and is a group action through BCH."""
    from defalg import generators

    L = generators.random_dgla(rng)
    A = generators.random_classical_artin(rng)
    M, a, b, w = generators.random_mc_pair(rng, L, A)
    gw = M.gauge_apply(b, w)
    return M.is_mc(gw) and M.gauge_apply(a, gw) == M.gauge_apply(M.bch_degree0(a, b), w)


def mc_job(rng):
    """The homotopy MC residual of from_dgla(L) equals the classical one."""
    from defalg import dgla, generators, linfty
    from defalg.core import Element

    L = generators.random_dgla(rng)
    A = generators.random_classical_artin(rng)
    S = linfty.from_dgla(L)
    M = dgla.TensorDgla(L, A)
    m = {}
    el = Element()
    for i in range(len(L.basis)):
        for j in range(len(A.basis)):
            if L.basis.degree(i) + A.basis.degree(j) == 1:
                c = rng.randint(-2, 2)
                if c:
                    m[(i, j)] = Fraction(c)
                    el.add_term(M.pair_index[(i, j)], Fraction(c))
    return linfty.mc_linfty(S, A, m) == M.mc_residual(el)


def obstruction_job(rng):
    """The worked x/y instance has class (1/2) y (x) t^2 and does not lift; a
    gauge translate of 0 over a random small extension lifts, with a
    certified MC lift."""
    from defalg import dgla, generators
    from defalg.core import Element, GradedBasis

    ext = dgla.SmallExtension(
        dgla.ArtinDg(GradedBasis.of(("t", 0), ("t2", 0)), {(0, 0): Element.basis_vector(1)}, {}),
        ["t2"],
    )
    Lxy = dgla.DGLA(GradedBasis.of(("x", 1), ("y", 2)), {(0, 0): Element.basis_vector(1)}, {})
    res = dgla.obstruction_class(Lxy, ext, dgla.TensorDgla(Lxy, ext.quotient).vector("x", "t"))
    if res["vanishes"] or res["classes"]["t2"] != [Fraction(1, 2)]:
        return False

    while True:
        L = generators.random_dgla(rng)
        A = generators.random_classical_artin(rng)
        socle = [
            i
            for i in range(len(A.basis))
            if all(
                A.product(Element.basis_vector(i), Element.basis_vector(j)).is_zero()
                for j in range(len(A.basis))
            )
        ]
        if socle:
            break
    ext = dgla.SmallExtension(A, [A.basis.names[socle[0]]])
    MB = dgla.TensorDgla(L, ext.quotient)
    a = Element()
    for p in range(len(MB.basis)):
        if MB.basis.degree(p) == 0:
            c = rng.randint(-2, 2)
            if c:
                a.add_term(p, Fraction(c))
    res = dgla.obstruction_class(L, ext, MB.gauge_apply(a, Element()))
    return (
        res["vanishes"]
        and res["lift"] is not None
        and dgla.TensorDgla(L, ext.total).is_mc(res["lift"])
    )


# One cycle: the structures to check are drawn per branch of
# `random_linfty`, so the cycle's cost does not hinge on how many expensive
# cubic structures a seed happens to draw.  The cubic3 jobs are an eighth
# of the cycle and the slowest, so p90 falls inside their band.  The 18
# small gauge, MC and obstruction jobs hold the median, at about their own
# 67th percentile; with nine of them it sat at their 89th, in their sparse
# tail.  A small job's cost is set mostly by the dimensions of the DGLA and
# the Artin algebra it draws (0.2 to 14 ms), so each small slot has fixed
# dimensions (L, A): left to chance, the share of each shape in a run moved
# the median by 10%.  For the same reason the DGLA-derived structures have
# dimension 5, which keeps them above the median rather than spread across
# it.
HOMOTOPY_KINDS = (
    ("cubic3", None),
    ("gauge", (4, 1)), ("mc", (4, 2)), ("obstruction", (4, 3)),
    ("gauge", (5, 5)), ("mc", (5, 3)), ("obstruction", (5, 9)),
    ("dgla5", None),
    ("cubic3", None),
    ("gauge", (4, 9)), ("mc", (4, 9)), ("obstruction", (4, 5)),
    ("gauge", (4, 1)), ("mc", (4, 2)), ("obstruction", (4, 3)),
    ("cubic2", None),
    ("cubic3", None),
    ("gauge", (5, 5)), ("mc", (5, 3)), ("obstruction", (5, 9)),
    ("gauge", (4, 9)), ("mc", (4, 9)), ("obstruction", (4, 5)),
    ("dgla5", None),
)
HOMOTOPY_SMALL = {"gauge": gauge_job, "mc": mc_job, "obstruction": obstruction_job}


def shaped(seed, c, pos, dims):
    """Like `seeded`, for the first generator whose `random_dgla` and
    `random_classical_artin` draws, which every small job makes first, have
    the given dimensions.  The search runs when the cycle is built."""
    from defalg import generators

    for attempt in itertools.count():
        make = seeded("homotopy-battery", seed, c, f"{pos}:{attempt}")
        rng = make()
        L = generators.random_dgla(rng)
        if (len(L.basis), len(generators.random_classical_artin(rng).basis)) == dims:
            return make


def homotopy_cycle(seed, c):
    jobs = []
    for pos, (kind, dims) in enumerate(HOMOTOPY_KINDS):
        if kind in HOMOTOPY_SMALL:
            rng = shaped(seed, c, pos, dims)
            jobs.append((kind, lambda fn=HOMOTOPY_SMALL[kind], rng=rng: fn(rng())))
        else:
            pair = linfty_pair(seeded("homotopy-battery", seed, c, pos)(), kind)
            jobs.append((f"linfty-{kind}", lambda pair=pair: linfty_job(*pair)))
    return jobs


# ---------------------------------------------------------------------------
# series-lefschetz: word-keyed series and Gaussian-rational exterior algebra
# ---------------------------------------------------------------------------


def bch_job(rng, order):
    """The explicit BCH sum equals the series oracle on seeded multiples of
    two generators."""
    from defalg import freelie

    gens = ("x", "y")
    x = freelie.TensorSeries.generator(gens, order, "x").scale(_coeff(rng))
    y = freelie.TensorSeries.generator(gens, order, "y").scale(_coeff(rng))
    return freelie.bch_explicit(x, y) == freelie.bch_free(x, y)


def dsw_job(rng, k):
    """DSW projects a random series onto a Lie element and is idempotent; a
    single word of length >= 2 is not Lie.  Word lengths are fixed by the
    slot k; letters and coefficients are seeded."""
    from defalg import freelie

    gens = ("x", "y", "z")
    s = freelie.TensorSeries.zero(gens, 4)
    for length in (1, 2, 3, 4):
        s.add_term(tuple(rng.randrange(3) for _ in range(length)), _coeff(rng))
    once = freelie.dsw_project(s)
    word = tuple(rng.randrange(3) for _ in range(2 + k % 3))
    mono = freelie.TensorSeries(gens, 4, {word: _coeff(rng)})
    return (
        freelie.dsw_project(once) == once
        and freelie.is_lie(once)
        and not freelie.is_lie(mono)
    )


def identities_job(n):
    from defalg import lefschetz

    return lefschetz.identities_report(n).ok()


def lefschetz_job(rng, n, p):
    """reconstruct(decompose(v)) == v with primitive parts, for a seeded v of
    total degree p with up to four Gaussian-rational terms."""
    from defalg import lefschetz
    from defalg.scalars import GaussianScalar

    pool = [k for k in lefschetz.all_keys(n) if lefschetz.total_degree(k) == p]
    v = lefschetz.CovectorElement(n)
    for k in rng.sample(pool, min(len(pool), 4)):
        v.add_term(k, GaussianScalar.of(rng.randint(-3, 3), rng.choice((-1, 1))))
    parts = lefschetz.lefschetz_decompose(v)
    return lefschetz.reconstruct(n, parts) == v and all(
        lefschetz.is_primitive(vr) for _, vr in parts
    )


# The four large jobs are under 10% of a cycle, so the median and p90 both
# fall inside the band of small round-trip and DSW jobs.
SERIES_LARGE = (("bch7", bch_job, 7), ("identities4", identities_job, 4),
                ("bch6", bch_job, 6), ("identities3", identities_job, 3))
SERIES_SMALL_PER_LARGE = 18


def series_cycle(seed, c):
    jobs = []
    small = 0
    for kind, fn, size in SERIES_LARGE:
        rng = seeded("series-lefschetz", seed, c, len(jobs))
        if fn is identities_job:
            jobs.append((kind, lambda size=size: identities_job(size)))
        else:
            jobs.append((kind, lambda rng=rng, size=size: bch_job(rng(), size)))
        for _ in range(SERIES_SMALL_PER_LARGE):
            # slots cycle through DSW, n = 3 and n = 4, and through every degree
            rng = seeded("series-lefschetz", seed, c, len(jobs))
            k, small = small, small + 1
            if k % 3 == 0:
                jobs.append(("dsw", lambda rng=rng, k=k: dsw_job(rng(), k)))
            else:
                n = 2 + k % 3
                p = (k // 3) % (2 * n + 1)
                jobs.append((f"lefschetz{n}",
                             lambda rng=rng, n=n, p=p: lefschetz_job(rng(), n, p)))
    return jobs


# ---------------------------------------------------------------------------
# cli-cold: fresh `python -m defalg.cli` processes
# ---------------------------------------------------------------------------

# Each sample input through its subcommand; all of them pass (exit 0).
CLI_SAMPLES = (
    ("check-dgla", "abelian_dgla.json", ()),
    ("check-dgla", "odd_square_dgla.json", ()),
    ("bch", "free_bch.json", ("--mode", "explicit", "--truncate", "4")),
    ("bch", "heisenberg.json", ("--mode", "nilpotent")),
    ("lefschetz", "covector.json", ("decompose", "--dim", "2")),
    ("delta", "polyvector.json", ()),
)
# Six rounds keep the two suite jobs, about 1 s each and their cost set by
# the suite seed, to about a quarter of a cycle's job time; with fewer, the
# few suite seeds a run draws decide its jobs_per_s.
CLI_SAMPLE_ROUNDS = 6


class Cli:
    """Runs the CLI either in a fresh interpreter or, for the traced run, in
    this process through `defalg.cli.main(argv)`.  Remembers every JSON
    output, so a repeat with the same arguments must match byte for byte."""

    def __init__(self, root, in_process):
        self.root = root
        self.in_process = in_process
        self.seen = {}
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        # a CLI user's interpreter keeps compiled modules; without the cache
        # every launch would also compile the whole library
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, argv):
        if self.in_process:
            from defalg import cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "defalg.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True,
        )
        return proc.returncode, proc.stdout

    def job(self, argv):
        code, out = self.run(argv)
        if code != 0:
            return False
        if "json" in argv:
            if json.loads(out)["status"] != "pass":
                return False
            key = tuple(argv)
            return self.seen.setdefault(key, out) == out
        return out.startswith("[PASS]")


def cli_cycle(seed, c, cli):
    suite = ("suite", "--seed", str(seed * 1000 + c), "--format", "json")
    jobs = [("suite", lambda: cli.job(suite))]
    for r in range(CLI_SAMPLE_ROUNDS):
        for fmt in ("text", "json"):
            for sub, name, extra in CLI_SAMPLES:
                path = os.path.join("inputs", name)
                argv = (sub, *extra, "--input", path, "--format", fmt)
                jobs.append((sub, lambda argv=argv: cli.job(argv)))
        if r == 0:
            # the same seed again: the output must be byte-identical
            jobs.append(("suite", lambda: cli.job(suite)))
    return jobs
