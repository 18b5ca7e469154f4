"""Seeded inputs and operations for the four workloads of the bml benchmark.

A workload is a list of jobs built from the seed; one job is one op of the
closed loop.  Every job carries the answer fixed when its input was built
(its label), so each op is judged on its own.  `bml` only ever sees the
generated inputs: the seed stays here.

Member series come from `reconstruct_f` with a Schwarz function whose
coefficient moduli sum to rho < 1, so the Schwarz function maps the disc
into |w| <= rho and the phase ratio stays strictly inside the target
region.  Non-members come from `construct_nonmember` on NONMEMBER_ANGLES
angles of the default grid's largest circle.  Those samples are a subset
of the default grid's, so a sample outside the region there is one of the
default grid too: the non-member certificate carries over to the grid the
ops use, at a small part of the set-up cost of the full grid.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field, replace

SCAN_ORDER = 64
NONMEMBER_ANGLES = 16  # divides the default 256; see the module docstring
CONV_METHODS = {"conv-t1": "t1", "conv-t2": "t2"}
# The closed form holds for the untruncated series under the identity
# operator; truncation at N=1024 and K=1e-8 move the sampled margin by
# under 1e-3 relative for alpha <= 0.6 and |lam| <= 1.  A wrong region or
# phase ratio moves it by order one.
EXTREMAL_R_TOL = 1e-2


@dataclass
class Answer:
    """One verdict of one op, as written to the answer record."""

    method: str
    verdict: str
    margin: float = math.nan
    witness_z: complex = complex(math.nan, math.nan)
    witness_x: complex = complex(math.nan, math.nan)
    ok: bool = False

    def record(self, workload: str, op: int, label: str) -> dict:
        return {
            "workload": workload,
            "op": op,
            "method": self.method,
            "label": label,
            "verdict": self.verdict,
            "margin": repr(self.margin),
            "witness_z": repr(self.witness_z),
            "witness_x": repr(self.witness_x),
            "ok": self.ok,
        }


def _report_answer(method, rep, label) -> Answer:
    wx = rep.witness_x if rep.witness_x is not None else complex(math.nan, math.nan)
    return Answer(method, rep.verdict, rep.margin, rep.witness_z, wx, rep.verdict == label)


# ---------------------------------------------------------------------------
# jobs


@dataclass
class CheckJob:
    """One membership check at the default grid, labelled member or non-member."""

    id: int
    method: str
    spec: object
    f: object
    label: str

    def call(self, bml, grid, fresh):
        if self.method == "direct":
            return bml.check_direct(self.f, self.spec, grid)
        if self.method == "alexander":
            return bml.check_alexander(self.f, self.spec, grid)
        return bml.check_convolution(self.f, self.spec, grid, CONV_METHODS[self.method])

    def judge(self, rep):
        return [_report_answer(self.method, rep, self.label)]


@dataclass
class SeriesJob:
    """Kernel build, reconstruction and two checks on a long truncation.

    Every call perturbs K by a relative 1e-12 per pass, so neither the
    explicit kernel build nor the membership module's kernel cache can
    reuse an earlier kernel.  An extremal job checks the boundary-hugging
    member instead of a reconstruction; its direct margin has the closed
    form (1 - alpha) cos(lam) (1 - r)/(1 + r) at the largest radius r.
    """

    id: int
    method: str
    spec: object
    order: int
    omega: object = None
    alpha: float = math.nan
    closed_margin: float = math.nan
    label: str = "member"

    def call(self, bml, grid, fresh):
        params = replace(self.spec.params, K=self.spec.params.K * (1.0 + 1e-12 * fresh))
        spec = replace(self.spec, params=params)
        if self.omega is None:
            f = bml.extremal_function(self.alpha, spec.lam, self.order)
        else:
            kernel = bml.build_kernel(params, self.order)
            f = bml.reconstruct_f(spec, self.omega, kernel, self.order, spec.kind)
        return bml.check_direct(f, spec, grid), bml.check_convolution(f, spec, grid, "t1")

    def judge(self, reps):
        direct, conv = reps
        answers = [
            _report_answer(f"{self.method}/direct", direct, self.label),
            _report_answer(f"{self.method}/conv-t1", conv, self.label),
        ]
        if self.omega is None:
            rel = abs(direct.margin - self.closed_margin) / self.closed_margin
            answers[0].ok = answers[0].ok and rel <= EXTREMAL_R_TOL
        return answers


@dataclass
class CliJob:
    """One `bml` command line; the label is the expected exit code."""

    id: int
    method: str
    argv: list
    label: int
    expect: object = None  # check of the output text beyond the exit code

    def judge(self, result):
        code, out = result
        ans = Answer(self.method, f"exit={code}", ok=code == self.label and code != 2)
        fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
        if "verdict" in fields:
            ans.verdict = fields["verdict"]
            ans.margin = float(fields["margin"])
            ans.witness_z = _parse_cli_complex(fields["witness_z"])
            if "witness_x" in fields:
                ans.witness_x = _parse_cli_complex(fields["witness_x"])
            expected = "member" if self.label == 0 else "non-member"
            ans.ok = ans.ok and ans.verdict == expected
        if self.expect is not None and code == 0:
            ans.ok = ans.ok and self.expect(out)
        return [ans]


def _parse_cli_complex(text: str) -> complex:
    re_, _, im = text.partition(",")
    return complex(float(re_), float(im or 0.0))


# ---------------------------------------------------------------------------
# running a job


@dataclass
class Workload:
    """Jobs plus the recipe they were built from (the seed-derived numbers)."""

    name: str
    jobs: list
    recipe: list
    grid: object
    root: str = ""  # checkout whose src/ the CLI children import
    work_dir: str = ""  # scratch directory for spec files and child output
    child_rss_kb: list = field(default_factory=list)

    def digest(self) -> str:
        return digest(self.recipe)

    def call(self, bml, job, fresh, inprocess):
        """Run one op; CLI ops run as a child process unless `inprocess`."""
        if not isinstance(job, CliJob):
            return job.call(bml, self.grid, fresh)
        if inprocess:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = bml.cli.main(list(job.argv))
            return code, out.getvalue()
        return self._spawn(job.argv)

    def _spawn(self, argv):
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        with open(os.path.join(self.work_dir, "stdout.txt"), "w+b") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "bml.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL,
                cwd=self.root, env=env,
            )
            # wait4 reaps the child and hands back its own rusage (peak RSS)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb.append(usage.ru_maxrss)
            out.seek(0)
            return proc.returncode, out.read().decode()


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialise {type(obj).__name__}")


# ---------------------------------------------------------------------------
# recipes: the numbers drawn from the seed, with no call into bml


def _params(rng, k_lo, k_hi):
    return dict(
        K=rng.uniform(k_lo, k_hi), theta=rng.uniform(0.5, 2.0),
        a=rng.uniform(0.5, 3.0), s=rng.uniform(0.0, 2.0),
    )


def _janowski(rng, shape):
    if shape == "half-plane":
        return dict(A=rng.uniform(-0.8, 1.0), B=-1.0)
    b = rng.uniform(-0.9, 0.6)
    return dict(A=rng.uniform(b + 0.2, 1.0), B=b)


def univalent_polynomial(rng, degree):
    """Target 1 + t_1 z + ... + t_M z^M with |t_1| > sum_{k>=2} k |t_k|.

    Then |Theta'(z) - t_1| < |t_1| on the disc, so Re(Theta'/t_1) > 0 and
    Theta is univalent (Noshiro-Warschawski).
    """
    t1 = cmath.rect(rng.uniform(0.4, 1.0), rng.uniform(-math.pi, math.pi))
    budget = rng.uniform(0.2, 0.8) * abs(t1)
    w = [rng.uniform(0.2, 1.0) for _ in range(degree - 1)]
    mods = [budget * wk / sum(w) / k for k, wk in zip(range(2, degree + 1), w)]
    return [1.0 + 0j, t1] + [cmath.rect(m, rng.uniform(-math.pi, math.pi)) for m in mods]


def _schwarz(rng, kind, real=False):
    """Two free coefficients with moduli summing to rho in [0.3, 0.7].

    Convex members need a zero linear coefficient: otherwise the
    antiderivative in `reconstruct_f` is logarithmic.
    """
    rho = rng.uniform(0.3, 0.7)
    w = [rng.uniform(0.2, 1.0) for _ in range(2)]
    if real:
        co = [rho * wk / sum(w) * rng.choice((-1.0, 1.0)) + 0j for wk in w]
    else:
        co = [cmath.rect(rho * wk / sum(w), rng.uniform(-math.pi, math.pi)) for wk in w]
    return ([0j] if kind == "convex" else []) + co


def _janowski_class(rng, kind, shape, k_lo=0.8, k_hi=1.5, real=False):
    c = dict(lam=rng.uniform(-1.2, 1.2), kind=kind, **_janowski(rng, shape))
    c.update(_params(rng, k_lo, k_hi), omega=_schwarz(rng, kind, real))
    return c


def janowski_recipe(rng):
    """Eight classes: {disc, half-plane} x {spirallike, convex}, two of each."""
    return [
        _janowski_class(rng, ("spirallike", "convex")[(i // 2) % 2], ("disc", "half-plane")[i % 2])
        for i in range(8)
    ]


def polynomial_recipe(rng):
    """Four univalent polynomial targets, two of degree 2 and two of degree 3.

    The classes are spirallike: the polygon costs the same for both kinds,
    and with convex classes (direct plus alexander on half the ops) the
    median op would sit on the edge between the ~0.4 s polygon checks and
    the ~0.2 s convolution checks, where it jumps with the inputs.
    """
    classes = []
    for degree in (2, 3, 2, 3):
        c = dict(lam=rng.uniform(-1.2, 1.2), kind="spirallike", poly=univalent_polynomial(rng, degree))
        c.update(_params(rng, 0.8, 1.5), omega=_schwarz(rng, "spirallike"))
        classes.append(c)
    return classes


def long_series_recipe(rng):
    """Two jobs at N=1024, twelve at N=256 and the near-identity extremal member.

    K in [0.1, 0.15] keeps max_kernel_order above 1024, so the operator
    image is never clamped to a shorter series.  With twelve of fifteen
    jobs at N=256 the median op is an N=256 job and the tail op an N=1024
    job, rather than whichever job sits between the two groups.
    """
    jobs = []
    for i, order in enumerate((1024, 1024) + (256,) * 12):
        c = _janowski_class(rng, ("spirallike", "convex")[i % 2], ("disc", "half-plane")[(i // 2) % 2], 0.1, 0.15)
        jobs.append(dict(c, order=order))
    alpha, lam = rng.uniform(0.0, 0.6), rng.uniform(-1.0, 1.0)
    jobs.append(dict(lam=lam, kind="spirallike", A=1.0 - 2.0 * alpha, B=-1.0, K=1e-8, theta=1.0, a=1.0, s=0.0,
                     alpha=alpha, order=1024))
    return jobs


# closed forms of the two-parameter Mittag-Leffler function, (K, theta) -> E(z)
_ML_CLOSED = {
    (1.0, 1.0): cmath.exp,
    (2.0, 1.0): lambda z: cmath.cosh(cmath.sqrt(z)),
    (1.0, 2.0): lambda z: (cmath.exp(z) - 1.0) / z,
}


def cli_recipe(rng):
    """Eight command lines per pass, in seeded order.

    Direct, conv-t1 and big-grid conv-t1 (--angles 1024 --xsamples 1024)
    checks of a member and a non-member, one reconstruct at N=1024 with
    K=0.12 and one ml-eval against a closed form.  Two of the three slow
    commands are big-grid checks, so the median op is a default-grid check
    and the tail op a slow command, whatever the number of passes.
    """
    check = _janowski_class(rng, rng.choice(("spirallike", "convex")), rng.choice(("disc", "half-plane")))
    rebuild = _janowski_class(rng, rng.choice(("spirallike", "convex")), rng.choice(("disc", "half-plane")),
                              0.12, 0.12, real=True)
    order = list(range(8))  # the eight command lines built by _cli_jobs
    rng.shuffle(order)
    return dict(
        check=check, reconstruct=rebuild,
        ml=rng.choice(sorted(_ML_CLOSED)), z=cmath.rect(rng.uniform(0.1, 2.0), rng.uniform(-math.pi, math.pi)),
        order=order,
    )


RECIPES = {
    "janowski-scan": janowski_recipe,
    "polynomial-scan": polynomial_recipe,
    "long-series": long_series_recipe,
    "cli": cli_recipe,
}
WORKLOADS = tuple(RECIPES)


def recipe(name, seed):
    if name not in RECIPES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return RECIPES[name](random.Random(f"{name}/{seed}"))


def digest(rec) -> str:
    """SHA-256 of the recipe: the same seed always gives the same digest."""
    text = json.dumps(rec, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# building the jobs


def _class_spec(bml, c):
    if "poly" in c:
        theta = bml.PolynomialTheta(tuple(c["poly"]))
    else:
        theta = bml.JanowskiTheta(c["A"], c["B"])
    params = bml.BMLParams(c["K"], c["theta"], c["a"], c["s"])
    return bml.ClassSpec(c["lam"], theta, c["kind"], params)


def _member_and_nonmember(bml, c, nonmember_grid):
    spec = _class_spec(bml, c)
    kernel = bml.build_kernel(spec.params, SCAN_ORDER)
    member = bml.reconstruct_f(spec, bml.SchwarzSpec(tuple(c["omega"])), kernel, SCAN_ORDER, c["kind"])
    return spec, member, bml.construct_nonmember(member, spec, nonmember_grid)


def _scan_jobs(bml, classes, nonmember_grid):
    jobs = []
    for c in classes:
        spec, member, nonmember = _member_and_nonmember(bml, c, nonmember_grid)
        methods = ["direct", "conv-t1", "conv-t2"] + (["alexander"] if c["kind"] == "convex" else [])
        for f, label in ((member, "member"), (nonmember, "non-member")):
            for m in methods:
                jobs.append(CheckJob(len(jobs), m, spec, f, label))
    return jobs


def _series_jobs(bml, rec):
    jobs = []
    r_max = max(bml.GridSpec().radii)
    for c in rec:
        spec = _class_spec(bml, c)
        if "alpha" in c:
            closed = (1.0 - c["alpha"]) * math.cos(c["lam"]) * (1.0 - r_max) / (1.0 + r_max)
            jobs.append(SeriesJob(len(jobs), "extremal", spec, c["order"], alpha=c["alpha"], closed_margin=closed))
        else:
            omega = bml.SchwarzSpec(tuple(c["omega"]))
            jobs.append(SeriesJob(len(jobs), f"N{c['order']}", spec, c["order"], omega))
    return jobs


def _spec_text(f) -> str:
    lines = [f"principal {f.principal.real!r} {f.principal.imag!r}"]
    lines += [f"coef {n} {c.real!r} {c.imag!r}" for n, c in enumerate(f.tail.tolist(), 1)]
    return "\n".join(lines) + "\n"


def _class_args(c):
    return [
        "--class", "spiral" if c["kind"] == "spirallike" else "convex",
        f"--A={c['A']!r}", f"--B={c['B']!r}", f"--lambda={c['lam']!r}", f"--K={c['K']!r}",
        f"--theta={c['theta']!r}", f"--a={c['a']!r}", f"--s={c['s']!r}",
    ]


def _coefficients_match(reference):
    def check(out: str) -> bool:
        got = {}
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] == "coef":
                got[int(parts[1])] = complex(float(parts[2]), float(parts[3]))
        if len(got) != reference.order:
            return False
        return all(abs(got[n] - c) <= 1e-12 * abs(c) for n, c in enumerate(reference.tail.tolist(), 1))
    return check


def _value_matches(expected):
    def check(out: str) -> bool:
        got = _parse_cli_complex(out.strip())
        return abs(got - expected) <= 1e-12 * max(1.0, abs(expected))
    return check


def _cli_jobs(bml, rec, nonmember_grid, spec_dir):
    c = rec["check"]
    _, member, nonmember = _member_and_nonmember(bml, c, nonmember_grid)
    files = {}
    for name, f in (("member", member), ("non-member", nonmember)):
        files[name] = os.path.join(spec_dir, f"{name}.spec")
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(_spec_text(f))
    exit_code = {"member": 0, "non-member": 1}
    big_grid = ["--angles", "1024", "--xsamples", "1024"]
    jobs = []
    for method, grid_args in (("direct", []), ("conv-t1", []), ("conv-t1-big", big_grid)):
        for name in ("member", "non-member"):
            argv = ["check", files[name], "--method", method.removesuffix("-big"), *_class_args(c), *grid_args]
            jobs.append(CliJob(0, f"check-{method}", argv, exit_code[name]))

    r = rec["reconstruct"]
    rspec = _class_spec(bml, r)
    order = min(1024, bml.max_kernel_order(rspec.params))
    kernel = bml.build_kernel(rspec.params, order)
    ref = bml.reconstruct_f(rspec, bml.SchwarzSpec(tuple(r["omega"])), kernel, order, r["kind"])
    omega = ",".join(repr(w.real) for w in r["omega"])
    argv = ["reconstruct", f"--omega={omega}", *_class_args(r), "--N", "1024"]
    argv[argv.index("--class")] = "--kind"
    jobs.append(CliJob(0, "reconstruct", argv, 0, _coefficients_match(ref)))

    (k, th), z = rec["ml"], rec["z"]
    argv = ["ml-eval", f"--K={k!r}", f"--theta={th!r}", "--a=1.0", "--s=0.0", f"--z={z.real!r},{z.imag!r}"]
    jobs.append(CliJob(0, "ml-eval", argv, 0, _value_matches(_ML_CLOSED[k, th](z))))

    jobs = [jobs[i] for i in rec["order"]]
    for i, job in enumerate(jobs):
        job.id = i
    return jobs


def build(bml, name, seed, root, work_dir):
    """Build the named workload from `seed`; runs construct_nonmember for check workloads."""
    rec = recipe(name, seed)
    grid = bml.GridSpec()
    nonmember_grid = bml.GridSpec(radii=grid.radii[-1:], angles=NONMEMBER_ANGLES)
    if name == "long-series":
        jobs = _series_jobs(bml, rec)
    elif name == "cli":
        jobs = _cli_jobs(bml, rec, nonmember_grid, work_dir)
    else:
        jobs = _scan_jobs(bml, rec, nonmember_grid)
    return Workload(name, jobs, rec, grid, root, work_dir)
