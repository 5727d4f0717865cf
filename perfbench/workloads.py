"""The two benchmark workloads and the checks that certify their outputs.

Each workload draws its inputs once from the seed (`inputs`) and then
repeats one pass over them (`run_pass`).  A pass records its timings and
accuracy figures into a `Recorder`.  Every output is checked against a
reference that shares no arithmetic with the code under test: the
closed-form curves for the scans, `scipy.special.wofz` for the Voigt
function, e^(-nu^2) for the forward oracle, and byte equality for the
coefficient files.  A check that fails is counted and reported, never
dropped.

Library functions are looked up on the `ratfourier` package at call time,
so the wrappers that the traced run installs there see every call.
"""

import contextlib
import io
import math
import time
import warnings

import numpy as np
from scipy.special import wofz

import ratfourier as rf
import ratfourier.cli  # noqa: F401, loads rf.cli
from ratfourier import Direction, ReferenceKind, TargetKind

TWO_PI = 2.0 * math.pi
SCAN_POINTS = 1000  # the acceptance suite's grid on [-2pi, 2pi]
VOIGT_TOL = 1e-14  # tolerance of the voigt_quadrature reference

# parameter sets of the acceptance suite and the CLI presets
SINC = dict(a=0.6, k=35, sigma=2.7, M=6, h=0.04, N=28)
GDER = dict(a=2.0, sigma=5.0, M=6, h=0.078, N=55)
VOIGT = GDER  # the CLI's Voigt binding

# Ceilings for every accuracy figure.  Where the acceptance suite states
# a bound, the ceiling is that bound.  Elsewhere it sits 1.2 to 10 times
# above the worst figure seen over ten seeds when the benchmark was
# defined.  A ceiling catches gross regressions; the recorded figures,
# identical for a given seed, show the small ones.
CEILING = {
    "sinc": 3.2e-3,  # criterion 1
    "gder": 7.3e-12,  # criterion 2
    "gauss_inverse": 1e-9,  # criterion 5
    "gauss_forward": 1e-9,  # criterion 5's bound, for the same Gaussian set
    "identity": 1e-11,  # criterion 3
    "oracle": 1e-12,  # criterion 6
    "voigt_closed_form": 1e-12,  # criterion 4, K(0, 1) = e erfc(1)
    "expansion_inf_rel": 1e-9,  # the expansion oracle runs at tol 1e-10
    "sinc_high": 6.5e-3,  # coverage-preserving sinc at M >= 8: 5.27e-3 worst
}
# per damping y: (max relative error against wofz, max |residue - quadrature|)
VOIGT_CEILING = {
    1.0: (1e-13, 1e-12),  # criterion 4 bounds the quadrature gap at y = 1
    0.1: (1e-10, 1e-11),
    0.01: (3e-9, 1e-10),
    1e-4: (3e-7, 1e-10),
}


def coverage_preserving(binding, M):
    """Scale a preset to order M keeping N*h and T = 2^(M+1) h unchanged."""
    factor = 2 ** (M - binding["M"])
    return dict(binding, M=M, N=binding["N"] * factor, h=binding["h"] / factor)


def stratified(rng, lo, hi, n):
    """One uniform draw in each of n equal bins of [lo, hi].

    Quadrature cost and memory grow with |nu| and vary with x, so plain
    uniform draws would make the work of a pass depend on the seed.
    """
    return lo + (np.arange(n) + rng.random(n)) * ((hi - lo) / n)


def signed(rng, magnitudes):
    # oracle cost and memory grow with |nu|, not with its sign
    return magnitudes * rng.choice((-1.0, 1.0), len(magnitudes))


def make_params(binding):
    # the sinc preset under-covers its support on purpose (criterion 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", rf.GridCoverageWarning)
        return rf.ApproxParams(**binding)


class Recorder:
    """Operation counts, check outcomes, timings and accuracy of one pass.

    `times` keeps one list per kind of timed call ("build", "scan",
    "certify", "voigt_point"), in call order, and one for the operations
    ("op"), which together make up the whole pass.  Every pass makes the
    same calls in the same order, so the lists of two passes line up entry
    by entry.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.acc = {}
        self.times = {"build": [], "scan": [], "certify": [], "voigt_point": [], "op": []}
        self.scan_points = 0
        self._op_failed = False

    @contextlib.contextmanager
    def op(self, label):
        """One operation: counts as failed if it raises or a check misses."""
        self.attempted += 1
        self._op_failed = False
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:  # boundary: report the error and keep running
            self._op_failed = True
            self.messages.append(f"{label}: raised {type(exc).__name__}: {exc}")
        self.times["op"].append(time.perf_counter() - t0)
        if self._op_failed:
            self.failed += 1

    def check(self, name, value, ceiling):
        """Record accuracy figure `name`; it must be finite and <= ceiling."""
        value = float(value)
        self.acc[name] = max(self.acc.get(name, 0.0), value)
        if not value <= ceiling:
            self._op_failed = True
            self.messages.append(f"{name}={value:.6e} exceeds ceiling {ceiling:.1e}")

    def require(self, label, ok, detail=""):
        if not ok:
            self._op_failed = True
            self.messages.append(f"{label} failed {detail}".rstrip())

    def timed(self, kind, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.times[kind].append(time.perf_counter() - t0)
        return result

    def build(self, binding, target, direction=Direction.FORWARD):
        params = make_params(binding)
        return self.timed("build", lambda: rf.compute_coefficients(
            rf.sample_grid(target, params), direction))

    def scan(self, coeffs, ref):
        self.scan_points += SCAN_POINTS
        return self.timed("scan", rf.error_scan, coeffs, ref, -TWO_PI, TWO_PI,
                          SCAN_POINTS).max_abs_diff

    def certify_voigt(self, coeffs, xs, y, tag):
        """What `ratfourier voigt` does per point: the residue sum and its
        quadrature reference; checked against wofz and against each other."""
        with self.op(f"voigt {tag}"):
            residue, quadrature = np.empty(len(xs)), np.empty(len(xs))
            for i, x in enumerate(xs.tolist()):
                t0 = time.perf_counter()
                point = rf.VoigtPoint(x, y)
                residue[i] = rf.voigt_residue(coeffs, point)
                t1 = time.perf_counter()
                quadrature[i] = rf.voigt_quadrature(point, VOIGT_TOL)
                t2 = time.perf_counter()
                self.times["voigt_point"].append(t2 - t0)
                self.times["certify"].append(t2 - t1)
            exact = wofz(xs + 1j * y).real
            rel_ceiling, quad_ceiling = VOIGT_CEILING[y]
            self.check(f"voigt_wofz_rel.{tag}",
                       np.max(np.abs(residue - exact) / exact), rel_ceiling)
            self.check(f"voigt_vs_quadrature.{tag}",
                       np.max(np.abs(residue - quadrature)), quad_ceiling)


def y_tag(y):
    return f"y{y:g}"


def roundtrip(rec, coeffs, workdir, stem):
    """save -> load -> save must reproduce the first file byte for byte."""
    with rec.op(f"roundtrip {stem}"):
        first, second = workdir / f"{stem}.json", workdir / f"{stem}.again.json"
        rf.save_coefficients(coeffs, first)
        loaded = rf.load_coefficients(first)
        rf.save_coefficients(loaded, second)
        rec.require(f"roundtrip {stem}", first.read_bytes() == second.read_bytes(),
                    "(files differ)")
        rec.require(f"roundtrip {stem} arrays",
                    all(np.array_equal(getattr(loaded, n), getattr(coeffs, n))
                        for n in ("alpha", "beta", "gamma")))


def run_cli(argv):
    """Call ratfourier.cli.main in-process; returns (exit code, key=value dict)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = rf.cli.main(argv)
    fields = dict(line.split("=", 1) for line in out.getvalue().split()
                  if "=" in line)
    return code, fields


class Presets:
    """The paper's published cases at M = 6, certified by the oracles, and
    `ratfourier voigt` over seeded x at y = 1, 0.1, 0.01 and 1e-4."""

    name = "presets"
    voigt_ys = (1.0, 0.1, 0.01, 1e-4)

    def inputs(self, seed, small):
        rng = np.random.default_rng(seed)
        n_oracle, n_expansion, n_ident, n_voigt = (2, 1, 20, 2) if small else (10, 8, 200, 250)
        return dict(
            oracle_nu=signed(rng, stratified(rng, 0.0, 3.0, n_oracle)),
            expansion_nu=signed(rng, stratified(rng, 0.0, TWO_PI, n_expansion)),
            ident_t=rng.uniform(-100.0, 100.0, (12, n_ident)),
            voigt_x={y: stratified(rng, -TWO_PI, TWO_PI, n_voigt) for y in self.voigt_ys},
            cli_nu=float(rng.uniform(-3.0, 3.0)),
            cli_seed=int(rng.integers(2**31)),
            cli_voigt_n=4 if small else 16,
        )

    def run_pass(self, inp, rec, workdir):
        sets = {}
        for tag, binding, target, ref, direction in (
                ("sinc", SINC, TargetKind.RECT_SURROGATE, ReferenceKind.SINC,
                 Direction.FORWARD),
                ("gder", GDER, TargetKind.GAUSSIAN_DERIVATIVE, ReferenceKind.NU_GAUSS,
                 Direction.FORWARD),
                ("gauss_inverse", GDER, TargetKind.GAUSSIAN, ReferenceKind.GAUSS,
                 Direction.INVERSE)):
            with rec.op(f"scan {tag}"):
                sets[tag] = rec.build(binding, target, direction)
                rec.check(tag, rec.scan(sets[tag], ref), CEILING[tag])
        for tag, coeffs in sets.items():
            roundtrip(rec, coeffs, workdir, tag)

        for M, ts in enumerate(inp["ident_t"], start=1):
            with rec.op(f"identity M={M}"):
                rec.check("identity", max(abs(rf.viete_product(t, M) - rf.cosine_sum(t, M))
                                          for t in ts.tolist()), CEILING["identity"])

        self._certify(inp, rec)

        with rec.op("voigt build"):
            gauss = rec.build(VOIGT, TargetKind.GAUSSIAN)
        for y in self.voigt_ys:
            rec.certify_voigt(gauss, inp["voigt_x"][y], y, y_tag(y))
        with rec.op("voigt closed form"):
            rec.check("voigt_closed_form",
                      abs(rf.voigt_residue(gauss, rf.VoigtPoint(0.0, 1.0))
                          - math.e * math.erfc(1.0)), CEILING["voigt_closed_form"])

        self._cli(inp, rec, workdir)

    def _certify(self, inp, rec):
        spec = rf.QuadratureSpec(lo=-8.0, hi=8.0, tol=1e-13)
        for nu in inp["oracle_nu"].tolist():
            with rec.op(f"oracle nu={nu:.6g}"):
                value = rec.timed("certify", rf.fourier_forward_quadrature,
                                  TargetKind.GAUSSIAN, 0.0, nu, spec)
                rec.check("oracle", abs(value - math.exp(-nu * nu)), CEILING["oracle"])

        # criterion 7's integrals: the expansion over [0, inf) must equal the
        # closed-form approximant; the gap to [0, 2a] is reported, and it
        # must shrink as sigma grows
        spec = rf.QuadratureSpec(lo=-8.0, hi=8.0, tol=1e-10)
        gaps = []
        for sigma in (1.0, 2.7, 5.0):
            with rec.op(f"expansion sigma={sigma:g}"):
                coeffs = rec.build(dict(SINC, sigma=sigma), TargetKind.RECT_SURROGATE)
                gap = 0.0
                for nu in inp["expansion_nu"].tolist():
                    full = rec.timed("certify", rf.damped_expansion_quadrature,
                                     coeffs, nu, math.inf, spec)
                    part = rec.timed("certify", rf.damped_expansion_quadrature,
                                     coeffs, nu, 2.0 * coeffs.params.a, spec)
                    # eval_forward carries the shift phase e^(2 pi i nu a)
                    closed = rf.eval_forward(coeffs, nu) * np.exp(-TWO_PI * 1j * nu
                                                                 * coeffs.params.a)
                    rec.check("expansion_inf_rel", abs(full - closed) / abs(closed),
                              CEILING["expansion_inf_rel"])
                    gap = max(gap, abs(full - part))
                rec.acc[f"expansion_gap.s{sigma:g}"] = gap
                gaps.append(gap)
        with rec.op("expansion gap monotone in sigma"):
            rec.require("expansion gap monotone", gaps == sorted(gaps, reverse=True),
                        f"{gaps}")

    def _cli(self, inp, rec, workdir):
        path = workdir / "cli_sinc.json"
        with rec.op("cli coeffs"):
            code, _ = run_cli(["coeffs", "--preset", "sinc", "--out", str(path)])
            rec.require("cli coeffs exit", code == 0, f"(exit {code})")
            # the library's file of the same preset, written by roundtrip()
            rec.require("cli coeffs file",
                        path.read_bytes() == (workdir / "sinc.json").read_bytes(),
                        "(differs from the library's file)")
        with rec.op("cli scan"):
            code, fields = run_cli(["scan", "--coeffs", str(path)])
            rec.require("cli scan exit", code == 0, f"(exit {code})")
            rec.require("cli scan figure", float(fields["max_abs_diff"]) == rec.acc.get("sinc"),
                        f"({fields['max_abs_diff']} != library {rec.acc.get('sinc')!r})")
        with rec.op("cli identity-check"):
            code, fields = run_cli(["identity-check", "--seed", str(inp["cli_seed"])])
            rec.require("cli identity-check exit", code == 0, f"(exit {code})")
            rec.check("cli.identity", float(fields["max_deviation"]), CEILING["identity"])
        with rec.op("cli voigt"):
            code, fields = run_cli(["voigt", "--y", "1", "--n", str(inp["cli_voigt_n"])])
            rec.require("cli voigt exit", code == 0, f"(exit {code})")
            rec.check("cli.voigt", float(fields["max_abs_diff"]), VOIGT_CEILING[1.0][1])
        with rec.op("cli oracle"):
            nu = inp["cli_nu"]
            code, fields = run_cli(["oracle", "--nu", repr(nu)])
            rec.require("cli oracle exit", code == 0, f"(exit {code})")
            value = complex(float(fields["value_re"]), float(fields["value_im"]))
            rec.check("cli.oracle", abs(value - math.exp(-nu * nu)), CEILING["oracle"])


class HighOrder:
    """gauss-derivative and sinc at M = 8 and 10 plus Gaussian sets at M = 10.

    Orders scale by the coverage-preserving rule: N = N_6 2^(M-6) and
    h = h_6 2^(6-M), so N*h and the period T stay at the preset's.  The
    ROADMAP's M=10/N=500 and M=14/N=2000 sets stop sampling at N*h = 2.4
    and 0.61, short of the 2a = 4 support, and scan at 9.4e-2 and 4.3e-1.
    M = 14 at full coverage needs N = 14080 > MAX_SAMPLES, so it is left out.
    M = 11 and 12 are left out too: their builds take about 1.3 s and 5 s,
    so a run would repeat each call too few times for its timings to settle.
    """

    name = "high-order"

    def inputs(self, seed, small):
        rng = np.random.default_rng(seed)
        return dict(
            orders=(8,) if small else (8, 10),
            gauss_M=8 if small else 10,
            voigt_x=stratified(rng, -TWO_PI, TWO_PI, 4 if small else 1000),
        )

    def run_pass(self, inp, rec, workdir):
        for M in inp["orders"]:
            for tag, binding, target, ref, ceiling in (
                    ("gder", GDER, TargetKind.GAUSSIAN_DERIVATIVE, ReferenceKind.NU_GAUSS,
                     CEILING["gder"]),
                    ("sinc", SINC, TargetKind.RECT_SURROGATE, ReferenceKind.SINC,
                     CEILING["sinc_high"])):
                with rec.op(f"scan {tag} M={M}"):
                    coeffs = rec.build(coverage_preserving(binding, M), target)
                    rec.check(f"{tag}.M{M}", rec.scan(coeffs, ref), ceiling)

        M = inp["gauss_M"]
        binding = coverage_preserving(GDER, M)
        with rec.op(f"scan gauss_inverse M={M}"):
            coeffs = rec.build(binding, TargetKind.GAUSSIAN, Direction.INVERSE)
            rec.check(f"gauss_inverse.M{M}", rec.scan(coeffs, ReferenceKind.GAUSS),
                      CEILING["gauss_inverse"])
        with rec.op(f"scan gauss_forward M={M}"):
            gauss = rec.build(binding, TargetKind.GAUSSIAN)
            rec.check(f"gauss_forward.M{M}", rec.scan(gauss, ReferenceKind.GAUSS),
                      CEILING["gauss_forward"])
        rec.certify_voigt(gauss, inp["voigt_x"], 1.0, f"{y_tag(1.0)}.M{M}")


WORKLOADS = {w.name: w for w in (Presets(), HighOrder())}

