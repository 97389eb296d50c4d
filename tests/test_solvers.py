"""numlaws' own solvers against SciPy, their oracle.

numlaws runs a Levenberg-Marquardt solver and Brent's root finder itself,
so SciPy is a test dependency only.  Each test solves the same problem
twice: once through the solver numlaws calls, and once with that solver
swapped for ``scipy.optimize.least_squares(method="lm")`` (MINPACK's
``lmder``) or ``brentq``, from the same start with the same tolerances.

- The root finder is ``brentq``'s, step for step: both runs must
  evaluate the same points in the same order, end the same way, and
  return bit-equal results.
- The Levenberg-Marquardt run keeps MINPACK's rules but does its own
  linear algebra for one or two unknowns, so its points may differ from
  MINPACK's in the last bits.  Both runs must end the same way:
  converged, stopped on the way to infinite parameters, or refused with
  the same message.  numlaws' SSE must be at most MINPACK's times
  (1 + 1e-12), or within 1e-28 of it for an exact fit.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, least_squares

import numlaws
from numlaws import LengthHistogram, _solvers, cutoff, fitting
from numlaws.errors import CutoffNumericError, FitFailureError

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "tests" / "data"
DIGITS = np.arange(1.0, 10.0)
# a bound on how far numlaws' SSE may end above MINPACK's
SSE_RTOL = 1e-12
SSE_ATOL = 1e-28


def scipy_lm(fun, x0, xtol, ftol, gtol, max_evaluations):
    """``least_squares(method="lm")`` on ``fun``, which gives the residuals
    and their Jacobian together.  SciPy asks for the Jacobian only at
    points it has evaluated, so each point's is kept and handed back:
    ``fun`` runs once per evaluation, as in numlaws' solver."""
    jacobians = {}

    def residuals(x):
        f, jacobians[x.tobytes()] = fun(x)
        return f

    def jac(x):
        return jacobians[x.tobytes()]

    result = least_squares(
        residuals, x0, jac=jac, method="lm", x_scale=1.0,
        xtol=xtol, ftol=ftol, gtol=gtol, max_nfev=max_evaluations,
    )
    return result.x, result.fun, result.status != 0


def scipy_brent(f, a, b, xtol):
    root, result = brentq(f, a, b, xtol=xtol, full_output=True, disp=False)
    return root, result.converged


def bits(values):
    return tuple(float(v).hex() for v in np.atleast_1d(values))


def logged_brent(solver, log):
    def run(f, a, b, xtol):
        def f_logged(y):
            log.append(bits(y))
            return f(y)

        root, converged = solver(f_logged, a, b, xtol)
        log.append(("root", bits(root), converged))
        return root, converged

    return run


def outcome(call):
    """What ``call()`` returned, or the type and message of the error it raised."""
    try:
        return call()
    except (FitFailureError, CutoffNumericError) as exc:
        return type(exc).__name__, str(exc)


def gamma_run(solver, support, observed, rate_zero):
    """One Gamma run through ``solver``: (ending, sse, evaluations).

    The ending is ``"converged"``, ``"unbounded"`` for a run stopped on
    its way to infinite parameters, or the message of the
    ``FitFailureError`` that refused the run, with no sse or count.
    """
    with mock.patch.object(fitting, "levenberg_marquardt", solver):
        try:
            sse, _, evaluations, unbounded, _ = fitting._gamma_refine(
                support, observed, np.log(support), rate_zero
            )
        except FitFailureError as exc:
            return str(exc), None, None
    return ("unbounded" if unbounded else "converged"), float(sse), evaluations


def assert_same_ending(support, observed, rate_zero, same_evaluations=False):
    ours, theirs = (
        gamma_run(solver, support, observed, rate_zero)
        for solver in (_solvers.levenberg_marquardt, scipy_lm)
    )
    (ending, sse, evaluations), (scipy_ending, scipy_sse, scipy_evaluations) = ours, theirs
    assert ending == scipy_ending
    if sse is not None:
        assert sse <= max(scipy_sse * (1 + SSE_RTOL), scipy_sse + SSE_ATOL)
    if same_evaluations:
        assert evaluations == scipy_evaluations


def solve_both(call):
    """``call()``, a cutoff solve, through each solver: (log, outcome) per solver."""
    runs = []
    for solver in (_solvers.brent, scipy_brent):
        log = []
        with mock.patch.object(cutoff, "brent", logged_brent(solver, log)):
            runs.append((log, outcome(call)))
    return runs


def assert_same_gamma_runs(support, observed):
    for rate_zero in (True, False):
        assert_same_ending(np.asarray(support, float), np.asarray(observed, float), rate_zero)


def recorded_problems(analyze):
    """The Gamma runs and cutoff solves that ``analyze()`` makes."""
    refines, solves = [], []
    refine, solve = fitting._gamma_refine, cutoff._solve

    def record_refine(support, observed, log_support, rate_zero):
        refines.append((support, observed, rate_zero))
        return refine(support, observed, log_support, rate_zero)

    def record_solve(*args):
        solves.append(args)
        return solve(*args)

    with mock.patch.object(fitting, "_gamma_refine", record_refine), \
            mock.patch.object(cutoff, "_solve", record_solve):
        analyze()
    return refines, solves


def assert_same_problems(refines, solves, same_evaluations=False):
    assert refines and solves
    for support, observed, rate_zero in refines:
        assert_same_ending(support, observed, rate_zero, same_evaluations)
    for args in solves:
        ours, theirs = solve_both(lambda: cutoff._solve(*args))
        assert ours == theirs


def analyze_text(path):
    def analyze():
        corpus = numlaws.read_text_corpus(path)
        numlaws.build_report(corpus, numlaws.AnalysisConfig(cutoff=True))

    return analyze


@pytest.mark.parametrize("name", ["sample_corpus.txt", "statement_fixture.txt"])
def test_same_runs_on_the_golden_and_fixture_inputs(name):
    """Here the evaluation counts, and with them the reported
    ``iterations``, match MINPACK's too."""
    refines, solves = recorded_problems(analyze_text(DATA_DIR / name))
    assert_same_problems(refines, solves, same_evaluations=True)


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_same_runs_on_the_benchmark_tiny_corpora(tmp_path):
    """Every tiny and degenerate corpus of the benchmark, the two known
    faults among them."""
    cases = load_workloads().tiny(1, tmp_path)
    labels = {case.label for case in cases}
    assert {"fault_a_overflow", "fault_b_nonfinite"} <= labels

    def analyze():
        for case in cases:
            case.run()

    assert_same_problems(*recorded_problems(analyze))


@pytest.mark.parametrize(
    "counts", [(0, 0, 4, 0, 0, 0, 1, 1, 0), (400, 20, 20, 20, 20, 20, 20, 30, 450)]
)
def test_same_runs_on_sparse_and_u_shaped_digits(counts):
    counts = np.array(counts, dtype=float)
    assert_same_gamma_runs(DIGITS, counts / counts.sum())


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 1000), min_size=3, max_size=18).filter(
        lambda counts: sum(c > 0 for c in counts) >= 3
    )
)
def test_same_runs_on_count_histograms(counts):
    counts = np.array(counts, dtype=float)
    assert_same_gamma_runs(np.arange(1.0, len(counts) + 1), counts / counts.sum())


@pytest.mark.parametrize("max_evaluations", [1, 2, 4])
def test_same_stop_at_the_evaluation_bound(max_evaluations):
    """A run cut short by its evaluation bound stops unconverged after as
    many evaluations as MINPACK's; the first trial step is always
    evaluated."""
    support = DIGITS
    observed = np.array([30, 17, 13, 10, 8, 7, 6, 5, 4], dtype=float) / 100
    log_support = np.log(support)
    for solver in (_solvers.levenberg_marquardt, scipy_lm):
        points = []

        def residual(theta):
            points.append(theta)
            return fitting._gamma_projection(theta, support, observed, log_support)[:2]

        _, _, converged = solver(
            residual,
            fitting._gamma_start(support, observed, log_support, rate_zero=False),
            xtol=fitting._XTOL, ftol=fitting._FTOL, gtol=fitting._FTOL,
            max_evaluations=max_evaluations,
        )
        assert converged is False
        assert len(points) == max(max_evaluations, 2)


def rosenbrock(x):
    """Rosenbrock's residuals and their Jacobian."""
    residuals = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    return residuals, np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


@pytest.mark.parametrize("max_evaluations", [2, 3, 5, 1000])
def test_fun_runs_once_per_evaluation(max_evaluations):
    """The solver keeps the Jacobian ``fun`` gave with each accepted
    point, so it never calls ``fun`` at a point twice: a run cut short
    calls it exactly as often as its bound allows, and a run to the
    minimum at (1, 1) at as many distinct points."""
    points = []

    def fun(x):
        points.append(tuple(x))
        return rosenbrock(x)

    x, residuals, converged = _solvers.levenberg_marquardt(
        fun, [-1.2, 1.0], xtol=1e-10, ftol=1e-12, gtol=1e-12,
        max_evaluations=max_evaluations,
    )
    assert np.array_equal(residuals, rosenbrock(x)[0])
    assert len(set(points)) == len(points)
    if max_evaluations < 1000:
        assert converged is False
        assert len(points) == max_evaluations
    else:
        assert converged is True
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-8)


def test_same_runs_where_the_log_rate_column_sinks_to_subnormals():
    """The full run on these lengths drives the log-rate column of the
    Jacobian to about 2e-305 before the clamp; the step follows it only
    with a subnormal damping parameter.  The fit reported is the nested
    one, as with MINPACK."""
    hist = LengthHistogram((668, 539, 640, 889))
    assert_same_gamma_runs(hist.support, hist.frequencies)
    fit = numlaws.fit_gamma(hist)
    assert fit.model.rate == 0.0
    assert fit.model.shape == pytest.approx(1.214865463635812, rel=1e-12)
    assert fit.iterations == 19


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10**9), st.floats(1e-3, 1e3), st.floats(0.05, 20.0),
       st.floats(0.0, 5.0), st.floats(1.0, 1e6))
def test_same_cutoff_solves(n, lower, alpha, rate, spread):
    upper = lower * spread
    ours, theirs = solve_both(lambda: cutoff.estimate_cutoff_gamma(n, lower, alpha, rate, upper))
    assert ours == theirs
    ours, theirs = solve_both(lambda: cutoff.estimate_cutoff_zipf(n, lower, alpha, upper))
    assert ours == theirs


def test_brent_refuses_a_bracket_without_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        _solvers.brent(lambda y: y * y + 1.0, -1.0, 1.0, xtol=1e-12)


def test_cold_start_loads_no_scipy(tmp_path):
    """Importing numlaws and analyzing the statement fixture, through the
    API and through the CLI with every output format, leaves SciPy
    unimported: it would double the start-up time."""
    code = (
        "import sys\n"
        "import numlaws\n"
        "from numlaws import cli\n"
        "corpus = numlaws.read_text_corpus(sys.argv[1])\n"
        "numlaws.report_to_json(numlaws.build_report(corpus, numlaws.AnalysisConfig(cutoff=True)))\n"
        "assert cli.main(['analyze', '--input', sys.argv[1], '--cutoff',\n"
        "                 '--out-dir', sys.argv[2], '--format', 'both']) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(DATA_DIR / "statement_fixture.txt"), str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "report.json").exists()
