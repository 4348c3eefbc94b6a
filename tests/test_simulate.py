import numpy as np
import pytest

from mmfq import solve_psi, validate_model
from mmfq.errors import EmptySide, NotRecurrent
from mmfq.simulate import SimConfig, estimate_density, estimate_psi


@pytest.fixture(scope="module")
def three_phase():
    # one up phase, two down phases: a nontrivial 1x2 first-return matrix
    A = np.array([[-2.0, 1.0, 1.0], [1.0, -1.5, 0.5], [0.6, 0.2, -0.8]])
    return validate_model(A, [1.0, -0.8, -1.5])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(replications=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(replications=10, seed=1, max_time=0.0)

    @pytest.mark.parametrize("max_time", [np.inf, np.nan])
    def test_max_time_must_be_finite(self, max_time):
        # a path that drifts up would never end
        with pytest.raises(ValueError, match="max_time must be positive and finite"):
            SimConfig(replications=10, seed=1, max_time=max_time)


class TestEstimatePsi:
    def test_two_phase_certain_hit(self, two_phase):
        est = estimate_psi(two_phase, SimConfig(replications=400, seed=5))
        assert est.estimate[0, 0] == 1.0
        assert est.stderr[0, 0] == 0.0
        assert est.censored_fraction == 0.0

    def test_deterministic(self, three_phase):
        cfg = SimConfig(replications=500, seed=99)
        a = estimate_psi(three_phase, cfg)
        b = estimate_psi(three_phase, cfg)
        assert np.array_equal(a.estimate, b.estimate)
        assert np.array_equal(a.stderr, b.stderr)
        assert a.censored_fraction == b.censored_fraction

    def test_seed_changes_draws(self, three_phase):
        a = estimate_psi(three_phase, SimConfig(replications=500, seed=1))
        b = estimate_psi(three_phase, SimConfig(replications=500, seed=2))
        assert not np.array_equal(a.estimate, b.estimate)

    def test_rows_sum_with_censoring(self, three_phase):
        est = estimate_psi(three_phase, SimConfig(replications=3000, seed=17))
        assert est.estimate.sum(axis=1).max() <= 1.0
        total = est.estimate.sum(axis=1).mean() + est.censored_fraction
        assert abs(total - 1.0) <= 1.0 / 3000 + 1e-12

    def test_matches_solver_within_three_sigma(self, three_phase):
        sol = solve_psi(three_phase)
        est = estimate_psi(three_phase, SimConfig(replications=20000, seed=8))
        z = np.abs(est.estimate - sol.psi) / np.maximum(est.stderr, 1e-9)
        assert (z <= 3.0).all()

    @pytest.mark.parametrize("A, c", [([[0.0]], [-1.0]), ([[0.0]], [1.0]),
                                      ([[-1.0, 1.0], [1.0, -1.0]], [0.0, -1.0])])
    def test_one_sided_model(self, A, c):
        with pytest.raises(EmptySide):
            estimate_psi(validate_model(A, c), SimConfig(replications=10, seed=1))

    def test_stderr_scales_inverse_sqrt(self, three_phase):
        small = estimate_psi(three_phase, SimConfig(replications=1000, seed=3))
        large = estimate_psi(three_phase, SimConfig(replications=100000, seed=3))
        ratio = small.stderr.max() / large.stderr.max()
        assert 5.0 <= ratio <= 20.0  # expect about sqrt(100) = 10

    def test_z_scores_over_seeds(self, three_phase):
        # if groups of paths shared or correlated random streams, the
        # z-scores of 20 seeds would spread far wider than a standard
        # normal sample: 20 groups drawing the same numbers give a
        # variance near 20
        reps = 20000
        psi = solve_psi(three_phase).psi[0, 0]
        se = np.sqrt(psi * (1.0 - psi) / reps)
        z = np.array([(estimate_psi(three_phase, SimConfig(replications=reps, seed=s))
                       .estimate[0, 0] - psi) / se for s in range(20)])
        assert abs(z.mean()) <= 0.9  # 4 standard errors of the mean
        # 0.1% and 99.9% points of chi-square(19) / 19
        assert 0.32 <= z.var(ddof=1) <= 2.3


class TestEstimateDensity:
    def test_two_phase_decay_and_atom(self, two_phase):
        cfg = SimConfig(replications=60, seed=7, max_time=400.0, burn_in=10.0)
        est = estimate_density(two_phase, cfg, x_max=10.0, n_bins=25)
        width = est.edges[1] - est.edges[0]
        mass = est.pdf.sum() * width + est.atom.sum() + est.overflow.sum()
        assert abs(mass - 1.0) < 1e-9
        # atom only on the down phase; stationary atom there is 0.25
        assert est.atom[0] == 0.0
        assert abs(est.atom[1] - 0.25) < 0.02
        # total-level density decays like exp(-x/2)
        centers = 0.5 * (est.edges[1:] + est.edges[:-1])
        tot = est.pdf.sum(axis=1)
        keep = centers < 6.0
        slope = np.polyfit(centers[keep], np.log(tot[keep]), 1)[0]
        assert abs(slope - (-0.5)) < 0.05 * 0.5 + 0.02

    def test_deterministic(self, two_phase):
        cfg = SimConfig(replications=5, seed=11, max_time=100.0, burn_in=5.0)
        a = estimate_density(two_phase, cfg)
        b = estimate_density(two_phase, cfg)
        assert np.array_equal(a.pdf, b.pdf)
        assert np.array_equal(a.atom, b.atom)

    def test_not_recurrent(self):
        model = validate_model([[-1.0, 1.0], [1.0, -1.0]], [2.0, -1.0])
        with pytest.raises(NotRecurrent):
            estimate_density(model, SimConfig(replications=1, seed=0))

    def test_one_phase_model_is_an_atom(self):
        # the level never leaves zero: the exact law is the atom
        model = validate_model([[0.0]], [-1.0])
        cfg = SimConfig(replications=3, seed=2, max_time=50.0, burn_in=1.0)
        est = estimate_density(model, cfg, x_max=5.0, n_bins=10)
        assert est.atom.tolist() == [1.0]
        assert not est.pdf.any() and not est.overflow.any()
        assert est.pdf.shape == (10, 1)

    @pytest.mark.parametrize("x_max, n_bins", [(0.0, 10), (np.inf, 10), (np.nan, 10),
                                               (-1.0, 10), (5.0, 0), (5.0, -3)])
    def test_bad_histogram_arguments(self, two_phase, x_max, n_bins):
        cfg = SimConfig(replications=1, seed=1, max_time=10.0)
        with pytest.raises(ValueError, match="x_max|n_bins"):
            estimate_density(two_phase, cfg, x_max=x_max, n_bins=n_bins)

    def test_atoms_only_on_nonpositive_rates(self, three_phase):
        cfg = SimConfig(replications=20, seed=13, max_time=200.0, burn_in=5.0)
        est = estimate_density(three_phase, cfg)
        assert est.atom[0] == 0.0  # up phase never sits at level zero
        assert est.atom[1] > 0.0 and est.atom[2] > 0.0


# Golden values recorded from the block stream layout: the paths of each
# block of 1024 share one Philox stream, and each chunk draws 64
# exponentials, then 64 uniforms, for every path of the block still
# running, in path order.  Any implementation that consumes the streams in
# that order and repeats the per-step float expressions reproduces them
# exactly.  Every case 1a and three-phase count lies within 4 binomial
# standard errors of replications * psi.

def _case(case_id):
    from mmfq.bench import case_model
    return case_model(case_id)[0]


PSI_1A_500 = {
    20260808: [[25, 38, 68, 121, 248], [31, 34, 78, 121, 236], [52, 49, 74, 119, 206],
               [61, 86, 83, 95, 175], [124, 92, 82, 86, 116]],
    7: [[19, 31, 77, 129, 244], [21, 45, 66, 129, 239], [40, 55, 73, 118, 214],
        [66, 64, 80, 99, 191], [134, 87, 79, 72, 128]],
    -1: [[27, 44, 72, 132, 225], [29, 45, 75, 112, 239], [32, 54, 71, 114, 229],
         [79, 90, 90, 86, 155], [129, 88, 84, 81, 118]],
    2 ** 62 + 5: [[26, 36, 62, 122, 254], [29, 31, 73, 127, 240], [35, 51, 77, 123, 214],
                  [66, 86, 76, 110, 162], [142, 91, 71, 78, 118]],
}


def _assert_counts(est, counts, reps, censored):
    assert np.array_equal(est.estimate, np.array(counts) / reps)
    assert est.censored_fraction == censored


class TestPsiGolden:
    @pytest.mark.parametrize("seed", sorted(PSI_1A_500))
    def test_case_1a(self, seed):
        est = estimate_psi(_case("1a"), SimConfig(replications=500, seed=seed))
        _assert_counts(est, PSI_1A_500[seed], 500, 0.0)

    def test_three_phase(self, three_phase):
        est = estimate_psi(three_phase, SimConfig(replications=500, seed=99))
        _assert_counts(est, [[175, 325]], 500, 0.0)

    def test_case_2a_censored(self):
        # about 100 jumps by t = 50: most paths are censored in a later chunk
        est = estimate_psi(_case("2a"), SimConfig(replications=400, seed=3,
                                                  max_time=50.0))
        _assert_counts(est, [[9, 0, 0, 0, 0], [11, 1, 0, 0, 0], [8, 0, 0, 0, 0],
                             [12, 0, 0, 0, 0], [12, 1, 0, 0, 0]], 400, 0.973)

    def test_case_2a_many_chunks(self):
        # about 400 jumps by t = 200: censored paths use six or seven chunks
        est = estimate_psi(_case("2a"), SimConfig(replications=100, seed=11,
                                                  max_time=200.0))
        _assert_counts(est, [[4, 1, 0, 0, 0], [8, 1, 0, 0, 0], [11, 1, 0, 0, 0],
                             [10, 1, 0, 0, 0], [9, 1, 0, 0, 0]], 100, 0.906)

    @pytest.mark.filterwarnings("error")
    def test_few_long_paths(self):
        # 50 paths in one block, nine of them censored after about 20000
        # jumps: for the last 200 of about 320 passes, 20 paths or fewer
        # are still running
        est = estimate_psi(_case("2a"), SimConfig(replications=10, seed=1,
                                                  max_time=1e4))
        _assert_counts(est, [[6, 2, 0, 0, 0], [6, 2, 0, 0, 0], [5, 2, 2, 0, 0],
                             [4, 2, 1, 1, 0], [4, 4, 0, 0, 0]], 10, 0.18)

    def test_crossing_before_max_time(self, three_phase):
        # path 0 of seed 41 jumps at t = 0.268 and its next step, which
        # would end at t = 1.534, crosses zero at t = 0.447
        hit = estimate_psi(three_phase, SimConfig(replications=1, seed=41, max_time=1.0))
        _assert_counts(hit, [[0, 1]], 1, 0.0)
        late = estimate_psi(three_phase, SimConfig(replications=1, seed=41, max_time=0.4))
        _assert_counts(late, [[0, 0]], 1, 1.0)


def _fingerprint(est):
    """17-digit per-phase sums of pdf, bin-weighted pdf, atom and overflow."""
    k = np.arange(est.pdf.shape[0])[:, None]
    return {name: ["%.17g" % v for v in values] for name, values in (
        ("pdf", est.pdf.sum(axis=0)), ("moment", (est.pdf * k).sum(axis=0)),
        ("atom", est.atom), ("overflow", est.overflow))}


_ZEROS = ["0"] * 15


class TestDensityGolden:
    def test_oracle_settings(self):
        est = estimate_density(_case("1a"), SimConfig(replications=3, seed=20260808,
                                                      max_time=1e4, burn_in=100.0))
        assert est.total_time == 29700.0
        assert _fingerprint(est) == {
            "pdf": ["0.00054821424970958265", "0.001112575463270736",
                    "0.0015248593839268937", "0.0021954424942093411",
                    "0.003701924454863577", "0.0015098601106266585",
                    "0.0013738246318465166", "0.0019679416863483353",
                    "0.0025403339584073878", "0.0025180520734868843",
                    "0.0015619045981008287", "0.0015443218489430061",
                    "0.0021309721940182174", "0.0042042456359871931",
                    "0.008124199596574528"],
            "moment": ["0.0046854247239787915", "0.0088754565837097146",
                       "0.012039715959320548", "0.015467352590224914",
                       "0.017450489899676524", "0.0098882276915596753",
                       "0.013534880551367097", "0.019296730676165611",
                       "0.030581652850575781", "0.023961336853194723",
                       "0.014178630289029607", "0.010032552449042064",
                       "0.012872339175973805", "0.023934117990923914",
                       "0.052151165215099639"],
            "atom": ["0", "0", "0", "0", "0", "0.00047024442262902903",
                     "0.0014462304512298197", "0.0030382923350655172",
                     "0.0066841129634516109", "0.01409792696633369",
                     "0.029897829624624828", "0.062086790227564928",
                     "0.12442867612650958", "0.25051446081491779",
                     "0.50002370159161114"],
            "overflow": _ZEROS}

    def test_fine_bins_with_overflow(self):
        est = estimate_density(_case("1a"), SimConfig(replications=2, seed=7,
                                                      max_time=5000.0, burn_in=10.0),
                               x_max=3.0, n_bins=3000)
        assert est.total_time == 9980.0
        assert _fingerprint(est) == {
            "pdf": ["0.0846734340933369", "0.098497937605833724",
                    "0.10003756142999759", "0.23659812547691109",
                    "0.44176136284608264", "0.42828311865470298",
                    "0.42171247269127576", "0.37582770154646117",
                    "0.52665247797634895", "0.33472750297467591",
                    "0.85879428020079307", "0.72133679923467342",
                    "1.2573232664794187", "0.73500683821865243",
                    "1.1937790800393286"],
            "moment": ["69.978792364736393", "93.537890724246125",
                       "97.722625566240893", "212.08083365687528",
                       "177.14633187805364", "205.89417502321709",
                       "170.13141938917556", "135.162663633997",
                       "211.96907389710771", "158.10715225090883",
                       "985.24727368764957", "745.31180532972428",
                       "1445.0412352307071", "982.52235406872273",
                       "1458.3558301940811"],
            "atom": ["0", "0", "0", "0", "0", "0.00057892276787123811",
                     "0.0016198844473811489", "0.0035423890554053166",
                     "0.0077763228686290624", "0.016266508805932507",
                     "0.030011569030409243", "0.059635102157241902",
                     "0.12368073849294066", "0.24433744601257379",
                     "0.50214875335682618"],
            "overflow": ["0", "0", "0", "0", "2.1051658283825523e-05",
                         "7.7335662376064145e-05", "0.00023379072740462419",
                         "0.00038034365303160264", "0.00087240404267618205",
                         "0.0003956574657464207", "0.00021020055366056565",
                         "0.00032498124932838385", "7.1586032812501429e-05",
                         "0", "0"]}


def _dyadic_model():
    # dyadic jump probabilities make every cumulative boundary exact
    A = np.array([[-4.0, 1.0, 1.0, 2.0], [2.0, -4.0, 2.0, 0.0],
                  [0.0, 0.0, -1.0, 1.0], [1.0, 3.0, 0.0, -4.0]])
    return validate_model(A, [1.0, -1.0, 0.5, -2.0])


class TestNextPhase:
    def test_matches_bisect_left_at_boundaries(self):
        from bisect import bisect_left
        from mmfq.simulate import _jump_tables, _next_phase
        model = _dyadic_model()
        _, cum, target = _jump_tables(model)
        for k in range(model.n):
            row = cum[k][np.isfinite(cum[k])].tolist()
            us = [0.0] + [v for b in row[:-1]
                          for v in (np.nextafter(b, 0.0), b, np.nextafter(b, 1.0))]
            us = np.array(us + [np.nextafter(1.0, 0.0)])
            want = [target[k, bisect_left(row, u)] for u in us]
            assert _next_phase(cum, target, np.full(us.size, k), us).tolist() == want


def _scalar_reflected_walk(model, gen, max_time):
    """Steps (phase, t, tau, t + tau, y) of one reflected path, one at a time.

    Reads ``gen`` in chunks of 64 exponentials, then 64 uniforms; step i
    of a chunk lasts e_i / rate, cut at ``max_time``, and jumps to the
    phase found by ``bisect_left`` of u_i on the cumulative jump row of
    its phase.
    """
    from bisect import bisect_left
    from itertools import accumulate
    A, c, n = model.A, model.c.tolist(), model.n
    rows, targets = [], []
    for k in range(n):
        js = [j for j in range(n) if j != k and A[k, j] > 0]
        w = [float(A[k, j]) for j in js]
        total = sum(w)
        row = list(accumulate(x / total for x in w))
        row[-1] = 1.0
        rows.append(row)
        targets.append(js)
    ph, t, y = int(model.ip[0]), 0.0, 0.0
    steps = []
    i = 64
    while t < max_time:
        if i == 64:
            exps = gen.standard_exponential(64).tolist()
            unis = gen.random(64).tolist()
            i = 0
        tau = exps[i] / -float(A[ph, ph])
        if max_time - t < tau:
            tau = max_time - t
        steps.append((ph, t, tau, t + tau, y))
        y = max(0.0, y + c[ph] * tau)
        t += tau
        ph = targets[ph][bisect_left(rows[ph], unis[i])]
        i += 1
    return steps


def _dense_six_phase():
    # every row jumps to all five other phases
    rng = np.random.default_rng(6)
    A = rng.uniform(0.2, 2.0, size=(6, 6))
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    return validate_model(A, [1.5, 0.7, 0.0, -0.4, -1.2, -2.5])


class _BoundaryDraws:
    """Stand-in generator: every exponential is 1, and the uniforms cycle
    through ``us``."""

    def __init__(self, us):
        from itertools import cycle
        self._us = cycle(us)

    def standard_exponential(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = 1.0
        return out

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = [next(self._us) for _ in range(out.size)]
        return out


class TestReflectedSteps:
    # short walks end inside their first window; long ones span several,
    # two of them or more at the largest size.  Every phase of case 3a
    # jumps at rate 14, so at max_time 200 its walk overruns the first
    # window, sized for the steps expected at that rate, by 4 steps
    @pytest.mark.parametrize("name, max_time, n_windows", [
        ("dense6", 40.0, 1), ("dense6", 5000.0, None), ("1a", 100.0, 1),
        ("1a", 5000.0, None), ("3a", 200.0, 2)])
    def test_matches_scalar_walk(self, name, max_time, n_windows):
        from mmfq.simulate import _CHUNK, _WINDOW, _jump_tables, _reflected_steps, _stream
        model = _dense_six_phase() if name == "dense6" else _case(name)
        seed, r = 20260808, 2
        windows = list(_reflected_steps(_stream(seed, r), _jump_tables(model), model.c,
                                        int(model.ip[0]), max_time))
        got = [step for window in windows for step in zip(*(a.tolist() for a in window))]
        want = _scalar_reflected_walk(model, _stream(seed, r), max_time)
        if n_windows is None:
            assert len(want) > 2 * _WINDOW * _CHUNK
        else:
            assert len(windows) == n_windows
        assert got == want

    def test_uniforms_on_jump_boundaries(self):
        # u at, just below and just above every inner boundary: a jump
        # lands on the first entry of the row not below u
        from mmfq.simulate import _jump_tables, _reflected_steps
        model = _dyadic_model()
        tables = _jump_tables(model)
        cum = tables[1]
        bounds = sorted({b for b in cum[np.isfinite(cum)].tolist() if b < 1.0})
        us = [v for b in bounds for v in (np.nextafter(b, 0.0), b, np.nextafter(b, 1.0))]
        windows = list(_reflected_steps(_BoundaryDraws(us), tables, model.c,
                                        int(model.ip[0]), 300.0))
        got = [step for window in windows for step in zip(*(a.tolist() for a in window))]
        want = _scalar_reflected_walk(model, _BoundaryDraws(us), 300.0)
        assert len({step[0] for step in want}) == model.n
        assert got == want
