"""Tests for loss ledgers, calibration, fidelity, timing, and Rabi decay."""

import csv
import decimal
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from iongrating.detection import (DetectionConfig, LossLedger, RabiModel,
                                  adaptive_timing, bright_fidelity_analytic,
                                  dark_fidelity_mc, emission_loss_ledger,
                                  histogram_sim, improved_loss_ledger,
                                  measured_loss_ledger, rabi_thermal,
                                  ratio_method, save_ledger)


# ---------------------------------------------------------------------------
# Loss ledger

def test_empty_ledger():
    assert LossLedger().total() == (0.0, 0.0)


def test_measured_budget_total():
    db, sigma = measured_loss_ledger().total()
    assert db == pytest.approx(-47.68, abs=1e-9)
    assert sigma == pytest.approx(0.11, abs=0.005)


def test_emission_budget_total():
    db, sigma = emission_loss_ledger().total()
    assert db == pytest.approx(-47.9, abs=1e-9)
    assert sigma == pytest.approx(0.7, abs=1e-9)


def test_improved_budget_total():
    db, sigma = improved_loss_ledger().total()
    assert db == pytest.approx(-28.1, abs=1e-9)
    assert sigma == 0.0


def test_ledger_order_independent():
    a = LossLedger()
    a.add("x", -3.0, 0.3)
    a.add("y", -5.0, 0.4)
    b = LossLedger()
    b.add("y", -5.0, 0.4)
    b.add("x", -3.0, 0.3)
    assert a.total() == b.total()


def test_ledger_fraction():
    ledger = LossLedger()
    ledger.add("half", -3.0103)
    assert ledger.fraction() == pytest.approx(0.5, rel=1e-4)


def test_ledger_csv_round_trip(tmp_path):
    ledger = measured_loss_ledger()
    path = tmp_path / "ledger.csv"
    save_ledger(ledger, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["label", "db", "sigma_db"]
    back = LossLedger()
    for row in rows:
        back.add(row["label"], float(row["db"]), float(row["sigma_db"]))
    assert back.total() == ledger.total()
    assert [e.label for e in back.entries] == [e.label
                                               for e in ledger.entries]


# ---------------------------------------------------------------------------
# Ratio method

def test_ratio_method_calibration():
    value, sigma = ratio_method(9.24e-3, 0.22e-3, 1.85e-3, 0.02e-3)
    assert value == pytest.approx(1.71e-5, rel=0.005)
    assert sigma == pytest.approx(0.04e-5, rel=0.15)


def test_ratio_method_identity_and_zero_sigma():
    value, sigma = ratio_method(9.24e-3, 0.0, 1.0, 0.0)
    assert value == 9.24e-3
    assert sigma == 0.0


def test_ratio_method_rejects_nonpositive():
    with pytest.raises(ValueError):
        ratio_method(0.0, 0.1, 0.5, 0.1)
    with pytest.raises(ValueError):
        ratio_method(0.5, 0.1, -1.0, 0.1)


# ---------------------------------------------------------------------------
# Detection config and fidelities

def test_config_validation():
    with pytest.raises(ValueError):
        DetectionConfig(bright_rate=-1.0)
    with pytest.raises(ValueError):
        DetectionConfig(window=0.0)
    for field in ("bright_rate", "dark_rate", "window"):
        with pytest.raises(ValueError):
            DetectionConfig(**{field: float("nan")})
    with pytest.raises(ValueError):
        DetectionConfig(threshold=0)
    with pytest.raises(ValueError):
        DetectionConfig(bins=0)
    # a fractional count threshold or bin number is refused by name
    for field in ("threshold", "bins"):
        with pytest.raises(ValueError, match=field):
            DetectionConfig(**{field: 2.5})
    with pytest.raises(ValueError):
        DetectionConfig(shelving_failure=1.5)


def test_signal_to_background():
    assert DetectionConfig().signal_to_background == pytest.approx(36.7,
                                                                   abs=0.05)


def test_bright_fidelity_analytic():
    cfg = DetectionConfig()
    assert cfg.poisson_mean == pytest.approx(2.376)
    fid = bright_fidelity_analytic(cfg)
    assert fid == pytest.approx(1.0 - np.exp(-cfg.poisson_mean), rel=1e-12)
    assert fid == pytest.approx(0.907, abs=0.001)
    assert bright_fidelity_analytic(DetectionConfig(bright_rate=0.0)) == 0.0


def _exact_poisson_tails(mu: float, thresholds: int) -> list:
    """P(N >= k) for k = 1 .. ``thresholds`` at the binary value of ``mu``,
    in one pass of 400-digit decimal arithmetic: the smallest tail on the
    grid below, about 1e-262, keeps more than 100 correct digits."""
    ctx = decimal.Context(prec=400, Emin=-10**6)
    m = decimal.Decimal(mu)
    term, below, tails = ctx.exp(ctx.minus(m)), decimal.Decimal(0), []
    for j in range(thresholds):
        below = ctx.add(below, term)
        tails.append(ctx.subtract(1, below))
        term = ctx.divide(ctx.multiply(term, m), j + 1)
    return tails


def test_bright_fidelity_matches_exact_poisson_tail():
    # no worse than scipy's pdtrc on this grid: both stay within 2e-13 of
    # the exact tail (measured 1.28e-13 here, 1.23e-13 for pdtrc)
    means = np.concatenate([[0.0], np.logspace(-3, 3, 201)])
    thresholds = np.arange(1, 61)
    scipy_sf = poisson.sf(thresholds[:, None] - 1, means[None, :])
    worst = {"package": 0.0, "scipy": 0.0}
    for i, mu in enumerate(means):
        exact = _exact_poisson_tails(float(mu), len(thresholds))
        for k, tail in zip(thresholds, exact):
            got = {"package": bright_fidelity_analytic(DetectionConfig(
                       bright_rate=float(mu), window=1.0, threshold=int(k))),
                   "scipy": float(scipy_sf[k - 1, i])}
            for name, value in got.items():
                if tail == 0:
                    assert value == 0.0
                    continue
                rel = float(abs(decimal.Decimal(value) - tail) / tail)
                worst[name] = max(worst[name], rel)
    assert worst["package"] <= 2e-13
    assert worst["scipy"] <= 2e-13


def test_bright_fidelity_default_is_scipy_stats_poisson_bit_for_bit():
    cfg = DetectionConfig()
    assert bright_fidelity_analytic(cfg) == poisson.sf(0, cfg.poisson_mean)


@pytest.mark.parametrize("rate, threshold, expected", [
    (0.0, 1, 0.0),           # no light, no count
    (0.0, 60, 0.0),
    (1e3, 1, 1.0),           # e^-1000 underflows: certainly bright
    (1e3, 60, 1.0),
    (1e-3, 200, 0.0),        # mu^200 / 200! underflows; no overflow
    # e^-mu underflows, and the largest term mu^899 / 899! is e^990
    (1e3, 900, float(poisson.sf(899, 1e3))),
], ids=["mu-0-k-1", "mu-0-k-60", "mu-1e3-k-1", "mu-1e3-k-60",
        "mu-1e-3-k-200", "mu-1e3-k-900"])
def test_bright_fidelity_edge_cases(rate, threshold, expected):
    assert bright_fidelity_analytic(DetectionConfig(
        bright_rate=rate, window=1.0, threshold=threshold)) == \
        pytest.approx(expected, rel=1e-14, abs=0.0)


def test_cli_import_loads_only_scipy_core(heavy_after):
    # scipy.stats costs a third of the start-up of every CLI verb, and
    # scipy.integrate is needed only by a reference integral; the
    # optimize, linalg and special imports wait for the code that calls
    # them, and numpy for a verb that computes
    assert heavy_after("import iongrating.cli") == []


def test_dark_fidelity_default():
    p, sigma = dark_fidelity_mc(DetectionConfig(), trials=10**6, seed=1)
    assert p == pytest.approx(0.925, abs=0.010)
    assert sigma < 1e-3


def test_dark_fidelity_perfect_limit():
    cfg = DetectionConfig(dark_rate=0.0, d_lifetime=1e9,
                          shelving_failure=0.0)
    p, _ = dark_fidelity_mc(cfg, trials=10**4, seed=2)
    assert p == 1.0


def test_dark_decay_probability_analytic():
    cfg = DetectionConfig()
    assert 1.0 - np.exp(-cfg.window / cfg.d_lifetime) == pytest.approx(
        0.0203, abs=2e-4)


def test_dark_fidelity_monotone():
    base = DetectionConfig()
    p0, _ = dark_fidelity_mc(base, trials=2 * 10**5, seed=3)
    p1, _ = dark_fidelity_mc(DetectionConfig(dark_rate=40.0),
                             trials=2 * 10**5, seed=3)
    p2, _ = dark_fidelity_mc(DetectionConfig(window=0.03),
                             trials=2 * 10**5, seed=3)
    assert p1 < p0 and p2 < p0


def _dark_counts_reference(config, trials, rng):
    """The dark counts drawn with a fresh array per step: the oracle of
    the buffer-reusing draw."""
    shelf_failed = rng.random(trials) < config.shelving_failure
    t_decay = rng.exponential(config.d_lifetime, trials)
    bright_time = np.clip(config.window - t_decay, 0.0, None)
    bright_time[shelf_failed] = config.window
    counts = rng.poisson(config.dark_rate * config.window, trials)
    counts += rng.poisson(config.bright_rate * bright_time)
    return counts


@pytest.mark.parametrize("seed", [1, 9])
def test_dark_counts_match_fresh_array_draw(seed):
    # a shelving failure rate high enough that many trials start bright
    for cfg in (DetectionConfig(), DetectionConfig(shelving_failure=0.3)):
        hist = histogram_sim(cfg, "dark", trials=50000, seed=seed)
        rng = np.random.Generator(np.random.Philox(seed))
        ref = np.bincount(_dark_counts_reference(cfg, 50000, rng))
        assert np.array_equal(hist, ref)


def test_dark_fidelity_allocates_under_three_count_arrays():
    cfg = DetectionConfig()
    dark_fidelity_mc(cfg, trials=200000, seed=1)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        dark_fidelity_mc(cfg, trials=200000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the bright-time buffer, the counts and the second Poisson draw, 1.6
    # MB each
    assert peak - start < 5e6


def test_dark_fidelity_trial_floor():
    with pytest.raises(ValueError):
        dark_fidelity_mc(DetectionConfig(), trials=100)


# ---------------------------------------------------------------------------
# Histograms

def test_bright_histogram_poissonian():
    cfg = DetectionConfig()
    hist = histogram_sim(cfg, "bright", trials=10**5, seed=3)
    assert hist.argmax() == 2  # Poisson(2.376) mode
    n = hist.sum()
    k = np.arange(len(hist))
    expected = poisson.pmf(k, cfg.poisson_mean)
    expected[-1] += poisson.sf(len(hist) - 1, cfg.poisson_mean)
    expected *= n
    keep = expected >= 5
    obs = hist[keep].astype(float)
    exp = expected[keep] * obs.sum() / expected[keep].sum()
    assert chisquare(obs, exp).pvalue > 0.01


def test_bright_histogram_matches_analytic_tail():
    cfg = DetectionConfig()
    trials = 10**5
    hist = histogram_sim(cfg, "bright", trials=trials, seed=5)
    tail = hist[cfg.threshold:].sum() / trials
    fid = bright_fidelity_analytic(cfg)
    sigma = np.sqrt(fid * (1 - fid) / trials)
    assert abs(tail - fid) < 3 * sigma


def test_bright_histogram_zero_rate():
    hist = histogram_sim(DetectionConfig(bright_rate=0.0), "bright",
                         trials=1000, seed=6)
    assert hist.tolist() == [1000]


def test_dark_histogram_tail():
    cfg = DetectionConfig()
    hist = histogram_sim(cfg, "dark", trials=10**5, seed=4)
    tail = hist[cfg.threshold:].sum() / hist.sum()
    assert tail == pytest.approx(0.075, abs=0.01)


def test_histogram_bad_state():
    with pytest.raises(ValueError):
        histogram_sim(DetectionConfig(), "purple", trials=10, seed=0)


# ---------------------------------------------------------------------------
# Adaptive timing

def test_adaptive_timing_defaults():
    bright, mixed = adaptive_timing(DetectionConfig(), trials=10**6, seed=2)
    assert bright == pytest.approx(2.66e-3, abs=0.15e-3)
    assert mixed == pytest.approx(5.33e-3, abs=0.1e-3)
    assert mixed == pytest.approx((bright + 0.008) / 2, rel=1e-12)


def test_adaptive_timing_fast_limit():
    cfg = DetectionConfig(bright_rate=1e9)
    bright, _ = adaptive_timing(cfg, trials=10**4, seed=3)
    assert bright == pytest.approx(0.8e-3, rel=1e-9)


def test_adaptive_timing_needs_bins():
    with pytest.raises(ValueError):
        adaptive_timing(DetectionConfig(bins=1), trials=10**4, seed=0)


def test_adaptive_timing_deterministic():
    a = adaptive_timing(DetectionConfig(), trials=10**5, seed=9)
    b = adaptive_timing(DetectionConfig(), trials=10**5, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# Thermal Rabi model

def test_rabi_ground_state_undamped():
    model = RabiModel(omega0=2 * np.pi * 50e3)
    period = 2 * np.pi / model.omega0
    t = np.array([0.0, period / 2, period, 10 * period])
    p = rabi_thermal(t, model)
    assert p[0] == pytest.approx(1.0)
    assert p[1] == pytest.approx(0.0, abs=1e-12)  # half a Rabi period
    assert p[2] == pytest.approx(1.0)
    assert np.allclose(rabi_thermal(t + 500 * period, model), p, atol=1e-9)


def test_rabi_starts_at_one_and_bounded():
    model = RabiModel(omega0=2 * np.pi * 50e3, eta_ld=0.1, n_bar=19)
    assert rabi_thermal(0.0, model) == pytest.approx(1.0)
    t = np.linspace(0.0, 500e-6, 4001)
    p = rabi_thermal(t, model)
    assert np.all((p >= 0.0) & (p <= 1.0))


def test_rabi_thermal_decay_vs_cold():
    omega0 = 2 * np.pi * 50e3
    t = np.linspace(0.0, 300e-6, 3001)
    hot = rabi_thermal(t, RabiModel(omega0=omega0, eta_ld=0.1, n_bar=19))
    cold = rabi_thermal(t, RabiModel(omega0=omega0))
    late = t > 150e-6
    assert hot[late].max() - hot[late].min() < 0.5
    assert cold[late].max() - cold[late].min() > 0.99


def test_rabi_cutoff_guard():
    # the Fock cutoff follows n-bar and always keeps > 0.999 of the
    # thermal weight
    for n_bar in (0.0, 0.5, 1.0, 3.0, 19.0, 150.0):
        model = RabiModel(omega0=1.0, n_bar=n_bar)
        assert model.weights().sum() > 0.999
        assert rabi_thermal(0.0, model) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        rabi_thermal(-1.0, RabiModel(omega0=1.0))


@pytest.mark.parametrize("field", ["omega0", "eta_ld", "n_bar"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_rabi_model_rejects_nonfinite_parameters(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        RabiModel(**{"omega0": 1.0, field: value})


@pytest.mark.parametrize("t", [np.nan, np.inf, [0.0, np.nan]])
def test_rabi_rejects_nonfinite_times(t):
    with pytest.raises(ValueError, match="time must be finite"):
        rabi_thermal(t, RabiModel(omega0=1.0))


def test_rabi_model_validation():
    with pytest.raises(ValueError):
        RabiModel(omega0=1.0, eta_ld=-0.1)
    with pytest.raises(ValueError):
        RabiModel(omega0=1.0, n_bar=-1.0)
