"""Detection-chain analytics: loss ledgers, calibration, state detection.

Covers dB loss bookkeeping with quadrature uncertainties, the ratio-method
efficiency calibration, analytic and Monte Carlo state-detection fidelity,
adaptive-bin readout timing, and thermal-motion Rabi dynamics.  All Monte
Carlo routines use a counter-based generator with an explicit seed.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

# defined with the configuration, which loads no numpy
from .config import DetectionConfig

__all__ = [
    "DetectionConfig", "LedgerEntry", "LossLedger", "RabiModel",
    "adaptive_timing", "bright_fidelity_analytic", "dark_fidelity_mc",
    "histogram_sim", "measured_loss_ledger", "emission_loss_ledger",
    "improved_loss_ledger", "ratio_method", "rabi_thermal", "save_ledger",
]


# ---------------------------------------------------------------------------
# Loss ledger

@dataclass
class LedgerEntry:
    label: str
    db: float
    sigma_db: float = 0.0


@dataclass
class LossLedger:
    entries: list = field(default_factory=list)

    def add(self, label: str, db: float, sigma_db: float = 0.0) -> None:
        self.entries.append(LedgerEntry(label, db, sigma_db))

    def total(self) -> tuple:
        """(sum of entries in dB, quadrature-combined uncertainty in dB)."""
        db = sum(e.db for e in self.entries)
        sigma = float(np.sqrt(sum(e.sigma_db**2 for e in self.entries)))
        return float(db), sigma

    def fraction(self) -> float:
        """Linear power fraction corresponding to the total."""
        return 10.0 ** (self.total()[0] / 10.0)


def measured_loss_ledger() -> LossLedger:
    """Detection-efficiency budget measured on the ion (count-ratio path)."""
    ledger = LossLedger()
    ledger.add("count ratio, integrated to free-space", -27.34, 0.04)
    ledger.add("free-space detection efficiency", -20.34, 0.1)
    return ledger


def emission_loss_ledger() -> LossLedger:
    """Budget assembled from the emission-profile calculation."""
    ledger = LossLedger()
    ledger.add("grating input to detector", -8.5, 0.7)
    ledger.add("detector quantum efficiency (PMT)", -5.5)
    ledger.add("collection from emission profile", -33.9)
    return ledger


def improved_loss_ledger() -> LossLedger:
    """Budget with the known hardware improvements applied."""
    ledger = LossLedger()
    ledger.add("grating input to detector", -5.0)
    ledger.add("detector quantum efficiency (SPAD)", -1.6)
    ledger.add("collection, design-matched fabrication", -21.5)
    return ledger


def save_ledger(ledger: LossLedger, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "db", "sigma_db"])
        for e in ledger.entries:
            writer.writerow([e.label, repr(e.db), repr(e.sigma_db)])


# ---------------------------------------------------------------------------
# Calibration

def ratio_method(eff_free: float, sigma_free: float,
                 ratio: float, sigma_ratio: float) -> tuple:
    """Integrated-path efficiency from the free-space calibration.

    Multiplies the free-space detection efficiency by the count ratio
    between the integrated and free-space paths; relative uncertainties
    combine in quadrature.
    """
    if eff_free <= 0 or ratio <= 0:
        raise ValueError("efficiency and ratio must be positive")
    value = eff_free * ratio
    rel = np.hypot(sigma_free / eff_free, sigma_ratio / ratio)
    return float(value), float(value * rel)


# ---------------------------------------------------------------------------
# State detection

def bright_fidelity_analytic(config: DetectionConfig) -> float:
    """P(at least ``threshold`` counts) for a bright ion, Poisson model.

    Sums the smaller tail from its largest term, so none overflows, until
    a term adds under 1e-17: up from P(N = k) when the mean is below k,
    else down from P(N = k - 1) for 1 - P(N < k), where P(N < k) < 1/2.
    """
    k, mu = config.threshold, config.poisson_mean
    if mu == 0.0:
        return 0.0
    upper = mu < k
    j = k if upper else k - 1
    term, total = math.exp(j * math.log(mu) - mu - math.lgamma(j + 1)), 0.0
    while term > 1e-17 * total:
        total += term
        j += 1 if upper else -1
        term *= mu / j if upper else (j + 1) / mu
    return total if upper else 1.0 - total


def _dark_counts(config: DetectionConfig, trials: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Counts collected from a nominally dark (shelved) ion."""
    shelf_failed = rng.random(trials) < config.shelving_failure
    # one buffer holds the decay time, the bright time, then its mean count
    t = rng.exponential(config.d_lifetime, trials)
    np.clip(np.subtract(config.window, t, out=t), 0.0, None, out=t)
    t[shelf_failed] = config.window
    del shelf_failed
    counts = rng.poisson(config.dark_rate * config.window, trials)
    counts += rng.poisson(np.multiply(config.bright_rate, t, out=t))
    return counts


def dark_fidelity_mc(config: DetectionConfig, trials: int = 10**6,
                     seed: int = 0) -> tuple:
    """Monte Carlo dark-state fidelity with its binomial uncertainty.

    Error channels: the shelving pulse fails (ion starts bright) or the
    shelved state decays during the window, scattering at the bright rate
    from the decay instant; background counts accrue regardless.
    """
    if trials < 10**4:
        raise ValueError("need at least 1e4 trials for a stable estimate")
    rng = np.random.Generator(np.random.Philox(seed))
    counts = _dark_counts(config, trials, rng)
    p = float(np.mean(counts < config.threshold))
    sigma = float(np.sqrt(max(p * (1.0 - p), 1e-300) / trials))
    return p, sigma


def histogram_sim(config: DetectionConfig, state: str, trials: int = 10**5,
                  seed: int = 0) -> np.ndarray:
    """Simulated photon-count histogram; index = counts, value = trials.

    Bright trials count signal photons only; dark trials carry the
    background and the shelving errors of :func:`dark_fidelity_mc`.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.Generator(np.random.Philox(seed))
    if state == "bright":
        counts = rng.poisson(config.poisson_mean, trials)
    elif state == "dark":
        counts = _dark_counts(config, trials, rng)
    else:
        raise ValueError(f"unknown state {state!r}")
    return np.bincount(counts)


def adaptive_timing(config: DetectionConfig, trials: int = 10**6,
                    seed: int = 0) -> tuple:
    """Mean adaptive readout times (bright, bright/dark mixed), seconds.

    The window is split into equal bins; a bright trial is classified at
    the end of the first bin containing a count.  Trials with no count in
    any bin contribute zero time (censored).  Dark trials always consume
    the full window, so the mixed mean is the average of the bright mean
    and the window.
    """
    if config.bins < 2:
        raise ValueError("adaptive readout needs at least two bins")
    rng = np.random.Generator(np.random.Philox(seed))
    bin_width = config.window / config.bins
    p_count = 1.0 - np.exp(-config.bright_rate * bin_width)
    if p_count <= 0.0:
        first = np.full(trials, config.bins + 1)
    else:
        first = rng.geometric(p_count, trials)
    detected = first <= config.bins
    times = np.where(detected, first * bin_width, 0.0)
    bright_mean = float(np.mean(times))
    mixed_mean = 0.5 * (bright_mean + config.window)
    return bright_mean, mixed_mean


# ---------------------------------------------------------------------------
# Thermal Rabi model

@dataclass
class RabiModel:
    omega0: float                 # bare Rabi frequency, rad/s
    eta_ld: float = 0.0           # Lamb-Dicke parameter
    n_bar: float = 0.0            # thermal mean occupation

    def __post_init__(self):
        if not np.all(np.isfinite([self.omega0, self.eta_ld, self.n_bar])):
            raise ValueError("omega0, eta and n-bar must be finite")
        if self.eta_ld < 0 or self.n_bar < 0:
            raise ValueError("eta and n-bar must be nonnegative")

    @property
    def n_cutoff(self) -> int:
        """Fock-state truncation: the thermal weight beyond it is at most
        (n/(n+1))^(10(n+1)+1) < e^-10, so it keeps > 0.999 of the weight."""
        return max(20, int(np.ceil(10 * (self.n_bar + 1))))

    def weights(self) -> np.ndarray:
        n = np.arange(self.n_cutoff + 1)
        return (self.n_bar / (self.n_bar + 1.0)) ** n / (self.n_bar + 1.0)


def rabi_thermal(t, model: RabiModel):
    """Ground-state population under carrier Rabi driving of a thermal ion.

    P(t) = sum_n p_n cos^2(Omega_n t / 2) with carrier frequencies
    Omega_n = Omega0 exp(-eta^2/2) L_n(eta^2); thermal weights are
    renormalized over the truncated Fock basis so P(0) = 1.
    """
    from scipy.special import eval_laguerre

    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time must be finite")
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    w = model.weights()
    w = w / w.sum()
    n = np.arange(model.n_cutoff + 1)
    eta_sq = model.eta_ld**2
    omega_n = model.omega0 * np.exp(-eta_sq / 2.0) * eval_laguerre(n, eta_sq)
    t_flat = t.reshape(-1)
    phases = 0.5 * omega_n[:, None] * t_flat[None, :]
    p = (w[:, None] * np.cos(phases) ** 2).sum(axis=0)
    return p.reshape(t.shape) if t.ndim else float(p[0])
