"""Physical constants (SI) and documented reference values.

Reference values are measured-device numbers that depend on fabricated
hardware.  They are recorded here with provenance labels for reporting and
regression metadata only; they are not design targets.
"""

C0 = 299792458.0            # speed of light [m/s]
MU0 = 1.25663706212e-6      # vacuum permeability [H/m]
EPS0 = 1.0 / (MU0 * C0**2)  # vacuum permittivity [F/m]
ETA0 = MU0 * C0             # vacuum impedance [ohm]

# Default material indices at 422 nm.  The source data does not state the
# values used; these are typical PECVD/LPCVD figures and are assumptions,
# overridable through the stack configuration.
N_SIO2 = 1.47
N_SIN = 2.05

DESIGN_WAVELENGTH = 422e-9  # m


class ReferenceValue:
    """A labeled measured/simulated reference number with provenance."""

    def __init__(self, value, unit, label):
        self.value = value
        self.unit = unit
        self.label = label

    def __repr__(self):
        return f"ReferenceValue({self.value!r} {self.unit}, {self.label!r})"


# Measured-device references (hardware-dependent; not reproducible at desk
# scale and excluded from test assertions).
MEASURED_COLLECTION_EFFICIENCY = ReferenceValue(
    4.3e-4, "", "single-mode collection efficiency measured via ion fluorescence")
EMISSION_PROFILE_COLLECTION_EFFICIENCY = ReferenceValue(
    4.1e-4, "", "collection efficiency calculated from measured emission profile")
MEASURED_TM_CROSSTALK_DB = ReferenceValue(
    -5.3, "dB", "measured TM crosstalk at the TE optimum")
MEASURED_TM_TE_RATIO = ReferenceValue(
    0.69, "", "measured TM/TE diffracted power ratio")
DESIGNED_TM_TE_RATIO = ReferenceValue(
    0.12, "", "designed TM/TE diffracted power ratio (simulation)")
DESIGNED_TM_SUPPRESSION_DB = ReferenceValue(
    -13.0, "dB", "designed TM suppression at TE maximum (simulation)")
DESIGNED_TE_TM_OFFSET = ReferenceValue(
    0.3e-6, "m", "designed TE/TM maxima offset (simulation)")
DESIGNED_TE_COLLECTION_EFFICIENCY = ReferenceValue(
    6.7e-3, "", "TE collection efficiency of the ideal design (full 3D simulation)")

# Fabrication-effect deltas (simulated, geometry-specific reference data).
FAB_DELTA_ITO_DB = ReferenceValue(-0.3, "dB", "offset ITO film on chip surface")
FAB_DELTA_DIVOT_DB = ReferenceValue(-2.9, "dB", "500 nm oxide divot in ITO gap")
FAB_DELTA_TRIANGULAR_DB = ReferenceValue(-2.3, "dB", "triangular tooth deformation")
FAB_DELTA_ELLIPSOIDAL_DB = ReferenceValue(-4.7, "dB", "ellipsoidal tooth deformation")
