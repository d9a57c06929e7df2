"""Physical constants and isotope data.

Rate calculations run in CGS units end to end (cross sections arrive in cm^2,
diffusion coefficients in cm^2/s), so the CGS values are the primary ones.
SI twins are kept for unit audits.
"""

# Boltzmann constant
K_B_ERG = 1.380649e-16  # erg/K
K_B_J = 1.380649e-23  # J/K

# Atomic mass unit
AMU_G = 1.66053906660e-24  # g

# Isotope / molecule masses (amu)
M_RB87 = 86.909180531
M_HE4 = 4.002602
M_N2 = 28.0134

# Pressure conversion: 1 Torr = 101325/760 Pa exactly
TORR_BA = 101325.0 / 760.0 * 10.0  # barye (dyn/cm^2) per Torr
TORR_PA = 101325.0 / 760.0  # Pa per Torr

# Reference conditions for amagat density units
T_REF_K = 273.15
P_REF_TORR = 760.0

CELSIUS_OFFSET = 273.15

# Rb melting point: vapor-pressure formula switches branch here (K)
RB_MELT_K = 312.45
