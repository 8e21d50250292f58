"""Walkthrough: the planar stance model and its compensation torques.

Builds the five-link grounded-ankle chain, reads its gravity torques and
inertia matrix off the full stance torque, and shows the friction/ripple
table lookups.
"""

import numpy as np

from exobench import (ACTUATED_JOINTS, CompensationTables, ExoParams,
                      LookupTable1D, StanceModel, blended_torque)

params = ExoParams()
print("link parameters:")
print(f"  shank {params.shank_length} m / {params.shank_mass} kg, "
      f"thigh {params.thigh_length} m / {params.thigh_mass} kg, "
      f"back {params.back_length} m / {params.back_mass} kg")

left = StanceModel("left", params)
print("\nleft-stance chain reads joints", left.perm,
      "(LA, LK, LH, RH, RK) out of (RH, RK, RA, LH, LK, LA)")

# Flat tables leave only the chain's B(q) qdd + G(q): at qdd = 0 that is
# the gravity torque G, and a unit qdd on chain joint k adds column k of B.
flat = LookupTable1D([-1.0, 1.0], [0.0, 0.0])
no_compensation = CompensationTables(
    friction=dict.fromkeys(ACTUATED_JOINTS, flat),
    ripple=dict.fromkeys(ACTUATED_JOINTS, flat))
perm = list(left.perm)


def chain_torque(q5, qdd5):
    """The left-stance torque in chain order, for chain angles ``q5`` and
    accelerations ``qdd5``, with the gains (1, 0)."""
    q, qdd = np.zeros(6), np.zeros(6)
    q[perm], qdd[perm] = q5, qdd5
    tau = blended_torque(q, np.zeros(6), qdd, 1.0, 0.0, left, left,
                         no_compensation)
    return tau[perm]


# fully vertical chain: gravity has nothing to do
q5 = np.zeros(5)
print("\ngravity torques, vertical pose:", chain_torque(q5, np.zeros(5)))

# lean the whole device forward ten degrees at the ankle
q5_lean = np.array([np.radians(10), 0.0, 0.0, 0.0, 0.0])
g_lean = chain_torque(q5_lean, np.zeros(5))
print("gravity torques, 10 deg ankle lean:", np.round(g_lean, 3))
print("  (the ankle carries the whole stack, the swing knee almost nothing)")

B = np.column_stack([chain_torque(q5_lean, unit) - g_lean
                     for unit in np.eye(5)])
print("\ninertia matrix at that pose (kg m^2):")
print(np.round(B, 3))
eigs = np.linalg.eigvalsh(B)
print("eigenvalues:", np.round(eigs, 4), "-> positive definite")

# a full six-joint snapshot, with tables
tables = CompensationTables.default_synthetic()
q = np.array([0.2, 0.5, -0.05, -0.1, 0.3, 0.05])
qd = np.array([1.0, -2.0, 0.3, -1.0, 2.0, -0.3])
qdd = np.array([4.0, -8.0, 1.0, -4.0, 8.0, -1.0])
# gains (1, 0): all of the command comes from the left-stance chain
tau = blended_torque(q, qd, qdd, 1.0, 0.0, left, left, tables)
print("\nfull stance torque for a mid-swing snapshot (Nm):")
for name, value in zip(("RH", "RK", "RA", "LH", "LK", "LA"), tau):
    note = "" if name not in ("RA", "LA") else "   (passive ankle)"
    print(f"  {name}: {value:9.3f}{note}")
print("RA is the swing-side ankle here, so its chain share is exactly zero.")
