"""Walkthrough: the planar stance model and its compensation torques.

Builds the five-link grounded-ankle chain, pokes at the inertia matrix and
gravity vector, and shows the friction/ripple table lookups.
"""

import numpy as np

from exobench import (CompensationTables, ExoParams, StanceModel,
                      blended_torque, gravity_vector, inertia_matrix)

params = ExoParams()
print("link parameters:")
print(f"  shank {params.shank_length} m / {params.shank_mass} kg, "
      f"thigh {params.thigh_length} m / {params.thigh_mass} kg, "
      f"back {params.back_length} m / {params.back_mass} kg")

left = StanceModel("left", params)
print("\nleft-stance chain reads joints", left.perm,
      "(LA, LK, LH, RH, RK) out of (RH, RK, RA, LH, LK, LA)")

# fully vertical chain: gravity has nothing to do
q5 = np.zeros(5)
print("\ngravity torques, vertical pose:", gravity_vector(left, q5))

# lean the whole device forward ten degrees at the ankle
q5_lean = np.array([np.radians(10), 0.0, 0.0, 0.0, 0.0])
g_lean = gravity_vector(left, q5_lean)
print("gravity torques, 10 deg ankle lean:", np.round(g_lean, 3))
print("  (the ankle carries the whole stack, the swing knee almost nothing)")

B = inertia_matrix(left, q5_lean)
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
