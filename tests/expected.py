"""Fixture values frozen from oracle runs (see oracles.py for how).

Regenerating any of these with the stated oracle must reproduce the stored
number within its tolerance; test_acceptance re-runs the oracles and fails on
drift.
"""

# integral of exp(-1/(1-x^2)) over [-1, 1], adaptive Simpson at tol 1e-9
BUMP_MASS_1D = 0.44399381630365903
BUMP_MASS_1D_TOL = 1e-8

# solve exp(-r^2) = 1e-3 by bisection (tail compact of the unit Gaussian)
GAUSS_TAIL_RADIUS_1E3 = 2.6282608848784657

# smallest doubling scale with |f - f*rho_n|_{1,0,sup} < 1e-2 for the
# cut-off unit Gaussian on [-6, 6] at 1201 points
REG_ORDER_GAUSS_L0 = 4

# greedy cover of f(x) = x on [0, 1] (201 points) at raw oscillation 0.1
COVER_COUNT_LINEAR = 9
COVER_COUNT_LINEAR_MIN = 5   # Lipschitz-1 lower bound: width 0.2 per ball

# localization fixture: 8 plane-wave coordinates, amplitude 1, d=1
LOC_RANK_EPS_02 = 23
LOC_RANK_EPS_005 = 89

# measured sup |psi'| * delta for the delta=1, K=[-1,1] cut-off at the
# 8001-point dense oracle grid
CUTOFF_C1_DELTA1 = 3.3142734951959874
CUTOFF_C2_DELTA1 = 28.77254805509735

# end-to-end pinned runs (rank and scales are exact; errors carry tolerance)
PIPELINE_SCHWARTZ = {"rank": 45, "N2": 2, "certified": True}
PIPELINE_EXP_STRIPS = {"rank": 183, "N2": 4, "certified": True}

# (stage3_measured, total_measured) of the 1D reference operations, (j, l) =
# (1, 1) in the sup seminorm, by scenario and eps. Both columns come from the
# midpoint rule on the mollifier's 1/n box (oracles.convolve_midpoint, swapped
# in for mollify.convolve and pipeline.convolve): SMOOTHING_MIDPOINT_256 at
# the shipped QuadratureSpec (256 nodes per axis), which is what the package
# measured before its nodes moved onto the scan lattice, and
# SMOOTHING_CONVERGED with 16x the nodes, the scenario's quad replaced by
# QuadratureSpec(points_per_axis=1024). The 256-node rule under-resolves
# g * rho_n: the partition cut-off ramps over two thirds of a grid cell.
SMOOTHING_CONVERGED = {
    ("schwartz_1d", 0.2): (2.859080919e-3, 4.082528802e-3),
    ("schwartz_1d", 0.1): (1.935408964e-3, 2.738905282e-3),
    ("schwartz_1d", 0.05): (9.753817322e-4, 2.77877348e-3),
    ("om_finite_1d", 0.1): (2.131992374e-4, 1.754623069e-3),
}
SMOOTHING_MIDPOINT_256 = {
    ("schwartz_1d", 0.2): (2.863308592e-3, 4.081762303e-3),
    ("schwartz_1d", 0.1): (1.927972583e-3, 2.739289665e-3),
    ("schwartz_1d", 0.05): (9.725828333e-4, 2.780201322e-3),
    ("om_finite_1d", 0.1): (2.145758785e-4, 1.756343431e-3),
}
