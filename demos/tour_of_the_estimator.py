"""Walk through the estimator on one simulated dataset.

Shows the two adaptive bandwidths at a prediction site, the resulting
weights, the prediction itself, and what the fixed-bandwidth
counterpart does with the same kernels.

Run: python3 demos/tour_of_the_estimator.py
"""

import numpy as np

from spatialknn import (
    DgpParams,
    KnnParams,
    NwParams,
    gen_dataset,
    knn_bandwidth,
    knn_weights,
    predict,
    spatial_bandwidth,
)

data = gen_dataset(DgpParams(shape=(15, 15), a=5.0, sigma=0.1, seed=42))
print(f"simulated {len(data)} sites on a 15x15 lattice")
print(f"covariate range [{data.covariates.min():.2f}, {data.covariates.max():.2f}],"
      f" response range [{data.responses.min():.2f}, {data.responses.max():.2f}]")

# predict at the lattice midpoint for a covariate value we choose
s0 = np.array([0.5, 0.5])
x0 = np.array([float(np.median(data.covariates))])
params = KnnParams(k=40, k_prime=60, k1="epanechnikov", k2="parzen")

hb = knn_bandwidth(data.covariates, x0, params.k)
sb = spatial_bandwidth(data.sites, s0, params.k_prime)
print(f"\ncovariate bandwidth H (distance to {params.k}-th nearest covariate):"
      f" {hb.bandwidth:.4f}")
print(f"site bandwidth h (distance to {params.k_prime}-th nearest site):"
      f" {sb.bandwidth:.4f}")

wv = knn_weights(data, s0, x0, params)
nonzero = np.count_nonzero(wv.weights)
print(f"\n{nonzero} of {len(data)} sites get positive weight"
      f" (sum = {wv.weights.sum():.6f})")
top = np.argsort(wv.weights)[::-1][:5]
for i in top:
    print(f"  site {i}: coords {np.round(data.sites.coords[i], 3)},"
          f" x = {data.covariates[i, 0]:+.3f}, weight = {wv.weights[i]:.4f}")

yhat = predict(data, s0, x0, params)
print(f"\nadaptive prediction at s0 = {s0}, x = {x0[0]:.3f}: {yhat:.4f}")
print(f"true regression value x^2 = {x0[0] ** 2:.4f}")

# the fixed-bandwidth counterpart needs the radii spelled out
fixed = NwParams(h=hb.bandwidth, rho=sb.bandwidth, k1="epanechnikov", k2="parzen")
print(f"fixed-bandwidth prediction with the same radii: "
      f"{predict(data, s0, x0, fixed):.4f} (identical weights by construction)")

# with k = 1 and a compact covariate kernel the single nearest
# covariate sits exactly on the support boundary, where epanechnikov
# vanishes; every weight is zero and the estimator falls back on the
# overall response mean rather than dividing by zero
edge = KnnParams(k=1, k_prime=30, k1="epanechnikov", k2="parzen")
far = predict(data, s0, np.array([1e6]), edge)
print(f"\nprediction with k = 1 at x = 1e6 (all weights vanish): {far:.4f}")
print(f"response mean for comparison:                          "
      f"{data.responses.mean():.4f}")
