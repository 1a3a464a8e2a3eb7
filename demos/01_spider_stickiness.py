"""Stickiness verdicts on the 3-spider.

A sample of rooted three-leaf trees lives on a 3-leg spider: each leg is
one resolved topology, the coordinate is the interior edge length.  The
per-leg moment gap theta decides where the Frechet mean sits: on the leg
with a positive gap, or stuck at the star tree when every gap is
negative.

The four summaries below are measured (mass, conditional mean) pairs
from month-grouped sequence samples of four regions; the script
reproduces their verdicts and then works through a synthetic sample end
to end.
"""

import numpy as np

from treestats import (
    SpiderMeasureSummary,
    SpiderPoint,
    SpiderSample,
    clt_interval,
    intrinsic_mean,
)

REGIONS = {
    "three continents": SpiderMeasureSummary(
        3, 0.0, (25 / 59, 16 / 59, 18 / 59), (2.3938, 2.1342, 2.8401)
    ),
    "North America": SpiderMeasureSummary(
        3, 0.0, (16 / 30, 7 / 30, 7 / 30), (1.2474, 0.9424, 0.9395)
    ),
    "Asia": SpiderMeasureSummary(
        3, 0.0, (12 / 30, 7 / 30, 21 / 30), (0.4853, 1.0976, 1.5386)
    ),
    "Europe": SpiderMeasureSummary(
        3, 0.0, (10 / 30, 6 / 30, 14 / 30), (1.7743, 0.2151, 2.5628)
    ),
}

print("=== Verdicts from published (w, nu) summaries ===")
for name, summary in REGIONS.items():
    rep = intrinsic_mean(summary)
    theta = ", ".join(f"{t:+.2f}" for t in rep.theta)
    print(f"{name:>18}: theta = ({theta})  ->  {rep.verdict}")

print()
print("=== A synthetic sample, start to finish ===")
rng = np.random.default_rng(0)
points = [SpiderPoint(1, float(u)) for u in rng.uniform(0.5, 2.5, size=18)]
points += [SpiderPoint(2, float(u)) for u in rng.uniform(0.1, 0.9, size=6)]
points += [SpiderPoint(3, float(u)) for u in rng.uniform(0.1, 0.9, size=6)]
sample = SpiderSample(3, tuple(points))

# the fields `treestats sticky` and `treestats mean` report for a t3 sample
rep = intrinsic_mean(sample)
print("leg masses w    :", [round(w, 3) for w in rep.w])
print("leg means nu    :", [round(nu, 3) for nu in rep.nu])
print("moment gaps     :", [round(t, 4) for t in rep.theta])
print("verdict         :", rep.verdict)
print("mean            :", rep.mean)
print("intrinsic sd    :", round(rep.intrinsic_sd, 4))

ci = clt_interval(sample, confidence=0.95)
print(f"95% CI on leg {ci.leg}: [{ci.lo:.4f}, {ci.hi:.4f}]")

print()
print("The net moment toward a leg at the center is minus its gap; the mean")
print("sticks exactly when every net moment is positive, every gap negative.")
print("Here leg 1's gap is positive: it pulls the mean off the center.")
