"""Monte Carlo yield picture under process-parameter variation.

Every simulated chip draws one bounded deviation per cell; cells beyond
their kind's margin misfire probabilistically.  Each chip transmits 100
random messages through its faulted encoder plus decoder, and the count of
erroneous messages per chip is aggregated into a CDF.  The shipped config
is calibrated so the four zero-error probabilities land near their
reference values with the uncoded link worst and hamming84 best.

Run: python demos/04_variation_cdf.py  (about a second)
"""

import json
from importlib import resources

from sfq_ecc.ppv import SETUP_NAMES, PpvConfig, make_setup, monte_carlo

doc = json.loads(resources.files("sfq_ecc").joinpath("data/ppv_calibrated.json").read_text())
cfg = PpvConfig.from_dict(doc["config"])
print(f"spread +-{cfg.spread:.0%}, {cfg.n_chips} chips x {cfg.n_messages} messages, "
      f"misfire q={cfg.q}")
print("per-kind margins:", {k: round(v, 4) for k, v in cfg.margins.items()})

series = {}
for name in SETUP_NAMES:
    series[name] = monte_carlo(make_setup(name), cfg)

print(f"\n{'configuration':<14}{'P(N = 0)':>10}   CDF at N = 0, 1, 2, 5, 10")
for name in SETUP_NAMES:
    s = series[name]
    pts = "  ".join(f"{s.cdf[n]:.3f}" for n in (0, 1, 2, 5, 10))
    print(f"{name:<14}{s.zero_error_prob:>10.3f}   {pts}")

print("\nascii CDF (x = at most N erroneous messages, marks every 2nd N up to 20):")
for name in SETUP_NAMES:
    s = series[name]
    bar = "".join("#" if s.cdf[n] > 0.99 else str(int(s.cdf[n] * 10)) for n in range(0, 21, 2))
    print(f"{name:<14}{bar}")
print("(digits are tenths of cumulative probability; # means above 0.99)")
