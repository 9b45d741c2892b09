"""Why kernel shape decides convergence: the unassailable-lead certificate.

A field predictor is guaranteed to track exact matches only if one
perfect match outscores every almost-perfect entry the table could hold:
sepm > (m - 1) * seap. Fixed-ratio kernels like 2^(-d) lose that race as
the table grows; the lead-aware constructions keep it at any size.
"""

import numpy as np

from fieldpred import Kernel, certify_lead, make_kernel

print("kernel values by distance (table of 50 entries):")
print(f"{'kind':22s}" + "".join(f"d={d:<8d}" for d in range(4)))
for kind in ("pow_2", "bridge", "adj_pow_2", "newton", "decay_a"):
    k = make_kernel(kind, 50)
    row = "".join(f"{float(k.evaluate(float(d))):<10.5f}" for d in range(4))
    print(f"{kind:22s}{row}")
print()

print("certification as the table grows:")
print(f"{'m':>6s} " + " ".join(f"{kind:>10s}" for kind in ("pow_2", "bridge", "adj_pow_2", "newton")))
for m in (2, 5, 10, 100, 1000):
    flags = []
    for kind in ("pow_2", "bridge", "adj_pow_2", "newton"):
        cert = certify_lead(make_kernel(kind, m), m)
        flags.append("yes" if cert.certified else "NO")
    print(f"{m:>6d} " + " ".join(f"{f:>10s}" for f in flags))
print()

# The numbers behind one failure and one fix.
m = 100
for kind in ("pow_2", "bridge"):
    cert = certify_lead(make_kernel(kind, m), m)
    verdict = "certified" if cert.certified else "NOT certified"
    print(f"{kind} at m={m}: sepm={cert.sepm:.4f} vs maxsap={cert.maxsap:.4f} -> {verdict}")
print()

# Any shape can be repaired: splicing lifts only the perfect-match value.
base = make_kernel("gauss", m)
fixed = Kernel("spliced", float(m), base=base)
print("splicing a gauss kernel (values at d = 0, 0.5, 1, 2):")
for label, k in (("gauss", base), ("spliced", fixed)):
    values = [float(k.evaluate(d)) for d in (0.0, 0.5, 1.0, 2.0)]
    cert = certify_lead(k, m)
    print(f"  {label:8s} {np.round(values, 5)} certified={cert.certified}")
