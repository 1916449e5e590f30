"""High-SNR and low-SNR behavior of the effective rate.

Run:  python3 demos/04_asymptotics.py
"""

import math

from effrate import (
    AlphaMuParams,
    MisoLink,
    high_snr_validity,
    parametric_eb_n0,
    rate_exact_quadrature,
    rate_high_snr,
    rate_low_snr,
    wideband_metrics,
)

link = MisoLink(n_t=2, delay_a=0.5, branch=AlphaMuParams(alpha=4.0, mu=2.0))
required, conservative = high_snr_validity(link)
print("High-SNR asymptote (valid: %s, comfortably valid: %s)" % (required, conservative))
print("  SNR[dB]       exact    asymptote     gap[bits]")
for snr_db in (10, 20, 30, 40, 50):
    rho = 10.0 ** (snr_db / 10.0)
    exact = rate_exact_quadrature(link, rho)
    asym = rate_high_snr(link, rho)
    print("  %5d   %10.6f   %10.6f     %.3e" % (snr_db, exact, asym, abs(exact - asym)))
print("The gap decays like a power of the SNR; the asymptote slope is one")
print("bit per 3 dB, independent of the fading shape.")

print()
eb_min, s0 = wideband_metrics(link)
print("Wideband regime: minimum energy per bit %.6f (= ln 2, %.2f dB), slope %.4f" % (
    eb_min, 10.0 * math.log10(eb_min), s0))
print("  Eb/N0[dB]   wideband approx    exact (parametric)")
for target_db in (-1.0, 0.0, 1.0, 2.0):
    eb = 10.0 ** (target_db / 10.0)
    approx = rate_low_snr(link, eb)
    # bisect the SNR whose point on the exact curve spends exactly eb per bit
    lo, hi = 1e-6, 1e3
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        eb_cur, rate = parametric_eb_n0(link, mid)
        if eb_cur < eb:
            lo = mid
        else:
            hi = mid
    print("   %6.1f      %10.6f        %10.6f" % (target_db, approx, rate))
print("Near the -1.59 dB intercept the two agree; away from it the linear")
print("expansion falls behind, which is exactly its advertised domain.")
