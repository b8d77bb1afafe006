"""Print frozen oracle values for tests/test_distribution.py.

Everything is mpmath at 30 significant digits.  Densities use closed-form
generators; cdf values come from integrating the y-space density from the
support edge (fully independent of the package's z-space branch algebra);
quantiles come from bisection on the symmetric-scale cdf; moments integrate
y^k against the density over l = log(y / mu), where the support edge of the
symmetric scale lies at l = +-inf (on the symmetric scale the integrand of a
lambda < 0 moment is singular at the edge, which the quadrature misses).  Each
parameter point first verifies that its density integrates to one.

    python3 tests/oracles/gen_distribution.py
"""

import mpmath as mp

mp.mp.dps = 30

SQ2PI = None

# beyond this u the integrals of the moments cut the lighter-than-power
# generators to 0 and the canonical slash to its power tail
FAR_U = mp.mpf(10) ** 12


def r_normal(u):
    return mp.exp(-u / 2) / mp.sqrt(2 * mp.pi)


def r_de(u):
    return mp.sqrt(2) / 2 * mp.exp(-mp.sqrt(2) * mp.sqrt(u))


def make_r_pe(tau):
    tau = mp.mpf(tau)
    p2 = 2 ** (-2 / tau) * mp.gamma(1 / tau) / mp.gamma(3 / tau)
    p = mp.sqrt(p2)
    c = tau / (p * 2 ** (1 + 1 / tau) * mp.gamma(1 / tau))
    return lambda u: c * mp.exp(-(mp.sqrt(u) / p) ** tau / 2)


def r_cauchy(u):
    return 1 / (mp.pi * (1 + u))


def make_r_t(tau):
    tau = mp.mpf(tau)
    c = tau ** (tau / 2) / mp.beta(mp.mpf(1) / 2, tau / 2)
    return lambda u: c * (tau + u) ** (-(tau + 1) / 2)


_LOGI_C = None


def r_logistic_i(u):
    global _LOGI_C
    if _LOGI_C is None:
        total = mp.quad(
            lambda t: mp.exp(-t * t) / (1 + mp.exp(-t * t)) ** 2, [0, 1, 3, 9, 30]
        )
        _LOGI_C = 1 / (2 * total)
    e = mp.exp(-u)
    return _LOGI_C * e / (1 + e) ** 2


def r_logistic_ii(u):
    g = mp.sqrt(u)
    e = mp.exp(-g)
    return e / (1 + e) ** 2


def r_cslash(u):
    if u == 0:
        return 1 / (2 * mp.sqrt(2 * mp.pi))
    if u > FAR_U:
        # e^(-u/2) is below 10^(-2e11); mpmath's time grows with its exponent
        return 1 / (mp.sqrt(2 * mp.pi) * u)
    return -mp.expm1(-u / 2) / (mp.sqrt(2 * mp.pi) * u)


def make_r_slash(q):
    q = mp.mpf(q)
    a = (q + 1) / 2
    amp = q * 2 ** (q / 2 - 1) / mp.sqrt(mp.pi)

    def r(u):
        if u == 0:
            return q / ((q + 1) * mp.sqrt(2 * mp.pi))
        x = u / 2
        ratio = mp.gammainc(a, 0, x, regularized=True) * mp.gamma(a) / x**a
        return amp * 2**-a * ratio

    return r


R_FUNCS = {
    "normal": r_normal,
    "double_exponential": r_de,
    "power_exponential_1.5": make_r_pe(1.5),
    "cauchy": r_cauchy,
    "student_t_4": make_r_t(4.0),
    "logistic_i": r_logistic_i,
    "logistic_ii": r_logistic_ii,
    "canonical_slash": r_cslash,
    "slash_2": make_r_slash(2.0),
}

# (label, family, mu, sigma, lam, y points, p points, moments k)
CASES = [
    ("normal_pos", "normal", 2.0, 0.5, 1.5, (0.5, 1.8, 3.2), (0.05, 0.5, 0.95), (1, 2)),
    ("cauchy_zero", "cauchy", 1.0, 1.0, 0.0, (0.2, 1.0, 7.0), (0.05, 0.5, 0.95), ()),
    ("t4_neg", "student_t_4", 3.0, 0.3, -0.7, (2.0, 3.1, 9.0), (0.05, 0.5, 0.95), (0.5,)),
    ("slash2_pos", "slash_2", 1.5, 0.8, 0.5, (0.4, 1.6, 20.0), (0.05, 0.5, 0.95), ()),
    ("logii_pos", "logistic_ii", 1.0, 0.4, 2.0, (0.3, 1.1, 2.5), (0.05, 0.5, 0.95), (1,)),
    ("pe15_zero", "power_exponential_1.5", 5.0, 1.2, 0.0, (1.0, 5.0, 40.0), (0.05, 0.5, 0.95), (1, 2)),
    ("de_neg", "double_exponential", 2.0, 0.6, -1.2, (1.0, 2.2, 30.0), (0.05, 0.5, 0.95), (1.0,)),
    ("logi_pos", "logistic_i", 1.0, 0.7, 0.8, (0.5, 1.2, 3.0), (0.05, 0.5, 0.95), (1,)),
    ("cslash_one", "canonical_slash", 1.0, 0.5, 1.0, (0.3, 1.0, 10.0), (0.05, 0.5, 0.95), (0.5,)),
]


def z_of_y(y, mu, sigma, lam):
    y, mu, sigma, lam = map(mp.mpf, (y, mu, sigma, lam))
    if lam == 0:
        return mp.log(y / mu) / sigma
    return ((y / mu) ** lam - 1) / (sigma * lam)


def y_of_z(z, mu, sigma, lam):
    mu, sigma, lam = map(mp.mpf, (mu, sigma, lam))
    if lam == 0:
        return mu * mp.exp(sigma * z)
    return mu * (1 + sigma * lam * z) ** (1 / lam)


def sym_mass(r, a, b):
    """Integral of r(z^2) over (a, b) with knots spread toward the limits."""
    return sym_mass_f(lambda t: r(t * t), a, b)


def main():
    for label, fname, mu, sigma, lam, ys, ps, ks in CASES:
        r = R_FUNCS[fname]
        mu_, sigma_, lam_ = map(mp.mpf, (mu, sigma, lam))
        if lam == 0:
            v = mp.inf
            lo_z, hi_z = -mp.inf, mp.inf
        else:
            v = 1 / (sigma_ * abs(lam_))
            lo_z, hi_z = (-v, mp.inf) if lam > 0 else (-mp.inf, v)
        norm = sym_mass(r, lo_z, hi_z)

        def pdf(y):
            y = mp.mpf(y)
            z = z_of_y(y, mu_, sigma_, lam_)
            base = y ** (lam_ - 1) / (mu_**lam_ * sigma_) if lam != 0 else 1 / (y * sigma_)
            return base * r(z * z) / norm

        heavy_log_scale = fname in (
            "cauchy",
            "student_t_4",
            "slash_2",
            "canonical_slash",
        ) and lam == 0
        if not heavy_log_scale:
            total = mp.quad(
                pdf,
                [mp.mpf("1e-12")]
                + [mu_ * mp.mpf(g) for g in ("0.125", "0.5", "1", "2", "8", "64")]
                + [mp.inf],
                maxdegree=10,
            )
            print(f"# {label}: y-space total mass = {mp.nstr(total, 20)}  (want 1)")

        for y in ys:
            val = pdf(y)
            # cdf on the symmetric scale: mass of r below z(y), normalized
            zy = z_of_y(y, mu_, sigma_, lam_)
            c = sym_mass(r, lo_z, zy) / norm
            print(f'PDF[("{label}", {y})] = {mp.nstr(val, 17)}')
            print(f'CDF[("{label}", {y})] = {mp.nstr(c, 17)}')

        for p in ps:
            # bisection on the symmetric scale: find z with mass(lo, z) = p*norm
            target = mp.mpf(p) * norm
            lo = mp.mpf(-80) if lam >= 0 else -mp.mpf(80)
            if lam > 0:
                lo = -v * (1 - mp.mpf("1e-25"))
            hi = v * (1 - mp.mpf("1e-25")) if lam < 0 else mp.mpf(80)
            assert sym_mass(r, lo_z, lo) < target < sym_mass(r, lo_z, hi)
            for _ in range(120):
                mid = (lo + hi) / 2
                if sym_mass(r, lo_z, mid) < target:
                    lo = mid
                else:
                    hi = mid
            zq = (lo + hi) / 2
            yq = y_of_z(zq, mu_, sigma_, lam_)
            print(f'QUANTILE[("{label}", {p})] = {mp.nstr(yq, 17)}')

        light = r(FAR_U) < mp.mpf(10) ** -1000
        for k in ks:
            def mint(l):
                # the density of l = log(y / mu) is e^(lam l) r(z^2) / (sigma R)
                z = l / sigma_ if lam == 0 else mp.expm1(lam_ * l) / (sigma_ * lam_)
                if light and z * z > FAR_U:
                    return mp.mpf(0)
                return mp.exp((k + lam_) * l) * r(z * z)

            # the knots of sym_mass_f, mapped from z to l inside the support
            zs = [mp.mpf(t) for t in (-40, -12, -4, -1, 0, 1, 4, 12, 40) if lo_z < t < hi_z]
            ls = [sigma_ * t if lam == 0 else mp.log1p(sigma_ * lam_ * t) / lam_ for t in zs]
            knots = [-mp.inf] + sorted(ls) + [mp.inf]
            mk = mu_**k * mp.quad(mint, knots, maxdegree=10) / (sigma_ * norm)
            print(f'MOMENT[("{label}", {k})] = {mp.nstr(mk, 17)}')
        print()


def sym_mass_f(f, a, b):
    knots = [a]
    for k in (-40, -12, -4, -1, 0, 1, 4, 12, 40):
        if (k > a) and (k < b):
            knots.append(mp.mpf(k))
    knots.append(b)
    return mp.quad(f, knots, maxdegree=10)


if __name__ == "__main__":
    main()
