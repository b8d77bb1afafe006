"""Generate frozen oracle values for tests/test_families.py.

Every generator is written down here from its closed-form definition in
mpmath arbitrary precision.  Derivatives are taken numerically (mp.diff),
cdf values by high-precision quadrature of r(t^2), and quantiles by
bisection on that quadrature cdf, so none of the expected values share a
code path with the library implementation.

Run:  python3 tests/oracles/gen_families.py
"""

import mpmath as mp

mp.mp.dps = 40


# --- closed-form generators -----------------------------------------------

def r_normal(u):
    return mp.exp(-u / 2) / mp.sqrt(2 * mp.pi)


def r_de(u):
    return mp.sqrt(2) / 2 * mp.exp(-mp.sqrt(2) * mp.sqrt(u))


def _pe_p(tau):
    tau = mp.mpf(tau)
    return 2 ** (-1 / tau) * mp.sqrt(mp.gamma(1 / tau) / mp.gamma(3 / tau))


def make_r_pe(tau):
    tau = mp.mpf(tau)
    p = _pe_p(tau)
    norm = tau / (p * 2 ** (1 + 1 / tau) * mp.gamma(1 / tau))

    def r(u):
        return norm * mp.exp(-(mp.mpf(u) ** (tau / 2)) / (2 * p**tau))

    return r


def r_cauchy(u):
    return 1 / (mp.pi * (1 + u))


def make_r_t(tau):
    tau = mp.mpf(tau)
    norm = tau ** (tau / 2) / mp.beta(mp.mpf(1) / 2, tau / 2)

    def r(u):
        return norm * (tau + u) ** (-(tau + 1) / 2)

    return r


def li_unnorm(u):
    return mp.exp(-u) / (1 + mp.exp(-u)) ** 2


C_LI = 1 / (2 * mp.quad(lambda t: li_unnorm(t * t), [0, 1, 3, 9]))
# the tail beyond 9 is ~1e-36, i.e. visible at dps=40: add it
C_LI = 1 / (1 / C_LI + 2 * mp.quad(lambda t: li_unnorm(t * t), [9, 12, mp.inf]))


def r_li(u):
    return C_LI * li_unnorm(u)


def r_lii(u):
    g = mp.sqrt(u)
    return mp.exp(-g) / (1 + mp.exp(-g)) ** 2


def r_cslash(u):
    if u == 0:
        return 1 / (2 * mp.sqrt(2 * mp.pi))
    x = mp.mpf(u) / 2
    return (1 - mp.exp(-x)) / (mp.sqrt(2 * mp.pi) * u)


def make_r_slash(q):
    q = mp.mpf(q)
    a = (q + 1) / 2
    amp = q * 2 ** (q / 2 - 1) / mp.sqrt(mp.pi)

    def r(u):
        if u == 0:
            return amp * 2 ** (-a) / a
        return amp * mp.gammainc(a, 0, mp.mpf(u) / 2) / mp.mpf(u) ** a

    return r


FAMILIES = [
    ("normal", r_normal),
    ("double_exponential", r_de),
    ("power_exponential_0.8", make_r_pe("0.8")),
    ("power_exponential_1.5", make_r_pe("1.5")),
    ("power_exponential_3", make_r_pe(3)),
    ("cauchy", r_cauchy),
    ("student_t_1.5", make_r_t("1.5")),
    ("student_t_4", make_r_t(4)),
    ("logistic_i", r_li),
    ("logistic_ii", r_lii),
    ("canonical_slash", r_cslash),
    ("slash_1", make_r_slash(1)),
    ("slash_2", make_r_slash(2)),
    ("slash_4.5", make_r_slash("4.5")),
]

# families whose r'(0+) diverges
NO_DERIV_AT_0 = {"double_exponential", "power_exponential_0.8", "power_exponential_1.5"}


def fmt(x):
    return mp.nstr(x, 17, strip_zeros=False)


def main():
    print("LOGISTIC_I_C =", fmt(C_LI))
    print()

    # the dr column pins the weight w(sqrt(u)) = -2 r'(u) / r(u), not a generator output
    print("# name -> {u: (r, dr_du)}")
    print("GENERATOR_POINTS = {")
    for name, r in FAMILIES:
        entries = []
        for u in ("0", "0.3", "2.0", "13.0"):
            uv = mp.mpf(u)
            rv = r(uv)
            if uv == 0:
                if name in NO_DERIV_AT_0:
                    dv = None
                else:
                    dv = mp.diff(r, uv, direction=1)
            else:
                dv = mp.diff(r, uv)
            dtxt = "None" if dv is None else fmt(dv)
            entries.append(f'        "{u}": ({fmt(rv)}, {dtxt}),')
        print(f'    "{name}": {{')
        print("\n".join(entries))
        print("    },")
    print("}")
    print()

    # cdf at modest arguments by quadrature: cdf(s) = 1/2 + sign(s) int_0^|s|
    print("# name -> {s: cdf}")
    print("CDF_POINTS = {")
    for name, r in FAMILIES:
        entries = []
        for s in ("-3.2", "-0.7", "1.3", "2.5"):
            sv = mp.mpf(s)
            half = mp.quad(lambda t: r(t * t), [0, abs(sv) / 2, abs(sv)])
            c = mp.mpf(1) / 2 + mp.sign(sv) * half
            entries.append(f'        "{s}": {fmt(c)},')
        print(f'    "{name}": {{')
        print("\n".join(entries))
        print("    },")
    print("}")
    print()

    # deep-tail survival: closed forms / mpmath special functions for the
    # light tails (plain quadrature cannot resolve a boundary layer that
    # spans hundreds of orders of magnitude), and quadrature with the
    # algebraic substitution t = 1/w for the heavy ones
    print("# name -> {s: survival}")
    print("TAIL_POINTS = {")

    def pe_tail(tau, s):
        tau = mp.mpf(tau)
        p = _pe_p(tau)
        x = mp.mpf(s) ** tau / (2 * p**tau)
        return mp.gammainc(1 / tau, x, mp.inf, regularized=True) / 2

    light = {
        "normal": (35, mp.erfc(35 / mp.sqrt(2)) / 2),
        "double_exponential": (300, mp.exp(-300 * mp.sqrt(2)) / 2),
        "power_exponential_0.8": (200, pe_tail("0.8", 200)),
        "power_exponential_3": (8, pe_tail(3, 8)),
        "logistic_i": (
            7,
            mp.quad(
                lambda w: r_li((7 + w / mp.mpf(7)) ** 2) / 7, [0, 3, 12, 60]
            ),
        ),
        "logistic_ii": (600, mp.exp(-600) / (1 + mp.exp(-600))),
    }
    for name, (s, val) in light.items():
        print(f'    ("{name}", {fmt(mp.mpf(s))}): {fmt(val)},')
    heavy = {
        "cauchy": "1e12",
        "student_t_1.5": "1e8",
        "student_t_4": "1e5",
        "canonical_slash": "1e6",
        "slash_2": "1e6",
        "slash_4.5": "1e3",
    }
    rmap = dict(FAMILIES)
    for name, s in heavy.items():
        r = rmap[name]
        sv = mp.mpf(s)
        # t = 1/w: integral over (s, inf) = int_0^(1/s) r(1/w^2) / w^2 dw
        val = mp.quad(lambda w: r(1 / (w * w)) / (w * w), [0, 1 / sv])
        print(f'    ("{name}", {fmt(sv)}): {fmt(val)},')
    print("}")
    print()

    # near-centre Student t survival, from the closed form
    # P(S > s) = 1/2 - I_y(1/2, tau/2) / 2 with y = s^2 / (tau + s^2)
    print("# (name, s) -> survival near s = 0")
    print("CENTRE_TAIL_POINTS = {")
    for name, tau in (("student_t_1.5", "1.5"), ("student_t_4", "4")):
        tv = mp.mpf(tau)
        for s in ("1e-9", "1e-6", "2.7e-4", "0.01", "0.3", "0.49"):
            sv = mp.mpf(s)
            y = sv * sv / (tv + sv * sv)
            val = mp.mpf(1) / 2 - mp.betainc(mp.mpf(1) / 2, tv / 2, 0, y, regularized=True) / 2
            print(f'    ("{name}", {s}): {fmt(val)},')
    print("}")
    print()

    # quantiles for the families without closed-form inverses, by bisection
    # on the quadrature cdf
    print("# (name, p) -> quantile")
    print("QUANTILE_POINTS = {")
    quant_fams = [
        "power_exponential_1.5",
        "student_t_4",
        "logistic_i",
        "canonical_slash",
        "slash_2",
    ]
    for name in quant_fams:
        r = rmap[name]

        def cdf_half(s):
            # mass of (0, s)
            if s == 0:
                return mp.mpf(0)
            return mp.quad(lambda t: r(t * t), [0, s / 2, s])

        for p in ("0.001", "0.3", "0.77", "0.999999"):
            pv = mp.mpf(p)
            target = abs(pv - mp.mpf(1) / 2)
            lo, hi = mp.mpf(0), mp.mpf(1)
            while cdf_half(hi) < target:
                hi *= 2
            for _ in range(220):
                mid = (lo + hi) / 2
                if cdf_half(mid) < target:
                    lo = mid
                else:
                    hi = mid
            qv = (lo + hi) / 2
            if pv < mp.mpf(1) / 2:
                qv = -qv
            print(f'    ("{name}", "{p}"): {fmt(qv)},')
    print("}")
    print()

    # weight function and its z-derivative from r alone, numerically:
    # w(z) = -2 r'(z^2)/r(z^2)
    print("# (name, z) -> (weight, dweight_dz)")
    print("WEIGHT_POINTS = {")
    for name, r in FAMILIES:
        def w(z):
            u = z * z
            return -2 * mp.diff(r, u) / r(u)

        for z in ("0.35", "0.7", "2.3"):
            zv = mp.mpf(z)
            wv = w(zv)
            dv = mp.diff(w, zv)
            print(f'    ("{name}", "{z}"): ({fmt(wv)}, {fmt(dv)}),')
    print("}")
    print()

    # the power exponential tail at large tau, where x = (s / p)^tau / 2 leaves
    # the double range though the tail does not, from mpmath's gammainc at
    # 60 digits at the double nearest each s (there a relative error e in s
    # moves the tail by about tau x e); the s run from the bulk to past p,
    # where the tail falls fast
    print("# (tau, s) -> survival of the power exponential")
    print("LARGE_TAU_PE_TAIL = {")
    with mp.workdps(60):
        for tau, points in (
            ("200", ("0.04", "0.5", "1.0", "1.7", "1.75")),
            ("1000", ("0.5", "0.8226", "1.7", "1.732", "1.74")),
            ("2000", ("0.5", "1.0", "1.72", "1.732", "1.736")),
        ):
            for s in points:
                print(f"    ({tau}, {s}): {fmt(pe_tail(tau, float(s)))},")
    print("}")
    print()

    # the Student t log-density toward its normal limit, from the closed
    # form at 80 digits: tau log tau / 2 - (tau + 1) log(tau + u) / 2
    # cancels about 21 of them at tau = 1e20
    print("# (tau, u) -> log r of the Student t")
    print("LARGE_TAU_LOG_R = {")
    with mp.workdps(80):
        for tau in ("1e4", "1e8", "1e12", "1e16", "1e20"):
            tv = mp.mpf(tau)
            for u in ("0", "0.3", "13.0"):
                uv = mp.mpf(u)
                val = tv / 2 * mp.log(tv) - mp.log(mp.beta(mp.mpf(1) / 2, tv / 2)) - (tv + 1) / 2 * mp.log(tv + uv)
                print(f'    ({tau}, {u}): {fmt(val)},')
    print("}")


if __name__ == "__main__":
    main()
