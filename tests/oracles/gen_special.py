"""Print frozen oracle values for tests/test_special.py.

Everything is computed with mpmath at 40 significant digits, using mpmath's
own independent implementations (or defining integrals), never the package
under test.  Run and paste:

    python3 tests/oracles/gen_special.py
"""

import mpmath as mp

mp.mp.dps = 40


def dump(tag, pairs):
    print(f"\n{tag} = {{")
    for key, val in pairs:
        print(f'    {key!r}: {mp.nstr(val, 17)},')
    print("}")


def main():
    dump("ERF", [(x, mp.erf(x)) for x in (0.001, 0.3)])
    dump("ERFC", [(x, mp.erfc(x)) for x in (0.5, 2.0, 6.0, 15.0, 26.6)])
    dump("NORMAL_CDF", [(x, mp.ncdf(x)) for x in (-37.0, -8.0, -1.2, 0.4, 3.0)])
    dump(
        "NORMAL_QUANTILE",
        [
            (p, mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))
            for p in ("1e-300", "1e-10", "0.0013", "0.3", "0.975")
        ],
    )
    dump(
        "LOG_BETA",
        [
            ((a, b), mp.log(mp.beta(a, b)))
            for (a, b) in ((0.5, 0.5), (2.0, 3.0), (30.5, 0.2))
        ],
    )
    dump(
        "REG_LOWER_GAMMA",
        [
            ((a, x), mp.gammainc(a, 0, x, regularized=True))
            for (a, x) in ((0.5, 0.3), (2.5, 2.5), (10.0, 3.0), (3.0, 40.0), (0.4, 1e-12))
        ],
    )
    # lower_gamma_ratio(a, x) = P(a, x) * Gamma(a) / x^a
    dump(
        "LOWER_GAMMA_RATIO",
        [
            (
                (a, x),
                mp.gammainc(a, 0, x, regularized=True) * mp.gamma(a) / mp.mpf(x) ** a,
            )
            for (a, x) in ((1.5, 1e-8), (1.5, 0.5), (2.75, 9.0))
        ],
    )
    # both sides of the x = 15 bound of the fixed-length Horner series
    dump(
        "LOWER_GAMMA_RATIO_GRID",
        [
            (
                (a, x),
                mp.gammainc(a, 0, x, regularized=True) * mp.gamma(a) / mp.mpf(x) ** a,
            )
            for a in (0.5, 1.5, 2.5, 3.5)
            for x in (
                1e-300, 1e-8, 0.01, 0.5, 1.0, 2.5, 4.0, 6.5, 9.0,
                12.0, 14.0, 14.999, 15.0, 15.001, 16.0, 18.0, 20.0,
            )
        ],
    )
    dump(
        "CHI2_SURVIVAL",
        [
            (x, mp.gammainc(mp.mpf(1) / 2, mp.mpf(x) / 2, mp.inf, regularized=True))
            for x in (0.001, 3.8414588206941236, 25.0)
        ],
    )
    dump(
        "REG_INC_BETA",
        [
            ((a, b, x), mp.betainc(a, b, 0, x, regularized=True))
            for (a, b, x) in (
                (2.0, 3.0, 0.4),
                (0.5, 0.5, 0.1),
                (7.5, 2.5, 0.92),
                (2.0, 0.5, 0.3),
                (0.75, 400.0, 0.001),
            )
        ],
    )


if __name__ == "__main__":
    main()
