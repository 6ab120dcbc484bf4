"""Independent 50-digit references for the paper's displayed formulas.

Both backends of ``sharplp.precision`` evaluate the same expressions, often
in a log-domain form chosen to keep doubles in range.  These functions are
written directly from the displayed formulas in mpmath at 50 digits, not
through ``SHARPLP_PRECISION``, so they stay a separate check on both.
"""
import mpmath

DPS = 50


def _mpf(*values):
    return [mpmath.mpf(v) for v in values]


def factor(alpha, p, q=None):
    """(1 + R^q)^(p-1) (alpha^p + (1-alpha)^p), R = 2 (alpha(1-alpha))^(p/2) / b;
    q = 2/p unless given."""
    with mpmath.workdps(DPS):
        a, p = _mpf(alpha, p)
        q = 2 / p if q is None else mpmath.mpf(q)
        b = a ** p + (1 - a) ** p
        R = 2 * (a * (1 - a)) ** (p / 2) / b
        return (1 + R ** q) ** (p - 1) * b


def power_mean(x, y, q):
    """((x^q + y^q)/2)^(1/q), the geometric mean at q = 0."""
    with mpmath.workdps(DPS):
        x, y, q = _mpf(x, y, q)
        return mpmath.sqrt(x * y) if q == 0 else ((x ** q + y ** q) / 2) ** (1 / q)


def eta(s, p):
    """((1 + sqrt(s))^p + (1 - sqrt(s))^p) / 2."""
    with mpmath.workdps(DPS):
        s, p = _mpf(s, p)
        return ((1 + mpmath.sqrt(s)) ** p + (1 - mpmath.sqrt(s)) ** p) / 2


def gap(s, p):
    """eta^(1/(p-1)) + (1-s) eta^((2-p)/(p(p-1))) - 2, for p not 0 or 1."""
    with mpmath.workdps(DPS):
        e, (s, p) = eta(s, p), _mpf(s, p)
        return e ** (1 / (p - 1)) + (1 - s) * e ** ((2 - p) / (p * (p - 1))) - 2


def g_rp(s, r, p):
    """eta^(1/(p-1)) (1 + ((1-s)/eta^(2/p))^r) - 2."""
    with mpmath.workdps(DPS):
        e, (s, r, p) = eta(s, p), _mpf(s, r, p)
        return e ** (1 / (p - 1)) * (1 + ((1 - s) / e ** (2 / p)) ** r) - 2


def b(a, p):
    """a^p + (1-a)^p."""
    with mpmath.workdps(DPS):
        a, p = _mpf(a, p)
        return a ** p + (1 - a) ** p


def h(a, p):
    """(a(1-a))^(p/2)."""
    with mpmath.workdps(DPS):
        a, p = _mpf(a, p)
        return (a * (1 - a)) ** (p / 2)


def hyperbolic_fields(x, p):
    """The fields of ``sharplp.audit.HyperbolicPoint`` at x > 0, e^(2x) = a/(1-a)."""
    with mpmath.workdps(DPS):
        x, p = _mpf(x, p)
        sinh_q = mpmath.sinh((p - 1) * x)
        h = (2 * mpmath.cosh(x)) ** (-p)
        db = 2 ** (1 - p) * p * sinh_q / mpmath.cosh(x) ** (p + 1)
        ddx = (
            mpmath.cosh(x)
            * ((p - 1) * mpmath.tanh(x) - mpmath.tanh((p - 1) * x))
            / (2 * sinh_q * mpmath.tanh((p - 1) * x))
        )
        return {
            "a": mpmath.e ** (2 * x) / (1 + mpmath.e ** (2 * x)),
            "b": 2 * mpmath.cosh(p * x) * h,
            "h": h,
            "db_dx": db,
            "dh_dx": -p * mpmath.tanh(x) * h,
            "dH_db": -mpmath.sinh(x) / (2 * sinh_q),
            "ddx_dH_db": ddx,
            "d2H_db2": ddx / db,
        }


def psi(t, a):
    """(1+a)^(1+t) - (1+a^2)^t - 2^t a."""
    with mpmath.workdps(DPS):
        t, a = _mpf(t, a)
        return (1 + a) ** (1 + t) - (1 + a * a) ** t - 2 ** t * a



# The auxiliary chain after t = ((1-alpha)/alpha)^p, c = 1/p, in the paper's
# displayed forms: v', q = v''/(2c), u = t^(3-2c) q and m = -t^(1-c) w.


def v_prime(t, c):
    with mpmath.workdps(DPS):
        t, c = _mpf(t, c)
        return (
            2 * c * c - 1
            - 2 * c * c * t
            + 2 * c * (1 - 2 * c) * (c * t ** (c - 1) - (c + 1) * t ** c)
            + 2 * c * (1 - 2 * c * c) * t ** (2 * c - 1)
            + (1 - c) ** 2 * (1 + 2 * c) * t ** (2 * c)
            + c * c * (2 * c - 1) * t ** (2 * c - 2)
        )


def q_factor(t, c):
    with mpmath.workdps(DPS):
        t, c = _mpf(t, c)
        return (
            -c
            + c * (1 - 2 * c) * (c - 1) * t ** (c - 2)
            - c * (1 - 2 * c) * (c + 1) * t ** (c - 1)
            + (2 * c - 1) * (1 - 2 * c * c) * t ** (2 * c - 2)
            + (1 - c) ** 2 * (1 + 2 * c) * t ** (2 * c - 1)
            + c * (2 * c - 1) * (c - 1) * t ** (2 * c - 3)
        )


def u(t, c):
    with mpmath.workdps(DPS):
        t, c = _mpf(t, c)
        return (
            -c * t ** (3 - 2 * c)
            + c * (1 - 2 * c) * (c - 1) * t ** (1 - c)
            - c * (1 - 2 * c) * (c + 1) * t ** (2 - c)
            + (2 * c - 1) * (1 - 2 * c * c) * t
            + (1 - c) ** 2 * (1 + 2 * c) * t * t
            + c * (2 * c - 1) * (c - 1)
        )


def m(t, c):
    with mpmath.workdps(DPS):
        t, c = _mpf(t, c)
        return (
            c * (2 - c) * t ** (1 - c)
            + c * (c + 1) * t ** (2 - c)
            + 2 * (1 - 2 * c * c) * t
            + (c - 1) * (1 + 2 * c) * t * t
            + c * (2 * c - 3)
        )


# v and w as displayed, and f', g and h through X = (1+t)^2/(4t) and the second
# factor F = (1-c)(t^c+1)(1-t)/(t^c-t).  Each returns the terms whose sum is the
# function, so that a check can measure its error against the largest term
# where the sum cancels (near t = 1, where all five vanish).


def v_terms(t, c):
    with mpmath.workdps(DPS):
        t, c = _mpf(t, c)
        return [
            (2 * c * c - 1) * t,
            -c * c * t * t,
            2 * c * (1 - 2 * c) * t ** c,
            -2 * c * (1 - 2 * c) * t ** (c + 1),
            (1 - 2 * c * c) * t ** (2 * c),
            (1 - c) ** 2 * t ** (1 + 2 * c),
            -((1 - c) ** 2),
            c * c * t ** (2 * c - 1),
        ]


def w_terms(t, c):
    with mpmath.workdps(DPS):
        t, c = _mpf(t, c)
        return [
            c * (c - 2),
            -c * (c + 1) * t,
            -2 * (1 - 2 * c * c) * t ** c,
            (1 - c) * (1 + 2 * c) * t ** (c + 1),
            -c * (2 * c - 3) * t ** (c - 1),
        ]


def _x_and_f(t, c):
    X = (1 + t) ** 2 / (4 * t)
    return X, (1 - c) * (t ** c + 1) * (1 - t) / (t ** c - t)


def f_prime_terms(t, c):
    """f' = (1-c)(1-t)/(t(1+t)) (1/(X^c+1) - 1/F)."""
    with mpmath.workdps(DPS):
        t, c = _mpf(t, c)
        X, F = _x_and_f(t, c)
        scale = (1 - c) * (1 - t) / (t * (1 + t))
        return [scale / (X ** c + 1), -scale / F]


def g_terms(t, c):
    """g = X^c - (F - 1)."""
    with mpmath.workdps(DPS):
        t, c = _mpf(t, c)
        X, F = _x_and_f(t, c)
        return [X ** c, -F, mpmath.mpf(1)]


def h_terms(t, c):
    """h = c log X - log(F - 1), with F - 1 = N/D for D = t^c - t taken as
    log|N| - log|D|: near t = 1, F - 1 comes from D ~ (1-c)(1-t), and log|D|
    is the size of what cancels."""
    with mpmath.workdps(DPS):
        t, c = _mpf(t, c)
        X, _ = _x_and_f(t, c)
        D = t ** c - t
        N = (1 - c) * (t ** c + 1) * (1 - t) - D
        return [c * mpmath.log(X), -mpmath.log(abs(N)), mpmath.log(abs(D))]


def sides(f, g, w, p):
    """Both sides of the bound on one instance, with its coupling ratios:
    lhs = sum w (f+g)^p, S = sum w (f^p + g^p), N = (sum w (fg)^(p/2))^(2/p),
    gamma_tilde = N (S/2)^(-2/p), rhs = (1 + gamma_tilde)^(p-1) S,
    gamma = N / (||f||_p ||g||_p) and Carbery's rhs (1 + gamma)^(p-1) S."""
    with mpmath.workdps(DPS):
        p = mpmath.mpf(p)
        points = [_mpf(*point) for point in zip(f, g, w)]
        lhs = mpmath.fsum(wi * (fi + gi) ** p for fi, gi, wi in points)
        F = mpmath.fsum(wi * fi ** p for fi, _, wi in points)
        G = mpmath.fsum(wi * gi ** p for _, gi, wi in points)
        N = mpmath.fsum(wi * (fi * gi) ** (p / 2) for fi, gi, wi in points) ** (2 / p)
        gamma_tilde = N * ((F + G) / 2) ** (-2 / p)
        gamma = N / (F ** (1 / p) * G ** (1 / p))
        return {
            "lhs": lhs,
            "rhs": (1 + gamma_tilde) ** (p - 1) * (F + G),
            "gamma_tilde": gamma_tilde,
            "gamma": gamma,
            "carbery_rhs": (1 + gamma) ** (p - 1) * (F + G),
        }
