/* The compiled kernel of pontus: the adaptive Dormand-Prince 5(4) step loop of
 * pontus.dynamics._dormand_prince for the ramp m(t) = exp(-kappa t)
 * cos(omega t) of ExponentialCosineSchedule (pontus_dormand_prince), the
 * samples and threshold analysis of its runs, chunk by chunk of step records,
 * on their dense output (pontus_cell), the non-Markov measure
 * (pontus_nm_total) and the CSV writer's rows (pontus_csv_rows).  These four
 * are the library's exports; pontus._stepper binds each of them.
 *
 * Every expression is the Python's, with the same operands in the same order,
 * so both write the same floats: the stepper's initial step, stage
 * coefficients, error norm, controller, ball check and stop rule included.
 * The bit identity rests on IEEE double arithmetic with no fused multiply-add
 * (-ffp-contract=off, no -ffast-math), which the writer's double-double
 * product also needs, and on the same libm calls that Python's math module
 * makes; pontus._stepper builds the library so and checks it against the
 * Python before use.  One Brent routine, pontus._roots.brentq step for step,
 * finds every root.  The error messages stay in Python, which maps each
 * return code to its exception.
 */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* Python's x ** y calls libm's pow, and glibc's pow(x, 2.0) is not always
 * x * x; called through a volatile pointer, the compiler cannot fold it. */
static double (*volatile pow_)(double, double) = pow;

/* Python's float ** 2.0 for a finite base: its special case of a zero base,
 * then pow of the magnitude. */
static double square(double x) { return x == 0.0 ? 0.0 : pow_(fabs(x), 2.0); }

/* Slots of the state array that carries a run between calls. */
enum { T, Y1, Y2, Y3, K1, K2, K3, W1, W2, W3, H_ABS, G_OLD, NFEV, N_REJECTED, T_NEW, NORM };
/* The doubles of one step record: t, h, y, k1, k3, ..., k7 (dynamics._RECORD). */
enum { RECORD = 23 };

/* pontus._roots._RTOL: brentq's default and least rtol, 4 machine epsilons. */
static const double RTOL = 4 * 2.220446049250313e-16;

/* A function of a time and its fixed arguments, whose root brentq finds. */
typedef double (*function)(const void *args, double t);

/* pontus._roots.brentq of f on [a, b], with maxiter 100, step for step: 0
 * with the root in *root, or -1 where brentq raises (a NaN value, no sign
 * change, no convergence). */
static int brentq(function f, const void *args, double a, double b, double xtol, double rtol,
                  double *root)
{
    double xpre = a, xcur = b, xblk = 0.0, fblk = 0.0, spre = 0.0, scur = 0.0, x, fx;
    double fpre = f(args, xpre), fcur;
    if (fpre != fpre)
        return -1;
    fcur = f(args, xcur);
    if (fcur != fcur)
        return -1;
    if (fpre == 0) {
        *root = xpre;
        return 0;
    }
    if (fcur == 0) {
        *root = xcur;
        return 0;
    }
    if (copysign(1.0, fpre) == copysign(1.0, fcur))
        return -1;
    for (int i = 0; i < 100; i++) {
        if (fpre != 0 && fcur != 0 && copysign(1.0, fpre) != copysign(1.0, fcur)) {
            xblk = xpre, fblk = fpre;
            spre = scur = xcur - xpre;
        }
        if (fabs(fblk) < fabs(fcur)) {
            x = xcur, fx = fcur;
            xpre = xcur, xcur = xblk, xblk = x;
            fpre = fcur, fcur = fblk, fblk = fx;
        }
        double delta = (xtol + rtol * fabs(xcur)) / 2;
        double sbis = (xblk - xcur) / 2;
        if (fcur == 0 || fabs(sbis) < delta) {
            *root = xcur;
            return 0;
        }
        int good = 0; /* 0 where the Python's stry stays None */
        double stry = 0.0;
        if (fabs(spre) > delta && fabs(fcur) < fabs(fpre)) {
            if (xpre == xblk) { /* interpolate */
                double den = fcur - fpre;
                if (den != 0) {
                    stry = -fcur * (xcur - xpre) / den;
                    good = 1;
                }
            } else if (xpre != xcur && xblk != xcur) { /* extrapolate */
                double dpre = (fpre - fcur) / (xpre - xcur);
                double dblk = (fblk - fcur) / (xblk - xcur);
                double den = dblk * dpre * (fblk - fpre);
                if (den != 0) {
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den;
                    good = 1;
                }
            }
        }
        double bound = 3 * fabs(sbis) - delta; /* Python's min(|spre|, bound) */
        if (!(bound < fabs(spre)))
            bound = fabs(spre);
        if (good && 2 * fabs(stry) < bound) { /* good short step */
            spre = scur, scur = stry;
        } else { /* bisect */
            spre = scur = sbis;
        }
        xpre = xcur, fpre = fcur;
        if (fabs(scur) > delta)
            xcur += scur;
        else
            xcur += sbis > 0 ? delta : -delta;
        fcur = f(args, xcur);
        if (fcur != fcur)
            return -1;
    }
    return -1;
}

/* The quartic dense output of the n >= 1 step records `steps`, ending at
 * t_final, at the m times `ts`: the states, into the m x 3 array `out`.  A
 * time is served by step k = searchsorted(t_break, t, "left") - 1, clipped to
 * the steps, where t_break holds the step starts and t_final (a NaN time last,
 * as numpy sorts it), and that step's interpolant y + h (q1 x + q2 x^2 + q3 x^3
 * + q4 x^4), x = (t - t_k) / h, with q1 = k1 and q2..q4 the stages weighted by
 * P's columns (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6): each
 * float as pontus.dynamics._DenseOutput forms it, in the same order. */
static void dense_output(const double *steps, long n, double t_final, const double *ts, long m,
                         double *out)
{
    static const double P1[3] = {-8048581381.0 / 2820520608, 8663915743.0 / 2820520608,
                                 -12715105075.0 / 11282082432};
    static const double P3[3] = {131558114200.0 / 32700410799, -68118460800.0 / 10900136933,
                                 87487479700.0 / 32700410799};
    static const double P4[3] = {-1754552775.0 / 470086768, 14199869525.0 / 1410260304,
                                 -10690763975.0 / 1880347072};
    static const double P5[3] = {127303824393.0 / 49829197408, -318862633887.0 / 49829197408,
                                 701980252875.0 / 199316789632};
    static const double P6[3] = {-282668133.0 / 205662961, 2019193451.0 / 616988883,
                                 -1453857185.0 / 822651844};
    static const double P7[3] = {40617522.0 / 29380423, -110615467.0 / 29380423,
                                 69997945.0 / 29380423};
    const double *r = steps;
    double q[3][4];
    long last = -1;
    for (long i = 0; i < m; i++) {
        double t = ts[i];
        long lo = 0, hi = n + 1;
        /* at or past the last time's step: the next few breaks first, then
         * a binary search */
        if (last >= 0 && r[0] < t) {
            lo = last + 1;
            while (lo <= n && lo <= last + 8 && (lo < n ? steps[RECORD * lo] : t_final) < t)
                lo++;
            if (lo <= last + 8)
                hi = lo;
        }
        while (lo < hi) {
            long mid = lo + (hi - lo) / 2;
            double b = mid < n ? steps[RECORD * mid] : t_final;
            if (b < t || (t != t && b == b))
                lo = mid + 1;
            else
                hi = mid;
        }
        long k = lo - 1 < 0 ? 0 : lo - 1 > n - 1 ? n - 1 : lo - 1;
        if (k != last) {
            r = steps + RECORD * k;
            for (int c = 0; c < 3; c++) {
                double k1 = r[5 + c], k3 = r[8 + c], k4 = r[11 + c], k5 = r[14 + c],
                       k6 = r[17 + c], k7 = r[20 + c];
                q[c][0] = k1;
                for (int j = 0; j < 3; j++)
                    q[c][j + 1] = k1 * P1[j] + k3 * P3[j] + k4 * P4[j] + k5 * P5[j]
                                  + k6 * P6[j] + k7 * P7[j];
            }
            last = k;
        }
        double h = r[1], x = (t - r[0]) / h, x2 = x * x, x3 = x2 * x;
        for (int c = 0; c < 3; c++)
            out[3 * i + c] = r[2 + c] + h * (q[c][0] * x + q[c][1] * x2 + q[c][2] * x3
                                             + q[c][3] * (x3 * x));
    }
}

/* pontus.dynamics._stop_function on the interpolant of one step record: the
 * stop function max(|y - target|/2 - tol, dg_max exp(-kappa t) - eps) with
 * `stop` = (target, tol, eps). */
struct stop_rule {
    const double *record, *stop;
    double kappa, dg_max;
};

static double stop_gap(const void *args, double t)
{
    const struct stop_rule *a = args;
    const double *g = a->stop;
    double y[3];
    dense_output(a->record, 1, t, &t, 1, y);
    double d = 0.5 * sqrt(square(y[0] - g[0]) + square(y[1] - g[1]) + square(y[2] - g[2])) - g[3];
    double u = a->dg_max * exp(-a->kappa * t) - g[4];
    return u > d ? u : d;
}

/* Runs from t = 0 when `start` is set, else resumes from `s`.  The first step
 * is Hairer, Norsett & Wanner's initial step, which does not read t_bound, so
 * no step before the horizon depends on it.  `c` holds the
 * 14 ramp coefficients (L00, L11, L22, L01, L02, L12, b_z of (lam_f, b_f),
 * then of (dlam, db)); `stop` is NULL for a run to t_bound, or (target,
 * tol, eps), with the settle term dg_max exp(-kappa t).  Appends one RECORD-double
 * record (t, h, y, k1, k3, ..., k7) per accepted step to `steps`, at most
 * `cap` per call, and counts them in *n.
 *
 * Returns 0 at t_bound; 1 when the stop function changed sign on the last
 * record, which ends at s[T_NEW], with its root on that record's interpolant
 * (pontus.dynamics._event_time) in s[T]; 2 when `steps` is full (call again
 * to resume); -1 when the stop function is negative at t = 0; -2 when the
 * step falls below 10 ulp of t; -3 when a step ends outside the ball, at
 * s[T_NEW] with |r| = s[NORM]; -4 as 1, but where brentq finds no root. */
int pontus_dormand_prince(const double *c, double kappa, double omega, double dg_max,
                          const double *stop, int start, double *s, double t_bound,
                          double rtol, double atol, double sqrt3, double ball_sq,
                          double *steps, long cap, long *n)
{
    const double C2 = 1.0 / 5, C3 = 3.0 / 10, C4 = 4.0 / 5, C5 = 8.0 / 9;
    const double A21 = 1.0 / 5;
    const double A31 = 3.0 / 40, A32 = 9.0 / 40;
    const double A41 = 44.0 / 45, A42 = -56.0 / 15, A43 = 32.0 / 9;
    const double A51 = 19372.0 / 6561, A52 = -25360.0 / 2187, A53 = 64448.0 / 6561,
                 A54 = -212.0 / 729;
    const double A61 = 9017.0 / 3168, A62 = -355.0 / 33, A63 = 46732.0 / 5247,
                 A64 = 49.0 / 176, A65 = -5103.0 / 18656;
    const double B1 = 35.0 / 384, B3 = 500.0 / 1113, B4 = 125.0 / 192, B5 = -2187.0 / 6784,
                 B6 = 11.0 / 84;
    const double E1 = -71.0 / 57600, E3 = 71.0 / 16695, E4 = -71.0 / 1920,
                 E5 = 17253.0 / 339200, E6 = -22.0 / 525, E7 = 1.0 / 40;
    const double SAFETY = 0.9, MIN_FACTOR = 0.2, MAX_FACTOR = 10.0, ERR_EXP = -1.0 / 5;
    const double f00 = c[0], f11 = c[1], f22 = c[2], f01 = c[3], f02 = c[4], f12 = c[5],
                 fz = c[6], d00 = c[7], d11 = c[8], d22 = c[9], d01 = c[10], d02 = c[11],
                 d12 = c[12], dz = c[13];
    double g0 = 0, g1 = 0, g2 = 0, tol = 0, eps = 0;
    if (stop) {
        g0 = stop[0]; g1 = stop[1]; g2 = stop[2]; tol = stop[3]; eps = stop[4];
    }
    double t = s[T], y1 = s[Y1], y2 = s[Y2], y3 = s[Y3];
    double k11 = s[K1], k12 = s[K2], k13 = s[K3], w1 = s[W1], w2 = s[W2], w3 = s[W3];
    double h_abs = s[H_ABS], g_old = s[G_OLD], nfev = s[NFEV], n_rejected = s[N_REJECTED];
    double m, l00, l11, l22, l01, l02, l12, bz;
#define COEFFICIENTS(m) \
    l00 = f00 + m * d00, l11 = f11 + m * d11, l22 = f22 + m * d22; \
    l01 = f01 + m * d01, l02 = f02 + m * d02, l12 = f12 + m * d12; \
    bz = fz + m * dz
#define SLOPE(k1, k2, k3, a, b, c) \
    k1 = l00 * a + l01 * b + l02 * c; \
    k2 = l11 * b - l01 * a + l12 * c; \
    k3 = l22 * c - (l02 * a + l12 * b) + bz

    *n = 0;
    if (start) {
        t = 0.0;
        if (stop) {
            double d = 0.5 * sqrt(square(y1 - g0) + square(y2 - g1) + square(y3 - g2));
            double u = dg_max * exp(-kappa * t) - eps;
            g_old = d - tol;
            if (u > g_old)
                g_old = u;
            if (g_old < 0.0)
                return -1;
        }
        m = exp(-kappa * t) * cos(omega * t);
        COEFFICIENTS(m);
        SLOPE(k11, k12, k13, y1, y2, y3);

        /* initial step (Hairer, Norsett & Wanner, sec. II.4) */
        double s1 = atol + fabs(y1) * rtol, s2 = atol + fabs(y2) * rtol,
               s3 = atol + fabs(y3) * rtol;
        double a = y1 / s1, b = y2 / s2, cc = y3 / s3;
        double d0 = sqrt(a * a + b * b + cc * cc) / sqrt3;
        a = k11 / s1, b = k12 / s2, cc = k13 / s3;
        double d1 = sqrt(a * a + b * b + cc * cc) / sqrt3;
        double h0 = d0 < 1e-5 || d1 < 1e-5 ? 1e-6 : 0.01 * d0 / d1;
        double u1, u2, u3;
        m = exp(-kappa * h0) * cos(omega * h0);
        COEFFICIENTS(m);
        a = y1 + h0 * k11, b = y2 + h0 * k12, cc = y3 + h0 * k13;
        SLOPE(u1, u2, u3, a, b, cc);
        a = (u1 - k11) / s1, b = (u2 - k12) / s2, cc = (u3 - k13) / s3;
        double d2 = sqrt(a * a + b * b + cc * cc) / sqrt3 / h0;
        double h1;
        if (d1 <= 1e-15 && d2 <= 1e-15) {
            h1 = h0 * 1e-3;
            if (!(h1 > 1e-6))
                h1 = 1e-6;
        } else {
            h1 = pow_(0.01 / (d2 > d1 ? d2 : d1), 1.0 / 5);
        }
        h_abs = 100 * h0;
        if (h1 < h_abs)
            h_abs = h1;
        nfev = 2;
        n_rejected = 0;
        w1 = fabs(y1), w2 = fabs(y2), w3 = fabs(y3);
    }

    int code;
    for (;;) {
        if (*n == cap) {
            code = 2;
            break;
        }
        double min_step = 10 * (nextafter(t, INFINITY) - t);
        if (h_abs < min_step)
            h_abs = min_step;
        int rejected = 0;
        double h, t_new, a, b, cc, z1, z2, z3, v1, v2, v3;
        double k21, k22, k23, k31, k32, k33, k41, k42, k43, k51, k52, k53, k61, k62, k63,
            k71, k72, k73;
        for (;;) {
            if (h_abs < min_step) {
                s[NFEV] = nfev;
                s[N_REJECTED] = n_rejected;
                return -2;
            }
            t_new = t + h_abs;
            if (t_new > t_bound)
                t_new = t_bound;
            h = h_abs = t_new - t;

            m = exp(-kappa * (t + C2 * h)) * cos(omega * (t + C2 * h));
            COEFFICIENTS(m);
            a = y1 + k11 * A21 * h, b = y2 + k12 * A21 * h, cc = y3 + k13 * A21 * h;
            SLOPE(k21, k22, k23, a, b, cc);
            m = exp(-kappa * (t + C3 * h)) * cos(omega * (t + C3 * h));
            COEFFICIENTS(m);
            a = y1 + (k11 * A31 + k21 * A32) * h;
            b = y2 + (k12 * A31 + k22 * A32) * h;
            cc = y3 + (k13 * A31 + k23 * A32) * h;
            SLOPE(k31, k32, k33, a, b, cc);
            m = exp(-kappa * (t + C4 * h)) * cos(omega * (t + C4 * h));
            COEFFICIENTS(m);
            a = y1 + (k11 * A41 + k21 * A42 + k31 * A43) * h;
            b = y2 + (k12 * A41 + k22 * A42 + k32 * A43) * h;
            cc = y3 + (k13 * A41 + k23 * A42 + k33 * A43) * h;
            SLOPE(k41, k42, k43, a, b, cc);
            m = exp(-kappa * (t + C5 * h)) * cos(omega * (t + C5 * h));
            COEFFICIENTS(m);
            a = y1 + (k11 * A51 + k21 * A52 + k31 * A53 + k41 * A54) * h;
            b = y2 + (k12 * A51 + k22 * A52 + k32 * A53 + k42 * A54) * h;
            cc = y3 + (k13 * A51 + k23 * A52 + k33 * A53 + k43 * A54) * h;
            SLOPE(k51, k52, k53, a, b, cc);
            /* stage 7 sits at t + h too and reuses these coefficients */
            m = exp(-kappa * (t + h)) * cos(omega * (t + h));
            COEFFICIENTS(m);
            a = y1 + (k11 * A61 + k21 * A62 + k31 * A63 + k41 * A64 + k51 * A65) * h;
            b = y2 + (k12 * A61 + k22 * A62 + k32 * A63 + k42 * A64 + k52 * A65) * h;
            cc = y3 + (k13 * A61 + k23 * A62 + k33 * A63 + k43 * A64 + k53 * A65) * h;
            SLOPE(k61, k62, k63, a, b, cc);
            z1 = y1 + h * (k11 * B1 + k31 * B3 + k41 * B4 + k51 * B5 + k61 * B6);
            z2 = y2 + h * (k12 * B1 + k32 * B3 + k42 * B4 + k52 * B5 + k62 * B6);
            z3 = y3 + h * (k13 * B1 + k33 * B3 + k43 * B4 + k53 * B5 + k63 * B6);
            SLOPE(k71, k72, k73, z1, z2, z3);
            nfev += 6;

            /* the Python stepper's conditional magnitudes, -0.0 kept */
            v1 = z1 < 0 ? -z1 : z1;
            v2 = z2 < 0 ? -z2 : z2;
            v3 = z3 < 0 ? -z3 : z3;
            double er1 = (k11 * E1 + k31 * E3 + k41 * E4 + k51 * E5 + k61 * E6 + k71 * E7) * h
                         / (atol + (v1 > w1 ? v1 : w1) * rtol);
            double er2 = (k12 * E1 + k32 * E3 + k42 * E4 + k52 * E5 + k62 * E6 + k72 * E7) * h
                         / (atol + (v2 > w2 ? v2 : w2) * rtol);
            double er3 = (k13 * E1 + k33 * E3 + k43 * E4 + k53 * E5 + k63 * E6 + k73 * E7) * h
                         / (atol + (v3 > w3 ? v3 : w3) * rtol);
            double err = sqrt(er1 * er1 + er2 * er2 + er3 * er3) / sqrt3, factor;
            if (err < 1) {
                double top = rejected ? 1 : MAX_FACTOR;
                factor = err == 0 ? top : SAFETY * pow_(err, ERR_EXP);
                h_abs *= factor < top ? factor : top;
                break;
            }
            factor = SAFETY * pow_(err, ERR_EXP);
            h_abs *= factor > MIN_FACTOR ? factor : MIN_FACTOR;
            rejected = 1;
            n_rejected += 1;
        }

        if (z1 * z1 + z2 * z2 + z3 * z3 > ball_sq) {
            s[T_NEW] = t_new;
            s[NORM] = sqrt(z1 * z1 + z2 * z2 + z3 * z3);
            code = -3;
            break;
        }
        double rec[RECORD] = {t, h, y1, y2, y3, k11, k12, k13, k31, k32, k33, k41, k42, k43,
                              k51, k52, k53, k61, k62, k63, k71, k72, k73};
        for (int j = 0; j < RECORD; j++)
            steps[RECORD * *n + j] = rec[j];
        *n += 1;
        if (stop) {
            double g_new = 0.5 * sqrt(square(z1 - g0) + square(z2 - g1) + square(z3 - g2)) - tol;
            if (g_new <= 0) { /* else positive whatever the settle term */
                double u = dg_max * exp(-kappa * t_new) - eps;
                if (u > g_new)
                    g_new = u;
            }
            if ((g_old <= 0 && 0 <= g_new) || (g_new <= 0 && 0 <= g_old)) {
                struct stop_rule rule = {steps + RECORD * (*n - 1), stop, kappa, dg_max};
                s[T_NEW] = t_new;
                code = brentq(stop_gap, &rule, t, t_new, RTOL, RTOL, &t) ? -4 : 1;
                break;
            }
            g_old = g_new;
        }
        t = t_new;
        if (t >= t_bound) {
            code = 0;
            break;
        }
        y1 = z1, y2 = z2, y3 = z3;
        w1 = v1, w2 = v2, w3 = v3;
        k11 = k71, k12 = k72, k13 = k73;
    }
    s[T] = t, s[Y1] = y1, s[Y2] = y2, s[Y3] = y3, s[K1] = k11, s[K2] = k12, s[K3] = k13;
    s[W1] = w1, s[W2] = w2, s[W3] = w3, s[H_ABS] = h_abs, s[G_OLD] = g_old;
    s[NFEV] = nfev, s[N_REJECTED] = n_rejected;
    return code;
}

/* The trace distance of y to the target g, as pontus.core.trace_distances
 * sums it. */
static double distance(const double *y, const double *g)
{
    double a = y[0] - g[0], b = y[1] - g[1], c = y[2] - g[2];
    return 0.5 * sqrt(a * a + b * b + c * c);
}

/* The dense output's distance to the target less eps at t: the function
 * whose root on a downward crossing is tau. */
struct run {
    const double *steps, *stop;
    long n;
    double t_final;
};

static double distance_gap(const void *args, double t)
{
    const struct run *a = args;
    double y[3];
    dense_output(a->steps, a->n, a->t_final, &t, 1, y);
    return distance(y, a->stop) - a->stop[4];
}

/* What the analysis of a run carries from one chunk of its step records to
 * the next, in the caller's array of 16 doubles, all 0 before the first: the
 * results (tau, the inconclusive flag, the crossing count and the largest
 * sampled |r|); the number of samples taken; the last two samples' times and
 * the last three's distances, newest first; and the crossing series: its
 * last point's time, that point's side of eps (0 before the first point, 1
 * below, 2 at or above), whether any point reached eps, and the last
 * downward crossing: whether its root was found (1), not found (-1), not
 * yet sought (2) or there is none (0), and its bracket. */
struct cell {
    double tau, inconclusive, crossings, worst;
    double next, t1, t2, d1, d2, d3;
    double t, side, any, root, lo, hi;
};

/* The crossing series' next point, in time order: a crossing of eps counts,
 * and a downward one brackets its root. */
static void visit(struct cell *c, double eps, double t, double d)
{
    int above = d >= eps;
    if (c->side > 0 && above != (c->side > 1)) {
        c->crossings++;
        if (c->side > 1)
            c->root = 2, c->lo = c->t, c->hi = t;
    }
    c->any = c->any || above;
    c->side = above ? 2 : 1;
    c->t = t;
}

/* tau: brentq's root with `xtol` on the bracket of the last downward
 * crossing, where not yet sought, while `run` holds its records. */
static void root(struct cell *c, const struct run *run, double xtol)
{
    if (c->root == 2)
        c->root = brentq(distance_gap, run, c->lo, c->hi, xtol, RTOL, &c->tau) ? -1 : 1;
}

/* np.sign(b - a) as -1, 0 or 1, and 2 for NaN. */
static int slope(double a, double b)
{
    double s = b - a;
    return s > 0 ? 1 : s < 0 ? -1 : s == 0 ? 0 : 2;
}

/* Whether the slope of the distances a, b, c changes sign at b, as the
 * Python's slope[j] != slope[j + 1] tells it, NaN unequal to all. */
static int reverses(double a, double b, double c)
{
    int s = slope(a, b);
    return s == 2 || s != slope(b, c);
}

/* The crossing series from sample t0, at distance a, to the next sample t,
 * at b: _refined_threshold_series' 8 points j step + t0, step = (t - t0) / 9,
 * where the interval lies inside the band (eps/4, 4 eps) and straddles eps
 * or is `turning` (the slope reverses at either end), then t.  The points lie
 * in [t0, t], and one equal to a sample has its distance, so the order of
 * such ties does not matter. */
static void interval(struct cell *c, const struct run *run, double t0, double t, double a,
                     double b, int turning)
{
    const double eps = run->stop[4];
    if (a == a && b == b && (a < b ? a : b) < 4.0 * eps && (a < b ? b : a) > eps / 4.0
        && ((a >= eps) != (b >= eps) || turning)) {
        double step = (t - t0) / 9, sub[8], z[24];
        for (int j = 0; j < 8; j++)
            sub[j] = (j + 1) * step + t0;
        dense_output(run->steps, run->n, run->t_final, sub, 8, z);
        for (int j = 0; j < 8; j++)
            visit(c, eps, sub[j], distance(z + 3 * j, run->stop));
    }
    visit(c, eps, t, b);
}

/* The next sample, at t in state y: the largest |r| (a NaN if any is one);
 * its state and distance into the m x 3 array r and into d, if given; and
 * the crossing series up to the sample before, whose interval's refinement
 * needs this one's distance. */
static void sample(struct cell *c, const struct run *run, double t, const double *y, double *r,
                   double *d, long m)
{
    long j = (long)c->next;
    double norm = sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2]), dj = distance(y, run->stop);
    if (norm > c->worst || norm != norm)
        c->worst = norm;
    if (r && j < m) {
        memcpy(r + 3 * j, y, 3 * sizeof *y);
        d[j] = dj;
    }
    if (j == 1)
        visit(c, run->stop[4], c->t1, c->d1);
    else if (j > 1)
        interval(c, run, c->t2, c->t1, c->d2, c->d1,
                 reverses(c->d2, c->d1, dj) || (j > 2 && reverses(c->d3, c->d2, c->d1)));
    c->next = j + 1;
    c->t2 = c->t1, c->t1 = t;
    c->d3 = c->d2, c->d2 = c->d1, c->d1 = dj;
}

/* What a ramp run's Trajectory and threshold analysis read of it, from its
 * step records in chunks, in time order, as they come from the stepper:
 * here the *n >= 1 records `steps` that end at t_end, where the run resumes
 * (`end` 0), ends at its time bound (1) or is stopped by the stop rule (2);
 * `stop` holds (target, tol, eps) and `c` the analysis so far.
 *
 * First the samples at np.arange(0, t_final, stride), which holds i stride,
 * and at t_final where it lies more than 1e-12 past that grid
 * (pontus.dynamics._sample_times): those up to t_end that np.arange's count
 * for t_end holds, all that are left on the last chunk.  Their states and
 * distances go into the m x 3 array r and into d, if given.  Then, on a
 * stopped run, pontus.dynamics._threshold_analysis: the crossings of eps of
 * the series that _refined_threshold_series refines; tau, brentq's root with
 * `xtol` on the last downward one; and whether dg_max exp(-kappa tau) still
 * exceeds eps at omega > 0.  Each float as the Python forms it, in the same
 * order.
 *
 * Returns 2 for a run that resumes, with the records that the pending
 * interval still needs, from the one that serves its first sample, moved to
 * the front of `steps` and counted in *n; the root of the chunk's last
 * downward crossing, if any, is found first, while its records are there.  Then 1 for a run not stopped; else
 * 0 with the results in c (all 0 where no point reaches eps), or -3 where the
 * Python analysis must run to raise its error: the series never falls back
 * below eps, or brentq finds no root. */
int pontus_cell(double *state, double *steps, long *n, double t_end, int end, const double *stop,
                double kappa, double omega, double dg_max, double stride, double xtol, double *r,
                double *d, long m)
{
    struct cell *c = (struct cell *)state;
    const struct run run = {steps, stop, *n, t_end};
    double count = ceil(t_end / stride), ts[64], ys[192];
    int k;
    do {
        k = 0;
        for (double i = c->next; k < 64 && i < count && (end || i * stride <= t_end); i++)
            ts[k++] = i * stride;
        if (k < 64 && end && c->next + k == count && t_end - (count - 1) * stride > 1e-12)
            ts[k++] = t_end;
        dense_output(steps, *n, t_end, ts, k, ys);
        for (int j = 0; j < k; j++)
            sample(c, &run, ts[j], ys + 3 * j, r, d, m);
    } while (k == 64);
    if (!end) {
        root(c, &run, xtol);
        long lo = 0, hi = *n;
        while (lo < hi) {
            long mid = lo + (hi - lo) / 2;
            if (steps[RECORD * mid] < c->t2)
                lo = mid + 1;
            else
                hi = mid;
        }
        lo = lo > 0 ? lo - 1 : 0;
        *n -= lo;
        memmove(steps, steps + RECORD * lo, RECORD * *n * sizeof *steps);
        return 2;
    }
    if (c->next < 3)
        visit(c, stop[4], c->t1, c->d1);
    else
        interval(c, &run, c->t2, c->t1, c->d2, c->d1, reverses(c->d3, c->d2, c->d1));
    if (end == 1)
        return 1;
    if (!c->any)
        return 0;
    root(c, &run, xtol);
    if (c->root != 1)
        return -3;
    c->inconclusive = omega > 0 && dg_max * exp(-kappa * c->tau) > stop[4];
    return 0;
}

/* f(t) = exp(-kappa t) cos(omega t) + c, a channel's rate over its modulation
 * g_s - g_f (c = g_f / (g_s - g_f)), as pontus._measure.negative_intervals
 * evaluates it. */
struct rate {
    double kappa, omega, c;
};

static double damped_rate(const void *args, double t)
{
    const struct rate *r = args;
    return exp(-r->kappa * t) * cos(r->omega * t) + r->c;
}

/* The antiderivative of the rate g_f + dg exp(-kappa t) cos(omega t) without
 * its exp(-kappa t) cos(omega t) term, which is the same at both edges of a
 * window and cancels. */
static double antiderivative(double g_f, double dg, double kappa, double omega, double k2w2,
                             double t)
{
    return g_f * t + dg * omega / k2w2 * exp(-kappa * t) * sin(omega * t);
}

/* pontus._measure.nm_measure_closed_form of one channel, for finite
 * kappa > 0 and omega > 0: 0 with the measure in *out, or -1 where the Python
 * raises.  The g_f = 0 geometric series, else the antiderivative's sum over
 * the windows of negative_intervals' lobe loop, added left to right. */
static int nm_channel(double g_s, double g_f, double kappa, double omega, double *out)
{
    const double PI = 3.141592653589793;
    double dg = g_s - g_f, k2w2 = kappa * kappa + omega * omega;
    if (g_f == 0 && dg > 0) {
        double q = kappa * PI / omega;
        *out = dg * omega / k2w2 * exp(-0.5 * q) / -expm1(-q);
        return 0;
    }
    if (g_s < 0 || g_f < 0)
        return -1;
    *out = 0.0;
    if (dg <= 0)
        return 0;
    double c = g_f / dg, sum = 0.0, shift = atan2(kappa, omega);
    struct rate rate = {kappa, omega, c};
    if (c >= 1.0)
        return 0;
    int windows = 0;
    for (long n = 1;; n++) {
        double lo = (2 * n - 1.5) * PI / omega, hi = (2 * n - 0.5) * PI / omega;
        if (exp(-kappa * lo) < c)
            break;
        double t_min = ((2 * n - 1) * PI - shift) / omega, t1, t2;
        if (damped_rate(&rate, t_min) < 0.0) {
            if (brentq(damped_rate, &rate, lo, t_min, 1e-12, RTOL, &t1)
                || brentq(damped_rate, &rate, t_min, hi, 1e-12, RTOL, &t2))
                return -1;
            sum += antiderivative(g_f, dg, kappa, omega, k2w2, t2)
                   - antiderivative(g_f, dg, kappa, omega, k2w2, t1);
            windows = 1;
        }
    }
    if (windows)
        *out = -sum;
    return 0;
}

/* pontus._measure.measure_total: the non-Markov measure summed left to right
 * over the n channels of rates gs -> gf.  Returns 0 with the total in *out,
 * or -1 where the Python route must run: kappa or omega not finite and
 * positive, a rate not finite, or a channel on which the Python raises. */
int pontus_nm_total(const double *gs, const double *gf, long n, double kappa, double omega,
                    double *out)
{
    if (!(kappa > 0 && kappa < INFINITY && omega > 0 && omega < INFINITY))
        return -1;
    double total = 0.0, value;
    for (long i = 0; i < n; i++) {
        if (!isfinite(gs[i]) || !isfinite(gf[i]) || nm_channel(gs[i], gf[i], kappa, omega, &value))
            return -1;
        total += value;
    }
    *out = total;
    return 0;
}

/* "00" to "99": the two digits of each number below 100. */
static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Python's b"%.17g" % x into s, in at most 24 bytes and a NUL; returns the
 * bytes but the NUL.  The digits N = round(|x| 10^p), p = 16 - e, e =
 * floor(log10 |x|), are Dekker's exact product of |x| and hi[p], the double
 * nearest 10^p (Veltkamp's split by 2^27 + 1), plus |x| lo[p], the rest of
 * 10^p: good to about 3e-15 of a unit.  snprintf formats a value whose
 * fraction there is within 1e-9 of 1/2, and |x| outside [1e-280, 1e280], but
 * no NaN, which it writes "-nan" where Python writes "nan".  Then %g's layout:
 * fixed for -4 <= e < 17, no trailing zeros or bare dot. */
static int g17(double x, const double *hi, const double *lo, char *s)
{
    double a = fabs(x);
    char *p = s, d[17];
    if (x != x)
        return memcpy(s, "nan", 3), 3;
    if (!(a >= 1e-280 && a <= 1e280))
        return snprintf(s, 25, "%.17g", x);
    int e = (int)floor(log10(a)), k = 17; /* one off next to a power of ten: */
    if (a > hi[301 + e] || (a == hi[301 + e] && lo[301 + e] >= 0)) /* a >= 10^(e + 1) */
        e++;
    else if (a < hi[300 + e] || (a == hi[300 + e] && lo[300 + e] > 0)) /* a < 10^e */
        e--;
    double th = hi[316 - e], tl = lo[316 - e], ca = 134217729.0 * a, ct = 134217729.0 * th;
    double ah = ca - (ca - a), bh = ct - (ct - th), al = a - ah, bl = th - bh, ph = a * th;
    double pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl + a * tl, r = floor(pl + 0.5);
    if (fabs(pl - r) > 0.5 - 1e-9)
        return snprintf(s, 25, "%.17g", x);
    long long n = (long long)ph + (long long)r; /* in [1e16, 1e17] */
    if (n == 100000000000000000LL)
        n = 10000000000000000LL, e++;
    for (int i = 15; i > 0; i -= 2, n /= 100)
        memcpy(d + i, PAIRS + 2 * (n % 100), 2);
    d[0] = (char)('0' + n);
    while (d[k - 1] == '0')
        k--;
    /* the dot follows digit `point`, after `lead` digits */
    int point = e >= -4 && e < 17 ? e : 0, lead = point < 0 ? 0 : point + 1;
    if (x < 0)
        *p++ = '-';
    if (point < 0) /* "0." and -e - 1 zeros */
        memcpy(p, "0.000", 5), p += 1 - point;
    memcpy(p, d, lead);
    p += lead;
    if (k > lead) {
        if (lead)
            *p++ = '.';
        memcpy(p, d + lead, k - lead);
        p += k - lead;
    }
    return (int)(p - s) + (point == e ? 0 : sprintf(p, "e%+03d", e));
}

/* pontus.dynamics.write_csv's rows start to start + count - 1 into `out`, 25
 * bytes per float and width + 1 per bytes value, each value followed by a comma
 * or, last in its row, a newline; returns the bytes written.  Column j is
 * (address, stride, width) in cols[3 j...]: a float64 where its width is 0,
 * formatted by g17 or, where its bits repeat the row before's, copied; else
 * `width` bytes, copied up to the first NUL. */
long pontus_csv_rows(const intptr_t *cols, int ncols, long start, long count, const double *hi,
                     const double *lo, char *out)
{
    char *p = out, *last[ncols]; /* each float's text in the row before */
    int size[ncols];
    for (long i = start; i < start + count; i++) {
        for (int j = 0; j < ncols; j++) {
            const intptr_t *c = cols + 3 * j, stride = c[1], width = c[2];
            const char *v = (const char *)c[0] + i * stride;
            if (width == 0 && i > start && !memcmp(v, v - stride, sizeof(double))) {
                memcpy(p, last[j], size[j]);
                last[j] = p;
                p += size[j];
            } else if (width == 0) {
                double x;
                memcpy(&x, v, sizeof x);
                last[j] = p;
                p += size[j] = g17(x, hi, lo, p);
            } else {
                for (intptr_t b = 0; b < width && v[b]; b++)
                    *p++ = v[b];
            }
            *p++ = j < ncols - 1 ? ',' : '\n';
        }
    }
    return (long)(p - out);
}
