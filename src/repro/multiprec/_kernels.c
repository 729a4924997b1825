/*
 * Element-wise double-double and quad-double plane kernels, the
 * interpreters that run a lowered evaluation plan in one call (the
 * instruction tape), and the batched linear solves of Newton's corrector
 * (one small dense system per lane, at the end of this file).
 *
 * Every kernel replays, lane by lane, exactly the floating-point sequence
 * of the scalar DoubleDouble / QuadDouble arithmetic (the QD 2.3.9 library
 * of Hida, Li & Bailey): Dekker's split with its 2^996 scaling branch, no
 * fused multiply-add, QD's sloppy add/mul and iterated-correction division,
 * and the renormalisation branch nest with its non-finite guard.  The NumPy
 * reference chains in ddarray.py / qdarray.py execute the same sequences;
 * results agree bit for bit outside NaN lanes (a NaN's sign bit may differ,
 * since the compiler is free to commute the operands of a + b).
 *
 * Build with -O2 -ffp-contract=off -fno-fast-math (see compiled.py): no
 * contraction into FMA, no reassociation.
 *
 * Calling convention (METH_FASTCALL): the read-write planes, then the
 * write-only planes, then the read-only planes, then (masked kernels only)
 * a bool mask -- each an object exporting the buffer protocol.  The first
 * plane's shape is the kernel's lane shape; every output has exactly that
 * shape, and an input (or the mask) may broadcast to it NumPy-style (the
 * (B,) per-lane weights of a (n, B) product).  A plane of at most two
 * dimensions may have any strides (the column-major planes NumPy returns
 * for a lane gather x[:, idx], which the batched Newton corrector and the
 * secant predictor work on); a plane of more dimensions must collapse to
 * two, as a C-contiguous one does.  Each lane's inputs are read before its
 * outputs are written, so an output plane may be the very same plane as an
 * input; an output whose byte range overlaps another plane in any other
 * way is refused.  A kernel returns the number of lanes with a zero
 * denominator (always 0 outside the complex divisions), or NotImplemented
 * when a plane does not fit these rules; the caller then runs the
 * reference chain instead.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double expressions must be evaluated in double precision"
#endif

/* eft.SPLITTER and eft.SPLIT_THRESHOLD, bit for bit. */
#define SPLITTER 134217729.0
#define SPLIT_THRESHOLD 0x1.fffffffffffffp+995
#define TWO_M28 3.7252902984619140625e-09
#define TWO_28 268435456.0

typedef struct { double h, l; } dd_t;
typedef struct { double c[4]; } qd_t;
typedef struct { dd_t re, im; } cdd_t;
typedef struct { qd_t re, im; } cqd_t;

/* ---------------------------------------------------------------- EFTs */
static inline void two_sum(double a, double b, double *s, double *e)
{
    double sum = a + b;
    double bb = sum - a;
    *e = (a - (sum - bb)) + (b - bb);
    *s = sum;
}

static inline void quick_two_sum(double a, double b, double *s, double *e)
{
    double sum = a + b;
    *e = b - (sum - a);
    *s = sum;
}

static inline void two_diff(double a, double b, double *s, double *e)
{
    double diff = a - b;
    double bb = diff - a;
    *e = (a - (diff - bb)) - (b + bb);
    *s = diff;
}

static inline void split(double a, double *hi, double *lo)
{
    double temp;
    if (fabs(a) > SPLIT_THRESHOLD) {
        a = a * TWO_M28;
        temp = SPLITTER * a;
        *hi = temp - (temp - a);
        *lo = a - *hi;
        *hi = *hi * TWO_28;
        *lo = *lo * TWO_28;
    } else {
        temp = SPLITTER * a;
        *hi = temp - (temp - a);
        *lo = a - *hi;
    }
}

static inline void two_prod(double a, double b, double *p, double *e)
{
    double a_hi, a_lo, b_hi, b_lo, prod = a * b;
    split(a, &a_hi, &a_lo);
    split(b, &b_hi, &b_lo);
    *e = (((a_hi * b_hi - prod) + a_hi * b_lo) + a_lo * b_hi) + a_lo * b_lo;
    *p = prod;
}

/* ------------------------------------------------------- double-double */
static inline dd_t dd_add(dd_t x, dd_t y)
{
    dd_t r;
    double s1, s2, t1, t2;
    two_sum(x.h, y.h, &s1, &s2);
    two_sum(x.l, y.l, &t1, &t2);
    s2 = s2 + t1;
    quick_two_sum(s1, s2, &s1, &s2);
    s2 = s2 + t2;
    quick_two_sum(s1, s2, &r.h, &r.l);
    return r;
}

static inline dd_t dd_sub(dd_t x, dd_t y)
{
    dd_t r;
    double s1, s2, t1, t2;
    two_diff(x.h, y.h, &s1, &s2);
    two_diff(x.l, y.l, &t1, &t2);
    s2 = s2 + t1;
    quick_two_sum(s1, s2, &s1, &s2);
    s2 = s2 + t2;
    quick_two_sum(s1, s2, &r.h, &r.l);
    return r;
}

static inline dd_t dd_mul(dd_t x, dd_t y)
{
    dd_t r;
    double p1, p2;
    two_prod(x.h, y.h, &p1, &p2);
    p2 = p2 + (x.h * y.l + x.l * y.h);
    quick_two_sum(p1, p2, &r.h, &r.l);
    return r;
}

static inline dd_t dd_div(dd_t x, dd_t y)
{
    dd_t r, s, q;
    double q1, q2, q3;
    q1 = x.h / y.h;
    q = (dd_t){q1, 0.0};
    r = dd_sub(x, dd_mul(y, q));
    q2 = r.h / y.h;
    q = (dd_t){q2, 0.0};
    r = dd_sub(r, dd_mul(y, q));
    q3 = r.h / y.h;
    quick_two_sum(q1, q2, &s.h, &s.l);
    q = (dd_t){q3, 0.0};
    return dd_add(s, q);
}

/* --------------------------------------------------------- quad-double */
static inline qd_t renorm4(double c0, double c1, double c2, double c3)
{
    double s0, s1, s2 = 0.0, s3 = 0.0;
    if (!isfinite(c0))
        return (qd_t){{c0, c1, c2, c3}};
    quick_two_sum(c2, c3, &s0, &c3);
    quick_two_sum(c1, s0, &s0, &c2);
    quick_two_sum(c0, s0, &c0, &c1);
    s0 = c0;
    s1 = c1;
    if (s1 != 0.0) {
        quick_two_sum(s1, c2, &s1, &s2);
        if (s2 != 0.0)
            quick_two_sum(s2, c3, &s2, &s3);
        else
            quick_two_sum(s1, c3, &s1, &s2);
    } else {
        quick_two_sum(s0, c2, &s0, &s1);
        if (s1 != 0.0)
            quick_two_sum(s1, c3, &s1, &s2);
        else
            quick_two_sum(s0, c3, &s0, &s1);
    }
    return (qd_t){{s0, s1, s2, s3}};
}

static inline qd_t renorm5(double c0, double c1, double c2, double c3,
                           double c4)
{
    double s0, s1, s2 = 0.0, s3 = 0.0;
    if (!isfinite(c0))
        return (qd_t){{c0, c1, c2, c3}};
    quick_two_sum(c3, c4, &s0, &c4);
    quick_two_sum(c2, s0, &s0, &c3);
    quick_two_sum(c1, s0, &s0, &c2);
    quick_two_sum(c0, s0, &c0, &c1);
    s0 = c0;
    s1 = c1;
    if (s1 != 0.0) {
        quick_two_sum(s1, c2, &s1, &s2);
        if (s2 != 0.0) {
            quick_two_sum(s2, c3, &s2, &s3);
            if (s3 != 0.0)
                s3 = s3 + c4;
            else
                quick_two_sum(s2, c4, &s2, &s3);
        } else {
            quick_two_sum(s1, c3, &s1, &s2);
            if (s2 != 0.0)
                quick_two_sum(s2, c4, &s2, &s3);
            else
                quick_two_sum(s1, c4, &s1, &s2);
        }
    } else {
        quick_two_sum(s0, c2, &s0, &s1);
        if (s1 != 0.0) {
            quick_two_sum(s1, c3, &s1, &s2);
            if (s2 != 0.0)
                quick_two_sum(s2, c4, &s2, &s3);
            else
                quick_two_sum(s1, c4, &s1, &s2);
        } else {
            quick_two_sum(s0, c3, &s0, &s1);
            if (s1 != 0.0)
                quick_two_sum(s1, c4, &s1, &s2);
            else
                quick_two_sum(s0, c4, &s0, &s1);
        }
    }
    return (qd_t){{s0, s1, s2, s3}};
}

/* (a, b, c) -> three_sum, as quad_double._three_sum */
static inline void three_sum(double *a, double *b, double *c)
{
    double t1, t2, t3;
    two_sum(*a, *b, &t1, &t2);
    two_sum(*c, t1, a, &t3);
    two_sum(t2, t3, b, c);
}

/* (a, b, c) -> three_sum2, as quad_double._three_sum2 */
static inline void three_sum2(double *a, double *b, double c)
{
    double t1, t2, t3;
    two_sum(*a, *b, &t1, &t2);
    two_sum(c, t1, a, &t3);
    *b = t2 + t3;
}

static inline qd_t qd_add(qd_t x, qd_t y)
{
    double s0, s1, s2, s3, t0, t1, t2, t3;
    two_sum(x.c[0], y.c[0], &s0, &t0);
    two_sum(x.c[1], y.c[1], &s1, &t1);
    two_sum(x.c[2], y.c[2], &s2, &t2);
    two_sum(x.c[3], y.c[3], &s3, &t3);
    two_sum(s1, t0, &s1, &t0);
    three_sum(&s2, &t0, &t1);
    three_sum2(&s3, &t0, t2);
    t0 = (t0 + t1) + t3;
    return renorm5(s0, s1, s2, s3, t0);
}

static inline qd_t qd_neg(qd_t x)
{
    return (qd_t){{-x.c[0], -x.c[1], -x.c[2], -x.c[3]}};
}

static inline qd_t qd_sub(qd_t x, qd_t y)
{
    return qd_add(x, qd_neg(y));
}

static inline qd_t qd_mul(qd_t x, qd_t y)
{
    double p0, p1, p2, p3, p4, p5, q0, q1, q2, q3, q4, q5;
    double s0, s1, s2, t0, t1;
    two_prod(x.c[0], y.c[0], &p0, &q0);
    two_prod(x.c[0], y.c[1], &p1, &q1);
    two_prod(x.c[1], y.c[0], &p2, &q2);
    two_prod(x.c[0], y.c[2], &p3, &q3);
    two_prod(x.c[1], y.c[1], &p4, &q4);
    two_prod(x.c[2], y.c[0], &p5, &q5);
    three_sum(&p1, &p2, &q0);
    three_sum(&p2, &q1, &q2);
    three_sum(&p3, &p4, &p5);
    two_sum(p2, p3, &s0, &t0);
    two_sum(q1, p4, &s1, &t1);
    s2 = q2 + p5;
    two_sum(s1, t0, &s1, &t0);
    s2 = s2 + (t0 + t1);
    s1 = s1 + (((((((x.c[0] * y.c[3] + x.c[1] * y.c[2]) + x.c[2] * y.c[1])
                   + x.c[3] * y.c[0]) + q0) + q3) + q4) + q5);
    return renorm5(p0, p1, s0, s1, s2);
}

static inline qd_t qd_div(qd_t x, qd_t y)
{
    double q0, q1, q2, q3, q4;
    qd_t r;
    q0 = x.c[0] / y.c[0];
    r = qd_sub(x, qd_mul(y, (qd_t){{q0, 0.0, 0.0, 0.0}}));
    q1 = r.c[0] / y.c[0];
    r = qd_sub(r, qd_mul(y, (qd_t){{q1, 0.0, 0.0, 0.0}}));
    q2 = r.c[0] / y.c[0];
    r = qd_sub(r, qd_mul(y, (qd_t){{q2, 0.0, 0.0, 0.0}}));
    q3 = r.c[0] / y.c[0];
    r = qd_sub(r, qd_mul(y, (qd_t){{q3, 0.0, 0.0, 0.0}}));
    q4 = r.c[0] / y.c[0];
    return renorm5(q0, q1, q2, q3, q4);
}

/* ------------------------------------------------------------- complex */
/* The complex forms compose the real ones exactly as ComplexDDArray /
 * ComplexQDArray compose their real parts: (a*c - b*d, a*d + b*c) and
 * ((a*c + b*d) / |z|^2, (b*c - a*d) / |z|^2) with |z|^2 = c*c + d*d. */
#define COMPLEX_OPS(T, R, P)                                                 \
static inline T P##_add(T x, T y)                                           \
{                                                                           \
    return (T){P##_r_add(x.re, y.re), P##_r_add(x.im, y.im)};               \
}                                                                           \
static inline T P##_sub(T x, T y)                                           \
{                                                                           \
    return (T){P##_r_sub(x.re, y.re), P##_r_sub(x.im, y.im)};               \
}                                                                           \
static inline T P##_mul(T x, T y)                                           \
{                                                                           \
    return (T){P##_r_sub(P##_r_mul(x.re, y.re), P##_r_mul(x.im, y.im)),     \
               P##_r_add(P##_r_mul(x.re, y.im), P##_r_mul(x.im, y.re))};    \
}                                                                           \
/* Sets *zero when the denominator's leading component is zero. */          \
static inline T P##_div(T x, T y, int *zero)                                \
{                                                                           \
    T r;                                                                    \
    R denom = P##_r_add(P##_r_mul(y.re, y.re), P##_r_mul(y.im, y.im));      \
    *zero = P##_r_lead(denom) == 0.0;                                       \
    r.re = P##_r_div(P##_r_add(P##_r_mul(x.re, y.re),                       \
                               P##_r_mul(x.im, y.im)), denom);              \
    r.im = P##_r_div(P##_r_sub(P##_r_mul(x.im, y.re),                       \
                               P##_r_mul(x.re, y.im)), denom);              \
    return r;                                                               \
}

#define cdd_r_add dd_add
#define cdd_r_sub dd_sub
#define cdd_r_mul dd_mul
#define cdd_r_div dd_div
#define cdd_r_lead(v) ((v).h)
#define cqd_r_add qd_add
#define cqd_r_sub qd_sub
#define cqd_r_mul qd_mul
#define cqd_r_div qd_div
#define cqd_r_lead(v) ((v).c[0])

COMPLEX_OPS(cdd_t, dd_t, cdd)
COMPLEX_OPS(cqd_t, qd_t, cqd)

/* ----------------------------------------------------- complex double */
/* The d context's complex128 arithmetic, as NumPy's loops round it (the
 * load-time probe of repro.multiprec.compiled checks every form against
 * NumPy on this host).  On hosts with FMA, np.multiply (and np.square) is
 * re = fma(ar, br, -(ai*bi)), im = fma(ar, bi, ai*br); np.power's integer
 * ladder (npy_cpow) rounds twice; np.divide is Smith's algorithm without
 * FMA; np.abs is the vectorised larger * sqrt(fma(r, r, 1)) below. */
typedef struct { double re, im; } cd_t;

static inline cd_t cd_mul(cd_t x, cd_t y)
{
    return (cd_t){fma(x.re, y.re, -(x.im * y.im)),
                  fma(x.re, y.im, x.im * y.re)};
}

static inline cd_t cd_mul_twice(cd_t x, cd_t y)
{
    return (cd_t){x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re};
}

static inline cd_t cd_add(cd_t x, cd_t y)
{
    return (cd_t){x.re + y.re, x.im + y.im};
}

static inline cd_t cd_sub(cd_t x, cd_t y)
{
    return (cd_t){x.re - y.re, x.im - y.im};
}

/* np.divide: Smith's algorithm, as NumPy's complex divide loop. */
static inline cd_t cd_div(cd_t x, cd_t y)
{
    double ar = fabs(y.re), ai = fabs(y.im), rat, scl;
    if (ar >= ai) {
        if (ar == 0.0 && ai == 0.0)
            return (cd_t){x.re / ar, x.im / ar};
        rat = y.im / y.re;
        scl = 1.0 / (y.re + y.im * rat);
        return (cd_t){(x.re + x.im * rat) * scl, (x.im - x.re * rat) * scl};
    }
    rat = y.re / y.im;
    scl = 1.0 / (y.im + y.re * rat);
    return (cd_t){(x.re * rat + x.im) * scl, (x.im * rat - x.re) * scl};
}

/* np.abs on a complex128 row with a positive stride: NumPy's vectorised
 * loop, not libm hypot.  An infinite part makes both parts infinite, then
 * a NaN part both NaN; the ratio of the smaller to the larger part is
 * skipped (taken as 0) when the larger is 0 or the smaller infinite. */
static inline double cd_abs(cd_t z)
{
    double re = fabs(z.re), im = fabs(z.im), larger, smaller, ratio = 0.0;
    int re_inf = re == INFINITY, im_inf = im == INFINITY;
    if (re_inf)
        im = INFINITY;
    if (im_inf)
        re = INFINITY;
    if (isnan(re) || isnan(im))
        re = im = NAN;
    larger = re > im ? re : im;
    smaller = im < re ? im : re;
    if (larger != 0.0 && smaller != INFINITY)
        ratio = smaller / larger;
    return sqrt(fma(ratio, ratio, 1.0)) * larger;
}

/* ------------------------------------------- lane loads and stores */
static inline dd_t get_dd(const double *v) { return (dd_t){v[0], v[1]}; }
static inline qd_t get_qd(const double *v)
{
    return (qd_t){{v[0], v[1], v[2], v[3]}};
}
static inline cdd_t get_cdd(const double *v)
{
    return (cdd_t){get_dd(v), get_dd(v + 2)};
}
static inline cqd_t get_cqd(const double *v)
{
    return (cqd_t){get_qd(v), get_qd(v + 4)};
}
static inline void put_dd(double *v, dd_t x) { v[0] = x.h; v[1] = x.l; }
static inline void put_qd(double *v, qd_t x)
{
    v[0] = x.c[0]; v[1] = x.c[1]; v[2] = x.c[2]; v[3] = x.c[3];
}
static inline void put_cdd(double *v, cdd_t x)
{
    put_dd(v, x.re); put_dd(v + 2, x.im);
}
static inline void put_cqd(double *v, cqd_t x)
{
    put_qd(v, x.re); put_qd(v + 4, x.im);
}

/* -------------------------------------------------- per-lane bodies */
/* A lane body reads its inputs from `in` and writes its outputs to
 * `out`; it returns 1 for a zero-denominator lane, else 0. */
typedef int (*lane_fn)(const double *in, double *out);

#define BINARY_LANE(NAME, T, W, OP)                                         \
static int lane_##NAME(const double *in, double *out)                       \
{                                                                           \
    put_##T(out, OP(get_##T(in), get_##T(in + W)));                         \
    return 0;                                                               \
}

BINARY_LANE(dd_add, dd, 2, dd_add)
BINARY_LANE(dd_sub, dd, 2, dd_sub)
BINARY_LANE(dd_mul, dd, 2, dd_mul)
BINARY_LANE(dd_div, dd, 2, dd_div)
BINARY_LANE(qd_add, qd, 4, qd_add)
BINARY_LANE(qd_sub, qd, 4, qd_sub)
BINARY_LANE(qd_mul, qd, 4, qd_mul)
BINARY_LANE(qd_div, qd, 4, qd_div)
BINARY_LANE(cdd_add, cdd, 4, cdd_add)
BINARY_LANE(cdd_sub, cdd, 4, cdd_sub)
BINARY_LANE(cdd_mul, cdd, 4, cdd_mul)
BINARY_LANE(cqd_add, cqd, 8, cqd_add)
BINARY_LANE(cqd_sub, cqd, 8, cqd_sub)
BINARY_LANE(cqd_mul, cqd, 8, cqd_mul)

static int lane_qd_renorm(const double *in, double *out)
{
    put_qd(out, renorm4(in[0], in[1], in[2], in[3]));
    return 0;
}

/* Complex division, and the accumulate forms acc + x*y and acc - x*y of
 * the batch backends (their masked acc + v is the plain add lane). */
#define COMPLEX_LANES(T, W)                                                 \
static int lane_##T##_div(const double *in, double *out)                    \
{                                                                           \
    int zero;                                                               \
    put_##T(out, T##_div(get_##T(in), get_##T(in + W), &zero));             \
    return zero;                                                            \
}                                                                           \
static int lane_##T##_add_mul(const double *in, double *out)                \
{                                                                           \
    put_##T(out, T##_add(get_##T(in),                                       \
                         T##_mul(get_##T(in + W), get_##T(in + 2 * W))));   \
    return 0;                                                               \
}                                                                           \
static int lane_##T##_sub_mul(const double *in, double *out)                \
{                                                                           \
    put_##T(out, T##_sub(get_##T(in),                                       \
                         T##_mul(get_##T(in + W), get_##T(in + 2 * W))));   \
    return 0;                                                               \
}

COMPLEX_LANES(cdd, 4)
COMPLEX_LANES(cqd, 8)

/* The d division and magnitude, for the load-time probe against NumPy. */
static int lane_cd_div(const double *in, double *out)
{
    cd_t q = cd_div((cd_t){in[0], in[1]}, (cd_t){in[2], in[3]});
    out[0] = q.re;
    out[1] = q.im;
    return 0;
}

static int lane_cd_abs(const double *in, double *out)
{
    out[0] = cd_abs((cd_t){in[0], in[1]});
    return 0;
}

/* ------------------------------------------------------ plane driver */
#define MAX_PLANES 25

/* Where a plane's lanes sit: lane (o, k) of the kernel's (outer, inner)
 * lane space is at base + o * outer + k * inner (byte steps). */
typedef struct { char *base; Py_ssize_t outer, inner; } place_t;

/* Place an acquired plane in the lane space of `shape` (ndim dimensions;
 * the leading ones collapse into the outer step).  An input broadcasts
 * NumPy-style; an output must have the shape exactly, and no two of its
 * lanes may share an element.  Returns 0 when the plane does not fit. */
static int place(const Py_buffer *view, int ndim, const Py_ssize_t *shape,
                 int output, place_t *at)
{
    Py_ssize_t step[PyBUF_MAX_NDIM], expect = 0, outer = 1, inner, o, k;
    int lead = ndim - view->ndim, have = 0, d;

    if (lead < 0 || (output && lead))
        return 0;
    for (d = 0; d < ndim; d++) {
        Py_ssize_t extent = d < lead ? 1 : view->shape[d - lead];
        if (extent != shape[d] && (extent != 1 || output))
            return 0;
        step[d] = extent == 1 || shape[d] == 1 ? 0 : view->strides[d - lead];
        if (output && shape[d] > 1 && step[d] == 0)
            return 0;
    }
    at->base = (char *)view->buf;
    at->inner = 0;
    at->outer = 0;
    if (ndim > 0)
        at->inner = step[ndim - 1];
    for (d = ndim - 2; d >= 0; d--) {
        outer *= shape[d];
        if (shape[d] == 1)
            continue;
        if (!have)
            at->outer = step[d];
        else if (step[d] != expect)
            return 0;
        have = 1;
        expect = step[d] * shape[d];
    }
    if (!output || outer < 2 || (inner = shape[ndim - 1]) < 2)
        return 1;
    o = at->outer < 0 ? -at->outer : at->outer;
    k = at->inner < 0 ? -at->inner : at->inner;
    return o >= k * inner || k >= o * outer;
}

/* Acquire one plane of item kind 'd' (float64) or '?' (bool mask) and
 * place it; `like` is the first plane (NULL for the first plane itself).
 * Returns 0 (with no Python error set) when the plane does not fit. */
static int acquire(PyObject *obj, Py_buffer *view, int writable, char kind,
                   const Py_buffer *like, place_t *at)
{
    Py_ssize_t itemsize = kind == 'd' ? 8 : 1;
    int flags = PyBUF_STRIDES | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);

    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        PyErr_Clear();
        return 0;
    }
    if (like == NULL)
        like = view;
    if (view->itemsize == itemsize && view->format != NULL
            && view->format[0] == kind && view->format[1] == '\0'
            && place(view, like->ndim, like->shape, writable, at))
        return 1;
    PyBuffer_Release(view);
    return 0;
}

/* Whether each output plane, against every other plane, either coincides
 * with it lane for lane (same base and steps) or spans a disjoint byte
 * range.  Any other overlap could let a later lane read what an earlier
 * lane has already written. */
static int outputs_separate(const Py_buffer *views, const place_t *at,
                            int n_out, int total, Py_ssize_t outer,
                            Py_ssize_t inner)
{
    char *lo[MAX_PLANES], *hi[MAX_PLANES];
    int i, j;

    for (j = 0; j < total; j++) {
        Py_ssize_t o = (outer - 1) * at[j].outer;
        Py_ssize_t k = (inner - 1) * at[j].inner;
        lo[j] = at[j].base + (o < 0 ? o : 0) + (k < 0 ? k : 0);
        hi[j] = at[j].base + (o > 0 ? o : 0) + (k > 0 ? k : 0)
            + views[j].itemsize;
    }
    for (i = 0; i < n_out; i++)
        for (j = 0; j < total; j++)
            if (j != i && lo[i] < hi[j] && lo[j] < hi[i]
                    && (at[j].base != at[i].base || at[j].outer != at[i].outer
                        || at[j].inner != at[i].inner))
                return 0;
    return 1;
}

#define LANE_AT(p, o, k) ((p).base + (o) * (p).outer + (k) * (p).inner)

static PyObject *run(PyObject *const *args, Py_ssize_t nargs, lane_fn lane,
                     int n_rw, int n_wo, int n_ro, int masked)
{
    Py_buffer views[MAX_PLANES];
    place_t at[MAX_PLANES];
    Py_ssize_t outer = 1, inner = 1, o, k, zeros = 0;
    double in[MAX_PLANES], out[MAX_PLANES];
    int n_out = n_rw + n_wo, n_planes = n_out + n_ro;
    int total = n_planes + masked, held = 0, fits = 1, i, d;

    if (nargs != total) {
        PyErr_Format(PyExc_TypeError, "expected %d planes, got %zd",
                     total, nargs);
        return NULL;
    }
    for (i = 0; i < total && fits; i++) {
        fits = acquire(args[i], &views[i], i < n_out,
                       i < n_planes ? 'd' : '?', i ? &views[0] : NULL, &at[i]);
        held += fits;
    }
    if (fits) {
        for (d = 0; d < views[0].ndim; d++) {
            if (d < views[0].ndim - 1)
                outer *= views[0].shape[d];
            else
                inner = views[0].shape[d];
        }
        fits = outer * inner == 0
            || outputs_separate(views, at, n_out, total, outer, inner);
    }
    if (fits) {
        for (o = 0; o < outer; o++)
            for (k = 0; k < inner; k++) {
                if (masked && !*LANE_AT(at[n_planes], o, k))
                    continue;
                for (i = 0; i < n_rw; i++)
                    in[i] = *(double *)LANE_AT(at[i], o, k);
                for (i = n_out; i < n_planes; i++)
                    in[i - n_wo] = *(double *)LANE_AT(at[i], o, k);
                zeros += lane(in, out);
                for (i = 0; i < n_out; i++)
                    *(double *)LANE_AT(at[i], o, k) = out[i];
            }
    }
    for (i = 0; i < held; i++)
        PyBuffer_Release(&views[i]);
    if (!fits)
        Py_RETURN_NOTIMPLEMENTED;
    return PyLong_FromSsize_t(zeros);
}

/* NAME(read-write planes, write-only planes, read-only planes[, mask]),
 * running LANE on every (selected) lane. */
#define KERNEL(NAME, LANE, RW, WO, RO, MASKED)                              \
static PyObject *py_##NAME(PyObject *module, PyObject *const *args,         \
                           Py_ssize_t nargs)                                \
{                                                                           \
    (void)module;                                                           \
    return run(args, nargs, lane_##LANE, RW, WO, RO, MASKED);               \
}

KERNEL(dd_add, dd_add, 0, 2, 4, 0)
KERNEL(dd_sub, dd_sub, 0, 2, 4, 0)
KERNEL(dd_mul, dd_mul, 0, 2, 4, 0)
KERNEL(dd_div, dd_div, 0, 2, 4, 0)
KERNEL(qd_renorm, qd_renorm, 0, 4, 4, 0)
KERNEL(qd_add, qd_add, 0, 4, 8, 0)
KERNEL(qd_sub, qd_sub, 0, 4, 8, 0)
KERNEL(qd_mul, qd_mul, 0, 4, 8, 0)
KERNEL(qd_div, qd_div, 0, 4, 8, 0)
KERNEL(cdd_add, cdd_add, 0, 4, 8, 0)
KERNEL(cdd_sub, cdd_sub, 0, 4, 8, 0)
KERNEL(cdd_mul, cdd_mul, 0, 4, 8, 0)
KERNEL(cdd_div, cdd_div, 0, 4, 8, 0)
KERNEL(cdd_add_mul, cdd_add_mul, 4, 0, 8, 0)
KERNEL(cdd_sub_mul, cdd_sub_mul, 4, 0, 8, 0)
KERNEL(cdd_add_masked, cdd_add, 4, 0, 4, 1)
KERNEL(cqd_add, cqd_add, 0, 8, 16, 0)
KERNEL(cqd_sub, cqd_sub, 0, 8, 16, 0)
KERNEL(cqd_mul, cqd_mul, 0, 8, 16, 0)
KERNEL(cqd_div, cqd_div, 0, 8, 16, 0)
KERNEL(cqd_add_mul, cqd_add_mul, 8, 0, 16, 0)
KERNEL(cqd_sub_mul, cqd_sub_mul, 8, 0, 16, 0)
KERNEL(cqd_add_masked, cqd_add, 8, 0, 8, 1)
KERNEL(cd_div, cd_div, 0, 2, 4, 0)
KERNEL(cd_abs, cd_abs, 0, 1, 2, 0)

/* ------------------------------------------------------ instruction tape */
/*
 * A compiled evaluation plan lowered to a flat program over numbered lane
 * slots (repro/core/tape.py).  tape_P(program, consts, slots, t, points...)
 * runs the whole program for one batch in one call:
 *
 *   program  int32 records (op, dst, a, b), C-contiguous;
 *   consts   float64 table, one context value (WIDTH doubles) per entry;
 *   slots    the plan's slot buffer: complex128 (nslots, lanes) for d,
 *            float64 (nslots, WIDTH, lanes) for dd/qd, C-contiguous;
 *   t        float64 (lanes,) continuation parameters, or None;
 *   points   the (n, lanes) input rows: one complex128 plane (d) or the
 *            4 (dd) / 8 (qd) float64 planes, any strides.
 *
 * The points are copied into slots 0..n-1 first.  An operand a >= 0 names
 * a slot, a < 0 the constant -1 - a (read with stride 0 across lanes).
 * Every record reads a lane's operands before it writes that lane, so
 * dst may be the same slot as an operand.  Returns None, or
 * NotImplemented when a point plane overlaps the slot buffer (the caller
 * then runs the tape in Python).
 *
 * d must round like NumPy's complex128 loops (cd_mul, and cd_pow's
 * twice-rounded ladder; see the complex double section above).  dd/qd
 * reuse the element sequences above, with constants embedded by the
 * Python side exactly as the backends coerce them.
 */
enum { OP_COPY, OP_ZERO, OP_MUL, OP_ADD, OP_ADDMUL, OP_SUBMUL, OP_POW,
       OP_WEIGHTS, N_OPS };

/* np.power(x, n) for an integer 1 <= n < 100: NumPy's nc_pow ladder. */
static inline cd_t cd_pow(cd_t x, int n)
{
    cd_t acc = {1.0, 0.0}, p = x;
    int mask = 1;
    if (x.re == 0.0 && x.im == 0.0)
        return (cd_t){0.0, 0.0};
    if (n == 1)
        return x;
    if (n == 2)
        return cd_mul_twice(x, x);
    if (n == 3)
        return cd_mul_twice(x, cd_mul_twice(x, x));
    for (;;) {
        if (n & mask)
            acc = cd_mul_twice(acc, p);
        mask <<= 1;
        if (n < mask)
            break;
        p = cd_mul_twice(p, p);
    }
    return acc;
}

/* One operand: element (lane k, component c) sits at p[k*lane + c*plane]. */
typedef struct { double *p; Py_ssize_t lane, plane; } opnd_t;

#define AT(o, k, c) ((o).p[(k) * (o).lane + (c) * (o).plane])

static inline cd_t ld_cd(opnd_t o, Py_ssize_t k)
{
    return (cd_t){AT(o, k, 0), AT(o, k, 1)};
}
static inline cdd_t ld_cdd(opnd_t o, Py_ssize_t k)
{
    return (cdd_t){{AT(o, k, 0), AT(o, k, 1)}, {AT(o, k, 2), AT(o, k, 3)}};
}
static inline cqd_t ld_cqd(opnd_t o, Py_ssize_t k)
{
    return (cqd_t){{{AT(o, k, 0), AT(o, k, 1), AT(o, k, 2), AT(o, k, 3)}},
                   {{AT(o, k, 4), AT(o, k, 5), AT(o, k, 6), AT(o, k, 7)}}};
}
static inline void st_cd(opnd_t o, Py_ssize_t k, cd_t x)
{
    AT(o, k, 0) = x.re;
    AT(o, k, 1) = x.im;
}
static inline void st_cdd(opnd_t o, Py_ssize_t k, cdd_t x)
{
    AT(o, k, 0) = x.re.h; AT(o, k, 1) = x.re.l;
    AT(o, k, 2) = x.im.h; AT(o, k, 3) = x.im.l;
}
static inline void st_cqd(opnd_t o, Py_ssize_t k, cqd_t x)
{
    int c;
    for (c = 0; c < 4; c++) {
        AT(o, k, c) = x.re.c[c];
        AT(o, k, c + 4) = x.im.c[c];
    }
}

/* A complex128 weight embedded as each backend's embed_complex128 does. */
static inline cd_t emb_cd(cd_t w) { return w; }
static inline cdd_t emb_cdd(cd_t w)
{
    cdd_t r;
    two_sum(w.re, 0.0, &r.re.h, &r.re.l);
    two_sum(w.im, 0.0, &r.im.h, &r.im.l);
    return r;
}
static inline cqd_t emb_cqd(cd_t w)
{
    return (cqd_t){{{w.re, 0.0, 0.0, 0.0}}, {{w.im, 0.0, 0.0, 0.0}}};
}

typedef struct {
    double *slots, *consts;
    const char *t;
    Py_ssize_t lanes, width, t_step;
    int interleaved;  /* d: complex128 slots, re and im adjacent */
} tape_t;

static inline opnd_t operand(const tape_t *tp, int32_t a)
{
    if (a < 0)
        return (opnd_t){tp->consts + (Py_ssize_t)(-1 - a) * tp->width, 0, 1};
    if (tp->interleaved)
        return (opnd_t){tp->slots + 2 * a * tp->lanes, 2, 1};
    return (opnd_t){tp->slots + a * tp->width * tp->lanes, 1, tp->lanes};
}

#define LANES(BODY) for (k = 0; k < lanes; k++) { BODY; } break

#define TAPE_INTERPRETER(P, ZERO)                                           \
static void interpret_##P(const tape_t *tp, const int32_t *prog,            \
                          Py_ssize_t count)                                 \
{                                                                           \
    Py_ssize_t i, k, lanes = tp->lanes;                                     \
    for (i = 0; i < count; i++) {                                           \
        const int32_t *r = prog + 4 * i;                                    \
        opnd_t d = operand(tp, r[1]), a, b;                                 \
        switch (r[0]) {                                                     \
        case OP_COPY:                                                       \
            a = operand(tp, r[2]);                                          \
            LANES(st_##P(d, k, ld_##P(a, k)));                              \
        case OP_ZERO:                                                       \
            LANES(st_##P(d, k, ZERO));                                      \
        case OP_MUL:                                                        \
            a = operand(tp, r[2]); b = operand(tp, r[3]);                   \
            LANES(st_##P(d, k, P##_mul(ld_##P(a, k), ld_##P(b, k))));       \
        case OP_ADD:                                                        \
            a = operand(tp, r[2]);                                          \
            LANES(st_##P(d, k, P##_add(ld_##P(d, k), ld_##P(a, k))));       \
        case OP_ADDMUL:                                                     \
            a = operand(tp, r[2]); b = operand(tp, r[3]);                   \
            LANES(st_##P(d, k, P##_add(ld_##P(d, k),                        \
                                       P##_mul(ld_##P(a, k),                \
                                               ld_##P(b, k)))));            \
        case OP_SUBMUL:                                                     \
            a = operand(tp, r[2]); b = operand(tp, r[3]);                   \
            LANES(st_##P(d, k, P##_sub(ld_##P(d, k),                        \
                                       P##_mul(ld_##P(a, k),                \
                                               ld_##P(b, k)))));            \
        case OP_POW:                                                        \
            a = operand(tp, r[2]);                                          \
            LANES(st_cd(d, k, cd_pow(ld_cd(a, k), r[3])));                  \
        case OP_WEIGHTS: {                                                  \
            /* dst = gamma * (1 - t), slot a = t: the homotopy blend        \
             * weights, formed in complex128 like NumPy, then embedded. */  \
            cd_t gamma;                                                     \
            a = operand(tp, r[2]); b = operand(tp, r[3]);                   \
            gamma = ld_cd(b, 0);                                            \
            LANES(double t = *(const double *)(tp->t + k * tp->t_step);     \
                  st_##P(d, k, emb_##P(cd_mul(gamma,                        \
                                              (cd_t){1.0 - t, 0.0})));      \
                  st_##P(a, k, emb_##P((cd_t){t, 0.0})));                   \
        }                                                                   \
        }                                                                   \
    }                                                                       \
}

TAPE_INTERPRETER(cd, ((cd_t){0.0, 0.0}))
TAPE_INTERPRETER(cdd, ((cdd_t){{0.0, 0.0}, {0.0, 0.0}}))
TAPE_INTERPRETER(cqd, ((cqd_t){{{0.0, 0.0, 0.0, 0.0}}, {{0.0, 0.0, 0.0, 0.0}}}))

typedef void (*interpret_fn)(const tape_t *, const int32_t *, Py_ssize_t);

/* Whether every record names valid slots and constants: outputs are
 * non-input slots, POW (d only) has an exponent in [1, 99] and WEIGHTS
 * has its t. */
static int program_valid(const int32_t *prog, Py_ssize_t count,
                         Py_ssize_t inputs, Py_ssize_t nslots,
                         Py_ssize_t nconsts, int pow_ok, int has_t)
{
    Py_ssize_t i;
#define SLOT_OUT(x) ((x) >= inputs && (x) < nslots)
#define OPERAND(x) ((x) < nslots && (x) >= -nconsts)
    for (i = 0; i < count; i++) {
        const int32_t *r = prog + 4 * i;
        int ok = SLOT_OUT(r[1]);
        switch (r[0]) {
        case OP_ZERO: break;
        case OP_COPY: case OP_ADD: ok = ok && OPERAND(r[2]); break;
        case OP_MUL: case OP_ADDMUL: case OP_SUBMUL:
            ok = ok && OPERAND(r[2]) && OPERAND(r[3]); break;
        case OP_POW:
            ok = ok && pow_ok && OPERAND(r[2]) && r[3] >= 1 && r[3] < 100;
            break;
        case OP_WEIGHTS:
            ok = ok && has_t && SLOT_OUT(r[2]) && OPERAND(r[3]); break;
        default: ok = 0;
        }
        if (!ok)
            return 0;
    }
#undef SLOT_OUT
#undef OPERAND
    return 1;
}

static int get_view(PyObject *obj, Py_buffer *view, int flags,
                    const char *format, const char *what)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_FORMAT) < 0)
        return 0;
    if (view->format == NULL || strcmp(view->format, format) != 0) {
        PyErr_Format(PyExc_TypeError, "%s: expected format '%s'",
                     what, format);
        PyBuffer_Release(view);
        return 0;
    }
    return 1;
}

static PyObject *tape_run(PyObject *const *args, Py_ssize_t nargs,
                          int width, interpret_fn interpret)
{
    /* program, consts, slots, t, then the point planes */
    int interleaved = width == 2, n_planes = interleaved ? 1 : width;
    const char *plane_format = interleaved ? "Zd" : "d";
    Py_buffer views[4 + 8];
    Py_ssize_t count, nconsts, nslots, lanes, inputs, p, k, c;
    int held = 0, i, overlap = 0;
    tape_t tp;
    PyObject *result = NULL;
    char *lo, *hi;

    if (nargs != 4 + n_planes) {
        PyErr_Format(PyExc_TypeError, "expected %d arguments, got %zd",
                     4 + n_planes, nargs);
        return NULL;
    }
    if (!get_view(args[0], &views[held], PyBUF_C_CONTIGUOUS, "i",
                  "tape program"))
        goto done;
    held++;
    if (!get_view(args[1], &views[held], PyBUF_C_CONTIGUOUS, "d",
                  "tape consts"))
        goto done;
    held++;
    if (!get_view(args[2], &views[held], PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE,
                  plane_format, "tape slots"))
        goto done;
    held++;
    if (views[2].ndim != (interleaved ? 2 : 3)
            || (!interleaved && views[2].shape[1] != width)) {
        PyErr_SetString(PyExc_ValueError, "tape slots: wrong layout");
        goto done;
    }
    nslots = views[2].shape[0];
    lanes = views[2].shape[views[2].ndim - 1];
    count = views[0].len / (4 * (Py_ssize_t)sizeof(int32_t));
    nconsts = views[1].len / (width * (Py_ssize_t)sizeof(double));
    tp.t = NULL;
    tp.t_step = 0;
    if (args[3] != Py_None) {
        if (!get_view(args[3], &views[held], PyBUF_STRIDES, "d", "tape t"))
            goto done;
        held++;
        if (views[3].ndim != 1 || views[3].shape[0] != lanes) {
            PyErr_SetString(PyExc_ValueError, "tape t: expected (lanes,)");
            goto done;
        }
        tp.t = views[3].buf;
        tp.t_step = views[3].strides[0];
    }
    inputs = -1;
    lo = views[2].buf;
    hi = lo + views[2].len;
    for (i = 0; i < n_planes; i++) {
        Py_buffer *v = &views[held];
        Py_ssize_t first = 0, last = 0;
        if (!get_view(args[4 + i], v, PyBUF_STRIDES, plane_format,
                      "tape points"))
            goto done;
        held++;
        if (v->ndim != 2 || v->shape[1] != lanes
                || (inputs >= 0 && v->shape[0] != inputs)) {
            PyErr_SetString(PyExc_ValueError, "tape points: expected (n, lanes)");
            goto done;
        }
        inputs = v->shape[0];
        for (c = 0; c < 2; c++) {
            Py_ssize_t span = (v->shape[c] - 1) * v->strides[c];
            if (span < 0) first += span; else last += span;
        }
        if (v->shape[0] && lanes
                && (char *)v->buf + first < hi
                && lo < (char *)v->buf + last + v->itemsize)
            overlap = 1;
    }
    if (inputs > nslots) {
        PyErr_SetString(PyExc_ValueError, "tape: more inputs than slots");
        goto done;
    }
    if (!program_valid(views[0].buf, count, inputs, nslots, nconsts,
                       interleaved, tp.t != NULL)) {
        PyErr_SetString(PyExc_ValueError, "tape: invalid program");
        goto done;
    }
    if (overlap) {
        result = Py_NewRef(Py_NotImplemented);
        goto done;
    }
    tp.slots = views[2].buf;
    tp.consts = views[1].buf;
    tp.lanes = lanes;
    tp.width = width;
    tp.interleaved = interleaved;
    for (p = 0; p < inputs; p++) {
        opnd_t dst = operand(&tp, (int32_t)p);
        for (k = 0; k < lanes; k++)
            for (c = 0; c < width; c++) {
                const Py_buffer *v = &views[held - n_planes
                                            + (interleaved ? 0 : c)];
                const char *src = (const char *)v->buf + p * v->strides[0]
                    + k * v->strides[1];
                AT(dst, k, c) = ((const double *)src)[interleaved ? c : 0];
            }
    }
    interpret(&tp, views[0].buf, count);
    result = Py_NewRef(Py_None);
done:
    while (held > 0)
        PyBuffer_Release(&views[--held]);
    return result;
}

#define TAPE(NAME, WIDTH, P)                                                \
static PyObject *py_##NAME(PyObject *module, PyObject *const *args,         \
                           Py_ssize_t nargs)                                \
{                                                                           \
    (void)module;                                                           \
    return tape_run(args, nargs, WIDTH, interpret_##P);                     \
}

TAPE(tape_d, 2, cd)
TAPE(tape_dd, 4, cdd)
TAPE(tape_qd, 8, cqd)

/* ------------------------------------------------------ linear solve */
/*
 * solve_P(rows, active, solution, singular) solves one small dense system
 * per lane, B lanes in one call, replaying the Python elimination of
 * repro.tracking.batch_linsolve bit for bit:
 *
 *   rows      a sequence of the component planes of the n*n + n entries:
 *             the matrix row by row, then the right-hand side; one
 *             complex128 plane per entry (d) or its 4 (dd) / 8 (qd) float64
 *             planes, each one-dimensional with B lanes at any stride (d:
 *             a positive one, the layouts whose np.abs and np.divide the
 *             load-time probe checks);
 *   active    None or a bool (B,) mask: a dead pivot flags its lane
 *             singular only where it is set;
 *   solution  the C-contiguous output: complex128 (n, B) for d, float64
 *             (WIDTH, n, B) for dd/qd (component c of row i is
 *             solution[c, i]);
 *   singular  the C-contiguous bool (B,) output.
 *
 * Each lane eliminates its own copy of its system with partial pivoting,
 * a row swap being an index swap.  The pivot is np.argmax's over the
 * candidate magnitudes: the first maximum, or the first NaN outright.  A
 * pivot whose squared magnitude is below DBL_MIN is dead (the Python
 * _undividable): it flags its lane singular where active and divides as
 * one.  Back substitution re-checks each diagonal the same way.  Products
 * keep the Python operand order (factor * pivot row, then a[i][j] * x[j]).
 * The d magnitude is np.abs (cd_abs); a dd/qd magnitude is np.abs of
 * to_complex128(), re + 1j*im on the leading components, where 0 * NaN
 * turns the real part NaN too.  The solution lands renormalised as
 * backend.stack lands the Python elimination's rows (landed_P below).
 *
 * Returns None, or NotImplemented when the kernel declines: n is 0 or
 * above SOLVE_MAX_N, a row plane or the mask does not fit, an output
 * overlaps an input, or (dd/qd) a division meets a zero denominator in
 * some lane.  The caller then runs the Python elimination, which raises
 * DivisionByZeroError in that last case.  A malformed output, or a row
 * count other than n*n + n for an n the kernel takes, raises.
 */
#define SOLVE_MAX_N 16

typedef struct {
    Py_buffer solution, singular, active, *rows;
    int held;                /* solution, singular, active: views held */
    Py_ssize_t rows_held, n, lanes;
    PyObject *seq;           /* the rows as a fast sequence */
    char **base;             /* per row plane: first lane, byte step */
    Py_ssize_t *step;
    const char *on;          /* the active mask, or NULL */
    Py_ssize_t on_step;
} system_t;

static PyObject *solve_close(system_t *s, PyObject *result)
{
    Py_ssize_t i;
    for (i = 0; i < s->rows_held; i++)
        PyBuffer_Release(&s->rows[i]);
    if (s->held > 2)
        PyBuffer_Release(&s->active);
    if (s->held > 1)
        PyBuffer_Release(&s->singular);
    if (s->held > 0)
        PyBuffer_Release(&s->solution);
    PyMem_Free(s->rows);
    PyMem_Free(s->base);
    PyMem_Free(s->step);
    Py_XDECREF(s->seq);
    return result;
}

/* The byte range a one-dimensional view spans. */
static void span(const Py_buffer *v, char **lo, char **hi)
{
    Py_ssize_t extent = (v->shape[0] - 1) * v->strides[0];
    *lo = (char *)v->buf + (extent < 0 ? extent : 0);
    *hi = (char *)v->buf + (extent > 0 ? extent : 0) + v->itemsize;
}

static int disjoint(char *lo, char *hi, const Py_buffer *out)
{
    return hi <= (char *)out->buf || (char *)out->buf + out->len <= lo;
}

/* Validate and acquire a solve's arguments: 1 when the lanes may be
 * solved, 0 to decline, -1 with a Python error set. */
static int solve_open(PyObject *const *args, Py_ssize_t nargs, int width,
                      system_t *s)
{
    int d = width == 2;
    const char *format = d ? "Zd" : "d";
    Py_ssize_t per = d ? 1 : width, count, i;
    char *lo, *hi;

    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "expected 4 arguments, got %zd", nargs);
        return -1;
    }
    if (!get_view(args[2], &s->solution, PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE,
                  format, "solve solution"))
        return -1;
    s->held = 1;
    if (s->solution.ndim != (d ? 2 : 3)
            || (!d && s->solution.shape[0] != width)) {
        PyErr_SetString(PyExc_ValueError, "solve solution: wrong layout");
        return -1;
    }
    s->n = s->solution.shape[s->solution.ndim - 2];
    s->lanes = s->solution.shape[s->solution.ndim - 1];
    if (!get_view(args[3], &s->singular, PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE,
                  "?", "solve singular"))
        return -1;
    s->held = 2;
    if (s->singular.ndim != 1 || s->singular.shape[0] != s->lanes) {
        PyErr_SetString(PyExc_ValueError, "solve singular: expected (B,)");
        return -1;
    }
    span(&s->singular, &lo, &hi);
    if (s->lanes && !disjoint(lo, hi, &s->solution))
        return 0;
    if (s->n < 1 || s->n > SOLVE_MAX_N)
        return 0;
    s->seq = PySequence_Fast(args[0], "solve rows: expected a sequence");
    if (s->seq == NULL)
        return -1;
    count = PySequence_Fast_GET_SIZE(s->seq);
    if (count != per * (s->n * s->n + s->n)) {
        PyErr_Format(PyExc_ValueError, "solve rows: expected %zd planes for "
                     "n = %zd, got %zd", per * (s->n * s->n + s->n), s->n,
                     count);
        return -1;
    }
    s->on = NULL;
    if (args[1] != Py_None) {
        if (PyObject_GetBuffer(args[1], &s->active,
                               PyBUF_STRIDES | PyBUF_FORMAT) < 0) {
            PyErr_Clear();
            return 0;
        }
        s->held = 3;
        if (s->active.format == NULL || strcmp(s->active.format, "?") != 0
                || s->active.ndim != 1 || s->active.shape[0] != s->lanes)
            return 0;
        s->on = s->active.buf;
        s->on_step = s->active.strides[0];
        span(&s->active, &lo, &hi);
        if (s->lanes && (!disjoint(lo, hi, &s->solution)
                         || !disjoint(lo, hi, &s->singular)))
            return 0;
    }
    s->rows = PyMem_Calloc(count, sizeof(Py_buffer));
    s->base = PyMem_Calloc(count, sizeof(char *));
    s->step = PyMem_Calloc(count, sizeof(Py_ssize_t));
    if (s->rows == NULL || s->base == NULL || s->step == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < count; i++) {
        Py_buffer *v = &s->rows[i];
        if (PyObject_GetBuffer(PySequence_Fast_GET_ITEM(s->seq, i), v,
                               PyBUF_STRIDES | PyBUF_FORMAT) < 0) {
            PyErr_Clear();
            return 0;
        }
        s->rows_held++;
        if (v->format == NULL || strcmp(v->format, format) != 0
                || v->ndim != 1 || v->shape[0] != s->lanes
                || (d && (v->strides[0] <= 0 || v->strides[0] % 8 != 0)))
            return 0;
        s->base[i] = v->buf;
        s->step[i] = v->strides[0];
        span(v, &lo, &hi);
        if (s->lanes && (!disjoint(lo, hi, &s->solution)
                         || !disjoint(lo, hi, &s->singular)))
            return 0;
    }
    return 1;
}

#define COMPONENT(s, p, k) \
    (*(const double *)((s)->base[p] + (k) * (s)->step[p]))

static inline cd_t entry_cd(const system_t *s, Py_ssize_t e, Py_ssize_t k)
{
    const double *z = (const double *)(s->base[e] + k * s->step[e]);
    return (cd_t){z[0], z[1]};
}
static inline cdd_t entry_cdd(const system_t *s, Py_ssize_t e, Py_ssize_t k)
{
    Py_ssize_t p = 4 * e;
    return (cdd_t){{COMPONENT(s, p, k), COMPONENT(s, p + 1, k)},
                   {COMPONENT(s, p + 2, k), COMPONENT(s, p + 3, k)}};
}
static inline cqd_t entry_cqd(const system_t *s, Py_ssize_t e, Py_ssize_t k)
{
    cqd_t z;
    int c;
    for (c = 0; c < 4; c++) {
        z.re.c[c] = COMPONENT(s, 8 * e + c, k);
        z.im.c[c] = COMPONENT(s, 8 * e + 4 + c, k);
    }
    return z;
}

/* Row i of the solution output as a store operand. */
static inline opnd_t solution_row(const system_t *s, int d, Py_ssize_t i)
{
    double *out = s->solution.buf;
    if (d)
        return (opnd_t){out + 2 * i * s->lanes, 2, 1};
    return (opnd_t){out + i * s->lanes, 1, s->n * s->lanes};
}

/* Pivot magnitudes and divisions, per context (see above). */
static inline double mag_cd(cd_t z) { return cd_abs(z); }
static inline double lead_abs(double re, double im)
{
    return cd_abs((cd_t){isnan(im) ? NAN : re, im});
}
static inline double mag_cdd(cdd_t z) { return lead_abs(z.re.h, z.im.h); }
static inline double mag_cqd(cqd_t z)
{
    return lead_abs(z.re.c[0], z.im.c[0]);
}

static inline cd_t quotient_cd(cd_t x, cd_t y, int *zero)
{
    (void)zero;
    return cd_div(x, y);
}
static inline cdd_t quotient_cdd(cdd_t x, cdd_t y, int *zero)
{
    int z;
    cdd_t q = cdd_div(x, y, &z);
    *zero |= z;
    return q;
}
static inline cqd_t quotient_cqd(cqd_t x, cqd_t y, int *zero)
{
    int z;
    cqd_t q = cqd_div(x, y, &z);
    *zero |= z;
    return q;
}

/* A solution value as backend.stack lands the Python rows: renormalised
 * by the DDArray constructor's two_sum or the QDArray constructor's
 * renorm4 (which may flip a zero's sign or turn an inf lane's low part
 * NaN). */
static inline cd_t landed_cd(cd_t x) { return x; }
static inline cdd_t landed_cdd(cdd_t x)
{
    two_sum(x.re.h, x.re.l, &x.re.h, &x.re.l);
    two_sum(x.im.h, x.im.l, &x.im.h, &x.im.l);
    return x;
}
static inline cqd_t landed_cqd(cqd_t x)
{
    x.re = renorm4(x.re.c[0], x.re.c[1], x.re.c[2], x.re.c[3]);
    x.im = renorm4(x.im.c[0], x.im.c[1], x.im.c[2], x.im.c[3]);
    return x;
}

/* One lane: a (n x n, row r stored at a + r*n) and b are overwritten, x
 * receives the solution; returns nonzero after a zero denominator. */
#define LANE_SOLVER(P, ONE)                                                 \
static int solve_lane_##P(P##_t *a, P##_t *b, P##_t *x, int n,             \
                          int considered, char *singular)                   \
{                                                                           \
    int perm[SOLVE_MAX_N], zero = 0, col, r, j, best, dead;                 \
    double m, v;                                                            \
    for (r = 0; r < n; r++)                                                 \
        perm[r] = r;                                                        \
    for (col = 0; col < n; col++) {                                         \
        P##_t *pivot;                                                       \
        best = col;                                                         \
        m = mag_##P(a[perm[col] * n + col]);                                \
        for (r = col + 1; r < n && !isnan(m); r++) {                        \
            v = mag_##P(a[perm[r] * n + col]);                              \
            if (!(v <= m)) {                                                \
                m = v;                                                      \
                best = r;                                                   \
            }                                                               \
        }                                                                   \
        j = perm[col];                                                      \
        perm[col] = perm[best];                                             \
        perm[best] = j;                                                     \
        pivot = a + perm[col] * n;                                          \
        dead = m * m < DBL_MIN;                                             \
        *singular |= dead && considered;                                    \
        for (r = col + 1; r < n; r++) {                                     \
            P##_t *row = a + perm[r] * n;                                   \
            P##_t f = quotient_##P(row[col], dead ? ONE : pivot[col],       \
                                   &zero);                                  \
            for (j = col + 1; j < n; j++)                                   \
                row[j] = P##_sub(row[j], P##_mul(f, pivot[j]));             \
            b[perm[r]] = P##_sub(b[perm[r]], P##_mul(f, b[perm[col]]));     \
        }                                                                   \
    }                                                                       \
    for (r = n - 1; r >= 0; r--) {                                          \
        P##_t *row = a + perm[r] * n, acc = b[perm[r]];                     \
        for (j = r + 1; j < n; j++)                                         \
            acc = P##_sub(acc, P##_mul(row[j], x[j]));                      \
        m = mag_##P(row[r]);                                                \
        dead = m * m < DBL_MIN;                                             \
        *singular |= dead && considered;                                    \
        x[r] = quotient_##P(acc, dead ? ONE : row[r], &zero);               \
    }                                                                       \
    return zero;                                                            \
}

LANE_SOLVER(cd, ((cd_t){1.0, 0.0}))
LANE_SOLVER(cdd, ((cdd_t){{1.0, 0.0}, {0.0, 0.0}}))
LANE_SOLVER(cqd, ((cqd_t){{{1.0, 0.0, 0.0, 0.0}}, {{0.0, 0.0, 0.0, 0.0}}}))

#define SOLVE(NAME, P, WIDTH)                                               \
static PyObject *py_##NAME(PyObject *module, PyObject *const *args,         \
                           Py_ssize_t nargs)                                \
{                                                                           \
    system_t s = {0};                                                       \
    P##_t a[SOLVE_MAX_N * SOLVE_MAX_N], b[SOLVE_MAX_N], x[SOLVE_MAX_N];      \
    Py_ssize_t k, e;                                                        \
    int status = solve_open(args, nargs, WIDTH, &s), zero = 0, n, i;        \
    char *singular;                                                         \
    (void)module;                                                           \
    if (status < 0)                                                         \
        return solve_close(&s, NULL);                                       \
    if (status == 0)                                                        \
        return solve_close(&s, Py_NewRef(Py_NotImplemented));              \
    n = (int)s.n;                                                           \
    singular = s.singular.buf;                                              \
    for (k = 0; k < s.lanes && !zero; k++) {                                \
        for (e = 0; e < n * n; e++)                                         \
            a[e] = entry_##P(&s, e, k);                                     \
        for (i = 0; i < n; i++)                                             \
            b[i] = entry_##P(&s, n * n + i, k);                             \
        singular[k] = 0;                                                    \
        zero = solve_lane_##P(a, b, x, n,                                   \
                              s.on == NULL || s.on[k * s.on_step],          \
                              &singular[k]);                                \
        for (i = 0; i < n; i++)                                             \
            st_##P(solution_row(&s, WIDTH == 2, i), k, landed_##P(x[i]));   \
    }                                                                       \
    return solve_close(&s, Py_NewRef(zero ? Py_NotImplemented : Py_None));  \
}

SOLVE(solve_d, cd, 2)
SOLVE(solve_dd, cdd, 4)
SOLVE(solve_qd, cqd, 8)

#define ENTRY(NAME)                                                         \
    {#NAME, (PyCFunction)(void (*)(void))py_##NAME, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    ENTRY(tape_d), ENTRY(tape_dd), ENTRY(tape_qd),
    ENTRY(solve_d), ENTRY(solve_dd), ENTRY(solve_qd),
    ENTRY(dd_add), ENTRY(dd_sub), ENTRY(dd_mul), ENTRY(dd_div),
    ENTRY(qd_renorm), ENTRY(qd_add), ENTRY(qd_sub), ENTRY(qd_mul),
    ENTRY(qd_div),
    ENTRY(cdd_add), ENTRY(cdd_sub), ENTRY(cdd_mul), ENTRY(cdd_div),
    ENTRY(cdd_add_mul), ENTRY(cdd_sub_mul), ENTRY(cdd_add_masked),
    ENTRY(cqd_add), ENTRY(cqd_sub), ENTRY(cqd_mul), ENTRY(cqd_div),
    ENTRY(cqd_add_mul), ENTRY(cqd_sub_mul), ENTRY(cqd_add_masked),
    ENTRY(cd_div), ENTRY(cd_abs),
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Element-wise double-double / quad-double plane kernels, plan "
    "tapes and batched linear solves.",
    -1, methods,
    NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *module = PyModule_Create(&module_def);
    if (module != NULL
            && PyModule_AddIntConstant(module, "SOLVE_MAX_N", SOLVE_MAX_N) < 0)
        Py_CLEAR(module);
    return module;
}
