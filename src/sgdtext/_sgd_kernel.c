/* Two loops of sgdtext.sgd, compiled: fit_rows, the per-sample step loop of
   _fit_rows, and decide, the per-row products of decision.

   Each performs the numpy loop's operations in the same order on the same
   IEEE doubles, so every result is bitwise the numpy loop's: each margin
   goes through the ddot, and each product through the dgemv, that numpy's
   matmul calls, passed in as function pointers, and the file must be built
   with -ffp-contract=off so that no multiply and add fuse. All arrays are
   numpy's, C-contiguous. fit_rows reads:

     order     steps sample indices, the epochs' visit orders one after another
     indptr    n + 1 row offsets of the CSR pattern, indices its nnz columns
     rows      C addresses, rows[c] of config c's nnz values in that pattern
     Y         n x K labels, +1 or -1
     W, B      C x K x d weights and C x K intercepts, updated in place
     settled   d steps, per feature, at which L1 last settled it (L1 only)
     scratch   C x K x (longest row + 1) doubles

   The tables are sgd._schedule's, step-major: under L1, t1 is the penalty
   accrued in each step and t2 the (steps + 1) x C accrual before each
   step; under L2, t1 is the wscale before each step, t2 after it and t3
   the renormalization factor (0.0 for none). */

#include <math.h>
#include <stdint.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);
/* cblas_dgemv of a 64-bit-integer BLAS; the order and transpose are C enums. */
typedef void (*dgemv_fn)(int order, int trans, int64_t m, int64_t n, double alpha,
                         const double *a, int64_t lda, const double *x, int64_t incx,
                         double beta, double *y, int64_t incy);

enum { COL_MAJOR = 102, NO_TRANS = 111 };

enum { SVM, LOGREG, PERCEPTRON };

/* np.sign(z) * np.maximum(0.0, np.abs(z) - owed). np.sign(-0.0) is +0.0, as
   the difference of the comparisons gives, and np.maximum returns its second
   operand on a tie or a NaN. A NaN z makes a NaN either way. */
static double soft_threshold(double z, double owed)
{
    double x = fabs(z) - owed;
    return (double)((z > 0.0) - (z < 0.0)) * (0.0 > x ? 0.0 : x);
}

/* sgd.loss_dmargin("logreg", m), with libm's exp as Python's math.exp. */
static double logreg_dmargin(double m)
{
    if (m >= 0.0) {
        double em = exp(-m);
        return -em / (1.0 + em);
    }
    return -1.0 / (1.0 + exp(m));
}

void fit_rows(ddot_fn ddot, int64_t loss, int64_t l1, int64_t C, int64_t K,
              int64_t d, int64_t steps, const int64_t *order,
              const int64_t *indptr, const int64_t *indices,
              const double *const *rows, const double *Y, const double *eta,
              const double *t1, const double *t2, const double *t3,
              double *W, double *B, int64_t *settled, double *scratch)
{
    for (int64_t s = 0; s < steps; s++) {
        int64_t i = order[s], start = indptr[i], n = indptr[i + 1] - start;
        const int64_t *idx = indices + start;
        const double *y = Y + i * K;
        /* sub is laid out as numpy's C x K x n take, and step follows it. */
        double *sub = scratch, *step = scratch + C * K * n;
        int moved = 0;
        for (int64_t c = 0; c < C; c++) {
            const double *x = rows[c] + start;
            for (int64_t j = 0; j < n; j++) {
                /* Under L1, the penalty accrued since the weight was last settled. */
                double owed = l1 ? t2[s * C + c] - t2[settled[idx[j]] * C + c] : 0.0;
                for (int64_t k = 0; k < K; k++) {
                    double z = W[(c * K + k) * d + idx[j]];
                    sub[(c * K + k) * n + j] = l1 ? soft_threshold(z, owed) : z;
                }
            }
            for (int64_t k = 0; k < K; k++) {
                const double *row = sub + (c * K + k) * n;
                /* numpy's dot adds ddot's result to 0.0; an empty row's margin is 0.0. */
                double raw = n ? 0.0 + ddot(n, row, 1, x, 1) : 0.0;
                double m = y[k] * ((l1 ? raw : t1[s * C + c] * raw) + B[c * K + k]);
                double g;
                if (loss == LOGREG)
                    g = eta[s * C + c] * logreg_dmargin(m) * y[k];
                else if (loss == SVM ? m < 1.0 : m <= 0.0)
                    g = eta[s * C + c] * -y[k];
                else
                    g = 0.0 * y[k];
                step[c * K + k] = g;
                moved |= g != 0.0;
            }
        }
        if (!l1) {
            for (int64_t c = 0; c < C; c++) {
                double r = t3[s * C + c];
                if (r == 0.0)
                    continue;
                for (int64_t q = 0; q < K * d; q++)
                    W[c * K * d + q] *= r;
                for (int64_t q = 0; q < K * n; q++)
                    sub[c * K * n + q] *= r;
            }
        }
        if (moved) {
            for (int64_t c = 0; c < C; c++) {
                const double *x = rows[c] + start;
                const double *g = step + c * K;
                int any = 0;
                for (int64_t k = 0; k < K; k++)
                    any |= g[k] != 0.0;
                /* A config whose K steps are all zero subtracts nothing: subtracting
                   -0.0 would turn a -0.0 weight into 0.0. */
                for (int64_t k = 0; any && k < K; k++) {
                    double q = l1 ? g[k] : g[k] / t2[s * C + c];
                    double *row = sub + (c * K + k) * n;
                    for (int64_t j = 0; j < n; j++)
                        row[j] -= q * x[j];
                }
                for (int64_t k = 0; k < K; k++)
                    B[c * K + k] -= g[k];
            }
        }
        if (l1) {
            for (int64_t c = 0; c < C; c++)
                for (int64_t q = 0; q < K * n; q++)
                    sub[c * K * n + q] = soft_threshold(sub[c * K * n + q], t1[s * C + c]);
            for (int64_t j = 0; j < n; j++)
                settled[idx[j]] = s + 1;
        }
        if (l1 || moved)
            for (int64_t ck = 0; ck < C * K; ck++)
                for (int64_t j = 0; j < n; j++)
                    W[ck * d + idx[j]] = sub[ck * n + j];
    }
}

/* decision's products: scores[i * K + k] = w_k . x_i for each row i of a
   CSR batch, with W the K x d weights (K >= 2), as numpy's matmul computes
   W[:, idx] @ vals. That gather is an n x K C-ordered copy, which matmul
   hands dgemv as a column-major K x n matrix; numpy gives an empty row
   zeros, and a row of one entry 0.0 + w * v without BLAS. scores must be
   zeros on entry, and block hold K x (longest row) doubles. */
void decide(dgemv_fn dgemv, int64_t rows, int64_t K, int64_t d, const int64_t *indptr,
            const int64_t *indices, const double *values, const double *W,
            double *scores, double *block)
{
    for (int64_t i = 0; i < rows; i++) {
        int64_t start = indptr[i], n = indptr[i + 1] - start;
        const int64_t *idx = indices + start;
        double *out = scores + i * K;
        if (n == 1) {
            for (int64_t k = 0; k < K; k++)
                out[k] = 0.0 + W[k * d + idx[0]] * values[start];
        } else if (n > 1) {
            for (int64_t j = 0; j < n; j++)
                for (int64_t k = 0; k < K; k++)
                    block[j * K + k] = W[k * d + idx[j]];
            dgemv(COL_MAJOR, NO_TRANS, K, n, 1.0, block, K, values + start, 1, 0.0, out, 1);
        }
    }
}
