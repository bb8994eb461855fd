/* C forward pass: the per-instruction loop of ForwardPass.run in
 * repro/critpath/graph.py, which stays as the pure-Python twin and
 * golden oracle.  Built opportunistically by repro/cpu/nativebuild.py
 * and loaded through ctypes; CRITPATH_ABI is checked at load time.
 *
 * Inputs are the sealed trace columns src1/src2 (read in place at
 * start + i), one double latency and one mispredict byte per window
 * instruction, the machine's bandwidths and sizes, and two caller-owned
 * scratch buffers of n doubles for the completion and commit times.
 * Every producer seq is NO_PRODUCER (-1) or smaller than its consumer,
 * so comp[] is only read at indexes already written.
 *
 * The statements follow the Python loop one for one: adds and max only,
 * in double, with no multiply to contract, so both engines return the
 * same bits.
 */

#include <stdint.h>

#define CRITPATH_ABI 1

int64_t repro_critpath_abi(void) { return CRITPATH_ABI; }

/* The window's execution time: the commit time of its last
 * instruction, or 0 for an empty window. */
double repro_critpath_run(
    int64_t n, int64_t start, const int64_t *src1, const int64_t *src2,
    const double *lat, const uint8_t *mispred, double inv_width,
    double inv_commit, int64_t rob, double refill, double *comp,
    double *commit)
{
    double d_prev = 0.0, c_prev = 0.0, redirect_ready = 0.0;
    int64_t i;

    if (n <= 0)
        return 0.0;
    for (i = 0; i < n; i++) {
        double d = d_prev + inv_width, e, done, c, t;
        int64_t p;

        if (redirect_ready > d)
            d = redirect_ready;
        if (i >= rob) {
            t = commit[i - rob];
            if (t > d)
                d = t;
        }
        e = d + 1.0;
        /* NO_PRODUCER (-1) is below every start, so one test covers
         * both of the Python loop's. */
        p = src1[start + i];
        if (p >= start) {
            t = comp[p - start];
            if (t > e)
                e = t;
        }
        p = src2[start + i];
        if (p >= start) {
            t = comp[p - start];
            if (t > e)
                e = t;
        }
        done = e + lat[i];
        comp[i] = done;
        c = c_prev + inv_commit;
        if (done > c)
            c = done;
        commit[i] = c;
        c_prev = c;
        d_prev = d;
        if (mispred[i])
            redirect_ready = done + refill;
    }
    return commit[n - 1];
}
