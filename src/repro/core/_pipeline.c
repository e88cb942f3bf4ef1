/* Depth-bounded producer/consumer recurrence of repro.core.pipeline.
 *
 * Performs, granule by granule, the same IEEE double operations in the
 * same order as bounded_pipeline_reference, so the results are bit-
 * identical as long as the compiler neither contracts a*b+c nor
 * reassociates (build with -O2 -ffp-contract=off, never -ffast-math).
 * `window` holds the last `depth` consumer-done times (caller-zeroed);
 * out receives {consumer done time, producer stall, consumer stall}.
 */
void bounded_pipeline_run(const double *prod, const double *cons, long n,
                          long depth, double *window, double *out)
{
    double prod_done = 0.0, cons_done = 0.0;
    double prod_stall = 0.0, cons_stall = 0.0;
    for (long i = 0; i < n; i++) {
        long slot = i % depth;
        double start_p = prod_done;
        if (i >= depth && window[slot] > start_p) {
            prod_stall += window[slot] - start_p;
            start_p = window[slot];
        }
        prod_done = start_p + prod[i];
        double waited_c = cons_done > prod_done ? cons_done : prod_done;
        cons_stall += waited_c - cons_done;
        cons_done = waited_c + cons[i];
        window[slot] = cons_done;
    }
    out[0] = cons_done;
    out[1] = prod_stall;
    out[2] = cons_stall;
}
