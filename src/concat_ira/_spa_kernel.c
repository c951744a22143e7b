/* The sum-product iteration of spa.decode_indexed, all but tanh and arctanh.

Working rows are codewords, held batch-first in tiles of LANES rows: row r
is lane r % LANES of tile r / LANES, and a tile of an edge array is
(n_edges, LANES), so each edge's values for the tile's rows are one vector
and the arithmetic below runs on all lanes at once.  Edges are numbered
check by check (check c owns edges check_ptr[c] to check_ptr[c + 1] - 1, in
its row-support order).  The working arrays start on 64-byte boundaries
and a tile row is one 32-byte vector, so no vector load or store straddles
a cache line.  Lanes past the last working row are dead: their lam is
zero, their msg starts at zero and stays finite, and nothing they compute
is read.

NumPy takes tanh and arctanh between the calls.  An iteration is
spa_checks, arctanh of cv in place, spa_variables, and tanh of msg in
place for the kept rows.  The first iteration's messages are all copies of
lam, so its tanh is taken once per variable, not once per edge: after
spa_start, NumPy writes tanh(lam) as a (tiles, n_vars, LANES) array at the
start of cv, which the first spa_checks overwrites, and spa_gather copies
it into msg by edge.

A call's codewords are read from and written to flat block arrays through
an index table: call row i is table row ids[i], and its variable v sits at
index at[ids[i] * n_vars + v] of the channel, prior, extrinsic and
posterior arrays, or at i * n_vars + v when there is no table (at is
NULL).  An index past the end of the prior adds a +0.0 prior; one past the
end of the outputs is not written.

Each product, sum and difference rounds once per lane, in the order of the
NumPy kernel this file replaced; the file is compiled with
-ffp-contract=off, so no multiply-add fuses two roundings into one.  An
addition of +0.0 is kept where that kernel summed a padding zero: it turns
a -0.0 sum into +0.0, which no compiler may fold without -ffast-math. */

#include <stdint.h>

#define LANES 4
#define ATANH_GUARD (1.0 - 1e-12) /* keeps products away from +-1 */

/* one edge's or variable's values in a tile; loads ask only double alignment */
typedef double lanes __attribute__((vector_size(LANES * sizeof(double)), aligned(8), may_alias));
typedef int64_t masks __attribute__((vector_size(LANES * sizeof(int64_t)))); /* 0 or -1 */

typedef struct {
    int64_t n_checks, n_vars, n_edges;
    int64_t var_deg;          /* largest variable degree */
    const int64_t *check_ptr; /* (n_checks + 1,) */
    const int64_t *edge_var;  /* (n_edges,) variable of each edge */
    const int64_t *var_ptr;   /* (n_vars + 1,) */
    const int64_t *var_edge;  /* edges of each variable, in check order */
    double *lam;              /* (tiles, n_vars, LANES) channel + prior, half scale */
    double *msg;              /* (tiles, n_edges, LANES) variable-to-check, then its tanh */
    double *cv;               /* (tiles, n_edges, LANES) check products, then their arctanh;
                                 first (tiles, n_vars, LANES) tanh(lam) */
    double *ext, *post;       /* (n_vars, LANES) scratch: one tile's extrinsic and posterior */
    int64_t *active;          /* (tiles * LANES,) call row of each working row */
    uint8_t *stopped;         /* (tiles * LANES,) scratch: whether each working row stops */
    /* one call's block */
    const int32_t *at;        /* (at_rows, n_vars) index table, or NULL */
    const int64_t *ids;       /* (rows,) table row of each call row, if at */
    const double *channel;    /* (channel_len,) */
    const double *prior;      /* (prior_len,) */
    double *extrinsic;        /* (out_len,) written 2 * ext */
    double *posterior;        /* (out_len,) written channel + prior + 2 * ext, or NULL */
    int64_t *iterations;      /* (rows,) */
    uint8_t *valid;           /* (rows,) */
    int64_t at_rows, channel_len, prior_len, out_len;
} spa_graph;

static int64_t tiles_of(int64_t rows) { return (rows + LANES - 1) / LANES; }

/* tile t of a (tiles, size, LANES) array */
static lanes *tile(double *a, int64_t t, int64_t size) { return (lanes *)(a + t * size * LANES); }

/* working row from's lam, msg and active entry into working row to */
static void move_row(const spa_graph *g, int64_t from, int64_t to)
{
    const int64_t n = g->n_vars, n_edges = g->n_edges;
    const double *lam = g->lam + (from / LANES) * n * LANES + from % LANES;
    const double *msg = g->msg + (from / LANES) * n_edges * LANES + from % LANES;
    double *lam_to = g->lam + (to / LANES) * n * LANES + to % LANES;
    double *msg_to = g->msg + (to / LANES) * n_edges * LANES + to % LANES;
    for (int64_t v = 0; v < n; v++)
        lam_to[v * LANES] = lam[v * LANES];
    for (int64_t e = 0; e < n_edges; e++)
        msg_to[e * LANES] = msg[e * LANES];
    g->active[to] = g->active[from];
}

/* channel + prior at index i of the block */
static double block_sum(const spa_graph *g, int64_t i)
{
    return g->channel[i] + (i < g->prior_len ? g->prior[i] : 0.0);
}

/* the index table row of call row i, or NULL without a table */
static const int32_t *indices(const spa_graph *g, int64_t i)
{
    return g->at ? g->at + g->ids[i] * g->n_vars : 0;
}

/* lam = (channel + prior) * 0.5 for call rows 0..rows-1, call row r in
   working row r; dead lanes get zeros.  Returns -1 if an id lies outside
   the table or an index outside the channel, else 0. */
int64_t spa_start(const spa_graph *g, int64_t rows)
{
    const int64_t n = g->n_vars;
    for (int64_t r = 0; r < tiles_of(rows) * LANES; r++) {
        double *lam = g->lam + (r / LANES) * n * LANES + r % LANES;
        if (r >= rows) {
            for (int64_t v = 0; v < n; v++)
                lam[v * LANES] = 0.0;
            continue;
        }
        if (g->at && (g->ids[r] < 0 || g->ids[r] >= g->at_rows))
            return -1;
        const int32_t *at = indices(g, r);
        for (int64_t v = 0; v < n; v++) {
            int64_t j = at ? at[v] : r * n + v;
            if (j < 0 || j >= g->channel_len)
                return -1;
            lam[v * LANES] = block_sum(g, j) * 0.5;
        }
        g->active[r] = r;
    }
    return 0;
}

/* The first iteration's messages: msg = tanh(lam) gathered by edge, from
   the (tiles, n_vars, LANES) array that NumPy wrote at the start of cv */
void spa_gather(const spa_graph *g, int64_t rows)
{
    /* locals, as a vector store may alias *g */
    const int64_t n = g->n_vars, n_edges = g->n_edges, *edge_var = g->edge_var;
    for (int64_t t = 0; t < tiles_of(rows); t++) {
        const lanes *th = tile(g->cv, t, n);
        lanes *msg = tile(g->msg, t, n_edges);
        for (int64_t e = 0; e < n_edges; e++)
            msg[e] = th[edge_var[e]];
    }
}

/* x clipped to the guard, lane by lane; -0.0 and NaN pass unchanged */
static lanes clip(lanes x)
{
    const lanes lo = (lanes){0} - ATANH_GUARD, hi = (lanes){0} + ATANH_GUARD;
    masks below = x < lo, above = x > hi;
    return (lanes)(((masks)x & ~(below | above)) | ((masks)lo & below) | ((masks)hi & above));
}

/* cv = the product of the other tanh terms of each edge's check, clipped to
   the guard: a prefix product times a running suffix product, the suffix
   folded from the check's last edge down */
void spa_checks(const spa_graph *g, int64_t rows)
{
    /* locals, as a vector store may alias *g */
    const int64_t n_checks = g->n_checks, n_edges = g->n_edges, *check_ptr = g->check_ptr;
    for (int64_t t = 0; t < tiles_of(rows); t++) {
        const lanes *msg = tile(g->msg, t, n_edges);
        lanes *cv = tile(g->cv, t, n_edges);
        for (int64_t c = 0; c < n_checks; c++) {
            int64_t lo = check_ptr[c], d = check_ptr[c + 1] - lo;
            const lanes *tc = msg + lo;
            lanes *pc = cv + lo;
            if (d == 1) {
                pc[0] = clip((lanes){0} + 1.0);
            } else if (d > 1) {
                pc[1] = tc[0];
                for (int64_t k = 2; k < d; k++)
                    pc[k] = pc[k - 1] * tc[k - 1];
                pc[d - 1] = clip(pc[d - 1]);
                lanes s = tc[d - 1];
                for (int64_t k = d - 2; k > 0; k--) {
                    pc[k] = clip(pc[k] * s);
                    s = s * tc[k];
                }
                pc[0] = clip(s);
            }
        }
    }
}

/* The variable update, the syndrome and the row stops of iteration it.
   Per tile: the extrinsic (each variable's check messages summed in check
   order), the posterior lam + extrinsic, and the next msg, post - cv, with
   the parity of each check's hard decisions, for every lane.  A working
   row stops when stop_all is set, or at a zero syndrome when early_stop
   is; it then writes its extrinsic and posterior at full scale, its
   iterations and its validity.  The last kept rows then move into the
   places of stopped ones, so the kept rows are the first ones.  Returns
   their number. */
int64_t spa_variables(const spa_graph *g, int64_t rows, int64_t it, int stop_all, int early_stop)
{
    /* locals, as a vector store may alias *g */
    const int64_t n = g->n_vars, n_checks = g->n_checks, n_edges = g->n_edges,
                  var_deg = g->var_deg, *check_ptr = g->check_ptr, *edge_var = g->edge_var,
                  *var_ptr = g->var_ptr, *var_edge = g->var_edge;
    lanes *ext = (lanes *)g->ext, *post = (lanes *)g->post;
    int64_t stops = 0;
    for (int64_t t = 0; t < tiles_of(rows); t++) {
        const lanes *lam = tile(g->lam, t, n), *cv = tile(g->cv, t, n_edges);
        lanes *msg = tile(g->msg, t, n_edges);
        for (int64_t v = 0; v < n; v++) {
            const int64_t *e = var_edge + var_ptr[v];
            int64_t d = var_ptr[v + 1] - var_ptr[v];
            lanes s = d ? cv[e[0]] : (lanes){0};
            for (int64_t j = 1; j < d; j++)
                s = s + cv[e[j]];
            if (d < var_deg)
                s = s + 0.0;
            ext[v] = s;
            post[v] = lam[v] + s;
        }
        masks unsatisfied = {0};
        for (int64_t c = 0; c < n_checks; c++) {
            masks parity = {0};
            for (int64_t e = check_ptr[c]; e < check_ptr[c + 1]; e++) {
                lanes p = post[edge_var[e]];
                parity ^= p < 0.0;
                msg[e] = p - cv[e];
            }
            unsatisfied |= parity;
        }

        for (int l = 0; l < LANES && t * LANES + l < rows; l++) {
            int64_t r = t * LANES + l, row = g->active[r];
            g->stopped[r] = stop_all || (early_stop && !unsatisfied[l]);
            if (!g->stopped[r])
                continue;
            const int32_t *at = indices(g, row);
            for (int64_t v = 0; v < n; v++) {
                int64_t j = at ? at[v] : row * n + v;
                if (j >= g->out_len)
                    continue;
                double e = 2.0 * ext[v][l];
                g->extrinsic[j] = e;
                if (g->posterior)
                    g->posterior[j] = block_sum(g, j) + e;
            }
            g->iterations[row] = it;
            g->valid[row] = !unsatisfied[l];
            stops++;
        }
    }

    const int64_t kept = rows - stops;
    int64_t last = rows;
    for (int64_t r = 0; r < kept; r++) {
        if (!g->stopped[r])
            continue;
        do
            last--;
        while (g->stopped[last]);
        move_row(g, last, r);
    }
    return kept;
}
