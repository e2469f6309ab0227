//! Precomputed CWS draw tables and the bound-ordered sketch kernel behind
//! [`WeightedMinHasher::signature_tabled`], [`WeightedMinHasher::signature_batch`]
//! and [`SampleCompressor::signature`](crate::SampleCompressor::signature).
//!
//! Every weighted-MinHash family consumes, per `(hash index i, input
//! dimension k)` pair, a fixed set of random draws (`r`, `c`, `β`, …) that
//! depend **only on `(seed, i, k)` — never on the weights**. The naive
//! scalar path re-derives them on every call: each draw is a chain of
//! SplitMix64 rounds plus `ln`/`exp`/`sqrt`, repeated for every column of
//! every candidate feature, every epoch. A [`DrawTables`] materialises the
//! draws once per `(family, d, seed)` — together with the derived `eʳ`
//! factor the log-domain families divide by — and turns the per-element
//! inner loop into four table loads and a couple of flops.
//!
//! **Bit-identity.** The tables store exactly the values the scalar path
//! computes (`gamma21`/`beta21`/`uniform_open` at the same `(seed, i, k,
//! slot)` counters; `eʳ` as the same `r.exp()` the scalar path evaluates),
//! and the kernels apply the remaining per-weight arithmetic with the same
//! operations in the same order. Hoisting is limited to values — `ln w`
//! per support element, `eʳ` per `(i, k)` — never to algebraic rewrites
//! (`w.ln() / r` stays a division; it is *not* replaced by a `1/r`
//! multiply, whose rounding differs). The dense scans are staged through
//! the `simd` crate's elementwise kernels (DESIGN.md §13), which keep
//! exactly those per-element expressions — there is no reduction
//! anywhere in a sketch, so SIMD here is pure lane-parallel elementwise
//! work and bit-identity is structural. The proptest suite in
//! `tests/table_parity.rs` pins all five families bit-identical to the
//! scalar reference.
//!
//! **Visiting only the rows that can still win.** A dense scan costs
//! `rows × d` however the weights look. For CCWS every operation of
//! `t = ⌊w/r + β⌋`, `y = max(r·(t−β), MIN_POSITIVE)`, `a = c/y` is
//! monotone under IEEE correct rounding (`r, c > 0`), so the hash value
//! `a(k, i; w)` is non-increasing in `w` *in floating point*, and every
//! compressor weight is at most `W = 1 + WEIGHT_FLOOR`
//! (`WEIGHT_CEILING`): `A(k, i) = a(k, i; W)` is an exact lower bound
//! that, like the draws, depends only on `(seed, i, k)`. Classic MinHash is
//! the degenerate case (`A = h`, the weight never enters). The table keeps,
//! per hash index, the ids of the rows with the smallest `(A, k)` (a
//! `Tier`); a sketch walks them in that order, evaluates the exact `a` at
//! the row's own weight, keeps the lexicographic `(a, k)` minimum — which is
//! what a strict-`<` ascending scan returns — and is done with the hash
//! index as soon as `A > best a`. A sketch in which some hash index outlives
//! its prefix (one-sided heavy tails: nearly every weight at the floor), and
//! every sketch of ICWS / 0-bit / PCWS — whose bound would rest on `ln` and
//! `exp` being monotone, which the language does not promise — is the dense
//! scan, unchanged.
//!
//! **Layout & growth.** A table is a structure of arrays indexed
//! `[k * d + i]` (row per input dimension `k`, `d` entries per row). A
//! sketch knows its row count up front, so the table grows to
//! `max(n, 2 × old)` rows in one exact reservation: appending rows never
//! relocates existing entries' logical positions, so a grown table serves
//! old and new columns alike. Growth is interior-mutable behind `&self`
//! (an `RwLock`; sketches take the read side and run concurrently).
//!
//! **Memory.** With `K` the largest row count sketched (at most doubled by
//! the growth rule when row counts arrive ascending), CCWS stores three
//! `f64` arrays (`K × d × 24` bytes: 88 MiB at `K = 80 000`, `d = 48`),
//! the log-domain families four, MinHash one `u64`. The prefix index adds
//! `d × 4` bytes per id and keeps `K/16 + 1 280` ids per hash index
//! (`≈ K × d / 4` bytes: 1.2 MiB at that shape). Tables are
//! registered process-wide per `(family, d, seed)`; the engine and the FPE
//! search use a handful of such combinations, so the registry is
//! deliberately unbounded — [`clear_draw_tables`] exists for long-lived
//! processes that rotate seeds.

use crate::compressor::WEIGHT_CEILING;
use crate::families::{discretize_t, HashFamily, WeightedMinHasher};
use crate::rng::{beta21, gamma21, mix, uniform_open};
use crate::signature::SigElement;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// A column handed to the sketch kernel: random access for the
/// bound-ordered visit, one in-order pass for the dense scan. Implemented
/// for `[f64]`; out-of-core callers implement it over their chunks.
pub trait RowSource {
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// The value of row `k < n_rows()`.
    fn value_at(&self, k: usize) -> f64;
    /// Every row's value in row order, handed over as contiguous runs.
    fn for_each_run(&self, f: impl FnMut(&[f64]));
}

impl RowSource for [f64] {
    fn n_rows(&self) -> usize {
        self.len()
    }

    fn value_at(&self, k: usize) -> f64 {
        self[k]
    }

    fn for_each_run(&self, mut f: impl FnMut(&[f64])) {
        f(self)
    }
}

/// Rows covered by the smallest prefix tier, and the floor on every tier's
/// prefix length: below a few hundred ids too many ordinary columns
/// outlive the prefix (21 % of hash indexes at 64 ids over 1 000 rows).
const TIER0_ROWS: usize = 256;

/// Ids kept per hash index by a tier covering `rows` rows.
fn prefix_len(rows: usize) -> usize {
    rows.min((rows / 16).max(TIER0_ROWS))
}

/// Rows covered by tier `j` of a `k_cap`-row table: the powers of two up
/// to where `rows / 16` reaches the floor, then the table itself.
fn tier_rows(j: usize, k_cap: usize) -> usize {
    if j <= 4 {
        (TIER0_ROWS << j).min(k_cap)
    } else {
        k_cap
    }
}

/// One tier of the prefix index: for every hash index, the ids of the
/// `len` rows among `0..rows` with the smallest `(bound, id)`, ascending.
///
/// A sketch of `n` rows uses the first tier with `rows ≥ n` and skips ids
/// `≥ n`: a prefix is complete up to its last bound, so what is left is
/// the prefix of rows `< n` — about `n / 16` ids of the table-sized tier
/// however large the table has grown. Only below 4 096 rows, where `n / 16`
/// would fall under the floor, do smaller tiers add anything, so those are
/// the ones kept.
#[derive(Debug)]
struct Tier {
    rows: usize,
    len: usize,
    /// `[i * len + rank]`.
    ids: Vec<u32>,
}

impl Tier {
    fn prefix(&self, i: usize) -> &[u32] {
        &self.ids[i * self.len..(i + 1) * self.len]
    }
}

/// The CCWS hash value `a` and its `t` at weight `w` — the scalar twin of
/// the dense scan's `simd` kernel sequence (same operations, same order).
#[inline]
fn ccws_hash(w: f64, r: f64, c: f64, beta: f64) -> (f64, f64) {
    let t = (w / r + beta).floor();
    let y = (r * (t - beta)).max(f64::MIN_POSITIVE);
    (c / y, t)
}

/// Lazily grown draw table for one `(family, d, seed)` combination.
#[derive(Debug)]
pub struct DrawTables {
    family: HashFamily,
    d: usize,
    seed: u64,
    store: RwLock<Store>,
}

/// Structure-of-arrays storage, row-major by input dimension `k`
/// (`[k * d + i]`). Which arrays are populated depends on the family.
#[derive(Debug, Default)]
struct Store {
    /// Input dimensions (rows) materialised so far.
    k_cap: usize,
    /// Primary draw: `r ~ Gamma(2,1)` (ICWS/0-bit/PCWS), `r ~ Beta(2,1)`
    /// (CCWS). Empty for classic MinHash.
    r: Vec<f64>,
    /// Numerator draw: `c ~ Gamma(2,1)` (ICWS/0-bit/CCWS), `−ln x` with
    /// `x ~ U(0,1)` (PCWS). Empty for classic MinHash.
    c: Vec<f64>,
    /// `β ~ U(0,1)`. Empty for classic MinHash.
    beta: Vec<f64>,
    /// Derived `eʳ` — the exact `r.exp()` the scalar path divides by.
    /// Populated for the log-domain families (ICWS/0-bit/PCWS) only.
    er: Vec<f64>,
    /// Raw 64-bit hash values for classic MinHash. Empty otherwise.
    h: Vec<u64>,
    /// Prefix index, smallest tier first; the last tier covers `k_cap`
    /// rows. Empty for the log-domain families.
    tiers: Vec<Tier>,
}

impl DrawTables {
    fn new(hasher: &WeightedMinHasher) -> Self {
        DrawTables {
            family: hasher.family,
            d: hasher.d,
            seed: hasher.seed,
            store: RwLock::new(Store::default()),
        }
    }

    /// Input dimensions currently materialised (test/introspection hook).
    pub fn rows(&self) -> usize {
        self.store.read().unwrap().k_cap
    }

    /// Grow the table until it covers dimensions `0..k_needed` — at least
    /// doubling, so ascending row counts cost amortised linear work — and
    /// bring the prefix index up to date. No-op when already large enough.
    fn ensure(&self, k_needed: usize) {
        if self.store.read().unwrap().k_cap >= k_needed {
            return;
        }
        let mut store = self.store.write().unwrap();
        if store.k_cap >= k_needed {
            return; // another thread grew it between our locks
        }
        let start = telemetry::enabled().then(Instant::now);
        let old = store.k_cap;
        let new = k_needed.max(old * 2);
        assert!(new <= u32::MAX as usize, "row ids are stored as u32");
        let fresh = (new - old) * self.d;
        let (d, seed) = (self.d as u64, self.seed);
        let store_ref = &mut *store;
        match self.family {
            HashFamily::MinHash => {
                store_ref.h.reserve_exact(fresh);
                for k in old as u64..new as u64 {
                    for i in 0..d {
                        store_ref.h.push(mix(seed, i, k, 0));
                    }
                }
            }
            HashFamily::Icws | HashFamily::ZeroBitCws | HashFamily::Pcws => {
                for array in [
                    &mut store_ref.r,
                    &mut store_ref.c,
                    &mut store_ref.beta,
                    &mut store_ref.er,
                ] {
                    array.reserve_exact(fresh);
                }
                let pcws = self.family == HashFamily::Pcws;
                for k in old as u64..new as u64 {
                    for i in 0..d {
                        let r = gamma21(seed, i, k, 1);
                        store_ref.r.push(r);
                        store_ref.c.push(if pcws {
                            -(uniform_open(seed, i, k, 2).ln())
                        } else {
                            gamma21(seed, i, k, 2)
                        });
                        store_ref.beta.push(uniform_open(seed, i, k, 3));
                        store_ref.er.push(r.exp());
                    }
                }
            }
            HashFamily::Ccws => {
                for array in [&mut store_ref.r, &mut store_ref.c, &mut store_ref.beta] {
                    array.reserve_exact(fresh);
                }
                for k in old as u64..new as u64 {
                    for i in 0..d {
                        store_ref.r.push(beta21(seed, i, k, 1));
                        store_ref.c.push(gamma21(seed, i, k, 2));
                        store_ref.beta.push(uniform_open(seed, i, k, 3));
                    }
                }
            }
        }
        store.k_cap = new;
        self.build_tiers(&mut store);
        if let Some(start) = start {
            telemetry::record("minhash.table_build_us", start.elapsed().as_micros() as u64);
        }
    }

    /// The hash value of row `k` under hash index `i` at weight `w` as an
    /// order-preserving `u64`, with its discretised `t`: the raw hash for
    /// MinHash, the bit pattern of `a` for CCWS (`a ∈ [0, +∞]`, where the
    /// IEEE bit pattern orders like the value).
    #[inline]
    fn hash_key(&self, store: &Store, k: usize, i: usize, w: f64) -> (u64, i32) {
        let at = k * self.d + i;
        match self.family {
            HashFamily::MinHash => (store.h[at], 0),
            HashFamily::Ccws => {
                let (a, t) = ccws_hash(w, store.r[at], store.c[at], store.beta[at]);
                (a.to_bits(), discretize_t(t))
            }
            _ => unreachable!("the log-domain families keep no prefix index"),
        }
    }

    /// Bring the prefix index up to `store.k_cap` rows. The power-of-two
    /// tiers the table had already outgrown are final; the rest is built.
    fn build_tiers(&self, store: &mut Store) {
        // Only where the hash value is provably non-increasing in the
        // weight; the log-domain families keep no index.
        if !matches!(self.family, HashFamily::MinHash | HashFamily::Ccws) {
            return;
        }
        let (d, k_cap) = (self.d, store.k_cap);
        let keep = store
            .tiers
            .iter()
            .zip(0..)
            .take_while(|&(tier, j)| tier.rows == tier_rows(j, usize::MAX))
            .count();
        store.tiers.truncate(keep);
        let mut fresh = Vec::new();
        for j in keep.. {
            let rows = tier_rows(j, k_cap);
            let len = prefix_len(rows);
            fresh.push(Tier {
                rows,
                len,
                ids: vec![0; len * d],
            });
            if rows == k_cap {
                break;
            }
        }
        // Bounds are evaluated once per (row, hash index) and shared by
        // every tier, a block of hash indexes at a time: wide enough that
        // the passes over the row-major arrays are few, narrow enough that
        // the transient columns stay near a tenth of the table.
        const BLOCK: usize = 16;
        let mut bounds = vec![0u64; BLOCK * k_cap];
        let mut order: Vec<(u64, u32)> = Vec::with_capacity(k_cap);
        for i0 in (0..d).step_by(BLOCK) {
            let width = BLOCK.min(d - i0);
            for k in 0..k_cap {
                for b in 0..width {
                    bounds[b * k_cap + k] = self.hash_key(store, k, i0 + b, WEIGHT_CEILING).0;
                }
            }
            for b in 0..width {
                for tier in &mut fresh {
                    order.clear();
                    let column = &bounds[b * k_cap..b * k_cap + tier.rows];
                    order.extend(column.iter().copied().zip(0u32..));
                    if tier.len < tier.rows {
                        order.select_nth_unstable(tier.len - 1);
                        order.truncate(tier.len);
                    }
                    order.sort_unstable();
                    let at = (i0 + b) * tier.len;
                    for (slot, &(_, k)) in tier.ids[at..at + tier.len].iter_mut().zip(&order) {
                        *slot = k;
                    }
                }
            }
        }
        store.tiers.extend(fresh);
    }

    /// Sketch one column into `d` signature elements. A row is in the
    /// support when `weight(value)` is strictly positive and finite;
    /// `None` when no row is. `bounded` promises every weight is at most
    /// [`WEIGHT_CEILING`], which is what lets the visit skip rows.
    pub(crate) fn sketch<S: RowSource + ?Sized>(
        &self,
        bounded: bool,
        weight: impl Fn(f64) -> f64,
        rows: &S,
    ) -> Option<Vec<SigElement>> {
        let n = rows.n_rows();
        self.ensure(n);
        let store = self.store.read().unwrap();
        if bounded {
            if let Some(tier) = store.tiers.iter().find(|tier| tier.rows >= n) {
                if let Some(elements) = self.visit(&store, tier, &weight, rows) {
                    return Some(elements);
                }
                telemetry::count("minhash.tail_scans", 1);
            }
        }
        self.scan(&store, &weight, rows)
    }

    /// The bound-ordered visit: per hash index, walk the tier's prefix in
    /// ascending `(A, k)` order, keep the lexicographic `(a, k)` minimum
    /// over the rows in the support, and stop at the first row whose bound
    /// exceeds it — no unvisited row can have `a` that small. `a = +∞`
    /// never wins, as in the dense scan. `None` as soon as one hash index
    /// runs out of prefix undecided: the dense scan then does the whole
    /// sketch, so the remaining walks would be wasted.
    fn visit<S: RowSource + ?Sized>(
        &self,
        store: &Store,
        tier: &Tier,
        weight: &impl Fn(f64) -> f64,
        rows: &S,
    ) -> Option<Vec<SigElement>> {
        let n = rows.n_rows();
        let never = (self.family == HashFamily::Ccws).then_some(f64::INFINITY.to_bits());
        let mut elements = Vec::with_capacity(self.d);
        let mut visited = 0u64;
        for i in 0..self.d {
            let mut best: Option<(u64, u32, i32)> = None;
            // A prefix holding the whole tier decides by running out.
            let mut decided = tier.len == tier.rows;
            for &id in tier.prefix(i) {
                let k = id as usize;
                if k >= n {
                    continue;
                }
                let bound = self.hash_key(store, k, i, WEIGHT_CEILING).0;
                if best.is_some_and(|(a, ..)| bound > a) {
                    decided = true;
                    break;
                }
                visited += 1;
                let w = weight(rows.value_at(k));
                if !(w > 0.0 && w.is_finite()) {
                    continue;
                }
                let (a, t) = self.hash_key(store, k, i, w);
                debug_assert!(a >= bound, "hash value below its bound at row {k}");
                if Some(a) != never && best.is_none_or(|(b, bk, _)| (a, id) < (b, bk)) {
                    best = Some((a, id, t));
                }
            }
            let (_, key, t) = best.filter(|_| decided)?;
            elements.push(SigElement { key, t });
        }
        telemetry::record("minhash.visit_rows", visited);
        Some(elements)
    }

    /// The dense scan: every row in the support, in row order, through the
    /// family's row kernel.
    fn scan<S: RowSource + ?Sized>(
        &self,
        store: &Store,
        weight: &impl Fn(f64) -> f64,
        rows: &S,
    ) -> Option<Vec<SigElement>> {
        let mut state = SketchState::new(self.d);
        let mut k = 0;
        rows.for_each_run(|run| {
            for &v in run {
                let w = weight(v);
                // Only strictly positive finite weights can win a hash.
                if w > 0.0 && w.is_finite() {
                    self.absorb_row(store, &mut state, k, w);
                }
                k += 1;
            }
        });
        debug_assert_eq!(k, rows.n_rows());
        state.any.then(|| self.finish_state(state))
    }

    /// Fold row `k` with weight `w` into the running minima, hash index
    /// inner (stride-1 over the table row). Rows arrive in ascending order
    /// and the comparison is the scalar path's strict `<`, so ties resolve
    /// identically.
    ///
    /// The CWS rows are staged through the `simd` crate's elementwise
    /// kernels (DESIGN.md §13): `t`, then `r·(t−β)`, then `exp`, then the
    /// final division, each as one pass over the table row. Every element
    /// still goes through the scalar path's exact expression sequence —
    /// the division stays a division, `floor` is `f64::floor`, and `exp`
    /// stays the scalar libm call — so sketches are bit-identical to the
    /// scalar path. Only the min-tracking scan stays a plain loop (it
    /// carries the cross-iteration argmin state).
    fn absorb_row(&self, store: &Store, state: &mut SketchState, k: usize, w: f64) {
        let d = self.d;
        let base = k * d;
        match self.family {
            HashFamily::MinHash => {
                let first = !state.any;
                for (i, &h) in store.h[base..base + d].iter().enumerate() {
                    if first || h < state.best_h[i] {
                        state.best_h[i] = h;
                        state.best_k[i] = k as u32;
                    }
                }
                state.any = true;
            }
            HashFamily::Icws | HashFamily::ZeroBitCws | HashFamily::Pcws => {
                let r = &store.r[base..base + d];
                let beta = &store.beta[base..base + d];
                // t = ⌊ln w / r + β⌋ ; a = c / (exp(r·(t−β)) · eʳ)
                simd::div_add_floor(&mut state.t_buf, w.ln(), r, beta);
                simd::mul_sub(&mut state.a_buf, r, &state.t_buf, beta);
                simd::exp_inplace(&mut state.a_buf);
                simd::div_prod(
                    &mut state.a_buf,
                    &store.c[base..base + d],
                    &store.er[base..base + d],
                );
                state.take_minima(k);
            }
            HashFamily::Ccws => {
                let r = &store.r[base..base + d];
                let beta = &store.beta[base..base + d];
                // t = ⌊w / r + β⌋ ; a = c / max(r·(t−β), MIN_POSITIVE)
                simd::div_add_floor(&mut state.t_buf, w, r, beta);
                simd::mul_sub(&mut state.a_buf, r, &state.t_buf, beta);
                simd::max_scalar(&mut state.a_buf, f64::MIN_POSITIVE);
                simd::div_into(&mut state.a_buf, &store.c[base..base + d]);
                state.take_minima(k);
            }
        }
    }

    /// Turn finished running state into signature elements.
    fn finish_state(&self, state: SketchState) -> Vec<SigElement> {
        let keep_t = !matches!(self.family, HashFamily::MinHash | HashFamily::ZeroBitCws);
        state
            .best_k
            .into_iter()
            .zip(state.best_t)
            .map(|(key, t)| SigElement {
                key,
                t: if keep_t { t } else { 0 },
            })
            .collect()
    }
}

/// Running per-hash-index argmin state of the dense scan.
#[derive(Debug)]
struct SketchState {
    best_a: Vec<f64>,
    best_h: Vec<u64>,
    best_k: Vec<u32>,
    best_t: Vec<i32>,
    t_buf: Vec<f64>,
    a_buf: Vec<f64>,
    /// Whether any row has been absorbed yet.
    any: bool,
}

impl SketchState {
    fn new(d: usize) -> Self {
        SketchState {
            best_a: vec![f64::INFINITY; d],
            best_h: vec![u64::MAX; d],
            best_k: vec![0u32; d],
            best_t: vec![0i32; d],
            t_buf: vec![0.0f64; d],
            a_buf: vec![0.0f64; d],
            any: false,
        }
    }

    /// Fold the just-computed `a_buf`/`t_buf` for dimension `k` into the
    /// running minima (the CWS argmin update).
    fn take_minima(&mut self, k: usize) {
        for i in 0..self.best_a.len() {
            if self.a_buf[i] < self.best_a[i] {
                self.best_a[i] = self.a_buf[i];
                self.best_k[i] = k as u32;
                self.best_t[i] = discretize_t(self.t_buf[i]);
            }
        }
        self.any = true;
    }
}

type Registry = Mutex<HashMap<(HashFamily, usize, u64), Arc<DrawTables>>>;

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The process-wide draw table for a hasher's `(family, d, seed)`,
/// creating it (empty) on first request.
pub fn draw_tables(hasher: &WeightedMinHasher) -> Arc<DrawTables> {
    let key = (hasher.family, hasher.d, hasher.seed);
    let mut reg = registry().lock().unwrap();
    Arc::clone(
        reg.entry(key)
            .or_insert_with(|| Arc::new(DrawTables::new(hasher))),
    )
}

/// Drop every registered draw table and its prefix index (memory release
/// hook for long-lived processes that rotate seeds; in-flight `Arc`s keep
/// their tables alive).
pub fn clear_draw_tables() {
    registry().lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_weights(tables: &DrawTables, weights: &[f64]) -> Vec<SigElement> {
        tables.sketch(true, |w| w, weights).expect("support")
    }

    #[test]
    fn tables_grow_to_the_row_count_and_serve_old_rows() {
        let hasher = WeightedMinHasher::new(HashFamily::Ccws, 8, 0xABCD).unwrap();
        let tables = DrawTables::new(&hasher);
        let small: Vec<f64> = (0..10).map(|k| (1.0 + k as f64) / 16.0).collect();
        let first = sketch_weights(&tables, &small);
        assert_eq!(tables.rows(), 10);
        // Growing for a larger column must not disturb earlier rows.
        let large: Vec<f64> = (0..300).map(|k| (1.0 + k as f64) / 512.0).collect();
        sketch_weights(&tables, &large);
        assert_eq!(tables.rows(), 300);
        assert_eq!(sketch_weights(&tables, &small), first);
        // Less than double: the table doubles instead.
        sketch_weights(&tables, &vec![0.5; 301]);
        assert_eq!(tables.rows(), 600);
    }

    #[test]
    fn registry_shares_one_table_per_combination() {
        let a = WeightedMinHasher::new(HashFamily::Icws, 16, 7).unwrap();
        let b = WeightedMinHasher::new(HashFamily::Icws, 16, 7).unwrap();
        let c = WeightedMinHasher::new(HashFamily::Icws, 16, 8).unwrap();
        assert!(Arc::ptr_eq(&draw_tables(&a), &draw_tables(&b)));
        assert!(!Arc::ptr_eq(&draw_tables(&a), &draw_tables(&c)));
    }

    #[test]
    fn concurrent_growth_is_consistent() {
        for family in [HashFamily::Pcws, HashFamily::Ccws] {
            let hasher = WeightedMinHasher::new(family, 12, 3).unwrap();
            let tables = DrawTables::new(&hasher);
            let weights: Vec<f64> = (0..700).map(|k| (0.5 + k as f64) / 700.0).collect();
            let expected = sketch_weights(&tables, &weights);
            let fresh = DrawTables::new(&hasher);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..10 {
                            assert_eq!(sketch_weights(&fresh, &weights), expected);
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn tiers_hold_the_smallest_bounds_in_order_within_the_memory_bound() {
        let hasher = WeightedMinHasher::new(HashFamily::Ccws, 5, 11).unwrap();
        let tables = DrawTables::new(&hasher);
        tables.ensure(300);
        tables.ensure(9000);
        let store = tables.store.read().unwrap();
        let covered: Vec<usize> = store.tiers.iter().map(|t| t.rows).collect();
        assert_eq!(covered, [256, 512, 1024, 2048, 4096, 9000]);
        for tier in &store.tiers {
            assert_eq!(tier.len, prefix_len(tier.rows));
            for i in 0..5 {
                let bound = |k: usize| tables.hash_key(&store, k, i, WEIGHT_CEILING).0;
                let mut all: Vec<(u64, u32)> =
                    (0..tier.rows).map(|k| (bound(k), k as u32)).collect();
                all.sort_unstable();
                let expected: Vec<u32> = all[..tier.len].iter().map(|&(_, k)| k).collect();
                assert_eq!(tier.prefix(i), expected, "tier {} hash {i}", tier.rows);
            }
        }
        // Σ len = K/16 + the 256-id floor of the five small tiers.
        let ids: usize = store.tiers.iter().map(|t| t.len).sum();
        assert_eq!(ids, store.k_cap / 16 + 5 * TIER0_ROWS);
        drop(store);
        // The log-domain families keep none.
        let icws = DrawTables::new(&WeightedMinHasher::new(HashFamily::Icws, 5, 11).unwrap());
        icws.ensure(1000);
        assert!(icws.store.read().unwrap().tiers.is_empty());
    }

    /// A one-hash CCWS table over hand-picked draws (`r = β = ½`, so
    /// `t = ⌊2w + ½⌋`, `y = (t − ½)/2`: `y = ¾` at `w ∈ {1, W}`, `¼` at
    /// `w = 0.6`), prefix index built over them.
    fn hand_built(c: &[f64]) -> DrawTables {
        let hasher = WeightedMinHasher::new(HashFamily::Ccws, 1, 0).unwrap();
        let tables = DrawTables::new(&hasher);
        {
            let mut store = tables.store.write().unwrap();
            store.k_cap = c.len();
            store.r = vec![0.5; c.len()];
            store.beta = vec![0.5; c.len()];
            store.c = c.to_vec();
            tables.build_tiers(&mut store);
        }
        tables
    }

    #[test]
    fn exact_tie_goes_to_the_lower_row_whichever_is_visited_first() {
        // Row 1: c = 3, w = 1 → a = 3/¾ = 4, bound 4. Row 4: c = 1,
        // w = 0.6 → a = 1/¼ = 4, bound 1/¾: visited before row 1.
        // Every other row: a = 30/¾ = 40.
        let c = [30.0, 3.0, 30.0, 30.0, 1.0, 30.0];
        let mut w = [1.0; 6];
        w[4] = 0.6;
        let tables = hand_built(&c);
        {
            let store = tables.store.read().unwrap();
            assert_eq!(store.tiers[0].prefix(0)[..2], [4, 1]);
        }
        let row1 = vec![SigElement { key: 1, t: 2 }];
        assert_eq!(tables.sketch(true, |w| w, &w[..]), Some(row1.clone()));
        assert_eq!(tables.sketch(false, |w| w, &w[..]), Some(row1), "tail");
        // Mirrored: the lower row has the smaller bound and is visited
        // first; the later equal `a` must not displace it.
        let c = [30.0, 1.0, 30.0, 30.0, 3.0, 30.0];
        let mut w = [1.0; 6];
        w[1] = 0.6;
        let tables = hand_built(&c);
        let row1 = vec![SigElement { key: 1, t: 1 }];
        assert_eq!(tables.sketch(true, |w| w, &w[..]), Some(row1.clone()));
        assert_eq!(tables.sketch(false, |w| w, &w[..]), Some(row1), "tail");
    }

    #[test]
    fn all_infinite_hash_values_leave_key_and_t_zero() {
        // w = 1e-6: t = 0, y clamps to MIN_POSITIVE, a = 8 / MIN_POSITIVE
        // overflows to +∞ in every row — nothing ever wins.
        let tables = hand_built(&[8.0; 5]);
        let w = [1e-6; 5];
        let untouched = vec![SigElement { key: 0, t: 0 }];
        assert_eq!(tables.sketch(true, |w| w, &w[..]), Some(untouched.clone()));
        assert_eq!(tables.sketch(false, |w| w, &w[..]), Some(untouched));
        // …and an empty support is reported, not sketched.
        assert_eq!(tables.sketch(true, |w| w, &[0.0, f64::NAN, -1.0][..]), None);
    }

    #[test]
    fn heavy_tails_outlive_the_prefix_and_ordinary_columns_do_not() {
        let hasher = WeightedMinHasher::new(HashFamily::Ccws, 48, 5).unwrap();
        let tables = DrawTables::new(&hasher);
        let n = 6000;
        tables.ensure(n);
        let store = tables.store.read().unwrap();
        let tier = store.tiers.last().unwrap();
        let uniform: Vec<f64> = (0..n).map(|k| (k as f64 + 0.5) / n as f64).collect();
        let heavy: Vec<f64> = (0..n)
            .map(|k| if k % 97 == 0 { 0.5 } else { 1e-6 })
            .collect();
        let visited = tables.visit(&store, tier, &|w| w, &uniform[..]);
        assert_eq!(visited, tables.scan(&store, &|w| w, &uniform[..]));
        assert!(visited.is_some());
        assert!(tables.visit(&store, tier, &|w| w, &heavy[..]).is_none());
    }

    /// `A ≤ a` with explicit asserts, so a release-mode test run checks it
    /// too (`debug_assert!` in the visit is compiled out there).
    #[test]
    fn ccws_bound_holds_over_random_draws() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = crate::rng::splitmix64(state);
            state
        };
        let unit = |bits: u64| ((bits >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let mut checked = 0u32;
        for round in 0..1_500_000u32 {
            let r = unit(next()).sqrt();
            let c = -(unit(next()).ln()) - (unit(next()).ln());
            let beta = unit(next());
            let u = unit(next());
            let w = match round % 6 {
                0 => u * WEIGHT_CEILING,
                1 => WEIGHT_CEILING - u * 1e-9,
                2 => f64::from_bits(next() >> 12), // subnormal
                3 => u * 1e-6,
                4 => WEIGHT_CEILING,
                _ => ((u * 3.0).floor() + 1.0 - beta) * r, // where the floor steps
            };
            if !(w > 0.0 && w <= WEIGHT_CEILING) {
                continue;
            }
            let (bound, _) = ccws_hash(WEIGHT_CEILING, r, c, beta);
            let (a, _) = ccws_hash(w, r, c, beta);
            assert!(
                bound <= a,
                "A {bound} > a {a} at w {w} r {r} c {c} β {beta}"
            );
            assert!(bound.to_bits() <= a.to_bits());
            checked += 1;
        }
        assert!(checked >= 1_000_000, "only {checked} draws checked");
    }
}
