//! Precomputed CWS draw tables and the bound-ordered sketch kernel behind
//! every [`SampleCompressor`](crate::SampleCompressor) signature — the
//! crate's one sketch path, with one mode.
//!
//! Every weighted-MinHash family consumes, per `(hash index i, input
//! dimension k)` pair, a fixed set of random draws (`r`, `c`, `β`, …) that
//! depend **only on `(seed, i, k)` — never on the weights**. The scalar
//! test oracle (`scalar_ref.rs`) re-derives all of them on every call. A
//! [`DrawTables`] keeps, once per `(family, d, seed)`, what a sketch
//! cannot afford to derive for every row it touches. The log-domain
//! families' dense scan touches every supported row, so their table
//! stores the draws that cost a transcendental: the Gamma(2,1) draws (two
//! logarithms each) and the `eʳ` factor they divide by. A CCWS sketch
//! touches few rows, so its table stores **bounds, not draws**: a prefix
//! index ordered by each row's least possible hash value, and per block of
//! [`C_BLOCK`] rows the least `c`. Every CCWS draw — `r = √u`,
//! `c ~ Gamma(2,1)`, `β = u` — is derived where it is used, once per row
//! that gets past a bound; a table of them would be as large as the column
//! it helps to compress. Every family's `β = u` is two SplitMix rounds off
//! the same `(seed, i, k)` state and is always derived.
//!
//! **Bit-identity.** Stored or derived, a draw is the value of the same
//! function at the same `(seed, i, k, slot)` counter the scalar oracle
//! calls (`gamma21`/`beta21`/`uniform_open`; `eʳ` is the same `r.exp()`),
//! and the kernels apply the remaining per-weight arithmetic with the same
//! operations in the same order. Hoisting is limited to values — `ln w`
//! per support element, `eʳ` per `(i, k)` — never to algebraic rewrites
//! (`w.ln() / r` stays a division; it is *not* replaced by a `1/r`
//! multiply, whose rounding differs). There is no floating-point reduction
//! anywhere in a sketch: a hash index keeps the lexicographic `(a, k)`
//! minimum, which is what the oracle's ascending scan under a strict `<`
//! returns. The `table_parity` unit suite pins all five families
//! bit-identical to the oracle on compressor columns.
//!
//! **Weights.** A sketch takes a column and its [`WeightBounds`]; row `k`
//! weighs `bounds.weight(value_k)`, strictly positive and finite (in the
//! support) or NaN, and never outside `[WEIGHT_FLOOR, WEIGHT_CEILING]`.
//! That bound holds by construction, so the two shortcuts below that need
//! it — the visit and the dense scan's filter — run on every sketch.
//!
//! **Visiting only the rows that can still win.** A dense scan costs
//! `rows × d` however the weights look. For CCWS every operation of
//! `t = ⌊w/r + β⌋`, `y = max(r·(t−β), MIN_POSITIVE)`, `a = c/y` is
//! monotone under IEEE correct rounding (`r, c > 0`), so the hash value
//! `a(k, i; w)` is non-increasing in `w` *in floating point*, and every
//! weight is at most `W = 1 + WEIGHT_FLOOR`
//! (`WEIGHT_CEILING`): `A(k, i) = a(k, i; W)` is an exact lower bound
//! that, like the draws, depends only on `(seed, i, k)`. Classic MinHash is
//! the degenerate case (`A = h`, the weight never enters). The table keeps,
//! per hash index, the ids of the rows with the smallest `(A, k)` (a
//! prefix per tier); a sketch walks them in that order, derives the row's
//! draws once for its bound and for the exact `a` at the row's own
//! weight, keeps the lexicographic `(a, k)`
//! minimum — which is what a strict-`<` ascending scan returns — and is
//! done with the hash index as soon as `A > best a`. A sketch in which some
//! hash index outlives its prefix (one-sided heavy tails: nearly every
//! weight at the floor), and every sketch of ICWS / 0-bit / PCWS — whose
//! bound would rest on `ln` and `exp` being monotone, which the language
//! does not promise — is the dense scan.
//!
//! **The dense scan derives only for rows that can still win.** It runs
//! hash-index-outer over blocks of rows (the block's weights and the stored
//! draws or block minima are contiguous) and keeps, like the visit, the
//! lexicographic `(a, k)` minimum, so the order rows are offered in is
//! free. A CCWS sketch offers its heaviest row first; then, with `S =
//! 1 − 2⁻³⁰`, it skips a row without deriving anything when
//! `fl(c_min/w)·S > best a` for the least `c_min` of the row's block,
//! and otherwise derives the row's `c` and skips it when
//! `fl(c/w)·S > best a`. The block test never skips a row the row's own
//! test keeps: `c_min ≤ c`, and a correctly rounded division and
//! multiplication are monotone in each argument, so
//! `fl(fl(c_min/w)·S) ≤ fl(fl(c/w)·S)` (a `debug_assert!` checks every
//! skip). The row test is sound because `a(k, i; w) ≥ fl(c/w)·S` for
//! every weight `w ∈ [WEIGHT_FLOOR, WEIGHT_CEILING]`: with `ε = 2⁻⁵³`
//! and every intermediate in the normal range (`w/r ≤ 2²⁸`,
//! `c ∈ [10⁻¹⁶, 80]`), `t ≤ (w/r)(1+ε)² + β(1+ε)`, so for `t ≥ 1`
//! `fl(t−β) ≤ ((w/r)(1+ε)² + ε)(1+ε)` and, as `r ≤ 1`,
//! `fl(r·fl(t−β)) ≤ w(1+ε)⁴ + ε(1+ε)²`; `ε/w ≤ 1.2·10⁻¹⁰` at
//! `w ≥ 10⁻⁶`, hence `y ≤ w·(1 + 1.3·10⁻¹⁰)` — also when `t = 0` or the
//! product underflows, where `y` clamps to `MIN_POSITIVE ≤ w`. Then
//! `a = fl(c/y) ≥ (c/w)(1−ε)/(1 + 1.3·10⁻¹⁰)`, `fl(c/w) ≤ (c/w)(1+ε)`,
//! and the filter's own product rounds once more: all of it is below a
//! quarter of `2⁻³⁰ ≈ 9.3·10⁻¹⁰`. `ccws_filter_bound_holds_over_random_draws`
//! asserts the inequality over random and adversarial draws, at `c` and at
//! every `m ≤ c` as a block minimum is. (Why the
//! heaviest row goes first: a `t = 0` row's hash value is
//! `c/MIN_POSITIVE`, which no `c/w` exceeds, and a one-sided heavy tail is
//! mostly such rows; at the ceiling weight `t ≥ 1`.)
//!
//! **Layout & growth.** A table is one column per hash index `i`, each a
//! structure of arrays indexed by the row `k` (`[i][k]`) or, for the block
//! minima, by `k / C_BLOCK`, with that hash index's prefixes beside it. A
//! sketch knows its row count up front, so the table grows to
//! `max(n, 2 × old)` rows at once. Growing is `d` independent jobs, one per
//! hash index: for CCWS derive every row's draws, evaluate `A(k, i)` and
//! fold `c` into its block's minimum while `r`, `c`, `β` are in registers,
//! then select the prefixes; for the log-domain families copy the column
//! and draw the fresh rows. `grow` hands the jobs to the caller's runner
//! ([`SampleCompressor::prepare_rows`](crate::SampleCompressor::prepare_rows):
//! the `runtime` crate passes its worker pool) and runs whatever the
//! runner left undone itself, which is also all a sketch does when it
//! finds the table too small. Jobs read the old table and write nothing
//! shared; the new columns replace the old ones in one assignment under
//! the write lock, so a grown table serves old and new columns alike and
//! is valid at every instant (sketches take the read side and run
//! concurrently).
//!
//! **Memory.** With `K` the largest row count sketched (at most doubled by
//! the growth rule when row counts arrive ascending), CCWS keeps one `f64`
//! per block of 64 rows and hash index (`K × d / 8` bytes: 0.46 MiB at
//! `K = 80 000`, `d = 48`) and the prefix index, `4` bytes per id and
//! `K/16 + 1 280` ids per hash index (`≈ K × d / 4` bytes: 1.2 MiB at that
//! shape) — 1.6 MiB together.
//! MinHash keeps one `u64` per `(row, hash index)` beside its prefix
//! index, the log-domain families three `f64` (`r`, `c`, `eʳ`) and no
//! index. The `minhash.table_bytes` gauge records the sum at every growth.
//! A growth job's transient is its `(A, k)` list, `K × 16` bytes. Tables
//! are registered process-wide per `(family, d, seed)`. The engine and the
//! FPE search use a handful of such combinations, and the CCWS table they
//! default to grows by `3 × d / 8` bytes per row, so the registry is
//! deliberately unbounded — [`clear_draw_tables`] exists for long-lived
//! processes that rotate seeds or sketch with a log-domain family, whose
//! table grows by `24 × d` bytes per row.

use crate::compressor::{WeightBounds, WEIGHT_CEILING};
use crate::error::{MinHashError, Result};
use crate::families::{discretize_t, in_support, HashFamily, WeightedMinHasher};
use crate::rng::{beta21, gamma21, mix, uniform_open};
use crate::signature::SigElement;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard};
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

/// Tiers a table can have: the five powers of two, then the table itself.
const MAX_TIERS: usize = 6;

/// Ids kept per hash index by a tier covering `rows` rows.
fn prefix_len(rows: usize) -> usize {
    rows.min((rows / 16).max(TIER0_ROWS))
}

/// Rows covered by tier `j` of a `k_cap`-row table: the powers of two up
/// to where `rows / 16` reaches the floor, then the table itself.
///
/// A sketch of `n` rows uses the first tier with `rows ≥ n` and skips ids
/// `≥ n`: a prefix is complete up to its last bound, so what is left is
/// the prefix of rows `< n` — about `n / 16` ids of the table-sized tier
/// however large the table has grown. Only below 4 096 rows, where `n / 16`
/// would fall under the floor, do smaller tiers add anything, so those are
/// the ones kept.
fn tier_rows(j: usize, k_cap: usize) -> usize {
    if j + 1 < MAX_TIERS {
        (TIER0_ROWS << j).min(k_cap)
    } else {
        k_cap
    }
}

/// Rows of a run the dense scan takes at a time: one block's weights stay
/// in L1 while every hash index passes over them.
const SCAN_BLOCK: usize = 2048;

/// Rows per block whose least `c` a CCWS column keeps for the dense scan's
/// first test (see the module docs).
const C_BLOCK: usize = 64;

/// `1 − 2⁻³⁰`: what `fl(c/w)` is scaled by to stay below `a(k, i; w)` (see
/// the module docs).
const FILTER_SLACK: f64 = 1.0 - 1.0 / (1u64 << 30) as f64;

/// The CCWS hash value `a` and its `t` at weight `w`: the scalar oracle's
/// operations in the oracle's order.
#[inline]
fn ccws_hash(w: f64, r: f64, c: f64, beta: f64) -> (f64, f64) {
    let t = (w / r + beta).floor();
    let y = (r * (t - beta)).max(f64::MIN_POSITIVE);
    (c / y, t)
}

/// CCWS's draws `(r, c, β)` as a function of `(i, k)`, all three derived.
/// Every kernel reads them through one such accessor, so a test can sketch
/// over hand-picked draws.
trait Draws: Fn(usize, usize) -> (f64, f64, f64) + Sync {}

impl<F: Fn(usize, usize) -> (f64, f64, f64) + Sync> Draws for F {}

/// The accessor every table uses: the oracle's functions at the oracle's
/// counters.
fn ccws_draws(seed: u64) -> impl Draws {
    move |i, k| {
        let (i, k) = (i as u64, k as u64);
        (
            beta21(seed, i, k, 1),
            gamma21(seed, i, k, 2),
            uniform_open(seed, i, k, 3),
        )
    }
}

/// The running `(hash value as an order-preserving u64, row, t)` minimum
/// of one hash index; `None` until a row wins.
type Best = Option<(u64, u32, i32)>;

/// Lazily grown draw table for one `(family, d, seed)` combination.
#[derive(Debug)]
pub(crate) struct DrawTables {
    family: HashFamily,
    d: usize,
    seed: u64,
    store: RwLock<Store>,
}

#[derive(Debug)]
struct Store {
    /// Input dimensions (rows) materialised so far.
    k_cap: usize,
    /// One column per hash index.
    cols: Vec<HashColumn>,
}

/// What the table keeps for one hash index, indexed by the row `k`. Which
/// arrays are populated depends on the family.
#[derive(Debug, Default, PartialEq)]
struct HashColumn {
    /// Raw 64-bit hash values for classic MinHash. Empty otherwise.
    h: Vec<u64>,
    /// `r ~ Gamma(2,1)`, log-domain families (ICWS/0-bit/PCWS) only:
    /// CCWS's `r ~ Beta(2,1)` is derived.
    r: Vec<f64>,
    /// Numerator draw: `c ~ Gamma(2,1)` (ICWS/0-bit), `−ln x` with
    /// `x ~ U(0,1)` (PCWS). Log-domain families only: CCWS's `c` is
    /// derived.
    c: Vec<f64>,
    /// Derived `eʳ` — the exact `r.exp()` the scalar oracle divides by.
    /// Log-domain families only.
    er: Vec<f64>,
    /// CCWS only: per block of [`C_BLOCK`] rows, the least `c` among them.
    c_min: Vec<f64>,
    /// Per tier `j` (smallest first; the last covers the whole table), the
    /// ids of the `prefix_len(tier_rows(j))` rows among the tier's with
    /// the smallest `(bound, id)`, ascending. Empty for the log-domain
    /// families.
    prefixes: Vec<Vec<u32>>,
}

impl Store {
    fn bytes(&self) -> usize {
        let of = |col: &HashColumn| {
            let ids: usize = col.prefixes.iter().map(Vec::len).sum();
            let draws = col.h.len() + col.r.len() + col.c.len() + col.er.len();
            (draws + col.c_min.len()) * 8 + ids * 4
        };
        self.cols.iter().map(of).sum()
    }
}

impl DrawTables {
    fn new(hasher: &WeightedMinHasher) -> Self {
        DrawTables {
            family: hasher.family,
            d: hasher.d,
            seed: hasher.seed,
            store: RwLock::new(Store {
                k_cap: 0,
                cols: (0..hasher.d).map(|_| HashColumn::default()).collect(),
            }),
        }
    }

    /// The read side of the store. A poisoned lock is recovered: the store
    /// only ever changes by one whole-table assignment, so a thread that
    /// panicked while holding either side left it valid.
    fn read(&self) -> RwLockReadGuard<'_, Store> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Grow the table until it covers dimensions `0..k_needed` — at least
    /// doubling, so ascending row counts cost amortised linear work. No-op
    /// when already large enough.
    ///
    /// The work is `d` independent jobs. `run(d, job)` may call `job(i)`
    /// for any `i < d`, in any order, on any threads, and must return only
    /// once those calls have; every job it did not run is run here.
    pub(crate) fn grow(
        &self,
        k_needed: usize,
        run: impl FnOnce(usize, &(dyn Fn(usize) + Sync)),
    ) -> Result<()> {
        self.grow_with(&ccws_draws(self.seed), k_needed, run)
    }

    fn grow_with(
        &self,
        draw: &impl Draws,
        k_needed: usize,
        run: impl FnOnce(usize, &(dyn Fn(usize) + Sync)),
    ) -> Result<()> {
        if self.read().k_cap >= k_needed {
            return Ok(());
        }
        let mut store = self.store.write().unwrap_or_else(PoisonError::into_inner);
        if store.k_cap >= k_needed {
            return Ok(()); // another thread grew it between our locks
        }
        let start = telemetry::enabled().then(Instant::now);
        let new = k_needed.max(store.k_cap * 2);
        if new > u32::MAX as usize {
            return Err(MinHashError::InvalidParam(format!(
                "a {new}-row draw table exceeds the u32 row ids of a signature"
            )));
        }
        let cols = {
            let old = &store.cols;
            let grown: Vec<OnceLock<HashColumn>> = old.iter().map(|_| OnceLock::new()).collect();
            let job = |i: usize| {
                if let (Some(slot), Some(old)) = (grown.get(i), old.get(i)) {
                    slot.get_or_init(|| self.grow_column(old, i, new, draw));
                }
            };
            run(self.d, &job);
            let rest = grown.into_iter().zip(old).enumerate();
            rest.map(|(i, (slot, old))| {
                let built = slot.into_inner();
                built.unwrap_or_else(|| self.grow_column(old, i, new, draw))
            })
            .collect()
        };
        *store = Store { k_cap: new, cols };
        if let Some(start) = start {
            telemetry::record("minhash.table_build_us", start.elapsed().as_micros() as u64);
            telemetry::record("minhash.table_bytes", store.bytes() as u64);
        }
        Ok(())
    }

    /// One growth job: hash index `i`'s column at `new` rows — `old`'s
    /// rows, the fresh draws behind them, and the prefixes over all of
    /// them, each row's bound evaluated as its draws pass by (CCWS derives
    /// every row's draws, old rows' too, and keeps only their block minima).
    fn grow_column(&self, old: &HashColumn, i: usize, new: usize, draw: &impl Draws) -> HashColumn {
        let (seed, hash_idx) = (self.seed, i as u64);
        let mut col = HashColumn::default();
        // `(bound, id)` of every row, where the family has a bound.
        let mut order: Vec<(u64, u32)> = Vec::new();
        match self.family {
            HashFamily::MinHash => {
                col.h.reserve_exact(new);
                col.h.extend_from_slice(&old.h);
                let fresh = old.h.len() as u64..new as u64;
                col.h.extend(fresh.map(|k| mix(seed, hash_idx, k, 0)));
                order.reserve_exact(new);
                order.extend(col.h.iter().copied().zip(0u32..));
            }
            HashFamily::Ccws => {
                col.c_min.reserve_exact(new.div_ceil(C_BLOCK));
                order.reserve_exact(new);
                for k in 0..new {
                    let (r, c, beta) = draw(i, k);
                    match col.c_min.last_mut() {
                        Some(least) if k % C_BLOCK != 0 => *least = least.min(c),
                        _ => col.c_min.push(c),
                    }
                    let bound = ccws_hash(WEIGHT_CEILING, r, c, beta).0;
                    order.push((bound.to_bits(), k as u32));
                }
            }
            // Only where the hash value is provably non-increasing in the
            // weight; the log-domain families keep no index.
            HashFamily::Icws | HashFamily::ZeroBitCws | HashFamily::Pcws => {
                for (array, old) in [
                    (&mut col.r, &old.r),
                    (&mut col.c, &old.c),
                    (&mut col.er, &old.er),
                ] {
                    array.reserve_exact(new);
                    array.extend_from_slice(old);
                }
                let pcws = self.family == HashFamily::Pcws;
                for k in old.r.len() as u64..new as u64 {
                    let r = gamma21(seed, hash_idx, k, 1);
                    col.r.push(r);
                    col.c.push(if pcws {
                        -(uniform_open(seed, hash_idx, k, 2).ln())
                    } else {
                        gamma21(seed, hash_idx, k, 2)
                    });
                    col.er.push(r.exp());
                }
                return col;
            }
        }
        // Tiers nest (each covers a longer run of leading rows), so one
        // list serves them all smallest first: selecting within a tier's
        // rows permutes them among themselves.
        for j in 0..MAX_TIERS {
            let rows = tier_rows(j, new);
            let len = prefix_len(rows);
            let tier = &mut order[..rows];
            if len < rows {
                tier.select_nth_unstable(len - 1);
            }
            tier[..len].sort_unstable();
            col.prefixes
                .push(tier[..len].iter().map(|&(_, k)| k).collect());
            if rows == new {
                break;
            }
        }
        col
    }

    /// The hash value of row `k` under hash index `i` (whose column is
    /// `col`) as a function of the weight `w`, an order-preserving `u64`
    /// with its discretised `t`: the raw hash for MinHash, the bit pattern
    /// of `a` for CCWS (`a ∈ [0, +∞]`, where the IEEE bit pattern orders
    /// like the value). The row's draws are derived once, here, however
    /// many weights the function is then called at.
    #[inline]
    fn hash_key(
        &self,
        col: &HashColumn,
        i: usize,
        k: usize,
        draw: &impl Draws,
    ) -> impl Fn(f64) -> (u64, i32) {
        let (h, ccws) = match self.family {
            HashFamily::MinHash => (col.h[k], None),
            HashFamily::Ccws => (0, Some(draw(i, k))),
            _ => unreachable!("the log-domain families keep no prefix index"),
        };
        move |w| match ccws {
            Some((r, c, beta)) => {
                let (a, t) = ccws_hash(w, r, c, beta);
                (a.to_bits(), discretize_t(t))
            }
            None => (h, 0),
        }
    }

    /// Sketch one column, weighed by `bounds` (see the module docs), into
    /// `d` signature elements; `None` when no row is in the support.
    pub(crate) fn sketch<S: RowSource + ?Sized>(
        &self,
        bounds: WeightBounds,
        rows: &S,
    ) -> Result<Option<Vec<SigElement>>> {
        self.sketch_with(&ccws_draws(self.seed), bounds, rows)
    }

    fn sketch_with<S: RowSource + ?Sized>(
        &self,
        draw: &impl Draws,
        bounds: WeightBounds,
        rows: &S,
    ) -> Result<Option<Vec<SigElement>>> {
        let n = rows.n_rows();
        self.grow_with(draw, n, |_, _| ())?;
        let store = self.read();
        if matches!(self.family, HashFamily::MinHash | HashFamily::Ccws) {
            if let Some(j) = (0..MAX_TIERS).find(|&j| tier_rows(j, store.k_cap) >= n) {
                if let Some(elements) = self.visit(&store, j, bounds, rows, draw) {
                    return Ok(Some(elements));
                }
                telemetry::count("minhash.tail_scans", 1);
            }
        }
        Ok(self.scan(&store, bounds, rows, draw))
    }

    /// `+∞` as a key: the CWS hash value that never wins (the oracle's
    /// minima start there). MinHash has no such value.
    fn never(&self) -> Option<u64> {
        (self.family != HashFamily::MinHash).then_some(f64::INFINITY.to_bits())
    }

    /// The bound-ordered visit: per hash index, walk tier `j`'s prefix in
    /// ascending `(A, k)` order, keep the lexicographic `(a, k)` minimum
    /// over the rows in the support, and stop at the first row whose bound
    /// exceeds it — no unvisited row can have `a` that small. `a = +∞`
    /// never wins, as in the dense scan. `None` as soon as one hash index
    /// runs out of prefix undecided: the dense scan then does the whole
    /// sketch, so the remaining walks would be wasted.
    fn visit<S: RowSource + ?Sized>(
        &self,
        store: &Store,
        j: usize,
        bounds: WeightBounds,
        rows: &S,
        draw: &impl Draws,
    ) -> Option<Vec<SigElement>> {
        let n = rows.n_rows();
        let never = self.never();
        let mut elements = Vec::with_capacity(self.d);
        let mut visited = 0u64;
        for (i, col) in store.cols.iter().enumerate() {
            let prefix = col.prefixes.get(j)?;
            let mut best: Best = None;
            // A prefix holding the whole tier decides by running out.
            let mut decided = prefix.len() == tier_rows(j, store.k_cap);
            for &id in prefix {
                let k = id as usize;
                if k >= n {
                    continue;
                }
                let key = self.hash_key(col, i, k, draw);
                let bound = key(WEIGHT_CEILING).0;
                if best.is_some_and(|(a, ..)| bound > a) {
                    decided = true;
                    break;
                }
                visited += 1;
                let w = bounds.weight(rows.value_at(k));
                if !in_support(w) {
                    continue;
                }
                let (a, t) = key(w);
                debug_assert!(a >= bound, "hash value below its bound at row {k}");
                offer(&mut best, never, a, id, t);
            }
            let (_, key, t) = best.filter(|_| decided)?;
            elements.push(SigElement { key, t });
        }
        telemetry::record("minhash.visit_rows", visited);
        Some(elements)
    }

    /// The dense scan: every row in the support, a block at a time and
    /// hash index by hash index within the block.
    fn scan<S: RowSource + ?Sized>(
        &self,
        store: &Store,
        bounds: WeightBounds,
        rows: &S,
        draw: &impl Draws,
    ) -> Option<Vec<SigElement>> {
        let supported = |v: f64| Some(bounds.weight(v)).filter(|&w| in_support(w));
        let mut best: Vec<Best> = vec![None; self.d];
        if self.family == HashFamily::Ccws {
            // The heaviest row first: a hash value is about `c/w`, so this
            // row's leaves the filter little to pass (see the module docs).
            let (mut k, mut heaviest) = (0, None::<(f64, usize)>);
            rows.for_each_run(|run| {
                for &v in run {
                    if let Some(w) = supported(v).filter(|&w| heaviest.is_none_or(|(h, _)| w > h)) {
                        heaviest = Some((w, k));
                    }
                    k += 1;
                }
            });
            let (w, k) = heaviest?;
            for (i, (col, best)) in store.cols.iter().zip(&mut best).enumerate() {
                let (a, t) = self.hash_key(col, i, k, draw)(w);
                offer(best, self.never(), a, k as u32, t);
            }
        }
        let log_domain = !matches!(self.family, HashFamily::MinHash | HashFamily::Ccws);
        // Per row of the block `w` (`ln w`, hoisted, for the log-domain
        // families); NaN outside the support.
        let mut block = Vec::with_capacity(SCAN_BLOCK);
        let (mut k0, mut any) = (0, false);
        rows.for_each_run(|run| {
            for values in run.chunks(SCAN_BLOCK) {
                block.clear();
                block.extend(values.iter().map(|&v| match supported(v) {
                    None => f64::NAN,
                    Some(w) if log_domain => w.ln(),
                    Some(w) => w,
                }));
                if block.iter().any(|w| !w.is_nan()) {
                    any = true;
                    for (i, (col, best)) in store.cols.iter().zip(&mut best).enumerate() {
                        self.scan_block(col, i, k0, &block, best, draw);
                    }
                }
                k0 += values.len();
            }
        });
        debug_assert_eq!(k0, rows.n_rows());
        let keep_t = !matches!(self.family, HashFamily::MinHash | HashFamily::ZeroBitCws);
        any.then(|| {
            let won = best.into_iter().map(Option::unwrap_or_default);
            won.map(|(_, key, t)| SigElement {
                key,
                t: if keep_t { t } else { 0 },
            })
            .collect()
        })
    }

    /// Fold rows `k0..k0 + block.len()` into hash index `i`'s running
    /// minimum; each row goes through the oracle's exact expression
    /// sequence. CCWS skips the rows that provably cannot win, most of
    /// them on their block's least `c` without deriving their own.
    fn scan_block(
        &self,
        col: &HashColumn,
        i: usize,
        k0: usize,
        block: &[f64],
        best: &mut Best,
        draw: &impl Draws,
    ) {
        let never = self.never();
        let span = k0..k0 + block.len();
        let rows = span.clone().zip(block);
        match self.family {
            HashFamily::MinHash => {
                for ((k, w), &h) in rows.zip(&col.h[span]) {
                    if !w.is_nan() {
                        offer(best, never, h, k as u32, 0);
                    }
                }
            }
            HashFamily::Ccws => {
                let mut least = best.map_or(f64::INFINITY, |(a, ..)| f64::from_bits(a));
                for (k, &w) in rows {
                    // False on a NaN (unsupported) row too.
                    let may_win = |c: f64| c / w * FILTER_SLACK <= least;
                    // `c_min ≤ c`, so the block's least `c` keeps every
                    // row the row's own `c` would.
                    if !may_win(col.c_min[k / C_BLOCK]) {
                        debug_assert!(
                            !may_win(draw(i, k).1),
                            "the block minimum skipped row {k}, which its own c keeps"
                        );
                        continue;
                    }
                    let (r, c, beta) = draw(i, k);
                    if may_win(c) {
                        let (a, t) = ccws_hash(w, r, c, beta);
                        offer(best, never, a.to_bits(), k as u32, discretize_t(t));
                        least = least.min(a);
                    }
                }
            }
            HashFamily::Icws | HashFamily::ZeroBitCws | HashFamily::Pcws => {
                let stored = col.r[span.clone()]
                    .iter()
                    .zip(&col.c[span.clone()])
                    .zip(&col.er[span]);
                for ((k, &ln_w), ((&r, &c), &er)) in rows.zip(stored) {
                    if ln_w.is_nan() {
                        continue;
                    }
                    // t = ⌊ln w / r + β⌋ ; a = c / (exp(r·(t−β)) · eʳ)
                    let beta = uniform_open(self.seed, i as u64, k as u64, 3);
                    let t = (ln_w / r + beta).floor();
                    let y = (r * (t - beta)).exp();
                    let a = c / (y * er);
                    offer(best, never, a.to_bits(), k as u32, discretize_t(t));
                }
            }
        }
    }
}

/// Offer row `k`'s hash value `key` to a hash index's running minimum: the
/// lexicographic `(key, k)` minimum — what an ascending scan under the
/// oracle's strict `<` returns — in whatever order rows are offered.
/// `never` does not win.
#[inline]
fn offer(best: &mut Best, never: Option<u64>, key: u64, k: u32, t: i32) {
    if Some(key) != never && best.is_none_or(|(b, bk, _)| (key, k) < (b, bk)) {
        *best = Some((key, k, t));
    }
}

type Registry = HashMap<(HashFamily, usize, u64), Arc<DrawTables>>;

/// The registry, its lock recovered when poisoned: an entry is inserted
/// whole or not at all, so the map is valid whoever panicked holding it.
fn registry() -> MutexGuard<'static, Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide draw table for a hasher's `(family, d, seed)`,
/// creating it (empty) on first request.
pub(crate) fn draw_tables(hasher: &WeightedMinHasher) -> Arc<DrawTables> {
    let key = (hasher.family, hasher.d, hasher.seed);
    Arc::clone(
        registry()
            .entry(key)
            .or_insert_with(|| Arc::new(DrawTables::new(hasher))),
    )
}

/// Drop every registered draw table and its bounds (memory release hook
/// for long-lived processes that rotate seeds or keep a log-domain
/// family's per-row draws; in-flight `Arc`s keep their tables alive). The
/// registry is otherwise unbounded on purpose: a CCWS table holds bounds
/// only, 1.6 MiB at 80 000 rows × 48 hash indexes.
pub fn clear_draw_tables() {
    registry().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::WEIGHT_FLOOR;

    /// The runner a sketch uses: leave every job to the loop in `grow`.
    fn in_a_loop(_: usize, _: &(dyn Fn(usize) + Sync)) {}

    fn bounds_of(values: &[f64]) -> WeightBounds {
        let mut bounds = WeightBounds::new();
        bounds.absorb(values);
        bounds
    }

    fn sketch_column(tables: &DrawTables, values: &[f64]) -> Vec<SigElement> {
        let sketched = tables.sketch(bounds_of(values), values).unwrap();
        sketched.expect("support")
    }

    #[test]
    fn tables_grow_to_the_row_count_and_serve_old_rows() {
        let hasher = WeightedMinHasher::new(HashFamily::Ccws, 8, 0xABCD).unwrap();
        let tables = DrawTables::new(&hasher);
        let small: Vec<f64> = (0..10).map(|k| (1.0 + k as f64) / 16.0).collect();
        let first = sketch_column(&tables, &small);
        assert_eq!(tables.read().k_cap, 10);
        // Growing for a larger column must not disturb earlier rows.
        let large: Vec<f64> = (0..300).map(|k| (1.0 + k as f64) / 512.0).collect();
        sketch_column(&tables, &large);
        assert_eq!(tables.read().k_cap, 300);
        assert_eq!(sketch_column(&tables, &small), first);
        // Less than double: the table doubles instead.
        sketch_column(&tables, &vec![0.5; 301]);
        assert_eq!(tables.read().k_cap, 600);
    }

    #[test]
    fn more_rows_than_a_row_id_can_name_is_an_error() {
        let hasher = WeightedMinHasher::new(HashFamily::Ccws, 2, 1).unwrap();
        let tables = DrawTables::new(&hasher);
        let grown = tables.grow(u32::MAX as usize + 1, in_a_loop);
        assert!(matches!(grown, Err(MinHashError::InvalidParam(_))));
        assert_eq!(tables.read().k_cap, 0);
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
            let expected = sketch_column(&tables, &weights);
            let fresh = DrawTables::new(&hasher);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..10 {
                            assert_eq!(sketch_column(&fresh, &weights), expected);
                        }
                    });
                }
            });
        }
    }

    /// Every job on a thread of its own, the last hash index first and
    /// each finishing before the next starts — the opposite of the loop's
    /// order, and off the thread that holds the lock.
    fn reversed_on_threads(d: usize, job: &(dyn Fn(usize) + Sync)) {
        for i in (0..d).rev() {
            std::thread::scope(|s| {
                s.spawn(|| job(i));
            });
        }
    }

    #[test]
    fn jobs_build_the_same_table_in_any_order_on_any_thread() {
        let weights: Vec<f64> = (0..9000).map(|k| (0.5 + k as f64) / 9000.0).collect();
        for family in HashFamily::ALL {
            let hasher = WeightedMinHasher::new(family, 7, 0x7AB1E).unwrap();
            let looped = DrawTables::new(&hasher);
            looped.grow(300, in_a_loop).unwrap();
            looped.grow(9000, in_a_loop).unwrap();
            // Growth split across both kinds of runner, either way round,
            // and a runner that does only some of the jobs.
            let split = DrawTables::new(&hasher);
            split.grow(300, reversed_on_threads).unwrap();
            split.grow(9000, in_a_loop).unwrap();
            let threaded = DrawTables::new(&hasher);
            threaded.grow(300, in_a_loop).unwrap();
            threaded.grow(9000, reversed_on_threads).unwrap();
            let partial = DrawTables::new(&hasher);
            partial.grow(300, |_, job| job(3)).unwrap();
            partial
                .grow(9000, |d, job| (0..d + 2).step_by(2).for_each(job))
                .unwrap();
            let expected = looped.read();
            assert_eq!(expected.k_cap, 9000);
            for other in [&split, &threaded, &partial] {
                let store = other.read();
                assert_eq!(store.k_cap, 9000);
                assert!(store.cols == expected.cols, "{family:?}: columns differ");
                drop(store);
                for n in [200, 300, 5000, 9000] {
                    let column = &weights[..n];
                    assert_eq!(
                        other.sketch(bounds_of(column), column).unwrap(),
                        looped.sketch(bounds_of(column), column).unwrap(),
                        "{family:?} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiers_hold_the_smallest_bounds_in_order_within_the_memory_bound() {
        let hasher = WeightedMinHasher::new(HashFamily::Ccws, 5, 11).unwrap();
        let tables = DrawTables::new(&hasher);
        let draw = ccws_draws(hasher.seed);
        tables.grow(300, in_a_loop).unwrap();
        tables.grow(9000, in_a_loop).unwrap();
        let store = tables.read();
        let covered = [256, 512, 1024, 2048, 4096, 9000];
        for (i, col) in store.cols.iter().enumerate() {
            assert_eq!(col.prefixes.len(), covered.len());
            for (j, (prefix, rows)) in col.prefixes.iter().zip(covered).enumerate() {
                assert_eq!(rows, tier_rows(j, store.k_cap));
                assert_eq!(prefix.len(), prefix_len(rows));
                let bound = |k: usize| tables.hash_key(col, i, k, &draw)(WEIGHT_CEILING).0;
                let mut all: Vec<(u64, u32)> = (0..rows).map(|k| (bound(k), k as u32)).collect();
                all.sort_unstable();
                let expected: Vec<u32> = all[..prefix.len()].iter().map(|&(_, k)| k).collect();
                assert_eq!(prefix, &expected, "tier {rows} hash {i}");
            }
        }
        // The memory model: one f64 per block of 64 rows and hash index
        // (the block's least `c`), and per hash index Σ len = K/16 + the
        // 256-id floor of the five small tiers…
        let ids = store.k_cap / 16 + 5 * TIER0_ROWS;
        assert_eq!(store.bytes(), 5 * 9000usize.div_ceil(64) * 8 + 5 * ids * 4);
        // …and no array the size of the table: every draw is derived.
        for col in &store.cols {
            let HashColumn {
                h,
                r,
                c,
                er,
                c_min,
                prefixes,
            } = col;
            let lens = [h.len(), r.len(), c.len(), er.len(), c_min.len()];
            let mut lens = lens.into_iter().chain(prefixes.iter().map(Vec::len));
            assert!(lens.all(|len| len < store.k_cap));
        }
        drop(store);
        // The log-domain families keep three draws and no index…
        let icws = DrawTables::new(&WeightedMinHasher::new(HashFamily::Icws, 5, 11).unwrap());
        icws.grow(1000, in_a_loop).unwrap();
        assert!(icws.read().cols.iter().all(|col| col.prefixes.is_empty()));
        assert_eq!(icws.read().bytes(), 1000 * 5 * 3 * 8);
        // …and MinHash one hash with one (tiers 256, 512 and 1 000, each at
        // the 256-id floor).
        let plain = DrawTables::new(&WeightedMinHasher::new(HashFamily::MinHash, 5, 11).unwrap());
        plain.grow(1000, in_a_loop).unwrap();
        assert_eq!(plain.read().bytes(), 1000 * 5 * 8 + 5 * 3 * TIER0_ROWS * 4);
    }

    /// Hand-picked draws `r = β = ½` and row `k`'s `c[k]`: `t = ⌊2w + ½⌋`,
    /// `y = (t − ½)/2`, so `y = ¾` at `w = W` and `¼` at
    /// `w = 0.6 + WEIGHT_FLOOR`.
    fn halves(c: &[f64]) -> impl Draws + '_ {
        |_, k| (0.5, c[k], 0.5)
    }

    /// A one-hash CCWS table over [`halves`]`(c)`: its prefix index, and
    /// the one block minimum of `c`.
    fn hand_built(c: &[f64]) -> DrawTables {
        let hasher = WeightedMinHasher::new(HashFamily::Ccws, 1, 0).unwrap();
        let tables = DrawTables::new(&hasher);
        tables.grow_with(&halves(c), c.len(), in_a_loop).unwrap();
        let least = c.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(tables.read().cols[0].c_min, [least]);
        tables
    }

    /// A column sketched over [`halves`]`(c)` twice: through the visit (the
    /// dense scan behind it) and through the dense scan alone.
    fn sketch_halves(
        tables: &DrawTables,
        c: &[f64],
        values: &[f64],
    ) -> [Option<Vec<SigElement>>; 2] {
        let bounds = bounds_of(values);
        let visited = tables.sketch_with(&halves(c), bounds, values).unwrap();
        let scanned = tables.scan(&tables.read(), bounds, values, &halves(c));
        [visited, scanned]
    }

    #[test]
    fn exact_tie_goes_to_the_lower_row_whichever_is_visited_first() {
        // Values in [0, 1] weigh `v + WEIGHT_FLOOR`. Row 1: c = 3, w = W →
        // a = 3/¾ = 4, bound 4. Row 4: c = 1, w ≈ 0.6 → a = 1/¼ = 4, bound
        // 1/¾: visited before row 1. Row 2 (value 0, floor weight): t = 0,
        // a = 30/MIN_POSITIVE = +∞. Every other row: a = 30/¾ = 40.
        let c = [30.0, 3.0, 30.0, 30.0, 1.0, 30.0];
        let values = [1.0, 1.0, 0.0, 1.0, 0.6, 1.0];
        let tables = hand_built(&c);
        assert_eq!(tables.read().cols[0].prefixes[0][..2], [4, 1]);
        let row1 = Some(vec![SigElement { key: 1, t: 2 }]);
        assert_eq!(sketch_halves(&tables, &c, &values), [row1.clone(), row1]);
        // Mirrored: the lower row has the smaller bound and is visited
        // first; the later equal `a` must not displace it.
        let c = [30.0, 1.0, 30.0, 30.0, 3.0, 30.0];
        let values = [1.0, 0.6, 0.0, 1.0, 1.0, 1.0];
        let tables = hand_built(&c);
        let row1 = Some(vec![SigElement { key: 1, t: 1 }]);
        assert_eq!(sketch_halves(&tables, &c, &values), [row1.clone(), row1]);
    }

    #[test]
    fn all_infinite_hash_values_leave_key_and_t_zero() {
        // A constant column, and one with no finite value, weigh the floor
        // in every row: t = 0, y clamps to MIN_POSITIVE, a = 8 / MIN_POSITIVE
        // overflows to +∞ — nothing ever wins.
        let c = [8.0; 5];
        let tables = hand_built(&c);
        let untouched = Some(vec![SigElement { key: 0, t: 0 }]);
        for values in [[-2.5; 5], [f64::NAN; 5]] {
            let sketched = sketch_halves(&tables, &c, &values);
            assert_eq!(sketched, [untouched.clone(), untouched.clone()]);
        }
    }

    #[test]
    fn heavy_tails_outlive_the_prefix_and_ordinary_columns_do_not() {
        let hasher = WeightedMinHasher::new(HashFamily::Ccws, 48, 5).unwrap();
        let tables = DrawTables::new(&hasher);
        let draw = ccws_draws(hasher.seed);
        let n = 6000;
        tables.grow(n, in_a_loop).unwrap();
        let store = tables.read();
        let last = store.cols[0].prefixes.len() - 1;
        let uniform: Vec<f64> = (0..n).map(|k| (k as f64 + 0.5) / n as f64).collect();
        // Floor weights but every 97th row's ≈ ½ (and row 1's, the maximum).
        let heavy: Vec<f64> = (0..n)
            .map(|k| match k {
                1 => 1.0,
                _ if k % 97 == 0 => 0.5,
                _ => 0.0,
            })
            .collect();
        let visited = tables.visit(&store, last, bounds_of(&uniform), &uniform[..], &draw);
        assert!(visited.is_some());
        assert!(tables
            .visit(&store, last, bounds_of(&heavy), &heavy[..], &draw)
            .is_none());
        // The dense scan agrees with the visit.
        let scanned = tables.scan(&store, bounds_of(&uniform), &uniform[..], &draw);
        assert_eq!(visited, scanned);
    }

    /// 1.5 M `(r, c, β, w)` tuples: the draws as the table makes them, the
    /// weight one of six shapes per round (`shape(round, u, r, β)`).
    fn for_random_draws(
        shape: impl Fn(u32, f64, f64, f64) -> f64,
        mut check: impl FnMut([f64; 4]),
    ) {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = crate::rng::splitmix64(state);
            state
        };
        let unit = |bits: u64| ((bits >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        for round in 0..1_500_000u32 {
            // Every 64th `r` at its minimum, √2⁻⁵⁴.
            let r = unit(if round % 64 == 0 { 0 } else { next() }).sqrt();
            let c = -(unit(next()).ln()) - (unit(next()).ln());
            let beta = unit(next());
            let w = shape(round, unit(next()), r, beta);
            check([r, c, beta, w]);
        }
    }

    /// `A ≤ a` with explicit asserts, so a release-mode test run checks it
    /// too (`debug_assert!` in the visit is compiled out there).
    #[test]
    fn ccws_bound_holds_over_random_draws() {
        let mut checked = 0u32;
        let shape = |round: u32, u: f64, r: f64, beta: f64| match round % 6 {
            0 => u * WEIGHT_CEILING,
            1 => WEIGHT_CEILING - u * 1e-9,
            2 => f64::from_bits((u * (1u64 << 52) as f64) as u64), // subnormal
            3 => u * 1e-6,
            4 => WEIGHT_CEILING,
            _ => ((u * 3.0).floor() + 1.0 - beta) * r, // where the floor steps
        };
        for_random_draws(shape, |[r, c, beta, w]| {
            if !(w > 0.0 && w <= WEIGHT_CEILING) {
                return;
            }
            let (bound, _) = ccws_hash(WEIGHT_CEILING, r, c, beta);
            let (a, _) = ccws_hash(w, r, c, beta);
            assert!(
                bound <= a,
                "A {bound} > a {a} at w {w} r {r} c {c} β {beta}"
            );
            assert!(bound.to_bits() <= a.to_bits());
            checked += 1;
        });
        assert!(checked >= 1_000_000, "only {checked} draws checked");
    }

    /// `fl(m/w)·(1 − 2⁻³⁰) ≤ a` wherever the dense scan relies on it: at
    /// `m = c` (the row's own test) and at `m = c·u`, `u ∈ (0, 1]` (the
    /// test on its block's least `c`).
    #[test]
    fn ccws_filter_bound_holds_over_random_draws() {
        let mut checked = 0u32;
        let mut state = 0xB10C_u64;
        let span = WEIGHT_CEILING - WEIGHT_FLOOR;
        let shape = |round: u32, u: f64, r: f64, beta: f64| match round % 6 {
            0 => WEIGHT_FLOOR + u * span,
            1 => WEIGHT_FLOOR,
            2 => WEIGHT_CEILING,
            3 => WEIGHT_FLOOR * (1.0 + u), // where ε/w is largest
            4 => WEIGHT_CEILING - u * 1e-9,
            // Where the floor steps, from either side.
            _ => ((u * 3.0).floor() + 1.0 - beta) * r * (1.0 + (u - 0.5) * 1e-15),
        };
        for_random_draws(shape, |[r, c, beta, w]| {
            if !(WEIGHT_FLOOR..=WEIGHT_CEILING).contains(&w) {
                return;
            }
            let (a, _) = ccws_hash(w, r, c, beta);
            state = crate::rng::splitmix64(state);
            // Every fourth `u` is 1, the rest spread over (0, 1).
            let u = match state % 4 {
                0 => 1.0,
                _ => ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64,
            };
            for m in [c, c * u] {
                let below = m / w * FILTER_SLACK;
                assert!(
                    below <= a,
                    "filter {below} > a {a} at m {m} w {w} r {r} c {c} β {beta}"
                );
            }
            checked += 1;
        });
        assert!(checked >= 1_000_000, "only {checked} draws checked");
    }
}
