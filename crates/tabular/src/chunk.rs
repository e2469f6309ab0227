//! Compressed chunked columnar storage: the out-of-core counterpart of
//! [`DataFrame`].
//!
//! A [`ChunkedFrame`] stores each column as fixed-size row chunks (default
//! 64Ki rows, [`DEFAULT_CHUNK_ROWS`]). Each chunk is dictionary-compressed
//! when its cardinality allows ([`ChunkEncoding::Dict8`] /
//! [`ChunkEncoding::Dict16`]) and kept as raw `f64` otherwise. Encoding is
//! **lossless at the bit level**: the dictionary is the chunk's exact
//! distinct-value set sorted by `f64::total_cmp` (which is injective over
//! bit patterns, so `-0.0` vs `0.0` and NaN payloads all round-trip), and
//! decode is a dictionary gather. That is what lets chunk-at-a-time
//! execution stay *bitwise identical* to flat in-RAM execution.
//!
//! Residency is governed by a [`FrameBudget`]: when resident encoded bytes
//! exceed the cap, least-recently-used chunks are spilled to the frame's
//! [`ColumnStore`] (once) and evicted from RAM; later accesses transparently
//! reload them. Because spilling writes the exact encoded bytes back out,
//! eviction can never change values — bit-identity is independent of access
//! order, budget size, and backend.
//!
//! This crate is a dependency leaf, so no thread pool lives here: all
//! methods take `&self` with internal locking, and chunk-parallel pipelines
//! are driven from higher layers (eafe) which decode through
//! [`ChunkedFrame::chunk`] handles in fixed chunk-index order.

use crate::budget::{FrameBudget, FrameStats, GLOBAL};
use crate::column::Column;
use crate::error::{Result, TabularError};
use crate::frame::{DataFrame, Label, Task};
use crate::store::{ChunkTicket, ColumnStore};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default rows per chunk (64Ki).
pub const DEFAULT_CHUNK_ROWS: usize = 65_536;

/// Maximum distinct values a chunk may have and still be dictionary-coded.
/// Above this the dictionary + u16 codes approach raw `f64` size, so the
/// chunk falls back to [`ChunkEncoding::F64`].
pub(crate) const DICT_MAX_DISTINCT: usize = 4096;

fn us_since(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// ChunkEncoding
// ---------------------------------------------------------------------------

/// One encoded chunk of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkEncoding {
    /// ≤ 256 distinct values: dictionary + `u8` codes.
    Dict8 {
        /// Distinct values, sorted by `f64::total_cmp`.
        dict: Vec<f64>,
        /// Per-row indices into `dict`.
        codes: Vec<u8>,
    },
    /// ≤ `DICT_MAX_DISTINCT` (4 096) distinct values: dictionary + `u16` codes.
    Dict16 {
        /// Distinct values, sorted by `f64::total_cmp`.
        dict: Vec<f64>,
        /// Per-row indices into `dict`.
        codes: Vec<u16>,
    },
    /// High-cardinality fallback: raw values.
    F64(Vec<f64>),
}

impl ChunkEncoding {
    /// Encode a chunk of values, choosing the densest lossless layout.
    pub fn encode(values: &[f64]) -> ChunkEncoding {
        let mut bits: HashSet<u64> = HashSet::new();
        for v in values {
            bits.insert(v.to_bits());
            if bits.len() > DICT_MAX_DISTINCT {
                return ChunkEncoding::F64(values.to_vec());
            }
        }
        let code_bytes = if bits.len() <= u8::MAX as usize + 1 {
            1
        } else {
            2
        };
        if bits.len() * 8 + values.len() * code_bytes >= values.len() * 8 {
            // The dictionary would not beat raw f64 (near-unique chunk).
            return ChunkEncoding::F64(values.to_vec());
        }
        let mut dict: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
        dict.sort_by(|a, b| a.total_cmp(b));
        // Every value is in the dictionary built from them, so the search
        // never misses.
        let code_of = |v: f64| match dict.binary_search_by(|p| p.total_cmp(&v)) {
            Ok(code) | Err(code) => code,
        };
        if dict.len() <= u8::MAX as usize + 1 {
            let codes = values.iter().map(|&v| code_of(v) as u8).collect();
            ChunkEncoding::Dict8 { dict, codes }
        } else {
            let codes = values.iter().map(|&v| code_of(v) as u16).collect();
            ChunkEncoding::Dict16 { dict, codes }
        }
    }

    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        match self {
            ChunkEncoding::Dict8 { codes, .. } => codes.len(),
            ChunkEncoding::Dict16 { codes, .. } => codes.len(),
            ChunkEncoding::F64(v) => v.len(),
        }
    }

    /// True when the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held by the encoded form (dictionary + codes / values).
    pub fn heap_bytes(&self) -> usize {
        match self {
            ChunkEncoding::Dict8 { dict, codes } => dict.len() * 8 + codes.len(),
            ChunkEncoding::Dict16 { dict, codes } => dict.len() * 8 + codes.len() * 2,
            ChunkEncoding::F64(v) => v.len() * 8,
        }
    }

    /// The chunk's exact distinct-value set (total_cmp-sorted), when
    /// dictionary-coded. `None` for the `F64` fallback.
    pub fn dict(&self) -> Option<&[f64]> {
        match self {
            ChunkEncoding::Dict8 { dict, .. } => Some(dict),
            ChunkEncoding::Dict16 { dict, .. } => Some(dict),
            ChunkEncoding::F64(_) => None,
        }
    }

    /// The value at row `i` within the chunk.
    pub fn value_at(&self, i: usize) -> f64 {
        match self {
            ChunkEncoding::Dict8 { dict, codes } => dict[codes[i] as usize],
            ChunkEncoding::Dict16 { dict, codes } => dict[codes[i] as usize],
            ChunkEncoding::F64(v) => v[i],
        }
    }

    /// Decode into `out` (cleared first). The result is bit-identical to
    /// the slice originally passed to [`encode`](Self::encode).
    pub fn decode_into(&self, out: &mut Vec<f64>) {
        out.clear();
        match self {
            ChunkEncoding::Dict8 { dict, codes } => {
                out.extend(codes.iter().map(|&c| dict[c as usize]));
            }
            ChunkEncoding::Dict16 { dict, codes } => {
                out.extend(codes.iter().map(|&c| dict[c as usize]));
            }
            ChunkEncoding::F64(v) => out.extend_from_slice(v),
        }
    }

    /// Fold over the chunk's values in row order without materializing.
    pub fn fold_values<T>(&self, init: T, mut f: impl FnMut(T, f64) -> T) -> T {
        let mut acc = init;
        match self {
            ChunkEncoding::Dict8 { dict, codes } => {
                for &c in codes {
                    acc = f(acc, dict[c as usize]);
                }
            }
            ChunkEncoding::Dict16 { dict, codes } => {
                for &c in codes {
                    acc = f(acc, dict[c as usize]);
                }
            }
            ChunkEncoding::F64(v) => {
                for &x in v {
                    acc = f(acc, x);
                }
            }
        }
        acc
    }

    /// Serialize to the `.eafc` chunk payload wire format (little-endian):
    /// `[tag u8][n_rows u32][dict_len u32][dict f64×][codes ...]` for the
    /// dictionary layouts, `[2][n_rows u32][values f64×]` for `F64`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + self.heap_bytes());
        match self {
            ChunkEncoding::Dict8 { dict, codes } => {
                out.push(0);
                out.extend_from_slice(&(codes.len() as u32).to_le_bytes());
                out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                for v in dict {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(codes);
            }
            ChunkEncoding::Dict16 { dict, codes } => {
                out.push(1);
                out.extend_from_slice(&(codes.len() as u32).to_le_bytes());
                out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                for v in dict {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                for c in codes {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            ChunkEncoding::F64(values) => {
                out.push(2);
                out.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Deserialize a payload produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<ChunkEncoding> {
        let bad = |msg: &str| TabularError::Io(format!("corrupt chunk payload: {msg}"));
        let [tag, a, b, c, d, ..] = *bytes else {
            return Err(bad("truncated header"));
        };
        let n_rows = u32::from_le_bytes([a, b, c, d]) as usize;
        let read_f64s = |at: usize, n: usize| -> Result<Vec<f64>> {
            let end = at + n * 8;
            if end > bytes.len() {
                return Err(bad("truncated f64 block"));
            }
            Ok(bytes[at..end]
                .chunks_exact(8)
                .map(|w| f64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]))
                .collect())
        };
        match tag {
            0 | 1 => {
                let [_, _, _, _, _, a, b, c, d, ..] = *bytes else {
                    return Err(bad("truncated dict header"));
                };
                let dict_len = u32::from_le_bytes([a, b, c, d]) as usize;
                let dict = read_f64s(9, dict_len)?;
                let at = 9 + dict_len * 8;
                if tag == 0 {
                    if at + n_rows > bytes.len() {
                        return Err(bad("truncated u8 codes"));
                    }
                    let codes = bytes[at..at + n_rows].to_vec();
                    if codes.iter().any(|&c| c as usize >= dict_len) {
                        return Err(bad("code out of dictionary range"));
                    }
                    Ok(ChunkEncoding::Dict8 { dict, codes })
                } else {
                    if at + n_rows * 2 > bytes.len() {
                        return Err(bad("truncated u16 codes"));
                    }
                    let codes: Vec<u16> = bytes[at..at + n_rows * 2]
                        .chunks_exact(2)
                        .map(|w| u16::from_le_bytes([w[0], w[1]]))
                        .collect();
                    if codes.iter().any(|&c| c as usize >= dict_len) {
                        return Err(bad("code out of dictionary range"));
                    }
                    Ok(ChunkEncoding::Dict16 { dict, codes })
                }
            }
            2 => Ok(ChunkEncoding::F64(read_f64s(5, n_rows)?)),
            t => Err(bad(&format!("unknown tag {t}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// ChunkedColumn / ChunkedFrame
// ---------------------------------------------------------------------------

/// Construction options for a [`ChunkedFrame`].
#[derive(Debug, Clone, Copy)]
pub struct ChunkOptions {
    /// Rows per chunk ([`DEFAULT_CHUNK_ROWS`] by default).
    pub chunk_rows: usize,
    /// Resident-bytes cap (unbounded by default).
    pub budget: FrameBudget,
}

impl Default for ChunkOptions {
    fn default() -> Self {
        ChunkOptions {
            chunk_rows: DEFAULT_CHUNK_ROWS,
            budget: FrameBudget::unbounded(),
        }
    }
}

impl ChunkOptions {
    /// Builder: rows per chunk.
    pub fn with_chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = rows.max(1);
        self
    }

    /// Builder: resident-bytes budget.
    pub fn with_budget(mut self, budget: FrameBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// One column of a [`ChunkedFrame`]: a name plus handles to its chunks.
#[derive(Debug, Clone)]
pub struct ChunkedColumn {
    /// Column name (generated features carry their expression string).
    pub name: String,
    /// Slot ids of this column's chunks, in row order.
    slots: Vec<usize>,
    /// Rows accumulated so far.
    n_rows: usize,
}

impl ChunkedColumn {
    /// Rows in the column.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Chunks in the column.
    pub fn n_chunks(&self) -> usize {
        self.slots.len()
    }
}

#[derive(Debug)]
struct Slot {
    enc: Option<Arc<ChunkEncoding>>,
    ticket: Option<ChunkTicket>,
    bytes: usize,
    touched: u64,
}

#[derive(Debug, Default)]
struct CoreState {
    slots: Vec<Slot>,
    clock: u64,
    resident_bytes: u64,
    spilled: u64,
    evicted: u64,
    loaded: u64,
    decoded: u64,
}

#[derive(Debug)]
struct FrameCore {
    store: Box<dyn ColumnStore>,
    budget: FrameBudget,
    state: Mutex<CoreState>,
}

impl CoreState {
    fn resident_count(&self) -> u64 {
        self.slots.iter().filter(|s| s.enc.is_some()).count() as u64
    }
}

impl FrameCore {
    /// The frame's state. A poisoned lock is recovered: a slot gains its
    /// spill ticket before it drops its encoding and its encoding before
    /// it is touched, so a thread that panicked while holding the lock
    /// left every chunk readable (at worst a residency counter is stale).
    fn state(&self) -> MutexGuard<'_, CoreState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spill + evict LRU resident chunks (never `keep`) until under budget.
    fn enforce_budget(&self, state: &mut CoreState, keep: usize) -> Result<()> {
        while state.resident_bytes > self.budget.resident_bytes {
            let lru = state
                .slots
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != keep)
                .filter_map(|(i, s)| Some((i, s.touched, s.enc.as_ref()?)))
                .min_by_key(|(_, touched, _)| *touched);
            let Some((i, _, enc)) = lru else { break };
            if state.slots[i].ticket.is_none() {
                let enc = Arc::clone(enc);
                let start = Instant::now();
                let ticket = self.store.append(&enc.to_bytes())?;
                telemetry::record("frame.spill_us", us_since(start));
                telemetry::count("frame.chunks_spilled", 1);
                state.slots[i].ticket = Some(ticket);
                state.spilled += 1;
                GLOBAL.spilled.fetch_add(1, Ordering::Relaxed);
            }
            let bytes = state.slots[i].bytes as u64;
            state.slots[i].enc = None;
            state.resident_bytes -= bytes;
            state.evicted += 1;
            telemetry::count("frame.chunks_evicted", 1);
            GLOBAL.evicted.fetch_add(1, Ordering::Relaxed);
            GLOBAL.resident.fetch_sub(1, Ordering::Relaxed);
            GLOBAL.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
        Ok(())
    }

    fn insert(&self, enc: ChunkEncoding) -> Result<usize> {
        let bytes = enc.heap_bytes();
        let mut state = self.state();
        let id = state.slots.len();
        state.clock += 1;
        let touched = state.clock;
        state.slots.push(Slot {
            enc: Some(Arc::new(enc)),
            ticket: None,
            bytes,
            touched,
        });
        state.resident_bytes += bytes as u64;
        telemetry::count("frame.chunks_resident", 1);
        GLOBAL.resident.fetch_add(1, Ordering::Relaxed);
        GLOBAL
            .resident_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.enforce_budget(&mut state, id)?;
        Ok(id)
    }

    fn get(&self, id: usize) -> Result<Arc<ChunkEncoding>> {
        let mut state = self.state();
        state.clock += 1;
        let clock = state.clock;
        if let Some(enc) = &state.slots[id].enc {
            let enc = enc.clone();
            state.slots[id].touched = clock;
            return Ok(enc);
        }
        let Some(ticket) = state.slots[id].ticket else {
            return Err(TabularError::Io(format!(
                "chunk {id} is neither resident nor spilled"
            )));
        };
        let mut buf = Vec::new();
        self.store.read_into(&ticket, &mut buf)?;
        let enc = Arc::new(ChunkEncoding::from_bytes(&buf)?);
        let bytes = state.slots[id].bytes;
        state.slots[id].enc = Some(enc.clone());
        state.slots[id].touched = clock;
        state.resident_bytes += bytes as u64;
        state.loaded += 1;
        telemetry::count("frame.chunks_loaded", 1);
        telemetry::count("frame.chunks_resident", 1);
        GLOBAL.loaded.fetch_add(1, Ordering::Relaxed);
        GLOBAL.resident.fetch_add(1, Ordering::Relaxed);
        GLOBAL
            .resident_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.enforce_budget(&mut state, id)?;
        Ok(enc)
    }

    fn replace(&self, id: usize, enc: ChunkEncoding) -> Result<()> {
        let bytes = enc.heap_bytes();
        let mut state = self.state();
        let was_resident = state.slots[id].enc.is_some();
        let old_bytes = state.slots[id].bytes as u64;
        if was_resident {
            state.resident_bytes -= old_bytes;
            GLOBAL
                .resident_bytes
                .fetch_sub(old_bytes, Ordering::Relaxed);
        } else {
            GLOBAL.resident.fetch_add(1, Ordering::Relaxed);
        }
        state.clock += 1;
        let touched = state.clock;
        let slot = &mut state.slots[id];
        slot.enc = Some(Arc::new(enc));
        slot.ticket = None; // stale spilled copy no longer describes the data
        slot.bytes = bytes;
        slot.touched = touched;
        state.resident_bytes += bytes as u64;
        GLOBAL
            .resident_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.enforce_budget(&mut state, id)?;
        Ok(())
    }
}

/// A column-major table stored as budgeted, compressed row chunks — the
/// out-of-core counterpart of [`DataFrame`]. The label stays in RAM (it is
/// consulted by every fold split); feature data lives in chunks.
#[derive(Debug, Clone)]
pub struct ChunkedFrame {
    /// Dataset name.
    pub name: String,
    label: Label,
    n_rows: usize,
    columns: Vec<ChunkedColumn>,
    chunk_rows: usize,
    core: Arc<FrameCore>,
}

impl ChunkedFrame {
    /// An empty frame (no columns yet) over the given label and store.
    pub fn new(
        name: impl Into<String>,
        label: Label,
        opts: ChunkOptions,
        store: Box<dyn ColumnStore>,
    ) -> Self {
        let n_rows = label.len();
        ChunkedFrame {
            name: name.into(),
            label,
            n_rows,
            columns: Vec::new(),
            chunk_rows: opts.chunk_rows.max(1),
            core: Arc::new(FrameCore {
                store,
                budget: opts.budget,
                state: Mutex::new(CoreState::default()),
            }),
        }
    }

    /// An empty frame whose label is not known yet (streaming producers
    /// compute labels after the feature sweep). The placeholder label is
    /// empty; call [`set_label`](Self::set_label) before handing the frame
    /// to consumers.
    pub(crate) fn new_streaming(
        name: impl Into<String>,
        n_rows: usize,
        opts: ChunkOptions,
        store: Box<dyn ColumnStore>,
    ) -> Self {
        let mut cf = ChunkedFrame::new(name, Label::Reg(Vec::new()), opts, store);
        cf.n_rows = n_rows;
        cf
    }

    /// Install the label of a frame built via
    /// [`new_streaming`](Self::new_streaming); must match the row count.
    pub(crate) fn set_label(&mut self, label: Label) -> Result<()> {
        if label.len() != self.n_rows {
            return Err(TabularError::LengthMismatch {
                what: "chunked frame label".into(),
                expected: self.n_rows,
                got: label.len(),
            });
        }
        self.label = label;
        Ok(())
    }

    /// Register a new (empty) column for chunk-at-a-time appends via
    /// [`append_chunk`](Self::append_chunk); returns its index.
    pub(crate) fn begin_column(&mut self, name: impl Into<String>) -> usize {
        self.columns.push(ChunkedColumn {
            name: name.into(),
            slots: Vec::new(),
            n_rows: 0,
        });
        self.columns.len() - 1
    }

    /// Chunk-encode an in-RAM frame. Round-tripping through
    /// [`to_dataframe`](Self::to_dataframe) is bit-identical.
    pub fn from_dataframe(
        df: &DataFrame,
        opts: ChunkOptions,
        store: Box<dyn ColumnStore>,
    ) -> Result<ChunkedFrame> {
        let mut cf = ChunkedFrame::new(df.name.clone(), df.label().clone(), opts, store);
        for col in df.columns() {
            cf.push_column_values(&col.name, &col.values)?;
        }
        Ok(cf)
    }

    /// Rows (fixed at construction).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Feature columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Rows per (full) chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Chunks per full column: `ceil(n_rows / chunk_rows)`.
    pub fn n_chunks(&self) -> usize {
        self.n_rows().div_ceil(self.chunk_rows)
    }

    /// The label.
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// The downstream task type.
    pub fn task(&self) -> Task {
        self.label.task()
    }

    /// Borrow the column metadata.
    pub fn columns(&self) -> &[ChunkedColumn] {
        &self.columns
    }

    /// Name of column `idx`.
    pub fn column_name(&self, idx: usize) -> Result<&str> {
        self.columns
            .get(idx)
            .map(|c| c.name.as_str())
            .ok_or_else(|| TabularError::NoSuchColumn(format!("#{idx}")))
    }

    /// The frame's resident-bytes budget.
    pub fn budget(&self) -> FrameBudget {
        self.core.budget
    }

    /// Append a new column from a full value slice, encoding chunk by
    /// chunk. Returns the new column index.
    pub(crate) fn push_column_values(&mut self, name: &str, values: &[f64]) -> Result<usize> {
        if values.len() != self.n_rows() {
            return Err(TabularError::LengthMismatch {
                what: format!("new chunked column `{name}`"),
                expected: self.n_rows(),
                got: values.len(),
            });
        }
        let chunks = values
            .chunks(self.chunk_rows)
            .map(ChunkEncoding::encode)
            .collect();
        self.push_column_chunks(name, chunks)
    }

    /// Append a new column from pre-encoded chunks (all but the last must
    /// hold exactly `chunk_rows` rows; totals must match the frame).
    /// Callers that encode chunks in parallel push them here in chunk-index
    /// order. Returns the new column index.
    pub fn push_column_chunks(&mut self, name: &str, chunks: Vec<ChunkEncoding>) -> Result<usize> {
        let idx = self.begin_column(name);
        for enc in chunks {
            if let Err(e) = self.append_chunk(idx, enc) {
                self.columns.pop();
                return Err(e);
            }
        }
        if self.columns[idx].n_rows != self.n_rows() {
            let got = self.columns[idx].n_rows;
            self.columns.pop();
            return Err(TabularError::LengthMismatch {
                what: format!("new chunked column `{name}`"),
                expected: self.n_rows(),
                got,
            });
        }
        Ok(idx)
    }

    /// Append one encoded chunk to a (possibly still partial) column.
    /// Streaming producers (the synthetic generator, chunk pipelines) call
    /// this in chunk-index order.
    pub(crate) fn append_chunk(&mut self, col: usize, enc: ChunkEncoding) -> Result<()> {
        let n_rows = self.n_rows();
        let chunk_rows = self.chunk_rows;
        let column = self
            .columns
            .get(col)
            .ok_or_else(|| TabularError::NoSuchColumn(format!("#{col}")))?;
        let expected = chunk_rows.min(n_rows - column.n_rows);
        if enc.len() != expected {
            return Err(TabularError::LengthMismatch {
                what: format!("chunk {} of column `{}`", column.n_chunks(), column.name),
                expected,
                got: enc.len(),
            });
        }
        let rows = enc.len();
        let id = self.core.insert(enc)?;
        let column = &mut self.columns[col];
        column.slots.push(id);
        column.n_rows += rows;
        Ok(())
    }

    /// Handle to chunk `k` of column `col`, loading from the store if it
    /// was evicted. The returned `Arc` stays valid even if the chunk is
    /// evicted again while the caller holds it.
    pub fn chunk(&self, col: usize, k: usize) -> Result<Arc<ChunkEncoding>> {
        let column = self
            .columns
            .get(col)
            .ok_or_else(|| TabularError::NoSuchColumn(format!("#{col}")))?;
        let id = *column.slots.get(k).ok_or_else(|| {
            TabularError::InvalidParam(format!(
                "chunk index {k} out of range for column `{}` ({} chunks)",
                column.name,
                column.n_chunks()
            ))
        })?;
        self.core.get(id)
    }

    /// Decode chunk `k` of column `col` into `out` (cleared first); returns
    /// the chunk's row count. This is the metered decode path
    /// (`frame.chunk_decode_us`).
    pub(crate) fn decode_chunk_into(
        &self,
        col: usize,
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<usize> {
        let enc = self.chunk(col, k)?;
        let start = Instant::now();
        enc.decode_into(out);
        telemetry::record("frame.chunk_decode_us", us_since(start));
        {
            let mut state = self.core.state();
            state.decoded += 1;
        }
        GLOBAL.decoded.fetch_add(1, Ordering::Relaxed);
        Ok(out.len())
    }

    /// Visit every chunk of a column in chunk-index order, decoded into
    /// `buf`. The callback receives `(chunk_index, first_row, values)`.
    pub fn for_each_chunk(
        &self,
        col: usize,
        buf: &mut Vec<f64>,
        mut f: impl FnMut(usize, usize, &[f64]),
    ) -> Result<()> {
        let n_chunks = self
            .columns
            .get(col)
            .ok_or_else(|| TabularError::NoSuchColumn(format!("#{col}")))?
            .n_chunks();
        for k in 0..n_chunks {
            self.decode_chunk_into(col, k, buf)?;
            f(k, k * self.chunk_rows, buf);
        }
        Ok(())
    }

    /// Fold a column's values in row order without materializing the whole
    /// column, chunk by chunk. Bitwise identical to the same sequential
    /// fold over the flat column (chunking only regroups the iteration).
    pub fn fold_column<T>(&self, col: usize, init: T, mut f: impl FnMut(T, f64) -> T) -> Result<T> {
        let n_chunks = self
            .columns
            .get(col)
            .ok_or_else(|| TabularError::NoSuchColumn(format!("#{col}")))?
            .n_chunks();
        let mut acc = init;
        for k in 0..n_chunks {
            let enc = self.chunk(col, k)?;
            acc = enc.fold_values(acc, &mut f);
        }
        Ok(acc)
    }

    /// The value at `(col, row)`. Intended for small gathers; bulk access
    /// should go chunk-at-a-time.
    pub fn value_at(&self, col: usize, row: usize) -> Result<f64> {
        let k = row / self.chunk_rows;
        let enc = self.chunk(col, k)?;
        Ok(enc.value_at(row - k * self.chunk_rows))
    }

    /// Materialize one column into `out` (cleared first).
    pub fn materialize_column(&self, col: usize, out: &mut Vec<f64>) -> Result<()> {
        out.clear();
        out.reserve(self.n_rows());
        let mut buf = Vec::new();
        self.for_each_chunk(col, &mut buf, |_, _, vals| out.extend_from_slice(vals))?;
        Ok(())
    }

    /// Materialize the whole frame as an in-RAM [`DataFrame`]. Bit-identical
    /// to the data originally pushed.
    pub fn to_dataframe(&self) -> Result<DataFrame> {
        let mut columns = Vec::with_capacity(self.n_cols());
        for (i, c) in self.columns.iter().enumerate() {
            let mut values = Vec::new();
            self.materialize_column(i, &mut values)?;
            columns.push(Column::new(c.name.clone(), values));
        }
        DataFrame::new(self.name.clone(), columns, self.label.clone())
    }

    /// Replace every non-finite value with 0.0 chunk-at-a-time, re-encoding
    /// only chunks that changed; returns the number of replacements.
    /// Mirrors [`DataFrame::sanitize`].
    pub fn sanitize(&mut self) -> Result<usize> {
        let mut fixed = 0usize;
        let mut buf = Vec::new();
        for col in 0..self.n_cols() {
            for k in 0..self.columns[col].n_chunks() {
                let enc = self.chunk(col, k)?;
                let dirty = enc.fold_values(false, |d, v| d || !v.is_finite());
                if !dirty {
                    continue;
                }
                enc.decode_into(&mut buf);
                for v in buf.iter_mut() {
                    if !v.is_finite() {
                        *v = 0.0;
                        fixed += 1;
                    }
                }
                let id = self.columns[col].slots[k];
                self.core.replace(id, ChunkEncoding::encode(&buf))?;
            }
        }
        Ok(fixed)
    }

    /// A view of this frame holding the columns at `idx`, in that order.
    /// Chunk storage (and the budget) is shared with `self`; only the
    /// column descriptors are copied. Consumers that must present columns
    /// in an order other than insertion order (e.g. the engineered frame's
    /// subgroup order) reorder here instead of re-encoding.
    pub fn select_columns(&self, idx: &[usize]) -> Result<ChunkedFrame> {
        let columns = idx
            .iter()
            .map(|&i| {
                self.columns
                    .get(i)
                    .cloned()
                    .ok_or_else(|| TabularError::NoSuchColumn(format!("#{i}")))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ChunkedFrame {
            name: self.name.clone(),
            label: self.label.clone(),
            n_rows: self.n_rows,
            columns,
            chunk_rows: self.chunk_rows,
            core: Arc::clone(&self.core),
        })
    }

    /// Residency/traffic statistics for this frame.
    pub fn stats(&self) -> FrameStats {
        let state = self.core.state();
        FrameStats {
            chunks_resident: state.resident_count(),
            resident_bytes: state.resident_bytes,
            chunks_spilled: state.spilled,
            chunks_evicted: state.evicted,
            chunks_loaded: state.loaded,
            chunks_decoded: state.decoded,
        }
    }
}

#[cfg(test)]
use crate::store::InMemoryStore;

#[cfg(test)]
impl ChunkedFrame {
    /// An empty frame backed by an in-memory store.
    pub(crate) fn new_in_memory(name: impl Into<String>, label: Label, opts: ChunkOptions) -> Self {
        ChunkedFrame::new(name, label, opts, Box::new(InMemoryStore::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_label(n: usize) -> Label {
        Label::Reg((0..n).map(|i| i as f64).collect())
    }

    #[test]
    fn encode_picks_the_dense_layout() {
        let low: Vec<f64> = (0..1000).map(|i| (i % 7) as f64).collect();
        assert!(matches!(
            ChunkEncoding::encode(&low),
            ChunkEncoding::Dict8 { .. }
        ));
        let mid: Vec<f64> = (0..2000).map(|i| (i % 600) as f64).collect();
        assert!(matches!(
            ChunkEncoding::encode(&mid),
            ChunkEncoding::Dict16 { .. }
        ));
        let high: Vec<f64> = (0..5000).map(|i| i as f64 * 1.000001).collect();
        assert!(matches!(
            ChunkEncoding::encode(&high),
            ChunkEncoding::F64(_)
        ));
    }

    #[test]
    fn round_trip_is_bit_identical_including_weird_floats() {
        let vals = vec![
            1.0,
            -0.0,
            0.0,
            f64::NAN,
            f64::from_bits(0x7ff8000000000001), // NaN with a payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -0.0,
            1.0,
        ];
        let enc = ChunkEncoding::encode(&vals);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, got);
        // And through the wire format (byte-compare: NaN defeats PartialEq).
        let enc2 = ChunkEncoding::from_bytes(&enc.to_bytes()).unwrap();
        assert_eq!(enc.to_bytes(), enc2.to_bytes());
    }

    #[test]
    fn wire_format_rejects_corruption() {
        let enc = ChunkEncoding::encode(&[1.0, 2.0, 1.0]);
        let bytes = enc.to_bytes();
        assert!(ChunkEncoding::from_bytes(&bytes[..3]).is_err());
        let mut bad_tag = bytes.clone();
        bad_tag[0] = 9;
        assert!(ChunkEncoding::from_bytes(&bad_tag).is_err());
        let mut bad_code = bytes;
        *bad_code.last_mut().unwrap() = 200; // code beyond dict
        assert!(ChunkEncoding::from_bytes(&bad_code).is_err());
    }

    #[test]
    fn frame_round_trips_dataframe() {
        let df = DataFrame::new(
            "t",
            vec![
                Column::new("a", (0..300).map(|i| (i % 5) as f64).collect()),
                Column::new("b", (0..300).map(|i| i as f64 * 0.1).collect()),
            ],
            reg_label(300),
        )
        .unwrap();
        let cf = ChunkedFrame::from_dataframe(
            &df,
            ChunkOptions::default().with_chunk_rows(64),
            Box::new(InMemoryStore::new()),
        )
        .unwrap();
        assert_eq!(cf.n_chunks(), 5);
        assert_eq!(cf.to_dataframe().unwrap(), df);
        assert_eq!(
            cf.value_at(1, 299).unwrap().to_bits(),
            df.columns()[1].values[299].to_bits()
        );
    }

    #[test]
    fn budget_spills_and_reloads_losslessly() {
        let n = 10_000;
        let values: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let df = DataFrame::new(
            "t",
            vec![
                Column::new("a", values.clone()),
                Column::new("b", values.iter().map(|v| v * 2.0).collect()),
            ],
            reg_label(n),
        )
        .unwrap();
        // ~80KB of f64 per column, 1024-row chunks, 32KB budget → eviction.
        let cf = ChunkedFrame::from_dataframe(
            &df,
            ChunkOptions::default()
                .with_chunk_rows(1024)
                .with_budget(FrameBudget::from_bytes(32 * 1024)),
            Box::new(InMemoryStore::new()),
        )
        .unwrap();
        let stats = cf.stats();
        assert!(stats.chunks_spilled > 0, "budget should force spills");
        assert!(stats.resident_bytes <= 32 * 1024);
        assert_eq!(cf.to_dataframe().unwrap(), df);
        let stats = cf.stats();
        assert!(stats.chunks_loaded > 0, "materialize should reload");
    }

    /// A spill file damaged underneath the frame surfaces from
    /// [`ChunkedFrame::chunk`] as the store's typed error, and only for
    /// the chunks that have to come back from it.
    #[test]
    fn evicted_chunk_of_a_damaged_spill_file_is_an_io_error() {
        use std::io::{Read, Seek, SeekFrom, Write};
        let n = 4096;
        let values: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let df = DataFrame::new("t", vec![Column::new("a", values)], reg_label(n)).unwrap();
        let path =
            std::env::temp_dir().join(format!("eafc_chunk_fault_{}.eafc", std::process::id()));
        // Raw 8 KiB chunks under a budget of one: chunks 0..3 are spilled in
        // order (chunk 0 at the first payload offset, 16) and evicted.
        let cf = ChunkedFrame::from_dataframe(
            &df,
            ChunkOptions::default()
                .with_chunk_rows(1024)
                .with_budget(FrameBudget::from_bytes(8 * 1024 + 512)),
            Box::new(crate::store::MmapStore::create(&path).unwrap()),
        )
        .unwrap();
        assert_eq!(cf.stats().chunks_spilled, 3);

        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let mut byte = [0u8; 1];
        file.seek(SeekFrom::Start(16 + 100)).unwrap();
        file.read_exact(&mut byte).unwrap();
        file.seek(SeekFrom::Start(16 + 100)).unwrap();
        file.write_all(&[byte[0] ^ 1]).unwrap();
        match cf.chunk(0, 0) {
            Err(TabularError::Io(msg)) => {
                assert!(msg.contains("checksum mismatch at offset 16"), "{msg}")
            }
            other => panic!("flipped byte must fail the checksum, got {other:?}"),
        }
        cf.chunk(0, 1).expect("an intact record still loads");

        file.set_len(16 + 100).unwrap();
        assert!(matches!(cf.chunk(0, 2), Err(TabularError::Io(_))));
        cf.chunk(0, 1).expect("the resident chunk needs no file");
        drop(cf);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sanitize_matches_flat_sanitize() {
        let mut values: Vec<f64> = (0..500).map(|i| i as f64).collect();
        values[7] = f64::NAN;
        values[499] = f64::INFINITY;
        let mut df = DataFrame::new("t", vec![Column::new("a", values)], reg_label(500)).unwrap();
        let mut cf = ChunkedFrame::from_dataframe(
            &df,
            ChunkOptions::default().with_chunk_rows(100),
            Box::new(InMemoryStore::new()),
        )
        .unwrap();
        assert_eq!(cf.sanitize().unwrap(), df.sanitize());
        assert_eq!(cf.to_dataframe().unwrap(), df);
    }

    #[test]
    fn fold_column_matches_flat_fold() {
        let values: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let df =
            DataFrame::new("t", vec![Column::new("a", values.clone())], reg_label(1000)).unwrap();
        let cf = ChunkedFrame::from_dataframe(
            &df,
            ChunkOptions::default().with_chunk_rows(128),
            Box::new(InMemoryStore::new()),
        )
        .unwrap();
        let flat = values.iter().fold(f64::INFINITY, |a, &v| a.min(v));
        let chunked = cf.fold_column(0, f64::INFINITY, |a, v| a.min(v)).unwrap();
        assert_eq!(flat.to_bits(), chunked.to_bits());
    }

    #[test]
    fn append_chunk_validates_shape() {
        let mut cf = ChunkedFrame::new_in_memory(
            "t",
            reg_label(250),
            ChunkOptions::default().with_chunk_rows(100),
        );
        let col = cf.push_column_chunks("a", vec![]).unwrap_err();
        assert!(matches!(col, TabularError::LengthMismatch { .. }));
        let mut cf2 = ChunkedFrame::new_in_memory(
            "t",
            reg_label(250),
            ChunkOptions::default().with_chunk_rows(100),
        );
        let chunks = vec![
            ChunkEncoding::encode(&vec![1.0; 100]),
            ChunkEncoding::encode(&vec![2.0; 100]),
            ChunkEncoding::encode(&vec![3.0; 50]),
        ];
        let idx = cf2.push_column_chunks("a", chunks).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(cf2.columns()[0].n_chunks(), 3);
        // A wrong-sized middle chunk is rejected.
        let mut cf3 = ChunkedFrame::new_in_memory(
            "t",
            reg_label(250),
            ChunkOptions::default().with_chunk_rows(100),
        );
        cf3.push_column_chunks("a", vec![ChunkEncoding::encode(&vec![0.0; 99])])
            .unwrap_err();
    }
}
