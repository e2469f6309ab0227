//! Pooled `f64` scratch buffers for chunk-at-a-time pipelines.
//!
//! Chunked execution decodes compressed chunks into transient `f64`
//! buffers at high frequency (one decode per chunk visit). Allocating a
//! fresh `Vec` per decode would put the allocator on the hot path, so this
//! module keeps a small process-wide pool of recycled buffers: take one
//! with [`scratch_f64`], use it as a plain `Vec<f64>`, and it returns to
//! the pool on drop (cleared, capacity kept).
//!
//! The pool is bounded ([`MAX_POOLED`] buffers, [`MAX_POOLED_CAP`] floats
//! each) so pathological peaks don't pin memory forever. Telemetry:
//! `scratch.hits` / `scratch.misses` count pool reuse.

use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// Maximum buffers the pool retains.
pub(crate) const MAX_POOLED: usize = 64;
/// Buffers with more capacity than this many floats are dropped rather
/// than pooled (1M floats = 8 MiB).
pub(crate) const MAX_POOLED_CAP: usize = 1 << 20;

static POOL: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

/// A pooled `f64` buffer; derefs to `Vec<f64>` and returns to the pool on
/// drop.
#[derive(Debug, Default)]
pub struct ScratchF64 {
    buf: Vec<f64>,
}

impl ScratchF64 {
    /// Consume the guard, keeping the buffer (it will not be pooled).
    pub fn into_inner(mut self) -> Vec<f64> {
        std::mem::take(&mut self.buf)
    }
}

impl Deref for ScratchF64 {
    type Target = Vec<f64>;
    fn deref(&self) -> &Vec<f64> {
        &self.buf
    }
}

impl DerefMut for ScratchF64 {
    fn deref_mut(&mut self) -> &mut Vec<f64> {
        &mut self.buf
    }
}

impl Drop for ScratchF64 {
    fn drop(&mut self) {
        if self.buf.capacity() == 0 || self.buf.capacity() > MAX_POOLED_CAP {
            return;
        }
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let mut pool = crate::lock(&POOL);
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    }
}

/// Take a cleared scratch buffer from the pool (or a fresh one on miss).
pub(crate) fn scratch_f64() -> ScratchF64 {
    let buf = crate::lock(&POOL).pop();
    match buf {
        Some(buf) => {
            telemetry::count("scratch.hits", 1);
            ScratchF64 { buf }
        }
        None => {
            telemetry::count("scratch.misses", 1);
            ScratchF64 { buf: Vec::new() }
        }
    }
}

/// Take a scratch buffer with at least `cap` floats of capacity.
pub fn scratch_f64_with_capacity(cap: usize) -> ScratchF64 {
    let mut s = scratch_f64();
    s.reserve(cap);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_through_the_pool() {
        let mut a = scratch_f64_with_capacity(128);
        a.extend_from_slice(&[1.0, 2.0, 3.0]);
        let ptr = a.as_ptr();
        let cap = a.capacity();
        drop(a);
        // Drain until we find the recycled buffer (other tests share the
        // pool); it comes back cleared with capacity intact.
        let mut found = false;
        let mut held = Vec::new();
        for _ in 0..MAX_POOLED {
            let b = scratch_f64();
            if b.capacity() == cap && b.as_ptr() == ptr {
                assert!(b.is_empty());
                found = true;
                break;
            }
            held.push(b);
        }
        assert!(found, "recycled buffer should come back from the pool");
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let mut a = scratch_f64();
        a.reserve(MAX_POOLED_CAP + 1);
        let cap = a.capacity();
        drop(a);
        let pool = crate::lock(&POOL);
        assert!(pool
            .iter()
            .all(|b| b.capacity() != cap || cap <= MAX_POOLED_CAP));
    }

    #[test]
    fn into_inner_detaches_from_the_pool() {
        let mut a = scratch_f64();
        a.push(9.0);
        let v = a.into_inner();
        assert_eq!(v, vec![9.0]);
    }
}
