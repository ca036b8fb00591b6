//! Append-only history logs with copy-on-write structural sharing.
//!
//! A run's history — the trace, the decision stream, the per-decision
//! enabled sets, the per-task syscall logs — only ever grows, yet the
//! pre-chunked [`WorldState`](crate::kernel) cloned all of it on every
//! snapshot, making snapshot cost O(history) instead of O(live machine
//! state). [`ChunkedLog`] fixes the representation: elements are stored in
//! immutable, `Arc`-shared *sealed chunks* plus one small mutable *tail*
//! (a chunked persistent-vector). Cloning a log is
//!
//! - one `Arc` bump (an 8-byte handle copy plus a refcount increment) per
//!   sealed chunk, and
//! - a deep copy of the tail, which never exceeds the chunk capacity.
//!
//! So a snapshot pool of K snapshots over an N-event history allocates
//! O(N + K·chunk) bytes, not O(N·K): every snapshot shares the sealed
//! prefix with the run that produced it and with every other snapshot of
//! the same run. Chunks are immutable after sealing, which is what makes a
//! `ChunkedLog<T>` `Send + Sync` (for `T: Send + Sync`), so snapshots that
//! share chunks stay `Send + Sync` too.
//!
//! The representation is invisible to consumers: iteration order, indexing,
//! equality and the serialized form are identical to a plain `Vec<T>` (the
//! serde impls encode a flat sequence), so the bit-identical-trace
//! guarantees of snapshot/restore and checkpointed exploration hold
//! unchanged.

use serde::{Deserialize, Deserializer, Error, Kind, Serialize};
use std::ops::Index;
use std::sync::Arc;

/// Default elements per sealed chunk. Large enough that the per-snapshot
/// handle copies are negligible (8 bytes per `DEFAULT_CHUNK_LEN` elements),
/// small enough that the tail copy stays far below one workload's history.
pub const DEFAULT_CHUNK_LEN: usize = 256;

/// An append-only log of `T` stored as `Arc`-shared sealed chunks plus a
/// bounded mutable tail. See the [module docs](self) for the cost model.
pub struct ChunkedLog<T> {
    /// Capacity at which the tail is sealed into a shared chunk.
    chunk_len: usize,
    /// Immutable full chunks, shared (never mutated) after sealing.
    sealed: Vec<Arc<Vec<T>>>,
    /// Total elements across `sealed` (each sealed chunk holds exactly
    /// `chunk_len` elements, but the invariant is kept explicit so reads
    /// never multiply).
    sealed_len: usize,
    /// The mutable tail; `tail.len() < chunk_len` between operations.
    tail: Vec<T>,
}

impl<T> ChunkedLog<T> {
    /// An empty log with the [default chunk capacity](DEFAULT_CHUNK_LEN).
    pub fn new() -> Self {
        Self::with_chunk_len(DEFAULT_CHUNK_LEN)
    }

    /// An empty log sealing chunks at `chunk_len` elements. Smaller chunks
    /// bound the tail copy tighter (cheaper clones) at the price of more
    /// handle bumps per clone.
    pub fn with_chunk_len(chunk_len: usize) -> Self {
        ChunkedLog {
            chunk_len: chunk_len.max(1),
            sealed: Vec::new(),
            sealed_len: 0,
            tail: Vec::new(),
        }
    }

    /// Reassembles a log from its storage runs: `sealed` chunks (each must
    /// hold exactly `chunk_len` elements) plus the mutable tail. This is the
    /// decode path of the on-disk snapshot format, which persists sealed
    /// chunks and the tail separately so a delta snapshot can reference
    /// already-written chunks by handle.
    pub fn from_parts(chunk_len: usize, sealed: Vec<Vec<T>>, tail: Vec<T>) -> Result<Self, String> {
        let chunk_len = chunk_len.max(1);
        let mut sealed_len = 0;
        for (i, chunk) in sealed.iter().enumerate() {
            if chunk.len() != chunk_len {
                return Err(format!(
                    "sealed chunk {i} holds {} elements, expected {chunk_len}",
                    chunk.len()
                ));
            }
            sealed_len += chunk.len();
        }
        if tail.len() >= chunk_len {
            return Err(format!(
                "tail holds {} elements, expected fewer than {chunk_len}",
                tail.len()
            ));
        }
        Ok(ChunkedLog {
            chunk_len,
            sealed: sealed.into_iter().map(Arc::new).collect(),
            sealed_len,
            tail,
        })
    }

    /// Capacity at which the tail is sealed into a shared chunk.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// The `index`-th sealed chunk as a slice, if in bounds.
    pub fn sealed_chunk(&self, index: usize) -> Option<&[T]> {
        self.sealed.get(index).map(|c| c.as_slice())
    }

    /// The mutable tail as a slice.
    pub fn tail(&self) -> &[T] {
        &self.tail
    }

    /// Appends an element, sealing the tail into a shared chunk when full.
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() >= self.chunk_len {
            let full = std::mem::take(&mut self.tail);
            self.sealed_len += full.len();
            self.sealed.push(Arc::new(full));
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.sealed_len + self.tail.len()
    }

    /// Returns `true` if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.sealed_len {
            return self.tail.get(index - self.sealed_len);
        }
        let chunk = &self.sealed[index / self.chunk_len];
        chunk.get(index % self.chunk_len)
    }

    /// The most recently pushed element, if any.
    pub fn last(&self) -> Option<&T> {
        self.tail
            .last()
            .or_else(|| self.sealed.last().and_then(|c| c.last()))
    }

    /// Iterates over all elements in insertion order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            chunks: self.sealed.iter(),
            front: [].iter(),
            tail: self.tail.iter(),
            remaining: self.len(),
        }
    }

    /// Iterates over the log's storage runs (sealed chunks, then the tail)
    /// as slices — the bulk-copy path for consumers that materialize a
    /// contiguous buffer.
    pub fn chunks(&self) -> impl Iterator<Item = &[T]> {
        self.sealed
            .iter()
            .map(|c| c.as_slice())
            .chain(std::iter::once(self.tail.as_slice()))
            .filter(|s| !s.is_empty())
    }

    /// Number of sealed (shared) chunks.
    pub fn sealed_chunk_count(&self) -> usize {
        self.sealed.len()
    }

    /// Elements in the mutable tail (the part a clone deep-copies).
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Number of sealed chunks this log shares (same allocation, via
    /// `Arc::ptr_eq`) with `other`. Two clones of the same log share their
    /// entire sealed prefix.
    pub fn shared_chunks_with(&self, other: &Self) -> usize {
        self.sealed
            .iter()
            .zip(&other.sealed)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Bytes a clone of this log copies: one handle per sealed chunk plus
    /// the tail's contents (`per` estimates one element's heap footprint,
    /// including `size_of::<T>()`).
    pub fn clone_bytes(&self, per: impl Fn(&T) -> u64) -> u64 {
        let handles = (self.sealed.len() * std::mem::size_of::<Arc<Vec<T>>>()) as u64;
        handles + self.tail.iter().map(per).sum::<u64>()
    }

    /// Bytes the full history occupies — what a deep (structure-unaware)
    /// clone would copy.
    pub fn total_bytes(&self, per: impl Fn(&T) -> u64) -> u64 {
        self.iter().map(per).sum()
    }
}

impl<T: Clone> ChunkedLog<T> {
    /// Copies all elements into a plain vector.
    pub fn to_vec(&self) -> Vec<T> {
        let mut v = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            v.extend_from_slice(chunk);
        }
        v
    }

    /// A deep copy sharing nothing with `self`: every sealed chunk is
    /// re-allocated. This is the pre-chunking snapshot cost, kept as the
    /// baseline the `snapshot_cost` benchmark compares against.
    pub fn unshared(&self) -> Self {
        ChunkedLog {
            chunk_len: self.chunk_len,
            sealed: self
                .sealed
                .iter()
                .map(|c| Arc::new(c.as_ref().clone()))
                .collect(),
            sealed_len: self.sealed_len,
            tail: self.tail.clone(),
        }
    }
}

impl<T: Clone> Clone for ChunkedLog<T> {
    fn clone(&self) -> Self {
        ChunkedLog {
            chunk_len: self.chunk_len,
            // The cheap part: handle copies, no element is cloned.
            sealed: self.sealed.clone(),
            sealed_len: self.sealed_len,
            tail: self.tail.clone(),
        }
    }
}

impl<T> Default for ChunkedLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ChunkedLog<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for ChunkedLog<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for ChunkedLog<T> {}

impl<T> Index<usize> for ChunkedLog<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        self.get(index)
            .unwrap_or_else(|| panic!("index {index} out of bounds (len {})", self.len()))
    }
}

impl<T> Extend<T> for ChunkedLog<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T> FromIterator<T> for ChunkedLog<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut log = ChunkedLog::new();
        log.extend(iter);
        log
    }
}

impl<T> From<Vec<T>> for ChunkedLog<T> {
    fn from(v: Vec<T>) -> Self {
        v.into_iter().collect()
    }
}

impl<'a, T> IntoIterator for &'a ChunkedLog<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

// Serialized as a flat sequence — byte-for-byte the same artifact a
// `Vec<T>` produces, so trace hashes and persisted schedule logs are
// representation-independent.
impl<T: Serialize> Serialize for ChunkedLog<T> {
    fn serialize(&self, out: &mut dyn serde::Serializer) {
        serde::serialize_seq(self, out)
    }
}

// Decoded element by element straight into the log's chunks.
impl<T: Deserialize> Deserialize for ChunkedLog<T> {
    fn deserialize(de: &mut dyn Deserializer) -> Result<Self, Error> {
        if de.peek()? != Kind::Seq {
            return Err(Error::custom("expected a sequence for ChunkedLog"));
        }
        let mut log = ChunkedLog::new();
        de.begin_seq()?;
        while de.next_element()? {
            log.push(T::deserialize(de)?);
        }
        Ok(log)
    }
}

/// Iterator over a [`ChunkedLog`]'s elements in insertion order.
pub struct Iter<'a, T> {
    chunks: std::slice::Iter<'a, Arc<Vec<T>>>,
    front: std::slice::Iter<'a, T>,
    tail: std::slice::Iter<'a, T>,
    remaining: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(v) = self.front.next() {
                self.remaining -= 1;
                return Some(v);
            }
            match self.chunks.next() {
                Some(chunk) => self.front = chunk.iter(),
                None => {
                    let v = self.tail.next();
                    if v.is_some() {
                        self.remaining -= 1;
                    }
                    return v;
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(n: usize, chunk: usize) -> ChunkedLog<u64> {
        let mut log = ChunkedLog::with_chunk_len(chunk);
        for i in 0..n {
            log.push(i as u64);
        }
        log
    }

    #[test]
    fn push_len_get_index_roundtrip() {
        let log = log_of(1000, 16);
        assert_eq!(log.len(), 1000);
        assert!(!log.is_empty());
        for i in 0..1000 {
            assert_eq!(log.get(i), Some(&(i as u64)));
            assert_eq!(log[i], i as u64);
        }
        assert_eq!(log.get(1000), None);
        assert_eq!(log.last(), Some(&999));
    }

    #[test]
    fn iteration_matches_insertion_order() {
        let log = log_of(100, 7);
        let collected: Vec<u64> = log.iter().copied().collect();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
        assert_eq!(log.iter().len(), 100);
        assert_eq!(log.to_vec(), collected);
    }

    #[test]
    fn chunks_cover_everything_in_order() {
        let log = log_of(40, 16);
        assert_eq!(log.sealed_chunk_count(), 2);
        assert_eq!(log.tail_len(), 8);
        let flat: Vec<u64> = log.chunks().flatten().copied().collect();
        assert_eq!(flat, log.to_vec());
    }

    #[test]
    fn clone_shares_sealed_chunks_and_copies_the_tail() {
        let mut log = log_of(40, 16);
        let snap = log.clone();
        assert_eq!(snap.shared_chunks_with(&log), 2);
        // The original keeps growing without disturbing the clone.
        for i in 40..100 {
            log.push(i);
        }
        assert_eq!(snap.len(), 40);
        assert_eq!(log.len(), 100);
        assert_eq!(snap.to_vec(), (0..40).collect::<Vec<_>>());
        // Chunks sealed after the clone are not shared.
        assert_eq!(snap.shared_chunks_with(&log), 2);
    }

    #[test]
    fn unshared_deep_copy_shares_nothing() {
        let log = log_of(64, 16);
        let deep = log.unshared();
        assert_eq!(deep, log);
        assert_eq!(deep.shared_chunks_with(&log), 0);
    }

    #[test]
    fn clone_bytes_is_bounded_by_the_tail_while_total_grows() {
        let per = |_: &u64| 8u64;
        let short = log_of(64, 16);
        let long = log_of(4096, 16);
        assert!(long.total_bytes(per) > 60 * short.total_bytes(per));
        // Clone cost: handles (8·chunks) + tail (< chunk_len elements) —
        // the element-copy part never exceeds one chunk regardless of
        // history length.
        let handle = std::mem::size_of::<Arc<Vec<u64>>>() as u64;
        assert!(long.clone_bytes(per) <= long.sealed_chunk_count() as u64 * handle + 16 * 8);
    }

    #[test]
    fn equality_is_element_wise() {
        let a = log_of(50, 8);
        let b = log_of(50, 32); // Different chunking, same contents.
        assert_eq!(a, b);
        let c = log_of(51, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn serde_matches_vec_format() {
        let log = log_of(20, 8);
        let as_vec: Vec<u64> = log.to_vec();
        assert_eq!(
            serde_json::to_string(&log).unwrap(),
            serde_json::to_string(&as_vec).unwrap()
        );
        let back: ChunkedLog<u64> = serde_json::from_str(&serde_json::to_string(&log).unwrap())
            .expect("chunked log deserializes");
        assert_eq!(back, log);
    }

    #[test]
    fn from_vec_and_extend() {
        let mut log: ChunkedLog<u64> = vec![1, 2, 3].into();
        log.extend([4, 5]);
        assert_eq!(log.to_vec(), vec![1, 2, 3, 4, 5]);
    }
}
