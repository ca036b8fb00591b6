//! The state digest: FNV-1a over the live machine state.
//!
//! A hashed run records [`WorldState::digest`] before every decision, and a
//! replay compares its own against them to localise the first diverging
//! decision. Promoted trace fixtures and the golden-hash suites commit these
//! values, so the encoding below is fixed: every word is fed as its 8
//! little-endian bytes, strings and byte strings with a length prefix.

use crate::conflict::OpDesc;
use crate::ops::{CvStage, Op};
use crate::value::Value;
use crate::world::{BlockOn, Phase, WorldState};
use std::cell::RefCell;

/// Incremental FNV-1a hasher over fed bytes and words: the workspace's one
/// stable hash. Hand-rolled rather than `DefaultHasher` so digests are
/// reproducible across Rust versions and platforms.
///
/// Words are fed as their 8 little-endian bytes, but hashing a zero byte is
/// a bare multiply by the prime, so [`u64`](Self::u64) folds a word's
/// high zero bytes into one multiply by a power of the prime. A word below
/// 256 costs one xor and one multiply, and every digest stays byte-at-a-time
/// FNV-1a's.
///
/// ```
/// let mut h = dd_sim::StateHasher::new();
/// h.bytes(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StateHasher(u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME.pow(k)` for `k` in `0..=8`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

impl Default for StateHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StateHasher {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        StateHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`, one at a time.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Feeds `v` as its 8 little-endian bytes.
    pub fn u64(&mut self, mut v: u64) {
        let mut h = self.0;
        let mut left = 8;
        while v > 0xff {
            h = (h ^ (v & 0xff)).wrapping_mul(FNV_PRIME);
            v >>= 8;
            left -= 1;
        }
        // `v` is the highest non-zero byte (or 0 for a zero word): hash it,
        // then the `left - 1` zero bytes above it, in one multiply.
        self.0 = (h ^ v).wrapping_mul(FNV_PRIME_POW[left]);
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.u64(x);
            }
        }
    }

    pub(crate) fn value(&mut self, v: &Value) {
        match v {
            Value::Unit => self.u64(0),
            Value::Bool(b) => {
                self.u64(1);
                self.u64(*b as u64);
            }
            Value::Int(i) => {
                self.u64(2);
                self.i64(*i);
            }
            Value::Str(s) => {
                self.u64(3);
                self.str(s);
            }
            Value::Bytes(b) => {
                self.u64(4);
                self.u64(b.len() as u64);
                self.bytes(b);
            }
            Value::List(vs) => {
                self.u64(5);
                self.u64(vs.len() as u64);
                for v in vs {
                    self.value(v);
                }
            }
        }
    }

    // `op_desc` and `phase` run once per task per digest, so they are
    // inlined into `WorldState::digest`.
    #[inline]
    fn op_desc(&mut self, d: &OpDesc) {
        match d {
            OpDesc::Var { var, write } => {
                self.u64(0);
                self.u64(var.index() as u64);
                self.u64(*write as u64);
            }
            OpDesc::Lock { lock } => {
                self.u64(1);
                self.u64(lock.index() as u64);
            }
            OpDesc::CvWait { cvar, lock } => {
                self.u64(2);
                self.u64(cvar.index() as u64);
                self.u64(lock.index() as u64);
            }
            OpDesc::CvNotify { cvar } => {
                self.u64(3);
                self.u64(cvar.index() as u64);
            }
            OpDesc::Chan { chan } => {
                self.u64(4);
                self.u64(chan.index() as u64);
            }
            OpDesc::PortIn { port } => {
                self.u64(5);
                self.u64(port.index() as u64);
            }
            OpDesc::PortOut { port } => {
                self.u64(6);
                self.u64(port.index() as u64);
            }
            OpDesc::Rng => self.u64(7),
            OpDesc::Local => self.u64(8),
            OpDesc::Global => self.u64(9),
        }
    }

    #[inline]
    fn phase(&mut self, p: &Phase) {
        match p {
            Phase::Ready => self.u64(0),
            Phase::Granted => self.u64(1),
            Phase::Running => self.u64(2),
            Phase::Blocked(b) => {
                self.u64(3);
                match b {
                    BlockOn::Lock(l) => {
                        self.u64(0);
                        self.u64(l.index() as u64);
                    }
                    BlockOn::Chan { chan, deadline } => {
                        self.u64(1);
                        self.u64(chan.index() as u64);
                        self.opt_u64(*deadline);
                    }
                    BlockOn::Cvar(c) => {
                        self.u64(2);
                        self.u64(c.index() as u64);
                    }
                    BlockOn::Port(p) => {
                        self.u64(3);
                        self.u64(p.index() as u64);
                    }
                    BlockOn::Join(t) => {
                        self.u64(4);
                        self.u64(t.index() as u64);
                    }
                    BlockOn::Timer { until } => {
                        self.u64(5);
                        self.u64(*until);
                    }
                }
            }
            Phase::Exited { ok } => {
                self.u64(4);
                self.u64(*ok as u64);
            }
        }
    }
}

/// An element of a fault-plane queue, set or map, which the digest feeds
/// component by component: words as words, strings length-prefixed.
trait Fold {
    fn fold(&self, h: &mut StateHasher);
}

impl Fold for u64 {
    fn fold(&self, h: &mut StateHasher) {
        h.u64(*self);
    }
}

impl Fold for u32 {
    fn fold(&self, h: &mut StateHasher) {
        h.u64(*self as u64);
    }
}

impl Fold for String {
    fn fold(&self, h: &mut StateHasher) {
        h.str(self);
    }
}

impl<T: Fold + ?Sized> Fold for &T {
    fn fold(&self, h: &mut StateHasher) {
        (**self).fold(h);
    }
}

impl<A: Fold, B: Fold> Fold for (A, B) {
    fn fold(&self, h: &mut StateHasher) {
        self.0.fold(h);
        self.1.fold(h);
    }
}

impl<A: Fold, B: Fold, C: Fold> Fold for (A, B, C) {
    fn fold(&self, h: &mut StateHasher) {
        self.0.fold(h);
        self.1.fold(h);
        self.2.fold(h);
    }
}

impl WorldState {
    /// FNV-1a digest of the live machine state (see
    /// [`decision_hashes`](Self::decision_hashes)).
    ///
    /// Covers everything that determines the run's future: clocks, step and
    /// event counts, the RNG, every task, variable, lock, condition
    /// variable, channel and port, timers, pending environment events,
    /// counters and the history *lengths* (hashing full history content
    /// would make each digest O(run length); any content divergence
    /// necessarily flows through the live state that produced it).
    /// Instrumentation cost (`wall_extra`) is deliberately excluded:
    /// attached observers differ between a recording and its replay, and
    /// recording overhead must not perturb the digest.
    pub(crate) fn digest(&self) -> u64 {
        let l = &self.live;
        let mut h = StateHasher::new();
        h.u64(l.time);
        h.u64(l.steps);
        h.u64(l.events);
        h.u64(l.decision_seq);
        h.u64(l.net_sends);
        h.u64(l.cancelling as u64);
        for w in l.rng.digest_words() {
            h.u64(w);
        }
        h.u64(l.tasks.len() as u64);
        for t in &l.tasks {
            h.phase(&t.phase);
            h.u64(t.killed as u64);
            h.u64(t.mem_used);
            h.u64(t.joiners.len() as u64);
            for j in &t.joiners {
                h.u64(j.index() as u64);
            }
            match &t.pending {
                None => h.u64(0),
                Some(d) => {
                    h.u64(1);
                    h.op_desc(d);
                }
            }
            // Hash the op-local progress the in-flight op has accumulated
            // (the historical `InflightPatch` encoding, kept byte-identical
            // so golden digests survive the coroutine-engine refactor).
            match &t.pending_op {
                Some(Op::CvWait {
                    stage: CvStage::Relock,
                    ..
                }) => h.u64(1),
                Some(Op::Recv {
                    deadline: Some(d), ..
                }) => {
                    h.u64(2);
                    h.u64(*d);
                }
                Some(Op::Sleep { until: Some(u), .. }) => {
                    h.u64(3);
                    h.u64(*u);
                }
                _ => h.u64(0),
            }
        }
        h.u64(l.vars.len() as u64);
        for v in &l.vars {
            h.value(&v.value);
        }
        h.u64(l.locks.len() as u64);
        for lock in &l.locks {
            h.opt_u64(lock.holder.map(|t| t.index() as u64));
        }
        h.u64(l.cvars.len() as u64);
        for c in &l.cvars {
            h.u64(c.waiters.len() as u64);
            for w in &c.waiters {
                h.u64(w.index() as u64);
            }
        }
        h.u64(l.chans.len() as u64);
        for c in &l.chans {
            h.u64(c.closed as u64);
            h.u64(c.queue.len() as u64);
            for v in &c.queue {
                h.value(v);
            }
        }
        h.u64(l.ports.len() as u64);
        for p in &l.ports {
            h.u64(p.remaining_inputs as u64);
            h.u64(p.queue.len() as u64);
            for v in &p.queue {
                h.value(v);
            }
        }
        // BinaryHeap iteration order is unspecified; hash the sorted view,
        // sorted in a buffer each thread reuses across digests (a receive
        // that completes before its deadline leaves its timer queued, so
        // dozens are common).
        thread_local! {
            static TIMERS: RefCell<Vec<(u64, u32)>> = const { RefCell::new(Vec::new()) };
        }
        TIMERS.with_borrow_mut(|timers| {
            timers.clear();
            timers.extend(l.timers.iter().map(|r| r.0));
            timers.sort_unstable();
            h.u64(timers.len() as u64);
            for &(when, seq) in timers.iter() {
                h.u64(when);
                h.u64(seq as u64);
            }
        });
        h.u64(l.pending_inputs.len() as u64);
        for p in &l.pending_inputs {
            h.u64(p.time);
            h.u64(p.port.index() as u64);
            h.value(&p.value);
        }
        h.u64(l.pending_crashes.len() as u64);
        for (time, group) in &l.pending_crashes {
            h.u64(*time);
            h.str(group);
        }
        // Fault-plane state is hashed only when present, so clean-run
        // digests (pinned by the golden-hash suites and promoted fixtures)
        // are byte-identical to the pre-fault-plane encoding.
        macro_rules! if_present {
            ($($field:ident),*) => {$(
                if !l.$field.is_empty() {
                    h.u64(l.$field.len() as u64);
                    for item in &l.$field {
                        item.fold(&mut h);
                    }
                }
            )*};
        }
        if_present!(
            pending_partitions,
            pending_heals,
            active_partitions,
            pending_restarts,
            restarts_due,
            restarts_fired,
            crash_counts,
            restart_counts
        );
        h.u64(l.counters.len() as u64);
        for (name, total) in &l.counters {
            h.str(name);
            h.i64(*total);
        }
        h.u64(self.outputs.len() as u64);
        h.u64(self.inputs_seen.len() as u64);
        h.u64(self.crashes.len() as u64);
        h.finish()
    }
}
