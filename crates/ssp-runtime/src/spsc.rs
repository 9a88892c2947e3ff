//! Single-producer single-consumer channels: the threaded runner's fast
//! path.
//!
//! Theorem 1's premise is exactly *single-reader single-writer* channels
//! (§3.2): every channel in a [`crate::chan::Topology`] has one declared
//! writer and one declared reader, statically checked before every send and
//! receive. That restriction is what lets the threaded backend drop the
//! `Mutex`/`Condvar` pair per channel entirely: a bounded SPSC FIFO needs
//! no lock, only one release/acquire pair per transfer.
//!
//! Two queue shapes live here, unified behind [`SpscRing`]:
//!
//! - **bounded** (`capacity = Some(k)`, the bounded-slack model): a
//!   lock-free fixed-size ring buffer. Head and tail are monotonically
//!   increasing counters; `index = count % capacity`. The producer caches
//!   the head and refreshes it only when the ring looks full, the consumer
//!   caches the tail and refreshes it only when the ring looks empty, so in
//!   steady state each side touches only its own cache line plus the slot.
//!   Compiled mesh plans run here: their §3.3 discipline makes slack 1 as
//!   good as infinite slack (DESIGN.md §7).
//! - **unbounded** (`capacity = None`, the paper's infinite-slack model): a
//!   `Mutex<VecDeque>` whose pushes never fail ("sends never block", as in
//!   [`crate::sim::Simulator`]). It serves generic programs that declare
//!   infinite slack and a partial run's ports to other processes, whose
//!   inbound thread must never wait on one reader
//!   ([`crate::sched::Gateway::push_inbound`]); neither is a measured hot
//!   path, so this queue holds no `unsafe`.
//!
//! The memory-ordering argument for the bounded ring (DESIGN.md §10): the
//! producer writes the slot, *then* stores the new tail with `Release`; the
//! consumer loads the tail with `Acquire`, so the slot write happens-before
//! the consumer's read. Symmetrically the consumer's `Release` store of head
//! after reading a slot happens-before the producer's `Acquire` reload when
//! it re-checks fullness, so a slot is never overwritten while still being
//! read. No other synchronization is required *because* there is exactly
//! one producer and one consumer — the SRSW restriction is doing real work.
//!
//! OS-level blocking is park/unpark via [`ParkSlot`], not a condvar: a
//! thread registers its [`std::thread::Thread`] handle once, advertises
//! that it is about to park with an atomic flag, re-checks its wait
//! condition, and parks with a timeout. The waking side unparks only if
//! the flag is set — a single relaxed load in the common (nobody-parked)
//! case. The unpark token makes the publish-flag / re-check / park dance
//! race-free: an unpark delivered between the re-check and the park makes
//! the park return immediately. Under the M:N scheduler
//! ([`crate::sched`]) a `ParkSlot` belongs to each pool *worker* (a rank
//! blocking on a channel edge parks its lightweight task, not a thread);
//! the channel-edge wake protocol itself lives in `sched.rs`, built from
//! the same publish/fence/re-check pattern.
//!
//! # Safety contract
//!
//! [`SpscRing::try_push`] must only ever be called from one thread at a
//! time, and [`SpscRing::try_pop`] from one thread at a time (they may be
//! different threads, and may change over the ring's lifetime as long as a
//! happens-before edge separates the handover). The threaded runner
//! upholds this by checking [`crate::chan::Topology::check_writer`] /
//! `check_reader` before every operation, and its scheduler hands a rank's
//! task to one worker at a time (a mutex-guarded slot per rank separates
//! successive owners): the declared endpoints are the only tasks that
//! touch a ring, and each runs on one worker at a time. Every `unsafe` site
//! of the workspace is in this module, and each states the part of this
//! contract it relies on.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;
use std::time::Duration;

use crate::sched::lock;

/// Pads and aligns a value to 128 bytes so producer- and consumer-owned
/// state never share a cache line (two lines: some CPUs prefetch pairs).
#[repr(align(128))]
struct CachePadded<T>(T);

/// Fixed-capacity ring. Counters grow monotonically; `count % cap` indexes.
struct Bounded<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    /// Total messages popped (consumer-advanced, `Release` on store).
    head: CachePadded<AtomicUsize>,
    /// Total messages pushed (producer-advanced, `Release` on store).
    tail: CachePadded<AtomicUsize>,
    /// Producer's stale copy of `head` (producer-only).
    head_cache: CachePadded<UnsafeCell<usize>>,
    /// Consumer's stale copy of `tail` (consumer-only).
    tail_cache: CachePadded<UnsafeCell<usize>>,
}

impl<T> Bounded<T> {
    fn new(cap: usize) -> Self {
        assert!(cap >= 1, "bounded SPSC ring needs capacity >= 1");
        Bounded {
            slots: (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect(),
            cap,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
            head_cache: CachePadded(UnsafeCell::new(0)),
            tail_cache: CachePadded(UnsafeCell::new(0)),
        }
    }

    /// Producer-only. On success returns the queue depth right after the
    /// push *as the producer sees it* (an upper bound on the instantaneous
    /// depth, never above `cap`) for high-water accounting.
    fn try_push(&self, v: T) -> Result<usize, T> {
        let tail = self.tail.0.load(Ordering::Relaxed);
        // SAFETY: single producer — only this thread touches head_cache.
        let head_cache = unsafe { &mut *self.head_cache.0.get() };
        if tail - *head_cache >= self.cap {
            *head_cache = self.head.0.load(Ordering::Acquire);
            if tail - *head_cache >= self.cap {
                return Err(v);
            }
        }
        // SAFETY: the slot at `tail` is vacant: the consumer has popped
        // everything below `head >= *head_cache > tail - cap`, and the
        // Acquire reload above orders its last read before this write.
        unsafe { (*self.slots[tail % self.cap].get()).write(v) };
        self.tail.0.store(tail + 1, Ordering::Release);
        Ok(tail + 1 - *head_cache)
    }

    /// Consumer-only.
    fn try_pop(&self) -> Option<T> {
        let head = self.head.0.load(Ordering::Relaxed);
        // SAFETY: single consumer — only this thread touches tail_cache.
        let tail_cache = unsafe { &mut *self.tail_cache.0.get() };
        if head == *tail_cache {
            *tail_cache = self.tail.0.load(Ordering::Acquire);
            if head == *tail_cache {
                return None;
            }
        }
        // SAFETY: head < tail, and the Acquire load of tail ordered the
        // producer's slot write before this read.
        let v = unsafe { (*self.slots[head % self.cap].get()).assume_init_read() };
        self.head.0.store(head + 1, Ordering::Release);
        Some(v)
    }
}

impl<T> Drop for Bounded<T> {
    fn drop(&mut self) {
        // &mut self: no concurrent access; drop whatever is still queued.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for pos in head..tail {
            // SAFETY: positions in [head, tail) hold initialized values.
            unsafe { (*self.slots[pos % self.cap].get()).assume_init_drop() };
        }
    }
}

// The bounded ring (large only by its cache-line padding) is the hot path,
// kept inline so that a transfer follows no extra pointer.
#[allow(clippy::large_enum_variant)]
enum Inner<T> {
    Bounded(Bounded<T>),
    Locked(Mutex<VecDeque<T>>),
}

/// A SPSC queue with (optionally bounded) slack — the threaded runner's
/// channel representation: a lock-free ring when bounded, a locked
/// `VecDeque` when not. See the module docs for the safety contract (one
/// pushing thread, one popping thread).
pub struct SpscRing<T> {
    inner: Inner<T>,
}

// SAFETY: values of T cross from the producer thread to the consumer
// thread, so T: Send is required and sufficient; the ring owns its queued
// values and hands each to exactly one thread.
unsafe impl<T: Send> Send for SpscRing<T> {}
// SAFETY: shared mutable state is atomic, behind the unbounded queue's
// mutex, or a bounded ring's `UnsafeCell`, which the SPSC contract confines
// to one side at a time (slots change hands by the Release/Acquire counters).
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// A ring with the given slack bound (`None` = infinite slack: pushes
    /// never fail).
    pub fn new(capacity: Option<usize>) -> Self {
        SpscRing {
            inner: match capacity {
                Some(cap) => Inner::Bounded(Bounded::new(cap)),
                None => Inner::Locked(Mutex::new(VecDeque::new())),
            },
        }
    }

    /// Producer-only. `Err(v)` returns the value when a bounded ring is
    /// full; `Ok(depth)` is the depth after the push: exact when unbounded,
    /// an upper bound within the capacity when bounded ([`Self::len`] is).
    pub fn try_push(&self, v: T) -> Result<usize, T> {
        match &self.inner {
            Inner::Bounded(b) => b.try_push(v),
            Inner::Locked(q) => {
                let mut q = lock(q);
                q.push_back(v);
                Ok(q.len())
            }
        }
    }

    /// Consumer-only.
    pub fn try_pop(&self) -> Option<T> {
        match &self.inner {
            Inner::Bounded(b) => b.try_pop(),
            Inner::Locked(q) => lock(q).pop_front(),
        }
    }

    /// The slack bound this ring was built with.
    pub fn capacity(&self) -> Option<usize> {
        match &self.inner {
            Inner::Bounded(b) => Some(b.cap),
            Inner::Locked(_) => None,
        }
    }

    /// Number of queued messages (racy snapshot; exact when either side is
    /// quiescent).
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Bounded(b) => {
                b.tail.0.load(Ordering::Acquire).saturating_sub(b.head.0.load(Ordering::Acquire))
            }
            Inner::Locked(q) => lock(q).len(),
        }
    }

    /// True when no message is queued (racy snapshot, like [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Fixed-capacity single-writer ring that **overwrites the oldest** entry
/// when full — the flight recorder's event lane. Where [`SpscRing`] rejects
/// a push on the full edge (back-pressure is load-bearing for channel
/// semantics), an event lane must never push back on the thread it is
/// observing: the newest events are the valuable ones, so the ring keeps a
/// sliding window of the last `capacity` pushes and counts what it dropped.
///
/// The SRSW discipline carries over with the roles collapsed: exactly one
/// thread pushes for the ring's whole active life, and the counter is a
/// monotonic total-push count published with `Release` so cross-thread
/// *occupancy* reads ([`OverwriteRing::pushes`]) are always sound. Reading
/// the slots themselves ([`OverwriteRing::snapshot`]) is only exact once
/// the writer has quiesced (a happens-before edge separates its last push
/// from the snapshot — e.g. `thread::join`); the scheduler drains lanes
/// only after joining the pool.
///
/// The slots grow on first write, up to the window: a lane costs what it
/// holds, so a short recorded run never touches a whole window.
pub struct OverwriteRing<T> {
    /// The retained entries, written only by the writer: appended until
    /// `cap` are held, then overwritten in place.
    slots: UnsafeCell<Vec<T>>,
    cap: usize,
    /// Total pushes ever (writer-advanced, `Release` on store).
    head: CachePadded<AtomicU64>,
}

// SAFETY: values of T cross from the writer thread to the draining thread,
// so T: Send is required and sufficient.
unsafe impl<T: Send> Send for OverwriteRing<T> {}
// SAFETY: the counter is atomic, the slot vector is written (and grown) by
// exactly one thread per the single-writer contract above, and it is read
// only after a happens-before edge from the writer's last push (`snapshot`).
unsafe impl<T: Send> Sync for OverwriteRing<T> {}

impl<T: Copy> OverwriteRing<T> {
    /// A ring holding the last `capacity` pushes (`capacity >= 1`). It
    /// allocates nothing until the first push.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "overwrite ring needs capacity >= 1");
        OverwriteRing {
            slots: UnsafeCell::new(Vec::new()),
            cap: capacity,
            head: CachePadded(AtomicU64::new(0)),
        }
    }

    /// Writer-only: record `v`, evicting the oldest entry when full. Never
    /// fails and never blocks — the observed thread pays one slot write (an
    /// append, until the window is full) and one `Release` store.
    pub fn push(&self, v: T) {
        let h = self.head.0.load(Ordering::Relaxed);
        // SAFETY: single writer — only this thread touches the slot
        // vector, and snapshot() readers are required to have a
        // happens-before edge after the writer's last push.
        let slots = unsafe { &mut *self.slots.get() };
        if slots.len() < self.cap {
            slots.push(v);
        } else {
            slots[(h % self.cap as u64) as usize] = v;
        }
        self.head.0.store(h + 1, Ordering::Release);
    }

    /// Total pushes ever (any thread).
    pub fn pushes(&self) -> u64 {
        self.head.0.load(Ordering::Acquire)
    }

    /// Entries currently retained: `min(pushes, capacity)`.
    pub fn occupancy(&self) -> usize {
        (self.pushes() as usize).min(self.cap)
    }

    /// The window size this ring was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Pushes that fell out of the window: `pushes - occupancy`.
    pub fn dropped(&self) -> u64 {
        self.pushes() - self.occupancy() as u64
    }

    /// The retained window, oldest first. Exact only once the writer has
    /// quiesced (see the type docs); the `Acquire` read of the counter
    /// orders the writer's slot writes before these reads.
    pub fn snapshot(&self) -> Vec<T> {
        let h = self.pushes();
        let cap = self.cap as u64;
        // SAFETY: the entries of pushes [h - occupancy, h) were fully
        // written (and the vector grown to hold them) before the Release
        // store of `h` that our Acquire load observed, and the
        // quiesced-writer contract rules out a concurrent push.
        let slots = unsafe { &*self.slots.get() };
        (h.saturating_sub(cap)..h).map(|pos| slots[(pos % cap) as usize]).collect()
    }
}

/// One side's parking state: a "somebody may need to wake me" flag plus the
/// registered thread handle. The flag keeps the peer's steady-state cost at
/// one relaxed load; the unpark token makes the publish/re-check/park
/// sequence immune to lost wakeups.
#[derive(Default)]
pub struct ParkSlot {
    parked: AtomicBool,
    thread: OnceLock<Thread>,
}

impl ParkSlot {
    /// A slot with no registered thread (wakes are no-ops until
    /// [`ParkSlot::register`]).
    pub fn new() -> Self {
        ParkSlot::default()
    }

    /// Bind this slot to the calling thread. Call once, from the side that
    /// will park on it.
    pub fn register(&self) {
        let _ = self.thread.set(std::thread::current());
    }

    /// Announce the intent to park. Must be followed by a re-check of the
    /// wait condition before [`ParkSlot::park`].
    pub fn prepare_park(&self) {
        self.parked.store(true, Ordering::SeqCst);
    }

    /// Withdraw the announcement (the re-check found work).
    pub fn cancel_park(&self) {
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Park the calling thread for at most `timeout` and clear the flag.
    /// May return early or spuriously; callers loop on their condition.
    pub fn park(&self, timeout: Duration) {
        std::thread::park_timeout(timeout);
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Wake the slot's thread if (and only if) it announced a park. Called
    /// by the peer after every transfer: a relaxed load when nobody waits.
    pub fn wake(&self) {
        if self.parked.load(Ordering::Relaxed) && self.parked.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.thread.get() {
                t.unpark();
            }
        }
    }

    /// Unconditionally wake the slot's thread (poison/abort path: blocked
    /// peers must observe the verdict even if the flag race is lost).
    pub fn force_wake(&self) {
        self.parked.store(false, Ordering::SeqCst);
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as Counter;
    use std::sync::Arc;

    #[test]
    fn bounded_ring_wraps_around_many_times() {
        // Capacity 3 (not a power of two: exercises the modulo indexing),
        // pushed/popped far past the counter's first few wraps.
        let ring = SpscRing::new(Some(3));
        assert_eq!(ring.capacity(), Some(3));
        let mut popped = Vec::new();
        let mut next = 0u64;
        for _ in 0..1000 {
            // Fill to capacity, then drain two, forcing constant wrapping.
            while let Ok(depth) = ring.try_push(next) {
                assert!(depth <= 3);
                next += 1;
            }
            assert_eq!(ring.len(), 3);
            popped.push(ring.try_pop().unwrap());
            popped.push(ring.try_pop().unwrap());
        }
        while let Some(v) = ring.try_pop() {
            popped.push(v);
        }
        assert!(ring.is_empty());
        let expect: Vec<u64> = (0..next).collect();
        assert_eq!(popped, expect, "FIFO order across wrap-arounds");
    }

    #[test]
    fn bounded_full_rejects_and_returns_the_value() {
        let ring = SpscRing::new(Some(1));
        assert!(ring.try_push(7u32).is_ok());
        assert_eq!(ring.try_push(8), Err(8));
        assert_eq!(ring.try_pop(), Some(7));
        assert!(ring.try_push(9).is_ok());
        assert_eq!(ring.try_pop(), Some(9));
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn unbounded_queue_is_fifo_and_never_full() {
        let ring = SpscRing::new(None);
        assert_eq!(ring.capacity(), None);
        let n = 1000;
        for i in 0..n {
            // Pushes never fail, and the depth reported is exact.
            assert_eq!(ring.try_push(i), Ok(i + 1));
        }
        assert_eq!(ring.len(), n);
        for i in 0..n / 2 {
            assert_eq!(ring.try_pop(), Some(i));
        }
        // Interleaved pushes and pops keep one FIFO order.
        for i in n..n + 100 {
            assert_eq!(ring.try_push(i), Ok(n / 2 + 1));
            assert_eq!(ring.try_pop(), Some(i - n / 2));
        }
        for i in n / 2 + 100..n + 100 {
            assert_eq!(ring.try_pop(), Some(i));
        }
        assert_eq!(ring.try_pop(), None);
        assert!(ring.is_empty());
    }

    /// Counts drops, to prove queued messages are freed with the ring.
    struct DropTick(Arc<Counter>);
    impl Drop for DropTick {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn dropping_a_ring_drops_queued_messages() {
        let drops = Arc::new(Counter::new(0));
        for cap in [Some(4), None] {
            drops.store(0, Ordering::SeqCst);
            let ring = SpscRing::new(cap);
            for _ in 0..3 {
                ring.try_push(DropTick(Arc::clone(&drops))).ok().unwrap();
            }
            drop(ring.try_pop()); // one consumed...
            assert_eq!(drops.load(Ordering::SeqCst), 1);
            drop(ring); // ...two freed with the ring
            assert_eq!(drops.load(Ordering::SeqCst), 3, "cap {cap:?}");
        }
        // A bounded ring whose counters have wrapped its slots many times,
        // with the live window straddling the end of the slot array: `Drop`
        // must free exactly the queued positions [head, tail), each once.
        drops.store(0, Ordering::SeqCst);
        let ring = SpscRing::new(Some(3));
        for _ in 0..10 {
            ring.try_push(DropTick(Arc::clone(&drops))).ok().unwrap();
            drop(ring.try_pop());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
        for _ in 0..3 {
            ring.try_push(DropTick(Arc::clone(&drops))).ok().unwrap();
        }
        assert!(ring.try_push(DropTick(Arc::clone(&drops))).is_err(), "full at capacity");
        assert_eq!(drops.load(Ordering::SeqCst), 11, "the rejected value is dropped by us");
        drop(ring);
        assert_eq!(drops.load(Ordering::SeqCst), 14);
    }

    #[test]
    fn two_thread_stream_preserves_fifo_and_values() {
        for cap in [Some(1), Some(4), None] {
            let ring = Arc::new(SpscRing::new(cap));
            let n = 20_000u64;
            let producer = {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..n {
                        let mut v = i;
                        loop {
                            match ring.try_push(v) {
                                Ok(_) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            };
            let mut sum = 0u64;
            let mut got = 0u64;
            while got < n {
                match ring.try_pop() {
                    Some(v) => {
                        assert_eq!(v, got, "FIFO under concurrency (cap {cap:?})");
                        sum = sum.wrapping_mul(31).wrapping_add(v);
                        got += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            producer.join().unwrap();
            let mut expect = 0u64;
            for v in 0..n {
                expect = expect.wrapping_mul(31).wrapping_add(v);
            }
            assert_eq!(sum, expect);
        }
    }

    #[test]
    fn overwrite_ring_keeps_the_newest_window() {
        let ring: OverwriteRing<u64> = OverwriteRing::new(4);
        assert_eq!(ring.capacity(), 4);
        assert_eq!(ring.occupancy(), 0);
        assert_eq!(ring.snapshot(), Vec::<u64>::new());
        ring.push(1);
        ring.push(2);
        assert_eq!(ring.occupancy(), 2);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.snapshot(), vec![1, 2]);
        for v in 3..=11 {
            ring.push(v);
        }
        // 11 pushes into a 4-slot window: the last four, oldest first.
        assert_eq!(ring.pushes(), 11);
        assert_eq!(ring.occupancy(), 4);
        assert_eq!(ring.dropped(), 7);
        assert_eq!(ring.snapshot(), vec![8, 9, 10, 11]);
    }

    #[test]
    fn overwrite_ring_occupancy_is_readable_across_threads() {
        let ring: Arc<OverwriteRing<u64>> = Arc::new(OverwriteRing::new(8));
        let writer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for v in 0..1000 {
                    ring.push(v);
                }
            })
        };
        // Concurrent occupancy reads are sound (atomic counter only); the
        // value is monotone and bounded by the capacity.
        let mut last = 0;
        while last < 8 {
            let occ = ring.occupancy();
            assert!(occ >= last && occ <= 8);
            last = last.max(occ);
            if ring.pushes() >= 1000 {
                break;
            }
        }
        writer.join().unwrap();
        // Writer quiesced (join = happens-before): snapshot is exact.
        assert_eq!(ring.snapshot(), (992..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn park_slot_wake_only_fires_after_prepare() {
        let slot = ParkSlot::new();
        slot.register();
        // wake() without a prepared park is a no-op (flag stays false)...
        slot.wake();
        slot.prepare_park();
        // ...and with one, consumes the flag.
        slot.wake();
        assert!(!slot.parked.load(Ordering::SeqCst));
        // A pending unpark token makes the next park return immediately
        // (no timeout wait): this is the lost-wakeup defense.
        let t0 = std::time::Instant::now();
        slot.prepare_park();
        slot.wake(); // token issued before the park
        slot.park(Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(4), "park consumed the pending token");
    }

    #[test]
    fn parked_consumer_is_woken_by_a_push() {
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::new(Some(2)));
        let reader = Arc::new(ParkSlot::new());
        let handle = {
            let (ring, reader) = (Arc::clone(&ring), Arc::clone(&reader));
            std::thread::spawn(move || {
                reader.register();
                loop {
                    reader.prepare_park();
                    if let Some(v) = ring.try_pop() {
                        reader.cancel_park();
                        return v;
                    }
                    reader.park(Duration::from_secs(10));
                }
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        ring.try_push(42).unwrap();
        reader.wake();
        assert_eq!(handle.join().unwrap(), 42);
    }
}
