//! The engine's event queue: an indexed 4-ary min-heap with true removal.
//!
//! The run loop pops the earliest `(time, phase, ord, seq)` entry; cancellation
//! removes the entry from the heap immediately in O(log n) instead of
//! leaving a tombstone behind. This keeps cancel-heavy runs flat in memory —
//! a retransmission timer that is armed and disarmed per packet never
//! outlives its cancellation — and removes the per-pop tombstone lookup the
//! previous `BinaryHeap + HashSet` scheme paid on *every* event.
//!
//! The heap itself orders only 32-byte `(time, phase, ord, seq)` + slot
//! entries; event payloads are parked in a pooled slot slab and never move
//! during sifts, so a sift touches one cache line per level. Slab slots are
//! recycled through a free list, so steady-state scheduling allocates
//! nothing. The engine queues no packets: a packet propagating over a link
//! waits in that link's pipe (see `crate::engine`), and the queue holds one
//! entry per non-empty pipe. That keeps a queued payload to a few words, and
//! the heap's size independent of how many packets are in flight.
//!
//! The run loop peeks the root ([`EventQueue::peek_at_most`]) before taking
//! it. A pipe's entry is never popped while its pipe has packets left:
//! [`EventQueue::rekey_root`] gives it the next packet's key in place, one
//! sift-down where a pop and a push would take two.
//!
//! Ordering is by `(time, phase, ord, seq)`. The [`Phase`] is intra-instant
//! *semantics*, not a tie — it encodes two orderings every schedule must
//! agree on, both found by `marnet-lab racecheck` as genuine races in the
//! fairness portfolio member:
//!
//! 1. `Drain` before everything: link departures free transmit-queue
//!    capacity, so capacity freed at time `t` is visible to every arrival
//!    at `t`. Without it, a departure/arrival tie at a full drop-tail queue
//!    decides admit-vs-drop by schedule accident.
//! 2. `Carry` before `Spawn`: entries committed to instant `t` from an
//!    earlier instant (timers armed in the past, packets already in
//!    flight) run before entries *spawned within* instant `t` by handlers
//!    running at `t`. An instant's carries are its causal roots; its
//!    spawns are their downstream effects, and no schedule may run an
//!    effect ahead of the roots. Without it, a periodic timer colliding
//!    with a same-instant message (e.g. a 33 ms frame grid meeting a 5 ms
//!    pacing grid at their 165 ms common multiple) decides
//!    this-tick-vs-next-tick admission by schedule accident.
//!
//! Below the phase, `ord` is computed at insertion by the queue's
//! [`TieBreak`] policy from the entry's *scheduling source* (the component
//! whose handler pushed it — see `crate::config`): under the default FIFO
//! policy `ord == 0` for every entry, so the pop order degenerates to the
//! classic `(time, phase, seq)` order — and because every carry was pushed
//! before the instant's first spawn, the phase split is seq-consistent and
//! FIFO pop order is byte-identical to the pre-phase queue. Non-default
//! policies (`Lifo`, `Seeded`) permute only the order of equal-
//! `(time, phase)` entries from *different* sources; same-source ties keep
//! program order through the trailing raw `seq`, which also keeps the
//! order total.
//!
//! Every entry owns a slab slot; cancellable entries (timers, and pipe heads,
//! which the engine re-arms when a packet overtakes the head) additionally
//! hand out a [`CancelToken`] carrying `(slot, seq)`. The globally unique
//! `seq` guards against slot reuse, so cancelling an already-fired timer is
//! a cheap no-op; re-keying an entry re-issues its token.

use crate::config::TieBreak;
use crate::time::SimTime;

/// Branching factor. A 4-ary heap halves the depth of a binary heap, which
/// wins on dispatch-heavy workloads: pops do a few more comparisons per
/// level but far fewer cache-missing moves.
const D: usize = 4;

/// Sentinel for "no slot" (end of the free list).
const NO_SLOT: u32 = u32::MAX;

/// Sentinel sequence marking a slab slot as free.
const FREE: u64 = u64::MAX;

/// High bit of [`Entry::slot`]: set when the entry is cancellable. Only
/// cancellable entries need their heap position mirrored into the slab
/// (that is what [`EventQueue::cancel`] looks up), so sift moves of plain
/// entries touch nothing but the heap array itself.
const CANCEL_BIT: u32 = 1 << 31;

/// Proof-of-registration for a cancellable entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CancelToken {
    slot: u32,
    seq: u64,
}

/// Intra-instant ordering phase: which half of a timestamp an entry runs
/// in. Phases outrank the [`TieBreak`]-computed `ord`, so they are engine
/// semantics every policy agrees on — the race detector perturbs only the
/// order *within* a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Phase {
    /// Resource-freeing work: link departures, which dequeue the next
    /// packet and so free a transmit-queue slot. Runs first so capacity
    /// freed at `t` is visible to every arrival at `t`.
    Drain = 0,
    /// Work committed to this instant from an *earlier* instant: timers
    /// armed in the past, packets already in flight. These are the
    /// instant's causal roots and run before anything spawned at it.
    Carry = 1,
    /// Work spawned *within* this instant by a handler running at it:
    /// same-instant messages, zero-delay timers, start events. Runs last;
    /// policies still permute cross-source order inside the phase.
    Spawn = 2,
}

/// A heap element: the ordering key plus the slab slot of its payload.
/// `ord` is the policy-computed tie-break component (zero under FIFO),
/// fixed at insertion so sifts never re-derive it. The `phase` rides in
/// what was padding, so the entry stays 32 bytes.
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    ord: u64,
    seq: u64,
    slot: u32,
    phase: Phase,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, Phase, u64, u64) {
        (self.time, self.phase, self.ord, self.seq)
    }

    /// Slab index, with the cancellable tag stripped.
    #[inline]
    fn slab(&self) -> usize {
        (self.slot & !CANCEL_BIT) as usize
    }
}

struct Slot<T> {
    /// `Some` while the slot is occupied.
    item: Option<T>,
    /// Heap position while occupied (cancellable entries only); next
    /// free-list entry while free.
    pos: u32,
    /// Sequence of the stored entry; [`FREE`] while free.
    seq: u64,
}

/// An indexed 4-ary min-heap over `(time, phase, ord, seq)`.
pub(crate) struct EventQueue<T> {
    heap: Vec<Entry>,
    slots: Vec<Slot<T>>,
    free_head: u32,
    n_cancellable: usize,
    tie_break: TieBreak,
}

impl<T> EventQueue<T> {
    /// A default-policy (FIFO) queue; production callers go through
    /// [`EventQueue::with_tie_break`] via `Simulator::with_config`.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::with_tie_break(TieBreak::Fifo)
    }

    pub(crate) fn with_tie_break(tie_break: TieBreak) -> Self {
        EventQueue {
            // marnet-lint: allow(hot-path-alloc): construction-time; `Vec::new` does not allocate
            heap: Vec::new(),
            // marnet-lint: allow(hot-path-alloc): construction-time; `Vec::new` does not allocate
            slots: Vec::new(),
            free_head: NO_SLOT,
            n_cancellable: 0,
            tie_break,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pending cancellable entries (diagnostics; not a tombstone count).
    pub(crate) fn cancellable_len(&self) -> usize {
        self.n_cancellable
    }

    /// Inserts a non-cancellable entry scheduled by source `src`, in the
    /// given intra-instant [`Phase`].
    #[inline]
    pub(crate) fn push(&mut self, time: SimTime, seq: u64, src: u64, phase: Phase, item: T) {
        self.insert(time, seq, src, phase, item, false);
    }

    /// Inserts a cancellable entry and returns its token. Cancellable
    /// entries are timers and pipe heads; the caller supplies the phase
    /// ([`Phase::Carry`] for a future instant, [`Phase::Spawn`] for the
    /// current one).
    pub(crate) fn push_cancellable(
        &mut self,
        time: SimTime,
        seq: u64,
        src: u64,
        phase: Phase,
        item: T,
    ) -> CancelToken {
        let slot = self.insert(time, seq, src, phase, item, true);
        self.n_cancellable += 1;
        CancelToken { slot, seq }
    }

    fn insert(
        &mut self,
        time: SimTime,
        seq: u64,
        src: u64,
        phase: Phase,
        item: T,
        cancellable: bool,
    ) -> u32 {
        let pos = self.heap.len() as u32;
        let slot = match self.free_head {
            NO_SLOT => {
                self.slots.push(Slot { item: Some(item), pos, seq });
                (self.slots.len() - 1) as u32
            }
            head => {
                let s = &mut self.slots[head as usize];
                self.free_head = s.pos;
                *s = Slot { item: Some(item), pos, seq };
                head
            }
        };
        let tag = if cancellable { CANCEL_BIT } else { 0 };
        let ord = self.tie_break.ord_of(src);
        self.heap.push(Entry { time, ord, seq, slot: slot | tag, phase });
        self.sift_up(pos as usize);
        slot
    }

    /// The earliest entry, left in place, if its time is `<= end`. The run
    /// loop peeks first so a pipe-head entry can be re-keyed in place
    /// instead of popped and re-pushed.
    #[inline]
    pub(crate) fn peek_at_most(&self, end: SimTime) -> Option<(SimTime, &T)> {
        let first = self.heap.first()?;
        if first.time > end {
            return None;
        }
        // marnet-lint: allow(panic-path): a heap entry's slab index is live by the insert/remove invariant
        Some((first.time, self.slots[first.slab()].item.as_ref()?))
    }

    /// Removes the earliest entry.
    pub(crate) fn pop_root(&mut self) -> Option<(SimTime, u64, T)> {
        if self.heap.is_empty() {
            return None;
        }
        let (entry, item) = self.remove_at(0);
        Some((entry.time, entry.seq, item))
    }

    /// Gives the earliest entry a new `(time, phase, seq)` key in place and
    /// sifts it down: one O(log n) pass where a pop and a push would take
    /// two. The entry keeps its payload, slab slot and tie-break `ord`. A
    /// cancellable entry's old token goes stale; the returned token is its
    /// new one. `None` if the queue is empty.
    pub(crate) fn rekey_root(
        &mut self,
        time: SimTime,
        phase: Phase,
        seq: u64,
    ) -> Option<CancelToken> {
        let root = self.heap.first_mut()?;
        root.time = time;
        root.phase = phase;
        root.seq = seq;
        let slab = root.slab();
        // marnet-lint: allow(panic-path): a heap entry's slab index is live by the insert/remove invariant
        self.slots[slab].seq = seq;
        self.sift_down(0);
        Some(CancelToken { slot: slab as u32, seq })
    }

    /// Removes the entry behind `token` if it is still pending. Returns
    /// `true` if an entry was removed.
    pub(crate) fn cancel(&mut self, token: CancelToken) -> bool {
        let Some(slot) = self.slots.get(token.slot as usize) else {
            return false;
        };
        if slot.seq != token.seq {
            return false; // already fired, already cancelled, or slot reused
        }
        let pos = slot.pos as usize;
        // marnet-lint: allow(panic-path): debug-only check; `pos` is maintained by update_pos
        debug_assert_eq!(self.heap[pos].seq, token.seq);
        self.remove_at(pos);
        true
    }

    /// Removes and returns the entry at heap position `pos` and its item,
    /// restoring the heap property and recycling the slab slot.
    fn remove_at(&mut self, pos: usize) -> (Entry, T) {
        let entry = self.heap.swap_remove(pos);
        let slab = entry.slab();
        // marnet-lint: allow(panic-path): a heap entry's slab index is live by the insert/remove invariant
        let slot = &mut self.slots[slab];
        // marnet-lint: allow(panic-path): a slab slot is occupied while its entry is in the heap
        let item = slot.item.take().expect("occupied slot");
        if entry.slot & CANCEL_BIT != 0 {
            self.n_cancellable -= 1;
        }
        // Thread the slot onto the free list.
        *slot = Slot { item: None, pos: self.free_head, seq: FREE };
        self.free_head = slab as u32;
        if pos < self.heap.len() {
            // The swapped-in tail entry may belong above or below `pos`.
            self.update_pos(pos);
            if !self.sift_up(pos) {
                self.sift_down(pos);
            }
        }
        (entry, item)
    }

    /// Records `i` as the heap position of the entry currently stored
    /// there, if that entry is cancellable (no one looks up the position of
    /// a plain entry).
    #[inline]
    fn update_pos(&mut self, i: usize) {
        // marnet-lint: allow(panic-path): callers pass heap positions < len
        let slot = self.heap[i].slot;
        if slot & CANCEL_BIT != 0 {
            // marnet-lint: allow(panic-path): a heap entry's slab index is live by the insert/remove invariant
            self.slots[(slot & !CANCEL_BIT) as usize].pos = i as u32;
        }
    }

    /// Moves the entry at `i` up to its place; returns `true` if it moved.
    /// Hole-based: displaced entries shift one level, the moving entry is
    /// written once at its final position.
    fn sift_up(&mut self, mut i: usize) -> bool {
        // marnet-lint: allow(panic-path): callers pass heap positions < len
        let entry = self.heap[i];
        let key = entry.key();
        let start = i;
        while i > 0 {
            let parent = (i - 1) / D;
            // marnet-lint: allow(panic-path): parent of an in-bounds position is in bounds
            if key >= self.heap[parent].key() {
                break;
            }
            // marnet-lint: allow(panic-path): both positions proved in bounds above
            self.heap[i] = self.heap[parent];
            self.update_pos(i);
            i = parent;
        }
        if i == start {
            return false;
        }
        // marnet-lint: allow(panic-path): `i` only ever moved to in-bounds parents
        self.heap[i] = entry;
        self.update_pos(i);
        true
    }

    /// Moves the entry at `i` down to its place (hole-based, as
    /// [`EventQueue::sift_up`]).
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        // marnet-lint: allow(panic-path): callers pass heap positions < len
        let entry = self.heap[i];
        let key = entry.key();
        loop {
            let first_child = i * D + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let last_child = (first_child + D).min(len);
            for c in first_child + 1..last_child {
                // marnet-lint: allow(panic-path): `c` and `best` bounded by `last_child <= len`
                if self.heap[c].key() < self.heap[best].key() {
                    best = c;
                }
            }
            // marnet-lint: allow(panic-path): `best` bounded by `last_child <= len`
            if self.heap[best].key() >= key {
                break;
            }
            // marnet-lint: allow(panic-path): both positions proved in bounds above
            self.heap[i] = self.heap[best];
            self.update_pos(i);
            i = best;
        }
        // marnet-lint: allow(panic-path): `i` only ever moved to in-bounds children
        self.heap[i] = entry;
        self.update_pos(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 0, 0, Phase::Spawn, "a");
        q.push(t(10), 1, 1, Phase::Spawn, "b");
        q.push(t(10), 2, 2, Phase::Spawn, "c");
        q.push(t(20), 3, 3, Phase::Spawn, "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop_root().map(|(_, _, v)| v)).collect();
        assert_eq!(order, ["b", "c", "d", "a"]);
    }

    #[test]
    fn lifo_reverses_ties_only() {
        let mut q = EventQueue::with_tie_break(TieBreak::Lifo);
        q.push(t(30), 0, 0, Phase::Spawn, "a");
        q.push(t(10), 1, 1, Phase::Spawn, "b");
        q.push(t(10), 2, 2, Phase::Spawn, "c");
        q.push(t(20), 3, 3, Phase::Spawn, "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop_root().map(|(_, _, v)| v)).collect();
        // Time order is untouched; the t=10 tie runs last-inserted first.
        assert_eq!(order, ["c", "b", "d", "a"]);
    }

    #[test]
    fn drain_phase_outranks_every_tie_break_policy() {
        // The phase split is engine semantics, not a perturbable tie: a
        // later-inserted drain entry from a "later" source must still run
        // before every spawn entry at the same instant, under every policy.
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(0xbeef)] {
            let mut q = EventQueue::with_tie_break(policy);
            q.push(t(10), 0, 0, Phase::Spawn, "spawn-a");
            q.push(t(10), 1, 1, Phase::Spawn, "spawn-b");
            q.push(t(10), 2, 2, Phase::Spawn, "spawn-c");
            q.push(t(10), 3, 3, Phase::Drain, "drain");
            q.push(t(5), 4, 4, Phase::Spawn, "earlier");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop_root().map(|(_, _, v)| v)).collect();
            assert_eq!(order[0], "earlier", "time still dominates under {policy:?}");
            assert_eq!(order[1], "drain", "drain phase must lead its instant under {policy:?}");
        }
    }

    #[test]
    fn carry_phase_outranks_spawn_under_every_tie_break_policy() {
        // An instant's carries (timers armed in the past, packets in
        // flight) are its causal roots: even a policy that inverts or
        // shuffles cross-source order must run them before anything the
        // instant's own handlers spawned.
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(0xbeef)] {
            let mut q = EventQueue::with_tie_break(policy);
            q.push(t(10), 0, 7, Phase::Carry, "timer");
            q.push(t(10), 1, 1, Phase::Spawn, "msg-a");
            q.push(t(10), 2, 9, Phase::Spawn, "msg-b");
            let tok = q.push_cancellable(t(10), 3, 3, Phase::Carry, "arrival");
            q.push(t(10), 4, 4, Phase::Drain, "drain");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop_root().map(|(_, _, v)| v)).collect();
            assert_eq!(order[0], "drain", "drain leads under {policy:?}");
            let mut carries = order[1..3].to_vec();
            carries.sort_unstable();
            assert_eq!(
                carries,
                ["arrival", "timer"],
                "carries precede spawns under {policy:?} (cross-source order within \
                 the phase stays policy-chosen)"
            );
            assert!(!q.cancel(tok), "popped timer's token must be dead");
        }
    }

    #[test]
    fn seeded_permutes_ties_deterministically() {
        let run = |seed: u64| -> Vec<u64> {
            let mut q = EventQueue::with_tie_break(TieBreak::Seeded(seed));
            for seq in 0..32u64 {
                q.push(t(5), seq, seq, Phase::Spawn, seq);
            }
            q.push(t(1), 32, 32, Phase::Spawn, 1000);
            q.push(t(9), 33, 33, Phase::Spawn, 2000);
            std::iter::from_fn(|| q.pop_root().map(|(_, _, v)| v)).collect()
        };
        let a = run(0xfeed);
        let b = run(0xfeed);
        assert_eq!(a, b, "same seed, same shuffle");
        // Time order still dominates the shuffled ties.
        assert_eq!(a.first(), Some(&1000));
        assert_eq!(a.last(), Some(&2000));
        // The tie block is a permutation of the inserted values...
        let mut ties: Vec<u64> = a[1..33].to_vec();
        ties.sort_unstable();
        assert_eq!(ties, (0..32).collect::<Vec<_>>());
        // ...and a different seed yields a different permutation.
        assert_ne!(a, run(0xbeef));
        // FIFO would leave the block in insertion order; the shuffle must not.
        assert_ne!(a[1..33], *(0..32).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_immediately() {
        let mut q = EventQueue::new();
        q.push(t(1), 0, 0, Phase::Spawn, 0u32);
        let tok = q.push_cancellable(t(2), 1, 1, Phase::Carry, 1u32);
        q.push(t(3), 2, 2, Phase::Spawn, 2u32);
        assert_eq!(q.len(), 3);
        assert_eq!(q.cancellable_len(), 1);
        assert!(q.cancel(tok));
        assert_eq!(q.len(), 2);
        assert_eq!(q.cancellable_len(), 0);
        assert!(!q.cancel(tok), "double cancel is a no-op");
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_root().map(|(_, _, v)| v)).collect();
        assert_eq!(order, [0, 2]);
    }

    #[test]
    fn cancel_after_fire_is_noop_even_with_slot_reuse() {
        let mut q = EventQueue::new();
        let tok = q.push_cancellable(t(1), 0, 0, Phase::Carry, "x");
        assert_eq!(q.pop_root().map(|(_, _, v)| v), Some("x"));
        // The slot is free again; a new registration reuses it.
        let tok2 = q.push_cancellable(t(2), 1, 1, Phase::Carry, "y");
        assert!(!q.cancel(tok), "stale token must not cancel the new entry");
        assert!(q.cancel(tok2));
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled_not_leaked() {
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            let tok = q.push_cancellable(t(round + 1), round, round, Phase::Carry, round);
            assert!(q.cancel(tok));
        }
        assert!(q.is_empty());
        assert_eq!(q.cancellable_len(), 0);
        assert!(q.slots.len() <= 2, "cancelled slots must be reused, got {}", q.slots.len());
    }

    /// Reference model for the differential test: a plain binary heap of
    /// full keys with lazy deletion through a cancelled set.
    #[derive(Default)]
    struct Reference {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, Phase, u64, u64)>>,
        cancelled: std::collections::HashSet<u64>,
        /// Payload of each live entry, by its current seq.
        items: std::collections::HashMap<u64, u64>,
    }

    impl Reference {
        fn push(&mut self, key: (SimTime, Phase, u64, u64), item: u64) {
            self.heap.push(std::cmp::Reverse(key));
            self.items.insert(key.3, item);
        }

        fn peek(&mut self) -> Option<(SimTime, Phase, u64, u64)> {
            while let Some(std::cmp::Reverse(key)) = self.heap.peek().copied() {
                if !self.cancelled.remove(&key.3) {
                    return Some(key);
                }
                self.heap.pop();
            }
            None
        }

        fn pop(&mut self) -> Option<((SimTime, Phase, u64, u64), u64)> {
            let key = self.peek()?;
            self.heap.pop();
            Some((key, self.items.remove(&key.3)?))
        }

        fn cancel(&mut self, seq: u64) -> bool {
            self.items.remove(&seq).is_some() && self.cancelled.insert(seq)
        }

        fn len(&self) -> usize {
            self.items.len()
        }
    }

    fn phase_of(b: u8) -> Phase {
        match b % 3 {
            0 => Phase::Drain,
            1 => Phase::Carry,
            _ => Phase::Spawn,
        }
    }

    proptest::proptest! {
        /// Differential test: random push / push_cancellable / cancel /
        /// bounded pop / rekey_root scripts against the reference model,
        /// under every tie-break policy. Times and sources come from small
        /// ranges so equal `(time, phase)` ties are common.
        #[test]
        fn matches_reference_heap_under_every_policy(
            script in proptest::prelude::prop::collection::vec(
                (0u8..5, 0u64..40, 0u8..3, 0u64..5, 0usize..64),
                1..300,
            ),
        ) {
            for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(0x5eed)] {
                let mut q = EventQueue::with_tie_break(policy);
                let mut r = Reference::default();
                // Tokens handed out so far (live, stale or cancelled), with
                // the seq the reference knows them by.
                let mut tokens: Vec<(CancelToken, u64)> = Vec::new();
                let mut next_seq = 0u64;
                for &(op, time, phase, src, pick) in &script {
                    let (time, phase) = (t(time), phase_of(phase));
                    match op {
                        0 | 1 => {
                            let seq = next_seq;
                            next_seq += 1;
                            let key = (time, phase, policy.ord_of(src), seq);
                            if op == 0 {
                                q.push(time, seq, src, phase, seq);
                            } else {
                                tokens.push((q.push_cancellable(time, seq, src, phase, seq), seq));
                            }
                            r.push(key, seq);
                        }
                        2 if !tokens.is_empty() => {
                            let (tok, seq) = tokens[pick % tokens.len()];
                            assert_eq!(q.cancel(tok), r.cancel(seq), "cancel({seq}) under {policy:?}");
                        }
                        3 => {
                            // The run loop's bounded pop: peek against a
                            // horizon, then take the root.
                            let end = time;
                            let want = r.peek().filter(|k| k.0 <= end);
                            let got = q.peek_at_most(end).map(|(time, item)| (time, *item));
                            assert_eq!(got.map(|g| g.0), want.map(|k| k.0), "peek under {policy:?}");
                            if want.is_some() {
                                let (key, item) = r.pop().unwrap();
                                assert_eq!(q.pop_root(), Some((key.0, key.3, item)), "pop under {policy:?}");
                            }
                        }
                        _ => {
                            let seq = next_seq;
                            next_seq += 1;
                            let got = q.rekey_root(time, phase, seq);
                            match r.pop() {
                                None => assert!(got.is_none(), "rekey of an empty queue"),
                                Some((old, item)) => {
                                    r.push((time, phase, old.2, seq), item);
                                    let tok = got.expect("rekey of a non-empty queue");
                                    // The old token stays in play as a stale
                                    // one; a cancellable root's new token is
                                    // live under the new seq.
                                    if tokens.iter().any(|e| e.1 == old.3) {
                                        tokens.push((tok, seq));
                                    }
                                }
                            }
                        }
                    }
                    assert_eq!(q.len(), r.len(), "len under {policy:?}");
                }
                // Drain both: the survivors leave in the same order.
                while let Some((key, item)) = r.pop() {
                    assert_eq!(q.pop_root(), Some((key.0, key.3, item)), "drain under {policy:?}");
                }
                assert!(q.is_empty());
                assert_eq!(q.cancellable_len(), 0);
            }
        }
    }

    #[test]
    fn interleaved_cancel_preserves_order_of_survivors() {
        // Deterministic pseudo-random interleaving, checked against a naive
        // sorted-vector model.
        let mut q = EventQueue::new();
        let mut model: Vec<(SimTime, u64)> = Vec::new();
        let mut tokens = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for seq in 0..500u64 {
            let time = t(rnd() % 50);
            if seq % 3 == 0 {
                // Same phase as the plain entries: this test models plain
                // `(time, seq)` order, and phases would outrank it.
                tokens.push((q.push_cancellable(time, seq, seq, Phase::Spawn, seq), time, seq));
            } else {
                q.push(time, seq, seq, Phase::Spawn, seq);
                model.push((time, seq));
            }
        }
        for (i, (tok, time, seq)) in tokens.into_iter().enumerate() {
            if i % 2 == 0 {
                assert!(q.cancel(tok));
            } else {
                model.push((time, seq));
            }
        }
        model.sort();
        let popped: Vec<(SimTime, u64)> =
            std::iter::from_fn(|| q.pop_root().map(|(time, seq, _)| (time, seq))).collect();
        assert_eq!(popped, model);
    }
}
