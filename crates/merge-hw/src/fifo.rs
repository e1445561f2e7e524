//! A bounded ring-buffer FIFO of plain `Copy` records.

/// Error returned by [`Fifo::push`] when the queue is at capacity.
///
/// Carries the rejected item back to the caller so nothing is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoFullError<T>(pub T);

impl<T> core::fmt::Display for FifoFullError<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "fifo is full")
    }
}

impl<T: core::fmt::Debug> std::error::Error for FifoFullError<T> {}

/// A bounded FIFO queue modeling the on-chip BRAM FIFOs of the datapath
/// (Figure 7 of the paper).
///
/// Each AMT leaf input buffer "is as wide as the DRAM bus (512 bits) and
/// can hold two full read batches" (§V-A); intra-tree FIFOs hold a couple
/// of `k`-record tuples. The capacity is configured per instance.
///
/// The queue is a fixed ring of plain `T` slots: the backing storage is
/// allocated once at construction, rounded up to a power of two so a
/// slot index is `position & mask`, and never grows. The *logical*
/// capacity stays the exact configured value — a push into a full FIFO
/// is rejected with [`FifoFullError`], exactly like the hardware FIFO
/// asserting back-pressure, however many spare slots the rounding left.
/// A vacated slot keeps its stale value (`T: Copy`, nothing to drop), so
/// there is no per-slot occupancy state to maintain. The bulk calls
/// ([`Fifo::push_slice`], [`Fifo::advance`], [`Fifo::transfer_to`]) move
/// several records per call for the simulator's per-cycle hot loop.
///
/// # Example
///
/// ```
/// use bonsai_merge_hw::Fifo;
///
/// let mut f = Fifo::new(2, 0);
/// f.push(1).unwrap();
/// f.push(2).unwrap();
/// assert!(f.push(3).is_err());
/// assert_eq!(f.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    /// Backing slots, `capacity.next_power_of_two()` of them.
    buf: Box<[T]>,
    /// Logical capacity (`<= buf.len()`).
    capacity: usize,
    /// Slot index of the oldest item.
    head: usize,
    /// Number of queued items.
    len: usize,
}

impl<T: Copy> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` items. Every slot
    /// starts as `fill`, a value the queue never hands out.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, fill: T) -> Self {
        assert!(capacity > 0, "fifo capacity must be positive");
        Self {
            buf: vec![fill; capacity.next_power_of_two()].into_boxed_slice(),
            capacity,
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of items the FIFO can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of additional items that fit right now.
    pub fn free(&self) -> usize {
        self.capacity - self.len
    }

    /// Returns `true` when the FIFO is at capacity.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Empties the queue in O(1), keeping the backing storage: the slots
    /// keep their stale values, which no accessor hands out.
    #[inline]
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Slot index `offset` positions past `head`. Masking with
    /// `buf.len() - 1` (a power of two, never zero) is what lets the
    /// compiler drop the bounds check on the slot access.
    #[inline]
    fn slot(&self, offset: usize) -> usize {
        (self.head + offset) & (self.buf.len() - 1)
    }

    /// Enqueues an item.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] (containing the item) when at capacity.
    #[inline]
    pub fn push(&mut self, item: T) -> Result<(), FifoFullError<T>> {
        if self.is_full() {
            return Err(FifoFullError(item));
        }
        let tail = self.slot(self.len);
        self.buf[tail] = item;
        self.len += 1;
        Ok(())
    }

    /// Dequeues the oldest item, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        let item = self.get(0)?;
        self.advance(1);
        Some(item)
    }

    /// The item `offset` positions behind the oldest (`get(0)` is the
    /// head), or `None` past the end of the queue.
    #[inline]
    pub fn get(&self, offset: usize) -> Option<T> {
        (offset < self.len).then(|| self.buf[self.slot(offset)])
    }

    /// Whatever the head *slot* holds: the oldest item when the queue is
    /// non-empty, a stale or fill value otherwise. For callers that have
    /// already established `!is_empty()` and want a load with no branch.
    #[inline]
    pub(crate) fn head_slot(&self) -> T {
        self.buf[self.slot(0)]
    }

    /// Drops the `n` oldest items.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` items are queued.
    #[inline]
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "advancing past the end of the fifo");
        self.head = self.slot(n);
        self.len -= n;
    }

    /// Enqueues as many items from `items` as fit, in order, and returns
    /// how many were accepted. Never fails: an over-long slice is simply
    /// truncated at capacity (the remainder stays with the caller).
    #[inline]
    pub fn push_slice(&mut self, items: &[T]) -> usize {
        let n = items.len().min(self.free());
        for (i, &item) in items[..n].iter().enumerate() {
            let tail = self.slot(self.len + i);
            self.buf[tail] = item;
        }
        self.len += n;
        n
    }

    /// Moves as many of the oldest items as fit into `other`, in order,
    /// and returns how many moved — the bulk form of
    /// `while let Some(x) = self.pop() { other.push(x) }` that stops at
    /// `other`'s capacity without losing the item that did not fit.
    #[inline]
    pub fn transfer_to(&mut self, other: &mut Fifo<T>) -> usize {
        let n = self.len.min(other.free());
        for i in 0..n {
            let to = other.slot(other.len + i);
            other.buf[to] = self.buf[self.slot(i)];
        }
        other.len += n;
        self.head = self.slot(n);
        self.len -= n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn push_pop_is_fifo_order() {
        let mut f = Fifo::new(4, 0);
        for i in 0..4 {
            f.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(f.pop(), Some(i));
        }
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn push_to_full_returns_item() {
        let mut f = Fifo::new(1, "");
        f.push("a").unwrap();
        assert_eq!(f.push("b"), Err(FifoFullError("b")));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn capacity_is_a_hard_invariant() {
        // Capacity 3 is backed by 4 slots; the spare slot must never
        // become usable.
        let mut f = Fifo::new(3, 0);
        assert_eq!(f.capacity(), 3);
        for i in 0..3 {
            f.push(i).unwrap();
        }
        for attempt in 10..20 {
            assert_eq!(f.push(attempt), Err(FifoFullError(attempt)));
            assert_eq!(f.len(), 3);
            assert_eq!(f.free(), 0);
        }
        assert_eq!(f.pop(), Some(0));
        f.push(99).unwrap();
        assert_eq!(f.len(), 3);
        assert!(f.push(100).is_err());
        assert_eq!(f.push_slice(&[101, 102]), 0);
    }

    #[test]
    fn get_does_not_consume_and_stops_at_len() {
        let mut f = Fifo::new(2, 0);
        assert_eq!(f.get(0), None);
        f.push(7).unwrap();
        assert_eq!(f.get(0), Some(7));
        assert_eq!(f.get(1), None, "a stale slot is not an item");
        assert_eq!(f.len(), 1);
        assert_eq!(f.pop(), Some(7));
        assert_eq!(f.get(0), None);
    }

    #[test]
    fn clear_empties_without_exposing_stale_slots() {
        let mut f = Fifo::new(3, 0);
        f.push(1).unwrap();
        f.push(2).unwrap();
        f.advance(1);
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.free(), 3);
        assert_eq!(f.get(0), None, "a stale slot is not an item");
        assert_eq!(f.push_slice(&[7, 8, 9, 10]), 3);
        assert_eq!(
            (f.pop(), f.pop(), f.pop(), f.pop()),
            (Some(7), Some(8), Some(9), None)
        );
    }

    #[test]
    fn push_slice_truncates_at_capacity() {
        let mut f = Fifo::new(4, 0);
        f.push(0).unwrap();
        assert_eq!(f.push_slice(&[1, 2, 3, 4, 5]), 3);
        assert_eq!(f.len(), 4);
        for i in 0..4 {
            assert_eq!(f.pop(), Some(i));
        }
    }

    #[test]
    #[should_panic(expected = "advancing past the end")]
    fn advance_past_len_panics() {
        let mut f = Fifo::new(4, 0);
        f.push(1).unwrap();
        f.advance(2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Fifo::new(0, 0u8);
    }

    fn assert_same(f: &Fifo<u32>, oracle: &VecDeque<u32>, ctx: &str) {
        assert_eq!(f.len(), oracle.len(), "{ctx}: len");
        assert_eq!(f.free(), f.capacity() - oracle.len(), "{ctx}: free");
        assert_eq!(f.is_empty(), oracle.is_empty(), "{ctx}: is_empty");
        assert_eq!(f.is_full(), oracle.len() == f.capacity(), "{ctx}: is_full");
        for i in 0..=oracle.len() {
            assert_eq!(f.get(i), oracle.get(i).copied(), "{ctx}: get({i})");
        }
    }

    /// Random scripts of every operation against a `VecDeque` that is
    /// simply never allowed past the configured capacity: non-power-of-
    /// two capacities, many trips around the ring, and transfers into a
    /// nearly full target (which must move a prefix and keep the rest).
    #[test]
    fn matches_a_vecdeque_oracle_on_random_scripts() {
        let mut rng = bonsai_rng::Rng::seed_from_u64(0xF1F0_0015);
        for cap in [1usize, 9, 16, 17, 33] {
            for target_cap in [1usize, 5, 16, 33] {
                let mut f = Fifo::new(cap, 0u32);
                let mut oracle: VecDeque<u32> = VecDeque::new();
                let mut target = Fifo::new(target_cap, 0u32);
                let mut target_oracle: VecDeque<u32> = VecDeque::new();
                let mut next = 1u32;
                for step in 0..2_000 {
                    let ctx = format!("cap {cap} -> {target_cap}, step {step}");
                    match rng.below_usize(7) {
                        0 | 1 => {
                            let res = f.push(next);
                            if oracle.len() < cap {
                                assert_eq!(res, Ok(()), "{ctx}: push");
                                oracle.push_back(next);
                            } else {
                                assert_eq!(res, Err(FifoFullError(next)), "{ctx}: push");
                            }
                            next += 1;
                        }
                        2 => assert_eq!(f.pop(), oracle.pop_front(), "{ctx}: pop"),
                        3 => {
                            let items: Vec<u32> = (0..rng.below_usize(cap + 3) as u32)
                                .map(|i| next + i)
                                .collect();
                            next += items.len() as u32;
                            let fit = items.len().min(cap - oracle.len());
                            assert_eq!(f.push_slice(&items), fit, "{ctx}: push_slice");
                            oracle.extend(&items[..fit]);
                        }
                        4 => {
                            let n = rng.below_usize(oracle.len() + 1);
                            f.advance(n);
                            oracle.drain(..n);
                        }
                        5 => {
                            let fit = oracle.len().min(target_cap - target_oracle.len());
                            assert_eq!(f.transfer_to(&mut target), fit, "{ctx}: transfer_to");
                            target_oracle.extend(oracle.drain(..fit));
                        }
                        _ => {
                            // Make room downstream so later transfers
                            // see every fill level of the target.
                            let n = rng.below_usize(target_oracle.len() + 1);
                            target.advance(n);
                            target_oracle.drain(..n);
                        }
                    }
                    assert_same(&f, &oracle, &ctx);
                    assert_same(&target, &target_oracle, &ctx);
                }
            }
        }
    }
}
