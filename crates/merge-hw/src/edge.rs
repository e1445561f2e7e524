//! One tree edge: a bounded ring shared by a child merger's output and its
//! parent's input.

/// Error returned when a record is pushed into a full input.
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

/// One edge of the merge tree: the child's output FIFO and the parent's
/// input FIFO of Figure 7 as one ring, with the coupler between them
/// (§II, Figure 1).
///
/// The ring holds plain `T` slots and three free-running cursors:
///
/// - `[head, mid)` is the parent's input — records coupled and not yet
///   consumed, at most `input_capacity` of them;
/// - `[mid, tail)` is the child's output — records produced and not yet
///   coupled, at most `output_capacity` of them.
///
/// The coupler is then a cursor move, `mid += min(output_len,
/// input_free)`, and a record is written once per tree level. Each side
/// back-pressures at its own configured capacity, exactly as two
/// separate FIFOs of those capacities would, however many spare slots
/// the ring has: the slot array is `input_capacity + output_capacity`
/// rounded up to a power of two, so a position's slot is `position &
/// (slots − 1)`. A vacated slot keeps its stale value (`T: Copy`,
/// nothing to drop), so there is no per-slot occupancy state.
///
/// An edge with no child side (`output_capacity == 0`) is a leaf port:
/// records enter the input directly. An edge with no parent side
/// (`input_capacity == 0`) is the root's output: records leave through
/// [`Edge::pop_output`]. A [`crate::MergeStep`] consumes an input and
/// produces into an output; [`crate::MergeStep::push_input_slice`] and
/// [`crate::MergeStep::couple`] fill an input.
///
/// # Example
///
/// ```
/// use bonsai_merge_hw::{Edge, MergeStep};
/// use bonsai_records::{Record, U32Rec};
///
/// // Two leaf ports feeding a 1-merger whose output is the root edge.
/// let mut left = Edge::new(2, 0, U32Rec::TERMINAL);
/// let mut right = Edge::new(2, 0, U32Rec::TERMINAL);
/// let mut out = Edge::new(0, 3, U32Rec::TERMINAL);
/// let mut m: MergeStep<U32Rec> = MergeStep::new(1);
/// assert_eq!(m.push_input_slice(&mut left, &[U32Rec::new(2), U32Rec::TERMINAL]), 2);
/// assert_eq!(m.push_input_slice(&mut right, &[U32Rec::new(1), U32Rec::TERMINAL, U32Rec::new(7)]), 2);
/// assert!(m.tick(&mut left, &mut right, &mut out));
/// assert_eq!(out.pop_output(), Some(U32Rec::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Edge<T> {
    /// Backing slots, `(input_capacity + output_capacity)
    /// .next_power_of_two()` of them.
    buf: Box<[T]>,
    /// Position of the oldest input record.
    head: usize,
    /// Position of the oldest uncoupled output record (one past the
    /// newest input record).
    mid: usize,
    /// One past the newest output record.
    tail: usize,
    /// The parent side's capacity.
    input_capacity: usize,
    /// The child side's capacity.
    output_capacity: usize,
}

impl<T: Copy> Edge<T> {
    /// Creates an edge whose parent side holds at most `input_capacity`
    /// records and whose child side holds at most `output_capacity`.
    /// Every slot starts as `fill`, a value the edge never hands out.
    ///
    /// # Panics
    ///
    /// Panics if both capacities are zero.
    pub fn new(input_capacity: usize, output_capacity: usize, fill: T) -> Self {
        let slots = input_capacity + output_capacity;
        assert!(slots > 0, "edge capacity must be positive");
        Self {
            buf: vec![fill; slots.next_power_of_two()].into_boxed_slice(),
            head: 0,
            mid: 0,
            tail: 0,
            input_capacity,
            output_capacity,
        }
    }

    /// Records waiting on the parent side.
    #[inline]
    pub(crate) fn input_len(&self) -> usize {
        self.mid - self.head
    }

    /// Additional records the parent side accepts right now.
    #[inline]
    pub fn input_free(&self) -> usize {
        self.input_capacity - self.input_len()
    }

    /// Records waiting on the child side, not yet coupled.
    #[inline]
    pub fn output_len(&self) -> usize {
        self.tail - self.mid
    }

    /// Additional records the child side accepts right now.
    #[inline]
    pub(crate) fn output_free(&self) -> usize {
        self.output_capacity - self.output_len()
    }

    /// Returns `true` when the child side is at capacity: its merger is
    /// back-pressured.
    #[inline]
    pub fn is_output_full(&self) -> bool {
        self.output_len() == self.output_capacity
    }

    /// Empties both sides in O(1), keeping the backing storage: the
    /// slots keep their stale values, which no accessor hands out.
    #[inline]
    pub fn clear(&mut self) {
        self.head = 0;
        self.mid = 0;
        self.tail = 0;
    }

    /// Slot index of position `pos`. Masking with `buf.len() - 1` (a
    /// power of two, never zero) is what lets the compiler drop the
    /// bounds check on the slot access.
    #[inline]
    fn slot(&self, pos: usize) -> usize {
        pos & (self.buf.len() - 1)
    }

    /// The input record `offset` positions behind the oldest (`input(0)`
    /// is the head), or `None` past the end of the parent side.
    #[inline]
    pub(crate) fn input(&self, offset: usize) -> Option<T> {
        (offset < self.input_len()).then(|| self.buf[self.slot(self.head + offset)])
    }

    /// Takes the oldest record off the child side of an edge with no
    /// parent side (the root's output), if any.
    #[inline]
    pub fn pop_output(&mut self) -> Option<T> {
        debug_assert_eq!(
            self.head, self.mid,
            "an edge with a parent side is drained by coupling"
        );
        if self.mid == self.tail {
            return None;
        }
        let item = self.buf[self.slot(self.mid)];
        self.mid += 1;
        self.head = self.mid;
        Some(item)
    }

    /// Whatever the head *slot* holds: the oldest input record when the
    /// parent side is non-empty, a stale or fill value otherwise. For
    /// callers that test `input_len()` themselves and want a load with no
    /// branch.
    #[inline]
    pub(crate) fn input_head_slot(&self) -> T {
        self.buf[self.slot(self.head)]
    }

    /// Drops the `n` oldest input records.
    #[inline]
    pub(crate) fn consume_input(&mut self, n: usize) {
        debug_assert!(n <= self.input_len(), "consuming past the end of the input");
        self.head += n;
    }

    /// Appends `item` to the child side; `false` (and nothing written)
    /// when that side is full.
    #[inline]
    pub(crate) fn push_output(&mut self, item: T) -> bool {
        if self.is_output_full() {
            return false;
        }
        let tail = self.slot(self.tail);
        self.buf[tail] = item;
        self.tail += 1;
        true
    }

    /// Appends as many records from `items` as fit to the parent side of
    /// an edge with no child side (a leaf port), in order, and returns
    /// how many were accepted.
    #[inline]
    pub(crate) fn push_input_slice(&mut self, items: &[T]) -> usize {
        debug_assert_eq!(self.mid, self.tail, "a leaf port has no child side");
        let n = items.len().min(self.input_free());
        for (i, &item) in items[..n].iter().enumerate() {
            let to = self.slot(self.tail + i);
            self.buf[to] = item;
        }
        self.tail += n;
        self.mid = self.tail;
        n
    }

    /// The coupler: hands as much of the child side as the parent side
    /// has room for over to the parent, in order, and returns how many
    /// records moved. Nothing is copied.
    #[inline]
    pub(crate) fn couple(&mut self) -> usize {
        let n = self.output_len().min(self.input_free());
        self.mid += n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn capacity_is_a_hard_invariant_on_each_side() {
        // 3 + 2 slots are backed by 8; the spare ones must never be used.
        let mut e = Edge::new(3, 2, 0u32);
        assert!(e.push_output(1) && e.push_output(2));
        assert!(!e.push_output(3), "child side full at 2");
        assert!(e.is_output_full());
        assert_eq!(e.couple(), 2);
        assert!(e.push_output(3) && e.push_output(4));
        assert_eq!(e.couple(), 1, "parent side full at 3");
        assert_eq!((e.input_len(), e.input_free(), e.output_len()), (3, 0, 1));
        assert_eq!(
            (e.input(0), e.input(2), e.input(3)),
            (Some(1), Some(3), None)
        );
        e.consume_input(2);
        assert_eq!(e.couple(), 1);
        assert_eq!(
            (e.input(0), e.input(1), e.input(2)),
            (Some(3), Some(4), None)
        );
        e.clear();
        assert_eq!((e.input(0), e.input_free(), e.output_len()), (None, 3, 0));
    }

    #[test]
    fn leaf_port_and_root_edge() {
        let mut leaf = Edge::new(4, 0, 0u32);
        assert_eq!(leaf.push_input_slice(&[1, 2, 3, 4, 5]), 4);
        assert_eq!(leaf.push_input_slice(&[6]), 0);
        leaf.consume_input(1);
        assert_eq!(leaf.push_input_slice(&[6, 7]), 1);
        assert_eq!(
            (leaf.input(0), leaf.input(3), leaf.input(4)),
            (Some(2), Some(6), None)
        );
        assert_eq!(leaf.output_len(), 0);

        let mut root = Edge::new(0, 3, 0u32);
        assert_eq!(root.pop_output(), None);
        assert!(root.push_output(8) && root.push_output(9));
        assert_eq!(
            (root.pop_output(), root.pop_output(), root.pop_output()),
            (Some(8), Some(9), None)
        );
        assert_eq!((root.input_len(), root.output_len()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Edge::new(0, 0, 0u8);
    }

    fn assert_same(e: &Edge<u32>, input: &VecDeque<u32>, output: &VecDeque<u32>, ctx: &str) {
        assert_eq!(e.input_len(), input.len(), "{ctx}: input_len");
        assert_eq!(
            e.input_free(),
            e.input_capacity - input.len(),
            "{ctx}: input_free"
        );
        assert_eq!(e.output_len(), output.len(), "{ctx}: output_len");
        assert_eq!(
            e.is_output_full(),
            output.len() == e.output_capacity,
            "{ctx}: full"
        );
        for i in 0..=input.len() {
            assert_eq!(e.input(i), input.get(i).copied(), "{ctx}: input({i})");
        }
    }

    /// Random scripts of every operation against two `VecDeque`s — the
    /// child's output FIFO and the parent's input FIFO the ring replaces,
    /// each never allowed past its capacity, joined by the per-record
    /// coupling loop: non-power-of-two capacities, many trips around the
    /// ring, and couplings into a nearly full parent side (which must
    /// move a prefix and keep the rest).
    #[test]
    fn matches_two_vecdeques_on_random_scripts() {
        let mut rng = bonsai_rng::Rng::seed_from_u64(0xED6E_0024);
        for input_cap in [1usize, 9, 16, 17] {
            for output_cap in [1usize, 3, 5, 17] {
                let mut e = Edge::new(input_cap, output_cap, 0u32);
                let (mut input, mut output) = (VecDeque::new(), VecDeque::new());
                let mut next = 1u32;
                for step in 0..2_000 {
                    let ctx = format!("{input_cap} + {output_cap}, step {step}");
                    match rng.below_usize(5) {
                        0 | 1 => {
                            let room = output.len() < output_cap;
                            assert_eq!(e.push_output(next), room, "{ctx}: push_output");
                            if room {
                                output.push_back(next);
                            }
                            next += 1;
                        }
                        2 => {
                            let mut want = 0;
                            while input.len() < input_cap {
                                let Some(x) = output.pop_front() else { break };
                                input.push_back(x);
                                want += 1;
                            }
                            assert_eq!(e.couple(), want, "{ctx}: couple");
                        }
                        3 => {
                            let n = rng.below_usize(input.len() + 1);
                            e.consume_input(n);
                            input.drain(..n);
                        }
                        _ => {
                            if rng.chance_percent(2) {
                                e.clear();
                                input.clear();
                                output.clear();
                            }
                        }
                    }
                    assert_same(&e, &input, &output, &ctx);
                }
            }
        }
    }
}
