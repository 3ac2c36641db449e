//! Per-thread pin tracking (paper §3.4, §4.1.3).
//!
//! A translated handle must stay **pinned** while raw pointers to its backing
//! memory are live (in registers, spilled, or — here — held by Rust code).
//! Alaska avoids atomic per-object pin counts by tracking pins *privately per
//! thread*, here in one **slot stack** per thread ([`PinSlots`]):
//!
//! * a compiled (IR) function gets a statically sized **pin-set frame** on
//!   entry: a window of the stack above a header slot that remembers the
//!   caller's window.  The compiler's interference-graph allocator assigns
//!   each static translation a slot of the frame; the interpreter stores the
//!   translated handle's bits there and clears them at release;
//! * a native (Rust-embedded) [`crate::runtime::Runtime::pin`] pushes one
//!   slot and clears it on unpin, in any order.
//!
//! **Ownership rule.**  Only the owning thread writes a `PinSlots` (every
//! method but [`PinSlots::collect_pinned`] is owner-only), so it needs no lock
//! and no read-modify-write: plain loads of its own words, `Release` stores.
//! A barrier initiator reads the slots only after it has seen the owner's
//! `parked` or `in_external` flag with `Acquire` — flags the owner sets with
//! `Release` *after* its last slot write — so it reads the owner's final word.
//! (On a degraded final attempt a straggler's slots are read while it may
//! still run: the loads are atomic and the result as approximate as a
//! snapshot of a running thread always was.)  The walk is the analogue of
//! parsing LLVM StackMaps with libunwind.
//!
//! A stack that outgrows [`INLINE_PIN_SLOTS`] continues in a mutex-protected
//! vector: slower, still correct.

use crate::handle::{is_handle, Handle, HandleId};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Slots of a thread's pin stack that need no lock.
pub const INLINE_PIN_SLOTS: usize = 256;

/// Index of the slot a native pin lives in.
pub type PinSlot = u32;

/// All pins owned by one thread.  See the [module documentation](self) for
/// the ownership rule.
///
/// Slot contents are raw 64-bit values: `0` means empty, a handle's bits mean
/// that handle is pinned.  Frame headers have the top bit clear, so they read
/// as "not a handle".  Every slot at or above `top` is zero.
#[derive(Debug)]
pub struct PinSlots {
    inline: [AtomicU64; INLINE_PIN_SLOTS],
    /// Slots `INLINE_PIN_SLOTS..` of a stack that outgrew the inline ones.
    spill: Mutex<Vec<u64>>,
    top: AtomicUsize,
    /// The innermost frame as `first_slot << 32 | len` (its header is the
    /// slot below `first_slot` and holds the caller's frame word), or 0.
    frame: AtomicU64,
}

impl Default for PinSlots {
    fn default() -> Self {
        PinSlots {
            inline: [const { AtomicU64::new(0) }; INLINE_PIN_SLOTS],
            spill: Mutex::default(),
            top: AtomicUsize::new(0),
            frame: AtomicU64::new(0),
        }
    }
}

impl PinSlots {
    #[inline]
    fn load(&self, i: usize) -> u64 {
        match self.inline.get(i) {
            Some(slot) => slot.load(Ordering::Relaxed),
            None => self.spill.lock().get(i - INLINE_PIN_SLOTS).copied().unwrap_or(0),
        }
    }

    #[inline]
    fn store(&self, i: usize, value: u64) {
        match self.inline.get(i) {
            Some(slot) => slot.store(value, Ordering::Release),
            None => {
                let (mut spill, i) = (self.spill.lock(), i - INLINE_PIN_SLOTS);
                if spill.len() <= i {
                    spill.resize(i + 1, 0);
                }
                spill[i] = value;
            }
        }
    }

    /// The innermost frame as `(first_slot, len)`.
    fn window(&self) -> Option<(usize, usize)> {
        let frame = self.frame.load(Ordering::Relaxed);
        (frame != 0).then_some(((frame >> 32) as usize, frame as u32 as usize))
    }

    /// Drop `top` past trailing empty slots, down to the innermost frame.
    fn shrink(&self) {
        let floor = self.window().map_or(0, |(first, len)| first + len);
        let mut top = self.top.load(Ordering::Relaxed);
        while top > floor && self.load(top - 1) == 0 {
            top -= 1;
        }
        self.top.store(top, Ordering::Release);
    }

    /// Pin `bits` natively (embedding API); returns the slot to hand back to
    /// [`PinSlots::unpin`].
    #[inline]
    pub fn pin(&self, bits: u64) -> PinSlot {
        let top = self.top.load(Ordering::Relaxed);
        self.store(top, bits);
        self.top.store(top + 1, Ordering::Release);
        top as PinSlot
    }

    /// Release a native pin.  Pins are usually released LIFO, but any order
    /// is fine: a hole is reclaimed once everything above it is gone.
    #[inline]
    pub fn unpin(&self, slot: PinSlot) {
        self.store(slot as usize, 0);
        if slot as usize + 1 == self.top.load(Ordering::Relaxed) {
            self.shrink();
        }
    }

    /// Push a frame of `len` slots for a function invocation.
    pub fn push_frame(&self, len: usize) {
        let top = self.top.load(Ordering::Relaxed);
        self.store(top, self.frame.load(Ordering::Relaxed));
        self.frame.store(((top + 1) as u64) << 32 | len as u64, Ordering::Relaxed);
        self.top.store(top + 1 + len, Ordering::Release);
    }

    /// Pop the innermost frame (function return), releasing all of its pins.
    ///
    /// # Panics
    ///
    /// Panics if there is no frame (unbalanced push/pop — a compiler bug).
    pub fn pop_frame(&self) {
        let (first, len) = self.window().expect("pop_frame with no active frame");
        self.frame.store(self.load(first - 1), Ordering::Relaxed);
        (first - 1..first + len).for_each(|i| self.store(i, 0));
        self.shrink();
    }

    /// Store `value` into slot `slot` of the innermost frame; `false` if
    /// there is no frame.  Raw pointers (top bit clear) are recorded as
    /// empty — they do not constrain movement — so `set(slot, 0)` clears the
    /// slot when the translation's lifetime ends.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range (a compiler bug: the pin-set sizing
    /// pass must reserve enough slots).
    #[inline]
    pub fn set(&self, slot: usize, value: u64) -> bool {
        let Some((first, len)) = self.window() else { return false };
        assert!(slot < len, "pin slot {slot} out of range ({len} slots)");
        self.store(first + slot, if is_handle(value) { value } else { 0 });
        true
    }

    /// Add every handle ID this thread pins to `out`.  The one method a
    /// thread other than the owner may call.
    pub fn collect_pinned(&self, out: &mut HashSet<HandleId>) {
        let top = self.top.load(Ordering::Acquire).min(INLINE_PIN_SLOTS);
        let inline = self.inline[..top].iter().map(|slot| slot.load(Ordering::Acquire));
        let spill = self.spill.lock();
        let handles = inline.chain(spill.iter().copied()).filter_map(Handle::from_bits);
        out.extend(handles.map(|h| h.id()));
    }

    /// Convenience: the pinned set of just this thread.
    pub fn pinned(&self) -> HashSet<HandleId> {
        let mut s = HashSet::new();
        self.collect_pinned(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(id: u32) -> u64 {
        Handle::new(HandleId(id)).bits()
    }

    #[test]
    fn frame_set_and_clear() {
        let p = PinSlots::default();
        p.push_frame(3);
        assert!(p.set(0, h(5)));
        assert!(p.set(2, h(9)));
        assert_eq!(p.pinned().len(), 2);
        p.set(0, 0);
        assert_eq!(p.pinned(), HashSet::from([HandleId(9)]));
    }

    #[test]
    fn raw_pointers_are_not_pinned() {
        let p = PinSlots::default();
        p.push_frame(1);
        p.set(0, 0x1234);
        assert!(p.pinned().is_empty());
        assert!(!PinSlots::default().set(0, h(1)), "no frame, nothing recorded");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_panics() {
        let p = PinSlots::default();
        p.push_frame(1);
        p.set(1, h(0));
    }

    #[test]
    fn frames_stack_and_union() {
        let p = PinSlots::default();
        p.push_frame(2);
        p.set(0, h(1));
        p.push_frame(1);
        p.set(0, h(2));
        let native = p.pin(h(3));
        assert_eq!(p.pinned(), HashSet::from([HandleId(1), HandleId(2), HandleId(3)]));

        p.unpin(native);
        p.pop_frame();
        assert_eq!(p.pinned(), HashSet::from([HandleId(1)]), "returning releases the frame's pins");
        p.set(1, h(4));
        assert!(p.pinned().contains(&HandleId(4)), "the caller's frame is current again");
        p.pop_frame();
        assert_eq!(p.top.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn native_pins_release_out_of_order() {
        let p = PinSlots::default();
        let a = p.pin(h(1));
        let b = p.pin(h(2));
        let c = p.pin(h(1));
        p.unpin(a);
        assert!(p.pinned().contains(&HandleId(1)), "one pin of handle 1 remains");
        assert_eq!(p.pinned().len(), 2);
        p.unpin(c);
        assert_eq!(p.pinned(), HashSet::from([HandleId(2)]));
        p.unpin(b);
        assert!(p.pinned().is_empty());
        assert_eq!(p.top.load(Ordering::Relaxed), 0, "holes are reclaimed once the top pops");
    }

    #[test]
    #[should_panic(expected = "no active frame")]
    fn unbalanced_pop_panics() {
        PinSlots::default().pop_frame();
    }

    #[test]
    fn same_handle_in_multiple_frames_stays_pinned() {
        let p = PinSlots::default();
        p.push_frame(1);
        p.set(0, h(7));
        p.push_frame(1);
        p.set(0, h(7));
        p.pop_frame();
        assert!(p.pinned().contains(&HandleId(7)));
    }

    #[test]
    fn native_pin_outlives_the_frame_it_was_taken_in() {
        let p = PinSlots::default();
        p.push_frame(2);
        let native = p.pin(h(8));
        p.pop_frame();
        assert_eq!(p.pinned(), HashSet::from([HandleId(8)]));
        p.unpin(native);
        assert_eq!(p.top.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn overflow_spills_and_unwinds() {
        let p = PinSlots::default();
        let pins: Vec<_> = (0..INLINE_PIN_SLOTS as u32 + 10).map(|i| p.pin(h(i))).collect();
        // Frames pushed on a full stack live past the inline slots too.
        p.push_frame(2);
        p.set(1, h(9_000));
        p.push_frame(1);
        p.set(0, h(9_001));
        assert_eq!(p.pinned().len(), INLINE_PIN_SLOTS + 12);
        p.pop_frame();
        assert!(!p.pinned().contains(&HandleId(9_001)));
        assert!(p.pinned().contains(&HandleId(9_000)));
        p.pop_frame();
        // Out of order across the inline/spill boundary.
        for slot in pins.iter().step_by(2).chain(pins.iter().skip(1).step_by(2)) {
            p.unpin(*slot);
        }
        assert!(p.pinned().is_empty());
        assert_eq!(p.top.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_frame_may_straddle_the_inline_boundary() {
        let p = PinSlots::default();
        let pins: Vec<_> = (0..INLINE_PIN_SLOTS as u32 - 2).map(|i| p.pin(h(i))).collect();
        p.push_frame(4);
        (0..4).for_each(|slot| assert!(p.set(slot, h(1_000 + slot as u32))));
        assert_eq!(p.pinned().len(), INLINE_PIN_SLOTS + 2);
        p.set(3, 0);
        assert!(!p.pinned().contains(&HandleId(1_003)));
        p.pop_frame();
        assert_eq!(p.pinned().len(), INLINE_PIN_SLOTS - 2);
        pins.into_iter().rev().for_each(|slot| p.unpin(slot));
        assert_eq!(p.top.load(Ordering::Relaxed), 0);
    }
}
