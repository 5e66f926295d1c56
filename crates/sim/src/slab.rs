//! An id-indexed slab for records keyed by ids that only ever increase.

use std::collections::VecDeque;

/// Records keyed by `u64` ids issued in increasing order and removed in
/// any order — the simulator's in-flight transmissions and pending
/// control frames. Live ids sit in the window `base..base + slots.len()`;
/// removing the oldest record slides the window forward, so a lookup is
/// an index and the steady state allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct IdSlab<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for IdSlab<T> {
    fn default() -> Self {
        IdSlab {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> IdSlab<T> {
    /// Insert `value` under `id`, which must exceed every id still held.
    pub(crate) fn insert(&mut self, id: u64, value: T) {
        if self.live == 0 {
            self.slots.clear();
            self.base = id;
        }
        let end = self.base + self.slots.len() as u64;
        assert!(id >= end, "id {id} reused or out of order");
        for _ in end..id {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(value));
        self.live += 1;
    }

    /// The record under `id`, if held.
    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        let k = id.checked_sub(self.base)?;
        self.slots.get(usize::try_from(k).ok()?)?.as_ref()
    }

    /// Remove and return the record under `id`, if held.
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let k = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let value = self.slots.get_mut(k)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// Number of records held.
    pub(crate) fn len(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_removal_and_window_slide() {
        let mut s = IdSlab::default();
        for id in 0..5u64 {
            s.insert(id, id * 10);
        }
        assert_eq!(s.remove(2), Some(20));
        assert_eq!(s.remove(2), None);
        assert_eq!(s.get(3), Some(&30));
        assert_eq!(s.remove(0), Some(0));
        assert_eq!(s.remove(1), Some(10));
        // 0..=2 gone: the window starts at 3 now.
        assert_eq!(s.base, 3);
        assert_eq!(s.len(), 2);
        s.insert(9, 90);
        assert_eq!(s.get(9), Some(&90));
        assert_eq!(s.get(7), None);
        assert_eq!(s.get(1), None);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_slab_rebases_without_padding() {
        let mut s = IdSlab::default();
        s.insert(1_000_000, 'a');
        assert_eq!(s.slots.len(), 1);
        assert_eq!(s.remove(1_000_000), Some('a'));
        assert_eq!(s.len(), 0);
    }

    #[test]
    #[should_panic]
    fn reused_id_is_rejected() {
        let mut s = IdSlab::default();
        s.insert(4, ());
        s.insert(4, ());
    }
}
