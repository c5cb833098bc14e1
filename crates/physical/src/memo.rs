//! A two-word memo: filled at most once, read without a lock, cloned
//! by copying.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

const EMPTY: u8 = 0;
const CLAIMED: u8 = 1;
const FILLED: u8 = 2;

/// Two 64-bit words of a pure fact, computed at most once per memo.
///
/// `OnceLock` would do, but its clone re-runs its initialization
/// protocol (two atomic read-modify-writes), and a configuration with
/// two memos per index is cloned at every search step. This clone is
/// three loads and a copy. Threads racing to fill an empty memo each
/// compute the fact and get what they computed; the first to claim the
/// memo stores its words, which readers see only once all are written.
pub(crate) struct Memo {
    state: AtomicU8,
    words: [AtomicU64; 2],
}

impl Memo {
    pub(crate) fn new() -> Memo {
        Memo::holding(EMPTY, [0, 0])
    }

    fn holding(state: u8, [a, b]: [u64; 2]) -> Memo {
        Memo {
            state: AtomicU8::new(state),
            words: [AtomicU64::new(a), AtomicU64::new(b)],
        }
    }

    /// The words, once filled.
    pub(crate) fn get(&self) -> Option<[u64; 2]> {
        (self.state.load(Ordering::Acquire) == FILLED).then(|| {
            [
                self.words[0].load(Ordering::Relaxed),
                self.words[1].load(Ordering::Relaxed),
            ]
        })
    }

    /// The words, computing and storing them if the memo is empty.
    pub(crate) fn get_or_init(&self, compute: impl FnOnce() -> [u64; 2]) -> [u64; 2] {
        if let Some(words) = self.get() {
            return words;
        }
        let words = compute();
        let claim =
            self.state
                .compare_exchange(EMPTY, CLAIMED, Ordering::Acquire, Ordering::Relaxed);
        if claim.is_ok() {
            self.words[0].store(words[0], Ordering::Relaxed);
            self.words[1].store(words[1], Ordering::Relaxed);
            self.state.store(FILLED, Ordering::Release);
        }
        words
    }
}

impl Default for Memo {
    fn default() -> Memo {
        Memo::new()
    }
}

impl Clone for Memo {
    fn clone(&self) -> Memo {
        match self.get() {
            Some(words) => Memo::holding(FILLED, words),
            None => Memo::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_once_and_clones_what_it_holds() {
        let m = Memo::new();
        assert_eq!(m.get(), None);
        assert_eq!(Memo::clone(&m).get(), None);
        assert_eq!(m.get_or_init(|| [1, 2]), [1, 2]);
        assert_eq!(m.get_or_init(|| unreachable!("filled")), [1, 2]);
        let c = m.clone();
        assert_eq!(c.get(), Some([1, 2]));
    }

    #[test]
    fn racing_fillers_leave_one_whole_value() {
        let m = Memo::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    let got = m.get_or_init(|| [t, t * 10]);
                    assert_eq!(got[1], got[0] * 10, "torn: {got:?}");
                });
            }
        });
        let [a, b] = m.get().expect("one filler stored");
        assert_eq!(b, a * 10);
    }
}
