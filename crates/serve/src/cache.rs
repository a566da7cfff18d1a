//! Epoch-keyed rendered-reply cache.
//!
//! `solution` and `fetch` replies are pure functions of the published view's
//! epoch, yet the reader workers used to re-render the full JSON body on
//! every request. [`ReplyCache`] stores one rendered reply line per verb,
//! trailing `\n` included, behind a shared `Arc<String>`: the first reader
//! at a given epoch renders and publishes the line (moved into the `Arc`,
//! not copied), every later reader at that epoch clones the `Arc` and
//! writes the exact same bytes in one `write`. The writer thread calls
//! [`ReplyCache::invalidate`] after every publication (each update
//! round), so a cached body can never outlive the epoch it renders.
//!
//! `stats` replies are *not* cached: they are tiny and they carry the
//! live hit/miss counters themselves (rendered under `"reply_cache"` on the
//! `stats` verb).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A rendered reply line, trailing `\n` included.
pub(crate) type Body = Arc<String>;

/// One cached body: the epoch it was rendered at plus the shared bytes.
type Slot = RwLock<Option<(u64, Body)>>;

/// Epoch-keyed cache of rendered reply bodies, shared between the reader
/// workers (lookup + fill) and the writer thread (invalidation).
#[derive(Debug, Default)]
pub(crate) struct ReplyCache {
    solution: Slot,
    fetch: Slot,
    /// The buffer of the last superseded `solution` line, once no reader
    /// holds it. The next render writes into it: on DS@1 that saves
    /// allocating, page-faulting and freeing a 1.7 MB buffer per epoch.
    spare: Mutex<String>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ReplyCache {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The `solution` line for `epoch`: cached bytes on a hit, otherwise
    /// `render` fills the spare buffer it is handed, and its output is
    /// published for later readers.
    pub(crate) fn solution_body(&self, epoch: u64, render: impl FnOnce(String) -> String) -> Body {
        if let Some(body) = Self::read_slot(&self.solution, epoch) {
            self.count(true);
            return body;
        }
        self.count(false);
        let spare = std::mem::take(&mut *self.spare.lock().unwrap_or_else(|p| p.into_inner()));
        let body = Arc::new(render(spare));
        Self::write_slot(&self.solution, Some((epoch, Arc::clone(&body))));
        body
    }

    /// Cached `fetch` body lookup (readers). Unlike `solution`, a miss is
    /// filled by the *writer* (after `export_state`), so a lookup alone
    /// counts the hit/miss.
    pub(crate) fn fetch_lookup(&self, epoch: u64) -> Option<Body> {
        let hit = Self::read_slot(&self.fetch, epoch);
        self.count(hit.is_some());
        hit
    }

    /// Publishes a freshly rendered `fetch` line (writer side).
    pub(crate) fn store_fetch(&self, epoch: u64, line: String) {
        Self::write_slot(&self.fetch, Some((epoch, Arc::new(line))));
    }

    /// Drops both cached bodies. Called by the writer after every state
    /// publication, so readers can never serve a body from a dead epoch
    /// (the epoch key already guards this; invalidation also frees the
    /// memory of superseded renders promptly). The `solution` line's
    /// buffer becomes the spare when no reader still holds it.
    pub(crate) fn invalidate(&self) {
        if let Some((_, body)) = Self::write_slot(&self.solution, None) {
            if let Ok(line) = Arc::try_unwrap(body) {
                *self.spare.lock().unwrap_or_else(|p| p.into_inner()) = line;
            }
        }
        Self::write_slot(&self.fetch, None);
    }

    /// Lifetime `(hits, misses)` counters across both verbs.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    fn read_slot(slot: &Slot, epoch: u64) -> Option<Body> {
        let guard = match slot.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        match &*guard {
            Some((e, body)) if *e == epoch => Some(Arc::clone(body)),
            _ => None,
        }
    }

    /// Stores `value` and returns what the slot held.
    fn write_slot(slot: &Slot, value: Option<(u64, Body)>) -> Option<(u64, Body)> {
        match slot.write() {
            Ok(mut g) => std::mem::replace(&mut *g, value),
            Err(poisoned) => std::mem::replace(&mut *poisoned.into_inner(), value),
        }
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_render_is_a_miss_then_hits_until_epoch_moves() {
        let cache = ReplyCache::new();
        let a = cache.solution_body(1, |_| "body-e1".to_string());
        assert_eq!(&*a, "body-e1");
        assert_eq!(cache.counters(), (0, 1));
        let b = cache.solution_body(1, |_| unreachable!("cached"));
        assert!(Arc::ptr_eq(&a, &b), "hit serves the shared Arc");
        assert_eq!(cache.counters(), (1, 1));
        // New epoch: the stale body is never served.
        let c = cache.solution_body(2, |_| "body-e2".to_string());
        assert_eq!(&*c, "body-e2");
        assert_eq!(cache.counters(), (1, 2));
    }

    #[test]
    fn invalidate_clears_both_slots() {
        let cache = ReplyCache::new();
        let _ = cache.solution_body(7, |_| "s".to_string());
        cache.store_fetch(7, "f".to_string());
        cache.invalidate();
        assert!(cache.fetch_lookup(7).is_none());
        let again = cache.solution_body(7, |_| "s2".to_string());
        assert_eq!(&*again, "s2");
    }

    #[test]
    fn an_invalidated_solution_line_is_the_next_renders_buffer() {
        let cache = ReplyCache::new();
        let first = cache.solution_body(1, |spare| {
            assert_eq!(spare.capacity(), 0, "nothing to reuse yet");
            String::with_capacity(64) + "body-e1"
        });
        let held = Arc::clone(&first);
        drop(first);
        // A reader still holds the epoch-1 line: it is freed, not reused.
        cache.invalidate();
        let second = cache.solution_body(2, |spare| {
            assert_eq!(spare.capacity(), 0, "a held line is never reused");
            String::with_capacity(64) + "body-e2"
        });
        assert_eq!(&*held, "body-e1");
        let ptr = second.as_ptr();
        drop(second);
        cache.invalidate();
        let third = cache.solution_body(3, |mut spare| {
            assert_eq!(spare.as_ptr(), ptr, "the epoch-2 buffer is reused");
            spare.clear();
            spare.push_str("body-e3");
            spare
        });
        assert_eq!(&*third, "body-e3");
    }

    #[test]
    fn fetch_lookup_counts_and_store_publishes() {
        let cache = ReplyCache::new();
        assert!(cache.fetch_lookup(3).is_none());
        assert_eq!(cache.counters(), (0, 1));
        cache.store_fetch(3, "fetched".to_string());
        assert_eq!(cache.fetch_lookup(3).as_deref().map(String::as_str), Some("fetched"));
        assert!(cache.fetch_lookup(4).is_none(), "epoch mismatch misses");
        assert_eq!(cache.counters(), (1, 2));
    }
}
