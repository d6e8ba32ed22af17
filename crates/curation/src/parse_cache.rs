//! Parse-once handoff between the syntax and lint stages.
//!
//! The FreeSet policy runs the syntax filter and the semantic lint stage
//! back to back, and both need the parsed AST of every file. Without
//! coordination each stage lexes and parses independently — double work on
//! the two hottest stages of the pipeline. A [`ParseCache`] shared between
//! the stage pair eliminates the second pass: the syntax stage parses each
//! file exactly once (via [`verilog::ParsedFile`]), deposits the survivors
//! here, and the lint stage withdraws them instead of re-parsing.
//!
//! Entries are keyed by a content hash and verified by exact source
//! comparison, so hash collisions and repeated contents are both handled.
//! [`ParseCache::take`] *removes* the entry it returns: memory is bounded
//! by one batch's survivors, not the whole corpus, and a streaming session
//! drains the cache once per flushed batch (about 256 KiB of content).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use verilog::ParsedFile;

/// A concurrent source-text → [`ParsedFile`] handoff buffer.
///
/// Shared (via `Arc`) between the stage that parses and the stage that
/// consumes. All methods take `&self`; internal locking keeps the cache
/// safe under the pipeline's parallel execution mode.
#[derive(Debug, Default)]
pub struct ParseCache {
    entries: Mutex<HashMap<u64, Vec<Arc<ParsedFile>>>>,
}

impl ParseCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(content: &str) -> u64 {
        let mut hasher = DefaultHasher::new();
        content.hash(&mut hasher);
        hasher.finish()
    }

    /// Deposits a parsed file, keyed by its own source text.
    pub fn insert(&self, parsed: Arc<ParsedFile>) {
        let key = Self::key(parsed.source());
        self.entries
            .lock()
            .expect("parse cache poisoned")
            .entry(key)
            .or_default()
            .push(parsed);
    }

    /// Withdraws the parsed form of `content`, if a stage deposited one.
    ///
    /// The entry is removed from the cache; a second `take` with the same
    /// content returns `None` unless another copy was inserted (duplicate
    /// file contents each get their own entry).
    pub fn take(&self, content: &str) -> Option<Arc<ParsedFile>> {
        let key = Self::key(content);
        let mut entries = self.entries.lock().expect("parse cache poisoned");
        let bucket = entries.get_mut(&key)?;
        let position = bucket.iter().position(|p| p.source() == content)?;
        let parsed = bucket.swap_remove(position);
        if bucket.is_empty() {
            entries.remove(&key);
        }
        Some(parsed)
    }

    /// Number of parsed files currently held.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("parse cache poisoned")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "module m(input a, output y); assign y = a; endmodule";

    #[test]
    fn insert_then_take_round_trips() {
        let cache = ParseCache::new();
        cache.insert(Arc::new(ParsedFile::parse(SRC).unwrap()));
        assert_eq!(cache.len(), 1);
        let parsed = cache.take(SRC).expect("hit");
        assert_eq!(parsed.source(), SRC);
        assert!(cache.is_empty());
        assert!(cache.take(SRC).is_none(), "take removes the entry");
    }

    #[test]
    fn miss_on_different_content() {
        let cache = ParseCache::new();
        cache.insert(Arc::new(ParsedFile::parse(SRC).unwrap()));
        assert!(cache.take("module other; endmodule").is_none());
        assert_eq!(cache.len(), 1, "miss leaves the entry in place");
    }

    #[test]
    fn duplicate_contents_each_get_an_entry() {
        let cache = ParseCache::new();
        cache.insert(Arc::new(ParsedFile::parse(SRC).unwrap()));
        cache.insert(Arc::new(ParsedFile::parse(SRC).unwrap()));
        assert_eq!(cache.len(), 2);
        assert!(cache.take(SRC).is_some());
        assert!(cache.take(SRC).is_some());
        assert!(cache.take(SRC).is_none());
    }
}
