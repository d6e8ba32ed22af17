//! Identifier interning for the zero-copy frontend.
//!
//! The lexer replaces owned `String` identifier payloads with [`Symbol`] —
//! a `Copy` index into a per-parse [`Interner`]. The parser resolves a
//! [`Symbol`] to a [`Name`] when building the AST: a cheap-to-clone,
//! reference-counted string that compares, hashes, orders and displays
//! exactly like the `String` it replaced, so every consumer
//! (lint model maps, diagnostics, the interpreter, tests) keeps working on
//! plain `&str` semantics while AST clones stop copying bytes.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// FNV-1a, the interner's map hasher: identifiers are short ASCII strings
/// hashed once per occurrence on the lexer's hot path, where FNV beats the
/// DoS-resistant default hasher by a wide margin. Not used anywhere keys
/// could be attacker-controlled in a way that matters — a pathological
/// corpus can only slow its own parse down.
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = hash;
    }
}

type FnvBuild = BuildHasherDefault<FnvHasher>;

/// A `Copy` handle to an interned identifier, valid for the [`Interner`]
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw index of the symbol in its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A per-parse identifier interner: each distinct spelling is stored once
/// and handed out as a [`Symbol`].
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<Name>,
    map: HashMap<Name, u32, FnvBuild>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `text`, returning the existing symbol for a repeated spelling.
    pub fn intern(&mut self, text: &str) -> Symbol {
        if let Some(&id) = self.map.get(text) {
            return Symbol(id);
        }
        let id = u32::try_from(self.names.len()).expect("more than u32::MAX distinct identifiers");
        let name = Name::from(text);
        self.names.push(name.clone());
        self.map.insert(name, id);
        Symbol(id)
    }

    /// The spelling of an interned symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from a different interner and is out of range.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// The spelling of an interned symbol as a cheap-clone [`Name`].
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from a different interner and is out of range.
    pub fn name(&self, sym: Symbol) -> Name {
        self.names[sym.index()].clone()
    }

    /// Number of distinct identifiers interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no identifier has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Looks up the symbol of an already-interned spelling without mutating
    /// the interner (used after lexing, when the symbol set is frozen).
    pub fn lookup(&self, text: &str) -> Option<Symbol> {
        self.map.get(text).map(|&id| Symbol(id))
    }
}

impl PartialEq for Interner {
    fn eq(&self, other: &Self) -> bool {
        // The map is derived from `names`, so comparing the name table (in
        // interning order) compares the whole interner.
        self.names == other.names
    }
}

impl Eq for Interner {}

/// An interned identifier: a reference-counted string that behaves like the
/// `String` it replaced (string equality, hashing, ordering, `Display` and
/// `Debug` are all delegated to the text), while `clone`
/// is a reference-count bump instead of a byte copy.
#[derive(Clone)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for Name {
    fn default() -> Self {
        Name(Arc::from(""))
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render like `String`'s `Debug` so `{:?}` output over the AST is
        // byte-identical to the pre-interning frontend.
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality short-circuits the common case of two clones of
        // the same interned name.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Must agree with `str`'s hash for `Borrow<str>` map lookups.
        self.0.hash(state)
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl From<&Name> for Name {
    fn from(n: &Name) -> Self {
        n.clone()
    }
}

impl From<Name> for String {
    fn from(n: Name) -> Self {
        n.as_str().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn interner_deduplicates_spellings() {
        let mut interner = Interner::new();
        let a1 = interner.intern("clk");
        let b = interner.intern("rst");
        let a2 = interner.intern("clk");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(a1), "clk");
        assert_eq!(interner.name(b), "rst");
    }

    #[test]
    fn name_behaves_like_the_string_it_replaced() {
        let n = Name::from("counter");
        assert_eq!(n, "counter");
        assert_eq!("counter", n);
        assert_eq!(n, String::from("counter"));
        assert_eq!(format!("{n}"), "counter");
        assert_eq!(format!("{n:?}"), format!("{:?}", "counter"));
        let (a, b) = (Name::from("a"), Name::from("b"));
        assert!(a < b);
    }

    #[test]
    fn name_hash_agrees_with_str_hash() {
        fn hash_of(v: impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }
        assert_eq!(hash_of(Name::from("net_1")), hash_of("net_1"));
        let mut map: HashMap<Name, u32> = HashMap::new();
        map.insert(Name::from("q"), 1);
        assert_eq!(map.get("q"), Some(&1));
    }
}
