//! The copyright scan on headers that mix ASCII with letters whose case
//! mapping changes their UTF-8 length.

use std::panic::catch_unwind;

use curation::CopyrightDetector;
use proptest::prelude::*;

/// Pieces of a file's first lines: Verilog, comment markers, quotes,
/// newlines, letters whose lower-case form is longer (`İ`), shorter (`ẞ`,
/// the Kelvin sign) or as long (`Σ`, `é`, `λ`) in UTF-8, and the words the
/// scan looks for.
const PIECES: [&str; 20] = [
    "module m; endmodule",
    " ",
    "\n",
    "//",
    "/*",
    "*/",
    "\"",
    "\u{130}",
    "\u{1E9E}",
    "\u{212A}",
    "\u{3A3}",
    "\u{E9}",
    "\u{3BB}",
    "copyright",
    "Copyright",
    "(c)",
    "proprietary",
    "PROPRIETARY",
    "2020",
    "Acme",
];

/// A file that opens with a line comment built from [`PIECES`].
fn file() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..PIECES.len(), 0..40).prop_map(|pieces| {
        pieces
            .into_iter()
            .fold("//".to_string(), |s, i| s + PIECES[i])
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn copyright_scan_never_panics_on_unicode_headers(text in file()) {
        let outcome = catch_unwind(|| CopyrightDetector::new().scan(&text));
        prop_assert!(outcome.is_ok(), "scan panicked on {:?}", text);
    }
}
