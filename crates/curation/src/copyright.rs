//! Per-file copyright detection (§III-C2).
//!
//! The paper scans the header comments of every file for "combinations of
//! keywords such as 'proprietary', 'confidential' and 'all rights reserved'"
//! and removes matching files even when the containing repository claims an
//! open-source license. The same scan, run over the whole universe, is how
//! the *copyrighted reference set* for the infringement benchmark is built.

use serde::{Deserialize, Serialize};
use verilog::extract_header_comment;

/// The outcome of scanning one file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CopyrightFinding {
    /// Keywords (lower-cased) that matched in the header.
    pub matched_keywords: Vec<String>,
    /// The copyright holder, when a `Copyright ...` line could be parsed.
    pub holder: Option<String>,
}

/// Scans file headers for proprietary-copyright language.
///
/// # Example
///
/// ```
/// use curation::CopyrightDetector;
///
/// let detector = CopyrightDetector::new();
/// let protected = "// Copyright (C) 2020 Intel Corporation. All rights reserved.\n\
///                  // This design is PROPRIETARY and CONFIDENTIAL.\nmodule m; endmodule";
/// assert!(detector.is_protected(protected));
///
/// let open = "// Copyright (c) 2020 Jane Doe\n// SPDX-License-Identifier: MIT\nmodule m; endmodule";
/// assert!(!detector.is_protected(open));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CopyrightDetector;

/// Keywords that individually mark a file as proprietary.
const STRONG_KEYWORDS: [&str; 6] = [
    "proprietary",
    "confidential",
    "trade secret",
    "do not distribute",
    "unauthorized reproduction",
    "internal use only",
];

/// Keywords that mark a file as proprietary only in combination with a
/// copyright statement.
const WEAK_KEYWORDS: [&str; 1] = ["all rights reserved"];

impl CopyrightDetector {
    /// Creates a detector with the paper's keyword lists.
    pub fn new() -> Self {
        Self
    }

    /// Scans a file, returning a finding when it looks copyright-protected.
    ///
    /// Only the header comment block is inspected, matching the paper
    /// ("check the header comments of individual files").
    pub fn scan(&self, content: &str) -> Option<CopyrightFinding> {
        let raw_header = extract_header_comment(content);
        let header = raw_header.to_lowercase();
        if header.is_empty() {
            return None;
        }
        let has_copyright_line = header.contains("copyright") || header.contains("(c)");
        let mut matched: Vec<String> = STRONG_KEYWORDS
            .iter()
            .filter(|kw| header.contains(*kw))
            .map(|kw| kw.to_string())
            .collect();
        let strongly_matched = !matched.is_empty();
        if has_copyright_line {
            let weak = WEAK_KEYWORDS.iter().filter(|kw| header.contains(*kw));
            matched.extend(weak.map(|kw| kw.to_string()));
        }
        // An SPDX identifier for an open license is a strong signal the
        // "all rights reserved" boilerplate is part of a permissive notice
        // (BSD licenses contain that phrase), so require a strong keyword in
        // that case.
        let has_open_spdx = header.contains("spdx-license-identifier")
            && !header.contains("licenseref-proprietary");
        if matched.is_empty() || (has_open_spdx && !strongly_matched) {
            return None;
        }
        Some(CopyrightFinding {
            matched_keywords: matched,
            holder: extract_holder(&raw_header),
        })
    }

    /// Convenience predicate: is the file copyright-protected?
    pub fn is_protected(&self, content: &str) -> bool {
        self.scan(content).is_some()
    }
}

/// Pulls the copyright holder out of a `Copyright (c) YEAR Holder` line.
fn extract_holder(header: &str) -> Option<String> {
    for line in header.lines() {
        // ASCII lower-casing keeps every byte offset, so `pos` indexes `line`.
        let lower = line.to_ascii_lowercase();
        if let Some(pos) = lower.find("copyright") {
            // Drop the `(c)` marker and leading years/punctuation, keep the
            // text up to the first sentence break.
            let rest = line[pos + "copyright".len()..]
                .replace("(c)", " ")
                .replace("(C)", " ");
            let holder: String = rest.chars().skip_while(|c| !c.is_alphabetic()).collect();
            let holder = holder
                .split(['.', ',', ';'])
                .next()
                .unwrap_or("")
                .trim()
                .to_string();
            if !holder.is_empty() {
                return Some(holder);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROPRIETARY: &str = "// Copyright (C) 2019 Intel Corporation. All rights reserved.\n\
                               // This design is PROPRIETARY and CONFIDENTIAL to Intel Corporation.\n\
                               module secret_alu(input a, output y); assign y = a; endmodule";

    const MIT_FILE: &str = "// Copyright (c) 2021 fpga-hobbyist\n// SPDX-License-Identifier: MIT\n\
                            // Permission is hereby granted, free of charge...\n\
                            module open_alu(input a, output y); assign y = a; endmodule";

    const BSD_FILE: &str = "// Copyright (c) 2020, chipforge\n// SPDX-License-Identifier: BSD-3-Clause\n\
                            // Redistribution and use in source and binary forms, with or without modification, are permitted.\n\
                            module bsd_alu(input a, output y); assign y = a; endmodule";

    #[test]
    fn proprietary_headers_are_flagged() {
        let d = CopyrightDetector::new();
        let finding = d.scan(PROPRIETARY).expect("should be flagged");
        assert!(finding.matched_keywords.iter().any(|k| k == "proprietary"));
        assert!(finding.matched_keywords.iter().any(|k| k == "confidential"));
        assert_eq!(finding.holder.as_deref(), Some("Intel Corporation"));
    }

    #[test]
    fn permissive_headers_are_not_flagged() {
        let d = CopyrightDetector::new();
        assert!(!d.is_protected(MIT_FILE));
        assert!(
            !d.is_protected(BSD_FILE),
            "BSD boilerplate must not be flagged"
        );
    }

    #[test]
    fn all_rights_reserved_alone_without_spdx_is_flagged() {
        let d = CopyrightDetector::new();
        let src = "// Copyright 2018 MegaCorp. All rights reserved.\nmodule m; endmodule";
        assert!(d.is_protected(src));
    }

    #[test]
    fn keywords_in_code_body_are_ignored() {
        let d = CopyrightDetector::new();
        // The word "confidential" appears only in a non-header comment / code.
        let src = "module m(input a, output y);\n// stores the confidential flag\nassign y = a;\nendmodule";
        assert!(!d.is_protected(src));
    }

    #[test]
    fn files_without_headers_are_not_flagged() {
        let d = CopyrightDetector::new();
        assert!(!d.is_protected("module m(input a, output y); assign y = a; endmodule"));
        assert!(!d.is_protected(""));
    }

    #[test]
    fn case_mappings_that_change_byte_length_do_not_shift_the_holder() {
        let d = CopyrightDetector::new();
        // `İ` lower-cases to three bytes, one more than it takes.
        let finding = d
            .scan("// PROPRIETARY design \u{130}copyright\nmodule m; endmodule")
            .expect("should be flagged");
        assert_eq!(finding.matched_keywords, ["proprietary"]);
        assert_eq!(finding.holder, None);
        // The Kelvin sign lower-cases to one byte, two fewer than it takes.
        let finding = d
            .scan("// PROPRIETARY \u{212A} Copyright Acme Corp.\nmodule m; endmodule")
            .expect("should be flagged");
        assert_eq!(finding.holder.as_deref(), Some("Acme Corp"));
    }

    #[test]
    fn holder_extraction_handles_variants() {
        assert_eq!(
            extract_holder("Copyright (C) 2019 Xilinx Inc."),
            Some("Xilinx Inc".to_string())
        );
        assert_eq!(extract_holder("no legal text here"), None);
        assert_eq!(
            extract_holder("Copyright (c) 2020 \u{C9}mile Corp."),
            Some("\u{C9}mile Corp".to_string())
        );
    }
}
