//! The copyright-protected reference set.

use gh_sim::ExtractedFile;
use verilog::strip_comments;

/// One copyright-protected reference file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceFile {
    /// Identity (repository/path, or a synthetic label for ad-hoc sets).
    pub identity: String,
    /// The copyright holder, when known.
    pub holder: Option<String>,
    /// Original file contents (with the copyright notice).
    pub raw: String,
    /// Comment-stripped contents — the paper isolates "the Verilog modules
    /// themselves" for both prompting and similarity comparison, so that the
    /// copyright notice itself never drives a match.
    pub code: String,
}

impl ReferenceFile {
    /// Creates a reference file from raw contents.
    pub fn new(
        identity: impl Into<String>,
        holder: Option<String>,
        raw: impl Into<String>,
    ) -> Self {
        let raw = raw.into();
        let code = strip_comments(&raw).trim().to_string();
        Self {
            identity: identity.into(),
            holder,
            raw,
            code,
        }
    }

    /// Length of the code (comment-stripped) in words.
    pub fn code_word_count(&self) -> usize {
        self.code.split_whitespace().count()
    }
}

/// The set of copyright-protected files the benchmark prompts from and
/// compares against.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CopyrightedReference {
    files: Vec<ReferenceFile>,
}

impl CopyrightedReference {
    /// Builds a reference set from extracted files (already known to be
    /// protected, e.g. the rejects of the curation pipeline's copyright
    /// filter).
    pub fn from_extracted(files: &[ExtractedFile]) -> Self {
        let detector = curation::CopyrightDetector::new();
        let files = files
            .iter()
            .map(|f| {
                let holder = detector.scan(&f.content).and_then(|finding| finding.holder);
                ReferenceFile::new(f.identity(), holder, f.content.clone())
            })
            .collect();
        Self { files }
    }

    /// Builds a reference set from raw texts (mostly useful in tests and
    /// examples).
    pub fn from_texts<S: AsRef<str>>(texts: &[S]) -> Self {
        let files = texts
            .iter()
            .enumerate()
            .map(|(i, t)| ReferenceFile::new(format!("reference-{i}"), None, t.as_ref()))
            .collect();
        Self { files }
    }

    /// The reference files.
    pub fn files(&self) -> &[ReferenceFile] {
        &self.files
    }

    /// Number of reference files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_sim::License;

    const PROTECTED: &str = "// Copyright (C) 2019 xilinx inc. All rights reserved.\n\
                             // PROPRIETARY and CONFIDENTIAL\n\
                             module vendor_fifo(input clk, input [7:0] din, output [7:0] dout);\n\
                             assign dout = din;\nendmodule";

    #[test]
    fn reference_file_strips_comments_for_code_view() {
        let f = ReferenceFile::new("x", None, PROTECTED);
        assert!(!f.code.contains("Copyright"));
        assert!(f.code.contains("module vendor_fifo"));
        assert!(f.code_word_count() > 5);
        assert!(f.raw.contains("Copyright"));
    }

    #[test]
    fn from_extracted_keeps_identity_and_holder() {
        let files = vec![ExtractedFile {
            repo_id: 9,
            repo_full_name: "acme/open-core".into(),
            owner: "acme".into(),
            repo_license: License::Mit,
            created_year: 2021,
            path: "rtl/vendor_fifo.v".into(),
            content: PROTECTED.into(),
        }];
        let reference = CopyrightedReference::from_extracted(&files);
        assert_eq!(reference.len(), 1);
        let f = &reference.files()[0];
        assert_eq!(f.identity, "acme/open-core:rtl/vendor_fifo.v");
        assert_eq!(f.holder.as_deref(), Some("xilinx inc"));
    }

    #[test]
    fn from_texts_labels_files_sequentially() {
        let r = CopyrightedReference::from_texts(&["module a; endmodule", "module b; endmodule"]);
        assert_eq!(r.files()[1].identity, "reference-1");
        assert!(!r.is_empty());
    }
}
