//! Repository and file models.

use crate::license::License;

/// What a file in a repository contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// A Verilog source file (`.v`).
    Verilog,
    /// A README or other documentation file.
    Readme,
    /// A LICENSE file.
    LicenseFile,
    /// Binary or test data — the "miscellaneous" bulk the scraper discards.
    Binary,
    /// Build scripts, constraint files and other text that is not Verilog.
    Other,
}

/// One file inside a repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Path within the repository (e.g. `rtl/uart_tx.v`).
    pub path: String,
    /// File contents (binary data is represented as an opaque marker string).
    pub content: String,
    /// Classification of the file.
    pub kind: FileKind,
}

impl SourceFile {
    /// Creates a Verilog source file.
    pub fn verilog(path: impl Into<String>, content: impl Into<String>) -> Self {
        Self {
            path: path.into(),
            content: content.into(),
            kind: FileKind::Verilog,
        }
    }

    /// Whether the path has a Verilog extension (`.v` or `.vh`).
    pub fn has_verilog_extension(&self) -> bool {
        self.path.ends_with(".v") || self.path.ends_with(".vh")
    }

    /// Size of the file in characters.
    pub fn char_len(&self) -> usize {
        self.content.chars().count()
    }
}

/// A simulated GitHub repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repository {
    /// Stable numeric id (the universe assigns these densely from zero).
    pub id: u64,
    /// `owner/name` slug.
    pub full_name: String,
    /// Owner (user or organisation).
    pub owner: String,
    /// Year the repository was created (2008–2024, like the paper's query
    /// granularisation range).
    pub created_year: u32,
    /// Repository license as declared by its LICENSE file (`License::None`
    /// when the repository has no license).
    pub license: License,
    /// Star count (used only to make search results realistically ordered).
    pub stars: u32,
    /// All files in the repository.
    pub files: Vec<SourceFile>,
}

impl Repository {
    /// Iterates over the Verilog files of the repository.
    pub fn verilog_files(&self) -> impl Iterator<Item = &SourceFile> {
        self.files.iter().filter(|f| f.kind == FileKind::Verilog)
    }

    /// Number of Verilog files.
    pub fn verilog_file_count(&self) -> usize {
        self.verilog_files().count()
    }

    /// Total character count across Verilog files.
    pub fn verilog_char_count(&self) -> usize {
        self.verilog_files().map(SourceFile::char_len).sum()
    }

    /// Whether the repository declares one of the accepted open-source
    /// licenses.
    pub fn has_accepted_license(&self) -> bool {
        self.license.is_accepted_open_source()
    }
}

/// A Verilog file extracted from a repository, with provenance retained for
/// accreditation (the paper clones repositories "to gather all of their data
/// and author information for proper accreditation").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedFile {
    /// Id of the repository the file came from.
    pub repo_id: u64,
    /// `owner/name` slug of the repository.
    pub repo_full_name: String,
    /// Repository owner, for attribution.
    pub owner: String,
    /// Repository license at extraction time.
    pub repo_license: License,
    /// Year the source repository was created.
    pub created_year: u32,
    /// Path of the file inside the repository.
    pub path: String,
    /// File contents.
    pub content: String,
}

impl ExtractedFile {
    /// Size of the file in characters (the unit of Figure 2).
    pub fn char_len(&self) -> usize {
        self.content.chars().count()
    }

    /// A stable identifier combining repository and path.
    pub fn identity(&self) -> String {
        format!("{}:{}", self.repo_full_name, self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repo() -> Repository {
        Repository {
            id: 1,
            full_name: "acme/uart-core".into(),
            owner: "acme".into(),
            created_year: 2019,
            license: License::Mit,
            stars: 12,
            files: vec![
                SourceFile::verilog("rtl/uart.v", "module uart; endmodule"),
                SourceFile {
                    path: "README.md".into(),
                    content: "# UART".into(),
                    kind: FileKind::Readme,
                },
                SourceFile {
                    path: "sim/waves.bin".into(),
                    content: "<binary>".into(),
                    kind: FileKind::Binary,
                },
            ],
        }
    }

    #[test]
    fn verilog_files_are_filtered_by_kind() {
        let repo = sample_repo();
        assert_eq!(repo.verilog_file_count(), 1);
        assert!(repo.verilog_char_count() > 0);
        assert!(repo.has_accepted_license());
    }

    #[test]
    fn verilog_extension_detection() {
        assert!(SourceFile::verilog("a/b.v", "").has_verilog_extension());
        assert!(SourceFile::verilog("a/defs.vh", "").has_verilog_extension());
        let other = SourceFile {
            path: "a/b.sv".into(),
            content: String::new(),
            kind: FileKind::Other,
        };
        assert!(!other.has_verilog_extension());
    }

    #[test]
    fn extracted_file_identity_and_length() {
        let f = ExtractedFile {
            repo_id: 3,
            repo_full_name: "acme/core".into(),
            owner: "acme".into(),
            repo_license: License::Apache2,
            created_year: 2020,
            path: "rtl/top.v".into(),
            content: "module top; endmodule".into(),
        };
        assert_eq!(f.identity(), "acme/core:rtl/top.v");
        assert_eq!(f.char_len(), 21);
    }

    #[test]
    fn unlicensed_repo_is_not_accepted() {
        let mut repo = sample_repo();
        repo.license = License::None;
        assert!(!repo.has_accepted_license());
        repo.license = License::Proprietary;
        assert!(!repo.has_accepted_license());
    }
}
