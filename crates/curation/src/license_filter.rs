//! Repository-level license filtering (§III-C2).

use gh_sim::{ExtractedFile, License};

/// Filters extracted files by the license of their source repository.
///
/// # Example
///
/// ```
/// use curation::LicenseFilter;
/// use gh_sim::License;
///
/// let filter = LicenseFilter::paper_default();
/// assert!(filter.accepts_license(License::Mit));
/// assert!(!filter.accepts_license(License::None));
/// assert!(!filter.accepts_license(License::Proprietary));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LicenseFilter;

impl LicenseFilter {
    /// The paper's accepted license set: MIT, Apache-2.0, GPL/LGPL variants,
    /// MPL-2.0, Creative Commons, Eclipse and the BSD licenses.
    pub fn paper_default() -> Self {
        Self
    }

    /// The accepted license list, [`License::ACCEPTED`].
    pub fn accepted(&self) -> &[License] {
        &License::ACCEPTED
    }

    /// Whether a repository license is acceptable.
    pub fn accepts_license(&self, license: License) -> bool {
        license.is_accepted_open_source()
    }

    /// Whether an extracted file's repository license is acceptable.
    pub fn accepts(&self, file: &ExtractedFile) -> bool {
        self.accepts_license(file.repo_license)
    }

    /// Partitions files into `(accepted, rejected)`.
    pub fn partition(&self, files: Vec<ExtractedFile>) -> (Vec<ExtractedFile>, Vec<ExtractedFile>) {
        files.into_iter().partition(|f| self.accepts(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_with(license: License) -> ExtractedFile {
        ExtractedFile {
            repo_id: 0,
            repo_full_name: "o/r".into(),
            owner: "o".into(),
            repo_license: license,
            created_year: 2020,
            path: "a.v".into(),
            content: "module m; endmodule".into(),
        }
    }

    #[test]
    fn paper_default_accepts_all_ten_licenses() {
        let f = LicenseFilter::paper_default();
        assert_eq!(f.accepted().len(), 10);
        for l in License::ACCEPTED {
            assert!(f.accepts_license(l));
        }
    }

    #[test]
    fn unlicensed_and_proprietary_are_rejected() {
        let f = LicenseFilter::paper_default();
        assert!(!f.accepts(&file_with(License::None)));
        assert!(!f.accepts(&file_with(License::Proprietary)));
        assert!(f.accepts(&file_with(License::Gpl3)));
    }

    #[test]
    fn partition_splits_correctly() {
        let f = LicenseFilter::paper_default();
        let files = vec![
            file_with(License::Mit),
            file_with(License::None),
            file_with(License::Apache2),
        ];
        let (accepted, rejected) = f.partition(files);
        assert_eq!(accepted.len(), 2);
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].repo_license, License::None);
    }
}
