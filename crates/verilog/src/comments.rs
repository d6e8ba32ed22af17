//! Comment-oriented source utilities.
//!
//! Two steps of the paper's methodology operate on comments rather than
//! code:
//!
//! * The per-file copyright filter inspects the *header comments* of each
//!   file for license text and proprietary-copyright keywords (§III-C2).
//! * The copyright benchmark strips *all* comments from reference files
//!   before turning their leading 20 % into prompts, so that copyright
//!   notices themselves are never part of the prompt (§III-A).

/// Removes every line (`//`) and block (`/* */`) comment from `src`.
///
/// String literals are respected: comment markers inside strings are left
/// untouched. Unterminated block comments are removed to the end of input
/// rather than reported — this function is used on files that may be
/// arbitrarily malformed.
///
/// # Example
///
/// ```
/// use verilog::strip_comments;
///
/// let src = "// (c) MegaCorp\nassign y = a; /* inline */ assign z = b;";
/// let stripped = strip_comments(src);
/// assert!(!stripped.contains("MegaCorp"));
/// assert!(stripped.contains("assign z = b;"));
/// ```
pub fn strip_comments(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    // Start of the current run of code and string literals. Runs are cut
    // only at ASCII comment markers, so each is a UTF-8 slice of `src`.
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                // Skip over the string literal: it is part of the run.
                i += 1;
                while i < bytes.len() {
                    let c = bytes[i];
                    i += 1;
                    if c == b'\\' && i < bytes.len() {
                        i += 1;
                    } else if c == b'"' {
                        break;
                    }
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                out.push_str(&src[run..i]);
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                run = i;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                out.push_str(&src[run..i]);
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
                run = i;
            }
            _ => i += 1,
        }
    }
    out.push_str(&src[run..]);
    out
}

/// Extracts the header comment block of a file: every comment that appears
/// before the first non-comment, non-whitespace token, concatenated with the
/// comment markers removed.
///
/// Returns an empty string for files that do not start with a comment.
///
/// # Example
///
/// ```
/// use verilog::extract_header_comment;
///
/// let src = "// Copyright (c) 2021 Intel Corporation\n// All rights reserved.\nmodule m; endmodule";
/// let header = extract_header_comment(src);
/// assert!(header.contains("All rights reserved"));
/// ```
pub fn extract_header_comment(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = String::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            c if c.is_ascii_whitespace() => i += 1,
            b'`' => {
                // Compiler directives before the header comment are common
                // (`timescale`); skip the line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                i += 2;
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..i]).unwrap_or(""));
                out.push('\n');
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                let start = i;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    i += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..i]).unwrap_or(""));
                out.push('\n');
                i = (i + 2).min(bytes.len());
            }
            _ => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let src = "// header\nmodule m; /* body comment */ endmodule // tail";
        let s = strip_comments(src);
        assert!(!s.contains("header"));
        assert!(!s.contains("body comment"));
        assert!(!s.contains("tail"));
        assert!(s.contains("module m;"));
    }

    #[test]
    fn preserves_comment_markers_inside_strings() {
        let src = "initial $display(\"// not a comment\");";
        let s = strip_comments(src);
        assert!(s.contains("// not a comment"));
    }

    #[test]
    fn unterminated_block_comment_is_dropped_to_eof() {
        let s = strip_comments("module m; /* oops");
        assert_eq!(s.trim(), "module m;");
    }

    #[test]
    fn header_extraction_collects_leading_comments_only() {
        let src = "// Copyright (c) Intel\n/* Confidential */\nmodule m;\n// not header\nendmodule";
        let h = extract_header_comment(src);
        assert!(h.contains("Copyright (c) Intel"));
        assert!(h.contains("Confidential"));
        assert!(!h.contains("not header"));
    }

    #[test]
    fn header_extraction_skips_timescale() {
        let src = "`timescale 1ns/1ps\n// (c) 2020 Xilinx Inc.\nmodule m; endmodule";
        assert!(extract_header_comment(src).contains("Xilinx"));
    }

    #[test]
    fn file_without_header_comment_yields_empty() {
        assert_eq!(extract_header_comment("module m; endmodule"), "");
    }

    #[test]
    fn non_ascii_text_outside_comments_is_copied_unchanged() {
        let src = "module m; // c\nassign s = \"café\"; wire λ; endmodule";
        assert_eq!(
            strip_comments(src),
            "module m; \nassign s = \"café\"; wire λ; endmodule"
        );
    }

    #[test]
    fn empty_input_strips_to_empty() {
        assert_eq!(strip_comments(""), "");
    }
}
