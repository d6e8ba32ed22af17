//! Report rendering helpers: markdown tables, percentages, and the pieces
//! the experiments' pretty-printed JSON is built from.

/// Renders a GitHub-flavoured markdown table.
///
/// # Panics
///
/// Panics if any row has a different number of cells than the header.
///
/// # Example
///
/// ```
/// use freeset::report::markdown_table;
///
/// let table = markdown_table(
///     &["model", "pass@1"],
///     &[vec!["base".to_string(), "14.8".to_string()]],
/// );
/// assert!(table.contains("| model | pass@1 |"));
/// assert!(table.contains("| base | 14.8 |"));
/// ```
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(
            row.len(),
            headers.len(),
            "row width {} does not match header width {}",
            row.len(),
            headers.len()
        );
    }
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Formats a percentage with one decimal place.
pub fn pct(value: f64) -> String {
    format!("{value:.1}")
}

/// Formats an optional percentage, rendering `-` when absent.
pub fn opt_pct(value: Option<f64>) -> String {
    value.map(pct).unwrap_or_else(|| "-".to_string())
}

/// A JSON string literal: `s` quoted, with quotes, backslashes and control
/// characters escaped.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `x`: an integral value below 10^15 keeps a trailing
/// `.0` (`9.0`), any other finite value is printed in full, and a NaN or an
/// infinity, which JSON cannot hold, becomes `null`.
pub(crate) fn json_number(x: f64) -> String {
    if !x.is_finite() {
        "null".to_string()
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        x.to_string()
    }
}

/// A JSON array of already rendered values.
pub(crate) fn json_array(items: &[String]) -> String {
    indented_block('[', ']', items)
}

/// A JSON object of already rendered values, keyed in the given order. The
/// keys are plain identifiers, so they are not escaped.
pub(crate) fn json_object(fields: &[(&str, String)]) -> String {
    let entries: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    indented_block('{', '}', &entries)
}

/// `items` between `open` and `close`, one per line, with every line of an
/// item indented two spaces, so nested blocks indent by depth. An empty
/// block is `[]` or `{}`.
fn indented_block(open: char, close: char, items: &[String]) -> String {
    if items.is_empty() {
        return format!("{open}{close}");
    }
    let mut out = String::new();
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        for line in item.lines() {
            out.push_str("\n  ");
            out.push_str(line);
        }
    }
    out.push('\n');
    out.push(close);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_renders_rows() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 3 | 4 |"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "does not match header width")]
    fn mismatched_rows_panic() {
        let _ = markdown_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(12.345), "12.3");
        assert_eq!(opt_pct(None), "-");
        assert_eq!(opt_pct(Some(3.0)), "3.0");
    }

    #[test]
    fn json_strings_escape_quotes_backslashes_and_control_characters() {
        assert_eq!(
            json_string("q\"b\\n\nt\tu\u{1}r\rd\u{7f}é—"),
            "\"q\\\"b\\\\n\\nt\\tu\\u0001r\\rd\u{7f}é—\""
        );
        assert_eq!(json_string(""), "\"\"");
    }

    #[test]
    fn json_numbers_keep_a_point_on_integral_values() {
        let cases = [
            (9.0, "9.0"),
            (-0.0, "-0.0"),
            (123_456_789_012_345.0, "123456789012345.0"),
            (1e15, "1000000000000000"),
            (100.0 / 13.0, "7.6923076923076925"),
            (1e-7, "0.0000001"),
            (f64::NAN, "null"),
            (f64::NEG_INFINITY, "null"),
        ];
        for (x, expected) in cases {
            assert_eq!(json_number(x), expected, "{x:?}");
        }
    }
}
