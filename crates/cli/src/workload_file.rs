//! Workload-file parsing: statements separated by blank lines, with
//! comment lines (`#` or `--`) and optional `@freq <n>` annotations.

use xia_workloads::Workload;
use xia_xpath::ParseError;

/// Parses workload-file text into a [`Workload`].
///
/// ```text
/// # point lookup, runs 50x per minute
/// @freq 50
/// for $s in SECURITY('SDOC')/Security
/// where $s/Symbol = "IBM"
/// return $s
///
/// -- reporting query
/// collection('SDOC')/Security[Yield > 4.5]
/// ```
pub fn parse_workload(text: &str) -> Result<Workload, ParseError> {
    let mut workload = Workload::new();
    for (freq, stmt) in split_statements(text) {
        workload.push_with_freq(&stmt, freq)?;
    }
    Ok(workload)
}

/// Splits workload-file text into `(frequency, statement-text)` pairs.
pub fn split_statements(text: &str) -> Vec<(f64, String)> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut freq = 1.0f64;
    let mut pending_freq = 1.0f64;
    let flush = |out: &mut Vec<(f64, String)>, current: &mut String, freq: f64| {
        let stmt = current.trim().to_string();
        if !stmt.is_empty() {
            out.push((freq, stmt));
        }
        current.clear();
    };
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('#') || trimmed.starts_with("--") {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("@freq") {
            pending_freq = rest.trim().parse().unwrap_or(1.0);
            continue;
        }
        if trimmed.is_empty() {
            flush(&mut out, &mut current, freq);
            freq = pending_freq;
            pending_freq = 1.0;
            continue;
        }
        if current.is_empty() {
            freq = pending_freq;
            pending_freq = 1.0;
        }
        current.push_str(line);
        current.push('\n');
    }
    flush(&mut out, &mut current, freq);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_blank_lines() {
        let text = "collection('C')/a[b = 1]\n\ncollection('C')/a[c = 2]\n";
        let stmts = split_statements(text);
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].1, "collection('C')/a[b = 1]");
    }

    #[test]
    fn multi_line_statements_stay_together() {
        let text = "for $s in S('C')/a\nwhere $s/b = 1\nreturn $s\n\ncollection('C')/x[y = 2]";
        let stmts = split_statements(text);
        assert_eq!(stmts.len(), 2);
        assert!(stmts[0].1.contains("where"));
    }

    #[test]
    fn comments_are_skipped() {
        let text = "# comment\n-- another\ncollection('C')/a[b = 1]";
        let stmts = split_statements(text);
        assert_eq!(stmts.len(), 1);
    }

    #[test]
    fn freq_annotations_apply_to_next_statement() {
        let text = "@freq 50\ncollection('C')/a[b = 1]\n\ncollection('C')/a[c = 2]";
        let stmts = split_statements(text);
        assert_eq!(stmts[0].0, 50.0);
        assert_eq!(stmts[1].0, 1.0);
    }

    #[test]
    fn parses_into_workload() {
        let text = "@freq 3\ncollection('C')/a[b = 1]\n\ndelete from C where /a[b = 2]";
        let w = parse_workload(text).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.freq(0), 3.0);
        assert!(w.entry(1).statement.is_modification());
    }

    #[test]
    fn bad_statement_reports_error() {
        assert!(parse_workload("for $x in nonsense").is_err());
    }

    #[test]
    fn empty_input_is_empty_workload() {
        assert!(parse_workload("").unwrap().is_empty());
        assert!(parse_workload("# just comments\n\n").unwrap().is_empty());
    }
}
