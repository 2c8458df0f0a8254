//! Reader for `XIADB v2`, the format before the binary image:
//!
//! ```text
//! XIADB v2
//! COLLECTION <name>
//! DOC <byte-length> <fnv1a64-hex>
//! <xml text (exactly byte-length bytes)>
//! ...
//! INDEX <collection> <string|numerical> <pattern>
//! END <record-count> <fnv1a64-hex>
//! ```
//!
//! Every `DOC` record carries an FNV-1a-64 checksum of its payload, and
//! the `END` trailer the record count plus a running checksum of every
//! byte before it. Loading re-parses every document and runs RUNSTATS.
//! Nothing writes this format any more; it is read for one release so
//! that existing images open and are rewritten as v3 by their next save.

use super::{fnv1a64, fnv1a64_more, format_err, LoadReport, PersistError, FNV_OFFSET};
use crate::database::Database;
use std::io::{BufRead, Read};
use xia_fault::{FaultInjector, FaultSite};
use xia_xpath::{parse_linear_path, LinearPath, ValueKind};

pub(super) fn load(
    input: &mut impl BufRead,
    strict: bool,
    faults: &FaultInjector,
) -> Result<(Database, LoadReport), PersistError> {
    let mut line = String::new();
    // A binary file is a foreign format here, not an I/O failure.
    if input.read_line(&mut line).is_err() || line.trim_end() != "XIADB v2" {
        return Err(format_err("missing XIADB v2/v3 header"));
    }
    let mut report = LoadReport {
        version: 2,
        complete: true,
        ..LoadReport::default()
    };
    // Running checksum of every byte before the trailer.
    let mut fnv = fnv1a64_more(FNV_OFFSET, line.as_bytes());
    let mut lineno: u64 = 1;
    let mut records: u64 = 0;
    let mut db = Database::new();
    let mut current: Option<String> = None;
    let mut indexes: Vec<(u64, String, ValueKind, LinearPath)> = Vec::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            report.complete = false;
            report.problem(
                strict,
                format_err(format!(
                    "line {}: unexpected end of file (missing END)",
                    lineno + 1
                )),
            )?;
            break;
        }
        lineno += 1;
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed == "END" || trimmed.starts_with("END ") {
            let mut parts = trimmed.split_ascii_whitespace().skip(1);
            let want_records = parts.next().and_then(|s| s.parse::<u64>().ok());
            let want_fnv = parts.next().and_then(|s| u64::from_str_radix(s, 16).ok());
            match (want_records, want_fnv) {
                (Some(r), Some(h)) if r == records && h == fnv => report.trailer_ok = true,
                (Some(_), Some(_)) => report.problem(
                    strict,
                    PersistError::Corrupt {
                        at: format!("line {lineno}"),
                        detail: "END trailer record count or file checksum mismatch".into(),
                    },
                )?,
                _ => report.problem(
                    strict,
                    format_err(format!("line {lineno}: malformed END trailer")),
                )?,
            }
            break;
        }
        fnv = fnv1a64_more(fnv, line.as_bytes());
        if let Some(name) = trimmed.strip_prefix("COLLECTION ") {
            records += 1;
            let name = name.trim();
            if name.is_empty() {
                return Err(format_err(format!("line {lineno}: empty collection name")));
            }
            db.create_collection(name);
            current = Some(name.to_string());
        } else if let Some(rest) = trimmed.strip_prefix("DOC ") {
            records += 1;
            let doc_line = lineno;
            let mut parts = rest.split_ascii_whitespace();
            let len = parts.next().and_then(|s| s.parse::<usize>().ok());
            let want_sum = parts.next().and_then(|s| u64::from_str_radix(s, 16).ok());
            let (Some(len), Some(want_sum)) = (len, want_sum) else {
                // Unrecoverable: without the header the payload cannot be
                // skipped over.
                report.complete = false;
                report.problem(
                    strict,
                    format_err(format!("line {doc_line}: bad DOC header `{rest}`")),
                )?;
                break;
            };
            let mut buf = Vec::new();
            // `take` keeps a corrupt length from allocating past the file.
            if input.by_ref().take(len as u64).read_to_end(&mut buf)? != len {
                report.docs_skipped += 1;
                report.complete = false;
                report.problem(
                    strict,
                    format_err(format!("line {doc_line}: truncated document payload")),
                )?;
                break;
            }
            // Consume the trailing newline.
            let mut nl = [0u8; 1];
            let have_nl = input.read_exact(&mut nl).is_ok();
            fnv = fnv1a64_more(fnv, &buf);
            if have_nl {
                fnv = fnv1a64_more(fnv, &nl);
            }
            lineno += buf.iter().filter(|&&b| b == b'\n').count() as u64 + 1;
            let loaded = if let Err(e) = faults.roll(FaultSite::StorageIo) {
                if strict {
                    return Err(e.into());
                }
                Err(format_err(format!(
                    "line {doc_line}: document unreadable ({e}), skipped"
                )))
            } else if fnv1a64(&buf) != want_sum {
                Err(PersistError::Corrupt {
                    at: format!("line {doc_line}"),
                    detail: "document checksum mismatch".into(),
                })
            } else {
                let skipped = |why: String| format_err(format!("line {doc_line}: {why}, skipped"));
                match (String::from_utf8(buf), &current) {
                    (Err(_), _) => Err(skipped("document is not valid UTF-8".into())),
                    (_, None) => Err(skipped("DOC before any COLLECTION".into())),
                    (Ok(xml), Some(name)) => db
                        .collection_mut(name)
                        .expect("collection created above")
                        .insert_xml(&xml)
                        .map_err(|e| skipped(format!("bad document: {e}"))),
                }
            };
            match loaded {
                Ok(_) => report.docs_loaded += 1,
                Err(e) => {
                    report.docs_skipped += 1;
                    report.problem(strict, e)?;
                }
            }
        } else if let Some(rest) = trimmed.strip_prefix("INDEX ") {
            records += 1;
            match parse_index_record(rest) {
                Ok((coll, kind, pattern)) => indexes.push((lineno, coll, kind, pattern)),
                Err(msg) => {
                    report.indexes_skipped += 1;
                    report.problem(strict, format_err(format!("line {lineno}: {msg}, skipped")))?;
                }
            }
        } else if !trimmed.is_empty() {
            // Mis-framing: continuing would interpret payload bytes as
            // records. Stop and return what verified so far.
            report.complete = false;
            report.problem(
                strict,
                format_err(format!("line {lineno}: unrecognized line `{trimmed}`")),
            )?;
            break;
        }
    }
    // Rebuild physical indexes.
    for (at, coll, kind, pattern) in indexes {
        let Some((collection, catalog, _)) = db.parts_mut(&coll) else {
            report.indexes_skipped += 1;
            report.problem(
                strict,
                format_err(format!(
                    "line {at}: INDEX on unknown collection {coll}, skipped"
                )),
            )?;
            continue;
        };
        catalog.create_physical(collection, &pattern, kind);
        report.indexes_loaded += 1;
    }
    db.runstats_all();
    Ok((db, report))
}

fn parse_index_record(rest: &str) -> Result<(String, ValueKind, LinearPath), String> {
    let mut parts = rest.splitn(3, ' ');
    let coll = parts.next().ok_or("INDEX missing collection")?;
    let kind = match parts.next() {
        Some("string") => ValueKind::Str,
        Some("numerical") => ValueKind::Num,
        other => return Err(format!("bad index kind {other:?}")),
    };
    let pattern = parts.next().ok_or("INDEX missing pattern")?;
    let pattern = parse_linear_path(pattern).map_err(|e| format!("bad index pattern: {e}"))?;
    Ok((coll.to_string(), kind, pattern))
}
