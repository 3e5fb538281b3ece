//! Flow-entry snapshot codec: a compact, stable text form for persisting
//! live tables.
//!
//! The daemon's crash-recovery snapshot (`sdt-sdtd`) must serialize every
//! installed [`FlowEntry`] and get the *same entry* back after a restart.
//! This module defines that codec at the layer that owns the types, so the
//! grammar and the structs cannot drift apart:
//!
//! ```text
//! <priority>|<match>|<action>
//! match  := "*"  |  field(,field)*          in stable field order
//! field  := in:<port> | md:<u32> | src:<addr> | dst:<addr>
//!         | ls:<u16> | ld:<u16>
//! action := out:<port> | drop | goto:<u32>
//! ```
//!
//! e.g. `10|in:3,md:7|out:4`. Encoding is injective and deterministic
//! (field order is fixed), so equal entries encode to equal strings —
//! which is what makes the daemon's "snapshot → restore → re-snapshot is
//! byte-identical" property hold.
//!
//! Sequence numbers are deliberately *not* encoded: they are positional
//! state. A restore re-applies the entries in their live first-match order
//! and the table re-derives fresh sequences
//! ([`crate::switch::OpenFlowSwitch::restore_tables`]).

use crate::table::{Action, FlowEntry, FlowMatch};
use crate::{HostAddr, PortNo};
use std::fmt;

/// Why a snapshot line failed to decode. Carries the offending text so a
/// corrupt snapshot names the exact bad record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapError {
    /// What was wrong.
    pub msg: String,
    /// The text that failed to parse.
    pub text: String,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad flow-entry snapshot `{}`: {}", self.text, self.msg)
    }
}

impl std::error::Error for SnapError {}

fn err(msg: impl Into<String>, text: &str) -> SnapError {
    SnapError { msg: msg.into(), text: text.to_string() }
}

/// Encode one entry as `<priority>|<match>|<action>`.
pub fn encode_entry(e: &FlowEntry) -> String {
    let mut fields: Vec<String> = Vec::new();
    if let Some(PortNo(p)) = e.m.in_port {
        fields.push(format!("in:{p}"));
    }
    if let Some(md) = e.m.metadata {
        fields.push(format!("md:{md}"));
    }
    if let Some(HostAddr(a)) = e.m.src {
        fields.push(format!("src:{a}"));
    }
    if let Some(HostAddr(a)) = e.m.dst {
        fields.push(format!("dst:{a}"));
    }
    if let Some(p) = e.m.l4_src {
        fields.push(format!("ls:{p}"));
    }
    if let Some(p) = e.m.l4_dst {
        fields.push(format!("ld:{p}"));
    }
    let m = if fields.is_empty() { "*".to_string() } else { fields.join(",") };
    let action = match e.action {
        Action::Output(PortNo(p)) => format!("out:{p}"),
        Action::Drop => "drop".to_string(),
        Action::WriteMetadataGoto(md) => format!("goto:{md}"),
    };
    format!("{}|{m}|{action}", e.priority)
}

fn parse_num<T: std::str::FromStr>(v: &str, what: &str, text: &str) -> Result<T, SnapError> {
    v.parse().map_err(|_| err(format!("{what}: not a number: `{v}`"), text))
}

/// Decode an entry previously produced by [`encode_entry`]. Only the text
/// `encode_entry` writes is accepted: a line that parses but is not in
/// canonical form (repeated or reordered fields, a sign or leading zero on
/// a number) is refused, so two different files never restore to the
/// same state.
pub fn decode_entry(text: &str) -> Result<FlowEntry, SnapError> {
    let mut parts = text.splitn(3, '|');
    let (prio, m, action) = match (parts.next(), parts.next(), parts.next()) {
        (Some(p), Some(m), Some(a)) => (p, m, a),
        _ => return Err(err("expected `priority|match|action`", text)),
    };
    let priority: u16 = parse_num(prio, "priority", text)?;

    let mut m_out = FlowMatch::default();
    if m != "*" {
        for field in m.split(',') {
            let (key, v) = field
                .split_once(':')
                .ok_or_else(|| err(format!("match field `{field}` lacks `:`"), text))?;
            match key {
                "in" => m_out.in_port = Some(PortNo(parse_num(v, "in", text)?)),
                "md" => m_out.metadata = Some(parse_num(v, "md", text)?),
                "src" => m_out.src = Some(HostAddr(parse_num(v, "src", text)?)),
                "dst" => m_out.dst = Some(HostAddr(parse_num(v, "dst", text)?)),
                "ls" => m_out.l4_src = Some(parse_num(v, "ls", text)?),
                "ld" => m_out.l4_dst = Some(parse_num(v, "ld", text)?),
                other => return Err(err(format!("unknown match field `{other}`"), text)),
            }
        }
    }

    let action = if action == "drop" {
        Action::Drop
    } else if let Some(v) = action.strip_prefix("out:") {
        Action::Output(PortNo(parse_num(v, "out", text)?))
    } else if let Some(v) = action.strip_prefix("goto:") {
        Action::WriteMetadataGoto(parse_num(v, "goto", text)?)
    } else {
        return Err(err(format!("unknown action `{action}`"), text));
    };

    let entry = FlowEntry { m: m_out, priority, action };
    let canonical = encode_entry(&entry);
    if canonical != text {
        return Err(err(format!("not in canonical form (`{canonical}`)"), text));
    }
    Ok(entry)
}

/// Encode a whole table dump (entries in live first-match order).
pub fn encode_entries(entries: &[FlowEntry]) -> Vec<String> {
    entries.iter().map(encode_entry).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_entries() -> Vec<FlowEntry> {
        vec![
            FlowEntry {
                m: FlowMatch::default(),
                priority: 0,
                action: Action::Drop,
            },
            FlowEntry {
                m: FlowMatch { in_port: Some(PortNo(3)), ..Default::default() },
                priority: 10,
                action: Action::WriteMetadataGoto(7),
            },
            FlowEntry {
                m: FlowMatch {
                    metadata: Some(9),
                    dst: Some(HostAddr(1000)),
                    ..Default::default()
                },
                priority: 42,
                action: Action::Output(PortNo(63)),
            },
            FlowEntry {
                m: FlowMatch {
                    in_port: Some(PortNo(1)),
                    metadata: Some(2),
                    src: Some(HostAddr(3)),
                    dst: Some(HostAddr(4)),
                    l4_src: Some(5),
                    l4_dst: Some(6),
                },
                priority: u16::MAX,
                action: Action::Output(PortNo(0)),
            },
        ]
    }

    #[test]
    fn round_trips_every_field_combination() {
        for e in sample_entries() {
            let s = encode_entry(&e);
            assert_eq!(decode_entry(&s).unwrap(), e, "via `{s}`");
            // Deterministic: re-encode is byte-identical.
            assert_eq!(encode_entry(&decode_entry(&s).unwrap()), s);
        }
    }

    #[test]
    fn wildcard_match_is_star() {
        let e = FlowEntry { m: FlowMatch::default(), priority: 1, action: Action::Drop };
        assert_eq!(encode_entry(&e), "1|*|drop");
    }

    #[test]
    fn table_dump_preserves_order() {
        let entries = sample_entries();
        let lines = encode_entries(&entries);
        let back: Vec<FlowEntry> = lines.iter().map(|l| decode_entry(l).unwrap()).collect();
        assert_eq!(back, entries);
    }

    #[test]
    fn corrupt_records_name_the_text() {
        let malformed = ["", "x|*|drop", "1|zz:3|drop", "1|*|warp", "1|in3|drop", "1|*"];
        // Each parses, but `encode_entry` never writes it.
        let non_canonical = [
            "1|dst:4,dst:5|drop",
            "+1|*|drop",
            "01|*|drop",
            "1|dst:4,in:3|drop",
            "1|*|out:+2",
            "1|*|goto:007",
        ];
        for bad in malformed.into_iter().chain(non_canonical) {
            let e = decode_entry(bad).unwrap_err();
            assert!(e.to_string().contains(&format!("`{bad}`")), "{e}");
        }
    }

    /// The grammar's pieces plus signs, leading zeros, overflow and junk.
    /// Lines built from them are mostly well formed, so the decoder's
    /// accepting path sees the non-canonical spellings (repeated and
    /// reordered fields, padded numbers) as well as its error paths.
    const NUM: [&str; 9] = ["0", "4", "9", "00", "+", "-", "65536", "4294967296", " "];
    const KEY: [&str; 8] = ["in:", "md:", "src:", "dst:", "ls:", "ld:", "zz:", "in"];
    const ACT: [&str; 4] = ["drop", "out:", "goto:", "warp"];
    const ALPHABET: [&str; 12] =
        ["0", "1", "|", "*", ",", ":", "+", "in:", "dst:", "out:", "drop", "\u{e9}"];

    fn spell(tokens: &[usize], from: &[&str]) -> String {
        tokens.iter().map(|&t| from[t]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Decoding never panics, and whatever it accepts is exactly what
        /// `encode_entry` writes for the entry it returns.
        #[test]
        fn decode_accepts_only_canonical_text(
            prio in collection::vec(0..NUM.len(), 1..3),
            fields in collection::vec((0..KEY.len(), 0..NUM.len()), 0..4),
            action in (0..ACT.len(), 0..NUM.len()),
            raw in collection::vec(0..ALPHABET.len(), 0..12),
        ) {
            let fields: Vec<String> =
                fields.iter().map(|&(k, v)| format!("{}{}", KEY[k], NUM[v])).collect();
            let m = if fields.is_empty() { "*".to_string() } else { fields.join(",") };
            let a = match action {
                (0, _) => ACT[0].to_string(),
                (a, v) => format!("{}{}", ACT[a], NUM[v]),
            };
            for s in [format!("{}|{m}|{a}", spell(&prio, &NUM)), spell(&raw, &ALPHABET)] {
                if let Ok(e) = decode_entry(&s) {
                    prop_assert_eq!(encode_entry(&e), s);
                }
            }
        }
    }
}
